//! Where a run was made: recorded in every report, because a number
//! without its machine is not comparable with anything.

use std::process::Command;

use crate::json::Value;

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status.success().then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

fn cpu_model() -> Option<String> {
    let info = std::fs::read_to_string("/proc/cpuinfo").ok()?;
    info.lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split_once(':'))
        .map(|(_, v)| v.trim().to_string())
}

/// `nproc`, CPU model, kernel, compiler and commit; `"unknown"` where the
/// environment does not say (a checkout need not be a git repository).
pub fn describe() -> Value {
    let unknown = || "unknown".to_string();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    Value::obj(vec![
        ("nproc", Value::Num(nproc as f64)),
        ("cpu", Value::Str(cpu_model().unwrap_or_else(unknown))),
        (
            "kernel",
            Value::Str(
                std::fs::read_to_string("/proc/sys/kernel/osrelease")
                    .map_or_else(|_| unknown(), |s| s.trim().to_string()),
            ),
        ),
        ("rustc", Value::Str(command_line("rustc", &["-V"]).unwrap_or_else(unknown))),
        ("commit", Value::Str(command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(unknown))),
    ])
}
