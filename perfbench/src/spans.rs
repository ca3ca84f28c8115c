//! The benchmark's own spans: one record around every call it makes into
//! a layer of the program, kept in memory and written out when the run
//! ends.
//!
//! Two kinds of record exist. A *timed* span is opened and closed by the
//! benchmark around a call. A *reported* span carries a duration the
//! program measured itself and returned through a public accessor (the
//! planning and evaluation time of an answer, the maintenance phases of an
//! edit batch); it is laid inside the timed span of the call that returned
//! it, one after the other from the parent's start, so that the parent's
//! **self time** — its duration minus the part its children cover — is
//! exactly the time the program did not account for.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

use crate::json::Value;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanId(u32);

#[derive(Clone, Debug, PartialEq)]
pub struct SpanRec {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    /// Spans of one request (one batch, one edit batch) share this.
    pub request: u64,
    pub reported: bool,
}

/// One thread's spans. Threads record into their own log and the logs are
/// merged after the round, so recording takes no lock.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    spans: Vec<SpanRec>,
}

impl SpanLog {
    /// All logs of a run share `epoch`, so merged spans are comparable.
    pub fn new(epoch: Instant) -> SpanLog {
        SpanLog { epoch, spans: Vec::new() }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>, request: u64) -> SpanId {
        let start_ns = self.now();
        self.spans.push(SpanRec {
            name,
            start_ns,
            end_ns: start_ns,
            parent: parent.map(|p| p.0),
            request,
            reported: false,
        });
        SpanId(self.spans.len() as u32 - 1)
    }

    pub fn close(&mut self, id: SpanId) {
        self.spans[id.0 as usize].end_ns = self.now();
    }

    /// Lays program-reported durations inside `parent`, sequentially from
    /// its start (see the module docs).
    pub fn report(&mut self, parent: SpanId, parts: &[(&'static str, u64)]) {
        let p = &self.spans[parent.0 as usize];
        let (mut at, request) = (p.start_ns, p.request);
        for &(name, ns) in parts {
            self.spans.push(SpanRec {
                name,
                start_ns: at,
                end_ns: at + ns,
                parent: Some(parent.0),
                request,
                reported: true,
            });
            at += ns;
        }
    }

    pub fn merge(&mut self, other: SpanLog) {
        let base = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Per span name: how many, their total duration, and their total self
    /// time, in nanoseconds.
    pub fn by_name(&self) -> BTreeMap<&'static str, NameTotals> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                let parent = &self.spans[p as usize];
                let (a, b) = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
                if a < b {
                    children[p as usize].push((a, b));
                }
            }
        }
        let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for (s, kids) in self.spans.iter().zip(&mut children) {
            let t = out.entry(s.name).or_default();
            let duration = s.end_ns - s.start_ns;
            t.count += 1;
            t.total_ns += duration;
            t.self_ns += duration - covered(kids);
        }
        out
    }

    /// One JSON object per line:
    /// `{"id","name","start_ns","end_ns","parent","request_id","reported"}`.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let line = Value::obj(vec![
                ("id", Value::Num(id as f64)),
                ("name", Value::str(s.name)),
                ("start_ns", Value::Num(s.start_ns as f64)),
                ("end_ns", Value::Num(s.end_ns as f64)),
                ("parent", s.parent.map_or(Value::Null, |p| Value::Num(f64::from(p)))),
                ("request_id", Value::Num(s.request as f64)),
                ("reported", Value::Bool(s.reported)),
            ]);
            writeln!(out, "{}", line.to_json())?;
        }
        out.flush()
    }
}

#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Length of the union of `intervals` (sorted in place).
fn covered(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = 0;
    for &(a, b) in intervals.iter() {
        let a = a.max(reach);
        if b > a {
            total += b - a;
            reach = b;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> SpanRec {
        SpanRec { name, start_ns: start, end_ns: end, parent, request: 1, reported: false }
    }

    #[test]
    fn self_time_is_duration_minus_what_children_cover() {
        let log = SpanLog {
            epoch: Instant::now(),
            spans: vec![
                rec("root", 0, 100, None),
                // Two overlapping children cover 10..50, a third 60..70; a
                // fourth sticks out of the parent and is clipped to 90..100.
                rec("a", 10, 40, Some(0)),
                rec("b", 30, 50, Some(0)),
                rec("a", 60, 70, Some(0)),
                rec("c", 90, 130, Some(0)),
                // A grandchild takes from its own parent only.
                rec("d", 12, 20, Some(1)),
            ],
        };
        let t = log.by_name();
        assert_eq!(t["root"], NameTotals { count: 1, total_ns: 100, self_ns: 100 - 40 - 10 - 10 });
        assert_eq!(t["a"], NameTotals { count: 2, total_ns: 40, self_ns: 40 - 8 });
        assert_eq!(t["b"].self_ns, 20);
        assert_eq!(t["c"].self_ns, 40);
        assert_eq!(t["d"].self_ns, 8);
    }

    #[test]
    fn reported_children_leave_the_unaccounted_time_as_self_time() {
        let mut log = SpanLog::new(Instant::now());
        let call = log.open("call", None, 7);
        std::thread::sleep(std::time::Duration::from_millis(2));
        log.close(call);
        log.report(call, &[("phase_one", 300_000), ("phase_two", 500_000)]);
        let t = log.by_name();
        assert_eq!(t["phase_one"].total_ns, 300_000);
        assert_eq!(t["call"].self_ns, t["call"].total_ns - 800_000);
        assert!(log.spans[1..].iter().all(|s| s.reported && s.request == 7));
        assert_eq!(log.spans[2].start_ns, log.spans[1].end_ns);
    }

    #[test]
    fn merge_keeps_parent_links() {
        let mut a = SpanLog::new(Instant::now());
        let mut b = SpanLog::new(a.epoch);
        let x = a.open("x", None, 1);
        a.close(x);
        let y = b.open("y", None, 2);
        let z = b.open("z", Some(y), 2);
        b.close(z);
        b.close(y);
        a.merge(b);
        assert_eq!(a.spans.len(), 3);
        assert_eq!(a.spans[2].parent, Some(1));
        assert_eq!(a.spans[a.spans[2].parent.unwrap() as usize].name, "y");
    }

    #[test]
    fn jsonl_lines_parse() {
        let mut log = SpanLog::new(Instant::now());
        let x = log.open("engine.answer_batch", None, 3);
        log.close(x);
        log.report(x, &[("core.plan", 5)]);
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("target/test-scratch");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("spans.jsonl");
        log.write_jsonl(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let second = crate::json::parse(lines[1]).unwrap();
        assert_eq!(second.get("name").unwrap().as_str(), Some("core.plan"));
        assert_eq!(second.get("parent").unwrap().as_f64(), Some(0.0));
        assert_eq!(second.get("request_id").unwrap().as_f64(), Some(3.0));
    }
}
