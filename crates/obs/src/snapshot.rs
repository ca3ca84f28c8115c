//! [`MetricsSnapshot`]: a flat list of named, optionally labelled
//! [`Sample`]s (counters, gauges, histogram summaries). It is the **one
//! render path** for every counter: the registry and the engine's stats
//! structs fill it, the `StatsV2Resp` frame encodes it field for field,
//! and [`MetricsSnapshot::to_text`] prints it for `xpv stats`.

use std::fmt::Write as _;

/// The six-number summary a histogram exposes (see
/// [`HistogramSnapshot::summary`](crate::HistogramSnapshot::summary)).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HistogramSummary {
    pub count: u64,
    pub sum: u64,
    pub max: u64,
    pub p50: u64,
    pub p90: u64,
    pub p99: u64,
}

/// A sample's value: which instrument kind produced it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SampleValue {
    Counter(u64),
    Gauge(u64),
    Histogram(HistogramSummary),
}

/// One named metric sample.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Sample {
    pub name: String,
    /// `(key, value)` label pairs (usually empty or a single `tenant`).
    pub labels: Vec<(String, String)>,
    pub value: SampleValue,
}

/// A frozen set of metric samples (see the module docs).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    pub samples: Vec<Sample>,
}

impl MetricsSnapshot {
    pub fn new() -> MetricsSnapshot {
        MetricsSnapshot::default()
    }

    fn push(&mut self, name: String, labels: Vec<(String, String)>, value: SampleValue) {
        self.samples.push(Sample { name, labels, value });
    }

    pub fn push_counter(&mut self, name: impl Into<String>, value: u64) {
        self.push(name.into(), Vec::new(), SampleValue::Counter(value));
    }

    /// A labeled counter sample (`name{key="value"} v`).
    pub fn push_counter_labeled(
        &mut self,
        name: impl Into<String>,
        label: (&str, &str),
        value: u64,
    ) {
        let labels = vec![(label.0.to_string(), label.1.to_string())];
        self.push(name.into(), labels, SampleValue::Counter(value));
    }

    pub fn push_gauge(&mut self, name: impl Into<String>, value: u64) {
        self.push(name.into(), Vec::new(), SampleValue::Gauge(value));
    }

    pub fn push_histogram(&mut self, name: impl Into<String>, summary: HistogramSummary) {
        self.push(name.into(), Vec::new(), SampleValue::Histogram(summary));
    }

    /// Sorts by `(name, labels)` — deterministic output independent of
    /// insertion order.
    pub fn sort(&mut self) {
        self.samples.sort_by(|a, b| a.name.cmp(&b.name).then_with(|| a.labels.cmp(&b.labels)));
    }

    /// The first sample named `name` (any labels).
    pub fn get(&self, name: &str) -> Option<&Sample> {
        self.samples.iter().find(|s| s.name == name)
    }

    /// The Prometheus-style text exposition: one `name{labels} value`
    /// line per counter/gauge, and `_count`/`_sum`/`_max`/`_p50`/`_p90`/
    /// `_p99` lines per histogram.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for s in &self.samples {
            match s.value {
                SampleValue::Counter(v) | SampleValue::Gauge(v) => {
                    write_line(&mut out, &s.name, "", &s.labels, v);
                }
                SampleValue::Histogram(h) => {
                    write_line(&mut out, &s.name, "_count", &s.labels, h.count);
                    write_line(&mut out, &s.name, "_sum", &s.labels, h.sum);
                    write_line(&mut out, &s.name, "_max", &s.labels, h.max);
                    write_line(&mut out, &s.name, "_p50", &s.labels, h.p50);
                    write_line(&mut out, &s.name, "_p90", &s.labels, h.p90);
                    write_line(&mut out, &s.name, "_p99", &s.labels, h.p99);
                }
            }
        }
        out
    }
}

fn write_line(out: &mut String, name: &str, suffix: &str, labels: &[(String, String)], v: u64) {
    out.push_str(name);
    out.push_str(suffix);
    if !labels.is_empty() {
        out.push('{');
        for (i, (k, val)) in labels.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{k}=\"{}\"", escape_label(val));
        }
        out.push('}');
    }
    let _ = writeln!(out, " {v}");
}

/// Escapes a label value per the Prometheus text rules (`\`, `"`, and
/// newlines) — tenant ids are arbitrary client strings.
fn escape_label(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Renders a `visit`-style counter enumeration as one `name=value` line —
/// the shared `Display` body for the stats structs with a `visit`
/// (`xpv-semantics`' `OracleStats`, `xpv-engine`'s `CacheStats`,
/// `xpv-maintain`'s `MaintainStats`, `xpv-net`'s `TenantStats`): their
/// `Display` output and their registry exposition walk the **same**
/// enumeration, so the two can no longer drift.
pub fn write_kv_line(
    f: &mut std::fmt::Formatter<'_>,
    visit: impl FnOnce(&mut dyn FnMut(&'static str, u64)),
) -> std::fmt::Result {
    let mut line = String::new();
    visit(&mut |name, v| {
        if !line.is_empty() {
            line.push(' ');
        }
        let _ = write!(line, "{name}={v}");
    });
    f.write_str(&line)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn text_exposition_renders_all_kinds() {
        let mut snap = MetricsSnapshot::new();
        snap.push_counter("xpv_cache_queries", 12);
        snap.push_counter_labeled("xpv_tenant_queries", ("tenant", "acme"), 7);
        snap.push_gauge("xpv_server_connections", 3);
        snap.push_histogram(
            "xpv_phase_eval_us",
            HistogramSummary { count: 2, sum: 30, max: 20, p50: 15, p90: 20, p99: 20 },
        );
        let text = snap.to_text();
        assert!(text.contains("xpv_cache_queries 12\n"), "got: {text}");
        assert!(text.contains("xpv_tenant_queries{tenant=\"acme\"} 7\n"), "got: {text}");
        assert!(text.contains("xpv_server_connections 3\n"), "got: {text}");
        assert!(text.contains("xpv_phase_eval_us_p99 20\n"), "got: {text}");
        assert!(text.contains("xpv_phase_eval_us_count 2\n"), "got: {text}");
    }

    #[test]
    fn label_values_are_escaped() {
        let mut snap = MetricsSnapshot::new();
        snap.push_counter_labeled("m", ("tenant", "a\"b\\c\nd"), 1);
        assert_eq!(snap.to_text(), "m{tenant=\"a\\\"b\\\\c\\nd\"} 1\n");
    }

    #[test]
    fn sort_is_deterministic() {
        let mut snap = MetricsSnapshot::new();
        snap.push_counter("b", 1);
        snap.push_counter_labeled("a", ("tenant", "z"), 2);
        snap.push_counter_labeled("a", ("tenant", "k"), 3);
        snap.sort();
        assert_eq!(snap.samples[0].name, "a");
        assert_eq!(snap.samples[0].labels[0].1, "k");
        assert_eq!(snap.samples[2].name, "b");
    }
}
