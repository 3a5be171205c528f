//! In-memory spans recorded around calls into each layer, written at
//! exit as Chrome trace-event JSON (opens in Perfetto or
//! chrome://tracing).
//!
//! A span has a name, a start and end, the span that caused it, and an
//! operation id shared by every span of one bulk pass or one served
//! request. A span's self time is its duration minus the part of it
//! that its children cover.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::time::Instant;

pub type SpanId = u32;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Pass or request this span belongs to.
    pub op: u64,
    pub parent: Option<SpanId>,
    /// Display row in the trace viewer.
    pub track: u32,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    pub end_ns: u64,
    pub args: Vec<(&'static str, f64)>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Record a finished span; `end` before `start` is clamped to an
    /// empty span.
    pub fn span(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<SpanId>,
        track: u32,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        let start_ns = self.ns(start);
        let end_ns = self.ns(end).max(start_ns);
        self.spans.push(Span {
            name,
            op,
            parent,
            track,
            start_ns,
            end_ns,
            args: Vec::new(),
        });
        (self.spans.len() - 1) as SpanId
    }

    pub fn arg(&mut self, id: SpanId, key: &'static str, value: f64) {
        self.spans[id as usize].args.push((key, value));
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals, each clipped to the span.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: HashMap<SpanId, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let Some(kids) = children.get_mut(&(i as SpanId)) else {
                return s.dur_ns();
            };
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// Chrome trace-event JSON for at most `limit` spans (the earliest
/// recorded), with `meta` under `otherData`.
pub fn chrome_json(spans: &[Span], limit: usize, meta: &[(&str, String)]) -> String {
    let spans = &spans[..spans.len().min(limit)];
    let self_ns = self_times(spans);
    let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"otherData\":{");
    for (i, (k, v)) in meta.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(out, "{sep}{}:{}", json_str(k), json_str(v));
    }
    out.push_str("},\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            out,
            "{sep}\n{{\"name\":{},\"cat\":\"perfbench\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
             \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"op\":{},\"parent\":{},\"self_us\":{:.3}",
            json_str(s.name),
            s.track,
            s.start_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3,
            s.op,
            s.parent.map_or("null".to_string(), |p| p.to_string()),
            self_ns[i] as f64 / 1e3,
        );
        for (k, v) in &s.args {
            let _ = write!(out, ",{}:{}", json_str(k), json_num(*v));
        }
        out.push_str("}}");
    }
    out.push_str("\n]}\n");
    out
}

pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite number in JSON syntax, with every digit Rust prints.
pub fn json_num(v: f64) -> String {
    assert!(v.is_finite(), "non-finite metric value {v}");
    format!("{v}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<SpanId>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: "s",
            op: 0,
            parent,
            track: 0,
            start_ns,
            end_ns,
            args: Vec::new(),
        }
    }

    #[test]
    fn self_time_of_a_tiled_span_is_zero() {
        let spans = [
            span(None, 0, 100),
            span(Some(0), 0, 40),
            span(Some(0), 40, 100),
        ];
        assert_eq!(self_times(&spans), vec![0, 40, 60]);
    }

    #[test]
    fn self_time_counts_gaps_and_overlaps_once() {
        // Children cover [10, 50) with an overlap, and [70, 80).
        let spans = [
            span(None, 0, 100),
            span(Some(0), 10, 40),
            span(Some(0), 30, 50),
            span(Some(0), 70, 80),
        ];
        assert_eq!(self_times(&spans)[0], 100 - 40 - 10);
    }

    #[test]
    fn self_time_clips_children_to_the_parent() {
        let spans = [
            span(None, 10, 20),
            span(Some(0), 0, 15),
            span(Some(0), 18, 30),
        ];
        assert_eq!(self_times(&spans)[0], 3);
    }

    #[test]
    fn grandchildren_do_not_count_against_the_grandparent() {
        let spans = [
            span(None, 0, 100),
            span(Some(0), 0, 50),
            span(Some(1), 0, 50),
        ];
        assert_eq!(self_times(&spans), vec![50, 0, 50]);
    }

    #[test]
    fn reversed_instants_make_an_empty_span() {
        let mut t = Tracer::new();
        let a = Instant::now();
        let b = a + std::time::Duration::from_micros(5);
        let id = t.span("x", 1, None, 0, b, a);
        assert_eq!(t.spans[id as usize].dur_ns(), 0);
    }

    #[test]
    fn chrome_export_lists_every_span_once_with_args() {
        let mut t = Tracer::new();
        let a = Instant::now();
        let root = t.span(
            "req",
            7,
            None,
            2,
            a,
            a + std::time::Duration::from_micros(10),
        );
        t.span(
            "exec",
            7,
            Some(root),
            2,
            a,
            a + std::time::Duration::from_micros(4),
        );
        t.arg(root, "n", 4096.0);
        let json = chrome_json(&t.spans, 10, &[("workload", "served".into())]);
        assert!(json.starts_with("{\"displayTimeUnit\":\"ns\""));
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 2);
        assert!(json.contains("\"workload\":\"served\""));
        assert!(json.contains("\"n\":4096"));
        assert!(json.contains("\"self_us\":6.000"));
        assert_eq!(chrome_json(&t.spans, 1, &[]).matches("\"ph\"").count(), 1);
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
        assert_eq!(json_num(0.5), "0.5");
    }
}
