//! In-memory spans for the traced run.
//!
//! A span has a name, start and end (ns since the trace origin), the
//! span that caused it, and a request id shared by the spans of one
//! request. Client spans come from the load generator; the server's
//! `queue_micros` / `micros` become child spans of the client request
//! that carried them, placed at the end of the parent (the server
//! reports durations, not instants). Spans stay in memory and are
//! written once, as NDJSON, when the run ends.

use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub req: u64,
}

pub struct Trace {
    origin: Instant,
    pub spans: Vec<Span>,
    /// Time spent recording client spans, and how many were recorded: the
    /// tracing overhead each traced request carries.
    overhead_ns: u64,
    recorded: u64,
}

impl Trace {
    pub fn new() -> Trace {
        Trace { origin: Instant::now(), spans: Vec::new(), overhead_ns: 0, recorded: 0 }
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// An instant on the trace clock.
    pub fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    pub fn push(
        &mut self,
        name: &str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
        req: u64,
    ) -> usize {
        self.spans.push(Span { name: name.to_string(), start_ns, end_ns, parent, req });
        self.spans.len() - 1
    }

    /// Time one call into a layer as a span.
    pub fn time<T>(&mut self, name: &str, parent: Option<usize>, f: impl FnOnce() -> T) -> T {
        let start = self.now_ns();
        let out = std::hint::black_box(f());
        let end = self.now_ns();
        self.push(name, start, end, parent, 0);
        out
    }

    /// One client request: `due..arrived` on the trace clock, with the
    /// server's queue wait and compute time as children.
    pub fn client_request(
        &mut self,
        req: u64,
        op: &str,
        due_ns: u64,
        arrived_ns: u64,
        line: &str,
    ) {
        let began = Instant::now();
        let (start, end) = (due_ns, arrived_ns);
        let parent = self.push(&format!("client.{op}"), start, end, None, req);
        let queue = number_field(line, "queue_micros").unwrap_or(0.0) as u64 * 1000;
        let compute = number_field(line, "micros").unwrap_or(0.0) as u64 * 1000;
        let compute_start = end.saturating_sub(compute).max(start);
        let queue_start = compute_start.saturating_sub(queue).max(start);
        self.push("serve.pool.queue", queue_start, compute_start, Some(parent), req);
        self.push("serve.pool.compute", compute_start, end, Some(parent), req);
        self.overhead_ns += began.elapsed().as_nanos() as u64;
        self.recorded += 1;
    }

    /// Mean bookkeeping cost per recorded client request, in µs.
    pub fn overhead_us(&self) -> f64 {
        self.overhead_ns as f64 / 1e3 / self.recorded.max(1) as f64
    }

    /// A span's duration minus the part of it its children cover.
    pub fn self_time_ns(&self, idx: usize) -> u64 {
        let span = &self.spans[idx];
        let mut kids: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(idx))
            .map(|s| (s.start_ns.max(span.start_ns), s.end_ns.min(span.end_ns)))
            .filter(|(a, b)| a < b)
            .collect();
        kids.sort_unstable();
        let (mut covered, mut reach) = (0u64, span.start_ns);
        for (a, b) in kids {
            let a = a.max(reach);
            if b > a {
                covered += b - a;
                reach = b;
            }
        }
        (span.end_ns - span.start_ns).saturating_sub(covered)
    }

    /// Durations (µs) of every span with this name.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .collect()
    }

    /// All spans as NDJSON.
    pub fn to_ndjson(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                r#"{{"span":{i},"name":"{}","start_ns":{},"end_ns":{},"parent":{parent},"req":{}}}"#,
                s.name, s.start_ns, s.end_ns, s.req
            );
        }
        out
    }
}

/// A numeric field of a flat JSON response line, without a full parse.
pub fn number_field(line: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let at = line.find(&pat)? + pat.len();
    let rest = &line[at..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut t = Trace::new();
        let p = t.push("parent", 0, 100, None, 1);
        t.push("a", 10, 40, Some(p), 1);
        t.push("b", 30, 60, Some(p), 1); // overlaps a
        t.push("c", 90, 120, Some(p), 1); // runs past the parent
        assert_eq!(t.self_time_ns(p), 100 - 50 - 10);
    }

    #[test]
    fn server_fields_become_children_of_the_client_span() {
        let mut t = Trace::new();
        let line = r#"{"ok":true,"op":"ecc","id":3,"value":1.5,"node":2,"tier":"fast","cached":false,"micros":120,"queue_micros":30}"#;
        t.client_request(3, "ecc", 1_000_000, 1_400_000, line);
        assert_eq!(t.self_time_ns(0), 250_000);
        assert_eq!(t.durations_us("serve.pool.compute"), vec![120.0]);
        assert_eq!(t.durations_us("serve.pool.queue"), vec![30.0]);
        assert_eq!(number_field(line, "micros"), Some(120.0));
    }
}
