//! In-memory span recorder for the traced run.
//!
//! Spans are taken from the benchmark's own code around calls into each
//! layer's public functions; nothing inside the library is instrumented.
//! A span records its name, start and end (µs since the tracer's epoch),
//! its parent span and the op it belongs to.  Counts ride along keyed the
//! same way.  Everything stays in memory until [`Tracer::write_jsonl`] at
//! the end of the run.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// One timed interval.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
    pub parent: Option<usize>,
    pub op: u64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_us - self.start_us) / 1e3
    }
}

/// Records spans and counts; spans nest through an explicit stack.
pub struct Tracer {
    epoch: Instant,
    op: u64,
    stack: Vec<usize>,
    spans: Vec<Span>,
    counts: Vec<(u64, &'static str, f64)>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            op: 0,
            stack: Vec::new(),
            spans: Vec::new(),
            counts: Vec::new(),
        }
    }

    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// Starts op `op`: later spans and counts carry its id.
    pub fn begin_op(&mut self, op: u64) {
        debug_assert!(self.stack.is_empty(), "op started inside a span");
        self.op = op;
    }

    /// Runs `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        let id = self.spans.len();
        let start_us = self.now_us();
        self.spans.push(Span {
            name,
            start_us,
            end_us: start_us,
            parent: self.stack.last().copied(),
            op: self.op,
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        self.spans[id].end_us = self.now_us();
        out
    }

    /// Records a count for the current op.
    pub fn count(&mut self, name: &'static str, value: f64) {
        self.counts.push((self.op, name, value));
    }

    /// Per-op sums of the durations (ms) of spans named `name`, for every op
    /// in `ops` (0 where the op has no such span).
    pub fn per_op_ms(&self, name: &str, ops: &[u64]) -> Vec<f64> {
        let spans = self.spans.iter().filter(|s| s.name == name);
        per_op(ops, spans.map(|s| (s.op, s.ms())))
    }

    /// Per-op sums of the counts named `name`, for every op in `ops`.
    pub fn per_op_count(&self, name: &str, ops: &[u64]) -> Vec<f64> {
        let counts = self.counts.iter().filter(|(_, n, _)| *n == name);
        per_op(ops, counts.map(|&(op, _, v)| (op, v)))
    }

    /// Writes every span and count as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path, header: &str) -> std::io::Result<()> {
        let mut out = String::with_capacity(96 * (self.spans.len() + self.counts.len() + 1));
        out.push_str(header);
        out.push('\n');
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"op\":{},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3}}}",
                s.op, s.name, s.start_us, s.end_us
            );
        }
        for (op, name, value) in &self.counts {
            let _ = writeln!(
                out,
                "{{\"op\":{op},\"count\":\"{name}\",\"value\":{value}}}"
            );
        }
        std::fs::write(path, out)
    }
}

/// Sums `(op, value)` pairs per op, in the order of `ops`.
fn per_op(ops: &[u64], values: impl Iterator<Item = (u64, f64)>) -> Vec<f64> {
    let mut by_op: BTreeMap<u64, f64> = ops.iter().map(|&o| (o, 0.0)).collect();
    for (op, v) in values {
        if let Some(t) = by_op.get_mut(&op) {
            *t += v;
        }
    }
    by_op.into_values().collect()
}
