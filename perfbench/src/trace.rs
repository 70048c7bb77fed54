//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! Spans live only in the benchmark's own code: each one brackets a call
//! into a public function of a qtnsim crate. A span has a name, start, end
//! and parent, and every span of one call or request carries that call's
//! id. Spans stay in memory while the workload runs and are written out as
//! JSON lines when it ends. With tracing off, [`Tracer::begin`] records
//! nothing and costs one branch.

use crate::stats;
use std::io::Write;
use std::time::Instant;

/// Handle of an open span (an index into the tracer's span list).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRef(usize);

const DISABLED: SpanRef = SpanRef(usize::MAX);

#[derive(Debug, Clone)]
struct Span {
    id: u64,
    name: &'static str,
    parent: Option<usize>,
    start: Instant,
    end: Option<Instant>,
}

/// Span recorder for one benchmark run.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder that records spans only when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Tracer { enabled, origin: Instant::now(), spans: Vec::new() }
    }

    /// Open a span of call `id`, nested under `parent` when given.
    pub fn begin(&mut self, id: u64, name: &'static str, parent: Option<SpanRef>) -> SpanRef {
        if !self.enabled {
            return DISABLED;
        }
        let parent = parent.filter(|p| *p != DISABLED).map(|p| p.0);
        self.spans.push(Span { id, name, parent, start: Instant::now(), end: None });
        SpanRef(self.spans.len() - 1)
    }

    /// Close a span opened by [`begin`](Self::begin).
    pub fn end(&mut self, span: SpanRef) {
        if span != DISABLED {
            self.spans[span.0].end = Some(Instant::now());
        }
    }

    /// Record a span whose start and end were measured elsewhere (for
    /// example by a receiver thread of the load generator).
    pub fn record(
        &mut self,
        id: u64,
        name: &'static str,
        parent: Option<SpanRef>,
        start: Instant,
        end: Instant,
    ) -> SpanRef {
        if !self.enabled {
            return DISABLED;
        }
        let parent = parent.filter(|p| *p != DISABLED).map(|p| p.0);
        self.spans.push(Span { id, name, parent, start, end: Some(end) });
        SpanRef(self.spans.len() - 1)
    }

    /// Run `f` inside a span of call `id`.
    pub fn time<T>(
        &mut self,
        id: u64,
        name: &'static str,
        parent: Option<SpanRef>,
        f: impl FnOnce() -> T,
    ) -> T {
        let span = self.begin(id, name, parent);
        let out = f();
        self.end(span);
        out
    }

    /// Durations in seconds of every closed span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .filter_map(|s| s.end.map(|e| e.duration_since(s.start).as_secs_f64()))
            .collect()
    }

    /// Median duration of the spans called `name`, in milliseconds (0 when
    /// no such span was recorded: the workload bypasses that layer).
    pub fn median_ms(&self, name: &str) -> f64 {
        let d = self.durations(name);
        if d.is_empty() {
            0.0
        } else {
            stats::median(&d) * 1e3
        }
    }

    /// Per-name summary lines: count, median, total and self time (a span's
    /// duration minus the time its direct children cover).
    pub fn summary(&self) -> Vec<String> {
        let mut child_time = vec![0.0f64; self.spans.len()];
        for s in &self.spans {
            if let (Some(p), Some(end)) = (s.parent, s.end) {
                child_time[p] += end.duration_since(s.start).as_secs_f64();
            }
        }
        let mut names: Vec<&'static str> = self.spans.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        names
            .into_iter()
            .map(|name| {
                let (mut total, mut own) = (0.0, 0.0);
                for (i, s) in self.spans.iter().enumerate().filter(|(_, s)| s.name == name) {
                    if let Some(end) = s.end {
                        let d = end.duration_since(s.start).as_secs_f64();
                        total += d;
                        own += (d - child_time[i]).max(0.0);
                    }
                }
                let d = self.durations(name);
                format!(
                    "span {name}: count {} median_ms {:.4} total_ms {:.3} self_ms {:.3}",
                    d.len(),
                    stats::median(&d) * 1e3,
                    total * 1e3,
                    own * 1e3
                )
            })
            .collect()
    }

    /// Write every span as one JSON object per line: call id, name, start
    /// and end in nanoseconds since the tracer was created, and the index
    /// of the parent span (the line number, from 0) or `null`.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let ns = |t: Instant| t.duration_since(self.origin).as_nanos();
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let end = s.end.map_or("null".to_string(), |e| ns(e).to_string());
            writeln!(
                out,
                "{{\"id\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}}}",
                s.id,
                s.name,
                ns(s.start),
                end,
                parent
            )?;
        }
        out.flush()
    }
}
