//! In-memory span recorder.
//!
//! Spans are opened from the benchmark's own code around calls into each
//! layer's public functions; nothing inside the engine is instrumented.
//! Every stage is timed through [`Tracer::span`] whether tracing is on or
//! off, so the untraced run measures exactly what the traced run records,
//! minus the bookkeeping.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One closed span.
pub struct Span {
    /// Layer name (`crate.module[.step]`).
    pub name: &'static str,
    /// Workload repetition (or probe) the span belongs to.
    pub run: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, relative to the tracer's origin.
    pub start: Duration,
    /// End, relative to the tracer's origin.
    pub end: Duration,
}

impl Span {
    fn duration(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// Span sink; a disabled tracer times stages but records nothing.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    run: u64,
    open: Vec<usize>,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that records spans only when `enabled`.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            run: 0,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Start a new run id; spans opened from now on carry it.
    pub fn next_run(&mut self) {
        self.run += 1;
    }

    /// Run `f` inside a span called `name`, returning its value and its
    /// wall-clock duration.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> (T, Duration) {
        if !self.enabled {
            let start = Instant::now();
            let out = f(self);
            return (out, start.elapsed());
        }
        let id = self.spans.len();
        let start = self.origin.elapsed();
        self.spans.push(Span {
            name,
            run: self.run,
            parent: self.open.last().copied(),
            start,
            end: start,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        let end = self.origin.elapsed();
        self.spans[id].end = end;
        (out, end.saturating_sub(start))
    }

    /// Forget spans left open by a panic, so later spans get the right
    /// parent.
    pub fn recover(&mut self) {
        self.open.clear();
    }

    /// Number of recorded spans.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// The recorded spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"run\":{},\"parent\":{parent},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3}}}",
                s.run,
                s.name,
                s.start.as_secs_f64() * 1e6,
                s.end.as_secs_f64() * 1e6,
            );
        }
        out
    }

    /// Per-name totals: `(count, total seconds, self seconds)`, where self
    /// time is a span's duration minus that of its direct children.
    pub fn summary(&self) -> BTreeMap<&'static str, (u64, f64, f64)> {
        let mut child_time = vec![Duration::ZERO; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_time[p] += s.duration();
            }
        }
        let mut out: BTreeMap<&'static str, (u64, f64, f64)> = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(&child_time) {
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.duration().as_secs_f64();
            e.2 += s.duration().saturating_sub(*children).as_secs_f64();
        }
        out
    }
}
