//! In-memory host spans recorded by benchmark code around each call into
//! a layer, written to `out/trace-<workload>.json` when the run ends.
//!
//! A span has a name, start, end, the span that caused it (`parent`) and
//! the iteration it belongs to. Per-thread operator records (thread CPU
//! and call count of one simulated thread inside one operator) hang off
//! the `simnet.run` span of their iteration. Self time of a span is its
//! duration minus what its children cover.

use std::cell::{Cell, RefCell};
use std::fmt::Write as _;
use std::time::Instant;

pub struct Span {
    pub name: String,
    pub parent: Option<usize>,
    pub iteration: u32,
    pub start_us: f64,
    pub end_us: f64,
    /// Thread CPU and calls, for per-thread operator records only.
    pub cpu_us: Option<f64>,
    pub calls: Option<u64>,
}

/// A started span; close it with [`Tracer::end`].
pub struct Open {
    idx: Option<usize>,
    start: Instant,
}

pub struct Tracer {
    origin: Instant,
    on: bool,
    iteration: Cell<u32>,
    spans: RefCell<Vec<Span>>,
}

impl Tracer {
    /// `origin` is process start; spans are only kept when `on`.
    pub fn new(origin: Instant, on: bool) -> Tracer {
        Tracer {
            origin,
            on,
            iteration: Cell::new(0),
            spans: RefCell::new(Vec::new()),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    pub fn origin(&self) -> Instant {
        self.origin
    }

    pub fn set_iteration(&self, iteration: u32) {
        self.iteration.set(iteration);
    }

    fn us(&self, at: Instant) -> f64 {
        at.duration_since(self.origin).as_secs_f64() * 1e6
    }

    pub fn begin(&self, name: &str, parent: Option<&Open>) -> Open {
        let start = Instant::now();
        let idx = self.on.then(|| {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                name: name.to_string(),
                parent: parent.and_then(|p| p.idx),
                iteration: self.iteration.get(),
                start_us: self.us(start),
                end_us: f64::NAN,
                cpu_us: None,
                calls: None,
            });
            spans.len() - 1
        });
        Open { idx, start }
    }

    /// Closes the span and returns its duration in seconds (measured
    /// whether or not spans are kept).
    pub fn end(&self, open: &Open) -> f64 {
        let end = Instant::now();
        if let Some(idx) = open.idx {
            self.spans.borrow_mut()[idx].end_us = self.us(end);
        }
        end.duration_since(open.start).as_secs_f64()
    }

    /// Times `f` as a span.
    pub fn span<R>(&self, name: &str, parent: Option<&Open>, f: impl FnOnce() -> R) -> (R, f64) {
        let open = self.begin(name, parent);
        let r = f();
        (r, self.end(&open))
    }

    /// Adds one simulated thread's record inside one operator as a child
    /// of `parent`.
    pub fn thread_record(
        &self,
        name: &str,
        parent: &Open,
        first_us: f64,
        last_us: f64,
        cpu_ns: u64,
        calls: u64,
    ) {
        if !self.on {
            return;
        }
        self.spans.borrow_mut().push(Span {
            name: name.to_string(),
            parent: parent.idx,
            iteration: self.iteration.get(),
            start_us: first_us,
            end_us: last_us,
            cpu_us: Some(cpu_ns as f64 / 1e3),
            calls: Some(calls),
        });
    }

    /// The trace as one JSON document.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let spans = self.spans.borrow();
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"workload\":\"{workload}\",\"seed\":{seed},\"unit\":\"us since process start\",\"spans\":["
        );
        for (id, s) in spans.iter().enumerate() {
            if id > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "\n{{\"id\":{id},\"parent\":{parent},\"iteration\":{},\"name\":\"{}\",\"start_us\":{:.1},\"end_us\":{:.1}",
                s.iteration, s.name, s.start_us, s.end_us
            );
            if let (Some(cpu), Some(calls)) = (s.cpu_us, s.calls) {
                let _ = write!(out, ",\"cpu_us\":{cpu:.1},\"calls\":{calls}");
            }
            out.push('}');
        }
        out.push_str("\n]}\n");
        out
    }
}
