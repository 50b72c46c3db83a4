//! In-memory spans for the traced run, recorded by the benchmark around
//! its own calls into each layer's public functions (the program itself
//! carries no spans). Each client thread owns a [`Tracer`]; the spans
//! are written out as JSON lines when the run ends.

use std::fmt::Write as _;
use std::time::Instant;

/// Spans kept per tracer, so a long traced run stays small in memory and
/// on disk (a 40 s traced run would otherwise keep several million).
const MAX_SPANS: usize = 50_000;

pub struct Span {
    pub name: &'static str,
    /// Index of the parent span in the same tracer, if any.
    pub parent: Option<usize>,
    /// Spans of one request share this id.
    pub request: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Tracer {
    epoch: Instant,
    pub thread: usize,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant, thread: usize) -> Tracer {
        Tracer {
            epoch,
            thread,
            spans: Vec::new(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Keeps a finished span and returns its index; `None` once the
    /// tracer holds MAX_SPANS, after which spans are timed but not kept.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        start_ns: u64,
        end_ns: u64,
    ) -> Option<usize> {
        if self.spans.len() >= MAX_SPANS {
            return None;
        }
        self.spans.push(Span {
            name,
            parent,
            request,
            start_ns,
            end_ns,
        });
        Some(self.spans.len() - 1)
    }

    /// Runs `f` inside a root span.
    pub fn spanned<T>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> T) -> T {
        let start = self.now_ns();
        let value = f();
        let end = self.now_ns();
        self.record(name, None, request, start, end);
        value
    }

    /// Self time of every span: its duration minus the time its direct
    /// children cover (children of one client span run one after the
    /// other, so their durations add without overlap).
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        self.spans
            .iter()
            .zip(child_ns)
            .map(|(s, c)| (s.end_ns - s.start_ns).saturating_sub(c))
            .collect()
    }

    /// Appends one JSON line per span.
    pub fn write_jsonl(&self, out: &mut String) {
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                r#"{{"thread":{},"id":{i},"parent":{parent},"name":"{}","request":{},"start_ns":{},"end_ns":{}}}"#,
                self.thread, s.name, s.request, s.start_ns, s.end_ns
            );
        }
    }
}
