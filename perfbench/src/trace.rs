//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark's own code around each call into
//! a layer's public functions. Span names are `layer/operation`, so a
//! layer's self time is the summed self time of its spans. Each worker
//! owns its tracer, so recording takes no lock; a disabled tracer never
//! reads the clock.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use crate::stats::{self_times, SpanRecord};

/// One thread's span list.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<SpanRecord>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer timing against `epoch`; `on == false` records nothing.
    pub fn new(on: bool, epoch: Instant) -> Self {
        Tracer {
            on,
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; the innermost open span becomes its parent.
    pub fn begin(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let idx = self.spans.len();
        self.spans.push(SpanRecord {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(idx);
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        if !self.on {
            return;
        }
        let end = self.now_ns();
        if let Some(idx) = self.open.pop() {
            self.spans[idx].end_ns = end;
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.begin(name);
        let out = f();
        self.end();
        out
    }

    /// Records a span whose bounds were measured elsewhere, as a child of
    /// the innermost open span.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        if !self.on {
            return;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(SpanRecord {
            name,
            start_ns: ns(start),
            end_ns: ns(end),
            parent: self.open.last().copied(),
        });
    }

    /// The closed spans, in the order they were opened.
    pub fn spans(&self) -> &[SpanRecord] {
        &self.spans
    }
}

/// Summed duration and self time per span name, in nanoseconds.
#[derive(Debug, Default, Clone, Copy)]
pub struct NameTotals {
    /// Spans with this name.
    pub count: u64,
    /// Summed wall duration.
    pub total_ns: u64,
    /// Summed self time (duration minus child coverage).
    pub self_ns: u64,
}

/// Totals per span name over every tracer.
pub fn totals(tracers: &[Tracer]) -> BTreeMap<&'static str, NameTotals> {
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for t in tracers {
        for (span, own) in t.spans.iter().zip(self_times(&t.spans)) {
            let e = out.entry(span.name).or_default();
            e.count += 1;
            e.total_ns += span.end_ns.saturating_sub(span.start_ns);
            e.self_ns += own;
        }
    }
    out
}

/// Self time per layer (the span-name prefix before `/`).
pub fn layer_self_ns(totals: &BTreeMap<&'static str, NameTotals>) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    for (name, t) in totals {
        let layer = name.split('/').next().unwrap_or(name);
        *out.entry(layer).or_insert(0) += t.self_ns;
    }
    out
}

/// Chrome trace-event JSON (`chrome://tracing`, Perfetto) of every span,
/// one `tid` per tracer, with each span's parent index in its args.
pub fn chrome_json(tracers: &[Tracer]) -> String {
    let mut out = String::from("[");
    let mut first = true;
    for (tid, t) in tracers.iter().enumerate() {
        for (idx, s) in t.spans.iter().enumerate() {
            if !first {
                out.push(',');
            }
            first = false;
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                out,
                "\n{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{idx},\"parent\":{parent}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3,
            );
        }
    }
    out.push_str("\n]\n");
    out
}
