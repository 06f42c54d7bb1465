//! In-memory spans recorded by the benchmark's own files around the
//! calls into each layer (spans inside the program are ROADMAP item 3).

use std::collections::BTreeMap;
use std::time::Instant;

/// "No parent" marker of a root span.
pub const ROOT: u32 = u32::MAX;

/// One recorded interval: a call into `layer`, caused by span `parent`,
/// part of resolution `resolution`.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub layer: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub resolution: u32,
}

/// Records spans when `on`; with recording off `enter`/`exit` are one
/// predictable branch each, which is what `trace_overhead_pct` prices.
pub struct Recorder {
    on: bool,
    base: Instant,
    pub spans: Vec<Span>,
    current: u32,
    resolution: u32,
}

impl Recorder {
    pub fn new(on: bool, capacity: usize) -> Recorder {
        Recorder {
            on,
            base: Instant::now(),
            spans: Vec::with_capacity(if on { capacity } else { 0 }),
            current: ROOT,
            resolution: 0,
        }
    }

    /// Opens a span under the currently open one; returns its id.
    #[inline]
    pub fn enter(&mut self, name: &'static str, layer: &'static str) -> u32 {
        if !self.on {
            return ROOT;
        }
        let id = self.spans.len() as u32;
        let start_ns = self.base.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            layer,
            start_ns,
            end_ns: start_ns,
            parent: self.current,
            resolution: self.resolution,
        });
        self.current = id;
        id
    }

    /// Closes span `id` (the innermost open one).
    #[inline]
    pub fn exit(&mut self, id: u32) {
        if !self.on {
            return;
        }
        let span = &mut self.spans[id as usize];
        span.end_ns = self.base.elapsed().as_nanos() as u64;
        self.current = span.parent;
    }

    /// Starts the next resolution: later spans carry its id.
    #[inline]
    pub fn next_resolution(&mut self) {
        self.resolution += 1;
    }

    /// Self time per layer, ns: each span's duration minus the part its
    /// direct children cover, with the calibrated cost of recording taken
    /// out (`cost.inner_ns` of every span lies inside its own interval, the
    /// rest of `cost.outer_ns` inside its parent's). What is left sums to
    /// what the root spans would have taken unrecorded.
    pub fn self_time_by_layer(&self, cost: &SpanCost) -> BTreeMap<&'static str, f64> {
        let mut self_ns: Vec<f64> =
            self.spans.iter().map(|s| (s.end_ns - s.start_ns) as f64 - cost.inner_ns).collect();
        for span in &self.spans {
            if span.parent != ROOT {
                let covered = (span.end_ns - span.start_ns) as f64 - cost.inner_ns + cost.outer_ns;
                self_ns[span.parent as usize] -= covered;
            }
        }
        let mut by_layer = BTreeMap::new();
        for (span, ns) in self.spans.iter().zip(self_ns) {
            *by_layer.entry(span.layer).or_insert(0.0) += ns;
        }
        by_layer
    }

    /// The spans as JSON lines, one span per line.
    pub fn to_jsonl(&self, anatomy: &str) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == ROOT { "null".to_string() } else { s.parent.to_string() };
            out.push_str(&format!(
                "{{\"anatomy\": \"{anatomy}\", \"id\": {id}, \"name\": \"{}\", \"layer\": \"{}\", \
                 \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"resolution\": {}}}\n",
                s.name, s.layer, s.start_ns, s.end_ns, s.resolution
            ));
        }
        out
    }
}

/// What recording one span costs, ns: `outer_ns` in all, of which
/// `inner_ns` falls between the span's own two clock readings.
pub struct SpanCost {
    pub inner_ns: f64,
    pub outer_ns: f64,
}

impl SpanCost {
    /// Measures the cost on empty spans under one root.
    pub fn calibrate() -> SpanCost {
        const EMPTY_SPANS: usize = 50_000;
        let mut rec = Recorder::new(true, EMPTY_SPANS + 1);
        let root = rec.enter("calibration", "bench");
        for _ in 0..EMPTY_SPANS {
            let s = rec.enter("empty", "bench");
            rec.exit(s);
        }
        rec.exit(root);
        let inner: u64 = rec.spans[1..].iter().map(|s| s.end_ns - s.start_ns).sum();
        let outer = rec.spans[0].end_ns - rec.spans[0].start_ns;
        SpanCost {
            inner_ns: inner as f64 / EMPTY_SPANS as f64,
            outer_ns: outer as f64 / EMPTY_SPANS as f64,
        }
    }
}
