//! In-memory spans around the benchmark's calls into each layer, and the
//! per-layer aggregates the traced run reports.
//!
//! A span records its name, start, end, parent and the operation it
//! belongs to. Spans are only recorded when tracing is on; with tracing
//! off [`Tracer::span`] is a plain call. A layer's *self time* is its
//! span's duration minus the time its child spans cover; the root span of
//! an operation is not a layer, so its self time is the wall time no layer
//! accounts for.

use crate::alloc;
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer name (the metric prefix), or the operation name for a root.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer's origin.
    pub start: u64,
    /// End, in nanoseconds since the tracer's origin.
    pub end: u64,
    /// Index of the enclosing span; `None` for an operation's root.
    pub parent: Option<usize>,
    /// Operation id shared by a root and all its descendants.
    pub op: u64,
    /// Change of the live heap across the span.
    pub bytes: i64,
    /// Facts the operation carried (roots only).
    pub facts: u64,
}

/// Records spans for one thread.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    last: Option<usize>,
    op: u64,
}

impl Tracer {
    /// A tracer that records only when `on`.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::with_capacity(if on { 1 << 16 } else { 0 }),
            open: Vec::new(),
            last: None,
            op: 0,
        }
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` (a root span when none is open).
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let parent = self.open.last().copied();
        if parent.is_none() {
            self.op += 1;
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start: 0,
            end: 0,
            parent,
            op: self.op,
            bytes: 0,
            facts: 0,
        });
        self.open.push(idx);
        let bytes0 = alloc::live();
        self.spans[idx].start = self.now();
        let r = f(self);
        let end = self.now();
        let span = &mut self.spans[idx];
        span.end = end;
        span.bytes = alloc::live() - bytes0;
        self.open.pop();
        self.last = Some(idx);
        r
    }

    /// Renames the most recently closed span — for layers whose name
    /// depends on the call's outcome (cache hit or miss, delta rung).
    pub fn relabel_last(&mut self, name: &'static str) {
        if let Some(idx) = self.last {
            self.spans[idx].name = name;
        }
    }

    /// Sets the fact count of the open operation.
    pub fn set_facts(&mut self, facts: u64) {
        if let Some(&root) = self.open.first() {
            self.spans[root].facts = facts;
        }
    }

    /// Appends spans recorded elsewhere (another thread, a child
    /// process), renumbering their parents and operations.
    pub fn absorb(&mut self, spans: Vec<Span>) {
        let base = self.spans.len();
        let mut op_map: BTreeMap<u64, u64> = BTreeMap::new();
        for mut s in spans {
            s.parent = s.parent.map(|p| p + base);
            let next = self.op + 1;
            s.op = *op_map.entry(s.op).or_insert_with(|| next);
            self.op = self.op.max(s.op);
            self.spans.push(s);
        }
    }

    /// The recorded spans, leaving the tracer empty.
    pub fn take(&mut self) -> Vec<Span> {
        std::mem::take(&mut self.spans)
    }
}

/// Aggregate of one layer over a run.
#[derive(Clone, Copy, Debug, Default)]
pub struct Layer {
    /// Spans recorded.
    pub calls: u64,
    /// Sum of span durations.
    pub total_ns: u64,
    /// Sum of self times.
    pub self_ns: u64,
    /// Sum of live-heap changes.
    pub bytes: i64,
}

/// Per-layer aggregates plus the operation totals they are shares of.
#[derive(Debug, Default)]
pub struct Summary {
    /// Layers by span name (roots excluded).
    pub layers: BTreeMap<&'static str, Layer>,
    /// Operations (root spans).
    pub ops: u64,
    /// Sum of root durations.
    pub root_ns: u64,
    /// Sum of root self times: wall time no layer span covers.
    pub uncovered_ns: u64,
    /// Sum of the operations' fact counts.
    pub facts: u64,
}

impl Summary {
    /// Aggregates `spans` (parents must precede children).
    pub fn of(spans: &[Span]) -> Summary {
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end - s.start;
            }
        }
        let mut sum = Summary::default();
        for (i, s) in spans.iter().enumerate() {
            let dur = s.end - s.start;
            let self_ns = dur.saturating_sub(child_ns[i]);
            if s.parent.is_none() {
                sum.ops += 1;
                sum.root_ns += dur;
                sum.uncovered_ns += self_ns;
                sum.facts += s.facts;
            } else {
                let l = sum.layers.entry(s.name).or_default();
                l.calls += 1;
                l.total_ns += dur;
                l.self_ns += self_ns;
                l.bytes += s.bytes;
            }
        }
        sum
    }

    fn layer(&self, name: &str) -> Layer {
        self.layers.get(name).copied().unwrap_or_default()
    }

    /// Mean self time per call, in µs (0 when the layer never ran).
    pub fn us(&self, name: &str) -> f64 {
        let l = self.layer(name);
        if l.calls == 0 {
            0.0
        } else {
            l.self_ns as f64 / l.calls as f64 / 1e3
        }
    }

    /// Mean span duration per call, in µs (0 when the layer never ran).
    pub fn total_us(&self, name: &str) -> f64 {
        let l = self.layer(name);
        if l.calls == 0 {
            0.0
        } else {
            l.total_ns as f64 / l.calls as f64 / 1e3
        }
    }

    /// Calls recorded for a layer.
    pub fn calls(&self, name: &str) -> u64 {
        self.layer(name).calls
    }

    /// Self time per fact carried by the operations, in ns.
    pub fn ns_per_fact(&self, name: &str) -> f64 {
        ratio(self.layer(name).self_ns as f64, self.facts as f64)
    }

    /// Self time as a share of operation wall time.
    pub fn share(&self, name: &str) -> f64 {
        ratio(self.layer(name).self_ns as f64, self.root_ns as f64)
    }

    /// Live-heap change across the layer's spans, per fact.
    pub fn bytes_per_fact(&self, name: &str) -> f64 {
        ratio(self.layer(name).bytes as f64, self.facts as f64)
    }

    /// Share of operation wall time that no layer span covers.
    pub fn uncovered_share(&self) -> f64 {
        ratio(self.uncovered_ns as f64, self.root_ns as f64)
    }

    /// Mean operation wall time, in µs.
    pub fn op_us(&self) -> f64 {
        ratio(self.root_ns as f64, self.ops as f64) / 1e3
    }
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Writes spans as tab-separated lines: op, name, parent, start, end, bytes.
pub fn write_tsv(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "op\tname\tparent\tstart_ns\tend_ns\tbytes")?;
    for s in spans {
        let parent = s.parent.map_or(-1, |p| p as i64);
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}",
            s.op, s.name, parent, s.start, s.end, s.bytes
        )?;
    }
    out.flush()
}
