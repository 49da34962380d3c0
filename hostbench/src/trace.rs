//! Host-time spans around the calls hostbench makes into each layer.
//!
//! A traced run records one root span per op (layer `hostbench.self`) and
//! one child span per layer call inside it. Spans live in a preallocated
//! `Vec` and are written out when the run ends. A span's *self time* is
//! its duration minus the time its direct children cover; self times
//! partition each op exactly, so per-layer self times sum to the op total.
//! With tracing off a layer call is a direct call: no clock reads, no
//! allocation. Oracle work is timed either way, because op time leaves it
//! out.

use std::fmt::Write as _;
use std::time::Instant;

/// The layers hostbench times, named after the lab's crates and modules.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// The op's own span: glue not covered by a layer call.
    Op,
    /// `sfi_wasm::wat::parse` + `validate`.
    WasmParse,
    /// `Interpreter::new` + `invoke_export`.
    WasmInterp,
    /// `sfi_core::compile` at the baseline tier.
    CompileBaseline,
    /// `sfi_core::compile` at the optimizing tier.
    CompileOptimized,
    /// `sfi_core::compile` of a speculation-hardened configuration.
    CompileMitigated,
    /// `harness::execute_export`.
    X86Emu,
    /// `harness::execute_speculative`.
    X86EmuSpec,
    /// `Runtime::spawn_tiered` that missed the code cache.
    SpawnCold,
    /// `Runtime::spawn_tiered` served from the code cache.
    SpawnWarm,
    /// `Runtime::invoke`.
    RuntimeInvoke,
    /// `Runtime::terminate`.
    RuntimeTerminate,
    /// `Runtime::recycle`.
    RuntimeRecycle,
    /// `FleetSupervisor::run_round`.
    FaasFleet,
    /// A member's engine round, replayed through `simulate_multicore`.
    FaasShard,
    /// A member's health probe, replayed through `simulate`.
    FaasSim,
    /// `FleetSupervisor::metrics_text`.
    TelemetryExport,
    /// `FleetSupervisor::query_body` + `alerts_body`.
    TelemetryQuery,
    /// `FleetSupervisor::trace_body`.
    TelemetryTrace,
    /// Oracle work that reads results back out of the system under test;
    /// excluded from op time.
    Check,
}

impl Layer {
    /// Every layer, in report order.
    pub const ALL: [Layer; 20] = [
        Layer::Op,
        Layer::WasmParse,
        Layer::WasmInterp,
        Layer::CompileBaseline,
        Layer::CompileOptimized,
        Layer::CompileMitigated,
        Layer::X86Emu,
        Layer::X86EmuSpec,
        Layer::SpawnCold,
        Layer::SpawnWarm,
        Layer::RuntimeInvoke,
        Layer::RuntimeTerminate,
        Layer::RuntimeRecycle,
        Layer::FaasFleet,
        Layer::FaasShard,
        Layer::FaasSim,
        Layer::TelemetryExport,
        Layer::TelemetryQuery,
        Layer::TelemetryTrace,
        Layer::Check,
    ];

    /// The layer's metric-name prefix.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Op => "hostbench.self",
            Layer::WasmParse => "wasm.parse",
            Layer::WasmInterp => "wasm.interp",
            Layer::CompileBaseline => "core.compile.baseline",
            Layer::CompileOptimized => "core.compile.optimized",
            Layer::CompileMitigated => "core.compile.mitigated",
            Layer::X86Emu => "x86.emu",
            Layer::X86EmuSpec => "x86.emu_spec",
            Layer::SpawnCold => "runtime.spawn_cold",
            Layer::SpawnWarm => "runtime.spawn_warm",
            Layer::RuntimeInvoke => "runtime.invoke",
            Layer::RuntimeTerminate => "runtime.terminate",
            Layer::RuntimeRecycle => "runtime.recycle",
            Layer::FaasFleet => "faas.fleet",
            Layer::FaasShard => "faas.shard",
            Layer::FaasSim => "faas.sim",
            Layer::TelemetryExport => "telemetry.export",
            Layer::TelemetryQuery => "telemetry.query",
            Layer::TelemetryTrace => "telemetry.trace",
            Layer::Check => "hostbench.check",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// One recorded span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// The op this span belongs to.
    pub op_id: u64,
    /// Index of this span in the run's span list.
    pub span_id: u32,
    /// The enclosing span; `None` for an op's root span.
    pub parent: Option<u32>,
    /// The layer called.
    pub layer: Layer,
    /// Start, in ns since the tracer was created.
    pub start_ns: u64,
    /// End, in ns since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in ns.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An open span, closed by [`Tracer::end`]. Holds nothing when tracing is
/// off.
#[must_use = "close the span with Tracer::end"]
#[derive(Debug)]
pub struct Open(Option<u32>);

/// The span recorder.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    op_id: u64,
    work: [f64; Layer::ALL.len()],
    check_ns: u64,
}

impl Tracer {
    /// A recorder that records nothing.
    pub fn off() -> Tracer {
        Tracer::new(false, 0)
    }

    /// A recorder with room for `capacity` spans before it reallocates.
    pub fn on(capacity: usize) -> Tracer {
        Tracer::new(true, capacity)
    }

    fn new(enabled: bool, capacity: usize) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::with_capacity(capacity),
            open: Vec::with_capacity(8),
            op_id: 0,
            work: [0.0; Layer::ALL.len()],
            check_ns: 0,
        }
    }

    /// Turns span recording on or off.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; its layer is named when it closes, so a call whose
    /// layer depends on its outcome (a cache hit or miss) is labelled
    /// correctly.
    pub fn begin(&mut self) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let span_id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            op_id: self.op_id,
            span_id,
            parent: self.open.last().copied(),
            layer: Layer::Op,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(span_id);
        Open(Some(span_id))
    }

    /// Closes `span` as a call into `layer`; returns its id.
    pub fn end(&mut self, span: Open, layer: Layer) -> Option<u32> {
        let id = span.0?;
        let end_ns = self.now_ns();
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans close in the order they open");
        let s = &mut self.spans[id as usize];
        s.end_ns = end_ns;
        s.layer = layer;
        Some(id)
    }

    /// Times `f` as one call into `layer`.
    pub fn span<T>(&mut self, layer: Layer, f: impl FnOnce() -> T) -> T {
        let open = self.begin();
        let out = f();
        self.end(open, layer);
        out
    }

    /// Times `f` as oracle work ([`Layer::Check`]). Its time is kept even
    /// with tracing off, so the runner can leave it out of op time.
    pub fn check<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = self.span(Layer::Check, f);
        self.check_ns += t.elapsed().as_nanos() as u64;
        out
    }

    /// Oracle time since the last call.
    pub fn take_check_ns(&mut self) -> u64 {
        std::mem::take(&mut self.check_ns)
    }

    /// Opens op `op_id`'s root span.
    pub fn begin_op(&mut self, op_id: u64) -> Open {
        self.op_id = op_id;
        self.begin()
    }

    /// Records a span measured elsewhere as a child of the closed span
    /// `parent`, placed `offset_ns` after the parent's start and clipped
    /// to its end. Used for work replayed outside the op to attribute a
    /// share of a call hostbench cannot split from outside.
    pub fn place(&mut self, parent: u32, layer: Layer, offset_ns: u64, duration_ns: u64) {
        if !self.enabled {
            return;
        }
        let p = self.spans[parent as usize];
        let start_ns = (p.start_ns + offset_ns).min(p.end_ns);
        let end_ns = (start_ns + duration_ns).min(p.end_ns);
        let span_id = self.spans.len() as u32;
        self.spans.push(Span {
            op_id: p.op_id,
            span_id,
            parent: Some(parent),
            layer,
            start_ns,
            end_ns,
        });
    }

    /// Adds `amount` units of work done by `layer` (bytes, instructions,
    /// requests), the numerator of the layer's rate metric.
    pub fn work(&mut self, layer: Layer, amount: f64) {
        if self.enabled {
            self.work[layer.index()] += amount;
        }
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Work recorded for `layer`.
    pub fn work_of(&self, layer: Layer) -> f64 {
        self.work[layer.index()]
    }

    /// Per-layer totals over every recorded span.
    pub fn summarize(&self) -> Vec<LayerSummary> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.duration_ns();
            }
        }
        let mut out: Vec<LayerSummary> = Layer::ALL
            .iter()
            .map(|&layer| LayerSummary {
                layer,
                calls: 0,
                self_ns: 0,
                durations_ns: Vec::new(),
            })
            .collect();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let l = &mut out[s.layer.index()];
            l.calls += 1;
            l.self_ns += s.duration_ns().saturating_sub(child);
            l.durations_ns.push(s.duration_ns());
        }
        for l in &mut out {
            l.durations_ns.sort_unstable();
        }
        out
    }

    /// Renders the spans as JSON: a layer-name table, then one
    /// `[op_id, span_id, parent, layer, start_ns, end_ns]` row per span
    /// (`parent` is -1 for an op's root, `layer` indexes the table).
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut out = format!("{{\"workload\": \"{workload}\", \"seed\": {seed}, \"layers\": [");
        for (i, l) in Layer::ALL.iter().enumerate() {
            let sep = if i > 0 { ", " } else { "" };
            let _ = write!(out, "{sep}\"{}\"", l.name());
        }
        out.push_str("],\n\"fields\": [\"op_id\", \"span_id\", \"parent\", \"layer\", \"start_ns\", \"end_ns\"],\n\"spans\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i > 0 { ",\n" } else { "" };
            let parent = s.parent.map_or(-1, i64::from);
            let _ = write!(
                out,
                "{sep}[{}, {}, {parent}, {}, {}, {}]",
                s.op_id,
                s.span_id,
                s.layer.index(),
                s.start_ns,
                s.end_ns
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

/// One layer's totals.
#[derive(Debug, Clone)]
pub struct LayerSummary {
    /// The layer.
    pub layer: Layer,
    /// Spans recorded.
    pub calls: u64,
    /// Summed self time, ns.
    pub self_ns: u64,
    /// Every span's duration (children included), sorted ascending.
    pub durations_ns: Vec<u64>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_partition_the_op() {
        let mut tr = Tracer::on(16);
        let op = tr.begin_op(0);
        tr.span(Layer::WasmParse, || {
            std::hint::black_box((0..1000).sum::<u64>())
        });
        let call = tr.begin();
        tr.span(Layer::X86Emu, || {
            std::hint::black_box((0..1000).sum::<u64>())
        });
        tr.end(call, Layer::RuntimeInvoke);
        let round = tr.begin();
        let round = tr.end(round, Layer::FaasFleet).expect("traced");
        let root = tr.end(op, Layer::Op).expect("traced");
        tr.place(round, Layer::FaasSim, 0, u64::MAX / 2);
        let placed = tr.spans().last().expect("placed");
        assert_eq!(
            (placed.parent, placed.end_ns),
            (Some(round), tr.spans()[round as usize].end_ns)
        );
        let total = tr.spans()[root as usize].duration_ns();
        let summed: u64 = tr.summarize().iter().map(|l| l.self_ns).sum();
        assert_eq!(summed, total);
        assert_eq!(tr.spans()[1].parent, Some(root));
    }

    #[test]
    fn off_records_nothing() {
        let mut tr = Tracer::off();
        let op = tr.begin_op(3);
        assert_eq!(tr.span(Layer::X86Emu, || 7), 7);
        assert_eq!(tr.end(op, Layer::Op), None);
        tr.work(Layer::X86Emu, 5.0);
        assert!(tr.spans().is_empty());
        assert_eq!(tr.work_of(Layer::X86Emu), 0.0);
    }
}
