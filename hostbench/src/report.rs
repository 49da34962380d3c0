//! Metric definitions and their values: the end-to-end table, the
//! per-layer table, and the renderings of both (human lines, the one-line
//! JSON result, the result file and `BENCHMARK.json`).

use std::fmt::Write as _;

use crate::bench::{Outcome, Phase};
use crate::stats::{median, percentile};
use crate::trace::{Layer, Tracer};

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// `"lower"` or `"higher"`.
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: what a user of the lab sees.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Share of the baseline median by which the metric may worsen before
    /// a change counts as a regression.
    pub bound: f64,
    /// Modeled results that must repeat bit for bit (bound unused).
    pub exact: bool,
}

const fn def(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
        exact: false,
    }
}

const fn exact(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
        bound: 0.0,
        exact: true,
    }
}

/// The end-to-end metrics every workload reports (the `BENCHMARK.json`
/// set: defined on all four workloads and never zero). Bounds come from
/// measured run-to-run spreads on a shared 2-vCPU machine (see README).
pub const END_TO_END: [MetricDef; 4] = [
    def("setup_s", "s", Better::Lower, 0.25),
    def("ops_per_s", "ops/s", Better::Higher, 0.25),
    def("op_p50_ms", "ms", Better::Lower, 0.25),
    def("peak_rss_mb", "MiB", Better::Lower, 0.10),
];

/// End-to-end metrics reported where they apply (in the result file and
/// `compare`, not in `BENCHMARK.json`). Tails swing with machine noise
/// far more than the bounds above allow, so they are reported, not gated.
pub const WORKLOAD_SPECIFIC: [MetricDef; 8] = [
    def("guest_minst_per_s", "Minst/s", Better::Higher, 0.25),
    def("op_tail_ms", "ms", Better::Lower, 0.25),
    def("op_p95_ms", "ms", Better::Lower, 0.25),
    def("op_p99_ms", "ms", Better::Lower, 0.25),
    def("check_s", "s", Better::Lower, 0.25),
    exact("error_rate", "ratio"),
    exact("modeled_gcycles", "Gcycles"),
    exact("code_kb", "KiB"),
];

/// Looks up an end-to-end metric definition.
pub fn metric_def(name: &str) -> Option<MetricDef> {
    END_TO_END
        .iter()
        .chain(&WORKLOAD_SPECIFIC)
        .find(|d| d.name == name)
        .copied()
}

/// The unit of metric `name` (end-to-end or per-layer); empty if unknown.
pub fn unit_of(name: &str) -> &'static str {
    if let Some(d) = metric_def(name) {
        return d.unit;
    }
    per_layer_schema()
        .into_iter()
        .find(|(n, _, _)| n == name)
        .map_or("", |(_, unit, _)| unit)
}

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value: if value.is_finite() { value } else { 0.0 },
        unit,
    }
}

/// Peak resident set (`VmHWM`) of this process in MiB; 0 where
/// `/proc/self/status` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn ms(sorted: &[u64], p: f64) -> f64 {
    percentile(sorted, p) as f64 / 1e6
}

/// The end-to-end metrics of an untraced phase.
pub fn end_to_end(o: &Outcome, peak_rss_mb: f64) -> Vec<Metric> {
    let p = &o.untraced;
    let mut sorted = p.durations_ns.clone();
    sorted.sort_unstable();
    let mut out = vec![
        metric("setup_s", median(&o.setups_s), "s"),
        metric("ops_per_s", p.ops_per_s(), "ops/s"),
        metric("op_p50_ms", ms(&sorted, 50.0), "ms"),
        metric("op_tail_ms", ms(&sorted, o.tail_percentile), "ms"),
        metric("peak_rss_mb", peak_rss_mb, "MiB"),
        metric("op_p95_ms", ms(&sorted, 95.0), "ms"),
        metric("op_p99_ms", ms(&sorted, 99.0), "ms"),
        metric("check_s", o.check_s, "s"),
        metric(
            "error_rate",
            p.tally.failed as f64 / p.tally.attempted.max(1) as f64,
            "ratio",
        ),
    ];
    let insts = p.count("guest_insts");
    if insts > 0.0 {
        out.push(metric(
            "guest_minst_per_s",
            insts / 1e6 / p.busy_s().max(1e-12),
            "Minst/s",
        ));
    }
    for (name, unit, value) in &o.exact {
        out.push(metric(*name, *value, unit));
    }
    out
}

/// How an extra per-layer metric is derived.
#[derive(Debug, Clone, Copy)]
enum Source {
    /// Layer work per second of the layer's self time, times `scale`.
    Rate(Layer, f64),
    /// A workload counter's increase over the traced phase.
    Count(&'static str),
    /// Warm spawns ÷ all spawns.
    HitRatio,
}

/// Generic metrics every layer reports: name suffix, unit, direction.
const LAYER_METRICS: [(&str, &str, Better); 5] = [
    ("calls", "count", Better::Higher),
    ("busy_s", "s", Better::Lower),
    ("share", "%", Better::Lower),
    ("p50_us", "us", Better::Lower),
    ("p99_us", "us", Better::Lower),
];

/// Layer-specific extras.
const EXTRAS: [(&str, &str, Better, Source); 16] = [
    (
        "wasm.parse.mb_per_s",
        "MB/s",
        Better::Higher,
        Source::Rate(Layer::WasmParse, 1e-6),
    ),
    (
        "core.compile.baseline.kinst_emitted_per_s",
        "kinst/s",
        Better::Higher,
        Source::Rate(Layer::CompileBaseline, 1e-3),
    ),
    (
        "core.compile.optimized.kinst_emitted_per_s",
        "kinst/s",
        Better::Higher,
        Source::Rate(Layer::CompileOptimized, 1e-3),
    ),
    (
        "core.compile.mitigated.kinst_emitted_per_s",
        "kinst/s",
        Better::Higher,
        Source::Rate(Layer::CompileMitigated, 1e-3),
    ),
    (
        "x86.emu.minst_per_s",
        "Minst/s",
        Better::Higher,
        Source::Rate(Layer::X86Emu, 1e-6),
    ),
    (
        "x86.emu_spec.minst_per_s",
        "Minst/s",
        Better::Higher,
        Source::Rate(Layer::X86EmuSpec, 1e-6),
    ),
    (
        "x86.emu_spec.spec_uops",
        "count",
        Better::Lower,
        Source::Count("spec_uops"),
    ),
    (
        "runtime.spawn.cache_hit_ratio",
        "ratio",
        Better::Higher,
        Source::HitRatio,
    ),
    (
        "runtime.spawn.promotions",
        "count",
        Better::Higher,
        Source::Count("promotions"),
    ),
    (
        "runtime.invoke.minst_per_s",
        "Minst/s",
        Better::Higher,
        Source::Rate(Layer::RuntimeInvoke, 1e-6),
    ),
    (
        "runtime.recycle.traps",
        "count",
        Better::Higher,
        Source::Count("traps"),
    ),
    (
        "faas.shard.kreq_per_s",
        "kreq/s",
        Better::Higher,
        Source::Rate(Layer::FaasShard, 1e-3),
    ),
    (
        "faas.sim.kreq_per_s",
        "kreq/s",
        Better::Higher,
        Source::Rate(Layer::FaasSim, 1e-3),
    ),
    (
        "telemetry.export.mb_per_s",
        "MB/s",
        Better::Higher,
        Source::Rate(Layer::TelemetryExport, 1e-6),
    ),
    (
        "telemetry.query.mb_per_s",
        "MB/s",
        Better::Higher,
        Source::Rate(Layer::TelemetryQuery, 1e-6),
    ),
    (
        "telemetry.trace.mb_per_s",
        "MB/s",
        Better::Higher,
        Source::Rate(Layer::TelemetryTrace, 1e-6),
    ),
];

/// The per-layer metric schema: name, unit, direction — in report order.
pub fn per_layer_schema() -> Vec<(String, &'static str, Better)> {
    let mut out: Vec<(String, &'static str, Better)> = Layer::ALL
        .iter()
        .flat_map(|l| {
            LAYER_METRICS
                .iter()
                .map(move |(m, unit, b)| (format!("{}.{m}", l.name()), *unit, *b))
        })
        .collect();
    out.extend(
        EXTRAS
            .iter()
            .map(|(n, unit, b, _)| ((*n).to_owned(), *unit, *b)),
    );
    out.push(("trace_overhead".to_owned(), "%", Better::Lower));
    out.push(("op_tail_ms".to_owned(), "ms", Better::Lower));
    out
}

/// The per-layer metrics of a run's traced ops; its untraced ops supply
/// the baseline for `trace_overhead` and the end-to-end tail, which is
/// reported here rather than gated.
pub fn per_layer(
    traced: &Phase,
    tr: &Tracer,
    untraced: &Phase,
    tail_percentile: f64,
) -> Vec<Metric> {
    let layers = tr.summarize();
    // Op time as the runner measured it: oracle time left out.
    let op_ns = traced.busy_s().max(1e-12) * 1e9;
    let mut out = Vec::new();
    for l in &layers {
        let name = l.layer.name();
        out.push(metric(format!("{name}.calls"), l.calls as f64, "count"));
        out.push(metric(
            format!("{name}.busy_s"),
            l.self_ns as f64 / 1e9,
            "s",
        ));
        out.push(metric(
            format!("{name}.share"),
            100.0 * l.self_ns as f64 / op_ns,
            "%",
        ));
        out.push(metric(
            format!("{name}.p50_us"),
            percentile(&l.durations_ns, 50.0) as f64 / 1e3,
            "us",
        ));
        out.push(metric(
            format!("{name}.p99_us"),
            percentile(&l.durations_ns, 99.0) as f64 / 1e3,
            "us",
        ));
    }
    for (name, unit, _, source) in EXTRAS {
        let value = match source {
            Source::Rate(layer, scale) => {
                let busy = layers[layer as usize].self_ns as f64 / 1e9;
                if busy > 0.0 {
                    tr.work_of(layer) / busy * scale
                } else {
                    0.0
                }
            }
            Source::Count(counter) => traced.count(counter),
            Source::HitRatio => {
                let (cold, warm) = (
                    layers[Layer::SpawnCold as usize].calls,
                    layers[Layer::SpawnWarm as usize].calls,
                );
                warm as f64 / (cold + warm).max(1) as f64
            }
        };
        out.push(metric(name, value, unit));
    }
    // Traced and untraced ops interleave in blocks of one run; comparing
    // their median time per unit of work keeps a different mix of op sizes
    // in the two halves from reading as overhead.
    let overhead =
        100.0 * (traced.median_ns_per_work() / untraced.median_ns_per_work().max(1e-12) - 1.0);
    out.push(metric("trace_overhead", overhead, "%"));
    let mut sorted = untraced.durations_ns.clone();
    sorted.sort_unstable();
    out.push(metric("op_tail_ms", ms(&sorted, tail_percentile), "ms"));
    out
}

fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

/// The metrics as a JSON object `{"name": {"value": v, "unit": u}, …}`.
pub fn metrics_json(metrics: &[Metric]) -> String {
    let mut out = String::from("{");
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i > 0 { ", " } else { "" };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            num(m.value),
            m.unit
        );
    }
    out.push('}');
    out
}

/// The one-line result: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics_json(metrics)
    )
}

/// `BENCHMARK.json`, rendered from the metric tables so the file and the
/// program cannot drift apart.
pub fn benchmark_json(workloads: &[(&str, &str)]) -> String {
    let mut out = String::from(
        "{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"hostbench/Cargo.toml\", \"--\", \"run\"],\n  \
         \"paths\": [\"hostbench\"],\n  \"run_seconds\": 10,\n  \"workloads\": [\n",
    );
    for (i, (name, why)) in workloads.iter().enumerate() {
        let sep = if i + 1 < workloads.len() { "," } else { "" };
        let _ = writeln!(out, "    {{\"name\": \"{name}\", \"why\": \"{why}\"}}{sep}");
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, d) in END_TO_END.iter().enumerate() {
        let sep = if i + 1 < END_TO_END.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{sep}",
            d.name,
            d.unit,
            d.better.name(),
            d.bound
        );
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    let schema = per_layer_schema();
    for (i, (name, unit, better)) in schema.iter().enumerate() {
        let sep = if i + 1 < schema.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{}\"}}{sep}",
            better.name()
        );
    }
    out.push_str("  ]\n}\n");
    out
}
