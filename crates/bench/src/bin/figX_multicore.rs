//! Multi-core sharded-engine sweep: 1–8 cores × {cold, warm-cache} ×
//! {multiprocess, ColorGuard}, on the hash-load-balance workload. Emits
//! `BENCH_multicore.json` (byte-identical across same-seed runs).
//!
//! Also emits `TRACE_multicore.json` — the headline run's flight-recorder
//! rings rendered as a chrome://tracing (`about:tracing`) event stream,
//! taken from the same sweep.
//!
//! `--check` reads the sweep's typed rows and asserts the acceptance
//! criteria:
//! warm-cache ColorGuard throughput scales ≥ 3× from 1→4 cores, a warm
//! spawn is ≥ 5× cheaper than a cold compile, warm-cache throughput beats
//! the cold path at 1 core, and two same-seed runs are byte-identical.
//! It then gates the telemetry layer itself: the embedded snapshot must
//! carry the shard series, tracing on-vs-off must not change a single
//! modeled number, measured self-overhead must stay within the §8 budget
//! (≤ 35 % wall-clock, best-of-3), the runtime metric schema must register
//! without a name collision, and the exported latency histograms must
//! count every completed request.

use sfi_bench::sweep::trace_json;
use sfi_bench::{check_overhead, row, MulticoreSweep, OVERHEAD_BUDGET};
use sfi_faas::{simulate_multicore, CacheMode, MultiCoreConfig, ScalingMode};
use sfi_runtime::RuntimeTelemetry;
use sfi_telemetry::json_is_valid;

const SEED: u64 = MulticoreSweep::SEED;
const DURATION_MS: u64 = MulticoreSweep::DURATION_MS;
const CORES: [u32; 4] = MulticoreSweep::CORES;

fn check(sweep: &MulticoreSweep, json: &str) {
    let rerun = MulticoreSweep::run(SEED, DURATION_MS, &CORES).artifact().render();
    assert_eq!(json, rerun, "same seed must reproduce BENCH_multicore.json byte-identically");

    let throughput = |cores: u32, cache: CacheMode| -> f64 {
        sweep.colorguard(cores, cache).expect("sweep row present").throughput_rps
    };
    let warm1 = throughput(1, CacheMode::Warm);
    let cold1 = throughput(1, CacheMode::Cold);
    let warm4 = throughput(4, CacheMode::Warm);
    assert!(
        warm1 >= cold1,
        "warm-cache throughput must beat the cold path at 1 core: {warm1:.0} vs {cold1:.0}"
    );
    let scaling = warm4 / warm1;
    assert!(scaling >= 3.0, "warm ColorGuard 1→4 core scaling {scaling:.2}× (need ≥ 3×)");

    let ratio = sweep.cold_over_warm_spawn_cost();
    assert!(ratio >= 5.0, "warm spawn must be ≥ 5× cheaper than cold compile: {ratio:.2}×");

    check_telemetry(sweep);

    println!(
        "check OK: scaling 1→4 = {scaling:.2}x, cold/warm spawn = {ratio:.1}x, \
         warm {warm1:.0} rps >= cold {cold1:.0} rps at 1 core, output reproducible"
    );
}

/// The telemetry acceptance gates: snapshot carries the shard series,
/// observation is free of observer effects, self-overhead within the
/// documented budget, the metric schema collision-free, and the latency
/// series complete.
fn check_telemetry(sweep: &MulticoreSweep) {
    // 1. The embedded snapshot (the headline registry) carries the shard
    // series; `Artifact::write` already required the whole file to parse.
    let embedded = &sweep.headline().registry;
    assert!(
        embedded.counter_value("sfi_shard_completed_total").is_some(),
        "snapshot must carry shard counters"
    );

    // 2. Tracing must not perturb the model: the same run with the flight
    // recorder disabled reports identical numbers everywhere but the trace
    // fields themselves.
    let headline = |trace_capacity: usize| {
        let mut cfg = MultiCoreConfig::paper_rig(
            sfi_faas::FaasWorkload::HashLoadBalance,
            ScalingMode::ColorGuard,
            CacheMode::Warm,
            4,
        );
        cfg.seed = SEED;
        cfg.duration_ms = DURATION_MS;
        cfg.trace_capacity = trace_capacity;
        cfg
    };
    let on = simulate_multicore(&headline(512));
    let off = simulate_multicore(&headline(0));
    assert!(off.traces.iter().all(Vec::is_empty), "capacity 0 must disable tracing");
    assert_eq!(on.completed, off.completed, "tracing changed completions");
    assert_eq!(on.totals, off.totals, "tracing changed aggregate counters");
    assert_eq!(on.per_core, off.per_core, "tracing changed per-core counters");
    assert_eq!(on.throughput_rps, off.throughput_rps, "tracing changed throughput");
    assert_eq!(on.mean_latency_ms, off.mean_latency_ms, "tracing changed mean latency");
    assert_eq!(on.p99_latency_ms, off.p99_latency_ms, "tracing changed p99 latency");

    // 3. Self-overhead gate: best-of-3 wall clock, tracing on vs off.
    let factor = check_overhead("telemetry self-overhead", |on| {
        let cfg = headline(if on { 512 } else { 0 });
        move || assert!(simulate_multicore(&cfg).completed > 0)
    });

    // 4. Metric-name collision gate: registering the full runtime schema
    // panics on any duplicate series, so constructing it IS the check.
    let rt = RuntimeTelemetry::new(16, 0);
    assert!(json_is_valid(&sfi_telemetry::json_snapshot(rt.registry())));

    // 5. The exported latency series: the cross-shard merge and each
    // `{core="N"}` series observe every request its scope completed.
    let latency = |key: &str| on.registry.histogram_values(key).map(|h| h.count());
    assert_eq!(
        latency("sfi_shard_request_latency_ns"),
        Some(on.completed),
        "sfi_shard_request_latency_ns must observe every completed request"
    );
    for (core, m) in on.per_core.iter().enumerate() {
        let key = format!("sfi_shard_request_latency_ns{{core=\"{core}\"}}");
        assert_eq!(latency(&key), Some(m.completed), "{key} must observe the core's completions");
    }

    println!(
        "telemetry OK: snapshot embedded, zero observer effect, overhead {factor:.2}x \
         (budget {OVERHEAD_BUDGET:.2}x), runtime schema collision-free, latency series complete"
    );
}

fn main() {
    let check_mode = std::env::args().any(|a| a == "--check");
    let sweep = MulticoreSweep::run(SEED, DURATION_MS, &CORES);
    let artifact = sweep.artifact();
    artifact.write("BENCH_multicore.json");

    println!("\nFigure X: sharded multi-core engine, {DURATION_MS} ms, hash load-balance\n");
    let widths = [6, 14, 6, 12, 14, 8, 12, 12];
    row(
        &[
            "cores", "mode", "cache", "throughput", "rps/core", "steals", "cold spawns",
            "warm spawns",
        ],
        &widths,
    );
    for sr in &sweep.rows {
        let r = &sr.report;
        row(
            &[
                format!("{}", sr.cores),
                match sr.mode {
                    ScalingMode::ColorGuard => "colorguard".into(),
                    ScalingMode::MultiProcess { .. } => "multiproc".into(),
                },
                sr.cache.name().into(),
                format!("{:.0}", r.throughput_rps),
                format!("{:.0}", r.throughput_rps / f64::from(sr.cores)),
                format!("{}", r.totals.steals),
                format!("{}", r.totals.cold_spawns),
                format!("{}", r.totals.warm_spawns),
            ],
            &widths,
        );
    }
    // Render the headline run's flight-recorder rings for about:tracing.
    let trace = trace_json(sweep.headline());
    std::fs::write("TRACE_multicore.json", &trace).expect("write TRACE_multicore.json");
    let events: usize = sweep.headline().traces.iter().map(Vec::len).sum();
    println!("\nwrote TRACE_multicore.json ({events} events)");

    if check_mode {
        check(&sweep, &artifact.render());
    }
}
