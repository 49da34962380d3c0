//! Overload sweep: open-loop Poisson arrivals from half the saturation
//! rate to 2× past it, with multi-tenant QoS and admission control on
//! (ColorGuard, warm cache, 2 cores). Emits `BENCH_overload.json`
//! (byte-identical across same-seed runs): goodput, shed rate, occupancy
//! and per-SLO-class latency percentiles at every offered rate.
//!
//! `--check` asserts the overload contract (DESIGN.md §12):
//!
//! 1. **Graceful degradation** — past saturation the latency-sensitive
//!    class sheds nothing, batch absorbs the majority of the shedding,
//!    latency-sensitive p99 stays bounded, and goodput does not collapse.
//! 2. **Elastic determinism** — an autoscaling fleet whose member is
//!    killed mid-round and recovered by checkpoint replay produces the
//!    same size trajectory and byte-identical modeled snapshot as the
//!    uninterrupted run.
//! 3. **Legacy byte-compatibility** — the closed-loop sweep recomputed
//!    with QoS off is byte-identical to the `BENCH_multicore.json` on
//!    disk: the overload layer changed nothing it didn't opt into.

use sfi_bench::{row, MulticoreSweep, OverloadSweep};
use sfi_faas::{
    AutoscalePolicy, ArrivalModel, FleetConfig, FleetSupervisor, ScrapeSurface, ServeConfig,
};
use sfi_vm::{EngineFault, FaultPlan};

const SEED: u64 = 0x5E65E9;
const DURATION_MS: u64 = 200;
const CORES: u32 = 2;
/// Offered rates in requests/second. The closed-loop paper rig drives
/// 40 req per 1 ms epoch per core = 40k rps/core, so 80k rps saturates
/// 2 cores; the sweep runs from half saturation to 2× past it.
const RATES: [f64; 7] =
    [20_000.0, 40_000.0, 60_000.0, 80_000.0, 100_000.0, 120_000.0, 160_000.0];

/// Constants of the `figX_multicore` bench, used by the legacy
/// byte-compatibility gate to recompute `BENCH_multicore.json`.
const MC_DURATION_MS: u64 = 400;
const MC_CORES: [u32; 4] = [1, 2, 4, 8];

/// An elastic single-member fleet under ~2.5× overload: the unit gate 2
/// kills and recovers — its size trajectory must not care.
fn elastic_fleet() -> FleetConfig {
    let mut cfg = FleetConfig::paper_rig(1, CORES);
    let shape = |c: &mut ServeConfig| {
        c.engine.duration_ms = 10;
        c.probe.duration_ms = 5;
        c.engine.arrivals = ArrivalModel::Poisson { rate_rps: 200_000.0 };
    };
    for m in &mut cfg.members {
        shape(m);
    }
    let mut template = ServeConfig::paper_rig(CORES);
    shape(&mut template);
    cfg.autoscale = Some(AutoscalePolicy::paper_rig(template));
    cfg
}

/// Gate 2: a mid-round kill during scale-out, recovered by checkpoint
/// replay, must leave the fleet's size trajectory and modeled snapshot
/// byte-identical to the uninterrupted run.
fn check_elastic_determinism() {
    sfi_bench::silence_injected_panics();
    let run = |chaos: Option<FaultPlan>| {
        let mut cfg = elastic_fleet();
        if let Some(plan) = chaos {
            cfg.chaos = plan;
        }
        let mut fleet = FleetSupervisor::new(cfg);
        for _ in 0..6 {
            fleet.run_round();
        }
        fleet
    };
    let quiet = run(None);
    let killed =
        run(Some(FaultPlan::new().engine_fail_at(0, 1, EngineFault::MidRoundPanic)));
    let _ = std::panic::take_hook();
    assert!(quiet.members_live() > 1, "overloaded fleet must have scaled out");
    assert_eq!(killed.members()[0].restarts, 1, "the kill must really have happened");
    assert_eq!(
        killed.members_live(),
        quiet.members_live(),
        "crash recovery bent the autoscale trajectory"
    );
    assert_eq!(
        killed.snapshot_json(),
        quiet.snapshot_json(),
        "killed-then-respawned fleet diverged from the uninterrupted run"
    );
    println!(
        "elastic OK: scale-out to {} members, kill+replay byte-equal to uninterrupted",
        quiet.members_live()
    );
}

fn check(sweep: &OverloadSweep, json: &str) {
    // Determinism: a second same-seed sweep reproduces the bytes.
    let rerun = OverloadSweep::run(SEED, DURATION_MS, CORES, &RATES).artifact().render();
    assert_eq!(json, rerun, "same seed must reproduce BENCH_overload.json byte-identically");
    let peak = sweep.peak();
    assert!(
        peak.report.registry.counter_value("sfi_qos_shed_total{class=\"batch\"}").is_some(),
        "snapshot must carry QoS counters"
    );

    // Gate 1: graceful degradation past saturation — the peak row against
    // the light row, and every row's goodput.
    let d = sweep.derived();
    let (ls_ratio, batch_rate, std_rate) =
        (d.ls_p99_peak_over_light, d.batch_shed_rate_at_peak, d.standard_shed_rate_at_peak);
    assert_eq!(d.ls_shed_at_peak, 0, "latency-sensitive must not shed at 2x overload");
    assert!(
        batch_rate > std_rate,
        "batch must shed harder than standard at peak: {batch_rate:.2} vs {std_rate:.2}"
    );
    assert!(batch_rate >= 0.9, "2x overload must shed nearly all batch: {batch_rate:.2}");
    assert!(
        ls_ratio > 0.0 && ls_ratio <= 5.0,
        "latency-sensitive p99 must stay bounded past saturation: {ls_ratio:.2}x light load"
    );
    let goodputs: Vec<f64> = sweep.rows.iter().map(|r| r.qos().goodput_rps).collect();
    assert_eq!(goodputs.len(), RATES.len(), "one row per offered rate");
    let best = goodputs.iter().cloned().fold(0.0, f64::max);
    let at_peak = *goodputs.last().expect("rows");
    assert!(
        at_peak >= 0.8 * best,
        "goodput must not collapse past saturation: {at_peak:.0} vs best {best:.0}"
    );
    assert!(peak.qos().shed_total > 0, "2x overload must actually shed");

    // Gate 2: elastic determinism through a kill.
    check_elastic_determinism();

    // Gate 3: the closed-loop legacy path is byte-identical to the
    // artifact figX_multicore wrote (run `figX_multicore` first).
    let on_disk = std::fs::read_to_string("BENCH_multicore.json")
        .expect("BENCH_multicore.json on disk (run figX_multicore first)");
    let legacy = MulticoreSweep::run(SEED, MC_DURATION_MS, &MC_CORES).artifact().render();
    assert_eq!(
        legacy, on_disk,
        "closed-loop sweep must stay byte-identical to BENCH_multicore.json"
    );

    println!(
        "check OK: ls p99 {ls_ratio:.2}x light, shed rates batch {batch_rate:.2} > \
         std {std_rate:.2} > ls 0, goodput holds {at_peak:.0}/{best:.0} rps, \
         legacy bytes unchanged"
    );
}

fn main() {
    let check_mode = std::env::args().any(|a| a == "--check");
    let sweep = OverloadSweep::run(SEED, DURATION_MS, CORES, &RATES);
    let artifact = sweep.artifact();
    artifact.write("BENCH_overload.json");

    println!(
        "\nFigure X (overload): open-loop sweep, {DURATION_MS} ms, {CORES} cores, \
         QoS + admission control\n"
    );
    let widths = [10, 10, 10, 10, 10, 9, 9, 9];
    row(
        &["offered", "goodput", "shed", "shed rate", "occupancy", "ls p99", "std p99", "batch p99"],
        &widths,
    );
    for r in &sweep.rows {
        let q = r.qos();
        let mut cells = vec![
            format!("{:.0}", r.offered_rps),
            format!("{:.0}", q.goodput_rps),
            format!("{}", q.shed_total),
            format!("{:.3}", q.shed_rate),
            format!("{:.3}", r.report.occupancy),
        ];
        cells.extend(q.per_class.iter().map(|c| format!("{:.2}", c.p99_ms)));
        row(&cells, &widths);
    }

    if check_mode {
        check(&sweep, &artifact.render());
    }
}
