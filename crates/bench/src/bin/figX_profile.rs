//! Figure X (profile): the cycle-attribution profiler.
//!
//! Builds the attribution matrix of DESIGN.md §14 — every non-Native
//! protection strategy × both compiler tiers over the fig6 FaaS hot
//! modules — from the emulator's per-provenance cycle buckets, then
//! drives the pooled runtime to measure each strategy's transition-cycle
//! share end-to-end. The matrix, the per-strategy shares, a folded-stack
//! rendering of the whole matrix (flamegraph input) and the runtime's
//! profile telemetry land in `BENCH_profile.json`.
//!
//! `--check` additionally runs the profiler gates:
//!
//! 1. **exact attribution**: for every matrix cell the six provenance
//!    buckets plus the three penalty buckets sum to the run's modeled
//!    cycle total bit-for-bit (`RunStats::attributed_cycles`),
//! 2. **determinism**: rebuilding the whole artifact from scratch is
//!    byte-identical,
//! 3. **zero observer effect**: request spans on vs off changes no
//!    benchmark result field of the multi-core simulation,
//! 4. **self-overhead**: spans + exemplars may cost at most 1.35× over
//!    the profiler-off configuration (best-of-3 wall clock),
//! 5. **calibration**: the per-strategy transition shares stay within the
//!    drift bound of the DESIGN.md §14 calibration record, and
//! 6. **profile series**: the runtime's `sfi_profile_cycles_total`
//!    counters carry every provenance and the same transition cycles the
//!    shares were computed from.

use sfi_bench::{
    check_overhead, compile_workload, row, run_compiled, Artifact, Json, Obj, OVERHEAD_BUDGET,
};
use sfi_core::{CompilerConfig, Strategy};
use sfi_faas::{simulate_multicore, CacheMode, FaasWorkload, MultiCoreConfig, ScalingMode};
use sfi_runtime::{Engine, Runtime, RuntimeConfig, PENALTY_NAMES};
use sfi_telemetry::{
    json_snapshot, AlertEngine, FoldedStacks, RecordingRule, Registry, RuleSource,
    Selector, Tsdb,
};
use sfi_x86::Provenance;

const DESIGN: &str = include_str!("../../../../DESIGN.md");

/// The strategies the matrix covers — everything except `Native`, which
/// has no protection cycles to attribute and cannot be pooled.
const PROFILED: [Strategy; 6] = [
    Strategy::GuardRegion,
    Strategy::Segue,
    Strategy::SegueLoads,
    Strategy::BoundsCheck,
    Strategy::BoundsCheckSegue,
    Strategy::Masking,
];

const TIERS: [&str; 2] = ["baseline", "optimized"];

/// One matrix cell: cycles by provenance and penalty, aggregated over the
/// fig6 hot modules under one (strategy, tier).
struct Cell {
    strategy: Strategy,
    tier: &'static str,
    cycles: f64,
    prov: [f64; Provenance::COUNT],
    penalty: [f64; 3],
}

/// Builds the full attribution matrix, asserting the exact-sum invariant
/// for every underlying run.
fn build_matrix() -> Vec<Cell> {
    let mut cells = Vec::new();
    for strategy in PROFILED {
        for (t, tier) in TIERS.iter().enumerate() {
            let mut cell = Cell {
                strategy,
                tier,
                cycles: 0.0,
                prov: [0.0; Provenance::COUNT],
                penalty: [0.0; 3],
            };
            for w in sfi_workloads::faas() {
                let mut cm = compile_workload(&w, strategy, false);
                if t == 1 {
                    cm = sfi_core::compile(
                        &w.module(),
                        &cm.config.clone().optimized(),
                    )
                    .expect("optimized tier compiles");
                }
                let m = run_compiled(&w, &cm);
                assert_eq!(
                    m.stats.cycles.to_bits(),
                    m.stats.attributed_cycles().to_bits(),
                    "{} under {strategy}/{tier}: buckets must sum to the cycle total bit-for-bit",
                    w.name
                );
                cell.cycles += m.stats.cycles;
                for (i, c) in m.stats.prov_cycles.iter().enumerate() {
                    cell.prov[i] += c;
                }
                cell.penalty[0] += m.stats.icache_penalty_cycles;
                cell.penalty[1] += m.stats.dcache_penalty_cycles;
                cell.penalty[2] += m.stats.branch_penalty_cycles;
            }
            cells.push(cell);
        }
    }
    cells
}

/// Folds the matrix into flamegraph input: one stack per non-zero bucket,
/// rooted `strategy;tier;provenance` (penalties under `…;penalty;kind`).
fn fold_matrix(cells: &[Cell]) -> FoldedStacks {
    let mut folded = FoldedStacks::new();
    for cell in cells {
        for (p, cycles) in Provenance::ALL.iter().zip(&cell.prov) {
            if *cycles > 0.0 {
                folded.add(&[cell.strategy.name(), cell.tier, p.name()], cycles.round() as u64);
            }
        }
        for (name, cycles) in PENALTY_NAMES.iter().zip(&cell.penalty) {
            if *cycles > 0.0 {
                folded.add(&[cell.strategy.name(), cell.tier, "penalty", name], cycles.round() as u64);
            }
        }
    }
    folded
}

/// Drives each strategy through the pooled runtime — cold spawn plus four
/// invocations of each fig6 kernel — and returns the raw per-strategy
/// `(strategy, transition_cycles, total_cycles)` triples plus the final
/// runtime registry (profile counters included). The share is
/// `transition / total`.
fn transition_shares() -> (Vec<(Strategy, f64, f64)>, Registry) {
    // FaaS-granularity instances of the fig6 kernels: short enough that
    // the per-invoke transition protocol is a visible share of the total
    // (the population the near-zero-cost-transitions work targets).
    let hot = [
        sfi_workloads::kernels::hash_lb(100, 128, 1),
        sfi_workloads::kernels::regex_filter(500, 1),
        sfi_workloads::kernels::html_template(400, 1),
    ];
    let mut rt = Runtime::new(RuntimeConfig::small_test(true)).expect("runtime");
    let mut engine = Engine::new(64);
    let mut shares = Vec::new();
    for strategy in PROFILED {
        let (mut transition, mut total) = (0.0f64, 0.0f64);
        for wat in &hot {
            let module = sfi_wasm::wat::parse(wat).expect("kernel parses");
            let cfg = CompilerConfig::for_strategy(strategy);
            let id = rt.spawn(&mut engine, &module, &cfg).expect("spawn");
            for _ in 0..4 {
                let out = rt.invoke(id, "run", &[]).expect("runs");
                let b = out.breakdown;
                assert_eq!(
                    b.guest_cycles().to_bits(),
                    out.stats.cycles.to_bits(),
                    "{strategy}: breakdown must match the emulator total bit-for-bit"
                );
                transition += b.transition_cycles;
                total += b.total_cycles();
            }
            rt.terminate(id).expect("terminate");
        }
        shares.push((strategy, transition, total));
    }
    (shares, rt.telemetry().registry().clone())
}

/// Renders the artifact from the matrix and the runtime measurements.
fn build_report(cells: &[Cell], shares: &[(Strategy, f64, f64)], registry: &Registry) -> Artifact {
    let matrix: Vec<Obj> = cells
        .iter()
        .map(|cell| {
            let prov = Provenance::ALL
                .iter()
                .zip(&cell.prov)
                .fold(Obj::new(), |o, (p, c)| o.float(p.name(), *c, 3));
            let pen = PENALTY_NAMES
                .iter()
                .zip(&cell.penalty)
                .fold(Obj::new(), |o, (n, c)| o.float(n, *c, 3));
            Obj::new()
                .with("strategy", cell.strategy.name())
                .with("tier", cell.tier)
                .float("cycles", cell.cycles, 3)
                .with("provenance", prov)
                .with("penalty", pen)
        })
        .collect();
    let share = shares.iter().fold(Obj::new(), |o, (s, tr, tot)| o.float(s.name(), tr / tot, 4));
    let folded = fold_matrix(cells).render();
    let profile: Vec<&str> = folded.lines().collect();
    Artifact::new(
        "figX_profile",
        Obj::new()
            .with("matrix", matrix)
            .with("transition_share", share)
            .with("profile", profile)
            .with("telemetry", Json::raw(json_snapshot(registry))),
    )
}

/// The spans-on/off observer-effect rig: the fig6 hash workload on the
/// ColorGuard warm path, big enough that every span level fires.
fn span_rig(trace_capacity: usize, spans: bool) -> MultiCoreConfig {
    let mut cfg = MultiCoreConfig::paper_rig(
        FaasWorkload::HashLoadBalance,
        ScalingMode::ColorGuard,
        CacheMode::Warm,
        4,
    );
    cfg.duration_ms = 200;
    cfg.trace_capacity = trace_capacity;
    cfg.spans = spans;
    cfg
}

fn main() {
    let check = std::env::args().any(|a| a == "--check");
    println!("Figure X (profile): cycle attribution by provenance, strategy and tier\n");

    let cells = build_matrix();
    let widths = [14, 10, 12, 8, 8, 8, 8, 8, 9];
    row(
        &["strategy", "tier", "cycles", "guest", "guard", "addr", "trunc", "glue", "penalty"],
        &widths,
    );
    for cell in &cells {
        let pctof = |c: f64| format!("{:.1}%", 100.0 * c / cell.cycles);
        row(
            &[
                cell.strategy.name().into(),
                cell.tier.into(),
                format!("{:.0}", cell.cycles),
                pctof(cell.prov[Provenance::GuestCompute.index()]),
                pctof(cell.prov[Provenance::BoundsGuard.index()]),
                pctof(cell.prov[Provenance::SegueAddressing.index()]),
                pctof(cell.prov[Provenance::Truncation.index()]),
                pctof(cell.prov[Provenance::TransitionGlue.index()]),
                pctof(cell.penalty.iter().sum()),
            ],
            &widths,
        );
    }

    let (shares, registry) = transition_shares();
    println!("\npooled runtime: transition-cycle share of total attributed cycles\n");
    let widths2 = [14, 10];
    row(&["strategy", "share"], &widths2);
    for (s, tr, tot) in &shares {
        row(&[s.name().into(), format!("{:.2}%", tr / tot * 100.0)], &widths2);
    }

    let report = build_report(&cells, &shares, &registry);
    println!();
    report.write("BENCH_profile.json");

    if !check {
        return;
    }

    // ---- Gate 1: exact attribution ---------------------------------------
    // build_matrix asserted `cycles == attributed_cycles()` bit-for-bit on
    // every underlying run; summarize the coverage here.
    println!(
        "\n[check] attribution exact: {} cells × {} modules, buckets sum bit-for-bit ✓",
        cells.len(),
        sfi_workloads::faas().len()
    );

    // ---- Gate 2: determinism ---------------------------------------------
    let (shares2, registry2) = transition_shares();
    let rerun = build_report(&build_matrix(), &shares2, &registry2);
    assert_eq!(report.render(), rerun.render(), "rebuilding BENCH_profile.json must be byte-identical");
    println!("[check] artifact deterministic: rebuild byte-identical ✓");

    // ---- Gate 3: zero observer effect ------------------------------------
    // Request spans change no benchmark result field: the only new series
    // is `sfi_shard_span_events_total`, and that lives in the telemetry
    // export, not in the report.
    let off = simulate_multicore(&span_rig(65_536, false));
    let on = simulate_multicore(&span_rig(65_536, true));
    assert_eq!(off.offered, on.offered);
    assert_eq!(off.completed, on.completed);
    assert_eq!(off.throughput_rps.to_bits(), on.throughput_rps.to_bits());
    assert_eq!(off.mean_latency_ms.to_bits(), on.mean_latency_ms.to_bits());
    assert_eq!(off.p99_latency_ms.to_bits(), on.p99_latency_ms.to_bits());
    assert_eq!(off.occupancy.to_bits(), on.occupancy.to_bits());
    assert_eq!(off.totals, on.totals);
    assert_eq!(off.per_core, on.per_core);
    assert_eq!(off.latency_per_core, on.latency_per_core);
    assert!(on.completed > 0, "the rig must complete work");
    println!("[check] spans on vs off: every benchmark result field identical ✓");

    // ---- Gate 4: self-overhead -------------------------------------------
    // Profiler on vs profiler off at the production ring size (512, the
    // paper_rig default) — tracing's own cost is budgeted separately by
    // the §8 gate in figX_multicore.
    let factor = check_overhead("profiler self-overhead", |spans| {
        let cfg = span_rig(512, spans);
        move || assert!(simulate_multicore(&cfg).completed > 0)
    });
    println!(
        "[check] self-overhead {factor:.2}x (budget {OVERHEAD_BUDGET:.2}x, spans + exemplars vs profiler off) ✓"
    );

    // ---- Gate 5: the calibration record ----------------------------------
    // The drift-watch value flows through the telemetry plane itself: a
    // per-strategy RatioPermille recording rule over the raw profiler
    // counters in a scratch tsdb, verified here against the direct
    // computation, then gated against the DESIGN.md §14 record.
    let mut tsdb = Tsdb::new(8, 64);
    let mut rules = AlertEngine::new(16);
    for (s, _, _) in &shares {
        rules.add_recording(RecordingRule {
            record: "sfi_profile_transition_share_permille",
            labels: vec![("strategy", s.name().to_owned())],
            source: RuleSource::RatioPermille {
                num: format!(
                    "increase(sfi_profile_transition_cycles_total{{strategy=\"{}\"}}[2r])",
                    s.name()
                ),
                den: format!(
                    "increase(sfi_profile_attributed_cycles_total{{strategy=\"{}\"}}[2r])",
                    s.name()
                ),
            },
        });
    }
    for round in 1..=2u64 {
        // Round 1 is the zero baseline; round 2 carries the cumulative
        // cycle counters, so increase[2r] is exactly the per-strategy run.
        let scale = (round - 1) as f64;
        for (s, tr, tot) in &shares {
            tsdb.store_counter(
                &format!("sfi_profile_transition_cycles_total{{strategy=\"{}\"}}", s.name()),
                round,
                (tr * scale).round() as u64,
            );
            tsdb.store_counter(
                &format!("sfi_profile_attributed_cycles_total{{strategy=\"{}\"}}", s.name()),
                round,
                (tot * scale).round() as u64,
            );
        }
        rules.evaluate(round, &mut tsdb);
    }
    for (s, tr, tot) in &shares {
        let sel = format!("sfi_profile_transition_share_permille{{strategy=\"{}\"}}", s.name());
        let rows = tsdb.latest(&Selector::parse(&sel).expect("share selector"));
        assert_eq!(rows.len(), 1, "{}: recording rule must publish one series", s.name());
        let direct = 1000.0 * tr / tot;
        assert!(
            (rows[0].1 - direct).abs() <= 1.0,
            "{}: recorded share {} vs direct {direct:.3} permille",
            s.name(),
            rows[0].1
        );
    }
    println!("[check] transition shares recomputed by recording rules agree (±1 permille) ✓");
    // Basis points of the artifact's share, i.e. the share rounded to the
    // four decimals `BENCH_profile.json` carries, times 10^4.
    let bp: Vec<(&str, f64)> = shares
        .iter()
        .map(|(s, tr, tot)| {
            let share: f64 = format!("{:.4}", tr / tot).parse().expect("formatted share");
            (s.name(), share * 10_000.0)
        })
        .collect();
    let line = bp.iter().map(|(s, v)| format!("{s}={v:.0}")).collect::<Vec<_>>().join(" ");
    println!("[check] calibration: profile transition_share_bp {line}");
    sfi_bench::check_calibration(DESIGN, "profile", &bp);
    println!("[check] transition shares within the DESIGN.md §14 calibration record ✓");

    // ---- Gate 6: the profile series --------------------------------------
    // The counters round each invocation's cycles, so they may differ from
    // the exact f64 sum by at most half a cycle per invocation.
    let profile = |p: &str| {
        registry
            .counter_value(&format!("sfi_profile_cycles_total{{provenance=\"{p}\"}}"))
            .unwrap_or_else(|| panic!("sfi_profile_cycles_total{{provenance=\"{p}\"}} must be registered"))
    };
    for p in Provenance::ALL {
        profile(p.name());
    }
    let invocations = registry
        .histogram_values("sfi_invocation_transition_cycles")
        .expect("the runtime registers the transition-cycle histogram")
        .count() as f64;
    let counted = profile("transition") as f64;
    let exact: f64 = shares.iter().map(|(_, tr, _)| tr).sum();
    assert!(
        (counted - exact).abs() <= 0.5 * invocations,
        "sfi_profile_cycles_total{{provenance=\"transition\"}} = {counted} vs {exact:.3} \
         transition cycles measured over {invocations} invocations"
    );
    println!("[check] profile series: every provenance registered, transition cycles agree ✓");
    println!("\nfigX_profile --check: all gates passed");
}
