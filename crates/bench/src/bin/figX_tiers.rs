//! Figure X (tiers): the tiered optimizing compiler.
//!
//! Reports the per-module cycle win of the optimizing tier on the fig6
//! FaaS hot modules (the population the promotion policy targets), then
//! drives the promotion flow end-to-end through the runtime's tiered
//! spawn path and embeds the resulting telemetry in `BENCH_tiers.json`.
//!
//! `--check` additionally runs the equivalence and performance gates:
//!
//! 1. the optimizing tier is interpreter-equal on the **full corpus**
//!    under every protection strategy,
//! 2. 500 seeded random programs are differentially equal across
//!    interpreter, baseline and optimized tiers (failures shrink to a
//!    minimal counterexample before panicking),
//! 3. each fig6 hot module gains ≥10% cycles at the optimizing tier, and
//! 4. with tiering off, compiled artifacts are byte-identical to the
//!    default configuration's — the baseline tier is the pre-tiering
//!    compiler, bit for bit, and
//! 5. the runtime's tier series count every promotion and observe each
//!    tier's invocations in `sfi_tier_guest_cycles`.

use sfi_bench::{config_for, row, run_compiled, Artifact, Json, Obj};
use sfi_core::{compile, OptLevel, Strategy};
use sfi_faas::stats::geomean;
use sfi_runtime::{Engine, Runtime, RuntimeConfig, Tier, TierPolicy};
use sfi_telemetry::json_snapshot;
use sfi_wasm::interp::Interpreter;

/// The protection strategies the equivalence gate sweeps (Native is
/// excluded from the runtime rows: it cannot be pooled).
const PROTECTED: [Strategy; 5] = [
    Strategy::GuardRegion,
    Strategy::Segue,
    Strategy::SegueLoads,
    Strategy::BoundsCheck,
    Strategy::BoundsCheckSegue,
];

fn main() {
    let check = std::env::args().any(|a| a == "--check");
    println!("Figure X (tiers): optimizing tier vs baseline on the fig6 hot modules\n");

    // ---- Part 1: per-module cycle win under Segue ------------------------
    let widths = [20, 14, 14, 9, 11, 11];
    row(&["module", "base cycles", "opt cycles", "cut", "base c/i", "opt c/i"], &widths);

    let mut rows = Vec::new();
    let mut cuts = Vec::new();
    for w in sfi_workloads::faas() {
        let module = w.module();
        let base_cfg = config_for(Strategy::Segue, module.mem_min_pages, false);
        let base = compile(&module, &base_cfg).expect("baseline compiles");
        let opt = compile(&module, &base_cfg.clone().optimized()).expect("optimized compiles");
        let mb = run_compiled(&w, &base);
        let mo = run_compiled(&w, &opt);
        assert_eq!(mb.result, mo.result, "{}: tiers must agree", w.name);
        let cut = 1.0 - mo.cycles / mb.cycles;
        cuts.push(cut);
        let (cpi_b, cpi_o) = (mb.cycles / mb.insts as f64, mo.cycles / mo.insts as f64);
        row(
            &[
                w.name.into(),
                format!("{:.0}", mb.cycles),
                format!("{:.0}", mo.cycles),
                format!("{:.1}%", cut * 100.0),
                format!("{cpi_b:.3}"),
                format!("{cpi_o:.3}"),
            ],
            &widths,
        );
        rows.push(
            Obj::new()
                .with("module", w.name)
                .float("baseline_cycles", mb.cycles, 3)
                .float("optimized_cycles", mo.cycles, 3)
                .float("cycle_cut_percent", cut * 100.0, 3)
                .float("baseline_cpi", cpi_b, 4)
                .float("optimized_cpi", cpi_o, 4)
                .with("opt_rewrites", opt.opt_stats.total()),
        );
    }
    let gm = geomean(&cuts.iter().map(|c| 1.0 - c).collect::<Vec<_>>());
    println!("\ngeomean cycle cut {:.1}% across the fig6 hot modules", (1.0 - gm) * 100.0);

    // ---- Part 2: the promotion flow through the runtime ------------------
    // Small-instance variants of the same three kernels (they must fit the
    // pool's test slots); spawned repeatedly so each crosses the hot-count
    // threshold and recompiles at the optimizing tier mid-run.
    println!("\ntiered execution: promote_after = 4, eight spawns per module\n");
    let hot = [
        ("hash_lb", sfi_workloads::kernels::hash_lb(2_000, 1024, 1)),
        ("regex_filter", sfi_workloads::kernels::regex_filter(20_000, 1)),
        ("html_template", sfi_workloads::kernels::html_template(16_000, 1)),
    ];
    let mut engine = Engine::with_tier_policy(64, TierPolicy { promote_after: 4 });
    let mut rt = Runtime::new(RuntimeConfig::small_test(true)).expect("runtime");
    let widths2 = [20, 10, 12, 12];
    row(&["module", "spawns", "baseline", "optimized"], &widths2);
    for (name, wat) in &hot {
        let module = sfi_wasm::wat::parse(wat).expect("kernel parses");
        let cfg = sfi_core::CompilerConfig::for_strategy(Strategy::Segue);
        let (mut at_base, mut at_opt) = (0u32, 0u32);
        for _ in 0..8 {
            let (id, tier) = rt.spawn_tiered(&mut engine, &module, &cfg).expect("spawn");
            match tier {
                Tier::Baseline => at_base += 1,
                Tier::Optimized => at_opt += 1,
            }
            rt.invoke(id, "run", &[]).expect("runs");
            rt.terminate(id).expect("terminate");
        }
        row(&[(*name).into(), "8".into(), format!("{at_base}"), format!("{at_opt}")], &widths2);
        assert_eq!(at_base, 4, "{name}: promote_after spawns stay at baseline");
        assert_eq!(at_opt, 4, "{name}: the rest are served optimized");
    }
    let stats = engine.tier_stats();
    println!(
        "\n{} promotions, {} demotions; cache holds both tiers under distinct keys",
        stats.promotions, stats.demotions
    );

    Artifact::new(
        "figX_tiers",
        Obj::new()
            .with("rows", rows)
            .float("geomean_cycle_cut_percent", (1.0 - gm) * 100.0, 3)
            .with("promotions", stats.promotions)
            .with("telemetry", Json::raw(json_snapshot(rt.telemetry().registry()))),
    )
    .write("BENCH_tiers.json");

    if !check {
        return;
    }

    // ---- Gate 3: the headline win ----------------------------------------
    for (w, cut) in sfi_workloads::faas().iter().zip(&cuts) {
        assert!(
            *cut >= 0.10,
            "{}: optimizing tier must cut ≥10% of cycles, got {:.2}%",
            w.name,
            cut * 100.0
        );
    }
    println!("\n[check] fig6 hot modules: every cycle cut ≥10% ✓");

    // ---- Gate 5: the tier series -----------------------------------------
    // Each hot module is promoted once and invoked four times per tier.
    let registry = rt.telemetry().registry();
    assert_eq!(
        registry.counter_value("sfi_tier_promotions_total"),
        Some(stats.promotions),
        "sfi_tier_promotions_total must count the engine's promotions"
    );
    assert_eq!(stats.promotions, hot.len() as u64, "one promotion per hot module");
    for tier in [Tier::Baseline, Tier::Optimized] {
        let key = format!("sfi_tier_guest_cycles{{tier=\"{}\"}}", tier.name());
        let observed = registry.histogram_values(&key).map(|h| h.count());
        assert_eq!(observed, Some(4 * hot.len() as u64), "{key} must observe every invocation");
    }
    println!("[check] tier series: {} promotions, every invocation observed per tier ✓", stats.promotions);

    // ---- Gate 1: full-corpus equivalence at the optimizing tier ----------
    let mut checked = 0u32;
    for w in sfi_workloads::all() {
        let module = w.module();
        let mut interp = Interpreter::new(&module).expect("instantiates");
        let expected = interp
            .invoke_export("run", &[])
            .expect("interprets")
            .expect("corpus returns a checksum");
        for strategy in PROTECTED {
            let cfg = config_for(strategy, module.mem_min_pages, false).optimized();
            let cm = compile(&module, &cfg).expect("compiles");
            let out = sfi_core::harness::execute_export(&cm, "run", &[]).expect("runs");
            assert_eq!(
                out.result.map(|r| r & 0xFFFF_FFFF),
                Some(expected),
                "{} diverged under {strategy} at the optimizing tier",
                w.name
            );
            let n = interp.memory.len().min(out.heap.len());
            assert_eq!(
                interp.memory[..n],
                out.heap[..n],
                "{} heap diverged under {strategy} at the optimizing tier",
                w.name
            );
            checked += 1;
        }
    }
    println!("[check] full corpus interpreter-equal at the optimizing tier ({checked} combos) ✓");

    // ---- Gate 2: 500 seeded random programs ------------------------------
    let diverges = |p: &sfi_workloads::genprog::RandomProgram| {
        let m = p.module();
        std::panic::catch_unwind(|| {
            sfi_core::harness::differential_check(&m, "run", &[]);
        })
        .is_err()
    };
    for seed in 0..500u64 {
        let program = sfi_workloads::genprog::generate(seed);
        if diverges(&program) {
            let hook = std::panic::take_hook();
            std::panic::set_hook(Box::new(|_| {}));
            let minimal = program.shrink(diverges);
            std::panic::set_hook(hook);
            panic!(
                "seed {seed} diverges across tiers; minimal counterexample ({} stmts): {:?}",
                minimal.size(),
                minimal.module().defined_func(0).map(|f| &f.body),
            );
        }
    }
    println!("[check] 500 seeded random programs differentially equal across tiers ✓");

    // ---- Gate 4: tiering off is byte-identical ---------------------------
    // The default configuration never names a tier; an explicit Baseline
    // must produce the same bytes, and the engine's cold (pre-promotion)
    // path must serve exactly that artifact.
    let mut engine = Engine::new(64);
    for w in sfi_workloads::all() {
        let module = w.module();
        for strategy in PROTECTED {
            let default_cfg = config_for(strategy, module.mem_min_pages, false);
            assert_eq!(default_cfg.opt_level, OptLevel::Baseline, "tiering is opt-in");
            let direct = compile(&module, &default_cfg).expect("compiles");
            let mut explicit_cfg = default_cfg.clone();
            explicit_cfg.opt_level = OptLevel::Baseline;
            let explicit = compile(&module, &explicit_cfg).expect("compiles");
            assert_eq!(
                direct.image.encoded().bytes,
                explicit.image.encoded().bytes,
                "{} under {strategy}: baseline bytes must not depend on tier plumbing",
                w.name
            );
            let (cold, tier) =
                engine.load_tiered(&module, &default_cfg, 0).expect("cold tiered load");
            assert_eq!(tier, Tier::Baseline, "cold spawns serve baseline");
            assert_eq!(
                cold.image.encoded().bytes,
                direct.image.encoded().bytes,
                "{} under {strategy}: the engine's cold path is the baseline artifact",
                w.name
            );
        }
    }
    println!("[check] baseline artifacts byte-identical with tiering off ✓");
    println!("\nfigX_tiers --check: all gates passed");
}
