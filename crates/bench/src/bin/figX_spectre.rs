//! Figure X (spectre): the security-vs-speed frontier of the strategy ×
//! mitigation matrix.
//!
//! Three views, all emitted into `BENCH_spectre.json`:
//!
//! 1. **Leak matrix** — the attacker-gadget corpus swept through every
//!    protected strategy × [`MitigationLevel`] cell under the bounded
//!    speculation window, reporting per-cell leak counts. Declared-safe
//!    cells (DESIGN.md §16) must measure zero.
//! 2. **Mitigation overhead** — architectural cycle cost of each level
//!    vs `None` on the fig6 FaaS hot modules (geomean per strategy, plus
//!    per-module deltas under Segue).
//! 3. **Runtime telemetry** — one gadget invocation per mitigation level
//!    through the runtime, embedding the `sfi_spec_*` series.
//!
//! `--check` additionally runs the security gates:
//!
//! 1. every declared-safe cell is leak-free over the full gadget corpus,
//! 2. ≥2 distinct leak classes reproduce under unmitigated Segue,
//! 3. 500 seeded genprog gadgets sweep clean at every declared-safe cell,
//! 4. lfence is the costliest mitigation under every strategy,
//! 5. the whole artifact is byte-identical when re-measured (same-seed
//!    determinism), as are recompiled gadget images, and
//! 6. the runtime exports all three `sfi_spec_*` series, and the
//!    per-level mitigation cycles add up to the `spec_mitigation` profile
//!    bucket.

use sfi_bench::{config_for, row, run_compiled, Artifact, Json, Obj};
use sfi_core::harness::speculative_check;
use sfi_core::{compile, CompilerConfig, MitigationLevel, Strategy};
use sfi_faas::stats::geomean;
use sfi_runtime::{Engine, Runtime, RuntimeConfig};
use sfi_telemetry::{json_snapshot, Registry};
use sfi_workloads::{gadgets, genprog};

/// The six protected strategies (Native sandboxes nothing and is never
/// declared safe; `speculative_check` skips it).
const PROTECTED: [Strategy; 6] = [
    Strategy::GuardRegion,
    Strategy::Segue,
    Strategy::SegueLoads,
    Strategy::BoundsCheck,
    Strategy::BoundsCheckSegue,
    Strategy::Masking,
];

/// One full deterministic measurement pass: returns the artifact and the
/// runtime registry it embeds. `--check` calls it twice and requires byte
/// equality.
fn measure() -> (Artifact, Registry) {
    // ---- Part 1: leak matrix over the gadget corpus ----------------------
    let mut leak_matrix = Vec::new();
    let mut totals = vec![[0u64; MitigationLevel::ALL.len()]; PROTECTED.len()];
    let mut segue_none_by_gadget = Vec::new();
    for w in gadgets::gadgets() {
        let module = w.module();
        for (strategy, level, leaked) in speculative_check(&module, "run", &[]) {
            let si = PROTECTED.iter().position(|&s| s == strategy).expect("protected");
            let li = MitigationLevel::ALL.iter().position(|&l| l == level).expect("level");
            totals[si][li] += leaked;
            if strategy == Strategy::Segue && level == MitigationLevel::None {
                segue_none_by_gadget.push((w.name, leaked));
            }
            leak_matrix.push(
                Obj::new()
                    .with("gadget", w.name)
                    .with("strategy", strategy.name())
                    .with("level", level.name())
                    .with("declared_safe", level.declared_safe(strategy))
                    .with("leaks", leaked),
            );
        }
    }

    let widths = [18, 12, 12, 12, 12];
    println!("leak matrix: corpus-total transient leaks per strategy × mitigation\n");
    let mut header = vec!["strategy".to_owned()];
    header.extend(MitigationLevel::ALL.iter().map(|l| l.name().to_owned()));
    row(&header, &widths);
    for (si, strategy) in PROTECTED.iter().enumerate() {
        let mut cells = vec![strategy.name().to_owned()];
        for (li, level) in MitigationLevel::ALL.iter().enumerate() {
            let safe = if level.declared_safe(*strategy) { " ✓safe" } else { "" };
            cells.push(format!("{}{safe}", totals[si][li]));
        }
        row(&cells, &widths);
    }

    // ---- Part 2: mitigation overhead on the fig6 hot modules -------------
    println!("\nmitigation overhead: geomean cycles vs None on the fig6 hot modules\n");
    let widths2 = [18, 10, 10, 12];
    row(&["strategy", "lfence", "slh", "index-mask"], &widths2);
    let faas = sfi_workloads::faas();
    let mut overhead_rows = Vec::new();
    let mut segue_cycles = Vec::new();
    let mut lfence_costliest = true;
    for strategy in PROTECTED {
        let mut geomeans = [0.0f64; MitigationLevel::ALL.len()];
        for (li, level) in MitigationLevel::ALL.iter().enumerate() {
            let mut cycles = Vec::new();
            for w in &faas {
                let module = w.module();
                let cfg = config_for(strategy, module.mem_min_pages, false).mitigated(*level);
                let cm = compile(&module, &cfg).expect("compiles");
                let m = run_compiled(w, &cm);
                if strategy == Strategy::Segue {
                    segue_cycles.push((w.name, *level, m.cycles));
                }
                cycles.push(m.cycles);
            }
            geomeans[li] = geomean(&cycles);
        }
        let base = geomeans[0];
        let over = |g: f64| (g / base - 1.0) * 100.0;
        row(
            &[
                strategy.name().into(),
                format!("{:+.1}%", over(geomeans[1])),
                format!("{:+.1}%", over(geomeans[2])),
                format!("{:+.1}%", over(geomeans[3])),
            ],
            &widths2,
        );
        lfence_costliest &= geomeans[1] >= geomeans[2] && geomeans[1] >= geomeans[3];
        for (li, level) in MitigationLevel::ALL.iter().enumerate() {
            overhead_rows.push(
                Obj::new()
                    .with("strategy", strategy.name())
                    .with("level", level.name())
                    .float("geomean_cycles", geomeans[li], 3)
                    .float("overhead_percent_vs_none", over(geomeans[li]), 3),
            );
        }
    }
    assert!(lfence_costliest, "lfence must be the costliest mitigation everywhere");

    // Per-module Segue deltas (the fig6 population the paper's frontier
    // argument is about).
    let mut fig6_deltas = Vec::new();
    for w in &faas {
        let base = segue_cycles
            .iter()
            .find(|(n, l, _)| *n == w.name && *l == MitigationLevel::None)
            .expect("baseline measured")
            .2;
        for (name, level, cycles) in &segue_cycles {
            if *name != w.name {
                continue;
            }
            fig6_deltas.push(
                Obj::new()
                    .with("module", *name)
                    .with("level", level.name())
                    .float("cycles", *cycles, 3)
                    .float("delta_percent", (cycles / base - 1.0) * 100.0, 3),
            );
        }
    }

    // ---- Part 3: runtime telemetry ---------------------------------------
    // One gadget invocation per mitigation level through the runtime spawn
    // path populates every `sfi_spec_mitigation_cycles_total{level=…}`
    // series; the snapshot is embedded in the artifact.
    let mut engine = Engine::new(64);
    let mut rt = Runtime::new(RuntimeConfig::small_test(true)).expect("runtime");
    let gadget = sfi_wasm::wat::parse(&gadgets::bounds_check_bypass(
        16,
        gadgets::SECRET_INDEX,
        64,
    ))
    .expect("gadget parses");
    for level in MitigationLevel::ALL {
        let cfg = CompilerConfig::for_strategy(Strategy::Segue).mitigated(level);
        let id = rt.spawn(&mut engine, &gadget, &cfg).expect("spawn");
        rt.invoke(id, "run", &[]).expect("runs");
        rt.terminate(id).expect("terminate");
    }
    let registry = rt.telemetry().registry().clone();

    let leaks_by_gadget: Vec<Obj> = segue_none_by_gadget
        .iter()
        .map(|&(n, l)| Obj::new().with("gadget", n).with("leaks", l))
        .collect();
    let artifact = Artifact::new(
        "figX_spectre",
        Obj::new()
            .with("leak_matrix", leak_matrix)
            .with("mitigation_overhead", overhead_rows)
            .with("fig6_segue_deltas", fig6_deltas)
            .with("segue_none_leaks_by_gadget", leaks_by_gadget)
            .with("telemetry", Json::raw(json_snapshot(&registry))),
    );
    (artifact, registry)
}

fn main() {
    let check = std::env::args().any(|a| a == "--check");
    println!("Figure X (spectre): speculative-leak matrix and the mitigation frontier\n");

    let (artifact, registry) = measure();
    println!();
    artifact.write("BENCH_spectre.json");

    if !check {
        return;
    }

    // ---- Gate 1 ran inside measure(): speculative_check asserts every
    // declared-safe cell is leak-free over the corpus, and the lfence-
    // costliest assertion ran per strategy.
    println!("\n[check] corpus declared-safe cells leak-free; lfence costliest ✓");

    // ---- Gate 2: ≥2 distinct leak classes under unmitigated Segue --------
    for (class, wat) in [
        ("bounds-check bypass", gadgets::bounds_check_bypass(64, gadgets::SECRET_INDEX, 64)),
        ("type confusion", gadgets::type_confusion(32, gadgets::SECRET_INDEX, 64)),
    ] {
        let m = sfi_wasm::wat::parse(&wat).expect("parses");
        let cfg = CompilerConfig::for_strategy(Strategy::Segue);
        let cm = compile(&m, &cfg).expect("compiles");
        let spec = sfi_core::harness::spec_config_for(&cm).expect("secret placement");
        let out =
            sfi_core::harness::execute_speculative(&cm, "run", &[], spec).expect("runs");
        assert!(out.stats.spec_leaks > 0, "{class} must leak under unmitigated Segue");
    }
    println!("[check] ≥2 leak classes reproduce under unmitigated Segue ✓");

    // ---- Gate 3: 500 genprog gadget seeds per declared-safe cell ---------
    // Each `speculative_check` call sweeps all 24 cells, so 500 seeds give
    // 500 gadgets per cell; the declared-safe zero-leak assertion is
    // inside the harness.
    for seed in 0..500u64 {
        let module = genprog::gadget(seed);
        speculative_check(&module, "run", &[]);
        if (seed + 1) % 100 == 0 {
            println!("[check]   genprog gadgets swept: {}/500", seed + 1);
        }
    }
    println!("[check] 500 genprog gadget seeds clean at every declared-safe cell ✓");

    // ---- Gate 4: same-seed determinism -----------------------------------
    let (again, _) = measure();
    assert_eq!(
        artifact.render(),
        again.render(),
        "BENCH_spectre.json must be byte-identical when re-measured"
    );
    let gadget = sfi_wasm::wat::parse(&gadgets::bounds_check_bypass(
        64,
        gadgets::SECRET_INDEX,
        64,
    ))
    .expect("parses");
    let cfg = CompilerConfig::for_strategy(Strategy::Segue).mitigated(MitigationLevel::IndexMask);
    let a = compile(&gadget, &cfg).expect("compiles");
    let b = compile(&gadget, &cfg).expect("compiles");
    assert_eq!(
        a.image.encoded().bytes,
        b.image.encoded().bytes,
        "mitigated artifacts must be deterministic"
    );
    println!("[check] artifact byte-identical across re-measurement and recompiles ✓");

    // ---- Gate 6: the runtime's speculation series ------------------------
    let counter = |key: &str| {
        registry.counter_value(key).unwrap_or_else(|| panic!("{key} must be registered"))
    };
    counter("sfi_spec_flushes_total");
    counter("sfi_spec_leaks_total");
    let by_level: u64 = MitigationLevel::ALL
        .iter()
        .map(|l| counter(&format!("sfi_spec_mitigation_cycles_total{{level=\"{}\"}}", l.name())))
        .sum();
    let bucket = counter("sfi_profile_cycles_total{provenance=\"spec_mitigation\"}");
    assert_eq!(by_level, bucket, "per-level mitigation cycles must add up to the profile bucket");
    assert!(by_level > 0, "the hardened gadget invocations must pay mitigation cycles");
    println!("[check] sfi_spec_* series exported; {by_level} mitigation cycles across levels ✓");
    println!("\nfigX_spectre --check: all gates passed");
}
