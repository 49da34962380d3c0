//! # sfi-bench: the evaluation harness
//!
//! One binary per table/figure of the paper (see `src/bin/`); each binary
//! that writes a `BENCH_*.json` artifact is also the only place that gates
//! it. This library holds the shared measurement plumbing: compile a corpus
//! workload under a strategy, run it on the deterministic emulator, and
//! report modeled cycles, instruction counts and code size; the one
//! artifact writer ([`Artifact`]) and the two shard sweeps it renders
//! ([`sweep`]); the DESIGN.md calibration-record check and the wall-clock
//! overhead gate.
//!
//! Reproduce everything with:
//!
//! ```text
//! cargo run --release -p sfi-bench --bin fig3_spec2006
//! cargo run --release -p sfi-bench --bin table2_binsize
//! cargo run --release -p sfi-bench --bin fig4_sightglass
//! cargo run --release -p sfi-bench --bin sec61_firefox
//! cargo run --release -p sfi-bench --bin sec62_wamr_suites
//! cargo run --release -p sfi-bench --bin fig5_lfi_spec2017
//! cargo run --release -p sfi-bench --bin sec641_transitions
//! cargo run --release -p sfi-bench --bin sec642_scaling
//! cargo run --release -p sfi-bench --bin fig6_throughput
//! cargo run --release -p sfi-bench --bin fig7_ctx_dtlb
//! cargo run --release -p sfi-bench --bin table1_invariants
//! cargo run --release -p sfi-bench --bin sec7_mte
//! ```

#![forbid(unsafe_code)]

pub mod artifact;
pub mod sweep;

use std::time::{Duration, Instant};

pub use artifact::{Artifact, Json, Obj};
pub use sweep::{MulticoreSweep, OverloadSweep};

use sfi_core::{compile, CompiledModule, CompilerConfig, MemLayout, OptLevel, RuntimeRegions, Strategy};
use sfi_wasm::PAGE_SIZE;
use sfi_workloads::Workload;
use sfi_x86::cost::RunStats;

/// One measured execution.
#[derive(Debug, Clone)]
pub struct Measured {
    /// Modeled cycles.
    pub cycles: f64,
    /// Retired instructions.
    pub insts: u64,
    /// Encoded code bytes.
    pub code_bytes: usize,
    /// The checksum the workload returned (for cross-strategy agreement).
    pub result: u64,
    /// Full counters.
    pub stats: RunStats,
}

/// Builds the compiler configuration for a module of `mem_pages` pages.
pub fn config_for(strategy: Strategy, mem_pages: u32, vectorize: bool) -> CompilerConfig {
    let mem_size = (u64::from(mem_pages) * PAGE_SIZE).next_power_of_two();
    if strategy == Strategy::Native {
        // Native code addresses its data directly: the heap sits at the
        // bottom of the address space (small displacements, as real
        // compiled C has), with the runtime regions above it.
        return CompilerConfig {
            strategy,
            vectorize,
            stack_check: false,
            lfi_reserved_regs: false,
            segment_entry_protocol: false,
            opt_level: OptLevel::Baseline,
            mitigation: sfi_core::MitigationLevel::None,
            layout: MemLayout { heap_base: 0, mem_size, guard_size: 0 },
            regions: RuntimeRegions {
                header_base: 0x14_0000 + mem_size as u32,
                globals_base: 0x14_1000 + mem_size as u32,
                table_base: 0x15_0000 + mem_size as u32,
                stack_limit: 0x16_0000 + mem_size as u32,
                stack_top: 0x1C_0000 + mem_size as u32,
            },
        };
    }
    CompilerConfig {
        strategy,
        vectorize,
        stack_check: true,
        lfi_reserved_regs: false,
        segment_entry_protocol: false,
        opt_level: OptLevel::Baseline,
        mitigation: sfi_core::MitigationLevel::None,
        layout: MemLayout { heap_base: 0x10_0000, mem_size, guard_size: 0x1_0000 },
        regions: RuntimeRegions::small_test(),
    }
}

/// Compiles a workload under `strategy` (the `Native` strategy uses the
/// 64-bit-pointer variant of the module where one exists).
pub fn compile_workload(w: &Workload, strategy: Strategy, vectorize: bool) -> CompiledModule {
    let module = if strategy == Strategy::Native { w.native_module() } else { w.module() };
    let cfg = config_for(strategy, module.mem_min_pages, vectorize);
    compile(&module, &cfg).unwrap_or_else(|e| panic!("{} under {strategy}: {e}", w.name))
}

/// Compiles and runs a workload under `strategy`.
pub fn measure(w: &Workload, strategy: Strategy, vectorize: bool) -> Measured {
    let cm = compile_workload(w, strategy, vectorize);
    run_compiled(w, &cm)
}

/// Runs an already-compiled workload.
pub fn run_compiled(w: &Workload, cm: &CompiledModule) -> Measured {
    let out = sfi_core::harness::execute_export(cm, "run", &[])
        .unwrap_or_else(|e| panic!("{} under {}: {e}", w.name, cm.config.strategy));
    Measured {
        cycles: out.stats.cycles,
        insts: out.stats.insts,
        code_bytes: cm.code_size(),
        result: out.result.map(|r| r & 0xFFFF_FFFF).unwrap_or(0),
        stats: out.stats,
    }
}

/// The value following `flag` on the command line (`--port 9100`).
pub fn arg_after(flag: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1).cloned())
}

/// Keeps the default panic hook from printing the chaos layer's injected
/// (and caught) panics over the bench output; every other panic still
/// prints. Restore the default with [`std::panic::take_hook`].
pub fn silence_injected_panics() {
    std::panic::set_hook(Box::new(|info| {
        let msg = info.payload().downcast_ref::<String>().map(String::as_str).unwrap_or_default();
        if !msg.starts_with("chaos: injected") {
            eprintln!("{info}");
        }
    }));
}

/// Prints a crude fixed-width table row.
pub fn row(cells: &[impl AsRef<str>], widths: &[usize]) {
    let mut line = String::new();
    for (c, w) in cells.iter().zip(widths) {
        line.push_str(&format!("{:>w$}  ", c.as_ref(), w = *w));
    }
    println!("{}", line.trim_end());
}

/// Documented self-overhead budget (DESIGN.md §8, §14, §15): an observed
/// configuration may cost at most this factor over the unobserved one,
/// best-of-3 wall clock.
pub const OVERHEAD_BUDGET: f64 = 1.35;

/// The wall-clock overhead gate: times the workloads `setup(false)` and
/// `setup(true)` return, alternating off and on for three rounds (set-up is
/// untimed), and requires the best observed-on time to stay within
/// [`OVERHEAD_BUDGET`] of the best observed-off time. Alternating keeps a
/// warm-up or a burst of machine load from landing on one side only.
/// Returns the factor.
///
/// # Panics
///
/// Naming `label`, the factor and both times, when the budget is exceeded.
pub fn check_overhead<W: FnOnce()>(label: &str, mut setup: impl FnMut(bool) -> W) -> f64 {
    let mut best = [Duration::MAX; 2];
    for _ in 0..3 {
        for on in [false, true] {
            let workload = setup(on);
            let t0 = Instant::now();
            workload();
            let side = &mut best[usize::from(on)];
            *side = (*side).min(t0.elapsed());
        }
    }
    let [off_t, on_t] = best;
    let factor = on_t.as_secs_f64() / off_t.as_secs_f64().max(1e-9);
    assert!(
        factor <= OVERHEAD_BUDGET,
        "{label} {factor:.2}x exceeds the {OVERHEAD_BUDGET:.2}x budget \
         (on {on_t:?} vs off {off_t:?})"
    );
    factor
}

/// Largest relative drift a measured value may show against its DESIGN.md
/// calibration record: a deliberate cost-model change updates the record in
/// the same commit, anything else drifting further fails the gate.
const CALIBRATION_DRIFT: f64 = 0.25;

/// The `name=value` fields of the DESIGN.md calibration record
/// `calibration: <key> … name=value …`, in record order. Words without `=`
/// (what the record measures) are skipped; surrounding backticks are not
/// part of a value.
///
/// # Panics
///
/// When `design` holds no record for `key`, or a value is not a number.
fn calibration_record<'a>(design: &'a str, key: &str) -> Vec<(&'a str, f64)> {
    let prefix = format!("calibration: {key} ");
    let line = design
        .lines()
        .find_map(|l| l.split_once(prefix.as_str()).map(|(_, rest)| rest))
        .unwrap_or_else(|| panic!("DESIGN.md has no calibration record `{key}`"));
    line.split_whitespace()
        .filter_map(|word| word.trim_matches('`').split_once('='))
        .map(|(name, value)| {
            let v = value.parse().unwrap_or_else(|_| {
                panic!("calibration record `{key}`: field `{name}` value {value:?} is not a number")
            });
            (name, v)
        })
        .collect()
}

/// Gates measured values against the DESIGN.md calibration record `key`,
/// printing one line per field (got, recorded, drift).
///
/// # Panics
///
/// Naming the key, the field, got, recorded and the drift, when a field
/// drifts by more than [`CALIBRATION_DRIFT`]; also when the record is
/// missing or lacks one of the measured fields.
pub fn check_calibration(design: &str, key: &str, got: &[(&str, f64)]) {
    let record = calibration_record(design, key);
    for &(field, value) in got {
        let recorded = record
            .iter()
            .find(|(name, _)| *name == field)
            .map(|&(_, v)| v)
            .unwrap_or_else(|| panic!("calibration record `{key}` has no field `{field}`"));
        let drift = (value - recorded).abs() / recorded;
        println!(
            "calibration {key} {field}: got {value:.0} vs recorded {recorded:.0} (drift {:.1}%)",
            drift * 100.0
        );
        assert!(
            drift <= CALIBRATION_DRIFT,
            "calibration drift: record `{key}` field `{field}` got {value} vs recorded {recorded} \
             (drift {:.1}% > {:.0}%)",
            drift * 100.0,
            CALIBRATION_DRIFT * 100.0
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DESIGN: &str = include_str!("../../../DESIGN.md");

    #[test]
    fn committed_design_holds_both_calibration_records() {
        let names =
            |key| calibration_record(DESIGN, key).into_iter().map(|(n, _)| n).collect::<Vec<_>>();
        assert_eq!(names("sec641"), ["baseline", "colorguard"]);
        assert_eq!(
            names("profile"),
            ["guard", "segue", "segue-loads", "bounds", "bounds-segue", "masking"]
        );
    }

    const RECORD: &str = "text\n    calibration: toy p50 base=100 `other=200`\nmore text";

    #[test]
    fn drift_of_exactly_a_quarter_passes() {
        check_calibration(RECORD, "toy", &[("base", 125.0), ("other", 150.0)]);
        check_calibration(RECORD, "toy", &[("base", 75.0), ("other", 250.0)]);
    }

    #[test]
    #[should_panic(expected = "field `other` got 252 vs recorded 200 (drift 26.0% > 25%)")]
    fn drift_of_26_percent_panics() {
        check_calibration(RECORD, "toy", &[("base", 100.0), ("other", 252.0)]);
    }

    #[test]
    #[should_panic(expected = "no calibration record `sec642`")]
    fn missing_record_panics() {
        check_calibration(DESIGN, "sec642", &[("baseline", 145.0)]);
    }

    #[test]
    #[should_panic(expected = "has no field `colorguard`")]
    fn record_missing_a_field_panics() {
        let without = "calibration: sec641 transition_cycles p50 baseline=145";
        check_calibration(without, "sec641", &[("baseline", 145.0), ("colorguard", 239.0)]);
    }

    #[test]
    fn strategies_agree_on_fast_workloads() {
        let sg = sfi_workloads::sightglass();
        let fib = sg.iter().find(|w| w.name == "fib2").expect("corpus has fib2");
        let nested = sg.iter().find(|w| w.name == "nestedloop").expect("corpus has nestedloop");
        for w in [fib, nested] {
            let native = measure(w, Strategy::Native, false);
            let guard = measure(w, Strategy::GuardRegion, false);
            let segue = measure(w, Strategy::Segue, false);
            assert_eq!(native.result, guard.result, "{}", w.name);
            assert_eq!(guard.result, segue.result, "{}", w.name);
            assert!(native.cycles > 0.0);
        }
    }

    #[test]
    fn segue_beats_guard_on_matrix() {
        let sg = sfi_workloads::sightglass();
        let matrix = sg.iter().find(|w| w.name == "matrix").expect("corpus has matrix");
        let native = measure(matrix, Strategy::Native, false);
        let guard = measure(matrix, Strategy::GuardRegion, false);
        let segue = measure(matrix, Strategy::Segue, false);
        assert_eq!(guard.result, segue.result);
        assert!(guard.cycles > native.cycles, "SFI costs something");
        assert!(segue.cycles < guard.cycles, "Segue reduces the cost");
    }
}
