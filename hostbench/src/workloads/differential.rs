//! `differential`: the lab's equivalence-gate path (`corpus_differential`,
//! `figX_tiers`, `figX_spectre`). Op `i` generates program
//! `genprog::generate(seed << 20 ^ i)` and runs it through 6 strategies ×
//! 2 tiers; each cell compiles, executes on the emulator, runs the
//! interpreter, and compares result and heap. Every 8th op also sweeps
//! `genprog::gadget` through the 5 × 4 strategy × mitigation matrix under
//! the speculative emulator.

use sfi_core::harness::{execute_export, execute_speculative, spec_config_for};
use sfi_core::{compile, CompilerConfig, MitigationLevel, OptLevel, Strategy};
use sfi_workloads::genprog;

use crate::bench::Workload;
use crate::oracle::{check_exec, check_spec_cell, Failure, Reference};
use crate::rng::Digest;
use crate::trace::{Layer, Tracer};

/// The strategies `harness::differential_check` sweeps.
const STRATEGIES: [Strategy; 6] = [
    Strategy::Native,
    Strategy::GuardRegion,
    Strategy::Segue,
    Strategy::SegueLoads,
    Strategy::BoundsCheck,
    Strategy::BoundsCheckSegue,
];

/// The sandboxing strategies of the speculative matrix.
const SPEC_STRATEGIES: [Strategy; 5] = [
    Strategy::GuardRegion,
    Strategy::Segue,
    Strategy::SegueLoads,
    Strategy::BoundsCheck,
    Strategy::BoundsCheckSegue,
];

/// Every how many ops a gadget sweep rides along.
const GADGET_EVERY: u64 = 8;
/// Warm-up ops before measuring (fewer in quick runs).
const WARM_UP: u64 = 32;
const QUICK_WARM_UP: u64 = 2;

/// The generator seed of op `i`.
pub fn program_seed(seed: u64, i: u64) -> u64 {
    seed.wrapping_shl(20) ^ i
}

/// Digest of the first `ops` generated programs (and gadgets) for `seed`.
pub fn stream_digest(seed: u64, ops: u64) -> u64 {
    let mut d = Digest::default();
    for i in 0..ops {
        let p = program_seed(seed, i);
        d = d.bytes(sfi_wasm::print::print(&genprog::generate(p).module()).as_bytes());
        if i.is_multiple_of(GADGET_EVERY) {
            d = d.bytes(sfi_wasm::print::print(&genprog::gadget(p)).as_bytes());
        }
    }
    d.finish()
}

/// The `differential` workload.
pub struct Differential {
    seed: u64,
    counts: Counts,
}

#[derive(Default)]
struct Counts {
    guest_insts: u64,
    cells: u64,
    both_trapped: u64,
    spec_cells: u64,
    spec_uops: u64,
    spec_leaks: u64,
}

impl Differential {
    fn cells(
        &mut self,
        module: &sfi_wasm::Module,
        pseed: u64,
        tr: &mut Tracer,
    ) -> Result<(), Failure> {
        for strategy in STRATEGIES {
            let base = CompilerConfig::for_strategy(strategy);
            for cfg in [base.clone(), base.optimized()] {
                let cell = format!(
                    "genprog {pseed:#x}/{}/{}",
                    strategy.name(),
                    cfg.opt_level.name()
                );
                let layer = match cfg.opt_level {
                    OptLevel::Baseline => Layer::CompileBaseline,
                    OptLevel::Optimized => Layer::CompileOptimized,
                };
                let cm = tr
                    .span(layer, || compile(module, &cfg))
                    .map_err(|e| Failure::Other {
                        cell: cell.clone(),
                        detail: format!("compile: {e}"),
                    })?;
                tr.work(layer, cm.image.program().len() as f64);
                let out = tr.span(Layer::X86Emu, || execute_export(&cm, "run", &[]));
                let reference = tr.span(Layer::WasmInterp, || {
                    Reference::interpret(module, "run", &[])
                });
                self.counts.cells += 1;
                match &out {
                    Ok(run) => {
                        self.counts.guest_insts += run.stats.insts;
                        tr.work(Layer::X86Emu, run.stats.insts as f64);
                    }
                    Err(_) => self.counts.both_trapped += u64::from(reference.result.is_err()),
                }
                tr.check(|| check_exec(&cell, &reference, &out))?;
            }
        }
        Ok(())
    }

    fn gadget(&mut self, pseed: u64, tr: &mut Tracer) -> Result<(), Failure> {
        let module = genprog::gadget(pseed);
        for strategy in SPEC_STRATEGIES {
            let mut first_result = None;
            for level in MitigationLevel::ALL {
                let cell = format!("gadget {pseed:#x}/{}/{}", strategy.name(), level.name());
                let cfg = CompilerConfig::for_strategy(strategy).mitigated(level);
                let cm = tr
                    .span(Layer::CompileMitigated, || compile(&module, &cfg))
                    .map_err(|e| Failure::Other {
                        cell: cell.clone(),
                        detail: format!("compile: {e}"),
                    })?;
                tr.work(Layer::CompileMitigated, cm.image.program().len() as f64);
                let spec = spec_config_for(&cm).map_err(|e| Failure::Other {
                    cell: cell.clone(),
                    detail: e.to_string(),
                })?;
                let out = tr
                    .span(Layer::X86EmuSpec, || {
                        execute_speculative(&cm, "run", &[], spec)
                    })
                    .map_err(|e| Failure::Trap {
                        cell: cell.clone(),
                        detail: format!("gadget trapped: {e}"),
                    })?;
                self.counts.spec_cells += 1;
                self.counts.guest_insts += out.stats.insts;
                self.counts.spec_uops += out.stats.spec_uops;
                self.counts.spec_leaks += out.stats.spec_leaks;
                tr.work(Layer::X86EmuSpec, out.stats.insts as f64);
                tr.check(|| check_spec_cell(&cell, level.declared_safe(strategy), &out.stats))?;
                // Hardening never changes the architectural result.
                let expected = *first_result.get_or_insert(out.result);
                if out.result != expected {
                    return Err(Failure::Result {
                        cell,
                        expected,
                        got: out.result,
                    });
                }
            }
        }
        Ok(())
    }
}

impl Workload for Differential {
    type Refs = ();

    // ≥5,000 ops per default run: p99 leaves ≥50 samples beyond it.
    const TAIL_PERCENTILE: f64 = 99.0;

    fn references(_seed: u64, _quick: bool) {}

    fn setup(seed: u64, _quick: bool, _refs: &()) -> Differential {
        Differential {
            seed,
            counts: Counts::default(),
        }
    }

    fn warm_up_ops(&self, quick: bool) -> u64 {
        if quick {
            QUICK_WARM_UP
        } else {
            WARM_UP
        }
    }

    fn op(&mut self, i: u64, _refs: &(), tr: &mut Tracer) -> Result<(), Failure> {
        let pseed = program_seed(self.seed, i);
        let module = genprog::generate(pseed).module();
        self.cells(&module, pseed, tr)?;
        if i.is_multiple_of(GADGET_EVERY) {
            self.gadget(pseed, tr)?;
        }
        Ok(())
    }

    fn counts(&self) -> Vec<(&'static str, f64)> {
        let c = &self.counts;
        vec![
            ("guest_insts", c.guest_insts as f64),
            ("cells", c.cells as f64),
            ("both_trapped", c.both_trapped as f64),
            ("spec_cells", c.spec_cells as f64),
            ("spec_uops", c.spec_uops as f64),
            ("spec_leaks", c.spec_leaks as f64),
        ]
    }
}
