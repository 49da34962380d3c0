//! `corpus_exec`: the Figure 3/4/5 path. One op runs the `run` export of
//! one compiled (kernel, configuration) cell through
//! `harness::execute_export`. The cells are every kernel of SPEC 2006,
//! Sightglass, PolybenchC and the two Firefox workloads under
//! GuardRegion, Segue, BoundsCheck and optimized Segue, compiled during
//! set-up. The stream visits every cell once per pass, in an order drawn
//! from the seed, so every run does the same work and only the order
//! varies; a timed run ends on a pass boundary.

use sfi_core::{compile, CompiledModule, Strategy};
use sfi_workloads::Workload as Kernel;

use crate::bench::Workload;
use crate::oracle::{check_exec, Failure, Reference};
use crate::rng::{Digest, Rng};
use crate::trace::{Layer, Tracer};

/// The four configurations of every kernel: (strategy, optimizing tier).
const CONFIGS: [(Strategy, bool); 4] = [
    (Strategy::GuardRegion, false),
    (Strategy::Segue, false),
    (Strategy::BoundsCheck, false),
    (Strategy::Segue, true),
];

/// The kernels: the full suites, or three short ones for quick runs.
fn kernels(quick: bool) -> Vec<Kernel> {
    let mut all = sfi_workloads::spec2006();
    all.extend(sfi_workloads::sightglass());
    all.extend(sfi_workloads::polybench());
    all.push(sfi_workloads::firefox_font());
    all.push(sfi_workloads::firefox_xml());
    if quick {
        all.retain(|k| matches!(k.name, "strchr" | "2mm" | "matrix"));
    }
    all
}

struct Cell {
    kernel: usize,
    name: String,
    cm: CompiledModule,
    /// Modeled cycles of the cell's first run; every later run must repeat
    /// them exactly.
    cycles: Option<f64>,
}

/// The `corpus_exec` workload.
pub struct CorpusExec {
    seed: u64,
    cells: Vec<Cell>,
    order: Vec<usize>,
    guest_insts: u64,
    last_insts: u64,
}

/// The op stream: which cell op `i` runs.
fn pass_order(seed: u64, pass: u64, cells: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..cells).collect();
    Rng::new(seed, 0xC0_0000 + pass).shuffle(&mut order);
    order
}

/// Digest of the first `ops` cell choices for `seed`.
pub fn stream_digest(seed: u64, quick: bool, ops: u64) -> u64 {
    let cells = kernels(quick).len() * CONFIGS.len();
    let mut d = Digest::default();
    for i in 0..ops {
        let pass = i / cells as u64;
        d = d.u64(pass_order(seed, pass, cells)[(i % cells as u64) as usize] as u64);
    }
    d.finish()
}

impl Workload for CorpusExec {
    type Refs = Vec<Reference>;

    // 144 ops per pass: p90 leaves 14 samples beyond it.
    const TAIL_PERCENTILE: f64 = 90.0;

    fn references(_seed: u64, quick: bool) -> Vec<Reference> {
        kernels(quick)
            .iter()
            .map(|k| {
                let r = Reference::interpret(&k.module(), "run", &[]);
                Reference {
                    heap: r.heap.to_digest(),
                    ..r
                }
            })
            .collect()
    }

    fn setup(seed: u64, quick: bool, _refs: &Vec<Reference>) -> CorpusExec {
        let mut cells = Vec::new();
        for (ki, k) in kernels(quick).iter().enumerate() {
            let module = k.module();
            for (strategy, optimized) in CONFIGS {
                let mut cfg = sfi_bench::config_for(strategy, module.mem_min_pages, false);
                if optimized {
                    cfg = cfg.optimized();
                }
                let cm = compile(&module, &cfg)
                    .unwrap_or_else(|e| panic!("{} under {strategy}: {e}", k.name));
                let tier = if optimized { "opt" } else { "base" };
                cells.push(Cell {
                    kernel: ki,
                    name: format!("{}/{}/{tier}", k.name, strategy.name()),
                    cm,
                    cycles: None,
                });
            }
        }
        let order = pass_order(seed, 0, cells.len());
        CorpusExec {
            seed,
            cells,
            order,
            guest_insts: 0,
            last_insts: 0,
        }
    }

    fn unit_ops(&self) -> u64 {
        self.cells.len() as u64
    }

    fn op(&mut self, i: u64, refs: &Vec<Reference>, tr: &mut Tracer) -> Result<(), Failure> {
        let n = self.cells.len() as u64;
        if i.is_multiple_of(n) && i > 0 {
            self.order = pass_order(self.seed, i / n, self.cells.len());
        }
        let cell = &mut self.cells[self.order[(i % n) as usize]];
        self.last_insts = 0;
        let out = tr.span(Layer::X86Emu, || {
            sfi_core::harness::execute_export(&cell.cm, "run", &[])
        });
        tr.check(|| check_exec(&cell.name, &refs[cell.kernel], &out))?;
        let Ok(run) = out else { return Ok(()) };
        self.guest_insts += run.stats.insts;
        self.last_insts = run.stats.insts;
        tr.work(Layer::X86Emu, run.stats.insts as f64);
        match cell.cycles {
            None => cell.cycles = Some(run.stats.cycles),
            Some(c) if c.to_bits() == run.stats.cycles.to_bits() => {}
            Some(c) => {
                return Err(Failure::Other {
                    cell: cell.name.clone(),
                    detail: format!("modeled cycles {} on a rerun, {c} before", run.stats.cycles),
                })
            }
        }
        Ok(())
    }

    /// Cells run from a few hundred thousand to twenty million guest
    /// instructions: an op's size is its instruction count.
    fn last_op_weight(&self) -> f64 {
        self.last_insts as f64
    }

    fn counts(&self) -> Vec<(&'static str, f64)> {
        vec![("guest_insts", self.guest_insts as f64)]
    }

    fn exact(&self) -> Vec<(&'static str, &'static str, f64)> {
        // Summed in cell order, so the value is independent of the pass
        // order the seed draws.
        let cycles: f64 = self.cells.iter().filter_map(|c| c.cycles).sum();
        let code: usize = self.cells.iter().map(|c| c.cm.code_size()).sum();
        vec![
            ("modeled_gcycles", "Gcycles", cycles / 1e9),
            ("code_kb", "KiB", code as f64 / 1024.0),
        ]
    }
}
