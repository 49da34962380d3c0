//! A self-contained execution harness for compiled modules.
//!
//! Sizes a flat memory for the runtime regions (header, globals, table,
//! stack) and the linear memory at `layout.heap_base`, enters the code
//! through the [`abi`](crate::abi), and runs an export on the
//! [`sfi_x86::emu::Machine`]. Out-of-bounds accesses beyond the flat memory
//! (which ends exactly at the heap's guard frontier) fault — standing in
//! for guard-region traps.
//!
//! This harness is what the differential tests and the single-sandbox
//! benchmarks use; multi-sandbox execution (ColorGuard) lives in
//! `sfi-runtime` on top of `sfi-vm`.

use sfi_wasm::PAGE_SIZE;
use sfi_x86::cost::RunStats;
use sfi_x86::emu::{FlatMemory, HostBytes, Image, Machine, SpecConfig, SpecError};
use sfi_x86::{Gpr, Trap};

use crate::abi;
use crate::compile::CompiledModule;
use crate::config::{regs, MitigationLevel, Strategy};

/// The outcome of a harness run.
#[derive(Debug, Clone)]
pub struct ExecOutcome {
    /// The export's return value (`%rax`), if the function has a result.
    pub result: Option<u64>,
    /// Emulator counters for the run.
    pub stats: RunStats,
    /// Final linear-memory contents (for differential comparison).
    pub heap: Vec<u8>,
}

/// A harness failure.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ExecError {
    /// No export with that name.
    NoSuchExport(String),
    /// The sandboxed code trapped.
    Trapped(Trap),
}

impl core::fmt::Display for ExecError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ExecError::NoSuchExport(n) => write!(f, "no export named {n}"),
            ExecError::Trapped(t) => write!(f, "trap: {t}"),
        }
    }
}

impl std::error::Error for ExecError {}

/// Runs `export(args)` on a fresh machine and flat memory.
pub fn execute_export(
    cm: &CompiledModule,
    export: &str,
    args: &[u64],
) -> Result<ExecOutcome, ExecError> {
    let mut machine = Machine::new();
    execute_export_on(cm, export, args, &mut machine)
}

/// Runs `export(args)` on the given machine (lets callers reuse warmed
/// caches or a tuned cost model).
pub fn execute_export_on(
    cm: &CompiledModule,
    export: &str,
    args: &[u64],
    machine: &mut Machine,
) -> Result<ExecOutcome, ExecError> {
    let entry = cm
        .export_entry(export)
        .ok_or_else(|| ExecError::NoSuchExport(export.to_owned()))?;
    let has_result = cm.func_has_result[cm.exports[export] as usize];
    let (stats, mem) =
        run_flat(cm, &cm.image, entry, &cm.table_bytes, regs::HEAP_BASE, args, machine)
            .map_err(ExecError::Trapped)?;
    let heap_base = cm.config.layout.heap_base;
    let mut heap = vec![0; mem.size() - heap_base as usize];
    mem.read_unchecked(heap_base, &mut heap).expect("the flat memory ends at or past the heap");
    Ok(ExecOutcome { result: has_result.then(|| machine.gpr(regs::RET)), stats, heap })
}

/// The flat runner: enters `image` at `entry` through the [`abi`] on a
/// fresh flat memory sized for `cm`, with `table` as the indirect-call
/// table and `base_reg` also holding the heap base. Returns the run
/// counters and the final memory. For guard-based layouts the memory ends
/// exactly at the heap end, so anything past it faults like a guard region
/// (Native layouts put the runtime regions above the heap). It cannot
/// grow: `memory.grow` past it reports −1, like growth past the maximum.
/// The memory allocates only the 4 KiB pages the run writes, so a call
/// costs what it touches, not the 1 MiB below the heap.
pub fn run_flat(
    cm: &CompiledModule,
    image: &Image,
    entry: usize,
    table: &[u8],
    base_reg: Gpr,
    args: &[u64],
    machine: &mut Machine,
) -> Result<(RunStats, FlatMemory), Trap> {
    let (heap_base, regions) = (cm.config.layout.heap_base, cm.config.regions);
    let mem_bytes = u64::from(cm.mem_min_pages) * PAGE_SIZE;
    let flat_size = (heap_base + mem_bytes)
        .max(u64::from(regions.stack_top))
        .max(u64::from(regions.table_base) + table.len() as u64);
    let mut mem = FlatMemory::new(flat_size as usize);
    let sandbox = abi::Sandbox {
        regions,
        heap_base,
        page_limit: ((flat_size - heap_base) / PAGE_SIZE).min(u64::from(cm.mem_max_pages)),
    };
    abi::install_data(&mut mem, heap_base, &cm.data)?;
    sandbox.enter(&mut machine.regs, &mut mem, cm.mem_min_pages, &cm.globals_init, table, args)?;
    machine.set_gpr(base_reg, heap_base);
    let stats = machine.run_image_from(image, entry, &mut mem, &mut |id, regs_, bus| {
        sandbox
            .builtin(id, regs_, bus)
            .unwrap_or(Err(Trap::BadControlFlow { target: u64::from(id) }))
    })?;
    Ok((stats, mem))
}

/// Compares a compiled strategy against the reference interpreter on one
/// invocation: return values and final heap contents must agree.
///
/// Panics with a descriptive message on divergence — this is the
/// differential-testing entry point.
pub fn assert_matches_interpreter(
    module: &sfi_wasm::Module,
    cm: &CompiledModule,
    export: &str,
    args: &[u64],
) {
    let mut interp = sfi_wasm::interp::Interpreter::new(module).expect("instantiate");
    let expected = interp.invoke_export(export, args);
    let actual = execute_export(cm, export, args);
    match (&expected, &actual) {
        (Ok(exp), Ok(act)) => {
            if let Some(e) = exp {
                assert_eq!(
                    Some(*e),
                    act.result.map(|r| if is_probably_i32(*e) { r & 0xFFFF_FFFF } else { r }),
                    "return value diverged for {export}({args:?}) under {}",
                    cm.config.strategy
                );
            }
            assert_eq!(
                interp.memory.len(),
                act.heap.len(),
                "heap size diverged under {}",
                cm.config.strategy
            );
            assert_eq!(
                interp.memory, act.heap,
                "heap contents diverged for {export}({args:?}) under {}",
                cm.config.strategy
            );
        }
        (Err(_), Err(_)) => {} // both trapped: good enough (kinds differ by design)
        (e, a) => panic!(
            "divergence for {export}({args:?}) under {}: interpreter {e:?}, compiled {a:?}",
            cm.config.strategy
        ),
    }
}

fn is_probably_i32(v: u64) -> bool {
    v <= u64::from(u32::MAX)
}

/// Convenience: run a strategy sweep and confirm every strategy (except the
/// wrap-divergent `Masking` on trapping inputs) matches the interpreter —
/// at both the baseline and the optimizing tier.
pub fn differential_check(module: &sfi_wasm::Module, export: &str, args: &[u64]) {
    for strategy in [
        Strategy::Native,
        Strategy::GuardRegion,
        Strategy::Segue,
        Strategy::SegueLoads,
        Strategy::BoundsCheck,
        Strategy::BoundsCheckSegue,
    ] {
        let baseline = crate::config::CompilerConfig::for_strategy(strategy);
        for config in [baseline.clone(), baseline.clone().optimized()] {
            let cm = crate::compile::compile(module, &config).unwrap_or_else(|e| {
                panic!("compile under {strategy} ({}): {e}", config.opt_level.name())
            });
            assert_matches_interpreter(module, &cm, export, args);
        }
    }
}

// ---------------------------------------------------------------------------
// Speculative execution (DESIGN.md §16)
// ---------------------------------------------------------------------------

/// Distance from `heap_base` to the synthetic secret region the harness
/// plants for leak detection. Far enough past the guard frontier that no
/// component-masked address (`8 × (mem_size − 1)` plus any emitted
/// displacement) can reach it, yet within 32-bit-index reach so an
/// *unmasked* transient access can.
const SECRET_OFFSET: u64 = 0x1000_0000;

/// Size of the synthetic secret region.
const SECRET_SIZE: u64 = 0x1000;

/// A speculation-setup failure.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SpecSetupError {
    /// The window/secret parameters were rejected by the emulator.
    Config(SpecError),
    /// The requested secret region overlaps architecturally mapped memory
    /// (sandbox heap, guard, or runtime regions): taint tracking on a
    /// region the program may legitimately touch would flag every run.
    SecretOverlapsSandbox {
        /// Requested region start.
        lo: u64,
        /// Requested region end (exclusive).
        hi: u64,
        /// First address past all architecturally mapped regions.
        frontier: u64,
    },
}

impl core::fmt::Display for SpecSetupError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SpecSetupError::Config(e) => write!(f, "{e}"),
            SpecSetupError::SecretOverlapsSandbox { lo, hi, frontier } => write!(
                f,
                "secret region [{lo:#x}, {hi:#x}) overlaps mapped memory (frontier {frontier:#x})"
            ),
        }
    }
}

impl std::error::Error for SpecSetupError {}

impl From<SpecError> for SpecSetupError {
    fn from(e: SpecError) -> SpecSetupError {
        SpecSetupError::Config(e)
    }
}

/// First address past everything the module may architecturally touch:
/// heap + guard, and all runtime regions.
fn mapped_frontier(cm: &CompiledModule) -> u64 {
    let layout = cm.config.layout;
    let regions = cm.config.regions;
    (layout.heap_base + layout.mem_size + layout.guard_size)
        .max(u64::from(regions.stack_top))
        .max(u64::from(regions.table_base) + cm.table_bytes.len() as u64)
        .max(u64::from(regions.globals_base) + 8 * cm.globals_init.len() as u64)
}

/// Builds a [`SpecConfig`] with an explicit secret placement, validating
/// both the emulator parameters (window, non-empty region) and that the
/// secret sits wholly outside architecturally mapped memory.
pub fn spec_config_with_secret(
    cm: &CompiledModule,
    window: u32,
    secret_lo: u64,
    secret_hi: u64,
) -> Result<SpecConfig, SpecSetupError> {
    let cfg = SpecConfig::new(window, secret_lo, secret_hi)?;
    let frontier = mapped_frontier(cm);
    if secret_lo < frontier {
        return Err(SpecSetupError::SecretOverlapsSandbox { lo: secret_lo, hi: secret_hi, frontier });
    }
    Ok(cfg)
}

/// The harness's default speculation setup for a compiled module: a
/// ROB-depth window ([`SpecConfig::DEFAULT_WINDOW`]) and a synthetic
/// secret planted [`SECRET_OFFSET`] past the heap base.
pub fn spec_config_for(cm: &CompiledModule) -> Result<SpecConfig, SpecSetupError> {
    let lo = cm.config.layout.heap_base + SECRET_OFFSET;
    spec_config_with_secret(cm, SpecConfig::DEFAULT_WINDOW, lo, lo + SECRET_SIZE)
}

/// Runs `export(args)` with the bounded speculation window enabled.
/// Architectural results are identical to [`execute_export`]; the returned
/// stats additionally carry `spec_flushes` / `spec_uops` / `spec_leaks`.
pub fn execute_speculative(
    cm: &CompiledModule,
    export: &str,
    args: &[u64],
    spec: SpecConfig,
) -> Result<ExecOutcome, ExecError> {
    let mut machine = Machine::new();
    machine.enable_speculation(spec);
    execute_export_on(cm, export, args, &mut machine)
}

/// Sweeps every protected strategy × mitigation level over one module
/// under the speculative emulator and asserts the declared-safe contract:
///
/// - every cell where [`MitigationLevel::declared_safe`] holds reports
///   **zero** speculative leaks;
/// - every mitigated run returns the same architectural result as the
///   unmitigated (`None`) run — hardening never changes semantics;
/// - the exact-sum cycle-attribution invariant holds in every cell.
///
/// Returns the per-cell leak counts keyed `(strategy, level)` so callers
/// (tests, the `figX_spectre` bench) can additionally inspect the *unsafe*
/// cells, e.g. to assert a known-leaky gadget does leak under unmitigated
/// Segue.
pub fn speculative_check(
    module: &sfi_wasm::Module,
    export: &str,
    args: &[u64],
) -> Vec<(Strategy, MitigationLevel, u64)> {
    let mut cells = Vec::new();
    for strategy in Strategy::ALL {
        if strategy == Strategy::Native {
            continue; // no sandbox, no speculation contract
        }
        let mut baseline_result = None;
        for level in MitigationLevel::ALL {
            let config = crate::config::CompilerConfig::for_strategy(strategy).mitigated(level);
            let cm = crate::compile::compile(module, &config)
                .unwrap_or_else(|e| panic!("compile under {strategy}/{level}: {e}"));
            let spec = spec_config_for(&cm).expect("default secret placement is valid");
            let out = execute_speculative(&cm, export, args, spec)
                .unwrap_or_else(|e| panic!("run under {strategy}/{level}: {e}"));
            assert_eq!(
                out.stats.cycles,
                out.stats.attributed_cycles(),
                "exact-sum attribution must survive speculation under {strategy}/{level}"
            );
            match &baseline_result {
                None => baseline_result = Some(out.result),
                Some(base) => assert_eq!(
                    *base, out.result,
                    "mitigation {level} changed the architectural result under {strategy}"
                ),
            }
            if level.declared_safe(strategy) {
                assert_eq!(
                    out.stats.spec_leaks, 0,
                    "declared-safe cell {strategy}/{level} leaked for {export}({args:?})"
                );
            }
            cells.push((strategy, level, out.stats.spec_leaks));
        }
    }
    cells
}
