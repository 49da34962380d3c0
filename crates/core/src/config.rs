//! Compiler configuration: SFI strategies and the memory-layout contract.

use sfi_x86::Gpr;

/// The SFI strategy applied to linear-memory accesses.
///
/// These are the schemes the paper compares:
///
/// | Strategy | Heap-base addition | Bounds enforcement | Reserved GPR |
/// |---|---|---|---|
/// | [`Strategy::Native`] | folded into displacements | none (uninstrumented) | none |
/// | [`Strategy::GuardRegion`] | explicit, via reserved GPR | guard pages | yes |
/// | [`Strategy::Segue`] | by hardware, via `%gs` | guard pages | none |
/// | [`Strategy::SegueLoads`] | `%gs` for loads only | guard pages | yes (for stores) |
/// | [`Strategy::BoundsCheck`] | explicit, via reserved GPR | `cmp`+`ja` per access | yes |
/// | [`Strategy::BoundsCheckSegue`] | by hardware, via `%gs` | `cmp`+`ja` per access | none |
/// | [`Strategy::Masking`] | explicit, via reserved GPR | index masking (wraps!) | yes |
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Strategy {
    /// Uninstrumented "native" compilation: the linear-memory base is a
    /// compile-time constant folded into displacements, address arithmetic
    /// is performed in 64 bits, and no protection is enforced. This is the
    /// normalization baseline for every figure.
    Native,
    /// The production Wasm baseline: a reserved GPR holds the heap base,
    /// 32-bit address expressions are materialized with `lea`/`mov`
    /// truncations, and out-of-bounds accesses land in guard regions.
    GuardRegion,
    /// Segue (§3.1): the heap base lives in `%gs`; memory operations use
    /// segment-relative addressing with the address-size override providing
    /// free 32-bit truncation. No reserved GPR, usually one instruction per
    /// access.
    Segue,
    /// WAMR's tunable variant (§4.2/§6.2): Segue addressing for loads,
    /// baseline addressing for stores. Keeps the reserved GPR (stores still
    /// need it) but avoids store-side vectorizer interactions.
    SegueLoads,
    /// Explicit bounds checks (`cmp`+`ja ud2`) with baseline addressing —
    /// what engines use for Memory64 or tiny guard regions.
    BoundsCheck,
    /// Explicit bounds checks with Segue addressing — the paper's "Segue on
    /// engines with explicit bounds checks eliminates 25.2% of overhead"
    /// configuration.
    BoundsCheckSegue,
    /// Classic Wahbe-style masking: `and` the index with a power-of-two
    /// mask. Out-of-bounds accesses *wrap around inside the sandbox* rather
    /// than trapping (the paper's footnote 1) — isolation holds, Wasm
    /// semantics do not.
    Masking,
}

impl Strategy {
    /// All strategies, for sweeps.
    pub const ALL: [Strategy; 7] = [
        Strategy::Native,
        Strategy::GuardRegion,
        Strategy::Segue,
        Strategy::SegueLoads,
        Strategy::BoundsCheck,
        Strategy::BoundsCheckSegue,
        Strategy::Masking,
    ];

    /// Whether this strategy reserves a general-purpose register for the
    /// heap base.
    pub fn reserves_heap_gpr(self) -> bool {
        matches!(
            self,
            Strategy::GuardRegion
                | Strategy::SegueLoads
                | Strategy::BoundsCheck
                | Strategy::Masking
        )
    }

    /// Whether loads use `%gs` segment addressing.
    pub fn segue_loads(self) -> bool {
        matches!(self, Strategy::Segue | Strategy::SegueLoads | Strategy::BoundsCheckSegue)
    }

    /// Whether stores use `%gs` segment addressing.
    pub fn segue_stores(self) -> bool {
        matches!(self, Strategy::Segue | Strategy::BoundsCheckSegue)
    }

    /// Whether explicit bounds checks are emitted.
    pub fn bounds_checks(self) -> bool {
        matches!(self, Strategy::BoundsCheck | Strategy::BoundsCheckSegue)
    }

    /// Whether accesses are masked.
    pub fn masks(self) -> bool {
        self == Strategy::Masking
    }

    /// Short display name used in benchmark tables.
    pub fn name(self) -> &'static str {
        match self {
            Strategy::Native => "native",
            Strategy::GuardRegion => "guard",
            Strategy::Segue => "segue",
            Strategy::SegueLoads => "segue-loads",
            Strategy::BoundsCheck => "bounds",
            Strategy::BoundsCheckSegue => "bounds-segue",
            Strategy::Masking => "masking",
        }
    }
}

impl core::fmt::Display for Strategy {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.name())
    }
}

/// The memory-layout contract between the allocator/runtime and the
/// compiler.
///
/// This mirrors the Wasmtime pooling-allocator contract that ColorGuard had
/// to preserve (§5): the compiler elides bounds checks *because* the runtime
/// promises that `[heap_base, heap_base + mem_size)` is the sandbox memory
/// and at least `guard_size` bytes beyond it will fault. If the runtime
/// breaks the promise, isolation breaks — which is why `sfi-pool` verifies
/// its layout computation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemLayout {
    /// Virtual address of the start of linear memory. Must be known only to
    /// the runtime (the compiler receives it in `%gs` or the reserved GPR);
    /// `Strategy::Native` is the exception, folding it into displacements.
    pub heap_base: u64,
    /// Linear-memory size in bytes (a multiple of the Wasm page size).
    pub mem_size: u64,
    /// Guard bytes guaranteed to fault after the linear memory.
    pub guard_size: u64,
}

impl MemLayout {
    /// A small test layout: 64 KiB memory at 1 MiB with a 64 KiB guard.
    pub fn small_test() -> MemLayout {
        MemLayout { heap_base: 0x10_0000, mem_size: 0x1_0000, guard_size: 0x1_0000 }
    }

    /// The classic production layout: 4 GiB memory + 4 GiB guard.
    pub fn classic(heap_base: u64) -> MemLayout {
        MemLayout { heap_base, mem_size: 4 << 30, guard_size: 4 << 30 }
    }
}

/// Addresses of runtime-owned (non-sandbox) regions the compiled code
/// touches: globals, the indirect-call table, and the native stack. All must
/// fit in 31 bits so they can be encoded as absolute displacements.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuntimeRegions {
    /// Base of the globals array (8 bytes per global).
    pub globals_base: u32,
    /// Base of the indirect-call table (8 bytes per entry:
    /// `[sig_id: u32][entry_inst: u32]`).
    pub table_base: u32,
    /// Base of the runtime header (`[mem_pages: u32]` at offset 0,
    /// `[heap_base: u64]` at offset 8 for the segment-entry protocol).
    pub header_base: u32,
    /// Lowest valid stack address (the stack-overflow check limit).
    pub stack_limit: u32,
    /// Initial `%rsp` (top of the native stack region).
    pub stack_top: u32,
}

impl RuntimeRegions {
    /// Default test layout below 1 MiB: globals at 0x8000, table at 0xA000,
    /// stack in [0x20000, 0x80000).
    pub fn small_test() -> RuntimeRegions {
        RuntimeRegions {
            globals_base: 0x8000,
            table_base: 0xA000,
            header_base: 0x7000,
            stack_limit: 0x2_0000,
            stack_top: 0x8_0000,
        }
    }
}

/// The compilation tier.
///
/// [`OptLevel::Baseline`] is the single-pass compiler unchanged — cold
/// spawns pay exactly the codegen they always did, and its output is
/// byte-identical to what this crate produced before tiering existed.
/// [`OptLevel::Optimized`] additionally runs the [`crate::opt`] pipeline
/// (constant folding, redundant truncation/bounds-check elimination,
/// Segue-aware addressing fusion) and the widened register allocator that
/// exploits the GPR Segue frees. The two tiers must be *observationally*
/// identical (the differential-equivalence gate); they are deliberately not
/// byte-identical.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum OptLevel {
    /// Single-pass baseline codegen (the cold-spawn tier).
    #[default]
    Baseline,
    /// Baseline codegen followed by the optimizing pass pipeline and the
    /// widened local register allocation (the hot-module tier).
    Optimized,
}

impl OptLevel {
    /// Stable name, used in cache fingerprints and telemetry labels.
    pub fn name(self) -> &'static str {
        match self {
            OptLevel::Baseline => "baseline",
            OptLevel::Optimized => "optimized",
        }
    }
}

impl core::fmt::Display for OptLevel {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.name())
    }
}

/// Spectre mitigation applied on top of the SFI strategy (DESIGN.md §16).
///
/// Architectural SFI bounds do not constrain *transient* execution: a
/// mispredicted bounds check still runs the out-of-bounds load far enough
/// to leave a secret-dependent cache footprint. Each level here is a
/// label-stable post-optimization pass whose inserted instructions carry
/// [`sfi_x86::Provenance::SpecMitigation`], so the §14 profiler attributes
/// their cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum MitigationLevel {
    /// No speculation hardening (the architectural-only contract every
    /// strategy shipped with before §16).
    #[default]
    None,
    /// An `lfence` at every conditional-branch edge (both fall-through and
    /// target) and every function entry: no speculation window survives a
    /// control-flow decision. Strongest and costliest — the per-branch
    /// pipeline drain is the price.
    Lfence,
    /// Speculative load hardening: after each `cmp`+`ja`-to-trap bounds
    /// check, a predicated `cmov` zeroes the checked index on the
    /// should-have-trapped path, so the transient load reads index 0
    /// instead of the attacker's offset. Cheap (one `cmov` per check) but
    /// only hardens explicitly bounds-checked accesses.
    Slh,
    /// Strengthened index masking: an `and index, mem_size-1` immediately
    /// before every sandbox memory operand. The mask executes transiently
    /// too (it is plain data flow, not a prediction), clamping wrong-path
    /// addresses into the sandbox — Spectre-robust for every strategy, at
    /// one ALU µop per access.
    IndexMask,
}

impl MitigationLevel {
    /// All levels, for matrix sweeps.
    pub const ALL: [MitigationLevel; 4] = [
        MitigationLevel::None,
        MitigationLevel::Lfence,
        MitigationLevel::Slh,
        MitigationLevel::IndexMask,
    ];

    /// Stable name, used in cache fingerprints, telemetry labels and bench
    /// artifacts.
    pub fn name(self) -> &'static str {
        match self {
            MitigationLevel::None => "none",
            MitigationLevel::Lfence => "lfence",
            MitigationLevel::Slh => "slh",
            MitigationLevel::IndexMask => "index-mask",
        }
    }

    /// Whether `strategy` compiled at this level is *declared safe* against
    /// the speculative-leak classes the emulator models. The
    /// `speculative_check` harness and the `figX_spectre --check` gate
    /// enforce that every declared-safe cell measures zero leaks; DESIGN.md
    /// §16 documents the reasoning per cell.
    pub fn declared_safe(self, strategy: Strategy) -> bool {
        // Native sandboxes nothing: no strategy×level cell containing it is
        // ever declared safe, whatever the mitigation does.
        if strategy == Strategy::Native {
            return false;
        }
        match self {
            // Unmitigated: only Masking survives — its `and`-wraps are
            // ordinary data flow and execute transiently too. Everything
            // else relies on a predicted-around check or a guard fault that
            // transient execution ignores. (Native is "safe" only in the
            // vacuous sense that it sandboxes nothing; it is *not* declared
            // safe.)
            MitigationLevel::None => strategy.masks(),
            // A fence after every branch edge closes every window we model,
            // for every strategy.
            MitigationLevel::Lfence => true,
            // SLH hardens the bounds-checked strategies (the cmov is glued
            // to the check) and is vacuously strong where masking already
            // wraps; guard-region strategies keep their unchecked loads.
            MitigationLevel::Slh => strategy.bounds_checks() || strategy.masks(),
            // The inserted mask clamps every sandbox operand transiently,
            // regardless of strategy.
            MitigationLevel::IndexMask => true,
        }
    }
}

impl core::fmt::Display for MitigationLevel {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.name())
    }
}

/// Full compiler configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct CompilerConfig {
    /// The SFI strategy.
    pub strategy: Strategy,
    /// The compilation tier (defaults to [`OptLevel::Baseline`]).
    pub opt_level: OptLevel,
    /// Run the WAMR-style store-vectorization pass (§4.2).
    pub vectorize: bool,
    /// Emit a stack-overflow check in every prologue (on for sandboxed
    /// strategies, off for native).
    pub stack_check: bool,
    /// The memory-layout contract.
    pub layout: MemLayout,
    /// Runtime-owned regions.
    pub regions: RuntimeRegions,
    /// Reserve `%r14`/`%r10` for a downstream LFI rewriter (the moral
    /// equivalent of building with `-ffixed-r14`): the generated code never
    /// touches them, so the rewriter can use them for the sandbox base and
    /// materialized offsets.
    pub lfi_reserved_regs: bool,
    /// Wasm2c's §4.1 design: *exported* (module-entry) functions set the
    /// segment base themselves in their prologue (loading it from the
    /// runtime header), so embedders never track it; internal calls use the
    /// direct entry points and elide the set. Off by default — the
    /// `sfi-runtime` embedder sets the base during its transition instead.
    pub segment_entry_protocol: bool,
    /// Spectre mitigation pass applied after optimization (defaults to
    /// [`MitigationLevel::None`]).
    pub mitigation: MitigationLevel,
}

impl CompilerConfig {
    /// A configuration for `strategy` with small test regions.
    pub fn for_strategy(strategy: Strategy) -> CompilerConfig {
        CompilerConfig {
            strategy,
            opt_level: OptLevel::Baseline,
            vectorize: false,
            stack_check: strategy != Strategy::Native,
            layout: MemLayout::small_test(),
            regions: RuntimeRegions::small_test(),
            lfi_reserved_regs: false,
            segment_entry_protocol: false,
            mitigation: MitigationLevel::None,
        }
    }

    /// This configuration at [`OptLevel::Optimized`] — the hot-module tier
    /// the runtime promotes to.
    #[must_use]
    pub fn optimized(mut self) -> CompilerConfig {
        self.opt_level = OptLevel::Optimized;
        self
    }

    /// This configuration hardened at `level`.
    #[must_use]
    pub fn mitigated(mut self, level: MitigationLevel) -> CompilerConfig {
        self.mitigation = level;
        self
    }
}

/// The register conventions used by generated code.
pub mod regs {
    use super::Gpr;

    /// The reserved heap-base register for non-Segue SFI strategies.
    pub const HEAP_BASE: Gpr = Gpr::R15;
    /// Frame pointer.
    pub const FRAME: Gpr = Gpr::Rbp;
    /// Return-value register.
    pub const RET: Gpr = Gpr::Rax;
    /// Scratch registers (also the implicit div/shift registers).
    pub const SCRATCH: [Gpr; 3] = [Gpr::Rax, Gpr::Rdx, Gpr::Rcx];
    /// Registers available for the Wasm operand stack.
    pub const OPERAND_POOL: [Gpr; 7] =
        [Gpr::Rbx, Gpr::Rsi, Gpr::Rdi, Gpr::R8, Gpr::R9, Gpr::R10, Gpr::R11];
    /// Registers available for pinning locals, in assignment order. `R15`
    /// is only usable when the strategy does not reserve it.
    pub const LOCAL_POOL: [Gpr; 4] = [Gpr::R12, Gpr::R13, Gpr::R14, Gpr::R15];
}

/// Per-function code-generation statistics (feeds Table 2 and sanity
/// assertions in tests).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FuncStats {
    /// Instructions emitted.
    pub insts: usize,
    /// Code bytes (after encoding).
    pub bytes: usize,
    /// Linear-memory loads emitted.
    pub heap_loads: usize,
    /// Linear-memory stores emitted.
    pub heap_stores: usize,
    /// Extra instructions emitted purely for SFI (truncations, `lea`
    /// materializations forced by the reserved base, bounds checks, masks).
    pub sfi_overhead_insts: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strategy_properties() {
        assert!(!Strategy::Native.reserves_heap_gpr());
        assert!(Strategy::GuardRegion.reserves_heap_gpr());
        assert!(!Strategy::Segue.reserves_heap_gpr());
        assert!(Strategy::SegueLoads.reserves_heap_gpr(), "stores still need the base");
        assert!(Strategy::Segue.segue_loads() && Strategy::Segue.segue_stores());
        assert!(Strategy::SegueLoads.segue_loads() && !Strategy::SegueLoads.segue_stores());
        assert!(Strategy::BoundsCheck.bounds_checks());
        assert!(Strategy::Masking.masks());
        for s in Strategy::ALL {
            assert!(!s.name().is_empty());
        }
    }

    #[test]
    fn declared_safe_matrix_shape() {
        use MitigationLevel as M;
        // Native is never a safe cell.
        for level in M::ALL {
            assert!(!level.declared_safe(Strategy::Native), "{level}");
        }
        // Lfence and IndexMask harden every protected strategy.
        for s in Strategy::ALL.into_iter().filter(|&s| s != Strategy::Native) {
            assert!(M::Lfence.declared_safe(s), "{s}");
            assert!(M::IndexMask.declared_safe(s), "{s}");
        }
        // Unmitigated, only masking survives speculation.
        assert!(M::None.declared_safe(Strategy::Masking));
        assert!(!M::None.declared_safe(Strategy::Segue));
        assert!(!M::None.declared_safe(Strategy::GuardRegion));
        // SLH needs a check to predicate on (or masking's built-in wrap).
        assert!(M::Slh.declared_safe(Strategy::BoundsCheck));
        assert!(M::Slh.declared_safe(Strategy::BoundsCheckSegue));
        assert!(M::Slh.declared_safe(Strategy::Masking));
        assert!(!M::Slh.declared_safe(Strategy::Segue));
        assert!(!M::Slh.declared_safe(Strategy::SegueLoads));
        // Names are stable and distinct (telemetry label contract).
        let names: std::collections::BTreeSet<_> = M::ALL.iter().map(|l| l.name()).collect();
        assert_eq!(names.len(), M::ALL.len());
    }

    #[test]
    fn pools_are_disjoint() {
        use regs::*;
        for o in OPERAND_POOL {
            assert!(!LOCAL_POOL.contains(&o));
            assert!(!SCRATCH.contains(&o));
            assert_ne!(o, FRAME);
            assert_ne!(o, Gpr::Rsp);
        }
        for l in LOCAL_POOL {
            assert!(!SCRATCH.contains(&l));
        }
        assert!(LOCAL_POOL.contains(&HEAP_BASE), "heap base comes out of the local pool");
    }

    #[test]
    fn layouts() {
        let c = MemLayout::classic(0x8000_0000);
        assert_eq!(c.mem_size, 4 << 30);
        let t = MemLayout::small_test();
        assert!(t.heap_base >= u64::from(RuntimeRegions::small_test().stack_top));
    }
}
