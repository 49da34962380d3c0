//! The single-pass Wasm → x86-64 SFI compiler.
//!
//! The compiler is a baseline-JIT-style single pass over each function body,
//! keeping the Wasm operand stack in registers with lazy, symbolic address
//! expressions. Laziness is what lets the strategies differ exactly the way
//! Figure 1 of the paper shows:
//!
//! - an `i32.add`/`i32.shl` chain over locals is folded into an *address
//!   shape* (`base + index*scale + disp`) without emitting code;
//! - at the consuming load/store, [`Strategy::Native`] folds the whole shape
//!   into one addressing mode, [`Strategy::Segue`] folds it into one
//!   `gs:`-prefixed, address-size-overridden access, and
//!   [`Strategy::GuardRegion`] must materialize it with a 32-bit `lea`
//!   because the reserved heap-base register occupies the addressing slot;
//! - an `i32.wrap_i64` marks its register "truncation pending": Segue
//!   resolves it for free via the address-size override, the baseline pays a
//!   `mov r32, r32`.

use std::collections::BTreeMap;

use sfi_wasm::{Func, Module, Op, ValType, MAX_PAGES};
use sfi_x86::emu::Image;
use sfi_x86::inst::{AluOp, ShiftAmount, ShiftOp};
use sfi_x86::{Cond, Gpr, Inst, Label, Mem, Program, Provenance, Scale, Width};

use crate::config::{regs, CompilerConfig, FuncStats, OptLevel, Strategy};
use crate::opt::{self, LiveRange, OptStats};

/// Host-call ids for the compiler's built-in runtime helpers (the ids above
/// the module's import space).
pub mod hostcall {
    /// `memory.grow`: one arg (delta pages), returns old size or -1.
    pub const MEMORY_GROW: u32 = 0xFFFF_0000;
    /// `memory.copy`: args (dst, src, len).
    pub const MEMORY_COPY: u32 = 0xFFFF_0001;
    /// `memory.fill`: args (dst, val, len).
    pub const MEMORY_FILL: u32 = 0xFFFF_0002;
}

/// A compilation failure.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CompileError {
    /// The module failed validation first.
    Validation(sfi_wasm::ValidationError),
    /// The function nests deeper / uses more stack than the compiler
    /// supports.
    TooComplex {
        /// Function name.
        func: String,
        /// Explanation.
        what: String,
    },
    /// Encoding the generated program failed (a compiler bug).
    Encode(String),
}

impl core::fmt::Display for CompileError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CompileError::Validation(e) => write!(f, "validation failed: {e}"),
            CompileError::TooComplex { func, what } => write!(f, "function {func}: {what}"),
            CompileError::Encode(e) => write!(f, "encoding failed: {e}"),
        }
    }
}

impl std::error::Error for CompileError {}

impl From<sfi_wasm::ValidationError> for CompileError {
    fn from(e: sfi_wasm::ValidationError) -> Self {
        CompileError::Validation(e)
    }
}

/// The output of [`compile`].
#[derive(Debug, Clone)]
pub struct CompiledModule {
    /// The encoded program (all functions concatenated).
    pub image: Image,
    /// Entry instruction index per function in the index space
    /// (`usize::MAX` for imports, which are host calls).
    pub func_entries: Vec<usize>,
    /// Exported function name → function index.
    pub exports: BTreeMap<String, u32>,
    /// The indirect-call table image: 8 bytes per entry,
    /// `[sig_id: u32][entry_inst: u32]`, to be installed at
    /// `config.regions.table_base`.
    pub table_bytes: Vec<u8>,
    /// Initial global values, to be installed at `globals_base`.
    pub globals_init: Vec<u64>,
    /// Data segments `(heap_offset, bytes)`.
    pub data: Vec<(u32, Vec<u8>)>,
    /// Initial memory pages.
    pub mem_min_pages: u32,
    /// Maximum memory pages: the module's declared maximum, else
    /// [`MAX_PAGES`], the interpreter's rule. A runner caps growth further at
    /// what it can back.
    pub mem_max_pages: u32,
    /// Number of imported functions.
    pub num_imports: u32,
    /// Debug names of the imports, in index order.
    pub import_names: Vec<String>,
    /// Parameter counts of the imports, in index order.
    pub import_arg_counts: Vec<u32>,
    /// Whether each function in the index space returns a value.
    pub func_has_result: Vec<bool>,
    /// Per-defined-function statistics.
    pub func_stats: Vec<FuncStats>,
    /// What the optimizing tier did (all zeros under
    /// [`OptLevel::Baseline`]).
    pub opt_stats: OptStats,
    /// The configuration used.
    pub config: CompilerConfig,
}

impl CompiledModule {
    /// Total code size in bytes.
    pub fn code_size(&self) -> usize {
        self.image.code_size()
    }

    /// Total instructions.
    pub fn inst_count(&self) -> usize {
        self.image.program().len()
    }

    /// Entry instruction index of an export.
    pub fn export_entry(&self, name: &str) -> Option<usize> {
        let idx = *self.exports.get(name)?;
        let e = *self.func_entries.get(idx as usize)?;
        (e != usize::MAX).then_some(e)
    }
}

/// Compiles a validated module under `config`.
pub fn compile(module: &Module, config: &CompilerConfig) -> Result<CompiledModule, CompileError> {
    sfi_wasm::validate(module)?;

    let mut program = Program::new();
    let num_imports = module.imports.len() as u32;
    let mut func_entries = vec![usize::MAX; module.func_space_len() as usize];
    let mut func_labels: Vec<Option<Label>> = vec![None; module.func_space_len() as usize];
    for (i, slot) in func_labels.iter_mut().enumerate() {
        if i >= num_imports as usize {
            *slot = Some(program.fresh_label());
        }
    }

    // Canonical signature ids for call_indirect checking.
    let mut sig_ids: BTreeMap<(Vec<ValType>, Option<ValType>), u32> = BTreeMap::new();
    let mut sig_of = |params: &[ValType], result: Option<ValType>| -> u32 {
        let next = sig_ids.len() as u32;
        *sig_ids.entry((params.to_vec(), result)).or_insert(next)
    };

    let mut func_stats = Vec::with_capacity(module.funcs.len());
    for (i, func) in module.funcs.iter().enumerate() {
        let fidx = num_imports as usize + i;
        let entry_label = func_labels[fidx].expect("defined funcs have labels");
        program.bind(entry_label);
        func_entries[fidx] = program.len();
        let exported = module.exports.values().any(|&e| e == fidx as u32);
        let mut fc = FuncCompiler::new(module, func, config, &func_labels, &mut sig_of);
        let stats = fc.compile(&mut program, exported)?;
        func_stats.push(stats);
    }

    // The optimizing tier runs over the finished program, before
    // vectorization, so that the vectorizer sees the fused/cleaned code.
    // Baseline output is byte-identical to a build without the tier.
    let opt_stats = if config.opt_level == OptLevel::Optimized {
        opt::optimize(&mut program)
    } else {
        OptStats::default()
    };

    if config.vectorize {
        crate::vectorize::vectorize(&mut program, config.strategy);
    }

    // Label-stable removal leaves `nop` slots behind; retag them so the
    // profiler attributes their (small) cost to the rewriting passes
    // rather than to whatever the slot used to hold. Baseline output
    // contains no `nop`s, so this is a no-op there.
    for i in 0..program.len() {
        if matches!(program.insts()[i], Inst::Nop) {
            program.set_prov(i, Provenance::OptInserted);
        }
    }

    // Spectre hardening runs last, over the final instruction stream, so
    // fences/masks cover vectorized and optimized code alike. Insertion
    // shifts instruction indices; labels stay bound to their instructions,
    // so function entries are recomputed from the entry labels afterwards.
    if opt::mitigate::run(&mut program, config) > 0 {
        for (fidx, label) in func_labels.iter().enumerate() {
            if let Some(l) = label {
                if func_entries[fidx] != usize::MAX {
                    func_entries[fidx] = program.resolve(*l).expect("entry labels are bound");
                }
            }
        }
    }

    // Build the table image.
    let mut table_bytes = Vec::with_capacity(module.table.len() * 8);
    for &fidx in &module.table {
        let (p, r) = module.signature(fidx).expect("validated");
        let sig = sig_of(p, r);
        let entry = func_entries[fidx as usize];
        table_bytes.extend_from_slice(&sig.to_le_bytes());
        table_bytes.extend_from_slice(&(entry as u32).to_le_bytes());
    }

    // Re-encode with stats filled from final program.
    let image = Image::load(program).map_err(|e| CompileError::Encode(e.to_string()))?;
    // Attribute encoded byte counts back to functions.
    for (i, stats) in func_stats.iter_mut().enumerate() {
        let start = func_entries[num_imports as usize + i];
        let end = func_entries
            .get(num_imports as usize + i + 1)
            .copied()
            .filter(|&e| e != usize::MAX)
            .unwrap_or(image.program().len());
        stats.insts = end - start;
        stats.bytes = (image.encoded().offsets[end.min(image.program().len())]
            - image.encoded().offsets[start]) as usize;
    }

    Ok(CompiledModule {
        image,
        func_entries,
        exports: module.exports.clone(),
        table_bytes,
        globals_init: module.globals.iter().map(|g| g.init).collect(),
        data: module.data.clone(),
        mem_min_pages: module.mem_min_pages,
        mem_max_pages: module.mem_max_pages.unwrap_or(MAX_PAGES),
        num_imports,
        import_names: module.imports.iter().map(|i| i.name.clone()).collect(),
        import_arg_counts: module.imports.iter().map(|i| i.params.len() as u32).collect(),
        func_has_result: (0..module.func_space_len())
            .map(|i| module.signature(i).is_some_and(|(_, r)| r.is_some()))
            .collect(),
        func_stats,
        opt_stats,
        config: config.clone(),
    })
}

// ---------------------------------------------------------------------------
// Per-function compilation
// ---------------------------------------------------------------------------

/// One component of a lazy address shape: `local << shift`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Part {
    local: u32,
    shift: u8,
}

/// A lazy i32 expression over locals: `Σ parts + disp` (mod 2³²).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Shape {
    parts: [Option<Part>; 2],
    disp: i32,
}

impl Shape {
    fn local(l: u32) -> Shape {
        Shape { parts: [Some(Part { local: l, shift: 0 }), None], disp: 0 }
    }

    fn npart(&self) -> usize {
        self.parts.iter().filter(|p| p.is_some()).count()
    }

    fn references(&self, l: u32) -> bool {
        self.parts.iter().flatten().any(|p| p.local == l)
    }

    fn add(a: Shape, b: Shape) -> Option<Shape> {
        if a.npart() + b.npart() > 2 {
            return None;
        }
        // At most one scaled part (x86 has one index slot).
        let scaled =
            a.parts.iter().flatten().filter(|p| p.shift > 0).count()
                + b.parts.iter().flatten().filter(|p| p.shift > 0).count();
        if scaled > 1 {
            return None;
        }
        let mut parts = [None, None];
        for (n, p) in a.parts.iter().chain(b.parts.iter()).flatten().enumerate() {
            parts[n] = Some(*p);
        }
        Some(Shape { parts, disp: a.disp.wrapping_add(b.disp) })
    }

    fn shl(self, k: u8) -> Option<Shape> {
        if k > 3 || self.npart() > 1 {
            return None;
        }
        let part = match self.parts[0] {
            Some(p) if p.shift + k <= 3 => Part { local: p.local, shift: p.shift + k },
            Some(_) => return None,
            None => return Some(Shape { parts: [None, None], disp: self.disp.wrapping_shl(k.into()) }),
        };
        Some(Shape { parts: [Some(part), None], disp: self.disp.wrapping_shl(k.into()) })
    }
}

/// A Wasm operand-stack slot at compile time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Slot {
    /// Value in an owned operand-pool register (zero-extended if i32).
    Reg(Gpr),
    /// Value in an owned register whose upper 32 bits are garbage
    /// (`i32.wrap_i64` result) — truncation is still pending.
    Trunc(Gpr),
    /// Compile-time constant.
    Imm(i64),
    /// Lazy address shape over locals.
    Addr(Shape),
    /// Spilled to the frame home for operand-stack depth `depth`.
    Spilled {
        depth: u32,
    },
}

/// Where a local lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LocalLoc {
    Reg(Gpr),
    Frame(u32),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CtrlKind {
    Block,
    Loop,
    If,
    Else,
}

#[derive(Debug, Clone, Copy)]
struct CtrlFrame {
    kind: CtrlKind,
    end_label: Label,
    loop_label: Option<Label>,
    else_label: Option<Label>,
    stack_height: usize,
}

/// Estimates a dynamic use count per local: each static `local.get/set/tee`
/// counts `8^depth` where `depth` is the loop-nesting depth (capped so the
/// weight cannot overflow). The optimizing tier's register allocator uses
/// these as spill weights.
fn local_weights(func: &Func) -> Vec<u64> {
    let mut weights = vec![0u64; func.local_count() as usize];
    let mut kinds: Vec<bool> = Vec::new(); // true = loop frame
    let mut loop_depth = 0u32;
    for op in &func.body {
        match op {
            Op::Block | Op::If => kinds.push(false),
            Op::Loop => {
                kinds.push(true);
                loop_depth += 1;
            }
            Op::End => {
                if let Some(was_loop) = kinds.pop() {
                    if was_loop {
                        loop_depth -= 1;
                    }
                }
            }
            Op::LocalGet(i) | Op::LocalSet(i) | Op::LocalTee(i) => {
                if let Some(w) = weights.get_mut(*i as usize) {
                    *w = w.saturating_add(1u64 << (3 * loop_depth.min(6)));
                }
            }
            _ => {}
        }
    }
    weights
}

struct FuncCompiler<'a> {
    module: &'a Module,
    func: &'a Func,
    config: &'a CompilerConfig,
    func_labels: &'a [Option<Label>],
    sig_of: &'a mut dyn FnMut(&[ValType], Option<ValType>) -> u32,

    locals: Vec<LocalLoc>,
    reg_locals: Vec<Gpr>,
    n_frame_locals: u32,
    stack: Vec<Slot>,
    free_regs: Vec<Gpr>,
    /// The registers that belong to the operand pool *for this function*:
    /// the optimizing tier may steal operand registers for hot locals, and
    /// a stolen register must never be returned to `free_regs`.
    operand_regs: Vec<Gpr>,
    ctrl: Vec<CtrlFrame>,
    epilogue: Label,
    trap: Label,
    stats: FuncStats,
    /// Nesting depth of skipped (unreachable) code; 0 = live.
    dead_depth: u32,
}

impl<'a> FuncCompiler<'a> {
    fn new(
        module: &'a Module,
        func: &'a Func,
        config: &'a CompilerConfig,
        func_labels: &'a [Option<Label>],
        sig_of: &'a mut dyn FnMut(&[ValType], Option<ValType>) -> u32,
    ) -> FuncCompiler<'a> {
        // Assign locals to registers from the local pool; the heap-base
        // register is only available when the strategy does not reserve it,
        // and LFI builds additionally set aside %r14.
        let local_pool: Vec<Gpr> = regs::LOCAL_POOL
            .iter()
            .copied()
            .filter(|&r| !(config.strategy.reserves_heap_gpr() && r == regs::HEAP_BASE))
            .filter(|&r| !(config.lfi_reserved_regs && r == Gpr::R14))
            .collect();
        let operand_pool: Vec<Gpr> = regs::OPERAND_POOL
            .iter()
            .copied()
            .filter(|&r| !(config.lfi_reserved_regs && r == Gpr::R10))
            .collect();

        let total = func.local_count() as usize;
        let mut locals = Vec::with_capacity(total);
        let mut reg_locals = Vec::new();
        let mut n_frame = 0u32;
        let mut free_regs = operand_pool.clone();

        if config.opt_level == OptLevel::Optimized {
            // Optimizing tier: weight-driven allocation. Loop-nested locals
            // get registers first, and when the local pool runs out the
            // allocator borrows registers from the tail of the operand
            // pool — the transient operand pressure rarely exceeds three
            // registers, so up to `len - 4` can be lent to hot locals.
            // Borrowed registers are part of `reg_locals` and therefore
            // caller-saved around calls by the existing push/pop protocol.
            let weights = local_weights(func);
            let lend = total
                .saturating_sub(local_pool.len())
                .min(operand_pool.len().saturating_sub(4));
            let mut candidates = local_pool.clone();
            candidates.extend(operand_pool.iter().rev().take(lend));
            let ranges: Vec<LiveRange> = (0..total)
                .map(|i| LiveRange {
                    vreg: i,
                    start: 0,
                    end: func.body.len(),
                    weight: weights[i],
                })
                .collect();
            let assignment = opt::linear_scan(&ranges, candidates.len());
            for slot in assignment.iter().take(total) {
                match slot {
                    Some(k) => {
                        let r = candidates[*k];
                        reg_locals.push(r);
                        locals.push(LocalLoc::Reg(r));
                        free_regs.retain(|&f| f != r);
                    }
                    None => {
                        locals.push(LocalLoc::Frame(n_frame));
                        n_frame += 1;
                    }
                }
            }
        } else {
            // Baseline tier: first-come-first-served, byte-identical to the
            // pre-tiering compiler.
            let mut pool = local_pool;
            pool.reverse(); // pop() yields R12 first
            for _ in 0..total {
                match pool.pop() {
                    Some(r) => {
                        reg_locals.push(r);
                        locals.push(LocalLoc::Reg(r));
                    }
                    None => {
                        locals.push(LocalLoc::Frame(n_frame));
                        n_frame += 1;
                    }
                }
            }
        }
        let operand_regs = free_regs.clone();
        FuncCompiler {
            module,
            func,
            config,
            func_labels,
            sig_of,
            locals,
            reg_locals,
            n_frame_locals: n_frame,
            stack: Vec::new(),
            free_regs,
            operand_regs,
            ctrl: Vec::new(),
            epilogue: Label(u32::MAX),
            trap: Label(u32::MAX),
            stats: FuncStats::default(),
            dead_depth: 0,
        }
    }

    fn max_operand_depth(&self) -> Result<u32, CompileError> {
        // Quick prepass: track stack height like the validator (heights
        // only; the module is already validated).
        let mut h: i64 = 0;
        let mut max = 0i64;
        for op in &self.func.body {
            h += stack_delta(self.module, op);
            max = max.max(h);
        }
        if max > 64 {
            return Err(CompileError::TooComplex {
                func: self.func.name.clone(),
                what: format!("operand stack depth {max} exceeds 64"),
            });
        }
        Ok(max.max(0) as u32 + 2)
    }

    fn frame_bytes(&self, max_depth: u32) -> i32 {
        ((self.n_frame_locals + max_depth) * 8) as i32
    }

    /// Frame offset (from rbp, negative) of frame-local slot `i`.
    fn frame_local_off(&self, i: u32) -> i32 {
        -8 * (i as i32 + 1)
    }

    /// Frame offset of the operand-spill home for stack depth `d`.
    fn spill_off(&self, d: u32) -> i32 {
        -8 * ((self.n_frame_locals + d) as i32 + 1)
    }

    fn compile(&mut self, p: &mut Program, exported: bool) -> Result<FuncStats, CompileError> {
        let max_depth = self.max_operand_depth()?;
        self.epilogue = p.fresh_label();
        self.trap = p.fresh_label();

        // ---- prologue ----
        // §4.1's Wasm2c design: module-entry functions load the heap base
        // from the runtime header and set the segment register themselves;
        // internal calls skip straight past this.
        if exported
            && self.config.segment_entry_protocol
            && (self.config.strategy.segue_loads() || self.config.strategy.segue_stores())
        {
            p.push(Inst::Load {
                dst: Gpr::Rax,
                mem: Mem::abs(self.config.regions.header_base as i32 + 8),
                width: Width::Q,
            });
            p.push(Inst::WrGsBase { src: Gpr::Rax });
            self.stats.sfi_overhead_insts += 2;
            p.tag_last(2, Provenance::TransitionGlue);
        }
        p.push(Inst::Push { reg: regs::FRAME });
        p.push(Inst::MovRR { dst: regs::FRAME, src: Gpr::Rsp, width: Width::Q });
        p.push(Inst::AluRI {
            op: AluOp::Sub,
            dst: Gpr::Rsp,
            imm: self.frame_bytes(max_depth),
            width: Width::Q,
        });
        if self.config.stack_check {
            p.push(Inst::AluRI {
                op: AluOp::Cmp,
                dst: Gpr::Rsp,
                imm: self.config.regions.stack_limit as i32,
                width: Width::Q,
            });
            p.push(Inst::Jcc { cond: Cond::B, target: self.trap });
            self.stats.sfi_overhead_insts += 2;
            p.tag_last(2, Provenance::BoundsGuard);
        }
        // Load parameters: pushed left-to-right by the caller, so param i is
        // at [rbp + 8 + 8*(argc-1-i)] (above the saved rbp).
        let argc = self.func.params.len() as u32;
        for i in 0..argc {
            let src = Mem::base_disp(regs::FRAME, 8 + 8 * (argc - 1 - i) as i32);
            match self.locals[i as usize] {
                LocalLoc::Reg(r) => {
                    p.push(Inst::Load { dst: r, mem: src, width: Width::Q });
                }
                LocalLoc::Frame(slot) => {
                    p.push(Inst::Load { dst: Gpr::Rax, mem: src, width: Width::Q });
                    p.push(Inst::Store {
                        src: Gpr::Rax,
                        mem: Mem::base_disp(regs::FRAME, self.frame_local_off(slot)),
                        width: Width::Q,
                    });
                }
            }
        }
        // Zero-initialize declared locals.
        for i in argc..self.func.local_count() {
            match self.locals[i as usize] {
                LocalLoc::Reg(r) => {
                    p.push(Inst::AluRR { op: AluOp::Xor, dst: r, src: r, width: Width::D });
                }
                LocalLoc::Frame(slot) => {
                    p.push(Inst::StoreImm {
                        imm: 0,
                        mem: Mem::base_disp(regs::FRAME, self.frame_local_off(slot)),
                        width: Width::Q,
                    });
                }
            }
        }

        // ---- body ----
        let body = self.func.body.clone();
        for (pc, op) in body.iter().enumerate() {
            self.op(p, op, pc == body.len() - 1)?;
        }

        // ---- epilogue ----
        p.bind(self.epilogue);
        p.push(Inst::MovRR { dst: Gpr::Rsp, src: regs::FRAME, width: Width::Q });
        p.push(Inst::Pop { reg: regs::FRAME });
        if argc > 0 {
            // Callee removes its arguments from the machine stack.
            p.push(Inst::AluRI {
                op: AluOp::Add,
                dst: Gpr::Rsp,
                imm: 8 * argc as i32,
                width: Width::Q,
            });
        }
        p.push(Inst::Ret);
        p.bind(self.trap);
        p.push(Inst::Ud2);
        // The trap landing pad exists for the guards that branch to it.
        p.tag_last(1, Provenance::BoundsGuard);

        Ok(self.stats)
    }

    // ---- slot helpers ----

    fn alloc_reg(&mut self, p: &mut Program) -> Gpr {
        if let Some(r) = self.free_regs.pop() {
            return r;
        }
        // Spill the deepest in-register stack slot to its frame home.
        for d in 0..self.stack.len() {
            match self.stack[d] {
                Slot::Reg(r) | Slot::Trunc(r) => {
                    // Pending truncations resolve before the value leaves
                    // its register (spill homes always hold clean values).
                    if matches!(self.stack[d], Slot::Trunc(_)) {
                        p.push(Inst::MovRR { dst: r, src: r, width: Width::D });
                        self.stats.sfi_overhead_insts += 1;
                        p.tag_last(1, Provenance::Truncation);
                    }
                    p.push(Inst::Store {
                        src: r,
                        mem: Mem::base_disp(regs::FRAME, self.spill_off(d as u32)),
                        width: Width::Q,
                    });
                    self.stack[d] = Slot::Spilled { depth: d as u32 };
                    return r;
                }
                _ => {}
            }
        }
        unreachable!("operand pool exhausted with nothing to spill");
    }

    fn free_reg(&mut self, r: Gpr) {
        debug_assert!(!self.free_regs.contains(&r));
        if self.operand_regs.contains(&r) {
            self.free_regs.push(r);
        }
    }

    fn free_slot(&mut self, s: Slot) {
        if let Slot::Reg(r) | Slot::Trunc(r) = s {
            self.free_reg(r);
        }
    }

    /// Pops a slot.
    fn pop_slot(&mut self) -> Slot {
        self.stack.pop().expect("validated operand stack")
    }

    /// The register holding local `l`, loading frame locals into `scratch`.
    fn local_reg(&self, p: &mut Program, l: u32, scratch: Gpr) -> Gpr {
        match self.locals[l as usize] {
            LocalLoc::Reg(r) => r,
            LocalLoc::Frame(slot) => {
                p.push(Inst::Load {
                    dst: scratch,
                    mem: Mem::base_disp(regs::FRAME, self.frame_local_off(slot)),
                    width: Width::Q,
                });
                scratch
            }
        }
    }

    /// Materializes a slot into an *owned* operand register (safe to
    /// mutate). i32 values come out zero-extended.
    fn materialize_owned(&mut self, p: &mut Program, s: Slot) -> Gpr {
        match s {
            Slot::Reg(r) => r,
            Slot::Trunc(r) => {
                // Resolve the pending truncation.
                p.push(Inst::MovRR { dst: r, src: r, width: Width::D });
                self.stats.sfi_overhead_insts += 1;
                p.tag_last(1, Provenance::Truncation);
                r
            }
            Slot::Imm(v) => {
                let r = self.alloc_reg(p);
                p.push(Inst::MovRI {
                    dst: r,
                    imm: v,
                    width: if i32::try_from(v).is_ok() && v >= 0 { Width::D } else { Width::Q },
                });
                r
            }
            Slot::Addr(shape) => {
                let r = self.alloc_reg(p);
                self.emit_shape(p, shape, r);
                r
            }
            Slot::Spilled { depth } => {
                let r = self.alloc_reg(p);
                p.push(Inst::Load {
                    dst: r,
                    mem: Mem::base_disp(regs::FRAME, self.spill_off(depth)),
                    width: Width::Q,
                });
                r
            }
        }
    }

    /// Materializes a shape into `dst` (a 32-bit, zero-extended result).
    fn emit_shape(&mut self, p: &mut Program, shape: Shape, dst: Gpr) {
        match (shape.parts[0], shape.parts[1]) {
            (None, _) => {
                p.push(Inst::MovRI { dst, imm: i64::from(shape.disp as u32), width: Width::D });
            }
            (Some(a), None) if a.shift == 0 && shape.disp == 0 => {
                let src = self.local_reg(p, a.local, dst);
                if src != dst {
                    p.push(Inst::MovRR { dst, src, width: Width::Q });
                }
            }
            (Some(a), None) => {
                let ra = self.local_reg(p, a.local, Gpr::Rax);
                let mem = if a.shift == 0 {
                    Mem::base_disp(ra, shape.disp)
                } else {
                    Mem::isd(ra, shift_scale(a.shift), shape.disp)
                };
                // 32-bit lea: wraps mod 2³² and zero-extends.
                p.push(Inst::Lea { dst, mem, width: Width::D });
            }
            (Some(a), Some(b)) => {
                // Put the unscaled part in the base slot.
                let (base, index) = if a.shift == 0 { (a, b) } else { (b, a) };
                let rb = self.local_reg(p, base.local, Gpr::Rax);
                let ri = self.local_reg(p, index.local, Gpr::Rdx);
                p.push(Inst::Lea {
                    dst,
                    mem: Mem::bisd(rb, ri, shift_scale(index.shift), shape.disp),
                    width: Width::D,
                });
            }
        }
    }

    /// A register holding the zero-extended 32-bit value of `s`, possibly
    /// borrowing a local's register (read-only!). Returns `(reg, owned)`.
    fn zx_reg(&mut self, p: &mut Program, s: Slot) -> (Gpr, bool) {
        match s {
            Slot::Addr(shape) if shape.npart() == 1 && shape.disp == 0 => {
                let part = shape.parts[0].expect("npart == 1");
                if part.shift == 0 {
                    if let LocalLoc::Reg(r) = self.locals[part.local as usize] {
                        return (r, false);
                    }
                }
                let r = self.materialize_owned(p, s);
                (r, true)
            }
            other => (self.materialize_owned(p, other), true),
        }
    }

    /// Materializes every stack slot whose lazy shape references local `l`
    /// (called before the local is mutated).
    fn flush_local_refs(&mut self, p: &mut Program, l: u32) {
        for i in 0..self.stack.len() {
            if let Slot::Addr(shape) = self.stack[i] {
                if shape.references(l) {
                    let r = self.alloc_reg(p);
                    self.emit_shape(p, shape, r);
                    self.stack[i] = Slot::Reg(r);
                }
            }
        }
    }

    fn push_reg(&mut self, r: Gpr) {
        self.stack.push(Slot::Reg(r));
    }

    // ---- memory-access lowering (the heart of Segue) ----

    /// Lowers the address slot of a heap access of `width` at static wasm
    /// offset `off` for the access kind (`is_store`). Returns the memory
    /// operand plus the owned register to free afterwards, if any.
    fn heap_mem(
        &mut self,
        p: &mut Program,
        addr: Slot,
        off: u32,
        width: Width,
        is_store: bool,
    ) -> (Mem, Option<Gpr>) {
        let strat = self.config.strategy;
        let segue = if is_store { strat.segue_stores() } else { strat.segue_loads() };
        let off_i = off as i32; // offsets in our corpus stay well below 2³¹

        // Explicit bounds check / masking need a materialized index first.
        if strat.bounds_checks() || strat.masks() {
            let (r, owned) = self.zx_reg(p, addr);
            let r = if strat.masks() || !owned {
                // Masking mutates; borrowed local regs must be copied.
                if strat.masks() {
                    let dst = if owned {
                        r
                    } else {
                        let d = self.alloc_reg(p);
                        p.push(Inst::MovRR { dst: d, src: r, width: Width::Q });
                        self.stats.sfi_overhead_insts += 1;
                        p.tag_last(1, Provenance::BoundsGuard);
                        d
                    };
                    debug_assert!(self.config.layout.mem_size.is_power_of_two());
                    p.push(Inst::AluRI {
                        op: AluOp::And,
                        dst,
                        imm: (self.config.layout.mem_size - 1) as i32,
                        width: Width::D,
                    });
                    self.stats.sfi_overhead_insts += 1;
                    p.tag_last(1, Provenance::BoundsGuard);
                    dst
                } else {
                    r
                }
            } else {
                r
            };
            if strat.bounds_checks() {
                let limit = self.config.layout.mem_size as i64 - i64::from(off) - width.bytes() as i64;
                if limit < 0 {
                    p.push(Inst::Jmp { target: self.trap });
                    p.tag_last(1, Provenance::BoundsGuard);
                } else {
                    p.push(Inst::AluRI { op: AluOp::Cmp, dst: r, imm: limit as i32, width: Width::Q });
                    p.push(Inst::Jcc { cond: Cond::A, target: self.trap });
                    p.tag_last(2, Provenance::BoundsGuard);
                }
                self.stats.sfi_overhead_insts += 2;
            }
            let owned_out = (owned || strat.masks()).then_some(r);
            let mem = if segue {
                Mem::base_disp(r, off_i).with_seg(sfi_x86::Seg::Gs)
            } else {
                Mem::bisd(regs::HEAP_BASE, r, Scale::S1, off_i)
            };
            return (mem, owned_out);
        }

        match strat {
            Strategy::Native => {
                let base = self.config.layout.heap_base as i32;
                match addr {
                    Slot::Imm(v) => (Mem::abs(base + v as i32 + off_i), None),
                    Slot::Addr(shape) => {
                        // Fold the whole shape into one addressing mode,
                        // loading frame locals into scratch as needed.
                        match (shape.parts[0], shape.parts[1]) {
                            (None, _) => (Mem::abs(base + shape.disp + off_i), None),
                            (Some(a), None) => {
                                let ra = self.local_reg(p, a.local, Gpr::Rax);
                                let disp = base + shape.disp + off_i;
                                let mem = if a.shift == 0 {
                                    Mem::base_disp(ra, disp)
                                } else {
                                    Mem::isd(ra, shift_scale(a.shift), disp)
                                };
                                (mem, None)
                            }
                            (Some(a), Some(b)) => {
                                let (bp, ip) = if a.shift == 0 { (a, b) } else { (b, a) };
                                let rb = self.local_reg(p, bp.local, Gpr::Rax);
                                let ri = self.local_reg(p, ip.local, Gpr::Rdx);
                                (
                                    Mem::bisd(rb, ri, shift_scale(ip.shift), base + shape.disp + off_i),
                                    None,
                                )
                            }
                        }
                    }
                    Slot::Reg(r) | Slot::Trunc(r) => {
                        // Native pointers are 64-bit clean by construction;
                        // a pending truncation resolves to a plain use.
                        (Mem::base_disp(r, base + off_i), Some(r))
                    }
                    Slot::Spilled { depth } => {
                        let r = self.alloc_reg(p);
                        p.push(Inst::Load {
                            dst: r,
                            mem: Mem::base_disp(regs::FRAME, self.spill_off(depth)),
                            width: Width::Q,
                        });
                        (Mem::base_disp(r, base + off_i), Some(r))
                    }
                }
            }
            _ if segue => {
                // Segue: gs-relative addressing; the address-size override
                // provides free 32-bit truncation for complex shapes.
                match addr {
                    Slot::Reg(r) => (Mem::base_disp(r, off_i).with_seg(sfi_x86::Seg::Gs), Some(r)),
                    Slot::Trunc(r) => {
                        if off == 0 {
                            // Figure 1c pattern 1: truncation via addr32.
                            (
                                Mem::base(r).with_seg(sfi_x86::Seg::Gs).with_addr32(),
                                Some(r),
                            )
                        } else {
                            p.push(Inst::MovRR { dst: r, src: r, width: Width::D });
                            self.stats.sfi_overhead_insts += 1;
                            p.tag_last(1, Provenance::Truncation);
                            (Mem::base_disp(r, off_i).with_seg(sfi_x86::Seg::Gs), Some(r))
                        }
                    }
                    Slot::Imm(v) => {
                        let r = self.alloc_reg(p);
                        p.push(Inst::MovRI { dst: r, imm: v, width: Width::D });
                        (Mem::base_disp(r, off_i).with_seg(sfi_x86::Seg::Gs), Some(r))
                    }
                    Slot::Addr(shape) => {
                        if shape.npart() == 1
                            && shape.parts[0].expect("npart").shift == 0
                            && shape.disp == 0
                        {
                            let part = shape.parts[0].expect("npart");
                            let (r, owned) = match self.locals[part.local as usize] {
                                LocalLoc::Reg(r) => (r, false),
                                LocalLoc::Frame(_) => {
                                    let r = self.alloc_reg(p);
                                    self.emit_shape(p, shape, r);
                                    (r, true)
                                }
                            };
                            (
                                Mem::base_disp(r, off_i).with_seg(sfi_x86::Seg::Gs),
                                owned.then_some(r),
                            )
                        } else if off == 0 {
                            // Figure 1c pattern 2: fold the whole shape with
                            // the address-size override.
                            match (shape.parts[0], shape.parts[1]) {
                                (None, _) => {
                                    let r = self.alloc_reg(p);
                                    p.push(Inst::MovRI {
                                        dst: r,
                                        imm: i64::from(shape.disp as u32),
                                        width: Width::D,
                                    });
                                    (Mem::base(r).with_seg(sfi_x86::Seg::Gs), Some(r))
                                }
                                (Some(a), None) => {
                                    let ra = self.local_reg(p, a.local, Gpr::Rax);
                                    let mem = if a.shift == 0 {
                                        Mem::base_disp(ra, shape.disp)
                                    } else {
                                        Mem::isd(ra, shift_scale(a.shift), shape.disp)
                                    };
                                    (mem.with_seg(sfi_x86::Seg::Gs).with_addr32(), None)
                                }
                                (Some(a), Some(b)) => {
                                    let (bp, ip) = if a.shift == 0 { (a, b) } else { (b, a) };
                                    let rb = self.local_reg(p, bp.local, Gpr::Rax);
                                    let ri = self.local_reg(p, ip.local, Gpr::Rdx);
                                    (
                                        Mem::bisd(rb, ri, shift_scale(ip.shift), shape.disp)
                                            .with_seg(sfi_x86::Seg::Gs)
                                            .with_addr32(),
                                        None,
                                    )
                                }
                            }
                        } else {
                            // Complex shape + nonzero wasm offset: one lea,
                            // then a 64-bit gs access (offset lands in the
                            // guard if it overflows).
                            let r = self.alloc_reg(p);
                            self.emit_shape(p, shape, r);
                            self.stats.sfi_overhead_insts += 1;
                            p.tag_last(1, Provenance::SegueAddressing);
                            (Mem::base_disp(r, off_i).with_seg(sfi_x86::Seg::Gs), Some(r))
                        }
                    }
                    Slot::Spilled { depth } => {
                        let r = self.alloc_reg(p);
                        p.push(Inst::Load {
                            dst: r,
                            mem: Mem::base_disp(regs::FRAME, self.spill_off(depth)),
                            width: Width::Q,
                        });
                        (Mem::base_disp(r, off_i).with_seg(sfi_x86::Seg::Gs), Some(r))
                    }
                }
            }
            _ => {
                // GuardRegion baseline (and the store side of SegueLoads):
                // the reserved register occupies the base slot, so any
                // nontrivial shape costs an explicit 32-bit materialization.
                let (r, owned) = self.zx_reg(p, addr);
                if let Slot::Addr(shape) = addr {
                    if shape.npart() > 1 || shape.disp != 0 || shape.parts[0].is_some_and(|pt| pt.shift > 0)
                    {
                        self.stats.sfi_overhead_insts += 1; // the lea
                        p.tag_last(1, Provenance::SegueAddressing);
                    }
                }
                if matches!(addr, Slot::Trunc(_)) {
                    // zx_reg emitted the truncation and counted it.
                }
                (
                    Mem::bisd(regs::HEAP_BASE, r, Scale::S1, off_i),
                    owned.then_some(r),
                )
            }
        }
    }

    fn heap_load(&mut self, p: &mut Program, off: u32, width: Width, sext: bool) {
        let addr = self.pop_slot();
        let (mem, owned) = self.heap_mem(p, addr, off, width, false);
        if let Some(r) = owned {
            self.free_reg(r);
        }
        let dst = self.alloc_reg(p);
        if sext {
            p.push(Inst::LoadSx { dst, mem, width });
            // Wasm sign-extends to i32: mask the upper bits back off.
            if width != Width::D && width != Width::Q {
                p.push(Inst::MovRR { dst, src: dst, width: Width::D });
            }
        } else if width == Width::B || width == Width::W {
            // movzx: narrow unsigned loads must zero-extend, not merge.
            p.push(Inst::LoadZx { dst, mem, width });
        } else {
            p.push(Inst::Load { dst, mem, width });
        }
        self.stats.heap_loads += 1;
        self.push_reg(dst);
    }

    fn heap_store(&mut self, p: &mut Program, off: u32, width: Width) {
        let val = self.pop_slot();
        let addr = self.pop_slot();
        // Imm values can store directly.
        if let Slot::Imm(v) = val {
            if i32::try_from(v).is_ok() {
                let (mem, owned) = self.heap_mem(p, addr, off, width, true);
                p.push(Inst::StoreImm { imm: v as i32, mem, width });
                self.stats.heap_stores += 1;
                if let Some(r) = owned {
                    self.free_reg(r);
                }
                return;
            }
        }
        let vr = self.materialize_owned(p, val);
        let (mem, owned) = self.heap_mem(p, addr, off, width, true);
        p.push(Inst::Store { src: vr, mem, width });
        self.stats.heap_stores += 1;
        self.free_reg(vr);
        if let Some(r) = owned {
            self.free_reg(r);
        }
    }

    // ---- the op dispatcher ----

    #[allow(clippy::too_many_lines)]
    fn op(&mut self, p: &mut Program, op: &Op, is_last: bool) -> Result<(), CompileError> {
        // Skip unreachable code (after unconditional branches) until the
        // enclosing frame closes.
        if self.dead_depth > 0 {
            match op {
                Op::Block | Op::Loop | Op::If => self.dead_depth += 1,
                Op::End => {
                    self.dead_depth -= 1;
                    if self.dead_depth == 0 {
                        self.close_frame(p, is_last);
                    }
                }
                Op::Else if self.dead_depth == 1 => {
                    self.dead_depth = 0;
                    self.begin_else(p);
                }
                _ => {}
            }
            return Ok(());
        }

        match op {
            Op::Nop => {}
            Op::Unreachable => {
                p.push(Inst::Ud2);
                self.mark_dead();
            }
            Op::Drop => {
                let s = self.pop_slot();
                self.free_slot(s);
            }
            Op::Select => {
                let c = self.pop_slot();
                let b = self.pop_slot();
                let a = self.pop_slot();
                let ra = self.materialize_owned(p, a);
                let rb = self.materialize_owned(p, b);
                let rc = self.materialize_owned(p, c);
                p.push(Inst::TestRR { a: rc, b: rc, width: Width::D });
                // c == 0 → take b.
                p.push(Inst::Cmov { cond: Cond::E, dst: ra, src: rb, width: Width::Q });
                self.free_reg(rb);
                self.free_reg(rc);
                self.push_reg(ra);
            }

            Op::I32Const(v) => self.stack.push(Slot::Imm(i64::from(*v as u32))),
            Op::I64Const(v) => self.stack.push(Slot::Imm(*v)),

            Op::LocalGet(l) => {
                let ty = self.func.local_type(*l).expect("validated");
                if ty == ValType::I32 {
                    self.stack.push(Slot::Addr(Shape::local(*l)));
                } else {
                    let r = self.alloc_reg(p);
                    let src = self.local_reg(p, *l, r);
                    if src != r {
                        p.push(Inst::MovRR { dst: r, src, width: Width::Q });
                    }
                    self.push_reg(r);
                }
            }
            Op::LocalSet(l) => {
                self.flush_local_refs(p, *l);
                let s = self.pop_slot();
                self.store_local(p, *l, s);
            }
            Op::LocalTee(l) => {
                self.flush_local_refs(p, *l);
                let s = self.pop_slot();
                let r = self.materialize_owned(p, s);
                // Copy into the local without surrendering ownership of r
                // (it stays on the operand stack).
                let ty = self.func.local_type(*l).expect("validated");
                let width = if ty == ValType::I32 { Width::D } else { Width::Q };
                match self.locals[*l as usize] {
                    LocalLoc::Reg(dst) => {
                        p.push(Inst::MovRR { dst, src: r, width });
                    }
                    LocalLoc::Frame(slot) => {
                        p.push(Inst::Store {
                            src: r,
                            mem: Mem::base_disp(regs::FRAME, self.frame_local_off(slot)),
                            width: Width::Q,
                        });
                    }
                }
                self.push_reg(r);
            }
            Op::GlobalGet(g) => {
                let r = self.alloc_reg(p);
                p.push(Inst::Load {
                    dst: r,
                    mem: Mem::abs(self.config.regions.globals_base as i32 + 8 * *g as i32),
                    width: Width::Q,
                });
                self.push_reg(r);
            }
            Op::GlobalSet(g) => {
                let s = self.pop_slot();
                let r = self.materialize_owned(p, s);
                p.push(Inst::Store {
                    src: r,
                    mem: Mem::abs(self.config.regions.globals_base as i32 + 8 * *g as i32),
                    width: Width::Q,
                });
                self.free_reg(r);
            }

            // ---- i32/i64 arithmetic ----
            Op::I32Add => self.binop(p, AluOp::Add, Width::D, true),
            Op::I32Sub => self.binop(p, AluOp::Sub, Width::D, false),
            Op::I32And => self.binop(p, AluOp::And, Width::D, false),
            Op::I32Or => self.binop(p, AluOp::Or, Width::D, false),
            Op::I32Xor => self.binop(p, AluOp::Xor, Width::D, false),
            Op::I64Add => self.binop(p, AluOp::Add, Width::Q, false),
            Op::I64Sub => self.binop(p, AluOp::Sub, Width::Q, false),
            Op::I64And => self.binop(p, AluOp::And, Width::Q, false),
            Op::I64Or => self.binop(p, AluOp::Or, Width::Q, false),
            Op::I64Xor => self.binop(p, AluOp::Xor, Width::Q, false),

            Op::I32Mul => self.mul(p, Width::D),
            Op::I64Mul => self.mul(p, Width::Q),

            Op::I32Shl => self.shift_or_fold(p, ShiftOp::Shl, Width::D),
            Op::I32ShrU => self.shift(p, ShiftOp::Shr, Width::D),
            Op::I32ShrS => self.shift(p, ShiftOp::Sar, Width::D),
            Op::I32Rotl => self.shift(p, ShiftOp::Rol, Width::D),
            Op::I32Rotr => self.shift(p, ShiftOp::Ror, Width::D),
            Op::I64Shl => self.shift(p, ShiftOp::Shl, Width::Q),
            Op::I64ShrU => self.shift(p, ShiftOp::Shr, Width::Q),
            Op::I64ShrS => self.shift(p, ShiftOp::Sar, Width::Q),

            Op::I32DivU => self.div(p, Width::D, false, false),
            Op::I32DivS => self.div(p, Width::D, true, false),
            Op::I32RemU => self.div(p, Width::D, false, true),
            Op::I32RemS => self.div(p, Width::D, true, true),
            Op::I64DivU => self.div(p, Width::Q, false, false),
            Op::I64DivS => self.div(p, Width::Q, true, false),
            Op::I64RemU => self.div(p, Width::Q, false, true),
            Op::I64RemS => self.div(p, Width::Q, true, true),

            // ---- comparisons ----
            Op::I32Eqz => self.eqz(p, Width::D),
            Op::I64Eqz => self.eqz(p, Width::Q),
            Op::I32Eq => self.cmp(p, Cond::E, Width::D),
            Op::I32Ne => self.cmp(p, Cond::Ne, Width::D),
            Op::I32LtS => self.cmp(p, Cond::L, Width::D),
            Op::I32LtU => self.cmp(p, Cond::B, Width::D),
            Op::I32GtS => self.cmp(p, Cond::G, Width::D),
            Op::I32GtU => self.cmp(p, Cond::A, Width::D),
            Op::I32LeS => self.cmp(p, Cond::Le, Width::D),
            Op::I32LeU => self.cmp(p, Cond::Be, Width::D),
            Op::I32GeS => self.cmp(p, Cond::Ge, Width::D),
            Op::I32GeU => self.cmp(p, Cond::Ae, Width::D),
            Op::I64Eq => self.cmp(p, Cond::E, Width::Q),
            Op::I64Ne => self.cmp(p, Cond::Ne, Width::Q),
            Op::I64LtS => self.cmp(p, Cond::L, Width::Q),
            Op::I64LtU => self.cmp(p, Cond::B, Width::Q),
            Op::I64GtS => self.cmp(p, Cond::G, Width::Q),
            Op::I64GtU => self.cmp(p, Cond::A, Width::Q),
            Op::I64LeS => self.cmp(p, Cond::Le, Width::Q),
            Op::I64LeU => self.cmp(p, Cond::Be, Width::Q),
            Op::I64GeS => self.cmp(p, Cond::Ge, Width::Q),
            Op::I64GeU => self.cmp(p, Cond::Ae, Width::Q),

            // ---- conversions ----
            Op::I32WrapI64 => {
                let s = self.pop_slot();
                match s {
                    // The truncation is deferred: Segue will often get it
                    // for free via the address-size override.
                    Slot::Reg(r) => self.stack.push(Slot::Trunc(r)),
                    Slot::Imm(v) => self.stack.push(Slot::Imm(i64::from(v as u32))),
                    other => {
                        let r = self.materialize_owned(p, other);
                        self.stack.push(Slot::Trunc(r));
                    }
                }
            }
            Op::I64ExtendI32U => {
                let s = self.pop_slot();
                // i32 slots are already zero-extended once materialized.
                let r = self.materialize_owned(p, s);
                self.push_reg(r);
            }
            Op::I64ExtendI32S => {
                let s = self.pop_slot();
                let r = self.materialize_owned(p, s);
                p.push(Inst::Movsx { dst: r, src: r, from: Width::D });
                self.push_reg(r);
            }

            // ---- memory ----
            Op::I32Load { offset } => self.heap_load(p, *offset, Width::D, false),
            Op::I64Load { offset } => self.heap_load(p, *offset, Width::Q, false),
            Op::I32Load8U { offset } => self.heap_load(p, *offset, Width::B, false),
            Op::I32Load8S { offset } => self.heap_load(p, *offset, Width::B, true),
            Op::I32Load16U { offset } => self.heap_load(p, *offset, Width::W, false),
            Op::I32Load16S { offset } => self.heap_load(p, *offset, Width::W, true),
            Op::I32Store { offset } => self.heap_store(p, *offset, Width::D),
            Op::I64Store { offset } => self.heap_store(p, *offset, Width::Q),
            Op::I32Store8 { offset } => self.heap_store(p, *offset, Width::B),
            Op::I32Store16 { offset } => self.heap_store(p, *offset, Width::W),

            Op::MemorySize => {
                let r = self.alloc_reg(p);
                p.push(Inst::Load {
                    dst: r,
                    mem: Mem::abs(self.config.regions.header_base as i32),
                    width: Width::D,
                });
                self.push_reg(r);
            }
            Op::MemoryGrow => self.host_call(p, hostcall::MEMORY_GROW, 1, true),
            Op::MemoryCopy => self.host_call(p, hostcall::MEMORY_COPY, 3, false),
            Op::MemoryFill => self.host_call(p, hostcall::MEMORY_FILL, 3, false),

            // ---- control flow ----
            Op::Block => {
                self.spill_below(p, 0);
                let end_label = p.fresh_label();
                self.ctrl.push(CtrlFrame {
                    kind: CtrlKind::Block,
                    end_label,
                    loop_label: None,
                    else_label: None,
                    stack_height: self.stack.len(),
                });
            }
            Op::Loop => {
                self.spill_below(p, 0);
                let end_label = p.fresh_label();
                let loop_label = p.here();
                self.ctrl.push(CtrlFrame {
                    kind: CtrlKind::Loop,
                    end_label,
                    loop_label: Some(loop_label),
                    else_label: None,
                    stack_height: self.stack.len(),
                });
            }
            Op::If => {
                let c = self.pop_slot();
                self.spill_below(p, 0);
                let (rc, owned) = self.zx_reg(p, c);
                p.push(Inst::TestRR { a: rc, b: rc, width: Width::D });
                if owned {
                    self.free_reg(rc);
                }
                let end_label = p.fresh_label();
                let else_label = p.fresh_label();
                p.push(Inst::Jcc { cond: Cond::E, target: else_label });
                self.ctrl.push(CtrlFrame {
                    kind: CtrlKind::If,
                    end_label,
                    loop_label: None,
                    else_label: Some(else_label),
                    stack_height: self.stack.len(),
                });
            }
            Op::Else => self.begin_else(p),
            Op::End => self.close_frame(p, is_last),

            Op::Br(d) => {
                let target = self.branch_target(*d);
                p.push(Inst::Jmp { target });
                self.mark_dead();
            }
            Op::BrIf(d) => {
                // Below-frame-height slots were spilled at block entry, so
                // the branch target's compile-time state already matches.
                let c = self.pop_slot();
                let (rc, owned) = self.zx_reg(p, c);
                p.push(Inst::TestRR { a: rc, b: rc, width: Width::D });
                if owned {
                    self.free_reg(rc);
                }
                let target = self.branch_target(*d);
                p.push(Inst::Jcc { cond: Cond::Ne, target });
            }
            Op::BrTable { targets, default } => {
                let s = self.pop_slot();
                let (r, owned) = self.zx_reg(p, s);
                for (i, t) in targets.iter().enumerate() {
                    p.push(Inst::AluRI { op: AluOp::Cmp, dst: r, imm: i as i32, width: Width::D });
                    let target = self.branch_target(*t);
                    p.push(Inst::Jcc { cond: Cond::E, target });
                }
                let target = self.branch_target(*default);
                p.push(Inst::Jmp { target });
                if owned {
                    self.free_reg(r);
                }
                self.mark_dead();
            }
            Op::Return => {
                if self.func.result.is_some() {
                    let s = self.pop_slot();
                    let r = self.materialize_owned(p, s);
                    p.push(Inst::MovRR { dst: regs::RET, src: r, width: Width::Q });
                    self.free_reg(r);
                }
                p.push(Inst::Jmp { target: self.epilogue });
                self.mark_dead();
            }
            Op::Call(idx) => self.wasm_call(p, *idx)?,
            Op::CallIndirect { type_func } => self.call_indirect(p, *type_func)?,
        }
        Ok(())
    }

    fn mark_dead(&mut self) {
        // Discard slots above the enclosing frame's height (the values a
        // branch discards); slots below stay for the merge point.
        let keep = self.ctrl.last().map_or(0, |f| f.stack_height);
        while self.stack.len() > keep {
            let s = self.stack.pop().expect("len checked");
            self.free_slot(s);
        }
        self.dead_depth = 1;
    }

    fn begin_else(&mut self, p: &mut Program) {
        let frame = self.ctrl.last_mut().expect("validated");
        debug_assert_eq!(frame.kind, CtrlKind::If);
        let end = frame.end_label;
        let else_label = frame.else_label.take().expect("If has else_label");
        frame.kind = CtrlKind::Else;
        p.push(Inst::Jmp { target: end });
        p.bind(else_label);
    }

    fn close_frame(&mut self, p: &mut Program, is_last: bool) {
        if is_last {
            // Function-level End.
            if self.func.result.is_some() && self.dead_depth == 0 {
                if let Some(s) = self.stack.pop() {
                    let r = self.materialize_owned(p, s);
                    p.push(Inst::MovRR { dst: regs::RET, src: r, width: Width::Q });
                    self.free_reg(r);
                }
            }
            self.dead_depth = 0;
            return;
        }
        let frame = self.ctrl.pop().expect("validated");
        if let Some(else_label) = frame.else_label {
            p.bind(else_label); // if without else
        }
        p.bind(frame.end_label);
        let _ = frame.loop_label; // loops simply fall through at end
    }

    fn branch_target(&self, d: u32) -> Label {
        if (d as usize) >= self.ctrl.len() {
            return self.epilogue;
        }
        let frame = &self.ctrl[self.ctrl.len() - 1 - d as usize];
        match frame.kind {
            CtrlKind::Loop => frame.loop_label.expect("loops have loop labels"),
            _ => frame.end_label,
        }
    }

    fn store_local(&mut self, p: &mut Program, l: u32, s: Slot) {
        let ty = self.func.local_type(l).expect("validated");
        let width = if ty == ValType::I32 { Width::D } else { Width::Q };
        match (self.locals[l as usize], s) {
            (LocalLoc::Reg(dst), Slot::Imm(v)) => {
                p.push(Inst::MovRI { dst, imm: v, width: if v >= 0 && width == Width::D { Width::D } else { Width::Q } });
            }
            (LocalLoc::Reg(dst), other) => {
                let r = self.materialize_owned(p, other);
                // i32 writes use D width so the local stays zero-extended.
                p.push(Inst::MovRR { dst, src: r, width });
                self.free_reg(r);
            }
            (LocalLoc::Frame(slot), Slot::Imm(v)) if i32::try_from(v).is_ok() => {
                p.push(Inst::StoreImm {
                    imm: v as i32,
                    mem: Mem::base_disp(regs::FRAME, self.frame_local_off(slot)),
                    width: Width::Q,
                });
            }
            (LocalLoc::Frame(slot), other) => {
                let r = self.materialize_owned(p, other);
                if width == Width::D && matches!(other, Slot::Trunc(_)) {
                    // materialize_owned already truncated.
                }
                p.push(Inst::Store {
                    src: r,
                    mem: Mem::base_disp(regs::FRAME, self.frame_local_off(slot)),
                    width: Width::Q,
                });
                self.free_reg(r);
            }
        }
    }

    fn binop(&mut self, p: &mut Program, op: AluOp, width: Width, foldable: bool) {
        let b = self.pop_slot();
        let a = self.pop_slot();
        // Lazy folding for i32.add over shapes/immediates.
        if foldable && width == Width::D {
            let shape_of = |s: &Slot| -> Option<Shape> {
                match s {
                    Slot::Addr(sh) => Some(*sh),
                    Slot::Imm(v) => Some(Shape { parts: [None, None], disp: *v as i32 }),
                    _ => None,
                }
            };
            if let (Some(sa), Some(sb)) = (shape_of(&a), shape_of(&b)) {
                if let Some(c) = Shape::add(sa, sb) {
                    self.stack.push(Slot::Addr(c));
                    return;
                }
            }
        }
        let ra = self.materialize_owned(p, a);
        match b {
            Slot::Imm(v) if i32::try_from(v).is_ok() => {
                p.push(Inst::AluRI { op, dst: ra, imm: v as i32, width });
            }
            other => {
                let (rb, owned) = self.operand_reg(p, other, width);
                p.push(Inst::AluRR { op, dst: ra, src: rb, width });
                if owned {
                    self.free_reg(rb);
                }
            }
        }
        self.push_reg(ra);
    }

    /// A register whose low `width` bits hold the value of `s`, possibly
    /// borrowing a local register read-only. For D-width consumers, pending
    /// truncations are already fine (upper bits ignored).
    fn operand_reg(&mut self, p: &mut Program, s: Slot, width: Width) -> (Gpr, bool) {
        match s {
            Slot::Reg(r) => (r, true),
            Slot::Trunc(r) if width == Width::D => (r, true),
            Slot::Addr(shape)
                if width == Width::D
                    && shape.npart() == 1
                    && shape.disp == 0
                    && shape.parts[0].expect("npart").shift == 0 =>
            {
                let l = shape.parts[0].expect("npart").local;
                match self.locals[l as usize] {
                    LocalLoc::Reg(r) => (r, false),
                    LocalLoc::Frame(_) => {
                        let r = self.materialize_owned(p, s);
                        (r, true)
                    }
                }
            }
            other => (self.materialize_owned(p, other), true),
        }
    }

    fn mul(&mut self, p: &mut Program, width: Width) {
        let b = self.pop_slot();
        let a = self.pop_slot();
        // i32.mul by a power-of-two constant folds into the shape.
        if width == Width::D {
            if let (Slot::Addr(sh), Slot::Imm(v)) = (&a, &b) {
                if let Some(k) = pow2_shift(*v) {
                    if let Some(s2) = sh.shl(k) {
                        self.stack.push(Slot::Addr(s2));
                        return;
                    }
                }
            }
        }
        let ra = self.materialize_owned(p, a);
        match b {
            Slot::Imm(v) if i32::try_from(v).is_ok() => {
                p.push(Inst::ImulRRI { dst: ra, src: ra, imm: v as i32, width });
            }
            other => {
                let (rb, owned) = self.operand_reg(p, other, width);
                p.push(Inst::Imul { dst: ra, src: rb, width });
                if owned {
                    self.free_reg(rb);
                }
            }
        }
        self.push_reg(ra);
    }

    fn shift_or_fold(&mut self, p: &mut Program, op: ShiftOp, width: Width) {
        // i32.shl by a small constant folds into the shape.
        let b = self.pop_slot();
        let a = self.pop_slot();
        if let (Slot::Addr(sh), Slot::Imm(v)) = (&a, &b) {
            if (0..=3).contains(v) {
                if let Some(s2) = sh.shl(*v as u8) {
                    self.stack.push(Slot::Addr(s2));
                    return;
                }
            }
        }
        self.stack.push(a);
        self.stack.push(b);
        self.shift(p, op, width);
    }

    fn shift(&mut self, p: &mut Program, op: ShiftOp, width: Width) {
        let b = self.pop_slot();
        let a = self.pop_slot();
        let ra = self.materialize_owned(p, a);
        match b {
            Slot::Imm(v) => {
                let mask = if width == Width::D { 31 } else { 63 };
                p.push(Inst::Shift {
                    op,
                    dst: ra,
                    amount: ShiftAmount::Imm((v & mask) as u8),
                    width,
                });
            }
            other => {
                let (rb, owned) = self.operand_reg(p, other, width);
                p.push(Inst::MovRR { dst: Gpr::Rcx, src: rb, width: Width::Q });
                p.push(Inst::Shift { op, dst: ra, amount: ShiftAmount::Cl, width });
                if owned {
                    self.free_reg(rb);
                }
            }
        }
        self.push_reg(ra);
    }

    fn div(&mut self, p: &mut Program, width: Width, signed: bool, rem: bool) {
        let b = self.pop_slot();
        let a = self.pop_slot();
        let (rb, owned_b) = self.operand_reg(p, b, width);
        let ra = self.materialize_owned(p, a);
        p.push(Inst::MovRR { dst: Gpr::Rax, src: ra, width: Width::Q });

        if signed && rem {
            // Wasm: INT_MIN rem -1 == 0, but idiv would trap. Emit the
            // divisor == -1 special case the production engines emit.
            let special = p.fresh_label();
            let done = p.fresh_label();
            p.push(Inst::AluRI { op: AluOp::Cmp, dst: rb, imm: -1, width });
            p.push(Inst::Jcc { cond: Cond::E, target: special });
            p.push(Inst::Cdq { width });
            p.push(Inst::Div { src: rb, width, signed: true });
            p.push(Inst::MovRR { dst: ra, src: Gpr::Rdx, width: Width::Q });
            p.push(Inst::Jmp { target: done });
            p.bind(special);
            p.push(Inst::MovRI { dst: ra, imm: 0, width: Width::Q });
            p.bind(done);
        } else {
            if signed {
                p.push(Inst::Cdq { width });
            } else {
                p.push(Inst::AluRR { op: AluOp::Xor, dst: Gpr::Rdx, src: Gpr::Rdx, width: Width::D });
            }
            p.push(Inst::Div { src: rb, width, signed });
            let res = if rem { Gpr::Rdx } else { Gpr::Rax };
            p.push(Inst::MovRR { dst: ra, src: res, width: if width == Width::D { Width::D } else { Width::Q } });
        }
        if owned_b {
            self.free_reg(rb);
        }
        self.push_reg(ra);
    }

    fn eqz(&mut self, p: &mut Program, width: Width) {
        let s = self.pop_slot();
        let (r, owned) = self.operand_reg(p, s, width);
        p.push(Inst::TestRR { a: r, b: r, width });
        if owned {
            self.free_reg(r);
        }
        let dst = self.alloc_reg(p);
        p.push(Inst::Setcc { cond: Cond::E, dst });
        self.push_reg(dst);
    }

    fn cmp(&mut self, p: &mut Program, cond: Cond, width: Width) {
        let b = self.pop_slot();
        let a = self.pop_slot();
        let (ra, owned_a) = self.operand_reg(p, a, width);
        match b {
            Slot::Imm(v) if i32::try_from(v).is_ok() => {
                p.push(Inst::AluRI { op: AluOp::Cmp, dst: ra, imm: v as i32, width });
            }
            other => {
                let (rb, owned_b) = self.operand_reg(p, other, width);
                p.push(Inst::AluRR { op: AluOp::Cmp, dst: ra, src: rb, width });
                if owned_b {
                    self.free_reg(rb);
                }
            }
        }
        if owned_a {
            self.free_reg(ra);
        }
        let dst = self.alloc_reg(p);
        p.push(Inst::Setcc { cond, dst });
        self.push_reg(dst);
    }

    /// Spills every live (non-argument) operand slot to its frame home and
    /// returns the saved state; used around calls.
    fn spill_below(&mut self, p: &mut Program, keep_top: usize) {
        let n = self.stack.len() - keep_top;
        for d in 0..n {
            match self.stack[d] {
                Slot::Reg(r) | Slot::Trunc(r) => {
                    // Trunc: resolve before spilling so the reload is clean.
                    if matches!(self.stack[d], Slot::Trunc(_)) {
                        p.push(Inst::MovRR { dst: r, src: r, width: Width::D });
                    }
                    p.push(Inst::Store {
                        src: r,
                        mem: Mem::base_disp(regs::FRAME, self.spill_off(d as u32)),
                        width: Width::Q,
                    });
                    self.free_reg(r);
                    self.stack[d] = Slot::Spilled { depth: d as u32 };
                }
                Slot::Addr(shape) => {
                    let r = self.alloc_reg(p);
                    self.emit_shape(p, shape, r);
                    p.push(Inst::Store {
                        src: r,
                        mem: Mem::base_disp(regs::FRAME, self.spill_off(d as u32)),
                        width: Width::Q,
                    });
                    self.free_reg(r);
                    self.stack[d] = Slot::Spilled { depth: d as u32 };
                }
                Slot::Imm(_) | Slot::Spilled { .. } => {}
            }
        }
    }

    /// Pushes the top `argc` slots to the machine stack (in bottom-first
    /// order) and removes them from the operand stack.
    fn push_args(&mut self, p: &mut Program, argc: usize) {
        let base = self.stack.len() - argc;
        for i in 0..argc {
            let s = self.stack[base + i];
            let r = self.materialize_owned(p, s);
            p.push(Inst::Push { reg: r });
            self.free_reg(r);
        }
        self.stack.truncate(base);
    }

    fn wasm_call(&mut self, p: &mut Program, idx: u32) -> Result<(), CompileError> {
        let (params, result) = self.module.signature(idx).expect("validated");
        let argc = params.len();
        let has_result = result.is_some();
        if self.module.is_import(idx) {
            self.spill_below(p, argc);
            self.push_args(p, argc);
            p.push(Inst::CallHost { func: idx });
            p.tag_last(1, Provenance::TransitionGlue);
            if argc > 0 {
                p.push(Inst::AluRI { op: AluOp::Add, dst: Gpr::Rsp, imm: 8 * argc as i32, width: Width::Q });
                p.tag_last(1, Provenance::TransitionGlue);
            }
        } else {
            self.spill_below(p, argc);
            // Caller-saved locals.
            let saved = self.reg_locals.clone();
            for &r in &saved {
                p.push(Inst::Push { reg: r });
            }
            self.push_args(p, argc);
            let target = self.func_labels[idx as usize].expect("defined");
            p.push(Inst::Call { target });
            for &r in saved.iter().rev() {
                p.push(Inst::Pop { reg: r });
            }
        }
        if has_result {
            let r = self.alloc_reg(p);
            p.push(Inst::MovRR { dst: r, src: regs::RET, width: Width::Q });
            self.push_reg(r);
        }
        Ok(())
    }

    fn call_indirect(&mut self, p: &mut Program, type_func: u32) -> Result<(), CompileError> {
        let (params, result) = self.module.signature(type_func).expect("validated");
        let argc = params.len();
        let has_result = result.is_some();
        let expected_sig = (self.sig_of)(params, result) as i32;
        let table_len = self.module.table.len() as i32;
        let table_base = self.config.regions.table_base as i32;

        // Pop the table index (it sits above the args).
        let idx_slot = self.pop_slot();
        let (ri, owned) = self.zx_reg(p, idx_slot);

        self.spill_below(p, argc);
        let saved = self.reg_locals.clone();
        for &r in &saved {
            p.push(Inst::Push { reg: r });
        }
        self.push_args(p, argc);

        // Bounds + signature checks — Wasm's control-flow discipline. Native
        // code calls through a bare function pointer and pays none of this
        // (part of the residual overhead Segue cannot remove).
        if self.config.strategy != Strategy::Native {
            p.push(Inst::AluRI { op: AluOp::Cmp, dst: ri, imm: table_len, width: Width::D });
            p.push(Inst::Jcc { cond: Cond::Ae, target: self.trap });
            p.push(Inst::Load {
                dst: Gpr::Rax,
                mem: Mem::isd(ri, Scale::S8, table_base),
                width: Width::D,
            });
            p.push(Inst::AluRI { op: AluOp::Cmp, dst: Gpr::Rax, imm: expected_sig, width: Width::D });
            p.push(Inst::Jcc { cond: Cond::Ne, target: self.trap });
            self.stats.sfi_overhead_insts += 4;
            p.tag_last(5, Provenance::BoundsGuard);
        }
        p.push(Inst::Load {
            dst: Gpr::Rdx,
            mem: Mem::isd(ri, Scale::S8, table_base + 4),
            width: Width::D,
        });
        if owned {
            self.free_reg(ri);
        }
        p.push(Inst::CallReg { reg: Gpr::Rdx });

        for &r in saved.iter().rev() {
            p.push(Inst::Pop { reg: r });
        }
        if has_result {
            let r = self.alloc_reg(p);
            p.push(Inst::MovRR { dst: r, src: regs::RET, width: Width::Q });
            self.push_reg(r);
        }
        Ok(())
    }

    /// Built-in host call (memory.grow/copy/fill).
    fn host_call(&mut self, p: &mut Program, id: u32, argc: usize, has_result: bool) {
        self.spill_below(p, argc);
        self.push_args(p, argc);
        p.push(Inst::CallHost { func: id });
        p.tag_last(1, Provenance::TransitionGlue);
        if argc > 0 {
            p.push(Inst::AluRI { op: AluOp::Add, dst: Gpr::Rsp, imm: 8 * argc as i32, width: Width::Q });
            p.tag_last(1, Provenance::TransitionGlue);
        }
        if has_result {
            let r = self.alloc_reg(p);
            p.push(Inst::MovRR { dst: r, src: regs::RET, width: Width::Q });
            self.push_reg(r);
        }
    }
}

fn shift_scale(shift: u8) -> Scale {
    match shift {
        0 => Scale::S1,
        1 => Scale::S2,
        2 => Scale::S4,
        3 => Scale::S8,
        _ => unreachable!("shifts above 3 never enter shapes"),
    }
}

fn pow2_shift(v: i64) -> Option<u8> {
    match v {
        1 => Some(0),
        2 => Some(1),
        4 => Some(2),
        8 => Some(3),
        _ => None,
    }
}

/// Net operand-stack effect of an op (for the depth prepass).
fn stack_delta(module: &Module, op: &Op) -> i64 {
    use Op::*;
    match op {
        I32Const(_) | I64Const(_) | LocalGet(_) | GlobalGet(_) | MemorySize => 1,
        LocalSet(_) | GlobalSet(_) | Drop | BrIf(_) | BrTable { .. } => -1,
        Select => -2,
        I32Add | I32Sub | I32Mul | I32DivS | I32DivU | I32RemS | I32RemU | I32And | I32Or
        | I32Xor | I32Shl | I32ShrS | I32ShrU | I32Rotl | I32Rotr | I32Eq | I32Ne | I32LtS
        | I32LtU | I32GtS | I32GtU | I32LeS | I32LeU | I32GeS | I32GeU | I64Add | I64Sub
        | I64Mul | I64DivS | I64DivU | I64RemS | I64RemU | I64And | I64Or | I64Xor | I64Shl
        | I64ShrS | I64ShrU | I64Eq | I64Ne | I64LtS | I64LtU | I64GtS | I64GtU | I64LeS
        | I64LeU | I64GeS | I64GeU => -1,
        I32Load { .. } | I64Load { .. } | I32Load8U { .. } | I32Load8S { .. }
        | I32Load16U { .. } | I32Load16S { .. } => 0,
        I32Store { .. } | I64Store { .. } | I32Store8 { .. } | I32Store16 { .. } => -2,
        MemoryGrow => 0,
        MemoryCopy | MemoryFill => -3,
        If => -1,
        Call(idx) => {
            let (pa, r) = module.signature(*idx).expect("validated");
            i64::from(r.is_some()) - pa.len() as i64
        }
        CallIndirect { type_func } => {
            let (pa, r) = module.signature(*type_func).expect("validated");
            i64::from(r.is_some()) - pa.len() as i64 - 1
        }
        Return | Br(_) | Unreachable | Nop | Block | Loop | Else | End | LocalTee(_)
        | I32Eqz | I64Eqz | I32WrapI64 | I64ExtendI32S | I64ExtendI32U => 0,
    }
}
