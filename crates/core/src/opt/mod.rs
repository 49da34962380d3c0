//! The optimizing tier's pass pipeline.
//!
//! [`optimize`] runs over the baseline compiler's [`Program`] in place:
//!
//! 1. [`const_fold`] — block-local constant propagation and folding
//!    (wrap-around faithful to the emulator; division is never folded so
//!    div-by-zero traps are preserved);
//! 2. [`redundant`] — redundant-truncation elimination (a pending
//!    `mov r32, r32` whose register is provably 32-bit-clean is a no-op)
//!    and redundant-bounds-check elimination (a `cmp r, limit; ja trap`
//!    pair dominated by an equal-or-tighter check of the same unmodified
//!    register can never trap);
//! 3. [`fuse`] — Segue-aware addressing fusion: constant address
//!    components fold into the displacement of the `gs:`-relative (or
//!    heap-base-relative) operand, and a 32-bit `lea` feeding a
//!    displacement-free `gs:` access folds into one address-size-overridden
//!    operand. Every fold goes through the encoding-legality helpers on
//!    [`Mem`] and is rejected when scale/displacement limits are exceeded.
//!
//! All passes preserve the instruction-index invariant: rewrites happen in
//! place and removals become [`Inst::Nop`], so every [`sfi_x86::Label`]
//! keeps pointing at the instruction it was bound to (the same contract the
//! vectorizer follows).
//!
//! Analyses are deliberately block-local and conservative: state is reset
//! at every label (join point) and after every control-flow or
//! state-barrier instruction. The differential-equivalence harness (full
//! corpus + seeded random programs vs the interpreter) is the acceptance
//! gate for every rule here.

mod branch_fuse;
mod const_fold;
mod fuse;
pub mod mitigate;
mod redundant;
pub mod regalloc;

use sfi_x86::inst::ShiftAmount;
use sfi_x86::{Gpr, Inst, Program, Width};

pub use regalloc::{linear_scan, LiveRange};

/// What the pipeline did — per-pass rewrite counters (observability for
/// benches and the per-pass unit tests).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OptStats {
    /// Instructions replaced by a cheaper constant form.
    pub consts_folded: usize,
    /// Dead constant loads removed (overwritten before any read).
    pub dead_consts_removed: usize,
    /// Redundant `mov r32, r32` truncations removed.
    pub truncs_elided: usize,
    /// Redundant `cmp`+`ja` bounds-check pairs removed.
    pub bounds_checks_elided: usize,
    /// Memory operands that absorbed a constant or `lea`-computed address
    /// component.
    pub addresses_fused: usize,
    /// Constant/`lea` producers made dead by fusion and removed.
    pub fused_producers_removed: usize,
    /// `setcc` + `test` + `jcc` triples fused into a single flag branch.
    pub branches_fused: usize,
}

impl OptStats {
    /// Total rewrites across all passes.
    pub fn total(&self) -> usize {
        self.consts_folded
            + self.dead_consts_removed
            + self.truncs_elided
            + self.bounds_checks_elided
            + self.addresses_fused
            + self.fused_producers_removed
            + self.branches_fused
    }
}

/// Runs the optimizing pipeline over `program` in place.
pub fn optimize(program: &mut Program) -> OptStats {
    let mut stats = OptStats::default();
    let leaders = leaders(program);
    const_fold::run(program.insts_mut(), &leaders, &mut stats);
    redundant::run(program.insts_mut(), &leaders, &mut stats);
    fuse::run(program.insts_mut(), &leaders, &mut stats);
    branch_fuse::run(program, &leaders, &mut stats);
    stats
}

/// Per-register state for the block-local analyses: one slot per GPR, so a
/// lookup indexes an array instead of walking a tree. The analyses only
/// get, insert, remove and clear, never iterate, so the container cannot
/// change what they emit.
#[derive(Debug, Default)]
pub(crate) struct RegMap<T: Copy>([Option<T>; 16]);

impl<T: Copy> RegMap<T> {
    pub(crate) fn get(&self, r: Gpr) -> Option<&T> {
        self.0[r.index()].as_ref()
    }

    pub(crate) fn insert(&mut self, r: Gpr, v: T) {
        self.0[r.index()] = Some(v);
    }

    pub(crate) fn remove(&mut self, r: Gpr) -> Option<T> {
        self.0[r.index()].take()
    }

    pub(crate) fn clear(&mut self) {
        self.0 = [None; 16];
    }
}

/// A set of GPRs, one bit each.
#[derive(Debug, Default)]
pub(crate) struct RegSet(u16);

impl RegSet {
    pub(crate) fn contains(&self, r: Gpr) -> bool {
        self.0 >> r.index() & 1 != 0
    }

    pub(crate) fn insert(&mut self, r: Gpr) {
        self.0 |= 1 << r.index();
    }

    pub(crate) fn remove(&mut self, r: Gpr) {
        self.0 &= !(1 << r.index());
    }

    pub(crate) fn clear(&mut self) {
        self.0 = 0;
    }
}

/// `leaders[i]` is true when instruction `i` is a potential join point (a
/// label is bound to it): block-local analyses must reset there, because a
/// branch from elsewhere can land on it with unknown state.
pub(crate) fn leaders(program: &Program) -> Vec<bool> {
    let mut l = vec![false; program.len() + 1];
    for (_, pos) in program.label_positions() {
        if pos < l.len() {
            l[pos] = true;
        }
    }
    l
}

/// Calls `f` for every register this instruction *reads* — including
/// read-modify-write destinations, implicit operands (`div`, `cdq`,
/// shift-by-`%cl`), address components, and sub-32-bit destinations
/// (8/16-bit writes merge, so the old value is an input).
pub(crate) fn for_each_use(inst: &Inst, mut f: impl FnMut(Gpr)) {
    let narrow = |w: Width| matches!(w, Width::B | Width::W);
    if let Some(mem) = inst.mem() {
        for r in mem.regs_read() {
            f(r);
        }
    }
    match *inst {
        Inst::MovRR { dst, src, width } => {
            f(src);
            if narrow(width) {
                f(dst);
            }
        }
        Inst::MovRI { dst, width, .. } => {
            if narrow(width) {
                f(dst);
            }
        }
        Inst::Load { dst, width, .. } => {
            if narrow(width) {
                f(dst);
            }
        }
        Inst::LoadSx { .. } | Inst::LoadZx { .. } | Inst::StoreImm { .. } => {}
        Inst::Store { src, .. } => f(src),
        Inst::Lea { dst, mem, width } => {
            for r in mem.regs_read() {
                f(r);
            }
            if narrow(width) {
                f(dst);
            }
        }
        Inst::Movzx { src, .. } | Inst::Movsx { src, .. } => f(src),
        Inst::AluRR { dst, src, .. } => {
            f(dst);
            f(src);
        }
        Inst::AluRI { dst, .. } | Inst::AluRM { dst, .. } => f(dst),
        Inst::TestRR { a, b, .. } => {
            f(a);
            f(b);
        }
        Inst::Imul { dst, src, .. } => {
            f(dst);
            f(src);
        }
        Inst::ImulRRI { dst, src, width, .. } => {
            f(src);
            if narrow(width) {
                f(dst);
            }
        }
        Inst::Div { src, .. } => {
            f(src);
            f(Gpr::Rax);
            f(Gpr::Rdx);
        }
        Inst::Cdq { .. } => f(Gpr::Rax),
        Inst::Shift { dst, amount, .. } => {
            f(dst);
            if amount == ShiftAmount::Cl {
                f(Gpr::Rcx);
            }
        }
        Inst::Neg { dst, .. } | Inst::Not { dst, .. } => f(dst),
        Inst::Cmov { dst, src, .. } => {
            f(dst);
            f(src);
        }
        Inst::Setcc { .. } => {}
        Inst::Jmp { .. } | Inst::Jcc { .. } | Inst::Call { .. } | Inst::CallHost { .. } => {}
        Inst::JmpReg { reg } | Inst::CallReg { reg } => f(reg),
        Inst::Ret => f(Gpr::Rax),
        Inst::Push { reg } => f(reg),
        Inst::Pop { .. } => {}
        Inst::MovdquLoad { .. } | Inst::MovdquStore { .. } | Inst::MovdqaRR { .. } => {}
        Inst::WrGsBase { src } | Inst::WrFsBase { src } => f(src),
        Inst::RdGsBase { .. } | Inst::RdPkru => {}
        Inst::WrPkru => {
            f(Gpr::Rax);
            f(Gpr::Rcx);
            f(Gpr::Rdx);
        }
        Inst::Ud2 | Inst::Lfence | Inst::Nop => {}
    }
}

/// Calls `f` for every register this instruction modifies (fully or
/// partially). Calls and host calls are handled separately as barriers.
pub(crate) fn for_each_def(inst: &Inst, mut f: impl FnMut(Gpr)) {
    match *inst {
        Inst::MovRR { dst, .. }
        | Inst::MovRI { dst, .. }
        | Inst::Load { dst, .. }
        | Inst::LoadSx { dst, .. }
        | Inst::LoadZx { dst, .. }
        | Inst::Lea { dst, .. }
        | Inst::Movzx { dst, .. }
        | Inst::Movsx { dst, .. }
        | Inst::Imul { dst, .. }
        | Inst::ImulRRI { dst, .. }
        | Inst::Shift { dst, .. }
        | Inst::Neg { dst, .. }
        | Inst::Not { dst, .. }
        | Inst::Cmov { dst, .. }
        | Inst::Setcc { dst, .. }
        | Inst::RdGsBase { dst } => f(dst),
        Inst::AluRR { op, dst, .. } | Inst::AluRI { op, dst, .. } | Inst::AluRM { op, dst, .. }
            if op.writes_dst() =>
        {
            f(dst)
        }
        Inst::Div { .. } => {
            f(Gpr::Rax);
            f(Gpr::Rdx);
        }
        Inst::Cdq { .. } => f(Gpr::Rdx),
        Inst::Pop { reg } => f(reg),
        Inst::RdPkru => f(Gpr::Rax),
        _ => {}
    }
}

/// Whether `inst` writes `r` (fully or partially).
pub(crate) fn defines(inst: &Inst, r: Gpr) -> bool {
    let mut hit = false;
    for_each_def(inst, |d| hit |= d == r);
    hit
}

/// Whether `inst` reads `r`.
pub(crate) fn reads(inst: &Inst, r: Gpr) -> bool {
    let mut hit = false;
    for_each_use(inst, |u| hit |= u == r);
    hit
}

/// Instructions after which block-local register state is unknowable:
/// transfers that clobber the operand pool (calls), indirect control flow,
/// and system-state writes.
pub(crate) fn is_barrier(inst: &Inst) -> bool {
    matches!(
        inst,
        Inst::Call { .. }
            | Inst::CallReg { .. }
            | Inst::CallHost { .. }
            | Inst::JmpReg { .. }
            | Inst::Ret
            | Inst::WrGsBase { .. }
            | Inst::WrFsBase { .. }
            | Inst::WrPkru
            | Inst::RdPkru
            | Inst::Ud2
    )
}

/// Whether `inst` reads the flags register.
pub(crate) fn reads_flags(inst: &Inst) -> bool {
    matches!(inst, Inst::Jcc { .. } | Inst::Setcc { .. } | Inst::Cmov { .. })
}

/// Whether `inst` is *guaranteed* to overwrite all the flags this model
/// tracks. A shift only writes flags when its masked count is nonzero, so
/// `%cl` shifts and width-masked zero counts don't qualify.
pub(crate) fn writes_flags(inst: &Inst) -> bool {
    match *inst {
        Inst::AluRR { .. } | Inst::AluRI { .. } | Inst::AluRM { .. } => true,
        Inst::TestRR { .. } | Inst::Neg { .. } => true,
        Inst::Shift { amount: ShiftAmount::Imm(n), width, .. } => {
            let bits = width.bytes() as u32 * 8;
            (u32::from(n) & (bits - 1)) != 0
        }
        _ => false,
    }
}

/// Whether the flags live at instruction `from` can be observed by any
/// later instruction — i.e. whether a flags-reader executes before the
/// flags are guaranteed-overwritten. Conservative at labels and jumps: a
/// join or branch makes the answer "maybe", which we treat as observed.
///
/// Flags die at `call`/`ret`/`ud2`. This encodes the compiler's own
/// calling convention (SysV-style: flags are not preserved across calls,
/// and every emitted flags-reader is preceded by its writer in the same
/// basic block), which the differential harness verifies end to end.
pub(crate) fn flags_observable_from(insts: &[Inst], leaders: &[bool], from: usize) -> bool {
    for (j, inst) in insts.iter().enumerate().skip(from) {
        if leaders[j] {
            return true;
        }
        if reads_flags(inst) {
            return true;
        }
        if writes_flags(inst) {
            return false;
        }
        if matches!(
            inst,
            Inst::Call { .. } | Inst::CallReg { .. } | Inst::CallHost { .. } | Inst::Ret | Inst::Ud2
        ) {
            return false;
        }
        if inst.is_control_flow() {
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfi_x86::inst::AluOp;
    use sfi_x86::{Cond, Mem};

    #[test]
    fn use_def_classification() {
        let add = Inst::AluRI { op: AluOp::Add, dst: Gpr::Rbx, imm: 1, width: Width::Q };
        assert!(reads(&add, Gpr::Rbx) && defines(&add, Gpr::Rbx));
        let cmp = Inst::AluRI { op: AluOp::Cmp, dst: Gpr::Rbx, imm: 1, width: Width::Q };
        assert!(reads(&cmp, Gpr::Rbx) && !defines(&cmp, Gpr::Rbx), "cmp never writes dst");
        let mov = Inst::MovRI { dst: Gpr::Rsi, imm: 7, width: Width::D };
        assert!(!reads(&mov, Gpr::Rsi) && defines(&mov, Gpr::Rsi));
        let movw = Inst::MovRI { dst: Gpr::Rsi, imm: 7, width: Width::W };
        assert!(reads(&movw, Gpr::Rsi), "16-bit writes merge: old value is an input");
        let div = Inst::Div { src: Gpr::Rbx, width: Width::D, signed: false };
        assert!(reads(&div, Gpr::Rax) && reads(&div, Gpr::Rdx) && defines(&div, Gpr::Rax));
        let st = Inst::Store { src: Gpr::Rdi, mem: Mem::base_disp(Gpr::R8, 4), width: Width::Q };
        assert!(reads(&st, Gpr::Rdi) && reads(&st, Gpr::R8) && !defines(&st, Gpr::Rdi));
    }

    #[test]
    fn flags_liveness_scan() {
        let cmp = Inst::AluRI { op: AluOp::Cmp, dst: Gpr::Rbx, imm: 8, width: Width::Q };
        let ja = Inst::Jcc { cond: Cond::A, target: sfi_x86::Label(0) };
        let load = Inst::Load { dst: Gpr::Rsi, mem: Mem::base(Gpr::Rbx), width: Width::D };

        // Reader right after: observed.
        let insts = [load, ja];
        assert!(flags_observable_from(&insts, &[false; 3], 0));
        // Overwritten by the next cmp before any reader: dead.
        let insts = [load, cmp, ja];
        assert!(!flags_observable_from(&insts, &[false; 4], 0));
        // A label in between makes it a join: conservatively observed.
        let insts = [load, cmp, ja];
        assert!(flags_observable_from(&insts, &[false, true, false, false], 0));
        // Shifts by a masked-to-zero immediate leave flags intact.
        let sh0 =
            Inst::Shift { op: sfi_x86::inst::ShiftOp::Shl, dst: Gpr::Rbx, amount: ShiftAmount::Imm(32), width: Width::D };
        assert!(!writes_flags(&sh0));
        assert!(writes_flags(&Inst::Shift {
            op: sfi_x86::inst::ShiftOp::Shl,
            dst: Gpr::Rbx,
            amount: ShiftAmount::Imm(1),
            width: Width::D
        }));
    }
}
