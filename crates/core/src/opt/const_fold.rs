//! Block-local constant propagation and folding.
//!
//! Tracks the exact 64-bit architectural value of each register through a
//! basic block, mirroring the emulator's semantics bit for bit (width
//! masking, 32-bit zero-extension, 8/16-bit merge writes, shift-count
//! masking). An ALU instruction whose operands are all known becomes a
//! `mov dst, imm` — but only when the flags it would have written are
//! provably dead, because `add`/`sub`/`neg`/nonzero shifts update flags and
//! a later `jcc`/`setcc`/`cmov` may observe them. `imul`, `not` and `lea`
//! never write flags in this model and fold unconditionally.
//!
//! `div`/`idiv` are **never** folded or removed, whatever is known about
//! their operands: a divide-by-zero (or quotient-overflow) trap is an
//! architectural effect the optimized tier must preserve exactly.
//!
//! A `mov r, imm` whose register is fully overwritten before any read is
//! dead and becomes `nop` — constant rematerialization downstream often
//! leaves these behind.

use sfi_x86::inst::{AluOp, ShiftAmount, ShiftOp};
use sfi_x86::{Gpr, Inst, Width};

use super::{flags_observable_from, for_each_use, is_barrier, OptStats, RegMap};

/// Applies `write_width` semantics to the known-value map: `None` means the
/// written value is unknown.
fn write_reg(known: &mut RegMap<u64>, dst: Gpr, width: Width, v: Option<u64>) {
    match (width, v) {
        (Width::Q, Some(v)) => {
            known.insert(dst, v);
        }
        (Width::D, Some(v)) => {
            known.insert(dst, v & 0xFFFF_FFFF);
        }
        (Width::W | Width::B, Some(v)) => {
            // 8/16-bit writes merge, so the result is only known when the
            // previous full value is known too.
            if let Some(old) = known.get(dst).copied() {
                let merged = match width {
                    Width::W => (old & !0xFFFF) | (v & 0xFFFF),
                    _ => (old & !0xFF) | (v & 0xFF),
                };
                known.insert(dst, merged);
            } else {
                known.remove(dst);
            }
        }
        (Width::Q | Width::D, None) => {
            known.remove(dst);
        }
        (Width::W | Width::B, None) => {
            known.remove(dst);
        }
    }
}

/// The cheapest `mov dst, imm` that leaves `dst` holding exactly `value`:
/// a 32-bit move when the value zero-extends (5-byte encoding), `movabs`
/// otherwise.
fn const_mov(dst: Gpr, value: u64) -> Inst {
    if value <= u64::from(u32::MAX) {
        Inst::MovRI { dst, imm: value as i64, width: Width::D }
    } else {
        Inst::MovRI { dst, imm: value as i64, width: Width::Q }
    }
}

/// Mirrors the emulator's ALU result (the value only; flags handled by the
/// caller's liveness scan).
fn alu_value(op: AluOp, a: u64, b: u64, width: Width) -> u64 {
    match op {
        AluOp::Add => width.mask(a.wrapping_add(b)),
        AluOp::Sub | AluOp::Cmp => width.mask(a.wrapping_sub(b)),
        AluOp::And => a & b,
        AluOp::Or => a | b,
        AluOp::Xor => a ^ b,
    }
}

/// Mirrors the emulator's shift result for a masked count `n`.
fn shift_value(op: ShiftOp, a: u64, n: u32, width: Width) -> u64 {
    let bits = width.bytes() as u32 * 8;
    let r = match op {
        ShiftOp::Shl => a.wrapping_shl(n),
        ShiftOp::Shr => a.wrapping_shr(n),
        ShiftOp::Sar => (width.sext(a) as i64).wrapping_shr(n) as u64,
        ShiftOp::Rol => {
            if n == 0 {
                a
            } else {
                (a << n | a >> (bits - n)) & width.mask(u64::MAX)
            }
        }
        ShiftOp::Ror => {
            if n == 0 {
                a
            } else {
                (a >> n | a << (bits - n)) & width.mask(u64::MAX)
            }
        }
    };
    width.mask(r)
}

pub(super) fn run(insts: &mut [Inst], leaders: &[bool], stats: &mut OptStats) {
    // Exact 64-bit value of each register, where known.
    let mut known: RegMap<u64> = RegMap::default();
    // `mov r, imm` instructions whose value has not been read yet — dead if
    // the register is fully overwritten first.
    let mut pending: RegMap<usize> = RegMap::default();

    for i in 0..insts.len() {
        if leaders[i] {
            known.clear();
            pending.clear();
        }
        let inst = insts[i];

        // Any read makes the pending constant live.
        for_each_use(&inst, |r| {
            pending.remove(r);
        });

        if is_barrier(&inst) {
            known.clear();
            pending.clear();
            continue;
        }
        if inst.is_control_flow() {
            // Registers are unchanged on fallthrough so `known` survives,
            // but the branch target may read anything: pending constants
            // are no longer provably dead.
            pending.clear();
            continue;
        }

        // A full (32/64-bit) overwrite of a pending constant's register
        // proves that constant dead.
        let kill_full = |pending: &mut RegMap<usize>,
                             insts: &mut [Inst],
                             stats: &mut OptStats,
                             dst: Gpr| {
            if let Some(j) = pending.remove(dst) {
                insts[j] = Inst::Nop;
                stats.dead_consts_removed += 1;
            }
        };

        match inst {
            Inst::MovRI { dst, imm, width } => match width {
                Width::Q | Width::D => {
                    kill_full(&mut pending, insts, stats, dst);
                    write_reg(&mut known, dst, width, Some(imm as u64));
                    pending.insert(dst, i);
                }
                _ => write_reg(&mut known, dst, width, Some(imm as u64)),
            },
            Inst::MovRR { dst, src, width } => {
                if matches!(width, Width::Q | Width::D) {
                    kill_full(&mut pending, insts, stats, dst);
                }
                let v = known.get(src).map(|&v| width.mask(v));
                write_reg(&mut known, dst, width, v);
            }
            Inst::Load { dst, width, .. } => {
                if matches!(width, Width::Q | Width::D) {
                    kill_full(&mut pending, insts, stats, dst);
                }
                write_reg(&mut known, dst, width, None);
            }
            Inst::LoadSx { dst, .. } | Inst::LoadZx { dst, .. } | Inst::RdGsBase { dst } => {
                kill_full(&mut pending, insts, stats, dst);
                known.remove(dst);
            }
            Inst::Pop { reg } => {
                kill_full(&mut pending, insts, stats, reg);
                known.remove(reg);
            }
            Inst::Lea { dst, mem, width } => {
                let all_known = || -> Option<u64> {
                    let mut ea = mem.disp as i64 as u64;
                    if let Some(b) = mem.base {
                        ea = ea.wrapping_add(*known.get(b)?);
                    }
                    if let Some((r, s)) = mem.index {
                        ea = ea.wrapping_add(known.get(r)?.wrapping_mul(s.factor()));
                    }
                    if mem.addr32 {
                        ea &= 0xFFFF_FFFF;
                    }
                    Some(ea)
                };
                let v = all_known();
                if matches!(width, Width::Q | Width::D) {
                    kill_full(&mut pending, insts, stats, dst);
                    if let Some(ea) = v {
                        // lea never writes flags: fold unconditionally.
                        let value = width.mask(ea);
                        insts[i] = const_mov(dst, value);
                        stats.consts_folded += 1;
                        known.insert(dst, value);
                        pending.insert(dst, i);
                        continue;
                    }
                }
                write_reg(&mut known, dst, width, v);
            }
            Inst::Movzx { dst, src, from } => {
                kill_full(&mut pending, insts, stats, dst);
                if let Some(&v) = known.get(src) {
                    let value = from.mask(v);
                    insts[i] = const_mov(dst, value);
                    stats.consts_folded += 1;
                    known.insert(dst, value);
                    pending.insert(dst, i);
                } else {
                    known.remove(dst);
                }
            }
            Inst::Movsx { dst, src, from } => {
                kill_full(&mut pending, insts, stats, dst);
                if let Some(&v) = known.get(src) {
                    let value = from.sext(v);
                    insts[i] = const_mov(dst, value);
                    stats.consts_folded += 1;
                    known.insert(dst, value);
                    pending.insert(dst, i);
                } else {
                    known.remove(dst);
                }
            }
            Inst::AluRR { op, dst, src, width } => {
                if !op.writes_dst() {
                    continue; // cmp: flags only, nothing to fold safely
                }
                let v = match (known.get(dst), known.get(src)) {
                    (Some(&a), Some(&b)) => {
                        Some(alu_value(op, width.mask(a), width.mask(b), width))
                    }
                    _ => None,
                };
                fold_alu(insts, leaders, i, dst, width, v, &mut known, &mut pending, stats);
            }
            Inst::AluRI { op, dst, imm, width } => {
                if !op.writes_dst() {
                    continue;
                }
                let v = known
                    .get(dst)
                    .map(|&a| alu_value(op, width.mask(a), width.mask(imm as i64 as u64), width));
                fold_alu(insts, leaders, i, dst, width, v, &mut known, &mut pending, stats);
            }
            // Memory source: the loaded value is unknown (and the load
            // itself must stay — it can fault).
            Inst::AluRM { op, dst, width, .. } if op.writes_dst() => {
                if matches!(width, Width::Q | Width::D) {
                    kill_full(&mut pending, insts, stats, dst);
                }
                write_reg(&mut known, dst, width, None);
            }
            Inst::AluRM { .. } => {}
            Inst::TestRR { .. } => {}
            Inst::Imul { dst, src, width } => {
                let v = match (known.get(dst), known.get(src)) {
                    (Some(&a), Some(&b)) => {
                        Some(width.mask(width.mask(a).wrapping_mul(width.mask(b))))
                    }
                    _ => None,
                };
                // imul writes no flags in this model: fold unconditionally.
                fold_flagless(insts, i, dst, width, v, &mut known, &mut pending, stats);
            }
            Inst::ImulRRI { dst, src, imm, width } => {
                let v = known
                    .get(src)
                    .map(|&a| width.mask(width.mask(a).wrapping_mul(width.mask(imm as i64 as u64))));
                fold_flagless(insts, i, dst, width, v, &mut known, &mut pending, stats);
            }
            Inst::Div { .. } => {
                // Never folded, never removed: div-by-zero and quotient
                // overflow must trap exactly as in baseline code.
                known.remove(Gpr::Rax);
                known.remove(Gpr::Rdx);
                pending.remove(Gpr::Rax);
                pending.remove(Gpr::Rdx);
            }
            Inst::Cdq { width } => {
                let v = known.get(Gpr::Rax).map(|&a| {
                    let neg = width.mask(a) >> width.sign_bit() & 1 == 1;
                    if neg {
                        width.mask(u64::MAX)
                    } else {
                        0
                    }
                });
                write_reg(&mut known, Gpr::Rdx, width, v);
            }
            Inst::Shift { op, dst, amount, width } => {
                let bits = width.bytes() as u32 * 8;
                match amount {
                    ShiftAmount::Imm(raw) => {
                        let n = u32::from(raw) & (bits - 1);
                        let v = known.get(dst).map(|&a| shift_value(op, width.mask(a), n, width));
                        if n == 0 {
                            // Masked-to-zero count writes no flags.
                            fold_flagless(insts, i, dst, width, v, &mut known, &mut pending, stats);
                        } else {
                            fold_alu(insts, leaders, i, dst, width, v, &mut known, &mut pending, stats);
                        }
                    }
                    ShiftAmount::Cl => {
                        if matches!(width, Width::Q | Width::D) {
                            kill_full(&mut pending, insts, stats, dst);
                        }
                        write_reg(&mut known, dst, width, None);
                    }
                }
            }
            Inst::Neg { dst, width } => {
                let v = known.get(dst).map(|&a| alu_value(AluOp::Sub, 0, width.mask(a), width));
                fold_alu(insts, leaders, i, dst, width, v, &mut known, &mut pending, stats);
            }
            Inst::Not { dst, width } => {
                let v = known.get(dst).map(|&a| width.mask(!width.mask(a)));
                fold_flagless(insts, i, dst, width, v, &mut known, &mut pending, stats);
            }
            Inst::Cmov { dst, width, .. } => {
                // Condition unknown; in 32-bit form even the not-taken path
                // truncates, so the value is unknown either way.
                if matches!(width, Width::Q | Width::D) {
                    kill_full(&mut pending, insts, stats, dst);
                }
                write_reg(&mut known, dst, width, None);
            }
            Inst::Setcc { dst, .. } => {
                kill_full(&mut pending, insts, stats, dst);
                known.remove(dst);
            }
            _ => {}
        }
    }
}

/// Folds a flags-writing instruction whose result is `v`, but only when the
/// flags it would produce are provably unobserved. Updates `known` either
/// way.
#[allow(clippy::too_many_arguments)]
fn fold_alu(
    insts: &mut [Inst],
    leaders: &[bool],
    i: usize,
    dst: Gpr,
    width: Width,
    v: Option<u64>,
    known: &mut RegMap<u64>,
    pending: &mut RegMap<usize>,
    stats: &mut OptStats,
) {
    if let Some(v) = v {
        if matches!(width, Width::Q | Width::D) && !flags_observable_from(insts, leaders, i + 1) {
            // The full register value after a D-width write is the masked
            // result zero-extended, which `write_reg` already models.
            let value = width.mask(v);
            insts[i] = const_mov(dst, value);
            stats.consts_folded += 1;
            known.insert(dst, value);
            pending.insert(dst, i);
            return;
        }
    }
    if let Some(j) = pending.get(dst).copied() {
        // The register is being overwritten, but by an instruction we are
        // keeping; the overwrite still proves the pending constant dead for
        // Q/D widths.
        if matches!(width, Width::Q | Width::D) {
            insts[j] = Inst::Nop;
            stats.dead_consts_removed += 1;
            pending.remove(dst);
        }
    }
    write_reg(known, dst, width, v);
}

/// Folds an instruction that writes no flags (imul, not, masked-zero
/// shifts): legal whenever the result is known.
#[allow(clippy::too_many_arguments)]
fn fold_flagless(
    insts: &mut [Inst],
    i: usize,
    dst: Gpr,
    width: Width,
    v: Option<u64>,
    known: &mut RegMap<u64>,
    pending: &mut RegMap<usize>,
    stats: &mut OptStats,
) {
    if let Some(v) = v {
        if matches!(width, Width::Q | Width::D) {
            let value = width.mask(v);
            insts[i] = const_mov(dst, value);
            stats.consts_folded += 1;
            known.insert(dst, value);
            pending.insert(dst, i);
            return;
        }
    }
    if let Some(j) = pending.get(dst).copied() {
        if matches!(width, Width::Q | Width::D) {
            insts[j] = Inst::Nop;
            stats.dead_consts_removed += 1;
            pending.remove(dst);
        }
    }
    write_reg(known, dst, width, v);
}

#[cfg(test)]
mod tests {
    use super::super::leaders;
    use super::*;
    use sfi_x86::{Cond, Mem, Program};

    fn run_pass(p: &mut Program) -> OptStats {
        let mut stats = OptStats::default();
        let l = leaders(p);
        run(p.insts_mut(), &l, &mut stats);
        stats
    }

    #[test]
    fn add_folds_with_i32_wraparound() {
        let mut p = Program::new();
        p.push(Inst::MovRI { dst: Gpr::Rbx, imm: 0xFFFF_FFFF, width: Width::D });
        p.push(Inst::AluRI { op: AluOp::Add, dst: Gpr::Rbx, imm: 1, width: Width::D });
        // Flags die here (full ALU overwrite before any reader).
        p.push(Inst::AluRR { op: AluOp::Add, dst: Gpr::Rsi, src: Gpr::Rdi, width: Width::Q });
        p.push(Inst::Ret);
        let stats = run_pass(&mut p);
        assert_eq!(stats.consts_folded, 1);
        // i32 wrap-around: 0xFFFF_FFFF + 1 == 0 at D width.
        assert_eq!(p.insts()[1], Inst::MovRI { dst: Gpr::Rbx, imm: 0, width: Width::D });
    }

    #[test]
    fn fold_blocked_when_flags_are_observed() {
        let mut p = Program::new();
        let l = p.fresh_label();
        p.push(Inst::MovRI { dst: Gpr::Rbx, imm: 7, width: Width::D });
        p.push(Inst::AluRI { op: AluOp::Add, dst: Gpr::Rbx, imm: 1, width: Width::D });
        p.push(Inst::Jcc { cond: Cond::E, target: l });
        p.bind(l);
        p.push(Inst::Ret);
        let before = p.insts().to_vec();
        let stats = run_pass(&mut p);
        assert_eq!(stats.consts_folded, 0, "jcc observes the add's flags");
        assert_eq!(p.insts(), &before[..]);
    }

    #[test]
    fn imul_and_not_fold_without_flag_liveness() {
        // imul/not never write flags in this model, so they fold even with
        // a live jcc consuming an earlier cmp.
        let mut p = Program::new();
        let l = p.fresh_label();
        p.push(Inst::MovRI { dst: Gpr::Rbx, imm: 6, width: Width::D });
        p.push(Inst::AluRI { op: AluOp::Cmp, dst: Gpr::Rdi, imm: 0, width: Width::Q });
        p.push(Inst::ImulRRI { dst: Gpr::Rsi, src: Gpr::Rbx, imm: 7, width: Width::D });
        p.push(Inst::Jcc { cond: Cond::E, target: l });
        p.bind(l);
        p.push(Inst::Ret);
        let stats = run_pass(&mut p);
        assert_eq!(stats.consts_folded, 1);
        assert_eq!(p.insts()[2], Inst::MovRI { dst: Gpr::Rsi, imm: 42, width: Width::D });
        assert!(matches!(p.insts()[3], Inst::Jcc { .. }), "branch untouched");
    }

    #[test]
    fn div_never_folds_even_with_known_zero_divisor() {
        let mut p = Program::new();
        p.push(Inst::MovRI { dst: Gpr::Rbx, imm: 0, width: Width::D });
        p.push(Inst::MovRI { dst: Gpr::Rax, imm: 5, width: Width::D });
        p.push(Inst::MovRI { dst: Gpr::Rdx, imm: 0, width: Width::D });
        p.push(Inst::Div { src: Gpr::Rbx, width: Width::D, signed: false });
        p.push(Inst::Ret);
        let before = p.insts().to_vec();
        let stats = run_pass(&mut p);
        assert_eq!(stats.total(), 0, "div-by-zero trap must be preserved bit-for-bit");
        assert_eq!(p.insts(), &before[..]);
    }

    #[test]
    fn dead_constant_is_removed_but_live_one_kept() {
        let mut p = Program::new();
        p.push(Inst::MovRI { dst: Gpr::Rbx, imm: 1, width: Width::Q });
        p.push(Inst::MovRI { dst: Gpr::Rbx, imm: 2, width: Width::Q });
        p.push(Inst::Store { src: Gpr::Rbx, mem: Mem::abs(0x100), width: Width::Q });
        p.push(Inst::Ret);
        let stats = run_pass(&mut p);
        assert_eq!(stats.dead_consts_removed, 1);
        assert_eq!(p.insts()[0], Inst::Nop);
        assert_eq!(p.insts()[1], Inst::MovRI { dst: Gpr::Rbx, imm: 2, width: Width::Q });
    }

    #[test]
    fn constant_not_dead_across_branch_or_label() {
        // A branch can read the constant at its target; a label means an
        // unknown predecessor might have set up a read.
        let mut p = Program::new();
        let l = p.fresh_label();
        p.push(Inst::MovRI { dst: Gpr::Rbx, imm: 1, width: Width::Q });
        p.push(Inst::Jcc { cond: Cond::E, target: l });
        p.push(Inst::MovRI { dst: Gpr::Rbx, imm: 2, width: Width::Q });
        p.bind(l);
        p.push(Inst::Store { src: Gpr::Rbx, mem: Mem::abs(0x100), width: Width::Q });
        p.push(Inst::Ret);
        let stats = run_pass(&mut p);
        assert_eq!(stats.dead_consts_removed, 0);
        assert_eq!(p.insts()[0], Inst::MovRI { dst: Gpr::Rbx, imm: 1, width: Width::Q });
    }

    #[test]
    fn masked_zero_shift_folds_without_killing_flags() {
        // shl r32, 32 masks to count 0: writes no flags, so it may fold even
        // with a live cmp->jcc pair spanning it. The fold must still model
        // the 32-bit truncation the shift performs.
        let mut p = Program::new();
        let l = p.fresh_label();
        p.push(Inst::MovRI { dst: Gpr::Rbx, imm: 0x1_0000_0001, width: Width::Q });
        p.push(Inst::AluRI { op: AluOp::Cmp, dst: Gpr::Rdi, imm: 3, width: Width::Q });
        p.push(Inst::Shift {
            op: ShiftOp::Shl,
            dst: Gpr::Rbx,
            amount: ShiftAmount::Imm(32),
            width: Width::D,
        });
        p.push(Inst::Jcc { cond: Cond::A, target: l });
        p.bind(l);
        p.push(Inst::Ret);
        let stats = run_pass(&mut p);
        assert_eq!(stats.consts_folded, 1);
        assert_eq!(p.insts()[2], Inst::MovRI { dst: Gpr::Rbx, imm: 1, width: Width::D });
        // A nonzero-count shift in the same position must NOT fold.
        let mut p = Program::new();
        let l = p.fresh_label();
        p.push(Inst::MovRI { dst: Gpr::Rbx, imm: 2, width: Width::D });
        p.push(Inst::AluRI { op: AluOp::Cmp, dst: Gpr::Rdi, imm: 3, width: Width::Q });
        p.push(Inst::Shift {
            op: ShiftOp::Shl,
            dst: Gpr::Rbx,
            amount: ShiftAmount::Imm(1),
            width: Width::D,
        });
        p.push(Inst::Jcc { cond: Cond::A, target: l });
        p.bind(l);
        p.push(Inst::Ret);
        let stats = run_pass(&mut p);
        assert_eq!(stats.consts_folded, 0, "nonzero shift writes flags the jcc would read");
    }

    #[test]
    fn lea_folds_including_addr32_wrap() {
        let mut p = Program::new();
        p.push(Inst::MovRI { dst: Gpr::Rcx, imm: 0xFFFF_FFFF, width: Width::D });
        p.push(Inst::Lea {
            dst: Gpr::Rdx,
            mem: Mem::base_disp(Gpr::Rcx, 2).with_addr32(),
            width: Width::D,
        });
        p.push(Inst::Ret);
        let stats = run_pass(&mut p);
        assert_eq!(stats.consts_folded, 1);
        // 0xFFFF_FFFF + 2 wraps to 1 under the address-size override.
        assert_eq!(p.insts()[1], Inst::MovRI { dst: Gpr::Rdx, imm: 1, width: Width::D });
    }
}
