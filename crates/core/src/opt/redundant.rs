//! Redundant-truncation and redundant-bounds-check elimination.
//!
//! **Truncation elimination.** The baseline compiler truncates i32 values
//! with `mov r32, r32` (zero-extending self-moves). That move is a no-op
//! when the register is already *32-bit clean* — its upper 32 bits are
//! provably zero — which is true after any 32-bit-destination write (x86
//! zeroes the upper half), after `movzx`/`setcc`, and after loading a small
//! constant. The pass tracks cleanliness block-locally and nops provably
//! redundant truncations. `mov r32, r32` writes no flags, so removal needs
//! no flags-liveness check.
//!
//! **Bounds-check elimination.** The bounds-checking strategies emit
//! `cmp r, limit` + `ja trap` pairs. On the fallthrough path the pair
//! proves `r <= limit` (unsigned); a later identical-or-looser check of the
//! same *unmodified* register can never take its branch and is removed —
//! but only when the `cmp`'s flags are provably dead afterwards, because
//! deleting the pair changes the flags left behind. A check is **never**
//! removed when the register was redefined in between, when the recorded
//! bound is looser than the new limit, or across a join point — those
//! checks can trap, and a trap is an architectural effect the optimized
//! tier must preserve.

use sfi_x86::inst::AluOp;
use sfi_x86::{Cond, Gpr, Inst, Width};

use super::{flags_observable_from, for_each_def, is_barrier, OptStats, RegMap, RegSet};

/// Whether executing `inst` leaves `dst`'s upper 32 bits zero (i.e. the
/// full value equals the zero-extension of its low 32 bits).
fn makes_clean(inst: &Inst, clean: &RegSet) -> Option<(Gpr, bool)> {
    let val = match *inst {
        // Any 32-bit-destination write zeroes the upper half.
        Inst::MovRR { dst, src, width } => match width {
            Width::D => (dst, true),
            Width::Q => (dst, clean.contains(src)),
            _ => return None, // 8/16-bit writes merge: cleanliness unchanged
        },
        Inst::MovRI { dst, imm, width } => match width {
            Width::D => (dst, true),
            Width::Q => (dst, imm >= 0 && imm <= i64::from(u32::MAX)),
            _ => return None,
        },
        Inst::Load { dst, width, .. } => match width {
            Width::D => (dst, true),
            Width::Q => (dst, false),
            _ => return None,
        },
        // Zero-extension to 64 bits from <= 32 bits is clean by definition.
        Inst::LoadZx { dst, width, .. } => (dst, width <= Width::D),
        Inst::Movzx { dst, from, .. } => (dst, from <= Width::D),
        Inst::Setcc { dst, .. } => (dst, true),
        Inst::LoadSx { dst, .. } | Inst::Movsx { dst, .. } => (dst, false),
        Inst::Lea { dst, mem, width } => match width {
            Width::D => (dst, true),
            // A 64-bit lea of an addr32 operand produces a 32-bit value.
            Width::Q => (dst, mem.addr32),
            _ => return None,
        },
        Inst::AluRR { op, dst, width, .. }
        | Inst::AluRI { op, dst, width, .. }
        | Inst::AluRM { op, dst, width, .. } => {
            if !op.writes_dst() {
                return None;
            }
            match width {
                Width::D => (dst, true),
                Width::Q => (dst, false),
                _ => return None,
            }
        }
        Inst::Imul { dst, width, .. }
        | Inst::ImulRRI { dst, width, .. }
        | Inst::Shift { dst, width, .. }
        | Inst::Neg { dst, width }
        | Inst::Not { dst, width } => match width {
            Width::D => (dst, true),
            Width::Q => (dst, false),
            _ => return None,
        },
        // cmov in 32-bit form always writes (zero-extends) the destination,
        // taken or not.
        Inst::Cmov { dst, width, .. } => match width {
            Width::D => (dst, true),
            Width::Q => (dst, false),
            _ => return None,
        },
        Inst::Cdq { width } => match width {
            Width::D => (Gpr::Rdx, true),
            _ => (Gpr::Rdx, false),
        },
        Inst::Pop { reg } => (reg, false),
        Inst::RdGsBase { dst } => (dst, false),
        _ => return None,
    };
    Some(val)
}

pub(super) fn run(insts: &mut [Inst], leaders: &[bool], stats: &mut OptStats) {
    // Registers whose upper 32 bits are provably zero.
    let mut clean = RegSet::default();
    // Proven unsigned upper bounds: `bound[r] == l` means the full 64-bit
    // value of `r` is <= l (established by a fallen-through `cmp; ja`).
    let mut bound: RegMap<i32> = RegMap::default();

    let mut i = 0;
    while i < insts.len() {
        if leaders[i] {
            clean.clear();
            bound.clear();
        }
        let inst = insts[i];

        if is_barrier(&inst) {
            clean.clear();
            bound.clear();
            i += 1;
            continue;
        }

        // Redundant truncation: `mov r32, r32` on a clean register.
        if let Inst::MovRR { dst, src, width: Width::D } = inst {
            if dst == src && clean.contains(dst) {
                insts[i] = Inst::Nop;
                stats.truncs_elided += 1;
                i += 1;
                continue; // value, cleanliness and bound all unchanged
            }
            // A truncation can only shrink the value: an unsigned bound
            // on `dst` survives it (handled below via makes_clean; the
            // bound map is only invalidated for *other* defs).
        }

        // Bounds-check pair: `cmp r, limit (Q)` + `ja ...` with no join in
        // between.
        if let Inst::AluRI { op: AluOp::Cmp, dst: r, imm: limit, width: Width::Q } = inst {
            if limit >= 0 && i + 1 < insts.len() && !leaders[i + 1] {
                if let Inst::Jcc { cond: Cond::A, .. } = insts[i + 1] {
                    let dominated = bound.get(r).is_some_and(|&b| b <= limit);
                    if dominated && !flags_observable_from(insts, leaders, i + 2) {
                        // r <= recorded <= limit: the branch can never be
                        // taken, and nothing reads the cmp's flags.
                        insts[i] = Inst::Nop;
                        insts[i + 1] = Inst::Nop;
                        stats.bounds_checks_elided += 1;
                    } else {
                        // Fallthrough of `ja` proves r <= limit from here.
                        let new = bound.get(r).map_or(limit, |&b| b.min(limit));
                        bound.insert(r, new);
                    }
                    i += 2;
                    continue;
                }
            }
        }

        // Transfer: cleanliness and bound invalidation on defs.
        let truncating_self_move =
            matches!(inst, Inst::MovRR { dst, src, width: Width::D } if dst == src);
        match makes_clean(&inst, &clean) {
            Some((dst, true)) => {
                clean.insert(dst);
            }
            Some((dst, false)) => {
                clean.remove(dst);
            }
            None => {
                // 8/16-bit merges preserve the upper half; everything else
                // without a (dst, _) entry defines no GPR or is handled by
                // the generic def walk below.
                for_each_def(&inst, |d| {
                    if !matches!(inst, Inst::MovRR { width: Width::W | Width::B, .. })
                        && !matches!(
                            inst,
                            Inst::MovRI { width: Width::W | Width::B, .. }
                                | Inst::Load { width: Width::W | Width::B, .. }
                        )
                    {
                        clean.remove(d);
                    }
                });
            }
        }
        // Any redefinition invalidates a recorded bound — except a
        // truncating self-move, which can only shrink the value.
        if !truncating_self_move {
            for_each_def(&inst, |d| {
                bound.remove(d);
            });
        }

        i += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::super::leaders;
    use super::*;
    use sfi_x86::{Label, Mem, Program};

    fn run_pass(p: &mut Program) -> OptStats {
        let mut stats = OptStats::default();
        let l = leaders(p);
        run(p.insts_mut(), &l, &mut stats);
        stats
    }

    fn trunc(r: Gpr) -> Inst {
        Inst::MovRR { dst: r, src: r, width: Width::D }
    }

    #[test]
    fn truncation_after_32bit_write_is_elided() {
        let mut p = Program::new();
        p.push(Inst::Load { dst: Gpr::Rbx, mem: Mem::abs(0x100), width: Width::D });
        p.push(trunc(Gpr::Rbx));
        p.push(Inst::Ret);
        let stats = run_pass(&mut p);
        assert_eq!(stats.truncs_elided, 1);
        assert_eq!(p.insts()[1], Inst::Nop);
    }

    #[test]
    fn truncation_after_64bit_write_is_kept() {
        let mut p = Program::new();
        p.push(Inst::Load { dst: Gpr::Rbx, mem: Mem::abs(0x100), width: Width::Q });
        p.push(trunc(Gpr::Rbx));
        p.push(Inst::Ret);
        let stats = run_pass(&mut p);
        assert_eq!(stats.truncs_elided, 0);
        assert_eq!(p.insts()[1], trunc(Gpr::Rbx));
    }

    #[test]
    fn truncation_not_elided_across_join() {
        let mut p = Program::new();
        let l = p.fresh_label();
        p.push(Inst::Load { dst: Gpr::Rbx, mem: Mem::abs(0x100), width: Width::D });
        p.bind(l);
        p.push(trunc(Gpr::Rbx)); // a predecessor jumping to l may be dirty
        p.push(Inst::Jcc { cond: Cond::Ne, target: l });
        p.push(Inst::Ret);
        let stats = run_pass(&mut p);
        assert_eq!(stats.truncs_elided, 0);
    }

    #[test]
    fn second_truncation_is_elided_after_first() {
        // The first self-move makes the register clean, so only the second
        // goes away.
        let mut p = Program::new();
        p.push(Inst::Load { dst: Gpr::Rbx, mem: Mem::abs(0x100), width: Width::Q });
        p.push(trunc(Gpr::Rbx));
        p.push(trunc(Gpr::Rbx));
        p.push(Inst::Ret);
        let stats = run_pass(&mut p);
        assert_eq!(stats.truncs_elided, 1);
        assert_eq!(p.insts()[1], trunc(Gpr::Rbx));
        assert_eq!(p.insts()[2], Inst::Nop);
    }

    fn check(r: Gpr, limit: i32, trap: Label) -> [Inst; 2] {
        [
            Inst::AluRI { op: AluOp::Cmp, dst: r, imm: limit, width: Width::Q },
            Inst::Jcc { cond: Cond::A, target: trap },
        ]
    }

    #[test]
    fn dominated_bounds_check_is_elided() {
        let mut p = Program::new();
        let trap = p.fresh_label();
        for inst in check(Gpr::Rbx, 100, trap) {
            p.push(inst);
        }
        p.push(Inst::Load { dst: Gpr::Rsi, mem: Mem::base(Gpr::Rbx), width: Width::D });
        for inst in check(Gpr::Rbx, 100, trap) {
            p.push(inst);
        }
        p.push(Inst::Load { dst: Gpr::Rdi, mem: Mem::base(Gpr::Rbx), width: Width::D });
        p.push(Inst::Ret);
        p.bind(trap);
        p.push(Inst::Ud2);
        let stats = run_pass(&mut p);
        assert_eq!(stats.bounds_checks_elided, 1);
        assert_eq!(p.insts()[3], Inst::Nop);
        assert_eq!(p.insts()[4], Inst::Nop);
        assert!(matches!(p.insts()[0], Inst::AluRI { .. }), "first check stays");
    }

    #[test]
    fn tighter_second_check_is_never_dropped() {
        // r <= 100 does not imply r <= 50: the second check can trap.
        let mut p = Program::new();
        let trap = p.fresh_label();
        for inst in check(Gpr::Rbx, 100, trap) {
            p.push(inst);
        }
        for inst in check(Gpr::Rbx, 50, trap) {
            p.push(inst);
        }
        p.push(Inst::Ret);
        p.bind(trap);
        p.push(Inst::Ud2);
        let stats = run_pass(&mut p);
        assert_eq!(stats.bounds_checks_elided, 0);
    }

    #[test]
    fn check_kept_when_register_redefined() {
        let mut p = Program::new();
        let trap = p.fresh_label();
        for inst in check(Gpr::Rbx, 100, trap) {
            p.push(inst);
        }
        p.push(Inst::AluRI { op: AluOp::Add, dst: Gpr::Rbx, imm: 1, width: Width::Q });
        for inst in check(Gpr::Rbx, 100, trap) {
            p.push(inst);
        }
        p.push(Inst::Ret);
        p.bind(trap);
        p.push(Inst::Ud2);
        let stats = run_pass(&mut p);
        assert_eq!(stats.bounds_checks_elided, 0, "redefined register can exceed the bound");
    }

    #[test]
    fn check_kept_across_join_point() {
        let mut p = Program::new();
        let trap = p.fresh_label();
        let join = p.fresh_label();
        for inst in check(Gpr::Rbx, 100, trap) {
            p.push(inst);
        }
        p.bind(join);
        for inst in check(Gpr::Rbx, 100, trap) {
            p.push(inst);
        }
        p.push(Inst::Jcc { cond: Cond::A, target: join });
        p.push(Inst::Ret);
        p.bind(trap);
        p.push(Inst::Ud2);
        let stats = run_pass(&mut p);
        assert_eq!(stats.bounds_checks_elided, 0, "a join predecessor may carry a larger value");
    }

    #[test]
    fn check_survives_truncating_self_move() {
        // Truncation can only shrink the unsigned value, so the recorded
        // bound still holds and the second check is elided.
        let mut p = Program::new();
        let trap = p.fresh_label();
        for inst in check(Gpr::Rbx, 100, trap) {
            p.push(inst);
        }
        p.push(Inst::Load { dst: Gpr::Rsi, mem: Mem::base(Gpr::Rbx), width: Width::D });
        p.push(trunc(Gpr::Rbx));
        for inst in check(Gpr::Rbx, 100, trap) {
            p.push(inst);
        }
        p.push(Inst::Ret);
        p.bind(trap);
        p.push(Inst::Ud2);
        let stats = run_pass(&mut p);
        assert_eq!(stats.bounds_checks_elided, 1);
    }
}
