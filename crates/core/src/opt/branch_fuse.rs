//! Compare-branch fusion.
//!
//! The baseline tier compiles every Wasm comparison to a value
//! (`set<cc> r`) and every `br_if` to a test of that value
//! (`test r, r; jne L`) — straightforward, but it costs two extra
//! instructions and an extra register on every loop guard:
//!
//! ```text
//! cmp   r13d, r12d        cmp r13d, r12d
//! setae r11b       ==>    jae .L3
//! test  r11d, r11d
//! jne   .L3
//! ```
//!
//! The fused branch consumes the *original* comparison's flags, so the
//! rewrite is legal only when
//!
//! 1. the three instructions are adjacent with no branch target between
//!    them (the `set`/`test` pair must see exactly the flags the final
//!    `jcc` will),
//! 2. the materialized boolean register is dead on both sides of the
//!    branch (checked by a conservative cross-block scan), and
//! 3. no later instruction observes the `test`'s flags (the fusion
//!    replaces them with the comparison's flags).

use sfi_x86::{Gpr, Inst, Program};

use super::{flags_observable_from, reads, OptStats};

pub(crate) fn run(program: &mut Program, leaders: &[bool], stats: &mut OptStats) {
    let mut scan = Scan { seen: vec![0; program.len()], epoch: 0, work: Vec::new() };
    let mut i = 0;
    while i + 2 < program.len() {
        let insts = program.insts();
        let window = (insts[i], insts[i + 1], insts[i + 2]);
        let (Inst::Setcc { cond, dst }, Inst::TestRR { a, b, .. }, Inst::Jcc { cond: jc, target }) =
            window
        else {
            i += 1;
            continue;
        };
        let polarity = match jc {
            sfi_x86::Cond::Ne => Some(cond),
            sfi_x86::Cond::E => Some(cond.negate()),
            _ => None,
        };
        let Some(fused) = polarity else {
            i += 1;
            continue;
        };
        if a != dst
            || b != dst
            || leaders[i + 1]
            || leaders[i + 2]
            // The test's flags must not outlive the branch…
            || flags_observable_from(insts, leaders, i + 3)
            // …and neither must the boolean itself, on either path.
            || !scan.reg_dead_from(program, i + 3, dst)
            || !program.resolve(target).is_some_and(|t| scan.reg_dead_from(program, t, dst))
        {
            i += 1;
            continue;
        }
        let insts = program.insts_mut();
        insts[i] = Inst::Nop;
        insts[i + 1] = Inst::Nop;
        insts[i + 2] = Inst::Jcc { cond: fused, target };
        stats.branches_fused += 1;
        i += 3;
    }
}

/// The state of the liveness scans, shared by every scan of one run:
/// instruction `i` is visited by the current scan when `seen[i] == epoch`,
/// so starting a scan is one increment, not a fresh `n`-entry vector.
struct Scan {
    seen: Vec<u32>,
    epoch: u32,
    work: Vec<usize>,
}

impl Scan {
    /// Conservative "is `r` dead at `start`?": depth-first scan over the
    /// instruction graph; `r` is dead if every path reaches a full redefinition
    /// (or falls off the program) before any read. Calls and indirect jumps are
    /// treated as reads (the callee is outside the analysis), so the answer is
    /// `false` unless provably dead.
    fn reg_dead_from(&mut self, program: &Program, start: usize, r: Gpr) -> bool {
        let insts = program.insts();
        self.epoch += 1;
        self.work.clear();
        self.work.push(start);
        while let Some(mut i) = self.work.pop() {
            loop {
                if i >= insts.len() {
                    break; // fell off the program: dead on this path
                }
                if self.seen[i] == self.epoch {
                    break;
                }
                self.seen[i] = self.epoch;
                let inst = insts[i];
                match inst {
                    Inst::Call { .. }
                    | Inst::CallReg { .. }
                    | Inst::CallHost { .. }
                    | Inst::JmpReg { .. } => return false,
                    Inst::Ret | Inst::Ud2 => break, // leaves the function: dead
                    Inst::Jmp { target } => {
                        match program.resolve(target) {
                            Some(t) => i = t,
                            None => return false,
                        }
                        continue;
                    }
                    Inst::Jcc { target, .. } => {
                        match program.resolve(target) {
                            Some(t) => self.work.push(t),
                            None => return false,
                        }
                    }
                    _ => {
                        if reads(&inst, r) {
                            return false;
                        }
                        if super::defines(&inst, r) {
                            break; // fully overwritten before any read: dead
                        }
                    }
                }
                i += 1;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use sfi_x86::inst::AluOp;
    use sfi_x86::{Cond, Gpr, Inst, Program, Width};

    use crate::opt::OptStats;

    fn run(p: &mut Program) -> OptStats {
        let mut stats = OptStats::default();
        let leaders = crate::opt::leaders(p);
        super::run(p, &leaders, &mut stats);
        stats
    }

    /// The canonical loop guard: cmp + setae + test + jne fuses to cmp + jae.
    #[test]
    fn loop_guard_fuses_to_single_branch() {
        let mut p = Program::new();
        let exit = p.fresh_label();
        p.push(Inst::AluRR { op: AluOp::Cmp, dst: Gpr::R13, src: Gpr::R12, width: Width::D });
        p.push(Inst::Setcc { cond: Cond::Ae, dst: Gpr::R11 });
        p.push(Inst::TestRR { a: Gpr::R11, b: Gpr::R11, width: Width::D });
        p.push(Inst::Jcc { cond: Cond::Ne, target: exit });
        // Body redefines the scratch before reading it.
        p.push(Inst::MovRI { dst: Gpr::R11, imm: 7, width: Width::D });
        p.push(Inst::Ret);
        p.bind(exit);
        p.push(Inst::MovRI { dst: Gpr::R11, imm: 9, width: Width::D });
        p.push(Inst::Ret);

        let stats = run(&mut p);
        assert_eq!(stats.branches_fused, 1);
        assert!(matches!(p.insts()[1], Inst::Nop));
        assert!(matches!(p.insts()[2], Inst::Nop));
        assert!(matches!(p.insts()[3], Inst::Jcc { cond: Cond::Ae, .. }));
    }

    /// `je` inverts the condition instead of copying it.
    #[test]
    fn je_polarity_negates_the_condition() {
        let mut p = Program::new();
        let exit = p.fresh_label();
        p.push(Inst::AluRR { op: AluOp::Cmp, dst: Gpr::R13, src: Gpr::R12, width: Width::D });
        p.push(Inst::Setcc { cond: Cond::B, dst: Gpr::Rcx });
        p.push(Inst::TestRR { a: Gpr::Rcx, b: Gpr::Rcx, width: Width::D });
        p.push(Inst::Jcc { cond: Cond::E, target: exit });
        p.push(Inst::Ret);
        p.bind(exit);
        p.push(Inst::Ret);

        let stats = run(&mut p);
        assert_eq!(stats.branches_fused, 1);
        assert!(matches!(p.insts()[3], Inst::Jcc { cond: Cond::Ae, .. }));
    }

    /// If the boolean is read after the branch, the pattern must survive.
    #[test]
    fn fusion_rejected_when_boolean_is_still_read() {
        let mut p = Program::new();
        let exit = p.fresh_label();
        p.push(Inst::AluRR { op: AluOp::Cmp, dst: Gpr::R13, src: Gpr::R12, width: Width::D });
        p.push(Inst::Setcc { cond: Cond::Ae, dst: Gpr::R11 });
        p.push(Inst::TestRR { a: Gpr::R11, b: Gpr::R11, width: Width::D });
        p.push(Inst::Jcc { cond: Cond::Ne, target: exit });
        p.push(Inst::Ret); // Ret path: dead
        p.bind(exit);
        // Taken path keeps using the materialized boolean.
        p.push(Inst::AluRR { op: AluOp::Add, dst: Gpr::Rax, src: Gpr::R11, width: Width::D });
        p.push(Inst::Ret);

        let stats = run(&mut p);
        assert_eq!(stats.branches_fused, 0);
        assert!(matches!(p.insts()[1], Inst::Setcc { .. }));
    }

    /// A branch target between the pieces makes the flags unpredictable.
    #[test]
    fn fusion_rejected_across_a_join_point() {
        let mut p = Program::new();
        let exit = p.fresh_label();
        let join = p.fresh_label();
        p.push(Inst::AluRR { op: AluOp::Cmp, dst: Gpr::R13, src: Gpr::R12, width: Width::D });
        p.push(Inst::Setcc { cond: Cond::Ae, dst: Gpr::R11 });
        p.bind(join); // someone jumps here with different flags
        p.push(Inst::TestRR { a: Gpr::R11, b: Gpr::R11, width: Width::D });
        p.push(Inst::Jcc { cond: Cond::Ne, target: exit });
        p.push(Inst::Jmp { target: join });
        p.bind(exit);
        p.push(Inst::Ret);

        let stats = run(&mut p);
        assert_eq!(stats.branches_fused, 0);
    }

    /// A call on the fallthrough path hides the register's fate.
    #[test]
    fn fusion_rejected_when_a_call_obscures_liveness() {
        let mut p = Program::new();
        let exit = p.fresh_label();
        let callee = p.fresh_label();
        p.push(Inst::AluRR { op: AluOp::Cmp, dst: Gpr::R13, src: Gpr::R12, width: Width::D });
        p.push(Inst::Setcc { cond: Cond::Ae, dst: Gpr::R11 });
        p.push(Inst::TestRR { a: Gpr::R11, b: Gpr::R11, width: Width::D });
        p.push(Inst::Jcc { cond: Cond::Ne, target: exit });
        p.push(Inst::Call { target: callee });
        p.push(Inst::Ret);
        p.bind(exit);
        p.push(Inst::Ret);
        p.bind(callee);
        p.push(Inst::Ret);

        let stats = run(&mut p);
        assert_eq!(stats.branches_fused, 0);
    }
}
