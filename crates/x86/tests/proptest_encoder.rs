//! Property-based tests of the encoder and the emulator's ALU semantics.

use proptest::prelude::*;
use sfi_x86::emu::{FlatMemory, Image, Machine};
use sfi_x86::inst::{AluOp, ShiftAmount, ShiftOp};
use sfi_x86::{encode, Gpr, Inst, Mem, Program, Scale, Seg, Width};

fn gpr_strategy() -> impl Strategy<Value = Gpr> {
    (0usize..16).prop_map(Gpr::from_index)
}

fn nonsp_gpr() -> impl Strategy<Value = Gpr> {
    gpr_strategy().prop_filter("rsp is the stack", |g| *g != Gpr::Rsp)
}

fn mem_strategy() -> impl Strategy<Value = Mem> {
    (
        proptest::option::of(nonsp_gpr()),
        proptest::option::of((nonsp_gpr(), 0u8..4)),
        any::<i32>(),
        proptest::option::of(prop_oneof![Just(Seg::Fs), Just(Seg::Gs)]),
        any::<bool>(),
    )
        .prop_map(|(base, index, disp, seg, addr32)| Mem {
            base,
            index: index.map(|(r, s)| {
                (r, [Scale::S1, Scale::S2, Scale::S4, Scale::S8][s as usize])
            }),
            disp,
            seg,
            addr32,
        })
}

fn encodable_inst() -> impl Strategy<Value = Inst> {
    let width = prop_oneof![Just(Width::B), Just(Width::W), Just(Width::D), Just(Width::Q)];
    let alu = prop_oneof![
        Just(AluOp::Add),
        Just(AluOp::Sub),
        Just(AluOp::And),
        Just(AluOp::Or),
        Just(AluOp::Xor),
        Just(AluOp::Cmp)
    ];
    prop_oneof![
        (gpr_strategy(), gpr_strategy(), width.clone())
            .prop_map(|(dst, src, width)| Inst::MovRR { dst, src, width }),
        (gpr_strategy(), any::<i64>(), width.clone())
            .prop_map(|(dst, imm, width)| Inst::MovRI { dst, imm, width }),
        (gpr_strategy(), mem_strategy(), width.clone())
            .prop_map(|(dst, mem, width)| Inst::Load { dst, mem, width }),
        (gpr_strategy(), mem_strategy(), width.clone())
            .prop_map(|(src, mem, width)| Inst::Store { src, mem, width }),
        (gpr_strategy(), mem_strategy(), width.clone())
            .prop_map(|(dst, mem, width)| Inst::Lea { dst, mem, width }),
        (alu.clone(), gpr_strategy(), gpr_strategy(), width.clone())
            .prop_map(|(op, dst, src, width)| Inst::AluRR { op, dst, src, width }),
        (alu, gpr_strategy(), any::<i32>(), width.clone())
            .prop_map(|(op, dst, imm, width)| Inst::AluRI { op, dst, imm, width }),
        (gpr_strategy(), width.clone()).prop_map(|(dst, width)| Inst::Neg { dst, width }),
        (gpr_strategy(), 0u8..64, width)
            .prop_map(|(dst, k, width)| Inst::Shift {
                op: ShiftOp::Shl,
                dst,
                amount: ShiftAmount::Imm(k),
                width
            }),
        (gpr_strategy()).prop_map(|r| Inst::Push { reg: r }),
        (gpr_strategy()).prop_map(|r| Inst::Pop { reg: r }),
        Just(Inst::Ret),
        Just(Inst::Nop),
        Just(Inst::WrPkru),
    ]
}

proptest! {
    #[test]
    fn every_instruction_encodes_to_a_valid_length(inst in encodable_inst()) {
        let bytes = encode::encode_inst(&inst).expect("encodable subset");
        // x86-64 instructions are 1..=15 bytes.
        prop_assert!((1..=15).contains(&bytes.len()), "{inst}: {bytes:02x?}");
    }

    #[test]
    fn program_offsets_are_consistent(insts in proptest::collection::vec(encodable_inst(), 1..40)) {
        let mut p = Program::new();
        for i in &insts {
            p.push(*i);
        }
        let enc = encode::encode_program(&p).expect("encodes");
        prop_assert_eq!(enc.offsets.len(), insts.len() + 1);
        let mut total = 0usize;
        for (i, inst) in insts.iter().enumerate() {
            prop_assert_eq!(enc.offsets[i] as usize, total);
            let l = enc.inst_len(i);
            prop_assert!((1..=15).contains(&l));
            // Standalone encoding must agree with in-program length for
            // non-branch instructions.
            let solo = encode::encode_inst(inst).expect("encodable");
            prop_assert_eq!(l, solo.len(), "inst {}: {}", i, inst);
            total += l;
        }
        prop_assert_eq!(total, enc.len());
    }

    #[test]
    fn alu_semantics_match_rust(
        a in any::<u64>(),
        b in any::<u64>(),
        op_sel in 0u8..5,
        wide in any::<bool>(),
    ) {
        let width = if wide { Width::Q } else { Width::D };
        let op = [AluOp::Add, AluOp::Sub, AluOp::And, AluOp::Or, AluOp::Xor][op_sel as usize];
        let mut p = Program::new();
        p.push(Inst::MovRI { dst: Gpr::Rbx, imm: a as i64, width: Width::Q });
        p.push(Inst::MovRI { dst: Gpr::Rcx, imm: b as i64, width: Width::Q });
        p.push(Inst::AluRR { op, dst: Gpr::Rbx, src: Gpr::Rcx, width });
        p.push(Inst::Ret);
        let mut m = Machine::new();
        let mut mem = FlatMemory::new(64);
        let image = Image::load(p).expect("encodes");
        m.run_image(&image, &mut mem).expect("runs");
        let (wa, wb) = (width.mask(a), width.mask(b));
        let expect = width.mask(match op {
            AluOp::Add => wa.wrapping_add(wb),
            AluOp::Sub => wa.wrapping_sub(wb),
            AluOp::And => wa & wb,
            AluOp::Or => wa | wb,
            AluOp::Xor => wa ^ wb,
            AluOp::Cmp => unreachable!(),
        });
        let got = m.gpr(Gpr::Rbx);
        prop_assert_eq!(width.mask(got), expect);
        if width == Width::D {
            prop_assert_eq!(got >> 32, 0, "32-bit writes must zero-extend");
        }
    }

    #[test]
    fn unsigned_compare_flags_match_rust(a in any::<u64>(), b in any::<u64>()) {
        let mut p = Program::new();
        p.push(Inst::MovRI { dst: Gpr::Rbx, imm: a as i64, width: Width::Q });
        p.push(Inst::MovRI { dst: Gpr::Rcx, imm: b as i64, width: Width::Q });
        p.push(Inst::AluRR { op: AluOp::Cmp, dst: Gpr::Rbx, src: Gpr::Rcx, width: Width::Q });
        p.push(Inst::Setcc { cond: sfi_x86::Cond::B, dst: Gpr::Rdx });
        p.push(Inst::Setcc { cond: sfi_x86::Cond::E, dst: Gpr::Rsi });
        p.push(Inst::Setcc { cond: sfi_x86::Cond::L, dst: Gpr::Rdi });
        p.push(Inst::Ret);
        let mut m = Machine::new();
        let mut mem = FlatMemory::new(64);
        let image = Image::load(p).expect("encodes");
        m.run_image(&image, &mut mem).expect("runs");
        prop_assert_eq!(m.gpr(Gpr::Rdx) != 0, a < b, "unsigned below");
        prop_assert_eq!(m.gpr(Gpr::Rsi) != 0, a == b, "equal");
        prop_assert_eq!(m.gpr(Gpr::Rdi) != 0, (a as i64) < (b as i64), "signed less");
    }

    #[test]
    fn effective_address_matches_manual_computation(
        mem in mem_strategy(),
        rv in any::<u64>(),
        gs in any::<u32>(),
    ) {
        let gpr = |_: Gpr| rv;
        let seg = |_: Seg| u64::from(gs);
        let ea = mem.effective_addr(gpr, seg);
        let mut manual = (mem.disp as i64 as u64)
            .wrapping_add(mem.base.map_or(0, |_| rv))
            .wrapping_add(mem.index.map_or(0, |(_, s)| rv.wrapping_mul(s.factor())));
        if mem.addr32 {
            manual &= 0xFFFF_FFFF;
        }
        if mem.seg.is_some() {
            manual = manual.wrapping_add(u64::from(gs));
        }
        prop_assert_eq!(ea, manual);
    }
}
