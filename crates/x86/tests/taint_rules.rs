//! The transient taint rules, one data-flow form at a time.
//!
//! A Spectre-v1 gadget is trained in-bounds, then mispredicts once with a
//! secret-region address: the wrong path loads a secret byte into `rax`,
//! runs a *derive* step that computes the probe base `r9`, and loads from
//! `[r9 + 0x200]`. That load transmits exactly when the derive step
//! carries taint from `rax` to `r9`, so each propagating form must be
//! flagged and each taint-killing form must not.

use sfi_x86::emu::{FlatMemory, Image, Machine, SpecConfig};
use sfi_x86::inst::{AluOp, ShiftAmount, ShiftOp};
use sfi_x86::{Cond, Gpr, Inst, Mem, Program, Scale, Width};

const Q: Width = Width::Q;

fn leaks(derive: &[Inst]) -> u64 {
    let mut p = Program::new();
    let top = p.fresh_label();
    let oob = p.fresh_label();
    p.push(Inst::MovRI { dst: Gpr::Rsp, imm: 0x800, width: Q });
    p.push(Inst::MovRI { dst: Gpr::Rdx, imm: 0x1000, width: Q });
    p.push(Inst::MovRI { dst: Gpr::Rcx, imm: 16, width: Q });
    p.bind(top);
    p.push(Inst::MovRI { dst: Gpr::Rbx, imm: 8, width: Q });
    p.push(Inst::AluRI { op: AluOp::Cmp, dst: Gpr::Rcx, imm: 1, width: Q });
    p.push(Inst::Cmov { cond: Cond::E, dst: Gpr::Rbx, src: Gpr::Rdx, width: Q });
    p.push(Inst::AluRI { op: AluOp::Cmp, dst: Gpr::Rbx, imm: 16, width: Q });
    p.push(Inst::Jcc { cond: Cond::A, target: oob });
    p.push(Inst::LoadZx { dst: Gpr::Rax, mem: Mem::base(Gpr::Rbx), width: Width::B });
    p.push(Inst::MovRI { dst: Gpr::R9, imm: 0, width: Q });
    for &inst in derive {
        p.push(inst);
    }
    p.push(Inst::Load { dst: Gpr::R8, mem: Mem::base_disp(Gpr::R9, 0x200), width: Q });
    p.bind(oob);
    p.push(Inst::AluRI { op: AluOp::Sub, dst: Gpr::Rcx, imm: 1, width: Q });
    p.push(Inst::Jcc { cond: Cond::Ne, target: top });
    p.push(Inst::Ret);

    let mut m = Machine::new();
    m.enable_speculation(SpecConfig::new(SpecConfig::DEFAULT_WINDOW, 0x1000, 0x1040).unwrap());
    let image = Image::load(p).expect("encodes");
    let stats = m.run_image(&image, &mut FlatMemory::new(0x20000)).expect("runs");
    assert!(stats.spec_flushes > 0, "the hostile trip must open a window");
    stats.spec_leaks
}

#[test]
fn every_propagating_form_carries_taint_to_the_transmit() {
    let (r9, rax) = (Gpr::R9, Gpr::Rax);
    let cases: [(&str, Vec<Inst>); 10] = [
        ("mov r, r", vec![Inst::MovRR { dst: r9, src: rax, width: Q }]),
        ("alu r, r", vec![Inst::AluRR { op: AluOp::Add, dst: r9, src: rax, width: Q }]),
        (
            "alu r, imm",
            vec![
                Inst::MovRR { dst: r9, src: rax, width: Q },
                Inst::AluRI { op: AluOp::And, dst: r9, imm: 63, width: Q },
            ],
        ),
        ("imul r, r", vec![Inst::Imul { dst: r9, src: rax, width: Q }]),
        ("imul r, r, imm", vec![Inst::ImulRRI { dst: r9, src: rax, imm: 64, width: Q }]),
        ("lea", vec![Inst::Lea { dst: r9, mem: Mem::isd(rax, Scale::S8, 0), width: Q }]),
        ("movzx", vec![Inst::Movzx { dst: r9, src: rax, from: Width::B }]),
        (
            "shift",
            vec![
                Inst::MovRR { dst: r9, src: rax, width: Q },
                Inst::Shift { op: ShiftOp::Shl, dst: r9, amount: ShiftAmount::Imm(6), width: Q },
            ],
        ),
        (
            "store-to-load forwarding",
            vec![
                Inst::Store { src: rax, mem: Mem::abs(0x300), width: Q },
                Inst::Load { dst: r9, mem: Mem::abs(0x300), width: Q },
            ],
        ),
        ("push / pop", vec![Inst::Push { reg: rax }, Inst::Pop { reg: r9 }]),
    ];
    for (form, derive) in cases {
        assert!(leaks(&derive) > 0, "{form}: taint must reach the transmit address");
    }
}

#[test]
fn overwriting_the_secret_kills_its_taint() {
    let (r9, rax) = (Gpr::R9, Gpr::Rax);
    let cases: [(&str, Vec<Inst>); 3] = [
        ("no derive step", vec![]),
        ("mov from an untainted register", vec![Inst::MovRR { dst: r9, src: Gpr::Rbx, width: Q }]),
        (
            "mov imm over the secret",
            vec![
                Inst::MovRR { dst: r9, src: rax, width: Q },
                Inst::MovRI { dst: r9, imm: 0x40, width: Q },
            ],
        ),
    ];
    for (form, derive) in cases {
        assert_eq!(leaks(&derive), 0, "{form}: no secret-derived address");
    }
}
