//! The emulator's per-image cost table (DESIGN.md §14): every entry is the
//! cost model's own answer for its instruction, and a machine running
//! another model is charged under that model, never under the image's
//! default table.

use sfi_bench::config_for;
use sfi_core::harness::execute_export_on;
use sfi_core::{compile, Strategy};
use sfi_x86::cost::{CostModel, RunStats};
use sfi_x86::emu::{FlatMemory, Image, Machine};
use sfi_x86::{Gpr, Inst, Mem, Program, Provenance, Seg, Width};

#[test]
fn table_entries_equal_the_model_for_every_corpus_image() {
    let model = CostModel::default();
    for w in sfi_workloads::all() {
        let module = w.module();
        for strategy in [Strategy::GuardRegion, Strategy::Segue, Strategy::BoundsCheck] {
            let base = config_for(strategy, module.mem_min_pages, false);
            for cfg in [base.clone(), base.optimized()] {
                let cm = compile(&module, &cfg).expect("compiles");
                let (image, table) = (&cm.image, cm.image.costs());
                assert_eq!(*table.model(), model, "images carry the default model's table");
                for (pc, inst) in image.program().insts().iter().enumerate() {
                    let bytes = image.encoded().inst_len(pc);
                    let at =
                        format!("{} {strategy} {} pc {pc}: {inst:?}", w.name, cfg.opt_level.name());
                    let c = table.get(pc);
                    assert_eq!(
                        c.throughput.to_bits(),
                        model.throughput_cycles(inst, bytes).to_bits(),
                        "{at}"
                    );
                    assert_eq!(c.serial.to_bits(), model.serial_cycles(inst).to_bits(), "{at}");
                    assert_eq!(f64::from(c.spec_uops), model.uops(inst).ceil().max(1.0), "{at}");
                    assert_eq!(c.bytes as usize, bytes, "{at}");
                }
            }
        }
    }
}

/// The default model without the address-size-override decode tax.
fn untaxed() -> CostModel {
    CostModel { addr32_decode_cycles: 0.0, ..CostModel::default() }
}

/// A straight-line Segue image: `%gs`-relative, address-size-overridden
/// loads and stores plus their `lea`s, all tagged `SegueAddressing`, so
/// each instruction retires exactly once, in program order.
fn segue_image() -> Image {
    let mut p = Program::new();
    p.push(Inst::MovRI { dst: Gpr::Rbx, imm: 0x40, width: Width::Q });
    for i in 0..24 {
        let mem = Mem::base_disp(Gpr::Rbx, 8 * i).with_seg(Seg::Gs).with_addr32();
        p.push(Inst::Load { dst: Gpr::Rax, mem, width: Width::Q });
        p.push(Inst::AluRI { op: sfi_x86::AluOp::Add, dst: Gpr::Rax, imm: i, width: Width::Q });
        p.push(Inst::Store { src: Gpr::Rax, mem, width: Width::D });
        p.push(Inst::Lea { dst: Gpr::Rcx, mem: Mem::base_disp(Gpr::Rbx, i), width: Width::D });
        p.tag_last(4, Provenance::SegueAddressing);
    }
    p.push(Inst::Ret);
    Image::load(p).expect("encodes")
}

/// Runs `image` twice on one machine under `model` and returns the second
/// run, whose caches are warm: it retires every instruction without a miss.
fn warm_run(image: &Image, model: CostModel) -> RunStats {
    let mut m = Machine::new();
    m.cost = model;
    m.regs.gs_base = 0x1000;
    let mut mem = FlatMemory::new(0x2000);
    m.run_image(image, &mut mem).expect("cold run");
    let s = m.run_image(image, &mut mem).expect("warm run");
    assert_eq!((s.icache_misses, s.dcache_misses, s.branch_misses), (0, 0, 0));
    s
}

/// The `SegueAddressing` bucket of one missless straight-line run,
/// recomputed in retire order from `model`'s own methods: throughput, the
/// load latency a load pays, then the serial charge.
fn recompute(image: &Image, model: &CostModel) -> f64 {
    let mut bucket = 0.0;
    for (pc, inst) in image.program().insts().iter().enumerate() {
        if image.program().prov_at(pc) != Provenance::SegueAddressing {
            continue;
        }
        let mut c = model.throughput_cycles(inst, image.encoded().inst_len(pc));
        if matches!(inst, Inst::Load { .. }) {
            c += model.load_cycles;
        }
        bucket += c + model.serial_cycles(inst);
    }
    bucket
}

#[test]
fn a_machine_with_another_model_is_charged_under_it() {
    let image = segue_image();
    let bucket = |s: RunStats| s.prov_cycles[Provenance::SegueAddressing.index()];
    let taxed = bucket(warm_run(&image, CostModel::default()));
    let free = bucket(warm_run(&image, untaxed()));
    assert_ne!(free, taxed, "a zero prefix tax must move the Segue bucket");
    assert_eq!(taxed.to_bits(), recompute(&image, &CostModel::default()).to_bits());
    assert_eq!(free.to_bits(), recompute(&image, &untaxed()).to_bits());

    // Compiled Segue code puts its prefixed accesses in `guest_compute`
    // (the `lea`s tagged `segue_addressing` carry no prefix), so on a
    // corpus kernel the tax shows in the total.
    let module = sfi_workloads::sightglass()
        .into_iter()
        .find(|w| w.name == "matrix")
        .expect("matrix kernel")
        .module();
    let cm = compile(&module, &config_for(Strategy::Segue, module.mem_min_pages, false))
        .expect("compiles");
    let cycles = |model: CostModel| {
        let mut m = Machine::new();
        m.cost = model;
        execute_export_on(&cm, "run", &[], &mut m).expect("runs").stats.cycles
    };
    assert!(cycles(untaxed()) < cycles(CostModel::default()), "the tax is charged per access");
}
