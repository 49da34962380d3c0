//! Figure 5: SPEC CPU 2017 under LFI, normalized to native.
//!
//! The paper's LFI x86-64 backend costs 17.4% (geomean) over native;
//! applying Segue to its memory sandboxing cuts that to 9.4%, eliminating
//! 46% of the overhead — while the control-flow pinning (which cannot use
//! segment registers, §4.3) stays.

use sfi_bench::{compile_workload, row};
use sfi_core::Strategy;
use sfi_faas::stats::geomean;
use sfi_lfi::{execute_rewritten, LfiConfig};

fn main() {
    println!("Figure 5: SPEC CPU 2017 on LFI (normalized runtime, native = 100%)\n");
    let widths = [18, 10, 10, 12, 10];
    row(&["benchmark", "native", "lfi", "lfi+segue", "Δsegue"], &widths);

    let mut base_norm = Vec::new();
    let mut segue_norm = Vec::new();
    for w in sfi_workloads::spec2017() {
        // The native baseline is the unconstrained build; the LFI input is
        // built with %r14/%r10 reserved (à la -ffixed-r14), whose cost is
        // part of LFI's overhead.
        let cm = compile_workload(&w, Strategy::Native, false);
        let native = sfi_bench::run_compiled(&w, &cm);
        let module = w.native_module();
        let mut lfi_build_cfg = sfi_bench::config_for(Strategy::Native, module.mem_min_pages, false);
        lfi_build_cfg.lfi_reserved_regs = true;
        let cm_lfi = sfi_core::compile(&module, &lfi_build_cfg).expect("corpus compiles");
        let lfi_cfg = LfiConfig { sandbox_base: 0, ..LfiConfig::default() };
        let segue_cfg = LfiConfig { sandbox_base: 0, ..LfiConfig::with_segue() };
        let (r_base, s_base) = execute_rewritten(&cm_lfi, &lfi_cfg, "run", &[]);
        let (r_segue, s_segue) = execute_rewritten(&cm_lfi, &segue_cfg, "run", &[]);
        assert_eq!(r_base, r_segue, "{}: LFI modes must agree", w.name);
        assert_eq!(r_base, native.result, "{}: LFI must match native", w.name);
        let bn = s_base.cycles / native.cycles;
        let sn = s_segue.cycles / native.cycles;
        base_norm.push(bn);
        segue_norm.push(sn);
        row(
            &[
                w.name.into(),
                "100.0%".into(),
                format!("{:.1}%", bn * 100.0),
                format!("{:.1}%", sn * 100.0),
                format!("{:+.1}%", (sn - bn) * 100.0),
            ],
            &widths,
        );
    }
    let gb = geomean(&base_norm);
    let gs = geomean(&segue_norm);
    row(
        &[
            "geomean".into(),
            "100.0%".into(),
            format!("{:.1}%", gb * 100.0),
            format!("{:.1}%", gs * 100.0),
            format!("{:+.1}%", (gs - gb) * 100.0),
        ],
        &widths,
    );
    println!(
        "\nLFI overhead: {:.1}% → {:.1}% with Segue; {:.1}% of the overhead eliminated",
        (gb - 1.0) * 100.0,
        (gs - 1.0) * 100.0,
        (gb - gs) / (gb - 1.0) * 100.0
    );
    println!("(paper: 17.4% → 9.4%, eliminating 46%)");
}
