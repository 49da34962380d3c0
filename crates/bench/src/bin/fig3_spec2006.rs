//! Figure 3: SPEC CPU 2006 on Wasm2c, normalized to native.
//!
//! Reproduces the paper's headline Segue result: per-benchmark runtime of
//! the guard-region baseline and Segue, normalized to native execution, plus
//! the geomean and the fraction of Wasm's overhead Segue eliminates
//! (the paper reports 44.7% on this suite, with 429_mcf faster than native
//! and 473_astar slightly slower under Segue).

use sfi_bench::{measure, row};
use sfi_core::Strategy;
use sfi_faas::stats::geomean;

fn main() {
    println!("Figure 3: SPEC CPU 2006 on Wasm2c (normalized runtime, native = 100%)\n");
    let widths = [16, 10, 12, 12, 10];
    row(&["benchmark", "native", "wasm2c", "wasm2c+segue", "Δsegue"], &widths);

    let mut base_norm = Vec::new();
    let mut segue_norm = Vec::new();
    for w in sfi_workloads::spec2006() {
        let native = measure(&w, Strategy::Native, false);
        let guard = measure(&w, Strategy::GuardRegion, false);
        let segue = measure(&w, Strategy::Segue, false);
        assert_eq!(guard.result, segue.result, "{}: strategies must agree", w.name);
        let bn = guard.cycles / native.cycles;
        let sn = segue.cycles / native.cycles;
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
    let eliminated = (gb - gs) / (gb - 1.0) * 100.0;
    println!(
        "\nWasm overhead: {:.1}% baseline → {:.1}% with Segue; Segue eliminates {:.1}% of the overhead",
        (gb - 1.0) * 100.0,
        (gs - 1.0) * 100.0,
        eliminated
    );
    println!("(paper: geomean reduced by 8.3 points, 44.7% of overhead eliminated)");
}
