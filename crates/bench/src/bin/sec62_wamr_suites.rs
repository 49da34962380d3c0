//! §6.2 (text): PolybenchC and Dhrystone on WAMR.
//!
//! The paper reports PolybenchC running 6% *faster* than native under Wasm
//! (pointer compression), improving to 10% with Segue; Dhrystone 9.7%
//! faster, improving to 28.2%.

use sfi_bench::{measure, row};
use sfi_core::Strategy;
use sfi_faas::stats::geomean;

fn main() {
    println!("§6.2: PolybenchC and Dhrystone on WAMR (normalized runtime, native = 100%)\n");
    let widths = [12, 10, 12];
    row(&["benchmark", "wamr", "wamr+segue"], &widths);
    let mut base = Vec::new();
    let mut segue = Vec::new();
    for w in sfi_workloads::polybench() {
        let n = measure(&w, Strategy::Native, true);
        let g = measure(&w, Strategy::GuardRegion, true);
        let s = measure(&w, Strategy::Segue, true);
        assert_eq!(g.result, s.result, "{}", w.name);
        base.push(g.cycles / n.cycles);
        segue.push(s.cycles / n.cycles);
        row(
            &[
                w.name.into(),
                format!("{:.1}%", g.cycles / n.cycles * 100.0),
                format!("{:.1}%", s.cycles / n.cycles * 100.0),
            ],
            &widths,
        );
    }
    let gb = geomean(&base);
    let gs = geomean(&segue);
    row(&["geomean".into(), format!("{:.1}%", gb * 100.0), format!("{:.1}%", gs * 100.0)], &widths);
    println!(
        "\nPolybenchC vs native: wasm {:+.1}%, wasm+segue {:+.1}% \
         (paper: wasm 6% faster, segue 10% faster)",
        (1.0 - gb) * 100.0,
        (1.0 - gs) * 100.0
    );

    let d = sfi_workloads::dhrystone();
    let n = measure(&d, Strategy::Native, true);
    let g = measure(&d, Strategy::GuardRegion, true);
    let s = measure(&d, Strategy::Segue, true);
    println!(
        "\nDhrystone vs native: wasm {:+.1}%, wasm+segue {:+.1}% \
         (paper: wasm 9.7% faster, segue 28.2% faster)",
        (1.0 - g.cycles / n.cycles) * 100.0,
        (1.0 - s.cycles / n.cycles) * 100.0
    );
}
