//! Table 2: compiled binary sizes of the SPEC benchmarks, stock Wasm vs
//! Wasm with Segue (the paper reports a median reduction of 5.9%, max
//! 12.3%).

use sfi_bench::{compile_workload, row};
use sfi_core::Strategy;

fn main() {
    println!("Table 2: SPEC CPU 2006 compiled code size, Wasm2c vs Wasm2c+Segue\n");
    let widths = [16, 12, 14, 12];
    row(&["benchmark", "wasm2c", "wasm2c+segue", "reduction"], &widths);
    let mut reductions = Vec::new();
    for w in sfi_workloads::spec2006() {
        let base = compile_workload(&w, Strategy::GuardRegion, false).code_size();
        let segue = compile_workload(&w, Strategy::Segue, false).code_size();
        let red = (base as f64 - segue as f64) / base as f64 * 100.0;
        reductions.push(red);
        row(
            &[
                w.name.into(),
                format!("{base} B"),
                format!("{segue} B"),
                format!("{red:.1}%"),
            ],
            &widths,
        );
    }
    reductions.sort_by(|a, b| a.partial_cmp(b).expect("no NaNs"));
    let median = reductions[reductions.len() / 2];
    let max = reductions.last().expect("nonempty");
    println!("\nmedian reduction {median:.1}%, max {max:.1}% (paper: median 5.9%, max 12.3%)");
}
