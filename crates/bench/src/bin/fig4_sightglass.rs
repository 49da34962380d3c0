//! Figure 4: Sightglass on WAMR, normalized to native, with WAMR's
//! vectorization pass enabled.
//!
//! WAMR's "limited" Segue frees the register and uses gs addressing but
//! keeps the reserved GPR for stores in the loads-only configuration. The
//! paper's headline here is the *regression*: full Segue breaks the
//! store-vectorization pattern and slows memmove (+35.6%) and sieve
//! (+48.7%), while Segue-on-loads-only shows no slowdowns.

use sfi_bench::{measure, row};
use sfi_core::Strategy;

fn main() {
    println!("Figure 4: Sightglass on WAMR (normalized runtime, native = 100%, vectorizer on)\n");
    let widths = [12, 10, 12, 16, 18];
    row(&["benchmark", "wamr", "wamr+segue", "segue-on-loads", "segue vs wamr"], &widths);
    for w in sfi_workloads::sightglass() {
        let native = measure(&w, Strategy::Native, true);
        let guard = measure(&w, Strategy::GuardRegion, true);
        let segue = measure(&w, Strategy::Segue, true);
        let loads = measure(&w, Strategy::SegueLoads, true);
        assert_eq!(guard.result, segue.result, "{}", w.name);
        assert_eq!(guard.result, loads.result, "{}", w.name);
        let bn = guard.cycles / native.cycles * 100.0;
        let sn = segue.cycles / native.cycles * 100.0;
        let ln = loads.cycles / native.cycles * 100.0;
        let delta = (segue.cycles - guard.cycles) / guard.cycles * 100.0;
        row(
            &[
                w.name.into(),
                format!("{bn:.1}%"),
                format!("{sn:.1}%"),
                format!("{ln:.1}%"),
                format!("{delta:+.1}%"),
            ],
            &widths,
        );
    }
    println!(
        "\n(paper: memmove +35.6% and sieve +48.7% slower with full Segue — the\n\
         store-vectorizer interaction of §4.2; Segue-on-loads shows no slowdowns)"
    );
}
