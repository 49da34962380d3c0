//! Ablations for the design choices DESIGN.md calls out:
//!
//! 1. stripe-count sweep — how ColorGuard's density scales with the number
//!    of available protection keys (the "up to 15×" claim, §3.2);
//! 2. guard-size sweep — the guard-pages-vs-bounds-checks trade-off that
//!    motivates ColorGuard in the first place (§2, §8);
//! 3. Segue component ablation — loads-only vs stores-only vs full, and
//!    with/without the vectorizer, on the interaction benchmark.

use sfi_bench::{measure, row};
use sfi_core::Strategy;
use sfi_pool::{compute_layout, PoolConfig};

fn main() {
    // ---- 1. density vs available keys ----
    println!("Ablation 1: instances per 47-bit address space vs available MPK keys\n");
    let widths = [6, 12, 10];
    row(&["keys", "slots", "vs none"], &widths);
    let base = compute_layout(&PoolConfig::scaling_benchmark(0)).expect("layout").num_slots;
    for keys in [0u8, 2, 4, 8, 15] {
        let l = compute_layout(&PoolConfig::scaling_benchmark(keys)).expect("layout");
        row(
            &[
                format!("{keys}"),
                format!("{}", l.num_slots),
                format!("{:.1}×", l.num_slots as f64 / base as f64),
            ],
            &widths,
        );
    }

    // ---- 2. guard size vs density (no striping) ----
    println!("\nAblation 2: guard size vs density (4 GiB reservations, no MPK)\n");
    row(&["guard", "slots", ""], &widths);
    for guard_gib in [1u64, 2, 4, 6, 8] {
        let cfg = PoolConfig {
            guard_bytes: guard_gib << 30,
            num_pkeys_available: 0,
            ..PoolConfig::scaling_benchmark(0)
        };
        let l = compute_layout(&cfg).expect("layout");
        row(&[format!("{guard_gib} GiB"), format!("{}", l.num_slots), String::new()], &widths);
    }
    println!("(smaller guards need explicit bounds checks — Strategy::BoundsCheck — which");
    println!(" cost runtime instead of address space; ColorGuard escapes the trade-off)");

    // ---- 3. Segue component ablation on the vectorizer benchmark ----
    println!("\nAblation 3: Segue variants on memmove (vectorizer on/off), cycles normalized to native\n");
    let w = sfi_workloads::sightglass()
        .into_iter()
        .find(|w| w.name == "memmove")
        .expect("corpus has memmove");
    let widths = [14, 16, 16];
    row(&["strategy", "vectorizer off", "vectorizer on"], &widths);
    for s in [Strategy::GuardRegion, Strategy::SegueLoads, Strategy::Segue] {
        let n_off = measure(&w, Strategy::Native, false).cycles;
        let n_on = measure(&w, Strategy::Native, true).cycles;
        let off = measure(&w, s, false).cycles / n_off * 100.0;
        let on = measure(&w, s, true).cycles / n_on * 100.0;
        row(&[s.to_string(), format!("{off:.1}%"), format!("{on:.1}%")], &widths);
    }
    println!("\n(full Segue loses its advantage exactly when the vectorizer is on —");
    println!(" the §4.2 interaction; loads-only keeps both optimizations)");
}
