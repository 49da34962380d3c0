//! Chaos degradation: throughput and goodput under an escalating per-stage
//! trap rate, in both scaling modes.
//!
//! The containment claim this table backs: with poisoning, quarantine and
//! per-request retry in place, injected sandbox crashes cost throughput
//! *proportionally* — the platform degrades, it does not collapse. Every
//! row is a pure function of the seed, so the table is byte-stable across
//! runs.

use sfi_bench::row;
use sfi_faas::{simulate, FaasWorkload, FailureModel, ScalingMode, SimConfig};

const RATES: [f64; 7] = [0.0, 0.05, 0.10, 0.20, 0.30, 0.40, 0.50];

fn run(mode: ScalingMode, rate: f64) -> sfi_faas::SimReport {
    let mut cfg = SimConfig::paper_rig(FaasWorkload::HashLoadBalance, mode);
    cfg.duration_ms = 2_000;
    cfg.failures = FailureModel::with_trap_rate(rate);
    simulate(&cfg)
}

fn table(label: &str, mode: ScalingMode) {
    println!("{label}\n");
    let widths = [8, 12, 12, 10, 8, 8, 8, 12];
    row(
        &["trap", "thr (rps)", "goodput", "avail", "faults", "retries", "dead", "vs clean"],
        &widths,
    );

    let clean = run(mode, 0.0).throughput_rps;
    for &rate in &RATES {
        let r = run(mode, rate);
        row(
            &[
                format!("{:.0}%", rate * 100.0),
                format!("{:.0}", r.throughput_rps),
                format!("{:.0}", r.goodput_rps),
                format!("{:.3}", r.availability),
                format!("{}", r.faults),
                format!("{}", r.retries),
                format!("{}", r.dead_lettered),
                format!("{:+.1}%", (r.throughput_rps - clean) / clean * 100.0),
            ],
            &widths,
        );
    }
    println!();
}

fn main() {
    println!(
        "Chaos degradation: per-stage trap injection with recycle + retry\n\
         (workload: {}, 2 s simulated, deterministic seed)\n",
        FaasWorkload::HashLoadBalance.name()
    );

    table("ColorGuard (single address space, MPK stripes)", ScalingMode::ColorGuard);
    table(
        "Multiprocess (15 processes)",
        ScalingMode::MultiProcess { processes: 15 },
    );

    // The acceptance bar: graceful degradation. Check it here so the
    // binary doubles as a smoke test — a collapse prints loudly.
    for (label, mode) in [
        ("ColorGuard", ScalingMode::ColorGuard),
        ("Multiprocess", ScalingMode::MultiProcess { processes: 15 }),
    ] {
        let clean = run(mode, 0.0).throughput_rps;
        let worst = RATES
            .iter()
            .filter(|&&r| r < 0.50)
            .map(|&r| run(mode, r).throughput_rps)
            .fold(f64::INFINITY, f64::min);
        let status = if worst > 0.25 * clean { "graceful" } else { "COLLAPSE" };
        println!(
            "{label}: worst throughput below 50% trap rate = {:.0} rps \
             ({:.0}% of clean) — {status}",
            worst,
            worst / clean * 100.0
        );
    }
}
