//! Figure 6: ColorGuard throughput gain over multi-process scaling, for
//! 1–15 processes and the three FaaS workloads (the paper reports gains
//! growing with process count up to ≈29%).
//!
//! Emits `BENCH_fig6.json` with the gain table plus a `"telemetry"`
//! section — the per-run metrics registries (labeled by workload and mode)
//! merged into one snapshot, the same shape `figX_multicore` embeds.

use sfi_bench::{row, Artifact, Json, Obj};
use sfi_faas::{sim_registry, simulate, FaasWorkload, ScalingMode, SimConfig};
use sfi_telemetry::{json_snapshot, Registry};

fn main() {
    println!("Figure 6: ColorGuard throughput gain vs multi-process scaling (single core)\n");
    let widths = [6, 18, 18, 18];
    let mut header = vec!["procs"];
    header.extend(FaasWorkload::ALL.iter().map(|w| w.name()));
    row(&header, &widths);

    let mut telemetry = Registry::new();

    // One ColorGuard run per workload; the request stream is identical
    // across modes (same seed).
    let cg: Vec<f64> = FaasWorkload::ALL
        .iter()
        .map(|&w| {
            let r = simulate(&SimConfig::paper_rig(w, ScalingMode::ColorGuard));
            telemetry
                .merge_from(&sim_registry(&r, &[("workload", w.name()), ("mode", "colorguard")]));
            r.throughput_rps
        })
        .collect();

    let mut rows = Vec::new();
    for k in 1..=15u32 {
        let mut cells = vec![format!("{k}")];
        for (i, &w) in FaasWorkload::ALL.iter().enumerate() {
            let mp = simulate(&SimConfig::paper_rig(w, ScalingMode::MultiProcess { processes: k }));
            let gain = (cg[i] - mp.throughput_rps) / mp.throughput_rps * 100.0;
            cells.push(format!("{gain:+.1}%"));
            rows.push(
                Obj::new()
                    .with("workload", w.name())
                    .with("processes", k)
                    .float("multiprocess_rps", mp.throughput_rps, 3)
                    .float("colorguard_rps", cg[i], 3)
                    .float("gain_percent", gain, 3),
            );
            if k == 15 {
                telemetry.merge_from(&sim_registry(
                    &mp,
                    &[("workload", w.name()), ("mode", "multiprocess")],
                ));
            }
        }
        row(&cells, &widths);
    }

    println!();
    Artifact::new(
        "fig6_throughput",
        Obj::new().with("rows", rows).with("telemetry", Json::raw(json_snapshot(&telemetry))),
    )
    .write("BENCH_fig6.json");
    println!("(paper: gain grows with process count, up to ≈29% at 15 processes,\n\
              with all three workloads within a few percent of each other)");
}
