//! Figure 7: context switches (a) and dTLB misses (b), ColorGuard vs
//! multi-process scaling, over the simulated run.
//!
//! The paper's shape: ColorGuard's rates stay flat as the process count
//! grows; multi-process rates climb (to ~700 K switches and tens of
//! millions of dTLB misses over the run).
//!
//! Emits `BENCH_fig7.json` with the sweep plus a `"telemetry"` section
//! (per-run registries labeled by mode and process count, merged — the
//! same shape `figX_multicore` embeds).

use sfi_bench::{row, Artifact, Json, Obj};
use sfi_faas::{sim_registry, simulate, FaasWorkload, ScalingMode, SimConfig};
use sfi_telemetry::{json_snapshot, Registry};

fn main() {
    println!("Figure 7: context switches and dTLB misses vs process count\n");
    let widths = [6, 14, 14, 16, 16];
    row(&["procs", "mp ctx (K)", "cg ctx (K)", "mp dTLB (M)", "cg dTLB (M)"], &widths);
    let w = FaasWorkload::RegexFilter;
    let cg = simulate(&SimConfig::paper_rig(w, ScalingMode::ColorGuard));
    let mut telemetry = Registry::new();
    telemetry.merge_from(&sim_registry(&cg, &[("mode", "colorguard")]));
    let mut rows = Vec::new();
    let mut mp15 = None;
    for k in [1u32, 2, 4, 6, 8, 10, 12, 15] {
        let mp = simulate(&SimConfig::paper_rig(w, ScalingMode::MultiProcess { processes: k }));
        if k == 15 {
            mp15 = Some(mp);
        }
        let procs = k.to_string();
        telemetry
            .merge_from(&sim_registry(&mp, &[("mode", "multiprocess"), ("processes", &procs)]));
        rows.push(
            Obj::new()
                .with("processes", k)
                .with("mp_ctx_switches", mp.context_switches)
                .with("cg_ctx_switches", cg.context_switches)
                .with("mp_dtlb_misses", mp.dtlb_misses)
                .with("cg_dtlb_misses", cg.dtlb_misses),
        );
        row(
            &[
                format!("{k}"),
                format!("{:.0}", mp.context_switches as f64 / 1e3),
                format!("{:.0}", cg.context_switches as f64 / 1e3),
                format!("{:.1}", mp.dtlb_misses as f64 / 1e6),
                format!("{:.1}", cg.dtlb_misses as f64 / 1e6),
            ],
            &widths,
        );
    }
    Artifact::new(
        "fig7_ctx_dtlb",
        Obj::new()
            .with("workload", w.name())
            .with("rows", rows)
            .with("telemetry", Json::raw(json_snapshot(&telemetry))),
    )
    .write("BENCH_fig7.json");

    println!("\nAll three workloads behave alike; per-workload numbers at 15 processes:");
    let mp15 = mp15.expect("the sweep ends at 15 processes");
    for wl in FaasWorkload::ALL {
        // The sweep's workload was just simulated at both points.
        let (cg, mp) = if wl == w {
            (cg, mp15)
        } else {
            (
                simulate(&SimConfig::paper_rig(wl, ScalingMode::ColorGuard)),
                simulate(&SimConfig::paper_rig(wl, ScalingMode::MultiProcess { processes: 15 })),
            )
        };
        println!(
            "  {:>18}: mp {:>4.0}K switches / {:>5.1}M dTLB misses;  cg {:>4.0}K / {:>4.1}M",
            wl.name(),
            mp.context_switches as f64 / 1e3,
            mp.dtlb_misses as f64 / 1e6,
            cg.context_switches as f64 / 1e3,
            cg.dtlb_misses as f64 / 1e6,
        );
    }
    println!("(paper: multiprocess grows to ~700K switches / tens of millions of dTLB\n\
              misses while ColorGuard stays flat)");
}
