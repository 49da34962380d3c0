//! The two shard-simulator sweeps behind `BENCH_multicore.json` and
//! `BENCH_overload.json`: typed rows of [`MultiCoreReport`] plus their
//! derived values. Gates and tables read these; [`Artifact`] renders them.

use sfi_faas::{
    ArrivalModel, CacheMode, FaasWorkload, MultiCoreConfig, MultiCoreReport, QosConfig,
    QosReport, ScalingMode, SloClass,
};
use sfi_telemetry::{chrome_trace, json_snapshot};

use crate::{Artifact, Json, Obj};

/// The paper rig on the hash load-balance workload.
fn rig(
    mode: ScalingMode,
    cache: CacheMode,
    cores: u32,
    seed: u64,
    duration_ms: u64,
) -> MultiCoreConfig {
    let mut cfg = MultiCoreConfig::paper_rig(FaasWorkload::HashLoadBalance, mode, cache, cores);
    cfg.seed = seed;
    cfg.duration_ms = duration_ms;
    cfg
}

/// One closed-loop run of the multi-core sweep.
#[derive(Debug, Clone)]
pub struct MulticoreRow {
    pub cores: u32,
    /// ColorGuard, or multi-process with 15 processes.
    pub mode: ScalingMode,
    pub cache: CacheMode,
    pub report: MultiCoreReport,
}

/// The closed-loop sweep: cores × {ColorGuard, multi-process} × {cold,
/// warm}, in that nesting order.
#[derive(Debug, Clone)]
pub struct MulticoreSweep {
    pub seed: u64,
    pub duration_ms: u64,
    pub rows: Vec<MulticoreRow>,
}

impl MulticoreSweep {
    /// The seed `BENCH_multicore.json` and `TRACE_multicore.json` are
    /// recorded at.
    pub const SEED: u64 = 0x5E65E9;
    /// Their modeled duration per run.
    pub const DURATION_MS: u64 = 400;
    /// Their core counts.
    pub const CORES: [u32; 4] = [1, 2, 4, 8];

    /// Runs the sweep. A pure function of its arguments.
    pub fn run(seed: u64, duration_ms: u64, cores_list: &[u32]) -> MulticoreSweep {
        let mut rows = Vec::new();
        for &cores in cores_list {
            for mode in [ScalingMode::ColorGuard, ScalingMode::MultiProcess { processes: 15 }] {
                for cache in [CacheMode::Cold, CacheMode::Warm] {
                    let report =
                        sfi_faas::simulate_multicore(&rig(mode, cache, cores, seed, duration_ms));
                    rows.push(MulticoreRow { cores, mode, cache, report });
                }
            }
        }
        MulticoreSweep { seed, duration_ms, rows }
    }

    /// The ColorGuard run at `(cores, cache)`, if the sweep covers it.
    pub fn colorguard(&self, cores: u32, cache: CacheMode) -> Option<&MultiCoreReport> {
        let wanted = |r: &&MulticoreRow| {
            r.mode == ScalingMode::ColorGuard && (r.cores, r.cache) == (cores, cache)
        };
        self.rows.iter().find(wanted).map(|r| &r.report)
    }

    /// The headline run: ColorGuard, warm cache, most cores.
    pub fn headline(&self) -> &MultiCoreReport {
        let cores = self.rows.iter().map(|r| r.cores).max().expect("nonempty sweep");
        self.colorguard(cores, CacheMode::Warm).expect("headline run")
    }

    /// The headline run alone, without the rest of the sweep: the report
    /// [`MulticoreSweep::headline`] returns for a sweep whose largest core
    /// count is `cores`.
    pub fn headline_run(seed: u64, duration_ms: u64, cores: u32) -> MultiCoreReport {
        let cfg = rig(ScalingMode::ColorGuard, CacheMode::Warm, cores, seed, duration_ms);
        sfi_faas::simulate_multicore(&cfg)
    }

    /// Warm ColorGuard throughput at 4 cores over 1 core (0 when missing).
    pub fn warm_colorguard_scaling_1_to_4(&self) -> f64 {
        match (self.colorguard(1, CacheMode::Warm), self.colorguard(4, CacheMode::Warm)) {
            (Some(a), Some(b)) if a.throughput_rps > 0.0 => b.throughput_rps / a.throughput_rps,
            _ => 0.0,
        }
    }

    /// Mean cold over mean warm spawn cost, ColorGuard at 1 core (0 when
    /// missing).
    pub fn cold_over_warm_spawn_cost(&self) -> f64 {
        let mean_spawn = |r: &MultiCoreReport| {
            r.totals.spawn_ns as f64 / (r.totals.cold_spawns + r.totals.warm_spawns).max(1) as f64
        };
        match (self.colorguard(1, CacheMode::Cold), self.colorguard(1, CacheMode::Warm)) {
            (Some(c), Some(w)) if mean_spawn(w) > 0.0 => mean_spawn(c) / mean_spawn(w),
            _ => 0.0,
        }
    }

    /// `BENCH_multicore.json`, embedding the headline run's registry.
    pub fn artifact(&self) -> Artifact {
        let rows: Vec<Obj> = self
            .rows
            .iter()
            .map(|row| {
                let (r, t) = (&row.report, &row.report.totals);
                let steals: Vec<u64> = r.per_core.iter().map(|m| m.steals).collect();
                let mode = match row.mode {
                    ScalingMode::ColorGuard => "colorguard",
                    ScalingMode::MultiProcess { .. } => "multiprocess",
                };
                Obj::new()
                    .with("cores", row.cores)
                    .with("mode", mode)
                    .with("cache", row.cache.name())
                    .with("offered", r.offered)
                    .with("completed", r.completed)
                    .float("throughput_rps", r.throughput_rps, 3)
                    .with("steals", t.steals)
                    .with("ctx_switches", t.ctx_switches)
                    .with("dtlb_misses", t.dtlb_misses)
                    .with("cold_spawns", t.cold_spawns)
                    .with("warm_spawns", t.warm_spawns)
                    .with("recycles", t.recycles)
                    .with("spawn_ns", t.spawn_ns)
                    .with("busy_ns", t.busy_ns)
                    .with("overhead_ns", t.overhead_ns)
                    .float("mean_latency_ms", r.mean_latency_ms, 3)
                    .float("p99_latency_ms", r.p99_latency_ms, 3)
                    .with("per_core_steals", steals)
            })
            .collect();
        let derived = Obj::new()
            .float("warm_colorguard_scaling_1_to_4", self.warm_colorguard_scaling_1_to_4(), 3)
            .float("cold_over_warm_spawn_cost", self.cold_over_warm_spawn_cost(), 3);
        Artifact::new(
            "figX_multicore",
            Obj::new()
                .with("seed", self.seed)
                .with("duration_ms", self.duration_ms)
                .with("workload", "hash_load_balance")
                .with("rows", rows)
                .with("derived", derived)
                .with("telemetry", Json::raw(json_snapshot(&self.headline().registry))),
        )
    }
}

/// `TRACE_multicore.json`'s text for `report`: its flight-recorder rings,
/// core by core, as a chrome://tracing (`about:tracing`) event stream.
/// Trace ticks are already simulated nanoseconds.
pub fn trace_json(report: &MultiCoreReport) -> String {
    let events: Vec<_> = report.traces.iter().flatten().copied().collect();
    chrome_trace(&events, 1.0)
}

/// One open-loop run of the overload sweep (QoS on).
#[derive(Debug, Clone)]
pub struct OverloadRow {
    pub offered_rps: f64,
    pub report: MultiCoreReport,
}

impl OverloadRow {
    /// The run's QoS summary.
    pub fn qos(&self) -> &QosReport {
        self.report.qos.as_ref().expect("qos enabled for every overload row")
    }
}

/// Saturation indicators of a peak row against a light row: how the
/// latency-sensitive p99 holds up, and who absorbs the shedding. Shed
/// *rates* (shed ÷ offered per class), not absolute shares: the
/// lowest-class-first contract is about how hard each class is hit relative
/// to its own traffic, independent of the tenant mix.
#[derive(Debug, Clone, Copy)]
pub struct OverloadDerived {
    /// Latency-sensitive p99 at peak over at light load (0 when light is 0).
    pub ls_p99_peak_over_light: f64,
    pub batch_shed_rate_at_peak: f64,
    pub standard_shed_rate_at_peak: f64,
    pub ls_shed_at_peak: u64,
    pub peak_goodput_rps: f64,
}

impl OverloadDerived {
    /// The indicators of `peak` against `light`.
    pub fn between(light: &OverloadRow, peak: &OverloadRow) -> OverloadDerived {
        let (light, peak) = (&light.qos().per_class, peak.qos());
        let ls = SloClass::LatencySensitive.idx();
        let shed_rate = |c: SloClass| {
            let pc = peak.per_class[c.idx()];
            if pc.offered > 0 { pc.shed as f64 / pc.offered as f64 } else { 0.0 }
        };
        let (light_p99, peak_p99) = (light[ls].p99_ms, peak.per_class[ls].p99_ms);
        OverloadDerived {
            ls_p99_peak_over_light: if light_p99 > 0.0 { peak_p99 / light_p99 } else { 0.0 },
            batch_shed_rate_at_peak: shed_rate(SloClass::Batch),
            standard_shed_rate_at_peak: shed_rate(SloClass::Standard),
            ls_shed_at_peak: peak.per_class[ls].shed,
            peak_goodput_rps: peak.goodput_rps,
        }
    }
}

/// The open-loop overload sweep: Poisson arrivals at each offered rate,
/// QoS and admission control on ([`QosConfig::paper_rig`]), ColorGuard
/// warm cache.
#[derive(Debug, Clone)]
pub struct OverloadSweep {
    pub seed: u64,
    pub duration_ms: u64,
    pub cores: u32,
    /// Runs in offered-rate order; never empty.
    pub rows: Vec<OverloadRow>,
}

impl OverloadSweep {
    /// Runs the sweep. A pure function of its arguments.
    pub fn run(seed: u64, duration_ms: u64, cores: u32, rates_rps: &[f64]) -> OverloadSweep {
        assert!(!rates_rps.is_empty(), "nonempty rate sweep");
        let rows = rates_rps
            .iter()
            .map(|&offered_rps| {
                let mut cfg =
                    rig(ScalingMode::ColorGuard, CacheMode::Warm, cores, seed, duration_ms);
                cfg.arrivals = ArrivalModel::Poisson { rate_rps: offered_rps };
                cfg.qos = Some(QosConfig::paper_rig());
                OverloadRow { offered_rps, report: sfi_faas::simulate_multicore(&cfg) }
            })
            .collect();
        OverloadSweep { seed, duration_ms, cores, rows }
    }

    /// The saturated headline row (highest offered rate, last).
    pub fn peak(&self) -> &OverloadRow {
        self.rows.last().expect("nonempty rate sweep")
    }

    /// The peak row's indicators against the light (first) row.
    pub fn derived(&self) -> OverloadDerived {
        OverloadDerived::between(&self.rows[0], self.peak())
    }

    /// `BENCH_overload.json`, embedding the peak run's registry.
    pub fn artifact(&self) -> Artifact {
        let rows: Vec<Obj> = self
            .rows
            .iter()
            .map(|row| {
                let (r, q) = (&row.report, row.qos());
                let classes: Vec<Obj> = SloClass::ALL
                    .iter()
                    .zip(&q.per_class)
                    .map(|(class, pc)| {
                        Obj::new()
                            .with("class", class.name())
                            .with("offered", pc.offered)
                            .with("completed", pc.completed)
                            .with("shed", pc.shed)
                            .float("p50_ms", pc.p50_ms, 3)
                            .float("p99_ms", pc.p99_ms, 3)
                    })
                    .collect();
                Obj::new()
                    .float("offered_rps", row.offered_rps, 0)
                    .with("offered", r.offered)
                    .with("completed", r.completed)
                    .float("goodput_rps", q.goodput_rps, 3)
                    .with("shed_total", q.shed_total)
                    .float("shed_rate", q.shed_rate, 6)
                    .float("occupancy", r.occupancy, 6)
                    .float("p99_latency_ms", r.p99_latency_ms, 3)
                    .with("classes", classes)
            })
            .collect();
        let d = self.derived();
        let derived = Obj::new()
            .float("ls_p99_peak_over_light", d.ls_p99_peak_over_light, 3)
            .float("batch_shed_rate_at_peak", d.batch_shed_rate_at_peak, 3)
            .float("standard_shed_rate_at_peak", d.standard_shed_rate_at_peak, 3)
            .with("ls_shed_at_peak", d.ls_shed_at_peak)
            .float("peak_goodput_rps", d.peak_goodput_rps, 3);
        Artifact::new(
            "figX_overload",
            Obj::new()
                .with("seed", self.seed)
                .with("duration_ms", self.duration_ms)
                .with("cores", self.cores)
                .with("workload", "hash_load_balance")
                .with("rows", rows)
                .with("derived", derived)
                .with("telemetry", Json::raw(json_snapshot(&self.peak().report.registry))),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_json_is_byte_identical_across_runs() {
        let a = MulticoreSweep::run(7, 60, &[1, 2]);
        let b = MulticoreSweep::run(7, 60, &[1, 2]);
        assert_eq!(a.artifact().render(), b.artifact().render());
        assert_eq!(a.rows.len(), 8, "cores × mode × cache");
        assert!(a.colorguard(2, CacheMode::Warm).is_some());
        assert_eq!(a.warm_colorguard_scaling_1_to_4(), 0.0, "no 4-core row to scale to");
        assert!(a.cold_over_warm_spawn_cost() > 0.0);
        assert!(a.headline().registry.counter_value("sfi_shard_completed_total").is_some());
        assert!(sfi_telemetry::json_is_valid(&a.artifact().render()), "sweep JSON must stay parseable");
    }
}
