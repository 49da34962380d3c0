//! Runtime telemetry: the metrics registry, flight recorder and virtual
//! clock threaded through [`crate::Runtime`].
//!
//! Everything here is deterministic: the clock advances only by *modeled*
//! cycles (never wall time), counters are bumped at well-defined lifecycle
//! edges, and gauges are synced by scraping the pool / address space /
//! code cache at snapshot time. Two same-seed runs therefore export
//! byte-identical Prometheus text, JSON snapshots and flight-recorder
//! dumps — the acceptance property the telemetry CI gate checks.

use sfi_pool::{MemoryPool, QuarantineStats};
use sfi_telemetry::{
    CounterId, FlightRecorder, GaugeId, HistogramId, Registry, SampledCounterId, TraceEvent,
    TraceKind, VirtualClock,
};
use sfi_vm::{AddressSpace, ChaosStats, SyscallKind};

use sfi_x86::Provenance;

use crate::cache::{CacheStats, Tier, TierStats};
use crate::fault::SandboxFault;
use crate::runtime::{CycleBreakdown, PENALTY_NAMES};
use crate::transition::TransitionKind;

/// Sampling rate of the per-access `sfi_guest_mem_accesses_total` series
/// (declared in its `sample_rate` label; estimate = value × rate, with
/// absolute error bounded below one rate's worth of trials).
pub const MEM_ACCESS_SAMPLE_RATE: u64 = 256;

/// The telemetry bundle owned by one [`crate::Runtime`] (or one FaaS
/// shard): a registry with every runtime metric pre-registered, a bounded
/// flight recorder, and the virtual clock that stamps its events.
#[derive(Debug)]
pub struct RuntimeTelemetry {
    registry: Registry,
    /// The flight recorder (capacity 0 = disabled).
    pub recorder: FlightRecorder,
    /// Virtual time: modeled cycles, advanced by the transition and guest
    /// cost models.
    pub clock: VirtualClock,
    core: u32,

    t_total: CounterId,
    t_wrpkru: CounterId,
    t_wrgsbase: CounterId,
    t_arch_prctl: CounterId,
    t_async: CounterId,
    h_transition_cycles: HistogramId,
    faults: [CounterId; SandboxFault::KIND_NAMES.len()],
    q_quarantines: CounterId,
    q_rehabilitations: CounterId,
    q_retirements: CounterId,
    g_quarantine_depth: GaugeId,
    g_quarantine_peak: GaugeId,
    c_hits: CounterId,
    c_misses: CounterId,
    c_evictions: CounterId,
    c_inserts: CounterId,
    c_poisons: CounterId,
    tier_promotions: CounterId,
    tier_demotions: CounterId,
    /// Guest cycle histograms keyed by compiler tier
    /// (indexed like [`Tier::Baseline`], [`Tier::Optimized`]).
    h_tier_cycles: [HistogramId; 2],
    chaos_failed: [CounterId; 4],
    chaos_bus: CounterId,
    g_slots_in_use: GaugeId,
    g_slots_capacity: GaugeId,
    g_slots_retired: GaugeId,
    g_map_count: GaugeId,
    g_peak_map_count: GaugeId,
    g_instances: GaugeId,
    s_mem_accesses: SampledCounterId,
    /// Cycle-attribution profile counters (DESIGN.md §14): guest cycles by
    /// provenance, penalties by kind, plus the host-side transition and
    /// compile charges — together they account for every modeled cycle.
    p_prov: [CounterId; Provenance::COUNT],
    p_pen: [CounterId; PENALTY_NAMES.len()],
    p_transition: CounterId,
    c_compile_cycles: CounterId,
    /// Speculation counters (DESIGN.md §16): window flushes, detected
    /// transient leaks, and mitigation-sequence cycles by level.
    spec_flushes: CounterId,
    spec_leaks: CounterId,
    spec_mitigation_cycles: [CounterId; sfi_core::MitigationLevel::ALL.len()],

    /// Last scraped snapshots, so scraping adds deltas into monotonic
    /// counters instead of double counting.
    last_quarantine: QuarantineStats,
    last_cache: CacheStats,
    last_chaos: ChaosStats,
    last_tiers: TierStats,
}

impl RuntimeTelemetry {
    /// Builds the bundle, pre-registering every metric (name collisions
    /// panic here — the startup gate). `recorder_capacity` 0 disables the
    /// flight recorder; `core` stamps this runtime's trace events (a
    /// sharded host passes the shard index).
    pub fn new(recorder_capacity: usize, core: u32) -> RuntimeTelemetry {
        let mut r = Registry::new();
        let faults = SandboxFault::KIND_NAMES
            .map(|name| r.counter_with("sfi_faults_total", &[("kind", name)]));
        let chaos_failed = [
            SyscallKind::Mmap,
            SyscallKind::Mprotect,
            SyscallKind::PkeyMprotect,
            SyscallKind::Madvise,
        ]
        .map(|k| r.counter_with("sfi_chaos_syscalls_failed_total", &[("kind", k.name())]));
        let p_prov = Provenance::ALL
            .map(|p| r.counter_with("sfi_profile_cycles_total", &[("provenance", p.name())]));
        let p_pen = PENALTY_NAMES
            .map(|p| r.counter_with("sfi_profile_penalty_cycles_total", &[("penalty", p)]));
        let spec_mitigation_cycles = sfi_core::MitigationLevel::ALL
            .map(|l| r.counter_with("sfi_spec_mitigation_cycles_total", &[("level", l.name())]));
        RuntimeTelemetry {
            t_total: r.counter("sfi_transitions_total"),
            t_wrpkru: r.counter_with("sfi_transition_ops_total", &[("op", "wrpkru")]),
            t_wrgsbase: r.counter_with("sfi_transition_ops_total", &[("op", "wrgsbase")]),
            t_arch_prctl: r.counter_with("sfi_transition_ops_total", &[("op", "arch_prctl")]),
            t_async: r.counter_with("sfi_transition_ops_total", &[("op", "async_stack_switch")]),
            h_transition_cycles: r.histogram("sfi_invocation_transition_cycles"),
            faults,
            q_quarantines: r.counter("sfi_quarantine_total"),
            q_rehabilitations: r.counter("sfi_quarantine_rehabilitations_total"),
            q_retirements: r.counter("sfi_quarantine_retirements_total"),
            g_quarantine_depth: r.gauge("sfi_quarantine_ring_depth"),
            g_quarantine_peak: r.gauge("sfi_quarantine_ring_peak"),
            c_hits: r.counter("sfi_code_cache_hits_total"),
            c_misses: r.counter("sfi_code_cache_misses_total"),
            c_evictions: r.counter("sfi_code_cache_evictions_total"),
            c_inserts: r.counter("sfi_code_cache_inserts_total"),
            c_poisons: r.counter("sfi_code_cache_poisons_total"),
            tier_promotions: r.counter("sfi_tier_promotions_total"),
            tier_demotions: r.counter("sfi_tier_demotions_total"),
            h_tier_cycles: [Tier::Baseline, Tier::Optimized].map(|t| {
                r.try_histogram("sfi_tier_guest_cycles", &[("tier", t.name())])
                    .expect("metric registration")
            }),
            chaos_failed,
            chaos_bus: r.counter("sfi_chaos_bus_faults_total"),
            g_slots_in_use: r.gauge("sfi_pool_slots_in_use"),
            g_slots_capacity: r.gauge("sfi_pool_slots_capacity"),
            g_slots_retired: r.gauge("sfi_pool_slots_retired"),
            g_map_count: r.gauge("sfi_vm_map_count"),
            g_peak_map_count: r.gauge("sfi_vm_peak_map_count"),
            g_instances: r.gauge("sfi_instances_live"),
            // Guest memory accesses are per-*instruction* events — orders of
            // magnitude hotter than any lifecycle counter — so the series is
            // sampled 1-in-N (rate declared in its `sample_rate` label,
            // scrapers un-bias with value × rate). The phase is seeded from
            // the core index so shards sample out of lockstep yet every run
            // with the same topology exports identical bytes.
            p_prov,
            p_pen,
            p_transition: r
                .counter_with("sfi_profile_cycles_total", &[("provenance", "transition")]),
            c_compile_cycles: r.counter("sfi_compile_cycles_total"),
            spec_flushes: r.counter("sfi_spec_flushes_total"),
            spec_leaks: r.counter("sfi_spec_leaks_total"),
            spec_mitigation_cycles,
            s_mem_accesses: r.sampled_counter(
                "sfi_guest_mem_accesses_total",
                &[],
                MEM_ACCESS_SAMPLE_RATE,
                0x00D1_CE5A ^ u64::from(core),
            ),
            last_quarantine: QuarantineStats::default(),
            last_cache: CacheStats::default(),
            last_chaos: ChaosStats::default(),
            last_tiers: TierStats::default(),
            registry: r,
            recorder: FlightRecorder::new(recorder_capacity),
            clock: VirtualClock::new(),
            core,
        }
    }

    /// The registry (export via [`sfi_telemetry::export`]).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Records a trace event at the current virtual tick.
    pub fn trace(&mut self, kind: TraceKind, sandbox: u64, arg: u64) {
        let ev = TraceEvent { tick: self.clock.now(), core: self.core, sandbox, kind, arg };
        self.recorder.record(ev);
    }

    /// Accounts one transition: total + per-op counters, and the virtual
    /// clock advances by its modeled cycles.
    pub fn on_transition(&mut self, kind: TransitionKind, cycles: f64) {
        self.registry.inc(self.t_total);
        if kind.colorguard {
            self.registry.inc(self.t_wrpkru);
        }
        if kind.set_segment_base {
            if kind.segment_base_via_syscall {
                self.registry.inc(self.t_arch_prctl);
            } else {
                self.registry.inc(self.t_wrgsbase);
            }
        }
        if kind.async_stack_switch {
            self.registry.inc(self.t_async);
        }
        self.clock.advance_cycles(cycles);
    }

    /// Observes one invocation's total transition cycles (entry + exit +
    /// host-call pairs) into the cycle histogram.
    pub fn observe_invocation_transition_cycles(&mut self, cycles: f64) {
        self.registry.observe(self.h_transition_cycles, cycles.round() as u64);
    }

    /// Feeds one invocation's guest loads + stores as sampling trials into
    /// the 1-in-N `sfi_guest_mem_accesses_total` series. Batch form: the
    /// interpreter already counts accesses per run, and batch selection is
    /// O(1), so this costs the same whether the guest touched ten words or
    /// ten million.
    pub fn on_guest_mem_accesses(&mut self, loads: u64, stores: u64) {
        self.registry.sample_trials(self.s_mem_accesses, loads + stores);
    }

    /// Counts one classified fault.
    pub fn on_fault(&mut self, fault: &SandboxFault) {
        let idx = SandboxFault::KIND_NAMES
            .iter()
            .position(|n| *n == fault.kind_name())
            .expect("every fault kind is pre-registered");
        self.registry.inc(self.faults[idx]);
    }

    /// Syncs gauges and scrapes the pool's quarantine counters and the
    /// address space's chaos counters (delta-based, so repeated scrapes
    /// never double count).
    pub fn scrape(&mut self, pool: &MemoryPool, space: &AddressSpace, instances: usize) {
        self.registry.set(self.g_slots_in_use, pool.in_use() as i64);
        self.registry.set(self.g_slots_capacity, pool.capacity() as i64);
        self.registry.set(self.g_slots_retired, pool.retired() as i64);
        self.registry.set(self.g_quarantine_depth, pool.quarantined() as i64);
        self.registry.set(self.g_map_count, space.map_count() as i64);
        self.registry.set(self.g_peak_map_count, space.peak_map_count() as i64);
        self.registry.set(self.g_instances, instances as i64);

        let q = pool.quarantine_stats();
        self.registry.add(self.q_quarantines, q.quarantines - self.last_quarantine.quarantines);
        self.registry.add(
            self.q_rehabilitations,
            q.rehabilitations - self.last_quarantine.rehabilitations,
        );
        self.registry.add(self.q_retirements, q.retirements - self.last_quarantine.retirements);
        self.registry.set(self.g_quarantine_peak, q.peak_quarantined as i64);
        self.last_quarantine = q;

        if let Some(plan) = space.fault_plan() {
            let c = plan.stats;
            for (i, id) in self.chaos_failed.iter().enumerate() {
                self.registry.add(
                    *id,
                    c.syscalls_failed_by_kind[i] - self.last_chaos.syscalls_failed_by_kind[i],
                );
            }
            self.registry.add(self.chaos_bus, c.bus_faults - self.last_chaos.bus_faults);
            self.last_chaos = c;
        }
    }

    /// Scrapes code-cache counters (the cache lives in the [`crate::Engine`]
    /// above the runtime, so the owner hands in its stats).
    pub fn scrape_cache(&mut self, stats: CacheStats) {
        self.registry.add(self.c_hits, stats.hits - self.last_cache.hits);
        self.registry.add(self.c_misses, stats.misses - self.last_cache.misses);
        self.registry.add(self.c_evictions, stats.evictions - self.last_cache.evictions);
        self.registry.add(self.c_inserts, stats.inserts - self.last_cache.inserts);
        self.registry.add(self.c_poisons, stats.poisons - self.last_cache.poisons);
        self.last_cache = stats;
    }

    /// Scrapes the engine's tiering counters (delta-based, like the cache
    /// scrape).
    pub fn scrape_tiers(&mut self, stats: TierStats) {
        self.registry.add(self.tier_promotions, stats.promotions - self.last_tiers.promotions);
        self.registry.add(self.tier_demotions, stats.demotions - self.last_tiers.demotions);
        self.last_tiers = stats;
    }

    /// Observes one invocation's guest cycles into the per-tier histogram.
    pub fn observe_guest_cycles(&mut self, tier: Tier, cycles: f64) {
        let idx = match tier {
            Tier::Baseline => 0,
            Tier::Optimized => 1,
        };
        self.registry.observe(self.h_tier_cycles[idx], cycles.round() as u64);
    }

    /// Accounts one invocation's [`CycleBreakdown`] into the profile
    /// counters: guest cycles by provenance, penalties by kind, the
    /// host-side transition charge (under `provenance="transition"`), and
    /// any drained cold-spawn compile cycles. Cycles are rounded per
    /// invocation — the counters are a profile surface, not the benchmark
    /// numbers, which stay exact f64 in [`sfi_x86::cost::RunStats`].
    pub fn observe_breakdown(&mut self, b: &CycleBreakdown) {
        for (i, id) in self.p_prov.iter().enumerate() {
            self.registry.add(*id, b.guest_prov_cycles[i].round() as u64);
        }
        for (i, id) in self.p_pen.iter().enumerate() {
            self.registry.add(*id, b.penalty_cycles[i].round() as u64);
        }
        self.registry.add(self.p_transition, b.transition_cycles.round() as u64);
        self.registry.add(self.c_compile_cycles, b.compile_cycles.round() as u64);
    }

    /// Accounts one completed run's speculation counters (DESIGN.md §16):
    /// window flushes, detected transient leaks, and the cycles spent in
    /// the compiled-in mitigation sequences, labeled with the module's
    /// mitigation level. Runs without a speculation window contribute
    /// zero flushes/leaks but still attribute their mitigation cycles —
    /// hardened code pays its overhead whether or not the emulator models
    /// the transient window.
    pub fn observe_speculation(
        &mut self,
        stats: &sfi_x86::cost::RunStats,
        level: sfi_core::MitigationLevel,
    ) {
        self.registry.add(self.spec_flushes, stats.spec_flushes);
        self.registry.add(self.spec_leaks, stats.spec_leaks);
        let idx = sfi_core::MitigationLevel::ALL
            .iter()
            .position(|&l| l == level)
            .expect("ALL covers every level");
        self.registry.add(
            self.spec_mitigation_cycles[idx],
            stats.prov_cycles[Provenance::SpecMitigation.index()].round() as u64,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfi_telemetry::export::json_snapshot;

    #[test]
    fn preregistered_metrics_export_zeros() {
        let t = RuntimeTelemetry::new(0, 0);
        let snap = json_snapshot(t.registry());
        assert!(snap.contains("\"sfi_faults_total{kind=\\\"color_fault\\\"}\": 0"), "{snap}");
        assert!(snap.contains("\"sfi_transitions_total\": 0"));
        assert!(snap.contains("\"sfi_code_cache_poisons_total\": 0"));
    }

    #[test]
    fn transition_accounting_advances_the_clock() {
        let mut t = RuntimeTelemetry::new(8, 3);
        let kind = TransitionKind { colorguard: true, ..Default::default() };
        t.on_transition(kind, 113.3);
        t.trace(TraceKind::Enter, 7, 2);
        assert_eq!(t.clock.now(), 113);
        assert_eq!(t.registry().counter_value("sfi_transitions_total"), Some(1));
        assert_eq!(
            t.registry().counter_value("sfi_transition_ops_total{op=\"wrpkru\"}"),
            Some(1)
        );
        let ev = t.recorder.events();
        assert_eq!((ev[0].tick, ev[0].core, ev[0].sandbox), (113, 3, 7));
    }

    #[test]
    fn fault_taxonomy_counts_by_kind() {
        let mut t = RuntimeTelemetry::new(0, 0);
        t.on_fault(&SandboxFault::GuardHit { addr: 0x1000 });
        t.on_fault(&SandboxFault::ColorFault { addr: 0x2000, key: 3 });
        t.on_fault(&SandboxFault::ColorFault { addr: 0x3000, key: 4 });
        let r = t.registry();
        assert_eq!(r.counter_value("sfi_faults_total{kind=\"guard_hit\"}"), Some(1));
        assert_eq!(r.counter_value("sfi_faults_total{kind=\"color_fault\"}"), Some(2));
        assert_eq!(r.counter_value("sfi_faults_total{kind=\"tag_fault\"}"), Some(0));
    }

    #[test]
    fn guest_mem_accesses_sample_deterministically() {
        let feed = |batches: &[(u64, u64)]| {
            let mut t = RuntimeTelemetry::new(0, 1);
            for &(l, s) in batches {
                t.on_guest_mem_accesses(l, s);
            }
            t.registry()
                .counter_value(&format!(
                    "sfi_guest_mem_accesses_total{{sample_rate=\"{MEM_ACCESS_SAMPLE_RATE}\"}}"
                ))
                .unwrap()
        };
        // Same trials → same sampled value, however they are batched.
        let a = feed(&[(700, 300), (4_000, 1_000)]);
        let b = feed(&[(0, 1_000), (700, 0), (4_000, 300)]);
        assert_eq!(a, b, "batching must not change selection");
        // Unbiased within one rate's worth of trials: 6000 trials at 1/256.
        let est = a * MEM_ACCESS_SAMPLE_RATE;
        assert!(est.abs_diff(6_000) < MEM_ACCESS_SAMPLE_RATE, "estimate {est}");
        // Cores sample out of phase but each is self-consistent.
        let t0 = RuntimeTelemetry::new(0, 0);
        let t1 = RuntimeTelemetry::new(0, 1);
        assert_eq!(t0.registry().len(), t1.registry().len());
    }

    #[test]
    fn speculation_series_cover_query_and_json_surfaces() {
        use sfi_telemetry::export::{json_is_valid, prometheus_text};
        use sfi_telemetry::tsdb::Selector;

        let mut t = RuntimeTelemetry::new(0, 0);
        let mut stats = sfi_x86::cost::RunStats {
            spec_flushes: 3,
            spec_leaks: 2,
            ..Default::default()
        };
        stats.prov_cycles[Provenance::SpecMitigation.index()] = 41.7;
        t.observe_speculation(&stats, sfi_core::MitigationLevel::Lfence);

        let r = t.registry();
        assert_eq!(r.counter_value("sfi_spec_flushes_total"), Some(3));
        assert_eq!(r.counter_value("sfi_spec_leaks_total"), Some(2));
        assert_eq!(
            r.counter_value("sfi_spec_mitigation_cycles_total{level=\"lfence\"}"),
            Some(42)
        );
        // Other levels are preregistered and untouched.
        assert_eq!(
            r.counter_value("sfi_spec_mitigation_cycles_total{level=\"none\"}"),
            Some(0)
        );

        // The tsdb selector grammar (the `/query?expr=` front end) reaches
        // the labeled series.
        let sel = Selector::parse("sfi_spec_mitigation_cycles_total{level=\"lfence\"}").unwrap();
        assert!(sel.matches("sfi_spec_mitigation_cycles_total{level=\"lfence\"}"));
        assert!(!sel.matches("sfi_spec_mitigation_cycles_total{level=\"slh\"}"));

        // Both export surfaces carry the new series, and the JSON snapshot
        // passes the offline validator.
        let snap = json_snapshot(r);
        assert!(json_is_valid(&snap), "snapshot must be valid JSON: {snap}");
        assert!(snap.contains("\"sfi_spec_flushes_total\": 3"), "{snap}");
        assert!(snap.contains("sfi_spec_mitigation_cycles_total{level=\\\"lfence\\\"}"));
        let text = prometheus_text(r);
        assert!(text.contains("sfi_spec_leaks_total 2"), "{text}");
        assert!(text.contains("sfi_spec_mitigation_cycles_total{level=\"lfence\"} 42"));
    }

    #[test]
    fn cache_scrape_is_delta_based() {
        let mut t = RuntimeTelemetry::new(0, 0);
        let mut s = CacheStats { hits: 5, misses: 2, ..CacheStats::default() };
        t.scrape_cache(s);
        t.scrape_cache(s); // same snapshot again: no change
        assert_eq!(t.registry().counter_value("sfi_code_cache_hits_total"), Some(5));
        s.hits = 9;
        t.scrape_cache(s);
        assert_eq!(t.registry().counter_value("sfi_code_cache_hits_total"), Some(9));
        assert_eq!(t.registry().counter_value("sfi_code_cache_misses_total"), Some(2));
    }
}
