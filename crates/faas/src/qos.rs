//! Multi-tenant QoS: SLO classes, weighted fair queueing and admission
//! control for the sharded engine.
//!
//! Tenants are mapped to one of three SLO classes by a stateless seeded
//! draw (the same splitmix construction the chaos layer uses), so class
//! assignment never consumes the request-stream RNG — enabling QoS on a
//! config leaves the generated arrivals byte-identical. Per core, each
//! class gets a bounded admission queue; freed resident slots are handed
//! out by weighted round-robin (a deficit-credit scheme: a class with
//! weight `w` is served up to `w` recycles before the scheduler rotates),
//! and watermarks on the aggregate queue depth shed the lowest classes
//! first, deterministically:
//!
//! - **Batch** is shed once the core's total backlog reaches
//!   [`QosConfig::shed_batch_depth`];
//! - **Standard** is shed at [`QosConfig::shed_standard_depth`];
//! - **Latency-sensitive** work is only dropped by its own bounded queue
//!   ([`QosConfig::queue_cap`]), never by the aggregate watermarks.
//!
//! Queues can only grow while every resident slot is occupied, so the
//! depth watermarks are equivalently occupancy watermarks: shedding starts
//! strictly after occupancy reaches 1.0 and backlog accumulates.

use std::collections::VecDeque;

use sfi_vm::fault_draw;

/// The SLO class of a tenant's requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SloClass {
    /// Interactive, tail-latency-sensitive traffic (highest priority).
    LatencySensitive,
    /// Ordinary request/response traffic.
    Standard,
    /// Best-effort background work (first to shed).
    Batch,
}

impl SloClass {
    /// All classes, highest priority first (the scheduler's rotation and
    /// the shed ordering both follow this order).
    pub const ALL: [SloClass; 3] =
        [SloClass::LatencySensitive, SloClass::Standard, SloClass::Batch];

    /// Display name (used as the `class` label on telemetry series).
    pub fn name(self) -> &'static str {
        match self {
            SloClass::LatencySensitive => "latency_sensitive",
            SloClass::Standard => "standard",
            SloClass::Batch => "batch",
        }
    }

    /// Index into per-class arrays ([`SloClass::ALL`] order).
    pub fn idx(self) -> usize {
        match self {
            SloClass::LatencySensitive => 0,
            SloClass::Standard => 1,
            SloClass::Batch => 2,
        }
    }
}

/// QoS parameters for a multi-core run. `None` on the config disables the
/// layer entirely (legacy FIFO admission, byte-identical to PR-5).
#[derive(Debug, Clone, PartialEq)]
pub struct QosConfig {
    /// Tenant mix: the probability a request belongs to each class
    /// ([`SloClass::ALL`] order). Normalized at draw time.
    pub shares: [f64; 3],
    /// Weighted-round-robin credits per rotation ([`SloClass::ALL`] order;
    /// zero is clamped to 1).
    pub weights: [u32; 3],
    /// Per-class, per-core admission-queue bound; arrivals beyond it are
    /// shed regardless of class.
    pub queue_cap: usize,
    /// Aggregate per-core backlog at which batch arrivals are shed.
    pub shed_batch_depth: usize,
    /// Aggregate per-core backlog at which standard arrivals are also
    /// shed (latency-sensitive work is never shed by this watermark).
    pub shed_standard_depth: usize,
    /// Per-class p99.9 latency SLO targets in ms ([`SloClass::ALL`] order).
    /// The serving layer exports the burn rate against these as
    /// `sfi_qos_slo_burn_permille{class=…}` — 1000 means the observed
    /// p99.9 sits exactly at target, above means the budget is burning.
    pub slo_p999_ms: [f64; 3],
}

impl QosConfig {
    /// The rig used by the overload bench: a 20/50/30 tenant mix, 8/4/1
    /// service weights and watermarks sized to the 15-color pool.
    pub fn paper_rig() -> QosConfig {
        QosConfig {
            shares: [0.2, 0.5, 0.3],
            weights: [8, 4, 1],
            queue_cap: 64,
            shed_batch_depth: 24,
            shed_standard_depth: 96,
            slo_p999_ms: [50.0, 250.0, 2_000.0],
        }
    }
}

/// Stateless tenant-class draw for request `rid`: a pure function of
/// `(seed, rid, shares)` on a dedicated draw stream, so it neither
/// consumes nor perturbs the arrival RNG.
pub fn tenant_class(seed: u64, rid: u32, shares: &[f64; 3]) -> SloClass {
    let total: f64 = shares.iter().filter(|s| s.is_finite() && **s > 0.0).sum();
    if total <= 0.0 {
        return SloClass::Standard;
    }
    let u = fault_draw(seed ^ 0x7E4A47, u64::from(rid), 0) * total;
    let mut acc = 0.0;
    for (i, s) in shares.iter().enumerate() {
        if s.is_finite() && *s > 0.0 {
            acc += s;
            if u < acc {
                return SloClass::ALL[i];
            }
        }
    }
    SloClass::Batch
}

/// The outcome of offering one arrival to a core's admission queues.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Queued; will be admitted on a future slot recycle.
    Queued,
    /// Shed by a watermark or queue bound (never runs).
    Shed,
}

/// Per-core QoS admission state: three bounded queues plus the
/// weighted-round-robin credit scheduler.
#[derive(Debug, Clone)]
pub struct QosQueues {
    waits: [VecDeque<u32>; 3],
    credit: [u32; 3],
    weights: [u32; 3],
    cursor: usize,
}

impl QosQueues {
    /// Empty queues with full credits.
    pub fn new(cfg: &QosConfig) -> QosQueues {
        let weights = [cfg.weights[0].max(1), cfg.weights[1].max(1), cfg.weights[2].max(1)];
        QosQueues {
            waits: [VecDeque::new(), VecDeque::new(), VecDeque::new()],
            credit: weights,
            weights,
            cursor: 0,
        }
    }

    /// Total queued across classes.
    pub fn depth(&self) -> usize {
        self.waits.iter().map(VecDeque::len).sum()
    }

    /// Offers an arrival: sheds by the class's watermark / bound, queues
    /// otherwise. Deterministic — no randomness involved.
    pub fn offer(&mut self, cfg: &QosConfig, rid: u32, class: SloClass) -> Admission {
        let depth = self.depth();
        let q = &self.waits[class.idx()];
        let shed = q.len() >= cfg.queue_cap
            || match class {
                SloClass::Batch => depth >= cfg.shed_batch_depth,
                SloClass::Standard => depth >= cfg.shed_standard_depth,
                SloClass::LatencySensitive => false,
            };
        if shed {
            Admission::Shed
        } else {
            self.waits[class.idx()].push_back(rid);
            Admission::Queued
        }
    }

    /// Pops the next request by weighted round-robin: the cursor class is
    /// served while it has credit and queued work, then the rotation
    /// advances; credits refill when no backlogged class holds any.
    pub fn pop(&mut self) -> Option<(u32, SloClass)> {
        if self.depth() == 0 {
            return None;
        }
        loop {
            for k in 0..3 {
                let c = (self.cursor + k) % 3;
                if !self.waits[c].is_empty() && self.credit[c] > 0 {
                    self.credit[c] -= 1;
                    self.cursor = c;
                    let rid = self.waits[c].pop_front().expect("checked nonempty");
                    return Some((rid, SloClass::ALL[c]));
                }
            }
            // Every backlogged class is out of credit: start a new rotation.
            self.credit = self.weights;
            self.cursor = 0;
        }
    }
}

/// Per-class counters of one run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ClassReport {
    /// Requests of this class that arrived.
    pub offered: u64,
    /// Requests that completed inside the window.
    pub completed: u64,
    /// Requests shed at admission.
    pub shed: u64,
    /// Median completion latency (ms).
    pub p50_ms: f64,
    /// 99th-percentile completion latency (ms).
    pub p99_ms: f64,
}

/// QoS summary of a multi-core run (present when
/// `MultiCoreConfig::qos` is set).
#[derive(Debug, Clone, PartialEq)]
pub struct QosReport {
    /// Per-class counters, [`SloClass::ALL`] order.
    pub per_class: [ClassReport; 3],
    /// Total requests shed.
    pub shed_total: u64,
    /// Shed fraction of offered load (0 when nothing was offered).
    pub shed_rate: f64,
    /// Completions per second — throughput net of shed work.
    pub goodput_rps: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tenant_classes_follow_shares_and_are_stateless() {
        let shares = [0.2, 0.5, 0.3];
        let mut counts = [0u64; 3];
        for rid in 0..20_000u32 {
            counts[tenant_class(0xBEEF, rid, &shares).idx()] += 1;
        }
        for (i, s) in shares.iter().enumerate() {
            let got = counts[i] as f64 / 20_000.0;
            assert!((got - s).abs() < 0.02, "class {i}: {got} vs share {s}");
        }
        // Pure function: same inputs, same class.
        assert_eq!(tenant_class(1, 42, &shares), tenant_class(1, 42, &shares));
        // Degenerate shares fall back without panicking.
        assert_eq!(tenant_class(1, 7, &[0.0, 0.0, 0.0]), SloClass::Standard);
        assert_eq!(tenant_class(1, 7, &[0.0, 0.0, 1.0]), SloClass::Batch);
    }

    #[test]
    fn wfq_serves_classes_by_weight() {
        let cfg = QosConfig { weights: [2, 1, 1], ..QosConfig::paper_rig() };
        let mut q = QosQueues::new(&cfg);
        for rid in 0..12 {
            let class = SloClass::ALL[(rid % 3) as usize];
            assert_eq!(q.offer(&cfg, rid, class), Admission::Queued);
        }
        // 4 per class queued. One full drain: LS must never trail.
        let mut order = Vec::new();
        while let Some((_, c)) = q.pop() {
            order.push(c);
        }
        assert_eq!(order.len(), 12);
        // First rotation serves 2×LS before any batch.
        let first_batch = order.iter().position(|c| *c == SloClass::Batch).unwrap();
        let ls_before = order[..first_batch]
            .iter()
            .filter(|c| **c == SloClass::LatencySensitive)
            .count();
        assert!(ls_before >= 2, "weight-2 LS served before weight-1 batch: {order:?}");
    }

    #[test]
    fn shed_ordering_is_lowest_class_first() {
        let cfg = QosConfig {
            queue_cap: 100,
            shed_batch_depth: 2,
            shed_standard_depth: 4,
            ..QosConfig::paper_rig()
        };
        let mut q = QosQueues::new(&cfg);
        assert_eq!(q.offer(&cfg, 0, SloClass::Batch), Admission::Queued);
        assert_eq!(q.offer(&cfg, 1, SloClass::Batch), Admission::Queued);
        // Depth 2: batch sheds, standard still admitted.
        assert_eq!(q.offer(&cfg, 2, SloClass::Batch), Admission::Shed);
        assert_eq!(q.offer(&cfg, 3, SloClass::Standard), Admission::Queued);
        assert_eq!(q.offer(&cfg, 4, SloClass::Standard), Admission::Queued);
        // Depth 4: standard sheds too; latency-sensitive never does (by
        // watermark — only its own bound can drop it).
        assert_eq!(q.offer(&cfg, 5, SloClass::Standard), Admission::Shed);
        assert_eq!(q.offer(&cfg, 6, SloClass::LatencySensitive), Admission::Queued);
    }

    #[test]
    fn per_class_bound_sheds_even_latency_sensitive() {
        let cfg = QosConfig {
            queue_cap: 1,
            shed_batch_depth: 1_000,
            shed_standard_depth: 1_000,
            ..QosConfig::paper_rig()
        };
        let mut q = QosQueues::new(&cfg);
        assert_eq!(q.offer(&cfg, 0, SloClass::LatencySensitive), Admission::Queued);
        assert_eq!(q.offer(&cfg, 1, SloClass::LatencySensitive), Admission::Shed);
    }

    #[test]
    fn zero_weights_are_clamped_not_starved() {
        let cfg = QosConfig { weights: [0, 0, 0], ..QosConfig::paper_rig() };
        let mut q = QosQueues::new(&cfg);
        q.offer(&cfg, 0, SloClass::Batch);
        assert_eq!(q.pop(), Some((0, SloClass::Batch)), "weight 0 must not deadlock");
        assert_eq!(q.pop(), None);
    }
}
