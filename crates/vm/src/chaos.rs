//! Deterministic fault injection (the chaos layer).
//!
//! ColorGuard's containment story is only credible if the *error* paths are
//! exercised: mapping syscalls that fail transiently (`ENOMEM`, map-count
//! pressure) or persistently, and memory accesses that trap mid-execution.
//! A [`FaultPlan`] attached to an [`crate::AddressSpace`] injects both,
//! fully deterministically from one seed:
//!
//! - **Syscall faults**: each `mmap`/`mprotect`/`pkey_mprotect`/`madvise`
//!   call is numbered per kind; a call either fails by explicit directive
//!   ([`FaultPlan::fail_at`]) or by a seeded per-call Bernoulli draw
//!   ([`FaultPlan::seeded`]). A fault may be *transient* (that call only)
//!   or *persistent* (that call and every later call of the same kind).
//! - **Bus faults**: emulated loads/stores are numbered; at chosen access
//!   counts the access raises a spurious [`MemFault::Protection`] — the
//!   model of an asynchronous fault landing mid-guest-execution
//!   ([`FaultPlan::bus_fault_at`], or rate-based in [`FaultPlan::seeded`]).
//!
//! Determinism is *stateless per index*: whether call `n` of kind `k`
//! faults is a pure hash of `(seed, k, n)`, so two runs with the same plan
//! and same call sequence observe identical faults, and a plan that never
//! fires leaves behaviour bit-identical to having no plan at all — the
//! property the cross-crate containment test relies on.

use std::collections::BTreeSet;

use sfi_x86::MemFault;

/// The mapping operations the chaos layer can fail.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SyscallKind {
    /// `mmap` / `mmap_fixed`.
    Mmap,
    /// `mprotect`.
    Mprotect,
    /// `pkey_mprotect`.
    PkeyMprotect,
    /// `madvise(MADV_DONTNEED)`.
    Madvise,
}

impl SyscallKind {
    /// All injectable kinds.
    pub const ALL: [SyscallKind; 4] =
        [SyscallKind::Mmap, SyscallKind::Mprotect, SyscallKind::PkeyMprotect, SyscallKind::Madvise];

    /// Stable lowercase name, used as the telemetry label value.
    pub fn name(self) -> &'static str {
        match self {
            SyscallKind::Mmap => "mmap",
            SyscallKind::Mprotect => "mprotect",
            SyscallKind::PkeyMprotect => "pkey_mprotect",
            SyscallKind::Madvise => "madvise",
        }
    }

    fn index(self) -> usize {
        match self {
            SyscallKind::Mmap => 0,
            SyscallKind::Mprotect => 1,
            SyscallKind::PkeyMprotect => 2,
            SyscallKind::Madvise => 3,
        }
    }
}

/// Engine-grade fault injections — what the fleet supervisor's chaos mode
/// does to a whole serving member, driven by the same seeded plans as the
/// syscall/bus faults above. These model the host-level failure surface a
/// dense multi-engine deployment actually sees: a wedged accept loop, a
/// scrape connection cut mid-body, a member process dying mid-round.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EngineFault {
    /// The member stops answering its listener: every poll times out until
    /// the member recovers (the aggregator burns its retry budget).
    HangOnAccept,
    /// The member answers but the response is truncated mid-body — the
    /// scrape parses as garbage and counts as a failed attempt.
    TornResponse,
    /// The member panics mid-round: in-flight work is lost and the
    /// supervisor must recover it by checkpoint replay (or retire it).
    MidRoundPanic,
}

impl EngineFault {
    /// All injectable engine fault kinds.
    pub const ALL: [EngineFault; 3] =
        [EngineFault::HangOnAccept, EngineFault::TornResponse, EngineFault::MidRoundPanic];

    /// Stable lowercase name, used as the telemetry label value.
    pub fn name(self) -> &'static str {
        match self {
            EngineFault::HangOnAccept => "hang_on_accept",
            EngineFault::TornResponse => "torn_response",
            EngineFault::MidRoundPanic => "mid_round_panic",
        }
    }

    fn index(self) -> usize {
        match self {
            EngineFault::HangOnAccept => 0,
            EngineFault::TornResponse => 1,
            EngineFault::MidRoundPanic => 2,
        }
    }
}

/// Seeded fault probabilities for [`FaultPlan::seeded`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosConfig {
    /// Probability that any given mapping call fails (per call, per kind).
    pub syscall_fault_rate: f64,
    /// Probability that a fired syscall fault is persistent rather than
    /// transient.
    pub persistent_prob: f64,
    /// Probability that any given emulated memory access raises a spurious
    /// fault.
    pub bus_fault_rate: f64,
    /// Probability that a given (member, round, attempt) poll draws an
    /// [`EngineFault`] (kind chosen by a second seeded draw).
    pub engine_fault_rate: f64,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            syscall_fault_rate: 0.0,
            persistent_prob: 0.0,
            bus_fault_rate: 0.0,
            engine_fault_rate: 0.0,
        }
    }
}

/// Counters of faults actually injected (for reports and assertions).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChaosStats {
    /// Mapping calls failed (all kinds).
    pub syscalls_failed: u64,
    /// Mapping calls failed, broken down per [`SyscallKind`] (indexed as
    /// [`SyscallKind::ALL`]) — the telemetry exporter reads this so
    /// injected `mmap` pressure is distinguishable from `madvise` scrub
    /// failures.
    pub syscalls_failed_by_kind: [u64; 4],
    /// Bus accesses failed.
    pub bus_faults: u64,
    /// Engine-grade faults injected (all kinds).
    pub engine_faults: u64,
    /// Engine-grade faults, broken down per [`EngineFault`] (indexed as
    /// [`EngineFault::ALL`]).
    pub engine_faults_by_kind: [u64; 3],
}

impl ChaosStats {
    /// Injected engine faults of one kind.
    pub fn engine_faults_of(&self, kind: EngineFault) -> u64 {
        self.engine_faults_by_kind[kind.index()]
    }
}

/// SplitMix64-style stateless hash of `(seed, stream, index)` to a uniform
/// `f64` in [0, 1). Every seeded fault schedule in the workspace draws
/// from it — [`FaultPlan`] here and the FaaS simulators' trap, shed and
/// steal draws — so each schedule is a pure function of its seed.
#[inline]
pub fn fault_draw(seed: u64, stream: u64, index: u64) -> f64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(stream.wrapping_mul(0xBF58_476D_1CE4_E5B9))
        .wrapping_add(index.wrapping_mul(0x94D0_49BB_1331_11EB));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// A deterministic fault-injection plan.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    seed: u64,
    cfg: ChaosConfig,
    /// Explicit one-shot directives: (kind, call index).
    explicit: BTreeSet<(usize, u64)>,
    /// Explicit persistent directives: all calls of `kind` with index ≥ n
    /// fail.
    persistent_from: [Option<u64>; 4],
    /// Explicit bus-fault access indices.
    bus_at: BTreeSet<u64>,
    /// Explicit engine-fault directives: (member, round) → fault kind
    /// index. Fires on the first poll attempt of that round only.
    engine_at: BTreeSet<(u64, u64, usize)>,
    /// Calls observed so far, per kind.
    calls: [u64; 4],
    /// Bus accesses observed so far.
    accesses: u64,
    /// Faults injected so far.
    pub stats: ChaosStats,
}

impl FaultPlan {
    /// An empty plan (never fires). Useful as a base for explicit
    /// directives.
    pub fn new() -> FaultPlan {
        FaultPlan::seeded(0, ChaosConfig::default())
    }

    /// A plan whose faults are Bernoulli draws derived from `seed` — the
    /// "one seed ⇒ whole fault schedule" constructor.
    pub fn seeded(seed: u64, cfg: ChaosConfig) -> FaultPlan {
        FaultPlan {
            seed,
            cfg,
            explicit: BTreeSet::new(),
            persistent_from: [None; 4],
            bus_at: BTreeSet::new(),
            engine_at: BTreeSet::new(),
            calls: [0; 4],
            accesses: 0,
            stats: ChaosStats::default(),
        }
    }

    /// Adds an explicit transient fault: the `n`-th call (0-based) of
    /// `kind` fails.
    #[must_use]
    pub fn fail_at(mut self, kind: SyscallKind, n: u64) -> FaultPlan {
        self.explicit.insert((kind.index(), n));
        self
    }

    /// Adds an explicit persistent fault: every call of `kind` with index
    /// ≥ `n` fails.
    #[must_use]
    pub fn fail_from(mut self, kind: SyscallKind, n: u64) -> FaultPlan {
        let slot = &mut self.persistent_from[kind.index()];
        *slot = Some(slot.map_or(n, |cur| cur.min(n)));
        self
    }

    /// Adds an explicit spurious bus fault at emulated access number `n`
    /// (0-based, counting loads and stores together).
    #[must_use]
    pub fn bus_fault_at(mut self, n: u64) -> FaultPlan {
        self.bus_at.insert(n);
        self
    }

    /// Adds an explicit engine fault: member `member` suffers `fault` in
    /// round `round` (0-based), on the first poll attempt of that round —
    /// retries after recovery re-draw from the seeded stream instead, so a
    /// scheduled kill cannot re-fire forever.
    #[must_use]
    pub fn engine_fail_at(mut self, member: u64, round: u64, fault: EngineFault) -> FaultPlan {
        self.engine_at.insert((member, round, fault.index()));
        self
    }

    /// This plan's [`fault_draw`] for `(stream, index)`.
    fn draw(&self, stream: u64, index: u64) -> f64 {
        fault_draw(self.seed, stream, index)
    }

    /// Records one call of `kind` and decides whether it faults.
    pub(crate) fn syscall_fires(&mut self, kind: SyscallKind) -> bool {
        let k = kind.index();
        let n = self.calls[k];
        self.calls[k] += 1;

        let fires = self.explicit.contains(&(k, n))
            || self.persistent_from[k].is_some_and(|from| n >= from)
            || (self.cfg.syscall_fault_rate > 0.0 && {
                let fault = self.draw(k as u64, n) < self.cfg.syscall_fault_rate;
                // A seeded fault may be persistent: latch it.
                if fault && self.draw(0x50, n ^ (k as u64) << 32) < self.cfg.persistent_prob {
                    self.persistent_from[k] = Some(n);
                }
                fault
            });
        if fires {
            self.stats.syscalls_failed += 1;
            self.stats.syscalls_failed_by_kind[k] += 1;
        }
        fires
    }

    /// Decides whether poll `attempt` (0-based) of `member` in `round`
    /// suffers an engine-grade fault, and which kind. Stateless per index,
    /// like the syscall stream: the decision is a pure function of
    /// `(seed, member, round, attempt)` plus the explicit directives, so a
    /// supervisor replaying a recovered member observes the identical fault
    /// schedule. Explicit [`FaultPlan::engine_fail_at`] directives fire at
    /// attempt 0 only; seeded draws apply to every attempt (a flaky member
    /// can fail retries too). Public, unlike the syscall/bus hooks: the
    /// fleet supervisor lives in another crate.
    pub fn engine_fires(&mut self, member: u64, round: u64, attempt: u32) -> Option<EngineFault> {
        let explicit = if attempt == 0 {
            EngineFault::ALL
                .into_iter()
                .find(|f| self.engine_at.contains(&(member, round, f.index())))
        } else {
            None
        };
        let fired = explicit.or_else(|| {
            if self.cfg.engine_fault_rate <= 0.0 {
                return None;
            }
            // Pack (member, round, attempt) into one index; the stream
            // constant keeps engine draws independent of syscall/bus draws.
            let index = member
                .wrapping_mul(0x1_0000_0000)
                .wrapping_add(round.wrapping_mul(0x1_0000))
                .wrapping_add(attempt as u64);
            if self.draw(0xE1, index) < self.cfg.engine_fault_rate {
                let kind = (self.draw(0xE2, index) * EngineFault::ALL.len() as f64) as usize;
                Some(EngineFault::ALL[kind.min(EngineFault::ALL.len() - 1)])
            } else {
                None
            }
        });
        if let Some(f) = fired {
            self.stats.engine_faults += 1;
            self.stats.engine_faults_by_kind[f.index()] += 1;
        }
        fired
    }

    /// Records one bus access and decides whether it raises a spurious
    /// fault at `addr`.
    pub(crate) fn bus_fires(&mut self, addr: u64) -> Option<MemFault> {
        let n = self.accesses;
        self.accesses += 1;
        let fires = self.bus_at.contains(&n)
            || (self.cfg.bus_fault_rate > 0.0 && self.draw(0xB5, n) < self.cfg.bus_fault_rate);
        if fires {
            self.stats.bus_faults += 1;
            Some(MemFault::Protection { addr })
        } else {
            None
        }
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_never_fires() {
        let mut p = FaultPlan::new();
        for _ in 0..1000 {
            assert!(!p.syscall_fires(SyscallKind::Mmap));
            assert!(p.bus_fires(0x1000).is_none());
        }
        assert_eq!(p.stats, ChaosStats::default());
    }

    #[test]
    fn explicit_directives_fire_exactly_once() {
        let mut p = FaultPlan::new().fail_at(SyscallKind::Madvise, 2);
        assert!(!p.syscall_fires(SyscallKind::Madvise));
        assert!(!p.syscall_fires(SyscallKind::Madvise));
        assert!(p.syscall_fires(SyscallKind::Madvise));
        assert!(!p.syscall_fires(SyscallKind::Madvise));
        // Other kinds are independent streams.
        assert!(!p.syscall_fires(SyscallKind::Mmap));
        assert_eq!(p.stats.syscalls_failed, 1);
    }

    #[test]
    fn persistent_directives_latch() {
        let mut p = FaultPlan::new().fail_from(SyscallKind::Mprotect, 3);
        let fired: Vec<bool> = (0..6).map(|_| p.syscall_fires(SyscallKind::Mprotect)).collect();
        assert_eq!(fired, [false, false, false, true, true, true]);
    }

    #[test]
    fn seeded_plans_are_deterministic() {
        let cfg = ChaosConfig {
            syscall_fault_rate: 0.3,
            persistent_prob: 0.2,
            bus_fault_rate: 0.1,
            ..ChaosConfig::default()
        };
        let mut a = FaultPlan::seeded(42, cfg);
        let mut b = FaultPlan::seeded(42, cfg);
        for i in 0..500 {
            let kind = SyscallKind::ALL[i % 4];
            assert_eq!(a.syscall_fires(kind), b.syscall_fires(kind));
            assert_eq!(a.bus_fires(i as u64).is_some(), b.bus_fires(i as u64).is_some());
        }
        assert_eq!(a.stats, b.stats);
        assert!(a.stats.syscalls_failed > 0, "a 30% rate over 500 calls must fire");
        assert!(a.stats.bus_faults > 0);
    }

    #[test]
    fn different_seeds_differ() {
        let cfg = ChaosConfig { syscall_fault_rate: 0.5, ..ChaosConfig::default() };
        let mut a = FaultPlan::seeded(1, cfg);
        let mut b = FaultPlan::seeded(2, cfg);
        let fa: Vec<bool> = (0..64).map(|_| a.syscall_fires(SyscallKind::Mmap)).collect();
        let fb: Vec<bool> = (0..64).map(|_| b.syscall_fires(SyscallKind::Mmap)).collect();
        assert_ne!(fa, fb);
    }

    #[test]
    fn explicit_engine_faults_fire_on_first_attempt_only() {
        let mut p = FaultPlan::new()
            .engine_fail_at(1, 2, EngineFault::MidRoundPanic)
            .engine_fail_at(0, 0, EngineFault::HangOnAccept);
        assert_eq!(p.engine_fires(0, 0, 0), Some(EngineFault::HangOnAccept));
        assert_eq!(p.engine_fires(0, 0, 1), None, "retry re-draws, directive spent");
        assert_eq!(p.engine_fires(1, 2, 0), Some(EngineFault::MidRoundPanic));
        assert_eq!(p.engine_fires(1, 1, 0), None, "other rounds untouched");
        assert_eq!(p.engine_fires(2, 2, 0), None, "other members untouched");
        assert_eq!(p.stats.engine_faults, 2);
        assert_eq!(p.stats.engine_faults_of(EngineFault::HangOnAccept), 1);
        assert_eq!(p.stats.engine_faults_of(EngineFault::MidRoundPanic), 1);
        assert_eq!(p.stats.engine_faults_of(EngineFault::TornResponse), 0);
    }

    #[test]
    fn seeded_engine_faults_are_deterministic_and_stateless() {
        let cfg = ChaosConfig { engine_fault_rate: 0.25, ..ChaosConfig::default() };
        let mut a = FaultPlan::seeded(7, cfg);
        let mut b = FaultPlan::seeded(7, cfg);
        let mut fired = 0;
        for member in 0..4u64 {
            for round in 0..32u64 {
                for attempt in 0..3u32 {
                    let fa = a.engine_fires(member, round, attempt);
                    assert_eq!(fa, b.engine_fires(member, round, attempt));
                    fired += u64::from(fa.is_some());
                }
            }
        }
        assert!(fired > 0, "a 25% rate over 384 draws must fire");
        assert_eq!(a.stats.engine_faults, fired);
        // Stateless: re-querying the same index gives the same answer, and
        // draws are independent of the syscall/bus call history.
        let first = FaultPlan::seeded(7, cfg).engine_fires(2, 5, 0);
        let mut busy = FaultPlan::seeded(7, cfg);
        for _ in 0..100 {
            busy.syscall_fires(SyscallKind::Mmap);
            busy.bus_fires(0x1000);
        }
        assert_eq!(busy.engine_fires(2, 5, 0), first);
        // A zero rate never fires and an empty plan stays inert.
        let mut off = FaultPlan::new();
        for round in 0..64 {
            assert_eq!(off.engine_fires(0, round, 0), None);
        }
    }

    #[test]
    fn bus_fault_reports_faulting_address() {
        let mut p = FaultPlan::new().bus_fault_at(1);
        assert!(p.bus_fires(0xAAAA).is_none());
        match p.bus_fires(0xBBBB) {
            Some(MemFault::Protection { addr }) => assert_eq!(addr, 0xBBBB),
            other => panic!("expected injected protection fault, got {other:?}"),
        }
    }
}
