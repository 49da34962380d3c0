//! The fleet supervisor: N serving engines behind one federated scrape
//! surface, with engine-level fault budgets and deterministic
//! crash-recovery.
//!
//! The paper's scalability story (§6.4.2) is about *density* — thousands of
//! sandboxed instances per host — and density multiplies the failure
//! surface: a single wedged engine must not take the whole telemetry plane
//! down. This module escalates PR 1's slot-level quarantine machinery to
//! the engine level:
//!
//! - A [`FleetSupervisor`] owns N [`ServeEngine`] members (each with its
//!   own seed and shard set) and drives them in lock-step rounds. After
//!   each member's round, an in-process **aggregator poll** scrapes the
//!   member's `/healthz` and `/metrics` renderings under a bounded
//!   deterministic [`RetryPolicy`] — backoff and timeouts are charged to a
//!   [`VirtualClock`], so a recovery trace is byte-reproducible.
//! - Engine-grade chaos rides the same seeded [`FaultPlan`]s as PR 1's
//!   syscall/bus faults: [`EngineFault::HangOnAccept`] burns the poll's
//!   retry budget, [`EngineFault::TornResponse`] truncates the scrape body
//!   mid-JSON, and [`EngineFault::MidRoundPanic`] panics the member's
//!   driver for real (caught with `catch_unwind`; the torn engine is
//!   discarded).
//! - Fault budgets reuse [`QuarantinePolicy`] from `sfi-pool`: a member
//!   that accumulates [`QuarantinePolicy::max_faults`] faulted rounds is
//!   **retired** — its queued work is dead-lettered and it answers no more
//!   polls. Below the budget, a crashed member is **recovered by replay**:
//!   a fresh engine re-runs `(seed, completed_rounds)` from the checkpoint,
//!   which — because every [`ServeEngine`] is a pure function of its config
//!   and round count — reproduces the pre-crash modeled state *byte for
//!   byte*, then re-runs the interrupted round.
//! - The federated scrape surface merges member registries with
//!   [`Registry::merge_labeled_from`] under an `engine="<id>"` label, so
//!   same-schema members cannot collide while genuine kind collisions still
//!   panic. `/snapshot` serves the merged modeled registry only; all
//!   supervision bookkeeping (poll attempts, faults, restarts, retirements)
//!   lives in a separate fleet meta registry (`/metrics` only) — chaos on
//!   vs off therefore differs *only* in the injected-fault series, the
//!   fleet-level restatement of the DESIGN.md §8 zero-observer-effect
//!   contract.

use std::panic::{catch_unwind, AssertUnwindSafe};

use sfi_pool::QuarantinePolicy;
use sfi_telemetry::{
    json_is_valid, json_snapshot, pack_span, retry_with, AlertEngine, AlertRule,
    BucketExemplars, CompareOp, CounterId, FoldedStacks, GaugeId, HttpResponse,
    RecordingRule, Registry, RetryPolicy, RuleSource, SpanLevel, TraceEvent, TraceKind,
    VirtualClock,
};
use sfi_vm::{EngineFault, FaultPlan};

use crate::serve::{
    folded_json, ExtraEndpoint, ScrapePlane, ScrapeSurface, ServeConfig, ServeEngine,
    ALERT_LOG_CAPACITY,
};

/// Name of the fleet-level multi-window LS burn alert (the closed-loop
/// scale-out trigger).
pub const FLEET_BURN_RULE: &str = "fleet_slo_burn_ls";

/// Name of the per-member availability alert (the closed-loop quarantine
/// trigger). One rule covers every member: the availability gauge is a
/// per-`engine="<id>"` series, and alert state machines are per series.
pub const MEMBER_AVAILABILITY_RULE: &str = "member_availability";

/// Modeled round-trip of one successful in-process aggregator poll, in
/// virtual ns (a loopback scrape, not a WAN hop).
const POLL_RTT_NS: u64 = 50_000;

/// Modeled virtual-ns cost of a poll attempt that hangs until the
/// aggregator's timeout fires.
const POLL_TIMEOUT_NS: u64 = 2_000_000;

/// Configuration for a supervised fleet.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// One serving config per member. Seeds should differ per member
    /// ([`FleetConfig::paper_rig`] decorrelates them for you).
    pub members: Vec<ServeConfig>,
    /// Engine-level fault budget: `max_faults` faulted rounds retire a
    /// member for good (shared with the slot-level pool policy — same
    /// escalation ladder, one level up).
    pub policy: QuarantinePolicy,
    /// Engine-grade chaos plan (explicit kills and/or seeded rates). An
    /// empty plan never fires.
    pub chaos: FaultPlan,
    /// Aggregator poll schedule: bounded attempts with exponential
    /// backoff, charged to the virtual clock.
    pub retry: RetryPolicy,
    /// Capacity of the fleet's supervision trace ring (up to 1/16 as many
    /// fault events are pinned past it:
    /// [`sfi_telemetry::Retention::PinFaults`]).
    pub stream_capacity: usize,
    /// Elastic sizing on sustained occupancy crossings; `None` (the
    /// default) keeps the fleet static, byte-identical to the pre-elastic
    /// supervisor.
    pub autoscale: Option<AutoscalePolicy>,
    /// Closed-loop alerting: fleet-level recording + alert rules evaluated
    /// over a federated tsdb after every round, with alert-driven scale-out
    /// and member quarantine. `None` (the default) disables the rule engine
    /// entirely and keeps the supervisor byte-identical to the pre-alerting
    /// fleet.
    pub alerting: Option<FleetAlertPolicy>,
}

/// Closed-loop alerting policy. The supervisor ingests the federated
/// modeled registry (plus every member's SLO burn gauges and a per-member
/// poll-availability gauge) into its own [`sfi_telemetry::Tsdb`] after each round, then
/// evaluates two built-in rules:
///
/// - [`FLEET_BURN_RULE`]: multi-window LS burn over the member burn series
///   (2-round fast / 6-round slow, both ≥ `burn_threshold_permille`).
///   While firing, the supervisor spawns surge members from `template` (up
///   to `max_members` live) — alerting and occupancy autoscale share the
///   same spawn machinery and the same monotone member-id seed derivation.
/// - [`MEMBER_AVAILABILITY_RULE`]: windowed mean of each member's poll
///   availability (permille; 2-round fast / 4-round slow, both ≤
///   `availability_floor_permille`). A firing member is quarantined —
///   retired with reason [`RetireReason::Quarantined`].
///
/// Every input is modeled state or a deterministic poll outcome, so the
/// whole control loop — alert timeline included — replays byte-identically
/// through checkpoint recovery.
#[derive(Debug, Clone)]
pub struct FleetAlertPolicy {
    /// Burn threshold (permille of the SLO target) both burn windows must
    /// reach; 1000 = p99.9 exactly at target.
    pub burn_threshold_permille: f64,
    /// Member availability floor in permille of polls succeeded.
    pub availability_floor_permille: f64,
    /// Spawn a member from `template` while [`FLEET_BURN_RULE`] fires.
    pub scale_out_on_burn: bool,
    /// Quarantine members whose [`MEMBER_AVAILABILITY_RULE`] series fires.
    pub quarantine_on_availability: bool,
    /// Live-member ceiling for alert-driven scale-out.
    pub max_members: usize,
    /// Config template for alert-spawned members (seeds re-derived per id).
    pub template: ServeConfig,
}

impl FleetAlertPolicy {
    /// The paper-rig loop: scale out at sustained burn ≥ 1000 permille
    /// (SLO breach), quarantine members under 500 permille availability.
    pub fn paper_rig(template: ServeConfig) -> FleetAlertPolicy {
        FleetAlertPolicy {
            burn_threshold_permille: 1000.0,
            availability_floor_permille: 500.0,
            scale_out_on_burn: true,
            quarantine_on_availability: true,
            max_members: 8,
            template,
        }
    }
}

/// Installs the built-in fleet rules described on [`FleetAlertPolicy`].
fn fleet_rules(alerts: &mut AlertEngine, p: &FleetAlertPolicy) {
    alerts.add_recording(RecordingRule {
        record: "sfi_fleet_goodput_permille",
        labels: Vec::new(),
        source: RuleSource::RatioPermille {
            num: "increase(sfi_qos_completed_total[8r])".to_owned(),
            den: "increase(sfi_qos_offered_total[8r])".to_owned(),
        },
    });
    alerts.add_alert(AlertRule {
        name: FLEET_BURN_RULE,
        fast: "avg_over_time(sfi_qos_slo_burn_permille{class=\"latency_sensitive\"}[2r])"
            .to_owned(),
        slow: "avg_over_time(sfi_qos_slo_burn_permille{class=\"latency_sensitive\"}[6r])"
            .to_owned(),
        op: CompareOp::Ge,
        threshold: p.burn_threshold_permille,
        for_rounds: 1,
    });
    alerts.add_alert(AlertRule {
        name: MEMBER_AVAILABILITY_RULE,
        fast: "avg_over_time(sfi_fleet_member_availability_permille[2r])".to_owned(),
        slow: "avg_over_time(sfi_fleet_member_availability_permille[4r])".to_owned(),
        op: CompareOp::Le,
        threshold: p.availability_floor_permille,
        for_rounds: 1,
    });
}

/// Elastic fleet sizing. The supervisor watches the mean engine occupancy
/// of the live members after every round; a sustained crossing of the high
/// watermark spawns a new member (up to `max_members`), a sustained
/// crossing below the low watermark retires the newest live member
/// gracefully (down to `min_members`, reason [`RetireReason::ScaledIn`] —
/// no dead-letters, no failed polls).
///
/// Occupancy is *modeled* state — a pure function of a member's config and
/// round count — so scale decisions replay byte-identically, including
/// through a mid-round crash recovered from checkpoint. New members derive
/// their seeds from the template by the same splitmix mix
/// [`FleetConfig::paper_rig`] uses, keyed by a monotone member id that is
/// never reused: the whole elastic trajectory is a pure function of the
/// initial config.
#[derive(Debug, Clone)]
pub struct AutoscalePolicy {
    /// Scale-in floor (never retires below this many live members).
    pub min_members: usize,
    /// Scale-out ceiling (never spawns above this many live members).
    pub max_members: usize,
    /// Mean occupancy at or above which a round counts toward scale-out.
    pub high_occupancy: f64,
    /// Mean occupancy at or below which a round counts toward scale-in.
    pub low_occupancy: f64,
    /// Consecutive qualifying rounds required before a scale event fires
    /// (clamped to ≥ 1); the streak resets after every event.
    pub sustain_rounds: u32,
    /// Config template for spawned members (seeds are re-derived per id).
    pub template: ServeConfig,
}

impl AutoscalePolicy {
    /// Watermarks sized for the paper rig: scale out when the color pools
    /// sit ≥ 95% full for 2 rounds, scale in below 50%.
    pub fn paper_rig(template: ServeConfig) -> AutoscalePolicy {
        AutoscalePolicy {
            min_members: 1,
            max_members: 8,
            high_occupancy: 0.95,
            low_occupancy: 0.5,
            sustain_rounds: 2,
            template,
        }
    }
}

/// Why a member was retired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetireReason {
    /// Fault budget exhausted ([`QuarantinePolicy::max_faults`]): queued
    /// work dead-lettered, every later poll fails.
    FaultBudget,
    /// Gracefully drained by the autoscaler on sustained low occupancy: no
    /// dead-letters, no failed polls.
    ScaledIn,
    /// Evicted by a firing [`MEMBER_AVAILABILITY_RULE`] alert: the member
    /// was answering too few polls, so the closed loop cut it loose before
    /// the fault budget would have (queued work dead-letters like a
    /// fault-budget retirement — the member was losing it anyway).
    Quarantined,
}

impl RetireReason {
    /// Stable lowercase name for JSON and telemetry.
    pub fn name(self) -> &'static str {
        match self {
            RetireReason::FaultBudget => "fault_budget",
            RetireReason::ScaledIn => "scaled_in",
            RetireReason::Quarantined => "quarantined",
        }
    }
}

impl FleetConfig {
    /// A fleet of `members` engines, each a [`ServeConfig::paper_rig`] with
    /// `cores` cores and a member-decorrelated seed.
    pub fn paper_rig(members: u32, cores: u32) -> FleetConfig {
        let members = (0..members)
            .map(|m| {
                let mut cfg = ServeConfig::paper_rig(cores);
                // Same splitmix-style mix the round seeds use: members are
                // decorrelated but the fleet stays a pure function of the
                // per-member base seeds.
                cfg.engine.seed = crate::serve::round_seed(cfg.engine.seed, 0x4_0000 + m as u64);
                cfg.probe.seed = crate::serve::round_seed(cfg.probe.seed, 0x8_0000 + m as u64);
                cfg
            })
            .collect();
        FleetConfig {
            members,
            policy: QuarantinePolicy::default(),
            chaos: FaultPlan::new(),
            retry: RetryPolicy::default(),
            stream_capacity: 4096,
            autoscale: None,
            alerting: None,
        }
    }
}

/// A member's lifecycle state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemberState {
    /// Serving rounds and answering polls.
    Live,
    /// Fault budget exhausted: frozen at its last checkpoint, queued work
    /// dead-lettered, answers no more polls.
    Retired,
}

impl MemberState {
    /// Stable lowercase name for JSON and telemetry.
    pub fn name(self) -> &'static str {
        match self {
            MemberState::Live => "live",
            MemberState::Retired => "retired",
        }
    }
}

/// A point-in-time view of one member (the `/fleet` endpoint's unit).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemberStatus {
    /// Member id (index into [`FleetConfig::members`]).
    pub id: u64,
    /// Lifecycle state.
    pub state: MemberState,
    /// Rounds the member's engine has completed.
    pub rounds: u64,
    /// Faulted rounds so far (any injected kind; at most one per round).
    pub faults: u32,
    /// Crash-recoveries by checkpoint replay.
    pub restarts: u64,
    /// Rounds completed as of the last checkpoint.
    pub checkpoint_rounds: u64,
    /// Rounds of queued work dead-lettered (the interrupted round at
    /// retirement plus one per round spent retired; scale-in retirement is
    /// graceful and dead-letters nothing).
    pub dead_lettered_rounds: u64,
    /// Requests dead-lettered by the member's own health probe (cumulative
    /// engine-level count, distinct from the supervisor's round ledger).
    pub dead_lettered_requests: u64,
    /// Why the member was retired (`None` while live).
    pub retire_reason: Option<RetireReason>,
}

/// One supervised member.
#[derive(Debug)]
struct Member {
    id: u64,
    cfg: ServeConfig,
    engine: ServeEngine,
    state: MemberState,
    faults: u32,
    restarts: u64,
    checkpoint_rounds: u64,
    dead_lettered_rounds: u64,
    retire_reason: Option<RetireReason>,
}

impl Member {
    /// A fresh live member `id` running `cfg`.
    fn new(id: u64, cfg: ServeConfig) -> Member {
        Member {
            id,
            engine: ServeEngine::new(cfg.clone()),
            cfg,
            state: MemberState::Live,
            faults: 0,
            restarts: 0,
            checkpoint_rounds: 0,
            dead_lettered_rounds: 0,
            retire_reason: None,
        }
    }

    /// An uninterrupted replay of this member's config for `rounds`
    /// rounds — the crash-recovery primitive *and* the byte-equality
    /// reference the `--check` gate diffs against.
    fn replay(cfg: &ServeConfig, rounds: u64) -> ServeEngine {
        let mut eng = ServeEngine::new(cfg.clone());
        for _ in 0..rounds {
            eng.run_round();
        }
        eng
    }

    fn status(&self) -> MemberStatus {
        MemberStatus {
            id: self.id,
            state: self.state,
            rounds: self.engine.rounds(),
            faults: self.faults,
            restarts: self.restarts,
            checkpoint_rounds: self.checkpoint_rounds,
            dead_lettered_rounds: self.dead_lettered_rounds,
            dead_lettered_requests: self.engine.dead_lettered(),
            retire_reason: self.retire_reason,
        }
    }
}

/// Fleet meta-registry counter ids (supervision bookkeeping; `/metrics`
/// only, never `/snapshot`).
#[derive(Debug)]
struct FleetMeta {
    rounds: CounterId,
    polls: CounterId,
    poll_failures: CounterId,
    poll_attempts: CounterId,
    faults_by_kind: [CounterId; 3],
    restarts: CounterId,
    retirements: CounterId,
    dead_lettered: CounterId,
    scale_out: CounterId,
    scale_in: CounterId,
    alert_scale_out: CounterId,
    quarantines: CounterId,
    members_live: GaugeId,
}

impl FleetMeta {
    fn register(reg: &mut Registry) -> FleetMeta {
        FleetMeta {
            rounds: reg.counter("sfi_fleet_rounds_total"),
            polls: reg.counter("sfi_fleet_polls_total"),
            poll_failures: reg.counter("sfi_fleet_poll_failures_total"),
            poll_attempts: reg.counter("sfi_fleet_poll_attempts_total"),
            faults_by_kind: [
                EngineFault::HangOnAccept,
                EngineFault::TornResponse,
                EngineFault::MidRoundPanic,
            ]
            .map(|f| reg.counter_with("sfi_fleet_member_faults_total", &[("kind", f.name())])),
            restarts: reg.counter("sfi_fleet_restarts_total"),
            retirements: reg.counter("sfi_fleet_retirements_total"),
            dead_lettered: reg.counter("sfi_fleet_dead_lettered_rounds_total"),
            scale_out: reg.counter("sfi_fleet_scale_out_total"),
            scale_in: reg.counter("sfi_fleet_scale_in_total"),
            alert_scale_out: reg.counter("sfi_fleet_alert_scale_out_total"),
            quarantines: reg.counter("sfi_fleet_quarantines_total"),
            members_live: reg.gauge("sfi_fleet_members_live"),
        }
    }
}

/// The supervised fleet: members, their lifecycle, the aggregator, and the
/// federated scrape surface. Drive it with [`FleetSupervisor::run_round`];
/// scrape it through the endpoint renderers.
#[derive(Debug)]
pub struct FleetSupervisor {
    policy: QuarantinePolicy,
    retry: RetryPolicy,
    chaos: FaultPlan,
    members: Vec<Member>,
    /// Virtual time: round durations, poll RTTs, timeouts and backoff all
    /// advance this clock, so the supervision trace is byte-reproducible.
    clock: VirtualClock,
    /// The supervision trace (member lifecycle + poll outcomes), the
    /// federated tsdb, the fleet rules and the scrape counters. The tsdb
    /// holds the merged modeled registry, member burn gauges and
    /// per-member poll-availability gauges, ingested once per round — a
    /// pure function of `(config, rounds)`, since every input is modeled
    /// state or a deterministic poll outcome.
    plane: ScrapePlane,
    /// Supervision bookkeeping (merged into `/metrics` only).
    reg: Registry,
    meta: FleetMeta,
    rounds: u64,
    polls: u64,
    failed_polls: u64,
    autoscale: Option<AutoscalePolicy>,
    alerting: Option<FleetAlertPolicy>,
    /// Next member id to assign — monotone, never reused, so spawned
    /// members' derived seeds are a pure function of the spawn order.
    next_member_id: u64,
    /// Consecutive rounds at/above the high watermark.
    high_streak: u32,
    /// Consecutive rounds at/below the low watermark.
    low_streak: u32,
}

impl FleetSupervisor {
    /// A fresh fleet; no rounds run yet, all members live.
    pub fn new(cfg: FleetConfig) -> FleetSupervisor {
        let mut reg = Registry::new();
        let meta = FleetMeta::register(&mut reg);
        let mut clock = VirtualClock::new();
        let mut alerts = AlertEngine::new(ALERT_LOG_CAPACITY);
        if let Some(p) = &cfg.alerting {
            fleet_rules(&mut alerts, p);
        }
        let mut plane = ScrapePlane::new::<FleetSupervisor>(cfg.stream_capacity, alerts);
        let members: Vec<Member> = cfg
            .members
            .into_iter()
            .enumerate()
            .map(|(i, mcfg)| Member::new(i as u64, mcfg))
            .collect();
        for m in &members {
            plane.stream.record(TraceEvent {
                tick: clock.now(),
                core: m.id as u32,
                sandbox: m.id,
                kind: TraceKind::Spawn,
                arg: 0,
            });
            clock.advance(1);
        }
        reg.set(meta.members_live, members.len() as i64);
        let next_member_id = members.len() as u64;
        FleetSupervisor {
            policy: cfg.policy,
            retry: cfg.retry,
            chaos: cfg.chaos,
            members,
            clock,
            plane,
            reg,
            meta,
            rounds: 0,
            polls: 0,
            failed_polls: 0,
            autoscale: cfg.autoscale,
            alerting: cfg.alerting,
            next_member_id,
            high_streak: 0,
            low_streak: 0,
        }
    }

    /// Drives one fleet round: every live member runs an engine round
    /// (under chaos, with crash-recovery), then the aggregator polls it
    /// under the retry budget. Retired members contribute a dead-lettered
    /// round and a failed poll.
    pub fn run_round(&mut self) {
        let r = self.rounds;
        // Per-member poll outcomes this round, feeding the availability
        // gauge series behind the quarantine alert.
        let mut poll_ok: Vec<(u64, bool)> = Vec::new();
        for idx in 0..self.members.len() {
            if self.members[idx].state == MemberState::Retired {
                // A gracefully drained member holds no queued work and is
                // off the poll schedule entirely — retirement by scale-in
                // must not bleed availability.
                if self.members[idx].retire_reason == Some(RetireReason::ScaledIn) {
                    continue;
                }
                poll_ok.push(self.dead_letter_round(idx));
                continue;
            }
            // The round's attempt-0 chaos draw decides the member's fate:
            // a mid-round panic strikes the driver; a hang or torn response
            // strikes the first poll attempt instead.
            let fault0 = self.chaos.engine_fires(self.members[idx].id, r, 0);
            let duration_ns = self.members[idx].cfg.engine.duration_ms * 1_000_000;
            // With spans on, the member's round is the root (level-0) span
            // of every request tree it contains (DESIGN.md §14).
            let spans = self.members[idx].cfg.engine.spans;
            let member_id = self.members[idx].id;
            let round_tid =
                crate::shard::trace_id(self.members[idx].cfg.engine.seed ^ 0xF1EE_7000, r);
            let span = |start: bool| pack_span(SpanLevel::FleetMember, start, !start, member_id);
            if spans {
                self.trace(member_id, round_tid, TraceKind::Flow, span(true));
            }
            if fault0 == Some(EngineFault::MidRoundPanic) {
                self.crash_and_recover(idx, r);
            } else {
                self.members[idx].engine.run_round();
                self.members[idx].checkpoint_rounds = self.members[idx].engine.rounds();
            }
            self.clock.advance(duration_ns);
            if spans {
                self.trace(member_id, round_tid, TraceKind::Flow, span(false));
            }
            if let Some(f) = fault0 {
                self.note_fault(idx, f);
            }
            // Budget check before the poll: a round whose fault exhausted
            // the budget is dead-lettered — its work is lost, so it counts
            // as a failed poll, not a served one.
            if self.members[idx].faults >= self.policy.max_faults {
                self.retire(idx, RetireReason::FaultBudget);
                poll_ok.push(self.dead_letter_round(idx));
            } else {
                let ok = self.poll_member(idx, r, fault0);
                poll_ok.push((self.members[idx].id, ok));
            }
        }
        self.rounds += 1;
        self.reg.inc(self.meta.rounds);
        self.autoscale_pass();
        self.alert_pass(&poll_ok);
    }

    /// Books member `idx`'s round as dead-lettered: its work is lost, so
    /// the round counts as a failed poll. Returns the poll outcome.
    fn dead_letter_round(&mut self, idx: usize) -> (u64, bool) {
        self.members[idx].dead_lettered_rounds += 1;
        self.reg.inc(self.meta.dead_lettered);
        self.polls += 1;
        self.failed_polls += 1;
        self.reg.inc(self.meta.polls);
        self.reg.inc(self.meta.poll_failures);
        (self.members[idx].id, false)
    }

    /// Records a supervision trace event at the current virtual time.
    fn trace(&mut self, core: u64, sandbox: u64, kind: TraceKind, arg: u64) {
        let tick = self.clock.now();
        self.plane.stream.record(TraceEvent { tick, core: core as u32, sandbox, kind, arg });
    }

    /// Ingests the round into the federated tsdb, evaluates the fleet
    /// rules, and acts on what fires: surge scale-out while the burn alert
    /// is up, quarantine for members whose availability alert is up. A
    /// no-op without an alerting policy.
    fn alert_pass(&mut self, poll_ok: &[(u64, bool)]) {
        let Some(policy) = self.alerting.clone() else { return };
        let round = self.rounds;
        let mut merged = self.merged_registry();
        for m in &self.members {
            merged.merge_labeled_from(m.engine.burn_registry(), "engine", &m.id.to_string());
        }
        self.plane.tsdb.ingest(round, &merged);
        for (id, ok) in poll_ok {
            let key = format!("sfi_fleet_member_availability_permille{{engine=\"{id}\"}}");
            self.plane.tsdb.store_gauge(&key, round, if *ok { 1000 } else { 0 });
        }
        self.plane.evaluate_alerts(round, self.clock.now());
        if policy.scale_out_on_burn
            && self.plane.alerts.is_firing(FLEET_BURN_RULE)
            && self.members_live() < policy.max_members
        {
            self.scale_out_from(&policy.template, 3);
            self.reg.inc(self.meta.alert_scale_out);
        }
        if policy.quarantine_on_availability {
            for key in self.plane.alerts.firing_series(MEMBER_AVAILABILITY_RULE) {
                if let Some(idx) = self.member_idx_of_series(&key) {
                    if self.members[idx].state == MemberState::Live {
                        self.retire(idx, RetireReason::Quarantined);
                        self.reg.inc(self.meta.quarantines);
                    }
                }
            }
        }
    }

    /// Resolves the `engine="<id>"` label of an availability alert series
    /// back to a member index.
    fn member_idx_of_series(&self, key: &str) -> Option<usize> {
        let rest = &key[key.find("engine=\"")? + "engine=\"".len()..];
        let id: u64 = rest[..rest.find('"')?].parse().ok()?;
        self.members.iter().position(|m| m.id == id)
    }

    /// Evaluates the autoscale watermarks after a round: mean live-member
    /// occupancy against the policy, with a sustain streak before any
    /// event. Occupancy is modeled state, so this whole pass — and
    /// therefore the fleet's size trajectory — replays byte-identically,
    /// crash recovery included.
    fn autoscale_pass(&mut self) {
        let Some(policy) = &self.autoscale else { return };
        let live: Vec<usize> = (0..self.members.len())
            .filter(|i| self.members[*i].state == MemberState::Live)
            .collect();
        if live.is_empty() {
            return;
        }
        let occ = live.iter().map(|i| self.members[*i].engine.occupancy()).sum::<f64>()
            / live.len() as f64;
        let sustain = policy.sustain_rounds.max(1);
        if occ >= policy.high_occupancy {
            self.high_streak += 1;
        } else {
            self.high_streak = 0;
        }
        if occ <= policy.low_occupancy {
            self.low_streak += 1;
        } else {
            self.low_streak = 0;
        }
        if self.high_streak >= sustain && live.len() < policy.max_members {
            self.high_streak = 0;
            self.scale_out();
        } else if self.low_streak >= sustain && live.len() > policy.min_members {
            self.low_streak = 0;
            // Drain the newest live member first (LIFO: the scale-out
            // surge capacity goes first, the founding members last).
            let idx = *live.last().expect("nonempty");
            self.scale_in(idx);
        }
    }

    /// Spawns a new member from the autoscale template with seeds derived
    /// from its (monotone, never-reused) id — the same splitmix mix
    /// [`FleetConfig::paper_rig`] applies to the founding members.
    fn scale_out(&mut self) {
        let template = self.autoscale.as_ref().expect("autoscale_pass checked").template.clone();
        self.scale_out_from(&template, 2);
    }

    /// Spawns a member from `template` with seeds derived from the new
    /// (monotone, never-reused) id. `spawn_arg` distinguishes the spawn
    /// kinds on the trace (2 = occupancy autoscale, 3 = burn alert).
    fn scale_out_from(&mut self, template: &ServeConfig, spawn_arg: u64) {
        let id = self.next_member_id;
        self.next_member_id += 1;
        let mut cfg = template.clone();
        cfg.engine.seed = crate::serve::round_seed(template.engine.seed, 0x4_0000 + id);
        cfg.probe.seed = crate::serve::round_seed(template.probe.seed, 0x8_0000 + id);
        self.members.push(Member::new(id, cfg));
        self.reg.inc(self.meta.scale_out);
        self.reg.set(self.meta.members_live, self.members_live() as i64);
        self.trace(id, id, TraceKind::Spawn, spawn_arg);
    }

    /// Gracefully retires member `idx` (reason `ScaledIn`): it drains off
    /// the round and poll schedules without dead-letters or failed polls,
    /// and its frozen registry stays on the scrape surface.
    fn scale_in(&mut self, idx: usize) {
        self.retire(idx, RetireReason::ScaledIn);
        self.reg.inc(self.meta.scale_in);
    }

    /// Runs member `idx`'s round with a real injected panic, catches the
    /// unwind, discards the torn engine, and — if the fault budget allows —
    /// recovers by replaying the checkpoint and re-running the interrupted
    /// round. Decrementing nothing and renumbering nothing: the recovered
    /// engine's modeled state is byte-equal to an uninterrupted run.
    fn crash_and_recover(&mut self, idx: usize, round: u64) {
        let m = &mut self.members[idx];
        let crashed = catch_unwind(AssertUnwindSafe(|| {
            m.engine.run_round();
            // The panic lands after the round mutated the engine but
            // *before* the supervisor advanced the checkpoint: the engine
            // is ahead of its checkpoint and cannot be trusted.
            panic!("chaos: injected mid-round panic (member {}, round {round})", m.id);
        }));
        assert!(crashed.is_err(), "injected panic must unwind");
        let checkpoint = m.checkpoint_rounds;
        let will_retire = m.faults + 1 >= self.policy.max_faults;
        // Replay to the checkpoint in both cases; only a surviving member
        // re-runs the interrupted round (a retiree's round is dead-lettered
        // by the caller's budget check).
        let mut fresh = Member::replay(&m.cfg, checkpoint);
        if !will_retire {
            fresh.run_round();
            m.checkpoint_rounds = fresh.rounds();
            m.restarts += 1;
        }
        m.engine = fresh;
        if !will_retire {
            self.reg.inc(self.meta.restarts);
            self.trace(idx as u64, idx as u64, TraceKind::Spawn, 1);
        }
    }

    /// Records an injected fault against member `idx` (telemetry + trace;
    /// the budget itself is checked by the round driver).
    fn note_fault(&mut self, idx: usize, fault: EngineFault) {
        self.members[idx].faults += 1;
        let kind_idx = EngineFault::ALL.iter().position(|f| *f == fault).expect("known kind");
        self.reg.inc(self.meta.faults_by_kind[kind_idx]);
        self.trace(idx as u64, idx as u64, TraceKind::Trap, kind_idx as u64);
    }

    /// Retires member `idx`: frozen at its checkpoint, no more rounds or
    /// polls. The engine is already clean (crash recovery replays before
    /// the budget check), so the frozen registry stays scrapeable. The
    /// `retirements` counter tracks fault-budget evictions only; graceful
    /// scale-in is counted by `scale_in` and alert quarantine by
    /// `quarantines`. The trace `arg` encodes the reason (1 = fault budget,
    /// 2 = scaled in, 3 = quarantined).
    fn retire(&mut self, idx: usize, reason: RetireReason) {
        self.members[idx].state = MemberState::Retired;
        self.members[idx].retire_reason = Some(reason);
        if reason == RetireReason::FaultBudget {
            self.reg.inc(self.meta.retirements);
        }
        self.reg.set(self.meta.members_live, self.members_live() as i64);
        self.trace(idx as u64, idx as u64, TraceKind::Recycle, match reason {
            RetireReason::FaultBudget => 1,
            RetireReason::ScaledIn => 2,
            RetireReason::Quarantined => 3,
        });
    }

    /// The aggregator's poll of member `idx` after round `round`: scrapes
    /// the member's `/healthz` and `/metrics` renderings in-process, under
    /// the retry budget. `fault0` is the round's attempt-0 draw (already
    /// taken by the driver); retries draw fresh from the seeded stream.
    /// Returns whether the poll succeeded within budget.
    fn poll_member(&mut self, idx: usize, round: u64, fault0: Option<EngineFault>) -> bool {
        self.polls += 1;
        self.reg.inc(self.meta.polls);
        let member_id = self.members[idx].id;
        // Mid-round panics were handled by the driver; what reaches the
        // poll from attempt 0 is the scrape-phase kinds only.
        let poll_fault0 = fault0
            .filter(|f| matches!(f, EngineFault::HangOnAccept | EngineFault::TornResponse));
        let engine = &self.members[idx].engine;
        let chaos = &mut self.chaos;
        // Both retry closures (backoff and attempt) charge the virtual
        // clock; share it through a RefCell — single-threaded, no borrow
        // overlaps at runtime.
        let clock = std::cell::RefCell::new(&mut self.clock);
        let stream = &mut self.plane.stream;
        let outcome = retry_with(
            &self.retry,
            |backoff_ms| clock.borrow_mut().advance(backoff_ms * 1_000_000),
            |attempt| {
                let mut clock = clock.borrow_mut();
                stream.record(TraceEvent {
                    tick: clock.now(),
                    core: idx as u32,
                    sandbox: member_id,
                    kind: TraceKind::Enter,
                    arg: attempt as u64,
                });
                let fault = if attempt == 0 {
                    poll_fault0
                } else {
                    chaos.engine_fires(member_id, round, attempt)
                };
                match fault {
                    None => {
                        clock.advance(POLL_RTT_NS);
                        let health = engine.healthz_body(0.0);
                        let metrics = engine.metrics_text();
                        if json_is_valid(&health) && !metrics.is_empty() {
                            Ok(())
                        } else {
                            Err(EngineFault::TornResponse)
                        }
                    }
                    Some(EngineFault::TornResponse) => {
                        // The member answers, but the connection is cut
                        // mid-body: half a JSON document fails validation.
                        clock.advance(POLL_RTT_NS);
                        let health = engine.healthz_body(0.0);
                        let torn = &health[..health.len() / 2];
                        assert!(!json_is_valid(torn), "torn body must not validate");
                        Err(EngineFault::TornResponse)
                    }
                    Some(f) => {
                        // Hang on accept (or a member that died mid-poll):
                        // nothing arrives until the aggregator's timeout.
                        clock.advance(POLL_TIMEOUT_NS);
                        Err(f)
                    }
                }
            },
        );
        match outcome {
            Ok(((), attempts)) => {
                self.reg.add(self.meta.poll_attempts, attempts as u64);
                self.trace(idx as u64, member_id, TraceKind::Exit, attempts as u64);
                // A poll that needed retries recovered within budget: the
                // member is back — the quarantine ladder's "rehabilitated"
                // rung, one level up.
                if attempts > 1 {
                    self.trace(idx as u64, member_id, TraceKind::Recycle, 0);
                }
                true
            }
            Err(_) => {
                self.reg.add(self.meta.poll_attempts, self.retry.max_attempts.max(1) as u64);
                self.failed_polls += 1;
                self.reg.inc(self.meta.poll_failures);
                false
            }
        }
    }

    /// Fleet rounds completed.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// The virtual clock (modeled supervision time).
    pub fn clock(&self) -> &VirtualClock {
        &self.clock
    }

    /// Fleet availability: the fraction of member-rounds whose poll
    /// succeeded (after recovery and retries). A retired member fails every
    /// subsequent round, so mass retirement drives this to the 0.0 floor —
    /// never below it, and never NaN (1.0 before any poll).
    pub fn availability(&self) -> f64 {
        if self.polls == 0 {
            1.0
        } else {
            1.0 - self.failed_polls as f64 / self.polls as f64
        }
    }

    /// Point-in-time member statuses, id order.
    pub fn members(&self) -> Vec<MemberStatus> {
        self.members.iter().map(Member::status).collect()
    }

    /// Live members.
    pub fn members_live(&self) -> usize {
        self.members.iter().filter(|m| m.state == MemberState::Live).count()
    }

    /// Mean occupancy of the live members (0.0 with none live) — the
    /// autoscaler's input signal, exposed for benches and tests.
    pub fn mean_occupancy(&self) -> f64 {
        let live: Vec<&Member> =
            self.members.iter().filter(|m| m.state == MemberState::Live).collect();
        if live.is_empty() {
            0.0
        } else {
            live.iter().map(|m| m.engine.occupancy()).sum::<f64>() / live.len() as f64
        }
    }

    /// One member's modeled snapshot (the byte-equality unit the `--check`
    /// gate diffs against an uninterrupted replay).
    pub fn member_snapshot(&self, id: u64) -> Option<String> {
        self.members.get(id as usize).map(|m| m.engine.snapshot_json())
    }

    /// One member's config and completed rounds — the checkpoint an
    /// external verifier replays.
    pub fn member_checkpoint(&self, id: u64) -> Option<(ServeConfig, u64)> {
        self.members.get(id as usize).map(|m| (m.cfg.clone(), m.engine.rounds()))
    }

    /// The federated modeled registry: every member's cumulative registry
    /// merged under its `engine="<id>"` label. Built fresh per call —
    /// members keep owning their registries, so a retired member's frozen
    /// series stay visible.
    pub fn merged_registry(&self) -> Registry {
        let mut merged = Registry::new();
        for m in &self.members {
            merged.merge_labeled_from(m.engine.registry(), "engine", &m.id.to_string());
        }
        merged
    }

    /// The fleet meta registry: supervision counters (rounds, polls,
    /// member faults by kind, restarts, retirements, scaling) and the
    /// live-member gauge, as `/metrics` exports them.
    pub fn supervision_registry(&self) -> &Registry {
        &self.reg
    }

    /// `/metrics`: Prometheus text of the federated modeled registry plus
    /// the fleet meta registry, the scrape counters and the fleet rules'
    /// derived series.
    pub fn metrics_text(&self) -> String {
        let mut modeled = self.merged_registry();
        modeled.merge_from(&self.reg);
        self.plane.metrics_text(modeled)
    }

    /// The fleet rule engine behind `/alerts`.
    pub fn alerts(&self) -> &AlertEngine {
        &self.plane.alerts
    }

    /// `/alerts?since=<cursor>`: the fleet alert states and transition log
    /// — byte-identical across replays, checkpoint recovery included.
    pub fn alerts_body(&self, since: u64) -> String {
        self.plane.alerts_body(since)
    }

    /// `/query?expr=<expr>`: one tsdb query over the federated store.
    pub fn query_body(&self, expr: &str) -> Result<String, String> {
        self.plane.query_body(expr)
    }

    /// `/fleet`: per-member liveness, restart count and quarantine state.
    pub fn fleet_json(&self) -> String {
        let mut body = format!(
            "{{\"rounds\": {}, \"availability\": {:.6}, \"members_live\": {}, \"members\": [",
            self.rounds,
            self.availability(),
            self.members_live(),
        );
        for (i, m) in self.members.iter().enumerate() {
            if i > 0 {
                body.push_str(", ");
            }
            let s = m.status();
            body.push_str(&format!(
                "{{\"id\": {}, \"state\": \"{}\", \"rounds\": {}, \"faults\": {}, \
                 \"restarts\": {}, \"checkpoint_rounds\": {}, \"dead_lettered_rounds\": {}, \
                 \"dead_lettered_requests\": {}, \"retire_reason\": {}}}",
                s.id,
                s.state.name(),
                s.rounds,
                s.faults,
                s.restarts,
                s.checkpoint_rounds,
                s.dead_lettered_rounds,
                s.dead_lettered_requests,
                match s.retire_reason {
                    Some(r) => format!("\"{}\"", r.name()),
                    None => "null".to_string(),
                },
            ));
        }
        body.push_str("]}\n");
        body
    }

    /// `/trace?since=<cursor>`: the supervision stream, same wire shape as
    /// the per-engine endpoint ([`ScrapePlane`] renders both).
    pub fn trace_body(&self, since: u64) -> String {
        self.plane.trace_body(since)
    }

    /// The post-mortem batch export of the supervision stream.
    pub fn trace_batch(&self) -> String {
        self.plane.trace_batch()
    }

    /// `/healthz`: fleet availability and liveness. `uptime_seconds` is the
    /// one wall-clock field, as in the per-engine contract.
    pub fn healthz_body(&self, uptime_seconds: f64) -> String {
        let availability = self.availability();
        let live = self.members_live();
        let status = if live == 0 {
            "down"
        } else if availability >= 0.9 && live == self.members.len() {
            "ok"
        } else {
            "degraded"
        };
        format!(
            "{{\"status\": \"{}\", \"rounds\": {}, \"availability\": {:.6}, \
             \"members_live\": {}, \"members_total\": {}, \"uptime_seconds\": {:.3}}}\n",
            status,
            self.rounds,
            availability,
            live,
            self.members.len(),
            uptime_seconds
        )
    }
}

impl ScrapeSurface for FleetSupervisor {
    const SCRAPE_SERIES: &'static str = "sfi_fleet_scrapes_total";
    const EXTRA: Option<ExtraEndpoint<Self>> = Some(("/fleet", FleetSupervisor::fleet_json));

    fn plane(&mut self) -> &mut ScrapePlane {
        &mut self.plane
    }

    fn metrics_text(&self) -> String {
        FleetSupervisor::metrics_text(self)
    }

    /// `/snapshot`: the federated modeled registry as JSON — equal to the
    /// label-disambiguated sum of the member snapshots, and (chaos or not)
    /// to a fault-free fleet of the same configs and round counts.
    fn snapshot_json(&self) -> String {
        json_snapshot(&self.merged_registry())
    }

    /// A fleet with no live member answers 503 (retryable) instead of a
    /// `down` body.
    fn healthz(&self, uptime_seconds: f64) -> HttpResponse {
        if self.members_live() == 0 {
            return HttpResponse::service_unavailable("no live members");
        }
        HttpResponse::json(self.healthz_body(uptime_seconds))
    }

    /// `/profile`: the fleet-wide flamegraph — every member's folded
    /// engine stacks re-rooted under a `member_<id>` frame so per-member
    /// attribution survives the merge — plus the cross-member latency
    /// exemplars (shard-order-independent merge). Pure function of the
    /// modeled fleet state.
    fn profile_body(&self) -> String {
        let mut folded = FoldedStacks::new();
        let mut exemplars = BucketExemplars::new();
        for m in &self.members {
            for line in m.engine.profile_folded().render().lines() {
                if let Some((stack, value)) = line.rsplit_once(' ') {
                    if let Ok(v) = value.parse::<u64>() {
                        folded.add_folded(&format!("member_{};{stack}", m.id), v);
                    }
                }
            }
            exemplars.merge_from(m.engine.exemplars());
        }
        format!(
            "{{\"rounds\": {}, \"members\": {}, \"folded\": [{}], \"exemplars\": {}}}\n",
            self.rounds,
            self.members.len(),
            folded_json(&folded),
            exemplars.render_json(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::route;
    use sfi_telemetry::HttpRequest;

    fn small_fleet(n: u32) -> FleetConfig {
        let mut cfg = FleetConfig::paper_rig(n, 2);
        for m in &mut cfg.members {
            m.engine.duration_ms = 10;
            m.probe.duration_ms = 5;
        }
        cfg
    }

    fn silenced<T>(f: impl FnOnce() -> T) -> T {
        // Injected panics are caught, but the default hook still prints
        // them; suppress exactly those and keep everything else (genuine
        // assertion failures must stay visible). The hook is process-global
        // — fine for this crate's tests, the only injectors.
        std::panic::set_hook(Box::new(|info| {
            let msg = info
                .payload()
                .downcast_ref::<String>()
                .map(String::as_str)
                .unwrap_or_default();
            if !msg.starts_with("chaos: injected") {
                eprintln!("{info}");
            }
        }));
        let out = f();
        let _ = std::panic::take_hook(); // restore the default hook
        out
    }

    #[test]
    fn fleet_profile_aggregates_members_and_roots_span_trees() {
        use sfi_telemetry::unpack_span;
        let mut cfg = small_fleet(2);
        for m in &mut cfg.members {
            m.engine.spans = true;
        }
        let mut fleet = FleetSupervisor::new(cfg);
        fleet.run_round();
        fleet.run_round();

        let req = HttpRequest::parse("GET /profile HTTP/1.1").unwrap();
        let (resp, stop) = route(&mut fleet, &req, 0.0);
        assert!(!stop);
        assert_eq!(resp.status, 200);
        assert!(json_is_valid(&resp.body), "{}", resp.body);
        // Per-member re-rooted stacks survive the merge.
        assert!(resp.body.contains("member_0;engine;guest_compute"), "{}", resp.body);
        assert!(resp.body.contains("member_1;engine;guest_compute"));
        assert!(resp.body.contains("\"trace_id\""), "cross-member exemplars present");

        // The supervision stream roots each member round as a level-0 span.
        let roots: Vec<_> = fleet
            .plane
            .stream
            .events()
            .iter()
            .filter(|e| e.kind == TraceKind::Flow)
            .filter_map(|e| unpack_span(e.arg))
            .filter(|s| s.level == SpanLevel::FleetMember)
            .collect();
        assert_eq!(roots.len(), 8, "2 members × 2 rounds × (start + end)");
        assert!(roots.iter().any(|s| s.start && s.detail == 0));
        assert!(roots.iter().any(|s| s.end && s.detail == 1));

        // Spans never perturb the modeled fleet state: a spans-off fleet of
        // the same seeds replays the identical snapshot once the span-edge
        // counter — the one series the profiler itself adds — is stripped.
        let strip_span_counter = |json: &str| -> String {
            let mut out = json.to_owned();
            while let Some(i) = out.find("\"sfi_shard_span_events_total") {
                let rest = &out[i..];
                let end = i + rest.find(", ").map_or(rest.len(), |e| e + 2);
                out = format!("{}{}", &out[..i], &out[end..]);
            }
            out
        };
        let mut quiet = FleetSupervisor::new(small_fleet(2));
        quiet.run_round();
        quiet.run_round();
        let on = fleet.snapshot_json();
        assert!(on.contains("sfi_shard_span_events_total"));
        let off = quiet.snapshot_json();
        assert!(!off.contains("sfi_shard_span_events_total"));
        assert_eq!(strip_span_counter(&on), off);
    }

    #[test]
    fn fault_free_fleet_matches_independent_replays() {
        let mut fleet = FleetSupervisor::new(small_fleet(3));
        for _ in 0..3 {
            fleet.run_round();
        }
        assert_eq!(fleet.availability(), 1.0);
        assert_eq!(fleet.members_live(), 3);
        // Each member equals an uninterrupted replay of its checkpoint.
        for id in 0..3u64 {
            let (cfg, rounds) = fleet.member_checkpoint(id).unwrap();
            assert_eq!(rounds, 3);
            let replay = Member::replay(&cfg, rounds);
            assert_eq!(
                fleet.member_snapshot(id).unwrap(),
                replay.snapshot_json(),
                "member {id} diverged from its replay"
            );
        }
        // The fleet snapshot equals the label-disambiguated sum.
        let mut manual = Registry::new();
        for id in 0..3u64 {
            let (cfg, rounds) = fleet.member_checkpoint(id).unwrap();
            let replay = Member::replay(&cfg, rounds);
            manual.merge_labeled_from(replay.registry(), "engine", &id.to_string());
        }
        assert_eq!(fleet.snapshot_json(), json_snapshot(&manual));
        assert!(fleet.snapshot_json().contains("engine=\\\"2\\\""), "engine labels present");
    }

    #[test]
    fn mid_round_panic_recovers_byte_equal_by_checkpoint_replay() {
        silenced(|| {
            let mut cfg = small_fleet(2);
            cfg.chaos = FaultPlan::new().engine_fail_at(1, 1, EngineFault::MidRoundPanic);
            let mut fleet = FleetSupervisor::new(cfg);
            for _ in 0..3 {
                fleet.run_round();
            }
            let status = fleet.members();
            assert_eq!(status[1].restarts, 1, "member 1 crashed and recovered");
            assert_eq!(status[1].faults, 1);
            assert_eq!(status[1].state, MemberState::Live);
            assert_eq!(status[1].rounds, 3, "interrupted round re-ran");
            assert_eq!(status[0].restarts, 0);
            // Recovered state is byte-equal to an uninterrupted run.
            let (mcfg, rounds) = fleet.member_checkpoint(1).unwrap();
            assert_eq!(
                fleet.member_snapshot(1).unwrap(),
                Member::replay(&mcfg, rounds).snapshot_json()
            );
            // The poll after recovery succeeded: availability stays 1.0
            // (the work was replayed, not lost).
            assert_eq!(fleet.availability(), 1.0);
            // The fault is on the supervision ledger.
            let metrics = fleet.metrics_text();
            assert!(
                metrics
                    .contains("sfi_fleet_member_faults_total{kind=\"mid_round_panic\"} 1"),
                "{metrics}"
            );
            assert!(metrics.contains("sfi_fleet_restarts_total 1"), "{metrics}");
        });
    }

    #[test]
    fn chaos_changes_only_the_injected_fault_series() {
        silenced(|| {
            let quiet = {
                let mut fleet = FleetSupervisor::new(small_fleet(2));
                for _ in 0..3 {
                    fleet.run_round();
                }
                fleet.snapshot_json()
            };
            let mut cfg = small_fleet(2);
            cfg.chaos = FaultPlan::new()
                .engine_fail_at(0, 0, EngineFault::MidRoundPanic)
                .engine_fail_at(1, 1, EngineFault::HangOnAccept)
                .engine_fail_at(1, 2, EngineFault::TornResponse);
            let mut fleet = FleetSupervisor::new(cfg);
            for _ in 0..3 {
                fleet.run_round();
            }
            // Modeled state is chaos-invariant (recovery is byte-exact).
            assert_eq!(fleet.snapshot_json(), quiet, "chaos leaked into modeled series");
            // The injected-fault series differ — that, and only that, is
            // the visible difference.
            let metrics = fleet.metrics_text();
            for kind in ["mid_round_panic", "hang_on_accept", "torn_response"] {
                assert!(
                    metrics.contains(&format!(
                        "sfi_fleet_member_faults_total{{kind=\"{kind}\"}} 1"
                    )),
                    "{kind} missing from {metrics}"
                );
            }
            assert_eq!(fleet.availability(), 1.0, "all faults recovered within budget");
        });
    }

    #[test]
    fn budget_exhaustion_retires_and_dead_letters() {
        silenced(|| {
            let mut cfg = small_fleet(2);
            cfg.policy = QuarantinePolicy { ring_capacity: 2, max_faults: 2 };
            cfg.chaos = FaultPlan::new()
                .engine_fail_at(0, 0, EngineFault::MidRoundPanic)
                .engine_fail_at(0, 1, EngineFault::MidRoundPanic);
            let mut fleet = FleetSupervisor::new(cfg);
            for _ in 0..4 {
                fleet.run_round();
            }
            let status = fleet.members();
            assert_eq!(status[0].state, MemberState::Retired);
            assert_eq!(status[0].faults, 2);
            assert_eq!(status[0].restarts, 1, "first crash recovered, second retired");
            // Frozen at the checkpoint before the fatal round; later rounds
            // dead-lettered (the fatal round + rounds 2 and 3).
            assert_eq!(status[0].rounds, 1);
            assert_eq!(status[0].dead_lettered_rounds, 3);
            assert_eq!(fleet.members_live(), 1);
            // The frozen member still equals its replay (scrapeable corpse).
            let (mcfg, rounds) = fleet.member_checkpoint(0).unwrap();
            assert_eq!(
                fleet.member_snapshot(0).unwrap(),
                Member::replay(&mcfg, rounds).snapshot_json()
            );
            // Availability: member 0 failed rounds 1..4 (3 of 8 polls).
            assert!((fleet.availability() - 0.625).abs() < 1e-9, "{}", fleet.availability());
            let metrics = fleet.metrics_text();
            assert!(metrics.contains("sfi_fleet_retirements_total 1"), "{metrics}");
            assert!(metrics.contains("sfi_fleet_members_live 1"), "{metrics}");
            // /healthz degrades but stays valid JSON.
            let health = fleet.healthz_body(0.5);
            assert!(json_is_valid(&health), "{health}");
            assert!(health.contains("\"status\": \"degraded\""), "{health}");
        });
    }

    #[test]
    fn scrape_faults_burn_retries_not_availability() {
        let mut cfg = small_fleet(1);
        cfg.chaos = FaultPlan::new()
            .engine_fail_at(0, 0, EngineFault::HangOnAccept)
            .engine_fail_at(0, 1, EngineFault::TornResponse);
        let mut fleet = FleetSupervisor::new(cfg);
        let t0 = fleet.clock().now();
        fleet.run_round();
        let t1 = fleet.clock().now();
        fleet.run_round();
        assert_eq!(fleet.availability(), 1.0, "retries recovered both polls");
        let metrics = fleet.metrics_text();
        // Round 0: hang (timeout + backoff + clean retry) = 2 attempts;
        // round 1: torn = 2 attempts. 4 attempts over 2 polls.
        assert!(metrics.contains("sfi_fleet_poll_attempts_total 4"), "{metrics}");
        assert!(metrics.contains("sfi_fleet_poll_failures_total 0"), "{metrics}");
        // The hang charged the aggregator's timeout to the virtual clock.
        assert!(t1 - t0 >= POLL_TIMEOUT_NS, "timeout not charged: {}", t1 - t0);
        // Deterministic replay: same config, same virtual timeline.
        let mut cfg2 = small_fleet(1);
        cfg2.chaos = FaultPlan::new()
            .engine_fail_at(0, 0, EngineFault::HangOnAccept)
            .engine_fail_at(0, 1, EngineFault::TornResponse);
        let mut replay = FleetSupervisor::new(cfg2);
        replay.run_round();
        replay.run_round();
        assert_eq!(replay.clock().now(), fleet.clock().now());
        assert_eq!(replay.trace_batch(), fleet.trace_batch(), "recovery trace not reproducible");
    }

    #[test]
    fn fleet_endpoints_route_and_quit() {
        let mut fleet = FleetSupervisor::new(small_fleet(2));
        fleet.run_round();
        let get = |f: &mut FleetSupervisor, path: &str| {
            let req = HttpRequest::parse(&format!("GET {path} HTTP/1.1")).unwrap();
            route(f, &req, 0.25)
        };
        let (resp, _) = get(&mut fleet, "/fleet");
        assert_eq!(resp.status, 200);
        assert!(json_is_valid(&resp.body), "{}", resp.body);
        assert!(resp.body.contains("\"state\": \"live\""));
        let (resp, _) = get(&mut fleet, "/metrics");
        assert!(resp.body.contains("sfi_fleet_rounds_total 1"));
        assert!(resp.body.contains("engine=\"1\""), "member series labeled");
        let (resp, _) = get(&mut fleet, "/snapshot");
        assert!(json_is_valid(&resp.body));
        assert!(!resp.body.contains("sfi_fleet_"), "meta must not leak into /snapshot");
        let (resp, _) = get(&mut fleet, "/trace?since=0");
        assert!(resp.body.starts_with("{\"next\": "));
        let (resp, _) = get(&mut fleet, "/healthz");
        assert!(resp.body.contains("\"uptime_seconds\": 0.250"));
        // Without an alerting policy the store is empty but /query still
        // answers a well-formed body.
        let (resp, _) = get(&mut fleet, "/query?expr=sfi_shard_completed_total");
        assert!(resp.body.contains("\"results\": []"), "{}", resp.body);
    }

    /// A small fleet with open-loop members at `rate_rps` and autoscale on
    /// (1–3 members, scale out ≥ 0.9 occupancy, in ≤ 0.5, sustain 2).
    fn elastic_fleet(members: u32, rate_rps: f64) -> FleetConfig {
        let mut cfg = small_fleet(members);
        for m in &mut cfg.members {
            m.engine.arrivals = crate::sim::ArrivalModel::Poisson { rate_rps };
        }
        let mut template = ServeConfig::paper_rig(2);
        template.engine.duration_ms = 10;
        template.probe.duration_ms = 5;
        template.engine.arrivals = crate::sim::ArrivalModel::Poisson { rate_rps };
        cfg.autoscale = Some(AutoscalePolicy {
            min_members: 1,
            max_members: 3,
            high_occupancy: 0.9,
            low_occupancy: 0.5,
            sustain_rounds: 2,
            template,
        });
        cfg
    }

    #[test]
    fn autoscaler_scales_out_on_sustained_saturation() {
        // 200k rps over 2 cores is ~2.5× the closed-loop saturation point:
        // occupancy pins at 1.0 and the fleet grows to the ceiling.
        let mut fleet = FleetSupervisor::new(elastic_fleet(1, 200_000.0));
        for _ in 0..8 {
            fleet.run_round();
        }
        assert_eq!(fleet.members_live(), 3, "grew to max_members");
        assert!(fleet.mean_occupancy() > 0.9, "{}", fleet.mean_occupancy());
        assert_eq!(fleet.availability(), 1.0, "scale events never fail polls");
        let metrics = fleet.metrics_text();
        assert!(metrics.contains("sfi_fleet_scale_out_total 2"), "{metrics}");
        assert!(metrics.contains("sfi_fleet_members_live 3"), "{metrics}");
        // Spawned members serve real rounds under their own engine label.
        assert!(fleet.snapshot_json().contains("engine=\\\"2\\\""));
        // The elastic trajectory is a pure function of the config.
        let mut again = FleetSupervisor::new(elastic_fleet(1, 200_000.0));
        for _ in 0..8 {
            again.run_round();
        }
        assert_eq!(fleet.fleet_json(), again.fleet_json());
        assert_eq!(fleet.snapshot_json(), again.snapshot_json());
    }

    #[test]
    fn autoscaler_drains_gracefully_on_low_load() {
        // 2k rps over 2 cores keeps ~1/15 of each color pool resident:
        // sustained low occupancy drains the fleet down to the floor,
        // newest member first, without bleeding availability.
        let mut fleet = FleetSupervisor::new(elastic_fleet(3, 2_000.0));
        for _ in 0..8 {
            fleet.run_round();
        }
        assert_eq!(fleet.members_live(), 1, "drained to min_members");
        assert_eq!(fleet.availability(), 1.0, "graceful drain never fails a poll");
        let status = fleet.members();
        assert_eq!(status[0].retire_reason, None, "founding member survives");
        for s in &status[1..] {
            assert_eq!(s.state, MemberState::Retired);
            assert_eq!(s.retire_reason, Some(RetireReason::ScaledIn));
            assert_eq!(s.dead_lettered_rounds, 0, "drain dead-letters nothing");
        }
        let body = fleet.fleet_json();
        assert!(json_is_valid(&body), "{body}");
        assert!(body.contains("\"retire_reason\": \"scaled_in\""), "{body}");
        assert!(body.contains("\"retire_reason\": null"), "{body}");
        assert!(body.contains("\"dead_lettered_requests\": "), "{body}");
        let metrics = fleet.metrics_text();
        assert!(metrics.contains("sfi_fleet_scale_in_total 2"), "{metrics}");
        assert!(
            metrics.contains("sfi_fleet_retirements_total 0"),
            "scale-in is not a fault-budget retirement: {metrics}"
        );
        // Drained members' frozen series stay on the scrape surface.
        assert!(fleet.snapshot_json().contains("engine=\\\"2\\\""));
    }

    /// An overloaded QoS fleet with the closed alerting loop on: 1 member
    /// at ~2.5× saturation, burn threshold tuned under the 10 ms-round
    /// ceiling (p999 ≤ round duration, so burn ≤ 200 permille of the 50 ms
    /// LS target).
    fn alerting_overload_fleet() -> FleetConfig {
        let mut cfg = small_fleet(1);
        for m in &mut cfg.members {
            m.engine.qos = Some(crate::qos::QosConfig::paper_rig());
            m.engine.arrivals = crate::sim::ArrivalModel::Poisson { rate_rps: 200_000.0 };
        }
        let mut template = cfg.members[0].clone();
        template.engine.seed = ServeConfig::paper_rig(2).engine.seed;
        let mut policy = FleetAlertPolicy::paper_rig(template);
        policy.burn_threshold_permille = 100.0;
        policy.max_members = 3;
        cfg.alerting = Some(policy);
        cfg
    }

    #[test]
    fn burn_alert_scales_out_and_timeline_survives_mid_round_crash() {
        silenced(|| {
            let mut fleet = FleetSupervisor::new(alerting_overload_fleet());
            for _ in 0..6 {
                fleet.run_round();
            }
            // The burn alert fired and drove surge scale-out to the cap.
            assert!(fleet.alerts().next_seq() > 0, "no alert transitions at 2.5× load");
            let alerts = fleet.alerts_body(0);
            assert!(alerts.contains(&format!("\"rule\": \"{FLEET_BURN_RULE}\"")), "{alerts}");
            assert!(alerts.contains("\"transition\": \"firing\""), "{alerts}");
            assert_eq!(fleet.members_live(), 3, "burn alert did not scale out");
            let metrics = fleet.metrics_text();
            assert!(metrics.contains("sfi_fleet_alert_scale_out_total 2"), "{metrics}");
            // Recording-rule output rides /metrics, never /snapshot.
            assert!(metrics.contains("sfi_fleet_goodput_permille"), "{metrics}");
            assert!(!fleet.snapshot_json().contains("sfi_fleet_goodput_permille"));
            // The federated store answers queries over member burn series.
            let q = fleet
                .query_body("avg_over_time(sfi_qos_slo_burn_permille{class=\"latency_sensitive\"}[2r])")
                .unwrap();
            assert!(q.contains("engine=\\\"0\\\""), "{q}");

            // A mid-round crash recovered from checkpoint replays the same
            // alert timeline, scale trajectory and modeled bytes.
            let mut cfg = alerting_overload_fleet();
            cfg.chaos = FaultPlan::new().engine_fail_at(0, 2, EngineFault::MidRoundPanic);
            let mut crashed = FleetSupervisor::new(cfg);
            for _ in 0..6 {
                crashed.run_round();
            }
            assert_eq!(crashed.members()[0].restarts, 1, "the crash really happened");
            assert_eq!(crashed.alerts_body(0), alerts, "crash bent the alert timeline");
            assert_eq!(crashed.snapshot_json(), fleet.snapshot_json());
            // The supervision ledger records the crash (faults, restarts)
            // but the size trajectory is identical.
            assert_eq!(crashed.members_live(), fleet.members_live());
        });
    }

    #[test]
    fn availability_alert_quarantines_failing_member_deterministically() {
        let mk = || {
            let mut cfg = small_fleet(2);
            // One-shot polls: every injected hang is a failed poll.
            cfg.retry = RetryPolicy::one_shot();
            cfg.policy = QuarantinePolicy { ring_capacity: 2, max_faults: 10 };
            let mut chaos = FaultPlan::new();
            for r in 0..6 {
                chaos = chaos.engine_fail_at(1, r, EngineFault::HangOnAccept);
            }
            cfg.chaos = chaos;
            let mut policy = FleetAlertPolicy::paper_rig(ServeConfig::paper_rig(2));
            policy.scale_out_on_burn = false;
            cfg.alerting = Some(policy);
            cfg
        };
        let mut fleet = FleetSupervisor::new(mk());
        for _ in 0..6 {
            fleet.run_round();
        }
        // Member 1's failed polls fired its availability series; the loop
        // quarantined it. Member 0 (availability 1000) is untouched.
        let status = fleet.members();
        assert_eq!(status[1].state, MemberState::Retired);
        assert_eq!(status[1].retire_reason, Some(RetireReason::Quarantined));
        assert_eq!(status[0].state, MemberState::Live);
        assert_eq!(status[0].retire_reason, None);
        let alerts = fleet.alerts_body(0);
        assert!(
            alerts.contains(&format!("\"rule\": \"{MEMBER_AVAILABILITY_RULE}\"")),
            "{alerts}"
        );
        assert!(alerts.contains("engine=\\\"1\\\""), "{alerts}");
        let metrics = fleet.metrics_text();
        assert!(metrics.contains("sfi_fleet_quarantines_total 1"), "{metrics}");
        assert!(fleet.fleet_json().contains("\"retire_reason\": \"quarantined\""));
        // The whole episode — alert log, supervision trace, member ledger —
        // replays byte-identically.
        let mut again = FleetSupervisor::new(mk());
        for _ in 0..6 {
            again.run_round();
        }
        assert_eq!(again.alerts_body(0), alerts);
        assert_eq!(again.trace_batch(), fleet.trace_batch());
        assert_eq!(again.fleet_json(), fleet.fleet_json());
    }

    #[test]
    fn autoscale_trajectory_is_chaos_invariant() {
        silenced(|| {
            let quiet = {
                let mut fleet = FleetSupervisor::new(elastic_fleet(1, 200_000.0));
                for _ in 0..6 {
                    fleet.run_round();
                }
                (fleet.members_live(), fleet.snapshot_json())
            };
            // A mid-round crash on the founding member while the fleet is
            // scaling: recovery replays the checkpoint, occupancy is modeled
            // state, so the scale decisions — and every spawned member's
            // series — land byte-identically.
            let mut cfg = elastic_fleet(1, 200_000.0);
            cfg.chaos = FaultPlan::new().engine_fail_at(0, 1, EngineFault::MidRoundPanic);
            let mut fleet = FleetSupervisor::new(cfg);
            for _ in 0..6 {
                fleet.run_round();
            }
            assert_eq!(fleet.members_live(), quiet.0, "chaos bent the size trajectory");
            assert_eq!(fleet.snapshot_json(), quiet.1, "chaos leaked into modeled series");
            assert_eq!(fleet.members()[0].restarts, 1, "the crash really happened");
        });
    }
}
