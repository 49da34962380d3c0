//! The per-round rule engine over the [`Tsdb`]: recording rules and
//! multi-window burn-rate alerts with `pending → firing → resolved` state
//! machines.
//!
//! Evaluated exactly once per engine round, after that round's registry
//! snapshot is ingested. Two rule kinds:
//!
//! - **Recording rules** compute a derived scalar (the sum of a windowed
//!   query, or a permille ratio of two such sums) and publish it twice:
//!   back into the tsdb as a gauge series (so alert rules can window over
//!   it) and into an engine-owned `derived` [`Registry`] that the serving
//!   layer merges into `/metrics` only — never into the modeled snapshot,
//!   preserving the zero-observer-effect contract.
//! - **Alert rules** compare a *fast* and a *slow* windowed query against
//!   one threshold (the SRE multi-window burn-rate pattern: the slow window
//!   proves the problem is real, the fast window proves it is still
//!   happening — both must breach). Rules evaluate per matched series, so
//!   one fleet-level rule covers every member series a
//!   `merge_labeled_from` aggregation produces, including members spawned
//!   mid-run.
//!
//! State machine per `(rule, series)`: `Inactive → Pending` on first
//! breach, `Pending → Firing` once the breach has been sustained for the
//! rule's `for_rounds`, `Firing → Inactive` (logged as `resolved`) when the
//! breach clears. A pending alert that clears before firing deduplicates
//! silently — flapping series produce no log traffic until they actually
//! fire. Transitions append to a bounded, sequence-numbered alert log with
//! the same honest-drop cursor semantics the flight recorder has; the
//! serving layer mirrors each transition into the recorder as a
//! [`crate::TraceKind::Alert`] event.
//!
//! Everything here is a pure function of the ingested rounds: same rounds,
//! same transitions, byte-identical `/alerts` bodies — through checkpoint
//! replay and crash recovery.

use std::collections::BTreeMap;
use std::collections::VecDeque;

use crate::export::json_escape;
use crate::registry::{GaugeId, Registry};
use crate::tsdb::Tsdb;

/// How an alert rule compares its query value to the threshold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompareOp {
    /// Breach when `value >= threshold` (burn rates, shed rates).
    Ge,
    /// Breach when `value <= threshold` (availability floors).
    Le,
}

impl CompareOp {
    fn breached(self, value: f64, threshold: f64) -> bool {
        match self {
            CompareOp::Ge => value >= threshold,
            CompareOp::Le => value <= threshold,
        }
    }
}

/// What a recording rule computes.
#[derive(Debug, Clone, PartialEq)]
pub enum RuleSource {
    /// The sum over all series matched by one query expression.
    Query(String),
    /// `1000 × sum(num) / sum(den)` — a permille ratio of two query sums
    /// (per-class goodput, per-strategy cycle share). A zero denominator
    /// records 0.
    RatioPermille {
        /// Numerator query expression.
        num: String,
        /// Denominator query expression.
        den: String,
    },
}

/// A recording rule: computes [`RuleSource`] each round and records it
/// under `record{labels}` as a gauge, both in the tsdb and in the derived
/// registry.
#[derive(Debug, Clone, PartialEq)]
pub struct RecordingRule {
    /// Output metric name (static, like every registry registration).
    pub record: &'static str,
    /// Output label set.
    pub labels: Vec<(&'static str, String)>,
    /// What to compute.
    pub source: RuleSource,
}

/// A multi-window alert rule. For a single-window rule pass the same
/// expression as both `fast` and `slow`.
#[derive(Debug, Clone, PartialEq)]
pub struct AlertRule {
    /// Stable rule name (appears in the log, `/alerts`, and trace events).
    pub name: &'static str,
    /// Fast-window query: proves the breach is still happening.
    pub fast: String,
    /// Slow-window query: proves the breach is sustained, not a blip.
    pub slow: String,
    /// Comparison direction.
    pub op: CompareOp,
    /// Threshold both windows must breach.
    pub threshold: f64,
    /// Consecutive breached evaluations required before firing
    /// (0 fires on the first breach).
    pub for_rounds: u64,
}

/// Alert life-cycle states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlertState {
    /// No active breach.
    Inactive,
    /// Breached, but not yet for `for_rounds` evaluations.
    Pending,
    /// Breached for at least `for_rounds` evaluations.
    Firing,
}

impl AlertState {
    /// Stable lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            AlertState::Inactive => "inactive",
            AlertState::Pending => "pending",
            AlertState::Firing => "firing",
        }
    }
}

/// A logged state-machine transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlertTransition {
    /// `Inactive → Pending`.
    Pending,
    /// `Pending → Firing` (or straight from `Inactive` when `for_rounds`
    /// is 0).
    Firing,
    /// `Firing → Inactive`.
    Resolved,
}

impl AlertTransition {
    /// Stable lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            AlertTransition::Pending => "pending",
            AlertTransition::Firing => "firing",
            AlertTransition::Resolved => "resolved",
        }
    }

    /// Dense code for packing into a trace event's `arg`.
    pub fn code(self) -> u64 {
        match self {
            AlertTransition::Pending => 0,
            AlertTransition::Firing => 1,
            AlertTransition::Resolved => 2,
        }
    }
}

/// One entry in the bounded alert log.
#[derive(Debug, Clone, PartialEq)]
pub struct AlertEvent {
    /// Monotone sequence number (the `/alerts?since=` cursor).
    pub seq: u64,
    /// Engine round the transition happened at.
    pub round: u64,
    /// Index of the rule in the engine's rule list.
    pub rule_idx: usize,
    /// The rule's name.
    pub rule: &'static str,
    /// The breaching series key (the rule's fast expression result key).
    pub series: String,
    /// Which transition.
    pub transition: AlertTransition,
    /// The fast-window value at transition time (0 for resolutions).
    pub value: f64,
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct SeriesState {
    state: AlertState,
    /// Round the current breach streak started.
    since: u64,
    /// Last observed fast-window value.
    value: f64,
}

/// The rule engine. See the module docs for semantics.
#[derive(Debug, Clone)]
pub struct AlertEngine {
    recording: Vec<RecordingRule>,
    recording_ids: Vec<GaugeId>,
    rules: Vec<AlertRule>,
    /// Per-(rule, series) live state; entries return to the map only while
    /// non-inactive, so the map is bounded by actually-breaching series.
    states: BTreeMap<(usize, String), SeriesState>,
    log: VecDeque<AlertEvent>,
    log_capacity: usize,
    next_seq: u64,
    dropped: u64,
    /// Recording-rule outputs as gauges, merged into `/metrics` only.
    derived: Registry,
    last_round: u64,
}

impl AlertEngine {
    /// An engine whose alert log retains at most `log_capacity` entries
    /// (older entries are dropped with honest cursor accounting).
    pub fn new(log_capacity: usize) -> AlertEngine {
        AlertEngine {
            recording: Vec::new(),
            recording_ids: Vec::new(),
            rules: Vec::new(),
            states: BTreeMap::new(),
            log: VecDeque::new(),
            log_capacity,
            next_seq: 0,
            dropped: 0,
            derived: Registry::new(),
            last_round: 0,
        }
    }

    /// Adds a recording rule, registering its output gauge in the derived
    /// registry. Panics on a (name, labels) collision, like every registry
    /// registration — a duplicated derived series is a startup error.
    pub fn add_recording(&mut self, rule: RecordingRule) {
        let labels: Vec<(&'static str, &str)> =
            rule.labels.iter().map(|(k, v)| (*k, v.as_str())).collect();
        let id = self
            .derived
            .try_gauge(rule.record, &labels)
            .expect("recording-rule registration");
        self.recording.push(rule);
        self.recording_ids.push(id);
    }

    /// Adds an alert rule.
    pub fn add_alert(&mut self, rule: AlertRule) {
        self.rules.push(rule);
    }

    /// The derived registry holding recording-rule output gauges. Merge it
    /// into `/metrics` responses only — it is derived observability, not
    /// modeled state, and must stay out of `/snapshot`.
    pub fn derived(&self) -> &Registry {
        &self.derived
    }

    /// The cursor one past the newest log entry.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Log entries dropped by the capacity bound so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Currently firing `(rule name, series key)` pairs, sorted — the
    /// closed-loop control signal.
    pub fn firing(&self) -> Vec<(&'static str, String)> {
        self.states
            .iter()
            .filter(|(_, s)| s.state == AlertState::Firing)
            .map(|((idx, key), _)| (self.rules[*idx].name, key.clone()))
            .collect()
    }

    /// Whether any series of the named rule is firing.
    pub fn is_firing(&self, rule: &str) -> bool {
        self.states
            .iter()
            .any(|((idx, _), s)| s.state == AlertState::Firing && self.rules[*idx].name == rule)
    }

    /// The firing series keys of one named rule, sorted.
    pub fn firing_series(&self, rule: &str) -> Vec<String> {
        self.states
            .iter()
            .filter(|((idx, _), s)| s.state == AlertState::Firing && self.rules[*idx].name == rule)
            .map(|((_, key), _)| key.clone())
            .collect()
    }

    fn push_log(&mut self, ev: AlertEvent) {
        self.log.push_back(ev);
        while self.log.len() > self.log_capacity {
            self.log.pop_front();
            self.dropped += 1;
        }
    }

    /// Evaluates every recording rule, then every alert rule, at `round`.
    /// Returns the transitions that happened this round (also appended to
    /// the log) so the caller can mirror them into its flight recorder.
    pub fn evaluate(&mut self, round: u64, tsdb: &mut Tsdb) -> Vec<AlertEvent> {
        self.last_round = round;
        // Recording rules first: alert rules may window over their outputs.
        for (i, rule) in self.recording.iter().enumerate() {
            let value = match &rule.source {
                RuleSource::Query(expr) => query_sum(tsdb, expr),
                RuleSource::RatioPermille { num, den } => {
                    let d = query_sum(tsdb, den);
                    if d == 0.0 {
                        0.0
                    } else {
                        1000.0 * query_sum(tsdb, num) / d
                    }
                }
            };
            let rounded = round_i64(value);
            self.derived.set(self.recording_ids[i], rounded);
            let labels: Vec<(&'static str, &str)> =
                rule.labels.iter().map(|(k, v)| (*k, v.as_str())).collect();
            tsdb.store_gauge(&series_key(rule.record, &labels), round, rounded);
        }
        // Alert rules: join fast and slow results on series key.
        let mut transitions = Vec::new();
        for (idx, rule) in self.rules.iter().enumerate() {
            let fast: BTreeMap<String, f64> =
                tsdb.query(&rule.fast).unwrap_or_default().into_iter().collect();
            let slow: BTreeMap<String, f64> =
                tsdb.query(&rule.slow).unwrap_or_default().into_iter().collect();
            // Breaching series: both windows breach; value reported from
            // the fast window.
            let mut breaching: BTreeMap<&String, f64> = BTreeMap::new();
            for (key, fv) in &fast {
                if let Some(sv) = slow.get(key) {
                    if rule.op.breached(*fv, rule.threshold) && rule.op.breached(*sv, rule.threshold)
                    {
                        breaching.insert(key, *fv);
                    }
                }
            }
            // Existing states for this rule whose series no longer breach.
            let stale: Vec<String> = self
                .states
                .range((idx, String::new())..(idx + 1, String::new()))
                .filter(|((_, key), _)| !breaching.contains_key(key))
                .map(|((_, key), _)| key.clone())
                .collect();
            for key in stale {
                let entry = self.states.remove(&(idx, key.clone())).expect("stale state");
                if entry.state == AlertState::Firing {
                    transitions.push(AlertEvent {
                        seq: 0,
                        round,
                        rule_idx: idx,
                        rule: rule.name,
                        series: key,
                        transition: AlertTransition::Resolved,
                        value: 0.0,
                    });
                }
                // Pending → Inactive deduplicates silently: a blip that
                // never fired leaves no log trail.
            }
            for (key, value) in breaching {
                let entry = self
                    .states
                    .entry((idx, key.clone()))
                    .or_insert(SeriesState { state: AlertState::Inactive, since: round, value });
                entry.value = value;
                match entry.state {
                    AlertState::Inactive => {
                        entry.since = round;
                        if rule.for_rounds == 0 {
                            entry.state = AlertState::Firing;
                            transitions.push(AlertEvent {
                                seq: 0,
                                round,
                                rule_idx: idx,
                                rule: rule.name,
                                series: key.clone(),
                                transition: AlertTransition::Firing,
                                value,
                            });
                        } else {
                            entry.state = AlertState::Pending;
                            transitions.push(AlertEvent {
                                seq: 0,
                                round,
                                rule_idx: idx,
                                rule: rule.name,
                                series: key.clone(),
                                transition: AlertTransition::Pending,
                                value,
                            });
                        }
                    }
                    AlertState::Pending => {
                        if round - entry.since >= rule.for_rounds {
                            entry.state = AlertState::Firing;
                            transitions.push(AlertEvent {
                                seq: 0,
                                round,
                                rule_idx: idx,
                                rule: rule.name,
                                series: key.clone(),
                                transition: AlertTransition::Firing,
                                value,
                            });
                        }
                    }
                    AlertState::Firing => {}
                }
            }
        }
        for t in &mut transitions {
            t.seq = self.next_seq;
            self.next_seq += 1;
        }
        for t in &transitions {
            self.push_log(t.clone());
        }
        transitions
    }

    /// Log entries with sequence ≥ `cursor`, plus the next cursor and how
    /// many requested entries the bounded log had already dropped.
    pub fn log_since(&self, cursor: u64) -> (Vec<&AlertEvent>, u64, u64) {
        let first_retained = self.log.front().map(|e| e.seq).unwrap_or(self.next_seq);
        let dropped = first_retained.saturating_sub(cursor);
        let events = self.log.iter().filter(|e| e.seq >= cursor).collect();
        (events, self.next_seq, dropped)
    }

    /// The deterministic `/alerts` JSON body: active (non-inactive) states
    /// sorted by `(rule, series)`, then the log entries at or after
    /// `since`, with `next`/`dropped` cursor bookkeeping.
    pub fn alerts_json(&self, since: u64) -> String {
        let mut out = String::from("{");
        out.push_str(&format!("\"round\": {}, ", self.last_round));
        let (events, next, dropped) = self.log_since(since);
        out.push_str(&format!("\"next\": {next}, \"dropped\": {dropped}, \"states\": ["));
        let mut first = true;
        for ((idx, key), s) in &self.states {
            if !first {
                out.push_str(", ");
            }
            first = false;
            out.push_str(&format!(
                "{{\"rule\": \"{}\", \"series\": \"{}\", \"state\": \"{}\", \
                 \"since\": {}, \"value\": {:.3}}}",
                json_escape(self.rules[*idx].name),
                json_escape(key),
                s.state.name(),
                s.since,
                s.value,
            ));
        }
        out.push_str("], \"events\": [");
        for (i, e) in events.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "{{\"seq\": {}, \"round\": {}, \"rule\": \"{}\", \"series\": \"{}\", \
                 \"transition\": \"{}\", \"value\": {:.3}}}",
                e.seq,
                e.round,
                json_escape(e.rule),
                json_escape(&e.series),
                e.transition.name(),
                e.value,
            ));
        }
        out.push_str("]}");
        out
    }
}

/// The sum over every series a query matches (0.0 for no matches or a
/// malformed expression — rules are static, so malformed means a
/// programming error surfaced by the rule's own tests, not a runtime
/// condition worth a panic path).
fn query_sum(tsdb: &Tsdb, expr: &str) -> f64 {
    tsdb.query(expr).map(|rows| rows.iter().map(|(_, v)| v).sum()).unwrap_or(0.0)
}

fn round_i64(v: f64) -> i64 {
    if v.is_nan() {
        0
    } else {
        v.round().clamp(i64::MIN as f64, i64::MAX as f64) as i64
    }
}

/// A registry-syntax series key for a recording rule's output.
fn series_key(name: &str, labels: &[(&'static str, &str)]) -> String {
    if labels.is_empty() {
        return name.to_owned();
    }
    let parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", crate::registry::escape_label_value(v)))
        .collect();
    format!("{name}{{{}}}", parts.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::export::json_is_valid;

    fn burn_rule(for_rounds: u64) -> AlertRule {
        AlertRule {
            name: "ls_burn",
            fast: "avg_over_time(burn{class=\"ls\"}[2r])".to_owned(),
            slow: "avg_over_time(burn{class=\"ls\"}[6r])".to_owned(),
            op: CompareOp::Ge,
            threshold: 1000.0,
            for_rounds,
        }
    }

    /// Drives `engine` one round with the given burn gauge level.
    fn step(engine: &mut AlertEngine, tsdb: &mut Tsdb, round: u64, burn: i64) -> Vec<AlertEvent> {
        tsdb.store_gauge("burn{class=\"ls\"}", round, burn);
        engine.evaluate(round, tsdb)
    }

    #[test]
    fn pending_never_fires_below_for_duration() {
        let mut tsdb = Tsdb::new(8, 32);
        let mut e = AlertEngine::new(64);
        e.add_alert(burn_rule(2));
        // Breach for exactly 2 rounds, then clear: pending both rounds
        // (fires only on the 3rd consecutive breach), then silent cancel.
        let t1 = step(&mut e, &mut tsdb, 1, 1800);
        assert_eq!(t1.len(), 1);
        assert_eq!(t1[0].transition, AlertTransition::Pending);
        assert!(step(&mut e, &mut tsdb, 2, 1800).is_empty(), "still pending, no new transition");
        assert!(!e.is_firing("ls_burn"));
        assert!(step(&mut e, &mut tsdb, 3, 0).is_empty(), "pending cancel deduplicates silently");
        assert_eq!(e.next_seq(), 1, "only the pending entry was logged");
        assert!(e.firing().is_empty());
    }

    #[test]
    fn sustained_breach_fires_then_resolves() {
        let mut tsdb = Tsdb::new(8, 32);
        let mut e = AlertEngine::new(64);
        e.add_alert(burn_rule(2));
        step(&mut e, &mut tsdb, 1, 3000); // pending
        step(&mut e, &mut tsdb, 2, 3000);
        let t3 = step(&mut e, &mut tsdb, 3, 3000); // 3rd consecutive: fires
        assert_eq!(t3.len(), 1);
        assert_eq!(t3[0].transition, AlertTransition::Firing);
        assert!(e.is_firing("ls_burn"));
        assert_eq!(e.firing_series("ls_burn"), vec!["burn{class=\"ls\"}".to_owned()]);
        assert!(step(&mut e, &mut tsdb, 4, 3000).is_empty(), "firing dedups while breached");
        // Fast window (2r) clears before the slow one: resolution requires
        // only one window to stop breaching.
        let t5 = step(&mut e, &mut tsdb, 5, 0);
        let t6 = step(&mut e, &mut tsdb, 6, 0);
        let resolved: Vec<_> = t5.iter().chain(&t6).collect();
        assert!(
            resolved.iter().any(|t| t.transition == AlertTransition::Resolved),
            "{resolved:?}"
        );
        assert!(!e.is_firing("ls_burn"));
    }

    #[test]
    fn for_rounds_zero_fires_immediately() {
        let mut tsdb = Tsdb::new(8, 32);
        let mut e = AlertEngine::new(64);
        e.add_alert(burn_rule(0));
        let t = step(&mut e, &mut tsdb, 1, 5000);
        assert_eq!(t.len(), 1);
        assert_eq!(t[0].transition, AlertTransition::Firing);
        assert_eq!(t[0].value, 5000.0);
    }

    #[test]
    fn multi_window_requires_both_to_breach() {
        let mut tsdb = Tsdb::new(8, 32);
        let mut e = AlertEngine::new(64);
        e.add_alert(burn_rule(0));
        // Long benign history, then one hot round: the fast (2r) window
        // breaches but the slow (6r) average stays under threshold.
        for round in 1..=5u64 {
            step(&mut e, &mut tsdb, round, 0);
        }
        let t = step(&mut e, &mut tsdb, 6, 2500);
        assert!(t.is_empty(), "one-round blip must not fire the multi-window rule: {t:?}");
        // Sustain it: both windows breach, the alert fires.
        step(&mut e, &mut tsdb, 7, 2500);
        step(&mut e, &mut tsdb, 8, 2500);
        step(&mut e, &mut tsdb, 9, 2500);
        let fired = step(&mut e, &mut tsdb, 10, 2500);
        assert!(
            fired.iter().any(|x| x.transition == AlertTransition::Firing) || e.is_firing("ls_burn"),
            "sustained breach must eventually fire"
        );
    }

    #[test]
    fn per_series_states_cover_dynamic_members() {
        let mut tsdb = Tsdb::new(8, 32);
        let mut e = AlertEngine::new(64);
        e.add_alert(AlertRule {
            name: "avail",
            fast: "avg_over_time(avail_permille[1r])".to_owned(),
            slow: "avg_over_time(avail_permille[1r])".to_owned(),
            op: CompareOp::Le,
            threshold: 500.0,
            for_rounds: 0,
        });
        tsdb.store_gauge("avail_permille{engine=\"0\"}", 1, 1000);
        tsdb.store_gauge("avail_permille{engine=\"1\"}", 1, 200);
        let t = e.evaluate(1, &mut tsdb);
        assert_eq!(t.len(), 1);
        assert_eq!(t[0].series, "avail_permille{engine=\"1\"}");
        // A member spawned later gets its own state machine.
        tsdb.store_gauge("avail_permille{engine=\"0\"}", 2, 1000);
        tsdb.store_gauge("avail_permille{engine=\"1\"}", 2, 200);
        tsdb.store_gauge("avail_permille{engine=\"2\"}", 2, 100);
        let t = e.evaluate(2, &mut tsdb);
        assert_eq!(t.len(), 1);
        assert_eq!(t[0].series, "avail_permille{engine=\"2\"}");
        assert_eq!(e.firing().len(), 2);
    }

    #[test]
    fn recording_rules_publish_to_tsdb_and_derived_registry() {
        let mut tsdb = Tsdb::new(8, 32);
        let mut e = AlertEngine::new(64);
        e.add_recording(RecordingRule {
            record: "sfi_rule_goodput_permille",
            labels: vec![("class", "batch".to_owned())],
            source: RuleSource::RatioPermille {
                num: "increase(completed_total{class=\"batch\"}[4r])".to_owned(),
                den: "increase(offered_total{class=\"batch\"}[4r])".to_owned(),
            },
        });
        let mut offered = 0u64;
        let mut completed = 0u64;
        for round in 1..=5u64 {
            offered += 10;
            completed += 9;
            tsdb.store_counter("offered_total{class=\"batch\"}", round, offered);
            tsdb.store_counter("completed_total{class=\"batch\"}", round, completed);
            e.evaluate(round, &mut tsdb);
        }
        let key = "sfi_rule_goodput_permille{class=\"batch\"}";
        assert_eq!(e.derived().gauge_value(key), Some(900));
        assert_eq!(tsdb.query(key).unwrap(), vec![(key.to_owned(), 900.0)]);
        // Zero denominator records 0, not NaN.
        let mut e2 = AlertEngine::new(8);
        e2.add_recording(RecordingRule {
            record: "sfi_rule_empty_permille",
            labels: vec![],
            source: RuleSource::RatioPermille {
                num: "increase(nope_total[1r])".to_owned(),
                den: "increase(nada_total[1r])".to_owned(),
            },
        });
        let mut t2 = Tsdb::new(4, 8);
        e2.evaluate(1, &mut t2);
        assert_eq!(e2.derived().gauge_value("sfi_rule_empty_permille"), Some(0));
    }

    #[test]
    fn log_is_bounded_with_honest_cursors() {
        let mut tsdb = Tsdb::new(4, 32);
        let mut e = AlertEngine::new(2);
        // A 1-round window so alternating levels really alternate breaches.
        e.add_alert(AlertRule {
            name: "flap",
            fast: "avg_over_time(burn{class=\"ls\"}[1r])".to_owned(),
            slow: "avg_over_time(burn{class=\"ls\"}[1r])".to_owned(),
            op: CompareOp::Ge,
            threshold: 1000.0,
            for_rounds: 0,
        });
        // Alternate breach/clear to generate fire+resolve pairs.
        for round in 1..=8u64 {
            let burn = if round % 2 == 1 { 3000 } else { 0 };
            step(&mut e, &mut tsdb, round, burn);
        }
        assert!(e.next_seq() >= 6);
        assert_eq!(e.dropped() + 2, e.next_seq(), "log holds exactly 2 entries");
        let (events, next, dropped) = e.log_since(0);
        assert_eq!(events.len(), 2);
        assert_eq!(next, e.next_seq());
        assert_eq!(dropped, e.dropped());
        let (tail, _, d) = e.log_since(next);
        assert!(tail.is_empty());
        assert_eq!(d, 0);
    }

    #[test]
    fn alerts_json_is_valid_and_deterministic() {
        let run = || {
            let mut tsdb = Tsdb::new(8, 32);
            let mut e = AlertEngine::new(64);
            e.add_alert(burn_rule(1));
            for round in 1..=6u64 {
                let burn = if round >= 3 { 4000 } else { 0 };
                step(&mut e, &mut tsdb, round, burn);
            }
            e.alerts_json(0)
        };
        let (a, b) = (run(), run());
        assert_eq!(a, b, "same rounds ⇒ byte-identical /alerts body");
        assert!(json_is_valid(&a), "{a}");
        assert!(a.contains("\"rule\": \"ls_burn\""));
        assert!(a.contains("\"transition\": \"firing\""), "{a}");
    }
}
