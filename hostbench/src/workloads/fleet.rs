//! `faas_fleet`: the modeled serving stack. One op is one
//! `FleetSupervisor::run_round` followed by one scrape: `metrics_text`,
//! `alerts_body(cursor)`, `trace_body(cursor)` and one `query_body`. The
//! fleet is `FleetConfig::paper_rig(3, 2)` with one member per FaaS engine
//! (hash load balancing, regex filtering, HTML templating, engine and
//! probe alike), the paper-rig QoS, spans on, the paper-rig alerting
//! policy, and 50 ms probes. It does no emulation at all.
//!
//! A traced run also replays each member's rounds through
//! `simulate_multicore` (engine) and `simulate` (probe) once the phase's
//! ops are done, from the member's checkpoint config and round seed, and
//! attributes those times to `faas.shard` and `faas.sim` inside each
//! round's span; the rest of the round is `faas.fleet` self time.

use std::time::Instant;

use sfi_faas::{
    round_seed, simulate, simulate_multicore, FaasWorkload, FleetAlertPolicy, FleetConfig,
    FleetSupervisor, MemberState, QosConfig,
};
use sfi_telemetry::json_is_valid;

use crate::bench::Workload;
use crate::oracle::Failure;
use crate::rng::Digest;
use crate::trace::{Layer, Tracer};

/// The scrape's tsdb query.
const QUERY: &str = "rate(sfi_qos_completed_total[8r])";
/// Warm-up rounds before measuring.
const WARM_UP: u64 = 2;

/// The fleet for `seed`: member seeds are mixed with the workload seed.
/// Quick runs shorten the modeled rounds.
pub fn fleet_config(seed: u64, quick: bool) -> FleetConfig {
    let mut cfg = FleetConfig::paper_rig(3, 2);
    for (m, workload) in cfg.members.iter_mut().zip(FaasWorkload::ALL) {
        m.engine.workload = workload;
        m.probe.workload = workload;
        m.engine.qos = Some(QosConfig::paper_rig());
        m.engine.spans = true;
        m.probe.duration_ms = 50;
        if quick {
            m.engine.duration_ms = 5;
            m.probe.duration_ms = 5;
        }
        m.engine.seed = round_seed(m.engine.seed, seed);
        m.probe.seed = round_seed(m.probe.seed, seed);
    }
    cfg.alerting = Some(FleetAlertPolicy::paper_rig(cfg.members[0].clone()));
    cfg
}

/// Digest of the fleet's per-member inputs for `seed` over `rounds`
/// rounds: the engine and probe seeds each round runs with.
pub fn stream_digest(seed: u64, rounds: u64) -> u64 {
    let cfg = fleet_config(seed, false);
    let mut d = Digest::default();
    for r in 0..rounds {
        for m in &cfg.members {
            d = d
                .u64(round_seed(m.engine.seed, r))
                .u64(round_seed(m.probe.seed, r));
        }
    }
    d.finish()
}

/// The `faas_fleet` workload.
pub struct FaasFleet {
    fleet: FleetSupervisor,
    alert_cursor: u64,
    trace_cursor: u64,
    scraped_bytes: u64,
    /// Traced rounds awaiting replay: the round's span and the round index
    /// each live member ran.
    replays: Vec<(u32, Vec<(u64, u64)>)>,
}

/// Reads the `"next"` cursor from a `/trace` body's metadata line.
fn trace_next(body: &str) -> Option<u64> {
    let meta = body.lines().next()?;
    if !json_is_valid(meta) {
        return None;
    }
    let rest = &meta[meta.find("\"next\": ")? + "\"next\": ".len()..];
    rest[..rest.find(',')?].trim().parse().ok()
}

/// Reads `sfi_fleet_rounds_total`'s value from Prometheus text.
fn rounds_total(text: &str) -> Option<u64> {
    text.lines()
        .find_map(|l| l.strip_prefix("sfi_fleet_rounds_total "))
        .and_then(|v| v.trim().parse().ok())
}

impl FaasFleet {
    fn round(&mut self, tr: &mut Tracer) -> Result<(), Failure> {
        let open = tr.begin();
        self.fleet.run_round();
        if let Some(span) = tr.end(open, Layer::FaasFleet) {
            let ran = self
                .fleet
                .members()
                .iter()
                .filter(|m| m.state == MemberState::Live)
                .map(|m| (m.id, m.rounds - 1))
                .collect();
            self.replays.push((span, ran));
        }

        let text = tr.span(Layer::TelemetryExport, || self.fleet.metrics_text());
        tr.work(Layer::TelemetryExport, text.len() as f64);
        let (alerts, query) = tr.span(Layer::TelemetryQuery, || {
            (
                self.fleet.alerts_body(self.alert_cursor),
                self.fleet.query_body(QUERY),
            )
        });
        let trace = tr.span(Layer::TelemetryTrace, || {
            self.fleet.trace_body(self.trace_cursor)
        });
        tr.work(Layer::TelemetryTrace, trace.len() as f64);
        let round = self.fleet.rounds();
        let cell = |detail: String| Failure::Other {
            cell: format!("round {round}"),
            detail,
        };
        let query = query.map_err(|e| cell(format!("query {QUERY}: {e}")))?;
        tr.work(Layer::TelemetryQuery, (alerts.len() + query.len()) as f64);
        self.scraped_bytes += (text.len() + alerts.len() + query.len() + trace.len()) as u64;

        let cursor = self.trace_cursor;
        let next = tr.check(|| {
            if rounds_total(&text) != Some(round) {
                return Err(cell(format!(
                    "/metrics reports rounds {:?}",
                    rounds_total(&text)
                )));
            }
            if !json_is_valid(alerts.trim_end()) || !json_is_valid(query.trim_end()) {
                return Err(cell("malformed /alerts or /query body".into()));
            }
            match trace_next(&trace) {
                Some(next) if next >= cursor => Ok(next),
                other => Err(cell(format!("/trace cursor {other:?} after {cursor}"))),
            }
        })?;
        self.trace_cursor = next;
        self.alert_cursor = self.fleet.alerts().next_seq();
        Ok(())
    }
}

impl Workload for FaasFleet {
    type Refs = ();

    // ~120 rounds per default run: p90 leaves ≥10 samples beyond it.
    const TAIL_PERCENTILE: f64 = 90.0;

    fn references(_seed: u64, _quick: bool) {}

    fn setup(seed: u64, quick: bool, _refs: &()) -> FaasFleet {
        FaasFleet {
            fleet: FleetSupervisor::new(fleet_config(seed, quick)),
            alert_cursor: 0,
            trace_cursor: 0,
            scraped_bytes: 0,
            replays: Vec::new(),
        }
    }

    fn warm_up_ops(&self, _quick: bool) -> u64 {
        WARM_UP
    }

    fn op(&mut self, _i: u64, _refs: &(), tr: &mut Tracer) -> Result<(), Failure> {
        self.round(tr)
    }

    fn finish(&mut self, tr: &mut Tracer) {
        for (span, ran) in std::mem::take(&mut self.replays) {
            let mut offset = 0;
            for (id, round) in ran {
                let Some((cfg, _)) = self.fleet.member_checkpoint(id) else {
                    continue;
                };
                let mut engine = cfg.engine.clone();
                engine.seed = round_seed(cfg.engine.seed, round);
                let t = Instant::now();
                let report = simulate_multicore(&engine);
                let shard_ns = t.elapsed().as_nanos() as u64;
                let mut probe = cfg.probe.clone();
                probe.seed = round_seed(cfg.probe.seed, round);
                let t = Instant::now();
                let health = simulate(&probe);
                let sim_ns = t.elapsed().as_nanos() as u64;
                tr.place(span, Layer::FaasShard, offset, shard_ns);
                tr.place(span, Layer::FaasSim, offset + shard_ns, sim_ns);
                tr.work(Layer::FaasShard, report.offered as f64);
                tr.work(Layer::FaasSim, health.offered as f64);
                offset += shard_ns + sim_ns;
            }
        }
    }

    fn counts(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("rounds", self.fleet.rounds() as f64),
            ("members_live", self.fleet.members_live() as f64),
            ("scraped_bytes", self.scraped_bytes as f64),
        ]
    }
}
