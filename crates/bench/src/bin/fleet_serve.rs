//! `fleet_serve`: a supervised multi-engine fleet behind one federated
//! scrape surface (DESIGN.md §11).
//!
//! Runs a [`sfi_faas::FleetSupervisor`] — N in-process `ServeEngine`
//! members with engine-level fault budgets, deterministic crash-recovery
//! by checkpoint replay, and seeded engine-grade chaos — while the std-only
//! HTTP/1.1 loop on a background thread serves the fleet surface: the
//! router's endpoint table ([`sfi_faas::endpoints`]), which includes
//! `/fleet` and which the startup banner prints:
//!
//! - `GET /metrics`  — Prometheus text: member registries merged under
//!   `engine="<id>"` labels, plus the fleet supervision meta registry
//! - `GET /snapshot` — the federated modeled registry as JSON (no meta:
//!   equal to the label-disambiguated sum of member snapshots)
//! - `GET /trace?since=<cursor>` — the supervision trace (member crashes,
//!   restarts, retirements, poll attempts; gap-marked on overflow)
//! - `GET /fleet`    — per-member liveness, restart and quarantine state
//! - `GET /healthz`  — fleet availability (503 once no member is live)
//! - `GET /profile`  — the fleet flamegraph (member stacks re-rooted under
//!   `member_<id>`) and cross-member latency exemplars
//! - `GET /alerts?since=<cursor>` — fleet alert states + transition log
//! - `GET /query?expr=<expr>` — one query over the fleet tsdb
//! - `GET /quit`     — answer, then shut down cleanly
//!
//! Modes:
//!
//! - `fleet_serve [--port N] [--members N] [--rounds N] [--chaos RATE]` —
//!   serve until `/quit`. Scrape it with `faas_serve --get ADDR PATH`.
//! - `fleet_serve --check` — the federation acceptance gate: K=3 seeded
//!   member kills out of N=4 engines, fleet availability ≥ 0.75, every
//!   recovered member byte-equal to an uninterrupted same-seed replay, the
//!   merged fleet `/snapshot` equal to the label-disambiguated sum of
//!   member snapshots, chaos on/off differing only in injected-fault
//!   series, and every endpoint in the table live over TCP.

use std::collections::BTreeMap;

use sfi_bench::{arg_after, silence_injected_panics};
use sfi_faas::{
    endpoints, serve_background, FleetConfig, FleetSupervisor, MemberState, ScrapeSurface,
};
use sfi_telemetry::{
    http_get_retry, json_is_valid, json_snapshot, Registry, RetryPolicy, IO_TIMEOUT,
};
use sfi_vm::{EngineFault, FaultPlan};

/// Fleet size for `--check` (N engines, K=3 of them killed).
const CHECK_MEMBERS: u32 = 4;

/// Rounds per `--check` run — enough that every scheduled kill lands and
/// every victim serves recovered rounds afterwards.
const CHECK_ROUNDS: u64 = 6;

/// The availability floor the killed fleet must stay above.
const AVAILABILITY_FLOOR: f64 = 0.75;

/// A small check-scale fleet: short rounds, N members.
fn check_fleet(members: u32) -> FleetConfig {
    let mut cfg = FleetConfig::paper_rig(members, 2);
    for m in &mut cfg.members {
        m.engine.duration_ms = 20;
        m.probe.duration_ms = 10;
    }
    cfg
}

/// The K=3 scheduled kills for `--check`: one of each engine-grade fault
/// kind, on three different members, in three different rounds.
const KILLS: [(u64, u64, EngineFault); 3] = [
    (0, 1, EngineFault::MidRoundPanic),
    (1, 2, EngineFault::HangOnAccept),
    (2, 3, EngineFault::TornResponse),
];

/// The check fleet with the K=3 kills scheduled.
fn chaos_fleet() -> FleetConfig {
    let mut cfg = check_fleet(CHECK_MEMBERS);
    for (member, round, fault) in KILLS {
        cfg.chaos = cfg.chaos.engine_fail_at(member, round, fault);
    }
    cfg
}

fn main() {
    if std::env::args().any(|a| a == "--check") {
        check();
        return;
    }

    silence_injected_panics();
    let port: u16 = arg_after("--port").map(|p| p.parse().expect("numeric port")).unwrap_or(9200);
    let members: u32 =
        arg_after("--members").map(|m| m.parse().expect("numeric members")).unwrap_or(4);
    let max_rounds: Option<u64> = arg_after("--rounds").map(|r| r.parse().expect("numeric rounds"));
    let chaos_rate: f64 =
        arg_after("--chaos").map(|c| c.parse().expect("numeric chaos rate")).unwrap_or(0.0);

    let mut cfg = FleetConfig::paper_rig(members, 2);
    if chaos_rate > 0.0 {
        cfg.chaos = FaultPlan::seeded(
            0xF1EE7,
            sfi_vm::ChaosConfig { engine_fault_rate: chaos_rate, ..Default::default() },
        );
    }
    let served = serve_background(port, FleetSupervisor::new(cfg)).expect("bind");
    let (addr, table) = (&served.addr, endpoints::<FleetSupervisor>().join(" "));
    println!("fleet_serve: listening on http://{addr}  ({members} members; GET {table} /quit)");
    served.drive(max_rounds, FleetSupervisor::run_round);
    let sup = served.join();
    println!(
        "fleet_serve: quit after {} rounds, availability {:.4}, {}/{} members live",
        sup.rounds(),
        sup.availability(),
        sup.members_live(),
        sup.members().len(),
    );
}

fn check() {
    silence_injected_panics();

    // Chaos-off reference: the same fleet, nothing injected.
    let mut quiet = FleetSupervisor::new(check_fleet(CHECK_MEMBERS));
    for _ in 0..CHECK_ROUNDS {
        quiet.run_round();
    }
    let quiet_snapshot = quiet.snapshot_json();
    assert_eq!(quiet.availability(), 1.0, "chaos-off fleet must be fully available");

    // Chaos-on run: K=3 scheduled member kills, one per fault kind.
    let mut fleet = FleetSupervisor::new(chaos_fleet());
    for _ in 0..CHECK_ROUNDS {
        fleet.run_round();
    }

    // 1. The fleet survives: availability above the floor, every member
    //    live again (all three kills recovered within budget).
    let availability = fleet.availability();
    assert!(
        availability >= AVAILABILITY_FLOOR,
        "availability {availability:.4} under the {AVAILABILITY_FLOOR} floor"
    );
    assert_eq!(fleet.members_live(), CHECK_MEMBERS as usize, "every member must recover");
    let statuses = fleet.members();
    assert_eq!(statuses[0].restarts, 1, "member 0's panic must force a checkpoint restart");
    assert!(statuses.iter().all(|s| s.state == MemberState::Live));
    assert!(statuses.iter().all(|s| s.rounds == CHECK_ROUNDS), "no round may be skipped");

    // 2. Every recovered member is byte-equal to an uninterrupted
    //    same-seed replay of its (config, rounds) checkpoint, and
    // 3. the merged fleet /snapshot equals the label-disambiguated sum of
    //    those replays.
    let mut manual = Registry::new();
    for s in &statuses {
        let (mcfg, rounds) = fleet.member_checkpoint(s.id).expect("member exists");
        let mut replay = sfi_faas::ServeEngine::new(mcfg);
        for _ in 0..rounds {
            replay.run_round();
        }
        assert_eq!(
            fleet.member_snapshot(s.id).expect("member exists"),
            replay.snapshot_json(),
            "member {} diverged from its uninterrupted replay",
            s.id
        );
        manual.merge_labeled_from(replay.registry(), "engine", &s.id.to_string());
    }
    let snapshot = fleet.snapshot_json();
    assert_eq!(snapshot, json_snapshot(&manual), "fleet snapshot != sum of member snapshots");
    assert!(json_is_valid(&snapshot));

    // 4. Zero observer effect, fleet-grade: chaos on vs off differ only in
    //    the injected-fault series (modeled snapshots byte-equal; the meta
    //    fault counters differ).
    assert_eq!(snapshot, quiet_snapshot, "chaos leaked into the modeled snapshot");
    let (chaos_meta, quiet_meta) = (fleet.supervision_registry(), quiet.supervision_registry());
    for kind in ["mid_round_panic", "hang_on_accept", "torn_response"] {
        let series = format!("sfi_fleet_member_faults_total{{kind=\"{kind}\"}}");
        assert_eq!(chaos_meta.counter_value(&series), Some(1), "{series}");
        assert_eq!(quiet_meta.counter_value(&series), Some(0), "quiet {series}");
    }
    assert_eq!(chaos_meta.counter_value("sfi_fleet_restarts_total"), Some(1));
    assert_eq!(quiet_meta.counter_value("sfi_fleet_restarts_total"), Some(0));

    // 5. The recovery timeline is byte-reproducible: a second chaos run
    //    with the same plan replays the identical supervision trace.
    let mut rerun = FleetSupervisor::new(chaos_fleet());
    for _ in 0..CHECK_ROUNDS {
        rerun.run_round();
    }
    assert_eq!(rerun.trace_batch(), fleet.trace_batch(), "recovery trace not reproducible");
    assert_eq!(rerun.clock().now(), fleet.clock().now(), "virtual timelines diverged");

    // 6. The TCP surface serves the federation end-to-end: run the same
    //    chaos fleet behind a live listener, scrape every endpoint with the
    //    hardened client, quit cleanly.
    let served = serve_background(0, FleetSupervisor::new(chaos_fleet())).expect("bind");
    served.drive(Some(CHECK_ROUNDS), FleetSupervisor::run_round);
    let addr = &served.addr;
    let policy = RetryPolicy::default();
    let get = |path: &str| {
        let (status, body, _) = http_get_retry(addr, path, &policy, IO_TIMEOUT).expect(path);
        (status, body)
    };
    let mut bodies = BTreeMap::new();
    for ep in endpoints::<FleetSupervisor>() {
        let (status, body) =
            get(if ep == "/query" { "/query?expr=sfi_fleet_members_live" } else { ep });
        assert_eq!(status, 200, "{ep} must respond");
        assert!(ep == "/metrics" || ep == "/trace" || json_is_valid(&body), "{ep}: {body}");
        bodies.insert(ep, body);
    }
    {
        let sup = served.lock();
        assert_eq!(bodies["/fleet"], sup.fleet_json(), "/fleet must serve the fleet's render");
        assert_eq!(sup.members_live(), CHECK_MEMBERS as usize, "every served member live");
    }
    assert_eq!(bodies["/snapshot"], snapshot, "served snapshot must equal the in-process run");
    assert!(bodies["/metrics"].contains("engine=\"3\""), "member labels must survive the wire");
    assert!(bodies["/metrics"].contains("sfi_fleet_polls_total"));
    assert!(bodies["/healthz"].contains("\"availability\""), "{}", bodies["/healthz"]);
    assert!(bodies["/trace"].starts_with("{\"next\": "), "{}", bodies["/trace"]);
    assert!(bodies["/alerts"].contains("\"states\""), "{}", bodies["/alerts"]);
    assert!(bodies["/query"].contains("\"results\""), "{}", bodies["/query"]);
    let (status, _) = get("/query?expr=%ZZ");
    assert_eq!(status, 400, "/query with malformed percent-encoding must 400");
    let (status, _) = get("/quit");
    assert_eq!(status, 200);
    served.join();

    println!(
        "check OK: {} members survived {} kills (availability {availability:.4} ≥ \
         {AVAILABILITY_FLOOR}), recovered members == uninterrupted replays, fleet snapshot == \
         labeled member sum, chaos on/off modeled-identical, TCP surface live",
        CHECK_MEMBERS,
        KILLS.len(),
    );
}
