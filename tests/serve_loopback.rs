//! Live-serving integration: the `faas_serve` loop on a loopback ephemeral
//! port (DESIGN.md §8).
//!
//! Starts the exact server the `faas_serve` binary runs —
//! [`serve_background`] over a [`ServeEngine`] — drives engine rounds,
//! and scrapes it over real TCP: `/metrics` twice (observer effect must be
//! confined to the scrape-meta series), `/trace?since=<cursor>`
//! incrementally (the drained stream must concatenate byte-identically to
//! the post-mortem batch export), `/snapshot` (byte-equal to a server-off
//! replay), `/healthz`, and `/quit` for clean shutdown.

use segue_colorguard::faas::{
    serve_background, FailureModel, FleetConfig, FleetSupervisor, ScrapeSurface, ServeConfig,
    ServeEngine,
};
use segue_colorguard::telemetry::{
    chrome_trace_wrap, http_get, http_get_retry, json_is_valid, Registry, RetryPolicy, IO_TIMEOUT,
};
use segue_colorguard::vm::{EngineFault, FaultPlan};

const ROUNDS: u64 = 3;

fn small_cfg() -> ServeConfig {
    let mut cfg = ServeConfig::paper_rig(2);
    cfg.engine.duration_ms = 20;
    cfg.probe.duration_ms = 10;
    cfg
}

#[test]
fn loopback_scrapes_match_postmortem_exports() {
    // Server-off reference: replay the same config and round count.
    let mut offline = ServeEngine::new(small_cfg());
    for _ in 0..ROUNDS {
        offline.run_round();
    }
    let offline_snapshot = offline.snapshot_json();
    let offline_trace = offline.trace_batch();

    // Live server on an ephemeral loopback port.
    let served = serve_background(0, ServeEngine::new(small_cfg())).expect("bind");
    let addr = served.addr.clone();

    // Drive rounds, draining /trace incrementally after each.
    let mut cursor = 0u64;
    let mut streamed: Vec<String> = Vec::new();
    for _ in 0..ROUNDS {
        served.lock().run_round();
        let (status, body) = http_get(&addr, &format!("/trace?since={cursor}")).expect("trace");
        assert_eq!(status, 200);
        let mut lines = body.lines();
        let head = lines.next().expect("metadata line");
        assert!(head.contains("\"dropped\": 0"), "{head}");
        cursor = head
            .split("\"next\": ")
            .nth(1)
            .and_then(|s| s.split(',').next())
            .and_then(|s| s.parse().ok())
            .expect("next cursor in metadata");
        streamed.extend(lines.map(str::to_owned));
    }

    // Scrape /metrics twice: both succeed, modeled series identical, and
    // only the scrape-meta counter differs between the two bodies.
    let (s1, m1) = http_get(&addr, "/metrics").expect("first metrics scrape");
    let (s2, m2) = http_get(&addr, "/metrics").expect("second metrics scrape");
    assert_eq!((s1, s2), (200, 200));
    assert!(m1.contains("sfi_shard_completed_total"));
    assert!(m1.contains("sfi_shard_dtlb_events_total{sample_rate=\"64\"}"), "{m1}");
    assert!(m1.contains("sfi_serve_scrapes_total{endpoint=\"metrics\"} 1"), "{m1}");
    assert!(m2.contains("sfi_serve_scrapes_total{endpoint=\"metrics\"} 2"), "{m2}");
    let modeled = |m: &str| -> String {
        m.lines().filter(|l| !l.contains("sfi_serve_scrapes_total")).collect::<Vec<_>>().join("\n")
    };
    assert_eq!(modeled(&m1), modeled(&m2), "scraping must not move modeled series");

    // The incremental drains re-wrap to the byte-identical batch export,
    // which in turn equals the server-off replay.
    let rewrapped = chrome_trace_wrap(&streamed);
    assert_eq!(rewrapped, served.lock().trace_batch());
    assert_eq!(rewrapped, offline_trace);

    // /snapshot is modeled-only and byte-equal to the offline replay.
    let (ss, snapshot) = http_get(&addr, "/snapshot").expect("snapshot");
    assert_eq!(ss, 200);
    assert!(json_is_valid(&snapshot));
    assert_eq!(snapshot, offline_snapshot, "serving must have zero observer effect");
    assert!(!snapshot.contains("sfi_serve_scrapes_total"), "meta must stay out of /snapshot");

    // /healthz answers with availability; unknown paths 404; /quit stops.
    let (hs, health) = http_get(&addr, "/healthz").expect("healthz");
    assert_eq!(hs, 200);
    assert!(json_is_valid(&health), "{health}");
    assert!(health.contains("\"availability\""));
    assert!(health.contains("\"quarantined_instances\""));
    let (nf, _) = http_get(&addr, "/no-such-endpoint").expect("404 path");
    assert_eq!(nf, 404);
    let (qs, _) = http_get(&addr, "/quit").expect("quit");
    assert_eq!(qs, 200);
    served.join();
}

#[test]
fn wrapped_trace_stream_flags_the_gap_and_stays_valid() {
    // A stream ring far smaller than one round's event volume: the first
    // scrape after two rounds must observe dropped > 0 — and the response
    // must still re-wrap to valid chrome-trace JSON with the gap flagged.
    let mut cfg = small_cfg();
    cfg.stream_capacity = 32;
    let served = serve_background(0, ServeEngine::new(cfg)).expect("bind");
    let addr = served.addr.clone();
    for _ in 0..2 {
        served.lock().run_round();
    }
    {
        let eng = served.lock();
        assert!(
            eng.stream().total_recorded() > 32 + 32,
            "rounds must overflow the ring decisively (got {})",
            eng.stream().total_recorded()
        );
    }
    let (status, body) = http_get(&addr, "/trace?since=0").expect("trace");
    assert_eq!(status, 200);
    let mut lines = body.lines();
    let head = lines.next().expect("metadata line");
    assert!(!head.contains("\"dropped\": 0"), "wraparound must be reported: {head}");
    let streamed: Vec<String> = lines.map(str::to_owned).collect();
    // The gap marker leads the event lines, carries the drop count, and the
    // re-wrapped document is still valid chrome-trace JSON.
    assert!(streamed[0].contains("\"name\": \"trace_gap\""), "{}", streamed[0]);
    assert!(streamed[0].contains("\"dropped\": "), "{}", streamed[0]);
    let dropped: u64 = head
        .split("\"dropped\": ")
        .nth(1)
        .and_then(|s| s.split(',').next())
        .and_then(|s| s.trim_end_matches('}').parse().ok())
        .expect("dropped count in metadata");
    assert!(streamed[0].contains(&format!("\"dropped\": {dropped}")), "gap != metadata");
    let rewrapped = chrome_trace_wrap(&streamed);
    assert!(json_is_valid(&rewrapped), "gap-bearing stream must re-wrap to valid JSON");
    // The line count in the metadata includes the gap marker.
    assert!(head.contains(&format!("\"lines\": {}", streamed.len())), "{head}");
    let (qs, _) = http_get(&addr, "/quit").expect("quit");
    assert_eq!(qs, 200);
    served.join();
}

#[test]
fn saturated_dead_letters_serve_a_floored_healthz() {
    // FailureModel edge over the wire: every probe attempt traps with no
    // retry budget, so dead-letters saturate. /healthz must serve exactly
    // 0.0 availability — a parseable number, not NaN and not a panic.
    let mut cfg = small_cfg();
    cfg.probe.failures = FailureModel { trap_prob: 1.0, max_retries: 0, ..Default::default() };
    let served = serve_background(0, ServeEngine::new(cfg)).expect("bind");
    let addr = served.addr.clone();
    for _ in 0..2 {
        served.lock().run_round();
    }
    let (status, health) = http_get(&addr, "/healthz").expect("healthz");
    assert_eq!(status, 200, "a saturated engine still answers");
    assert!(json_is_valid(&health), "{health}");
    assert!(health.contains("\"availability\": 0.000000"), "floored, not NaN: {health}");
    assert!(health.contains("\"status\": \"degraded\""), "{health}");
    assert!(!health.contains("NaN") && !health.contains("nan"), "{health}");
    let dead: u64 = health
        .split("\"dead_lettered\": ")
        .nth(1)
        .and_then(|s| s.split(',').next())
        .and_then(|s| s.parse().ok())
        .expect("dead_lettered in healthz");
    assert!(dead > 0, "saturation must dead-letter: {health}");
    let (qs, _) = http_get(&addr, "/quit").expect("quit");
    assert_eq!(qs, 200);
    served.join();
}

#[test]
fn fleet_loopback_serves_the_federated_surface() {
    // A two-member fleet with one injected kill, scraped over real TCP
    // with the hardened retry client: the federated /snapshot must equal a
    // manual label-disambiguated merge of uninterrupted member replays.
    let mut cfg = FleetConfig::paper_rig(2, 2);
    for m in &mut cfg.members {
        m.engine.duration_ms = 10;
        m.probe.duration_ms = 5;
    }
    cfg.chaos = FaultPlan::new().engine_fail_at(0, 1, EngineFault::MidRoundPanic);
    let member_cfgs: Vec<ServeConfig> = cfg.members.clone();
    let served = serve_background(0, FleetSupervisor::new(cfg)).expect("bind");
    let addr = served.addr.clone();
    const ROUNDS: u64 = 3;
    for _ in 0..ROUNDS {
        served.lock().run_round();
    }
    let policy = RetryPolicy::default();
    let get = |path: &str| http_get_retry(&addr, path, &policy, IO_TIMEOUT).expect(path);
    let (fs, fleet_body, _) = get("/fleet");
    assert_eq!(fs, 200);
    assert!(json_is_valid(&fleet_body), "{fleet_body}");
    assert!(fleet_body.contains("\"restarts\": 1"), "the kill must recover: {fleet_body}");
    assert!(fleet_body.contains("\"members_live\": 2"), "{fleet_body}");
    let (ss, snapshot, _) = get("/snapshot");
    assert_eq!(ss, 200);
    let mut manual = Registry::new();
    for (id, mcfg) in member_cfgs.iter().enumerate() {
        let mut replay = ServeEngine::new(mcfg.clone());
        for _ in 0..ROUNDS {
            replay.run_round();
        }
        manual.merge_labeled_from(replay.registry(), "engine", &id.to_string());
    }
    assert_eq!(
        snapshot,
        segue_colorguard::telemetry::json_snapshot(&manual),
        "federated snapshot != labeled sum of uninterrupted member replays"
    );
    let (ms, metrics, _) = get("/metrics");
    assert_eq!(ms, 200);
    assert!(metrics.contains("engine=\"0\"") && metrics.contains("engine=\"1\""), "{metrics}");
    assert!(metrics.contains("sfi_fleet_member_faults_total{kind=\"mid_round_panic\"} 1"));
    let (qs, _, _) = get("/quit");
    assert_eq!(qs, 200);
    served.join();
}
