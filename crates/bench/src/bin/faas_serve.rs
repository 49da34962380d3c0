//! `faas_serve`: the multi-core FaaS engine behind a live telemetry
//! endpoint (DESIGN.md §8).
//!
//! Runs [`sfi_faas::ServeEngine`] rounds while a std-only HTTP/1.1 loop on
//! a background thread ([`sfi_faas::serve_background`]) serves the
//! router's endpoint table ([`sfi_faas::endpoints`], which the startup
//! banner prints):
//!
//! - `GET /metrics`   — Prometheus text (modeled registry + scrape meta)
//! - `GET /snapshot`  — the modeled registry as JSON (no meta: byte-equal
//!   to an offline replay of the same config and round count)
//! - `GET /trace?since=<cursor>` — incremental chrome-trace lines from the
//!   cumulative flight-recorder stream
//! - `GET /healthz`   — failure-model availability + quarantine (the one
//!   endpoint allowed wall time: its uptime field)
//! - `GET /profile`   — folded-stack flamegraph, latency exemplars and
//!   (with QoS) SLO burn (DESIGN.md §14)
//! - `GET /alerts?since=<cursor>` — alert states + incremental transition
//!   log from the in-memory rule engine
//! - `GET /query?expr=<expr>` — one tsdb query (DESIGN.md §15 grammar)
//! - `GET /quit`      — answer, then shut the server down cleanly
//!
//! Modes:
//!
//! - `faas_serve [--port N] [--rounds N]` — serve until `/quit` (port 0
//!   picks an ephemeral port and prints it; `--rounds` caps the driver).
//! - `faas_serve --get ADDR PATH [--timeout-ms N]` — one-shot scrape
//!   client for either serving binary (exit 0 on HTTP 200), used by the
//!   CI smoke step instead of curl; the optional deadline bounds each
//!   attempt's connect/read/write so a hung server cannot wedge the scrape.
//! - `faas_serve --check` — self-contained acceptance gate: every endpoint
//!   in the table responds on a loopback server; the drained `/trace` stream
//!   re-wraps byte-identically to the batch export; the served `/snapshot`
//!   equals a server-off replay byte-for-byte; and scraping under load
//!   stays within the overhead budget.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Duration;

use sfi_bench::{arg_after, check_overhead, OVERHEAD_BUDGET};
use sfi_faas::{endpoints, serve_background, ScrapeSurface, ServeConfig, ServeEngine};
use sfi_telemetry::{
    chrome_trace_wrap, http_get, http_get_retry, json_is_valid, RetryPolicy, IO_TIMEOUT,
};

/// Rounds per timed check pass (short rounds: ServeConfig::paper_rig).
const CHECK_ROUNDS: u64 = 3;
/// Rounds in one timed run of the scrape-under-load gate. Three rounds
/// take about 30 ms, short enough for scheduler noise to swing the
/// scraped/dark factor by ±10%.
const OVERHEAD_ROUNDS: u64 = 12;

/// The request `--check` sends for endpoint `ep`: `/query` needs an
/// expression, every other endpoint answers its bare path.
fn scrape_path(ep: &str) -> &str {
    match ep {
        "/query" => "/query?expr=increase(sfi_shard_completed_total%5B4r%5D)",
        _ => ep,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.iter().any(|a| a == "--check") {
        check();
        return;
    }
    if let Some(i) = args.iter().position(|a| a == "--get") {
        let addr = args.get(i + 1).expect("--get ADDR PATH");
        let path = args.get(i + 2).expect("--get ADDR PATH");
        // Bounded deterministic retries: a refused connection or timeout is
        // retried with backoff, and the exit is nonzero only once the
        // budget is exhausted — a server still binding its port no longer
        // fails the CI smoke scrape. `--timeout-ms` bounds each attempt's
        // connect/read/write deadline so a server that accepts and hangs
        // cannot wedge a CI scrape either.
        let timeout = arg_after("--timeout-ms")
            .map(|t| Duration::from_millis(t.parse().expect("numeric timeout")))
            .unwrap_or(IO_TIMEOUT);
        let (status, body, _attempts) =
            http_get_retry(addr, path, &RetryPolicy::default(), timeout).expect("request failed");
        // Rust ignores SIGPIPE, so a downstream `| head` surfaces as EPIPE
        // on the write — the exit code must still reflect the HTTP status.
        use std::io::Write;
        if let Err(e) = std::io::stdout().write_all(body.as_bytes()) {
            assert_eq!(e.kind(), std::io::ErrorKind::BrokenPipe, "write body: {e}");
        }
        std::process::exit(if status == 200 { 0 } else { 1 });
    }

    let port: u16 = arg_after("--port").map(|p| p.parse().expect("numeric port")).unwrap_or(9100);
    let max_rounds: Option<u64> = arg_after("--rounds").map(|r| r.parse().expect("numeric rounds"));

    let served = serve_background(port, ServeEngine::new(ServeConfig::paper_rig(4))).expect("bind");
    let table = endpoints::<ServeEngine>().join(" ");
    println!("faas_serve: listening on http://{}  (GET {table} /quit)", served.addr);
    served.drive(max_rounds, |e| {
        e.run_round();
    });
    let eng = served.join();
    println!("faas_serve: quit after {} rounds, {} trace events", eng.rounds(), eng.stream().total_recorded());
}

/// Drives `rounds` engine rounds; when `addr` is given, scrapes every
/// endpoint in the table between rounds — the "under load" configuration
/// of the overhead gate.
fn drive(engine: &Mutex<ServeEngine>, rounds: u64, addr: Option<&str>) {
    for _ in 0..rounds {
        engine.lock().expect("engine lock").run_round();
        if let Some(a) = addr {
            for ep in endpoints::<ServeEngine>() {
                let (status, _) = http_get(a, scrape_path(ep)).expect("scrape");
                assert_eq!(status, 200, "{ep} under load");
            }
        }
    }
}

fn check() {
    let mut cfg = ServeConfig::paper_rig(2);
    // Longer rounds than the interactive default: the overhead gate
    // compares per-round scrape cost against round cost, and CI machines
    // vary — headroom comes from amortizing over a realistic round length.
    cfg.engine.duration_ms = 150;

    // Server-off reference: a pure replay of the same config and rounds.
    let mut offline = ServeEngine::new(cfg.clone());
    for _ in 0..CHECK_ROUNDS {
        offline.run_round();
    }
    let offline_snapshot = offline.snapshot_json();
    let offline_trace = offline.trace_batch();

    // Live server on an ephemeral loopback port.
    let served = serve_background(0, ServeEngine::new(cfg.clone())).expect("bind");
    let addr = served.addr.clone();

    // Run rounds, draining /trace incrementally after each one. The served
    // body must be the engine's own render at that cursor; the cursor and
    // the drop count come from the engine's typed drain of its stream.
    let mut cursor = 0u64;
    let mut streamed: Vec<String> = Vec::new();
    for _ in 0..CHECK_ROUNDS {
        served.lock().run_round();
        let (status, body) = http_get(&addr, &format!("/trace?since={cursor}")).expect("trace");
        assert_eq!(status, 200, "/trace must respond");
        let (rendered, drained) = {
            let engine = served.lock();
            (engine.trace_body(cursor), engine.stream().events_since(cursor))
        };
        assert_eq!(body, rendered, "/trace?since={cursor} must serve the engine's render");
        assert_eq!(drained.dropped, 0, "stream deep enough at cursor {cursor}");
        cursor = drained.next;
        streamed.extend(body.lines().skip(1).map(str::to_owned));
    }

    // 1. Every endpoint in the table responds; every JSON body is valid.
    let table = endpoints::<ServeEngine>();
    let mut bodies = BTreeMap::new();
    for &ep in &table {
        let (status, body) = http_get(&addr, scrape_path(ep)).expect("scrape");
        assert_eq!(status, 200, "{ep} must respond");
        assert!(ep == "/metrics" || ep == "/trace" || json_is_valid(&body), "{ep}: {body}");
        bodies.insert(ep, body);
    }
    let (metrics, snapshot) = (&bodies["/metrics"], &bodies["/snapshot"]);
    assert!(bodies["/alerts"].contains("\"states\""), "{}", bodies["/alerts"]);
    assert!(bodies["/query"].contains("\"results\""), "{}", bodies["/query"]);
    let (bs, _) = http_get(&addr, "/query").expect("query without expr");
    assert_eq!(bs, 400, "/query without expr must 400");
    let (bs, _) = http_get(&addr, "/alerts?since=abc").expect("malformed cursor");
    assert_eq!(bs, 400, "/alerts with a malformed cursor must 400");
    assert!(metrics.contains("sfi_shard_completed_total"), "metrics carries shard counters");
    assert!(metrics.contains("sfi_serve_scrapes_total"), "metrics carries scrape meta");
    assert!(metrics.contains("sample_rate=\"64\""), "sampled series declares its rate");
    assert!(bodies["/healthz"].contains("\"availability\""), "{}", bodies["/healthz"]);

    // 2. The drained stream re-wraps byte-identically to the batch export.
    let rewrapped = chrome_trace_wrap(&streamed);
    assert_eq!(rewrapped, offline_trace, "streamed trace must equal the batch export");

    // 3. Serving has zero observer effect on modeled telemetry: the served
    // snapshot equals the server-off replay byte-for-byte (scrape meta is
    // excluded from /snapshot by construction).
    assert_eq!(*snapshot, offline_snapshot, "served snapshot must equal offline replay");
    assert!(snapshot.contains("sfi_shard_request_latency_ns"), "latency histograms present");
    assert!(snapshot.contains("\"p99\""), "histogram quantiles present");

    // 4. Scrape-under-load overhead: best-of-3, scraped vs dark rounds
    // (DESIGN.md §8 budget). The scraped runs hit the live server (fixed
    // state) while driving a local engine: the cost measured is the full
    // scrape set per round — client, server lock, render — landing on the
    // driving thread's clock.
    let factor = check_overhead("scrape-under-load overhead", |scraped| {
        let eng = Mutex::new(ServeEngine::new(cfg.clone()));
        let addr = scraped.then_some(addr.as_str());
        move || drive(&eng, OVERHEAD_ROUNDS, addr)
    });

    // 5. Clean shutdown via /quit.
    let (qs, _) = http_get(&addr, "/quit").expect("quit");
    assert_eq!(qs, 200, "/quit must answer before stopping");
    served.join();

    println!(
        "check OK: {} endpoints live, streamed trace == batch export ({} events), \
         snapshot == offline replay, scrape overhead {factor:.2}x (budget {OVERHEAD_BUDGET:.2}x)",
        table.len(),
        streamed.len()
    );
}
