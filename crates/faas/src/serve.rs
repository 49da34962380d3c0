//! Live telemetry serving: the sharded engine driven in rounds behind the
//! std-only HTTP loop from `sfi-telemetry`.
//!
//! Post-mortem artifacts (`BENCH_*.json`, TRACE dumps) answer "what
//! happened"; operators also need "what is happening" — a Prometheus scrape
//! of `/metrics`, a trace viewer tailing `/trace`. This module is the
//! engine-side half of that: a [`ServeEngine`] that runs the multi-core
//! simulation in back-to-back **rounds** (each a full
//! [`simulate_multicore`] pass with a per-round seed), folds every round's
//! registry into one cumulative modeled registry, and appends the round's
//! flight-recorder events — restamped onto one continuous virtual
//! timeline — into a single cumulative stream recorder that scrapers drain
//! with cursors.
//!
//! The determinism contract survives serving (DESIGN.md §8):
//!
//! - Everything *modeled* — the `/snapshot` registry, the trace stream —
//!   is a pure function of `(config, rounds run)`. A second engine given
//!   the same config replays byte-identical bytes; `faas_serve --check`
//!   gates exactly that (server on vs off).
//! - Scrape bookkeeping (`sfi_serve_scrapes_total`) lives in a separate
//!   meta registry that appears in `/metrics` only, so observing the
//!   engine never changes `/snapshot` — zero observer effect.
//! - Wall time appears in exactly one place: the `/healthz` uptime field.
//!
//! `/healthz` reports availability and quarantine counts from a
//! [`FailureModel`](crate::FailureModel)-bearing single-core probe
//! simulation run alongside each round.
//!
//! Both scrape surfaces (this engine and the fleet) share the one serving
//! path defined here: [`ScrapePlane`], [`ScrapeSurface`], [`route`] and
//! [`serve_background`].

use std::collections::BTreeMap;
use std::net::TcpListener;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Instant;

use sfi_telemetry::{
    chrome_trace, chrome_trace_gap_line, json_escape, json_snapshot, push_chrome_trace_line,
    pack_span, percent_decode, prometheus_text, AlertEngine, AlertRule, BucketExemplars,
    CompareOp, CounterId, Cursor, FlightRecorder, FoldedStacks, GaugeId, HttpRequest,
    HttpResponse, RecordingRule, Registry, Retention, RuleSource, SpanLevel, TraceEvent,
    TraceKind, Tsdb,
};

use crate::qos::SloClass;
use crate::shard::{simulate_multicore, trace_id, CacheMode, MultiCoreConfig, MultiCoreReport};
use crate::sim::{simulate, FailureModel, ScalingMode, SimConfig};
use crate::FaasWorkload;

/// The faas rig's virtual ticks are simulated nanoseconds.
pub const NS_PER_TICK: f64 = 1.0;

/// Rounds of history the in-memory tsdb retains per series (the ceiling on
/// query windows; older samples age out per series, keeping the store
/// bounded regardless of how long the engine serves).
pub const TSDB_WINDOW: u64 = 64;

/// Series-count admission bound of the tsdb. Excess series are dropped
/// (counted honestly in `dropped_writes`) rather than growing without
/// bound — cardinality explosions degrade queries, never the engine.
pub const TSDB_MAX_SERIES: usize = 4096;

/// Entries the bounded alert log retains (drops are reported in the
/// `/alerts` cursor bookkeeping, mirroring the flight recorder).
pub const ALERT_LOG_CAPACITY: usize = 1024;

/// Burn-rate threshold (permille of the SLO target) both alert windows
/// must breach: 1000 = observed p99.9 exactly at target.
pub const BURN_ALERT_THRESHOLD: f64 = 1000.0;

/// Shed-rate threshold in requests per round: sustained admission-control
/// shedding at or above this rate alerts.
pub const SHED_ALERT_THRESHOLD: f64 = 1.0;

/// The default QoS rule set installed when the engine config enables QoS:
/// per-class goodput recording rules (permille of offered requests
/// completed over the trailing 8 rounds) plus the two paper-rig burn
/// alerts — multi-window SLO burn on the latency-sensitive class and a
/// per-class sustained shed-rate alert. Both alerts pair a 2-round fast
/// window with an 8-round slow window and require one extra sustained
/// evaluation (`for_rounds: 1`) so single-round blips stay silent.
pub fn default_qos_rules(alerts: &mut AlertEngine) {
    for class in SloClass::ALL {
        alerts.add_recording(RecordingRule {
            record: "sfi_qos_goodput_permille",
            labels: vec![("class", class.name().to_owned())],
            source: RuleSource::RatioPermille {
                num: format!("increase(sfi_qos_completed_total{{class=\"{}\"}}[8r])", class.name()),
                den: format!("increase(sfi_qos_offered_total{{class=\"{}\"}}[8r])", class.name()),
            },
        });
    }
    alerts.add_alert(AlertRule {
        name: "slo_burn_ls",
        fast: "avg_over_time(sfi_qos_slo_burn_permille{class=\"latency_sensitive\"}[2r])"
            .to_owned(),
        slow: "avg_over_time(sfi_qos_slo_burn_permille{class=\"latency_sensitive\"}[8r])"
            .to_owned(),
        op: CompareOp::Ge,
        threshold: BURN_ALERT_THRESHOLD,
        for_rounds: 1,
    });
    alerts.add_alert(AlertRule {
        name: "shed_rate",
        fast: "rate(sfi_qos_shed_total[2r])".to_owned(),
        slow: "rate(sfi_qos_shed_total[8r])".to_owned(),
        op: CompareOp::Ge,
        threshold: SHED_ALERT_THRESHOLD,
        for_rounds: 1,
    });
}

/// Configuration for a serving engine.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// The multi-core engine config run every round. `engine.seed` is the
    /// *base* seed; round `r` runs with [`round_seed`]`(seed, r)`.
    pub engine: MultiCoreConfig,
    /// The single-core probe simulation behind `/healthz` (carries the
    /// [`FailureModel`]; its seed advances per round like the engine's).
    pub probe: SimConfig,
    /// Capacity of the cumulative stream recorder scraped via `/trace`
    /// (events beyond it age out and are reported as `dropped`).
    pub stream_capacity: usize,
}

impl ServeConfig {
    /// A serving rig sized for interactive scraping: short engine rounds
    /// (50 ms), a short fault-injecting health probe, and a stream deep
    /// enough that a scraper polling once per round never drops events.
    pub fn paper_rig(cores: u32) -> ServeConfig {
        let mut engine = MultiCoreConfig::paper_rig(
            FaasWorkload::HashLoadBalance,
            ScalingMode::ColorGuard,
            CacheMode::Warm,
            cores,
        );
        engine.duration_ms = 50;
        let mut probe = SimConfig::paper_rig(FaasWorkload::HashLoadBalance, ScalingMode::ColorGuard);
        probe.duration_ms = 25;
        probe.failures = FailureModel::with_trap_rate(0.02);
        ServeConfig { engine, probe, stream_capacity: 65_536 }
    }
}

/// The seed round `r` runs with: a splitmix-style mix of the base seed and
/// the round index, so rounds are decorrelated but the whole serving
/// session stays a pure function of the base seed.
pub fn round_seed(base: u64, round: u64) -> u64 {
    let mut z = base ^ round.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z ^ (z >> 31)
}

/// Flattens per-core flight-recorder dumps onto one timeline: cores are
/// chained in index order, then stably sorted by tick — ties keep core
/// order, so the result is deterministic.
pub fn flatten_traces(traces: &[Vec<TraceEvent>]) -> Vec<TraceEvent> {
    let mut all: Vec<TraceEvent> = traces.iter().flatten().copied().collect();
    all.sort_by_key(|e| e.tick);
    all
}

/// The router's endpoint table for surface `S`: the endpoints every
/// surface serves, plus its extra one ([`ScrapeSurface::EXTRA`]). Scrape
/// counters, banners and self-checks all read this one list; `/quit` is
/// answered by the router but is not a scrape endpoint.
pub fn endpoints<S: ScrapeSurface>() -> Vec<&'static str> {
    ["/metrics", "/snapshot", "/trace", "/healthz", "/profile", "/alerts", "/query"]
        .into_iter()
        .chain(S::EXTRA.map(|(path, _)| path))
        .collect()
}

/// The scrape plane both serving surfaces embed: the cumulative event
/// stream behind `/trace`, the time-series store behind `/query`, the
/// rule engine behind `/alerts`, and the per-endpoint scrape counters.
/// The stream, store and rule engine are modeled state — a pure function
/// of `(config, rounds)` — while the counters live in a meta registry
/// that only `/metrics` includes, so scraping never changes `/snapshot`.
#[derive(Debug)]
pub struct ScrapePlane {
    /// Cumulative event stream (fault events pinned: a long-serving
    /// surface ages out enter/exit chatter before the traps and recycles a
    /// post-mortem needs, and keeps the newest of those within a bound).
    pub(crate) stream: FlightRecorder,
    /// Bounded in-memory store, ingested once per round; backs `/query`
    /// and the rule engine.
    pub(crate) tsdb: Tsdb,
    /// Recording + alert rules evaluated once per round over the store.
    /// Its derived registry rides `/metrics` only, never `/snapshot`.
    pub(crate) alerts: AlertEngine,
    meta: Registry,
    /// Scrape counters keyed by endpoint path.
    scrapes: BTreeMap<&'static str, CounterId>,
}

impl ScrapePlane {
    /// A fresh plane for surface `S`: a stream of `capacity` events, one
    /// `S::SCRAPE_SERIES{endpoint=…}` counter per endpoint in `S`'s table,
    /// and `alerts` with its rules already installed.
    pub(crate) fn new<S: ScrapeSurface>(capacity: usize, alerts: AlertEngine) -> ScrapePlane {
        let mut meta = Registry::new();
        let scrapes = endpoints::<S>()
            .into_iter()
            .map(|path| (path, meta.counter_with(S::SCRAPE_SERIES, &[("endpoint", &path[1..])])))
            .collect();
        ScrapePlane {
            stream: FlightRecorder::with_retention(capacity, Retention::PinFaults),
            tsdb: Tsdb::new(TSDB_WINDOW, TSDB_MAX_SERIES),
            alerts,
            meta,
            scrapes,
        }
    }

    /// Counts one scrape of `path`; `false` when `path` is not in the
    /// surface's endpoint table.
    fn count_scrape(&mut self, path: &str) -> bool {
        let Some(&id) = self.scrapes.get(path) else { return false };
        self.meta.inc(id);
        true
    }

    /// Evaluates the rules after round `round` and mirrors each transition
    /// into the stream as a `TraceKind::Alert` event at `tick` (sandbox =
    /// rule index, arg = transition code), so alert history shows up on
    /// the trace timeline.
    pub(crate) fn evaluate_alerts(&mut self, round: u64, tick: u64) {
        for t in self.alerts.evaluate(round, &mut self.tsdb) {
            self.stream.record(TraceEvent {
                tick,
                core: 0,
                sandbox: t.rule_idx as u64,
                kind: TraceKind::Alert,
                arg: t.transition.code(),
            });
        }
    }

    /// `/metrics`: Prometheus text of `modeled` plus the scrape counters
    /// and the rule engine's derived series.
    pub(crate) fn metrics_text(&self, mut modeled: Registry) -> String {
        modeled.merge_from(&self.meta);
        modeled.merge_from(self.alerts.derived());
        prometheus_text(&modeled)
    }

    /// `/trace?since=<cursor>`: a metadata line (`next` cursor, events
    /// `dropped` before the cursor, line count) followed by one
    /// chrome-trace event line per `\n`. A client that concatenates the
    /// lines from successive drains and wraps them with
    /// [`sfi_telemetry::chrome_trace_wrap`] reproduces
    /// [`ScrapePlane::trace_batch`] byte-for-byte. A drain that observed
    /// `dropped > 0` leads with a `trace_gap` marker line
    /// ([`chrome_trace_gap_line`]) so the re-wrapped document both stays
    /// valid JSON and shows the gap on the timeline.
    pub(crate) fn trace_body(&self, since: u64) -> String {
        let d = self.stream.events_since(since);
        let gap = d.dropped > 0;
        let mut body = format!(
            "{{\"next\": {}, \"dropped\": {}, \"lines\": {}}}\n",
            d.next,
            d.dropped,
            d.events.len() + usize::from(gap)
        );
        if gap {
            let next_tick = d.events.first().map_or(0, |e| e.tick);
            body.push_str(&chrome_trace_gap_line(d.dropped, next_tick, NS_PER_TICK));
            body.push('\n');
        }
        for e in &d.events {
            push_chrome_trace_line(&mut body, e, NS_PER_TICK);
            body.push('\n');
        }
        body
    }

    /// The post-mortem batch export of the full retained stream — the
    /// byte-identity reference for incremental `/trace` drains.
    pub(crate) fn trace_batch(&self) -> String {
        chrome_trace(&self.stream.events(), NS_PER_TICK)
    }

    /// `/alerts?since=<cursor>`: active alert states plus the logged
    /// transitions at or after `since` — deterministic JSON, byte-identical
    /// across replays of the same `(config, rounds)`.
    pub(crate) fn alerts_body(&self, since: u64) -> String {
        let mut body = self.alerts.alerts_json(since);
        body.push('\n');
        body
    }

    /// `/query?expr=<urlencoded>`: evaluates one store query expression
    /// (`sel`, `rate(sel[Nr])`, `increase(sel[Nr])`, `avg_over_time`,
    /// `max_over_time`) against the retained window, as deterministic
    /// JSON. `Err` carries the parse error for the 400 body.
    pub(crate) fn query_body(&self, expr: &str) -> Result<String, String> {
        let rows = self.tsdb.query(expr)?;
        let mut body = format!(
            "{{\"expr\": \"{}\", \"round\": {}, \"results\": [",
            json_escape(expr),
            self.tsdb.last_round()
        );
        for (i, (key, value)) in rows.iter().enumerate() {
            if i > 0 {
                body.push_str(", ");
            }
            body.push_str(&format!(
                "{{\"series\": \"{}\", \"value\": {:.6}}}",
                json_escape(key),
                value
            ));
        }
        body.push_str("]}\n");
        Ok(body)
    }
}

/// A surface-specific endpoint: its path and its JSON body renderer.
pub type ExtraEndpoint<S> = (&'static str, fn(&S) -> String);

/// A scrape surface: what differs between the per-engine surface
/// ([`ServeEngine`]) and the fleet one ([`crate::FleetSupervisor`]). The
/// shared parts — the [`ScrapePlane`], cursor parsing, percent-decoding,
/// 400/404/405 answers and `/quit` — live in [`route`].
pub trait ScrapeSurface {
    /// The `{endpoint="…"}`-labeled scrape counter series in `/metrics`.
    const SCRAPE_SERIES: &'static str;
    /// The surface's one endpoint beyond the shared [`endpoints`], if any.
    const EXTRA: Option<ExtraEndpoint<Self>> = None;
    /// The embedded scrape plane (mutable: the router counts scrapes).
    fn plane(&mut self) -> &mut ScrapePlane;
    /// `/metrics` body.
    fn metrics_text(&self) -> String;
    /// `/snapshot` body.
    fn snapshot_json(&self) -> String;
    /// `/healthz` response; `uptime_seconds` is the one wall-clock field.
    fn healthz(&self, uptime_seconds: f64) -> HttpResponse;
    /// `/profile` body.
    fn profile_body(&self) -> String;
}

/// Dispatches one request against surface `s`. Returns the response plus
/// the stop flag (`/quit` answers then stops the accept loop — the clean
/// shutdown path CI exercises). GET only. Every endpoint in the surface's
/// table counts its scrape before rendering, malformed requests included.
pub fn route<S: ScrapeSurface>(
    s: &mut S,
    req: &HttpRequest,
    uptime_seconds: f64,
) -> (HttpResponse, bool) {
    if req.method != "GET" {
        return (HttpResponse::method_not_allowed(), false);
    }
    if req.path == "/quit" {
        return (HttpResponse::ok("text/plain", "bye\n".to_owned()), true);
    }
    let plane = s.plane();
    if !plane.count_scrape(&req.path) {
        return (HttpResponse::not_found(), false);
    }
    let cursor = |render: &dyn Fn(u64) -> String| match req.cursor("since") {
        Cursor::Absent => HttpResponse::json(render(0)),
        Cursor::At(since) => HttpResponse::json(render(since)),
        Cursor::Malformed => HttpResponse::bad_request("malformed since cursor"),
    };
    let resp = match req.path.as_str() {
        "/metrics" => HttpResponse::prometheus(s.metrics_text()),
        "/snapshot" => HttpResponse::json(s.snapshot_json()),
        "/trace" => cursor(&|since| plane.trace_body(since)),
        "/healthz" => s.healthz(uptime_seconds),
        "/profile" => HttpResponse::json(s.profile_body()),
        "/alerts" => cursor(&|since| plane.alerts_body(since)),
        "/query" => match req.query_str("expr").map(percent_decode) {
            None => HttpResponse::bad_request("missing expr parameter"),
            Some(None) => HttpResponse::bad_request("malformed percent-encoding"),
            Some(Some(expr)) => match plane.query_body(&expr) {
                Ok(body) => HttpResponse::json(body),
                Err(e) => HttpResponse::bad_request(&e),
            },
        },
        _ => {
            let (_, render) = S::EXTRA.expect("the plane counts only table endpoints");
            HttpResponse::json(render(s))
        }
    };
    (resp, false)
}

/// Locks a shared surface, recovering a poisoned lock: a round that
/// panicked mid-way leaves the last completed state scrapeable — the
/// scrape surface must outlive member crashes. The panic itself still
/// unwinds the driving thread.
fn lock<S>(surface: &Mutex<S>) -> MutexGuard<'_, S> {
    surface.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A surface answering scrapes on a loopback listener from a background
/// accept-loop thread, while the caller drives rounds — the one serving
/// path behind both binaries, their `--check` gates and the loopback
/// tests.
#[derive(Debug)]
pub struct Served<S> {
    /// The bound address, `127.0.0.1:PORT`.
    pub addr: String,
    surface: Arc<Mutex<S>>,
    server: JoinHandle<std::io::Result<()>>,
}

/// Binds `127.0.0.1:port` (0 picks an ephemeral port) and runs the
/// accept loop on a background thread until `/quit`: each request locks
/// the surface, [`route`]s, answers. The start time anchors the
/// `/healthz` uptime (the only wall-clock reading). Fails only if the
/// port cannot be bound.
pub fn serve_background<S: ScrapeSurface + Send + 'static>(
    port: u16,
    surface: S,
) -> std::io::Result<Served<S>> {
    let listener = TcpListener::bind(("127.0.0.1", port))?;
    let addr = listener.local_addr()?.to_string();
    let surface = Arc::new(Mutex::new(surface));
    let started = Instant::now();
    let server = {
        let surface = Arc::clone(&surface);
        std::thread::spawn(move || {
            sfi_telemetry::serve(&listener, |req| {
                route(&mut *lock(&surface), req, started.elapsed().as_secs_f64())
            })
        })
    };
    Ok(Served { addr, surface, server })
}

impl<S> Served<S> {
    /// Locks the surface, recovering a poisoned lock like the accept loop.
    pub fn lock(&self) -> MutexGuard<'_, S> {
        lock(&self.surface)
    }

    /// Runs `round` back to back until `/quit` is served or `max_rounds`
    /// rounds have run. A panicking round propagates to the caller, so a
    /// binary whose driver dies exits non-zero.
    pub fn drive(&self, max_rounds: Option<u64>, round: fn(&mut S)) {
        let mut rounds = 0u64;
        while !self.server.is_finished() && max_rounds.is_none_or(|m| rounds < m) {
            round(&mut self.lock());
            rounds += 1;
        }
    }

    /// Waits for `/quit`, then returns the surface.
    pub fn join(self) -> S {
        self.server.join().expect("server thread").expect("serve loop");
        let surface = Arc::into_inner(self.surface).expect("the server thread is joined");
        surface.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Renders folded-stack collapse lines as the elements of a JSON array
/// (`"a;b 3", "a;c 1"`) — the `/profile` `folded` field on both surfaces.
pub(crate) fn folded_json(folded: &FoldedStacks) -> String {
    let lines: Vec<String> =
        folded.render().lines().map(|l| format!("\"{}\"", json_escape(l))).collect();
    lines.join(", ")
}

/// The live serving engine: cumulative modeled state plus scrape
/// bookkeeping. Drive it with [`ServeEngine::run_round`]; read it through
/// the endpoint renderers (all `&self` — scraping mutates nothing modeled).
#[derive(Debug)]
pub struct ServeEngine {
    cfg: ServeConfig,
    rounds: u64,
    /// Cumulative modeled registry (merge of every round's report
    /// registry). This — and nothing else — backs `/snapshot`.
    registry: Registry,
    /// Stream (on the continuous timeline), tsdb, rules and scrape
    /// counters. The tsdb ingests the modeled and burn registries once per
    /// round — a pure function of `(config, rounds)` like everything else
    /// modeled, so crash recovery replays it byte-identically.
    plane: ScrapePlane,
    /// Poisoned instances quarantined+recycled by the health probe so far.
    quarantined: u64,
    /// Probe requests dead-lettered so far.
    dead_lettered: u64,
    /// The most recent probe's availability (1.0 before the first round).
    availability: f64,
    /// The most recent engine round's occupancy (0.0 before the first
    /// round). Modeled state: a pure function of `(config, rounds)`, which
    /// is what lets autoscale decisions replay byte-identically.
    occupancy: f64,
    /// Cumulative per-bucket latency exemplars (populated only when the
    /// engine config enables spans), served via `/profile`.
    exemplars: BucketExemplars,
    /// SLO burn gauges (`sfi_qos_slo_burn_permille{class=…}`), present iff
    /// the engine config enables QoS. Kept in their own registry and
    /// `set()` after every round: gauges *add* under [`Registry::merge_from`],
    /// so folding them into the cumulative modeled registry would
    /// accumulate across rounds instead of tracking the current burn.
    burn: Registry,
    burn_ids: Option<[GaugeId; 3]>,
}

impl ServeEngine {
    /// A fresh engine; no rounds run yet. The stream recorder pins fault
    /// events ([`Retention::PinFaults`]): a long-serving engine ages out
    /// enter/exit chatter before the traps and recycles a post-mortem
    /// needs, and keeps the newest of those in bounded memory.
    pub fn new(cfg: ServeConfig) -> ServeEngine {
        let mut alerts = AlertEngine::new(ALERT_LOG_CAPACITY);
        if cfg.engine.qos.is_some() {
            default_qos_rules(&mut alerts);
        }
        let mut burn = Registry::new();
        let burn_ids = cfg.engine.qos.as_ref().map(|_| {
            SloClass::ALL.map(|c| {
                burn.try_gauge("sfi_qos_slo_burn_permille", &[("class", c.name())])
                    .expect("one burn registry per engine")
            })
        });
        ServeEngine {
            plane: ScrapePlane::new::<ServeEngine>(cfg.stream_capacity, alerts),
            cfg,
            rounds: 0,
            registry: Registry::new(),
            quarantined: 0,
            dead_lettered: 0,
            availability: 1.0,
            occupancy: 0.0,
            exemplars: BucketExemplars::new(),
            burn,
            burn_ids,
        }
    }

    /// Runs one engine round plus one health-probe round, folds both into
    /// the cumulative state, and returns the round's report.
    pub fn run_round(&mut self) -> MultiCoreReport {
        let mut engine = self.cfg.engine.clone();
        engine.seed = round_seed(self.cfg.engine.seed, self.rounds);
        let report = simulate_multicore(&engine);
        self.registry.merge_from(&report.registry);
        self.exemplars.merge_from(&report.exemplars);
        // Each round models [0, duration) ns; restamp onto the session
        // timeline so the stream's ticks are monotone across rounds.
        let offset = self.rounds * self.cfg.engine.duration_ms * 1_000_000;
        // With spans on, the round itself is a level-1 span bracketing its
        // requests' queue-wait/admission/invoke edges on the timeline.
        let round_tid = trace_id(self.cfg.engine.seed ^ 0x0E11_6120, self.rounds);
        if self.cfg.engine.spans {
            self.plane.stream.record(TraceEvent {
                tick: offset,
                core: 0,
                sandbox: round_tid,
                kind: TraceKind::Flow,
                arg: pack_span(SpanLevel::EngineRound, true, false, self.rounds),
            });
        }
        for ev in flatten_traces(&report.traces) {
            self.plane.stream.record(TraceEvent { tick: ev.tick + offset, ..ev });
        }
        if self.cfg.engine.spans {
            self.plane.stream.record(TraceEvent {
                tick: offset + self.cfg.engine.duration_ms * 1_000_000,
                core: 0,
                sandbox: round_tid,
                kind: TraceKind::Flow,
                arg: pack_span(SpanLevel::EngineRound, false, true, self.rounds),
            });
        }
        let mut probe = self.cfg.probe.clone();
        probe.seed = round_seed(self.cfg.probe.seed, self.rounds);
        let health = simulate(&probe);
        self.quarantined += health.faults + health.infra_faults;
        self.dead_lettered += health.dead_lettered;
        self.availability = health.availability;
        self.occupancy = report.occupancy;
        self.rounds += 1;
        self.update_burn();
        // Ingest this round's cumulative levels, then evaluate the rules;
        // transitions land on the stream at the round's closing tick.
        self.plane.tsdb.ingest(self.rounds, &self.registry);
        self.plane.tsdb.ingest(self.rounds, &self.burn);
        let end_tick = self.rounds * self.cfg.engine.duration_ms * 1_000_000;
        self.plane.evaluate_alerts(self.rounds, end_tick);
        report
    }

    /// Re-derives the SLO burn gauges from the cumulative per-class latency
    /// histograms: `1000 × observed p99.9 ÷ target` (1000 = exactly at
    /// target). `set()` each round, never merged cumulatively.
    fn update_burn(&mut self) {
        let (Some(ids), Some(q)) = (self.burn_ids, self.cfg.engine.qos.as_ref()) else {
            return;
        };
        for (i, class) in SloClass::ALL.iter().enumerate() {
            let key = format!("sfi_qos_request_latency_ns{{class=\"{}\"}}", class.name());
            let p999_ms = self
                .registry
                .histogram_values(&key)
                .map_or(0.0, |h| h.p999() as f64 / 1e6);
            let target = q.slo_p999_ms[i].max(f64::MIN_POSITIVE);
            self.burn.set(ids[i], (1000.0 * p999_ms / target).round() as i64);
        }
    }

    /// Rounds completed.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// The most recent round's engine occupancy (the autoscale signal);
    /// 0.0 before any round has run.
    pub fn occupancy(&self) -> f64 {
        self.occupancy
    }

    /// Probe requests dead-lettered so far (cumulative).
    pub fn dead_lettered(&self) -> u64 {
        self.dead_lettered
    }

    /// The cumulative modeled registry.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The cumulative event stream.
    pub fn stream(&self) -> &FlightRecorder {
        &self.plane.stream
    }

    /// The cumulative per-bucket latency exemplars (empty unless the engine
    /// config enables spans).
    pub fn exemplars(&self) -> &BucketExemplars {
        &self.exemplars
    }

    /// The rule engine behind `/alerts`.
    pub fn alerts(&self) -> &AlertEngine {
        &self.plane.alerts
    }

    /// The per-class SLO burn gauge registry (empty without QoS). Exposed
    /// so the fleet supervisor can fold member burn levels into its own
    /// federated tsdb under `engine="<id>"` labels.
    pub fn burn_registry(&self) -> &Registry {
        &self.burn
    }

    /// The host-side cycle-attribution flamegraph of the cumulative run:
    /// where engine time went (guest compute vs. spawn vs. scheduling), in
    /// the `flamegraph.pl` collapse format. Pure function of the modeled
    /// registry.
    pub fn profile_folded(&self) -> FoldedStacks {
        let mut f = FoldedStacks::new();
        let c = |key: &str| self.registry.counter_value(key).unwrap_or(0);
        let busy = c("sfi_shard_busy_ns_total");
        let spawn = c("sfi_shard_spawn_ns_total");
        let overhead = c("sfi_shard_overhead_ns_total");
        f.add(&["engine", "guest_compute"], busy);
        f.add(&["engine", "overhead", "spawn"], spawn);
        f.add(&["engine", "overhead", "sched"], overhead.saturating_sub(spawn));
        f
    }

    /// `/trace?since=<cursor>`: the body the endpoint serves
    /// ([`ScrapePlane`] renders it).
    pub fn trace_body(&self, since: u64) -> String {
        self.plane.trace_body(since)
    }

    /// The post-mortem batch export of the full retained stream — the
    /// byte-identity reference for incremental `/trace` drains.
    pub fn trace_batch(&self) -> String {
        self.plane.trace_batch()
    }

    /// `/healthz`: availability and quarantine state from the failure-model
    /// probe. `uptime_seconds` is the one place wall time is allowed.
    pub fn healthz_body(&self, uptime_seconds: f64) -> String {
        let status = if self.availability >= 0.9 { "ok" } else { "degraded" };
        format!(
            "{{\"status\": \"{}\", \"rounds\": {}, \"availability\": {:.6}, \
             \"quarantined_instances\": {}, \"dead_lettered\": {}, \"uptime_seconds\": {:.3}}}\n",
            status, self.rounds, self.availability, self.quarantined, self.dead_lettered,
            uptime_seconds
        )
    }
}

impl ScrapeSurface for ServeEngine {
    const SCRAPE_SERIES: &'static str = "sfi_serve_scrapes_total";

    fn plane(&mut self) -> &mut ScrapePlane {
        &mut self.plane
    }

    /// `/metrics`: Prometheus text of the modeled registry, the burn
    /// gauges, the scrape counters and the rule engine's derived series.
    fn metrics_text(&self) -> String {
        let mut modeled = self.registry.clone();
        modeled.merge_from(&self.burn);
        self.plane.metrics_text(modeled)
    }

    /// `/snapshot`: the modeled registry as JSON — byte-identical to what
    /// an offline replay of the same config and round count exports.
    fn snapshot_json(&self) -> String {
        json_snapshot(&self.registry)
    }

    fn healthz(&self, uptime_seconds: f64) -> HttpResponse {
        HttpResponse::json(self.healthz_body(uptime_seconds))
    }

    /// `/profile`: the folded-stack flamegraph (one collapse line per array
    /// element), the per-bucket latency exemplars keyed by bucket upper
    /// bound, and — when QoS is on — the per-class SLO burn gauges.
    /// Deterministic: a pure function of `(config, rounds run)`.
    fn profile_body(&self) -> String {
        let mut body = format!(
            "{{\"rounds\": {}, \"folded\": [{}], \"exemplars\": {}",
            self.rounds,
            folded_json(&self.profile_folded()),
            self.exemplars.render_json(),
        );
        if let (Some(_), Some(q)) = (self.burn_ids, self.cfg.engine.qos.as_ref()) {
            body.push_str(", \"slo_burn_permille\": {");
            for (i, class) in SloClass::ALL.iter().enumerate() {
                if i > 0 {
                    body.push_str(", ");
                }
                let key = format!("sfi_qos_slo_burn_permille{{class=\"{}\"}}", class.name());
                body.push_str(&format!(
                    "\"{}\": {{\"burn\": {}, \"target_p999_ms\": {:.3}}}",
                    class.name(),
                    self.burn.gauge_value(&key).unwrap_or(0),
                    q.slo_p999_ms[i],
                ));
            }
            body.push('}');
        }
        body.push_str("}\n");
        body
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfi_telemetry::{chrome_trace_wrap, json_is_valid};

    fn small_cfg() -> ServeConfig {
        let mut cfg = ServeConfig::paper_rig(2);
        cfg.engine.duration_ms = 20;
        cfg.probe.duration_ms = 10;
        cfg
    }

    #[test]
    fn replay_reproduces_modeled_state_byte_for_byte() {
        let run = |scrapes: u32| {
            let mut eng = ServeEngine::new(small_cfg());
            for _ in 0..3 {
                eng.run_round();
                // Scraping between rounds must not perturb anything modeled.
                for _ in 0..scrapes {
                    let _ = eng.metrics_text();
                    let _ = eng.plane.trace_body(0);
                }
            }
            (eng.snapshot_json(), eng.trace_batch())
        };
        let (snap_quiet, trace_quiet) = run(0);
        let (snap_scraped, trace_scraped) = run(5);
        assert_eq!(snap_quiet, snap_scraped, "scraping changed the modeled snapshot");
        assert_eq!(trace_quiet, trace_scraped, "scraping changed the trace stream");
        assert!(snap_quiet.contains("sfi_shard_completed_total"));
        assert!(snap_quiet.contains("sfi_shard_request_latency_ns"));
    }

    #[test]
    fn incremental_drains_concatenate_to_the_batch_export() {
        let mut eng = ServeEngine::new(small_cfg());
        let mut cursor = 0u64;
        let mut lines: Vec<String> = Vec::new();
        for _ in 0..3 {
            eng.run_round();
            let body = eng.plane.trace_body(cursor);
            let drained = eng.stream().events_since(cursor);
            assert_eq!(drained.dropped, 0, "cursor {cursor}");
            cursor = drained.next;
            lines.extend(body.lines().skip(1).map(str::to_owned));
        }
        assert_eq!(cursor, eng.stream().total_recorded());
        assert_eq!(chrome_trace_wrap(&lines), eng.trace_batch());
        // A fully drained cursor yields an empty incremental body.
        let empty = eng.plane.trace_body(cursor);
        assert!(empty.contains("\"lines\": 0"), "{empty}");
    }

    #[test]
    fn rounds_restamp_onto_a_monotone_timeline() {
        let mut eng = ServeEngine::new(small_cfg());
        eng.run_round();
        eng.run_round();
        let events = eng.stream().events();
        assert!(!events.is_empty());
        assert!(events.windows(2).all(|w| w[0].tick <= w[1].tick), "ticks regressed");
        let round_ns = 20 * 1_000_000;
        assert!(events.last().unwrap().tick >= round_ns, "round 2 not offset");
    }

    #[test]
    fn a_long_serving_stream_stays_bounded() {
        let mut cfg = ServeConfig::paper_rig(2);
        cfg.engine.duration_ms = 5;
        cfg.probe.duration_ms = 1;
        cfg.stream_capacity = 1024;
        let mut eng = ServeEngine::new(cfg);
        let bound = eng.stream().capacity() + eng.stream().pinned_capacity();
        for round in 0..300 {
            eng.run_round();
            let len = eng.stream().len();
            assert!(len <= bound, "{len} events after round {round}");
        }
        // Slot handoffs are recorded as recycles, far more of them than the
        // pinned set holds: the bound is exercised, not vacuous.
        assert!(eng.stream().evicted_of(TraceKind::Recycle) > 0);
        assert!(eng.stream().total_recorded() > 10 * bound as u64);
    }

    #[test]
    fn profile_endpoint_serves_flamegraph_exemplars_and_burn() {
        use crate::qos::QosConfig;
        use sfi_telemetry::unpack_span;
        let mut cfg = small_cfg();
        cfg.engine.spans = true;
        cfg.engine.qos = Some(QosConfig::paper_rig());
        let mut eng = ServeEngine::new(cfg);
        eng.run_round();
        eng.run_round();

        let req = HttpRequest::parse("GET /profile HTTP/1.1").unwrap();
        let (resp, stop) = route(&mut eng, &req, 0.0);
        assert!(!stop);
        assert_eq!(resp.status, 200);
        assert!(json_is_valid(&resp.body), "{}", resp.body);
        assert!(resp.body.contains("engine;guest_compute"), "{}", resp.body);
        assert!(resp.body.contains("engine;overhead;spawn"));
        assert!(resp.body.contains("\"exemplars\""));
        assert!(resp.body.contains("\"trace_id\""), "completions must leave exemplars");
        assert!(resp.body.contains("\"slo_burn_permille\""));
        assert!(resp.body.contains("\"latency_sensitive\""));

        // The burn gauges ride /metrics but never the modeled snapshot.
        assert!(eng.metrics_text().contains("sfi_qos_slo_burn_permille"));
        assert!(!eng.snapshot_json().contains("sfi_qos_slo_burn_permille"));

        // Each round brackets its requests with a level-1 engine-round span.
        let rounds: Vec<_> = eng
            .stream()
            .events()
            .iter()
            .filter(|e| e.kind == TraceKind::Flow)
            .filter_map(|e| unpack_span(e.arg))
            .filter(|s| s.level == SpanLevel::EngineRound)
            .collect();
        assert_eq!(rounds.len(), 4, "2 rounds × (start + end)");
        assert!(eng.stream().events().iter().any(|e| {
            e.kind == TraceKind::Flow
                && unpack_span(e.arg).is_some_and(|s| s.level == SpanLevel::Invoke)
        }));

        // Profile scraping is replay-invariant like every other endpoint.
        let rebuild = |scrapes: u32| {
            let mut cfg = small_cfg();
            cfg.engine.spans = true;
            cfg.engine.qos = Some(QosConfig::paper_rig());
            let mut eng = ServeEngine::new(cfg);
            for _ in 0..2 {
                eng.run_round();
                for _ in 0..scrapes {
                    let _ = eng.profile_body();
                }
            }
            (eng.profile_body(), eng.snapshot_json())
        };
        assert_eq!(rebuild(0), rebuild(3), "profile scrapes must not perturb modeled state");
    }

    #[test]
    fn alerts_and_query_endpoints_serve_the_tsdb() {
        use crate::qos::QosConfig;
        let mk = || {
            let mut cfg = small_cfg();
            cfg.engine.qos = Some(QosConfig::paper_rig());
            cfg
        };
        let mut eng = ServeEngine::new(mk());
        for _ in 0..3 {
            eng.run_round();
        }

        // The store saw the modeled registry: counters, burn gauges, and
        // the goodput recording-rule outputs are all queryable.
        assert!(eng.plane.tsdb.series_count() > 0);
        let burn = eng.plane.query_body("sfi_qos_slo_burn_permille").unwrap();
        assert!(burn.contains("latency_sensitive"), "{burn}");
        let good = eng.plane.query_body("sfi_qos_goodput_permille").unwrap();
        assert!(good.contains("\"results\": [{"), "{good}");

        let (resp, _) = route(&mut eng, &HttpRequest::parse("GET /alerts HTTP/1.1").unwrap(), 0.0);
        assert_eq!((resp.status, resp.content_type), (200, "application/json"));
        assert!(json_is_valid(resp.body.trim_end()), "{}", resp.body);
        assert!(resp.body.contains("\"states\""), "{}", resp.body);
        let (resp, _) = get(&mut eng, "/query?expr=rate(sfi_shard_completed_total[4r])");
        assert_eq!(resp.status, 200);
        assert!(json_is_valid(resp.body.trim_end()), "{}", resp.body);
        assert!(resp.body.contains("\"value\""), "{}", resp.body);

        // Derived goodput gauges ride /metrics, never the modeled snapshot.
        assert!(eng.metrics_text().contains("sfi_qos_goodput_permille"));
        assert!(!eng.snapshot_json().contains("sfi_qos_goodput_permille"));

        // Alert/query scraping is observer-effect-free and the alert state
        // replays byte-identically from (config, rounds).
        let rebuild = |scrapes: u32| {
            let mut eng = ServeEngine::new(mk());
            for _ in 0..3 {
                eng.run_round();
                for _ in 0..scrapes {
                    let _ = eng.plane.alerts_body(0);
                    let _ = eng.plane.query_body("sfi_qos_slo_burn_permille").unwrap();
                }
            }
            (eng.plane.alerts_body(0), eng.snapshot_json(), eng.trace_batch())
        };
        assert_eq!(rebuild(0), rebuild(4), "alert scrapes perturbed modeled state");
    }

    #[test]
    fn meta_counters_show_in_metrics_but_not_snapshot() {
        let mut eng = ServeEngine::new(small_cfg());
        eng.run_round();
        let req = HttpRequest::parse("GET /metrics HTTP/1.1").unwrap();
        let (resp, stop) = route(&mut eng, &req, 0.0);
        assert!(!stop);
        assert_eq!(resp.status, 200);
        assert!(resp.body.contains("sfi_serve_scrapes_total{endpoint=\"metrics\"} 1"));
        assert!(!eng.snapshot_json().contains("sfi_serve_scrapes_total"));

        let req = HttpRequest::parse("GET /healthz HTTP/1.1").unwrap();
        let (health, _) = route(&mut eng, &req, 1.5);
        assert!(health.body.contains("\"status\""), "{}", health.body);
        assert!(health.body.contains("\"uptime_seconds\": 1.500"));
    }

    fn get<S: ScrapeSurface>(s: &mut S, path: &str) -> (HttpResponse, bool) {
        route(s, &HttpRequest::parse(&format!("GET {path} HTTP/1.1")).unwrap(), 0.0)
    }

    /// The scrape counters in `/metrics`, endpoint label → value.
    fn scrape_counts<S: ScrapeSurface>(s: &S) -> BTreeMap<String, u64> {
        let prefix = format!("{}{{endpoint=\"", S::SCRAPE_SERIES);
        s.metrics_text()
            .lines()
            .filter_map(|l| l.strip_prefix(prefix.as_str()))
            .map(|rest| {
                let (ep, value) = rest.split_once("\"} ").expect("one label");
                (ep.to_owned(), value.parse().expect("counter value"))
            })
            .collect()
    }

    /// Everything the router owns, checked on one surface.
    fn check_router<S: ScrapeSurface>(s: &mut S) {
        let surface = S::SCRAPE_SERIES;
        for ep in endpoints::<S>() {
            let path = if ep == "/query" { "/query?expr=sfi_shard_completed_total" } else { ep };
            let (resp, stop) = get(s, path);
            assert_eq!((resp.status, stop), (200, false), "{surface}: {ep}: {}", resp.body);
            if resp.content_type == "application/json" && ep != "/trace" {
                assert!(json_is_valid(&resp.body), "{surface}: {ep}: {}", resp.body);
            }
        }
        for path in [
            "/trace?since=12x",
            "/trace?since=-1",
            "/alerts?since=abc",
            "/query",
            "/query?expr=%ZZ",
            "/query?expr=%Z1",
            "/query?expr=rate(sfi_shard_completed_total[0r)",
        ] {
            let (resp, _) = get(s, path);
            assert_eq!(resp.status, 400, "{surface}: {path} must 400: {}", resp.body);
        }
        let post = HttpRequest::parse("POST /metrics HTTP/1.1").unwrap();
        assert_eq!(route(s, &post, 0.0).0.status, 405, "{surface}: POST");
        assert_eq!(get(s, "/nope").0.status, 404, "{surface}: unknown path");

        // A scrape of endpoint e moves exactly the e-labeled counter, and
        // no counter reaches /snapshot.
        for ep in endpoints::<S>() {
            let before = scrape_counts(s);
            assert_eq!(before.len(), endpoints::<S>().len(), "{surface}: one counter per endpoint");
            get(s, ep);
            let after = scrape_counts(s);
            for (label, n) in &after {
                let moved = n - before[label];
                let expected = u64::from(label == &ep[1..]);
                assert_eq!(moved, expected, "{surface}: scraping {ep} moved endpoint=\"{label}\"");
            }
        }
        assert!(!s.snapshot_json().contains(surface), "{surface} leaked into /snapshot");

        let (resp, stop) = get(s, "/quit");
        assert_eq!((resp.status, stop), (200, true), "{surface}: /quit");
    }

    #[test]
    fn one_router_serves_both_surfaces() {
        use crate::qos::QosConfig;
        let mut cfg = small_cfg();
        cfg.engine.qos = Some(QosConfig::paper_rig());
        let mut eng = ServeEngine::new(cfg);
        eng.run_round();
        check_router(&mut eng);

        let mut fleet = crate::FleetSupervisor::new(crate::FleetConfig::paper_rig(1, 2));
        fleet.run_round();
        check_router(&mut fleet);
    }

    #[test]
    fn query_escapes_control_characters_on_both_surfaces() {
        // A selector label value holding a raw tab: the echoed `expr` must
        // stay valid JSON on both surfaces.
        let path = "/query?expr=sfi_shard_completed_total%7Bk%3D%22%09%22%7D";
        let mut eng = ServeEngine::new(small_cfg());
        eng.run_round();
        let mut fleet = crate::FleetSupervisor::new(crate::FleetConfig::paper_rig(1, 2));
        fleet.run_round();
        let answers = [("engine", get(&mut eng, path)), ("fleet", get(&mut fleet, path))];
        for (surface, (resp, _)) in answers {
            assert_eq!(resp.status, 200, "{surface}: {}", resp.body);
            assert!(json_is_valid(&resp.body), "{surface}: {:?}", resp.body);
        }
    }
}
