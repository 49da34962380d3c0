//! The discrete-event FaaS simulation (§6.4.3, Figures 6 and 7).
//!
//! Reproduces the paper's rig: a single core serving N new requests per
//! 1 ms epoch, each request alternating IO waits (Poisson, 5 ms mean) with
//! compute stages, preempted at epoch granularity. Two scaling strategies
//! handle identical request streams:
//!
//! - **ColorGuard**: one process, one address space; a cooperative
//!   (Tokio-style) scheduler runs ready tasks back to back. Per compute
//!   slice it pays two sandbox transitions (host→guest→host, with the
//!   `wrpkru` ColorGuard adds) plus a future-poll. Context switches are
//!   only the OS timer tick; the TLB stays warm.
//! - **Multi-process**: the same load spread round-robin over K processes.
//!   The OS round-robins runnable processes at quantum granularity; every
//!   process change pays a direct switch cost, a dTLB flush-and-refill,
//!   and a cache-warmup penalty that grows with the number of competing
//!   processes — the contention effects Figure 7 decomposes.
//!
//! Requests are pre-generated from the seed, so both strategies see *the
//! same* arrivals, IO delays and per-request compute (derived from real
//! executions of the regex/templating/hash engines in this crate).

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::fmt::Write as _;
use std::ops::Range;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sfi_vm::fault_draw;

use crate::hashlb::HashRing;
use crate::regex::{Dfa, Regex};
use crate::stats::{exponential, poisson};
use crate::template::{render_counted, Context};

/// The three FaaS workloads of §6.4.3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaasWorkload {
    /// Regular-expression filtering of URLs.
    RegexFilter,
    /// Hash-based load balancing.
    HashLoadBalance,
    /// HTML templating.
    HtmlTemplate,
}

impl FaasWorkload {
    /// All three, in the paper's order.
    pub const ALL: [FaasWorkload; 3] =
        [FaasWorkload::HashLoadBalance, FaasWorkload::RegexFilter, FaasWorkload::HtmlTemplate];

    /// Display name (matches the figures).
    pub fn name(self) -> &'static str {
        match self {
            FaasWorkload::RegexFilter => "Regex filtering",
            FaasWorkload::HashLoadBalance => "Hash load-balance",
            FaasWorkload::HtmlTemplate => "HTML templating",
        }
    }

    /// One request's worth of work units (converted to compute-ns by the
    /// calibration constants below), as real executions of the engines
    /// count them. `rt` memoizes what is a pure function of earlier draws;
    /// the RNG is consumed exactly as the engines' inputs are drawn.
    fn service_work(self, rng: &mut StdRng, rt: &mut WorkloadRt) -> u64 {
        match self {
            FaasWorkload::RegexFilter => {
                // One request filters one access-log URL.
                draw_url(rng, &mut rt.text);
                rt.filters.iter_mut().map(|f| f.is_match_counted(&rt.text).1).sum()
            }
            FaasWorkload::HashLoadBalance => {
                // One request routes a batch of keys across service tiers.
                let mut work = 0;
                for _ in 0..4 {
                    rt.text.clear();
                    write!(
                        rt.text,
                        "/tenant/{}/object/{}",
                        rng.gen_range(0..512u32),
                        rng.gen::<u32>()
                    )
                    .expect("writing to a String");
                    work += rt.ring.route_counted(&rt.text).1;
                }
                work
            }
            FaasWorkload::HtmlTemplate => {
                // One request renders the edge page.
                let items: i32 = rng.gen_range(PAGE_ITEMS);
                rt.page_work(items)
            }
        }
    }

    /// Modeled ns of guest compute per work unit.
    fn ns_per_work_unit(self) -> f64 {
        match self {
            FaasWorkload::RegexFilter => 76.0,
            FaasWorkload::HashLoadBalance => 69.0,
            FaasWorkload::HtmlTemplate => 62.0,
        }
    }
}

/// The regex-filtering workload's URL filters.
const URL_FILTERS: [&str; 4] = [
    "^/api/v[0-9]+/users/[0-9]+$",
    "\\.(css|js|png|jpg)$",
    "^/(admin|internal)/",
    "/[a-z]+/[a-z0-9-]+$",
];

/// The templating workload's edge page.
const PAGE: &str = "<html><h1>{{title}}</h1><p>Hello {{user}}</p>\
                    <ul>{{#each rows}}<li class=\"row\">{{item}}</li>{{/each}}</ul></html>";

/// The range a templating request draws its page's list-item count from.
const PAGE_ITEMS: Range<i32> = 6..20;

/// Draws one `/api/…` URL of 2–5 random lowercase segments into `url`.
fn draw_url(rng: &mut StdRng, url: &mut String) {
    url.clear();
    url.push_str("/api");
    let depth = rng.gen_range(2..6);
    for _ in 0..depth {
        url.push('/');
        let seg_len = rng.gen_range(3..12);
        for _ in 0..seg_len {
            url.push((b'a' + rng.gen_range(0..26)) as char);
        }
    }
}

/// Renders [`PAGE`] with `items` list items; returns the render's work.
fn render_page(items: i32) -> u64 {
    let mut ctx = Context::new();
    let rows: Vec<String> = (0..items).map(|i| format!("item-0-{i}")).collect();
    ctx.insert("title".into(), "Edge page".into());
    ctx.insert("rows".into(), rows.join("|"));
    ctx.insert("user".into(), "visitor <3".into());
    render_counted(PAGE, &ctx).expect("static template renders").1
}

/// Workload state for one request stream: the engines, plus the memos that
/// stand in for re-running them where the count is already known
/// (DESIGN.md §7). Each [`generate_stream`] call owns one; nothing is
/// shared between calls or threads.
struct WorkloadRt {
    /// [`URL_FILTERS`] as counting DFAs: each memoizes the NFA's per-byte
    /// step, match bit and step count alike.
    filters: Vec<Dfa>,
    ring: HashRing,
    /// [`render_page`]'s work per item count, filled on first draw: the
    /// page, and so its work, is a pure function of the count.
    page_work: Vec<Option<u64>>,
    /// The URL or key being processed, reused across requests.
    text: String,
}

impl WorkloadRt {
    fn new() -> WorkloadRt {
        WorkloadRt {
            filters: URL_FILTERS
                .iter()
                .map(|pat| Dfa::new(Regex::new(pat).expect("static")))
                .collect(),
            ring: HashRing::new(
                (0..16).map(|i| format!("origin-{i}")).collect::<Vec<_>>(),
                64,
            ),
            page_work: vec![None; PAGE_ITEMS.end as usize],
            text: String::new(),
        }
    }

    /// The work of rendering the page with `items` items: rendered for real
    /// the first time `items` is drawn, then memoized.
    fn page_work(&mut self, items: i32) -> u64 {
        let slot = &mut self.page_work[usize::try_from(items).expect("drawn from PAGE_ITEMS")];
        *slot.get_or_insert_with(|| render_page(items))
    }
}

/// How request arrivals are generated.
///
/// The legacy rig is *closed-loop*: exactly `requests_per_epoch` arrivals
/// per 1 ms epoch, which can never overrun the server faster than the
/// configured constant. The open-loop variants model internet traffic that
/// does not wait for responses: a seeded Poisson process whose per-epoch
/// counts are drawn from the same RNG stream as the request bodies, so a
/// run stays a pure function of the seed. `ClosedLoop` consumes the RNG
/// exactly as the pre-arrival-model code did — same seed, byte-identical
/// stream — which is what keeps the PR-5 artifacts stable.
#[derive(Debug, Clone, Default, PartialEq)]
pub enum ArrivalModel {
    /// Fixed `requests_per_epoch` arrivals every epoch (legacy default).
    #[default]
    ClosedLoop,
    /// Open-loop Poisson arrivals at `rate_rps` requests per second.
    Poisson {
        /// Mean offered load (requests per second).
        rate_rps: f64,
    },
    /// Open-loop Poisson arrivals modulated by a cyclic phase schedule —
    /// bursty or diurnal load shapes.
    Phases {
        /// Base offered load (requests per second) a multiplier of 1.0
        /// corresponds to.
        base_rps: f64,
        /// The schedule, applied in order and repeated. Must be non-empty
        /// with a positive total duration (enforced at stream generation).
        phases: Vec<ArrivalPhase>,
    },
}

/// One segment of an [`ArrivalModel::Phases`] schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArrivalPhase {
    /// How long this phase lasts (ms of simulated time).
    pub duration_ms: u64,
    /// Rate multiplier applied to the base rate during the phase (0.0 is a
    /// legal idle phase).
    pub rate_multiplier: f64,
}

impl ArrivalModel {
    /// A flash-crowd shape: 80 ms at 60% of base load, then a 20 ms burst
    /// at 2.6×, repeating — mean ≈ base, peak ≈ 2.6× base.
    pub fn bursty(base_rps: f64) -> ArrivalModel {
        ArrivalModel::Phases {
            base_rps,
            phases: vec![
                ArrivalPhase { duration_ms: 80, rate_multiplier: 0.6 },
                ArrivalPhase { duration_ms: 20, rate_multiplier: 2.6 },
            ],
        }
    }

    /// A compressed diurnal cycle over `period_ms`: trough, shoulder, peak,
    /// shoulder (0.4× / 1.0× / 1.6× / 1.0×).
    pub fn diurnal(base_rps: f64, period_ms: u64) -> ArrivalModel {
        let q = (period_ms / 4).max(1);
        ArrivalModel::Phases {
            base_rps,
            phases: vec![
                ArrivalPhase { duration_ms: q, rate_multiplier: 0.4 },
                ArrivalPhase { duration_ms: q, rate_multiplier: 1.0 },
                ArrivalPhase { duration_ms: q, rate_multiplier: 1.6 },
                ArrivalPhase { duration_ms: q, rate_multiplier: 1.0 },
            ],
        }
    }

    /// Expected arrivals during epoch `epoch_ms` (requests per ms), or
    /// `None` in closed-loop mode.
    fn epoch_rate(&self, epoch_ms: u64) -> Option<f64> {
        match self {
            ArrivalModel::ClosedLoop => None,
            ArrivalModel::Poisson { rate_rps } => Some(rate_rps / 1_000.0),
            ArrivalModel::Phases { base_rps, phases } => {
                let total: u64 = phases.iter().map(|p| p.duration_ms).sum();
                assert!(
                    !phases.is_empty() && total > 0,
                    "a phase schedule needs a positive cycle length"
                );
                let mut pos = epoch_ms % total;
                for p in phases {
                    if pos < p.duration_ms {
                        return Some(base_rps / 1_000.0 * p.rate_multiplier);
                    }
                    pos -= p.duration_ms;
                }
                unreachable!("pos < total by construction");
            }
        }
    }
}

/// How the load is scaled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScalingMode {
    /// Single process, ColorGuard-packed instances.
    ColorGuard,
    /// K OS processes, each its own address space.
    MultiProcess {
        /// Number of processes.
        processes: u32,
    },
}

/// The chaos knobs: guest traps and infrastructure faults injected into the
/// simulation, plus the platform's retry policy. All decisions are
/// stateless hashes of `(seed, request, stage, attempt)`, so a run is fully
/// deterministic and the zero-rate model is bit-identical to no model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FailureModel {
    /// Probability that a compute stage traps its sandbox (per attempt).
    pub trap_prob: f64,
    /// Probability that replacing a faulted instance transiently fails
    /// (injected `ENOMEM`/map-count pressure), forcing a second teardown.
    pub infra_fault_prob: f64,
    /// Retries per request before it is dead-lettered.
    pub max_retries: u32,
    /// First retry backoff (ns); doubled on every subsequent attempt.
    pub backoff_base_ns: u64,
    /// Cost of recycling the poisoned instance and instantiating a
    /// replacement (quarantine scrub + re-color + write-in), charged as
    /// overhead on the faulting process's CPU.
    pub recycle_ns: u64,
}

impl Default for FailureModel {
    fn default() -> Self {
        FailureModel {
            trap_prob: 0.0,
            infra_fault_prob: 0.0,
            max_retries: 3,
            backoff_base_ns: 250_000, // 0.25 ms
            recycle_ns: 40_000,       // madvise + pkey_mprotect + write-in
        }
    }
}

impl FailureModel {
    /// A model injecting guest traps at `rate` with default retry policy.
    pub fn with_trap_rate(rate: f64) -> FailureModel {
        FailureModel { trap_prob: rate, infra_fault_prob: rate / 4.0, ..FailureModel::default() }
    }
}

/// Simulation parameters.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Which workload.
    pub workload: FaasWorkload,
    /// Scaling strategy.
    pub mode: ScalingMode,
    /// Simulated duration in milliseconds.
    pub duration_ms: u64,
    /// New requests injected per 1 ms epoch (closed-loop mode; open-loop
    /// models ignore it).
    pub requests_per_epoch: u32,
    /// Arrival generation — closed-loop by default (byte-compatible with
    /// the legacy rig), or an open-loop seeded process.
    pub arrivals: ArrivalModel,
    /// Mean IO delay (ms), Poisson-distributed (§6.4.3 uses 5 ms).
    pub io_mean_ms: f64,
    /// IO/compute stages per request.
    pub stages: u32,
    /// RNG seed (same seed ⇒ identical request stream in both modes).
    pub seed: u64,
    /// Cost constants.
    pub costs: SimCosts,
    /// Injected-failure model (zero rates by default).
    pub failures: FailureModel,
}

/// Cost constants for the scheduler models.
#[derive(Debug, Clone)]
pub struct SimCosts {
    /// OS scheduling quantum (ns).
    pub quantum_ns: u64,
    /// Direct cost of an OS process switch (ns).
    pub process_switch_ns: f64,
    /// dTLB entries refilled after a flush.
    pub tlb_refill_entries: u64,
    /// ns per dTLB refill miss.
    pub tlb_miss_ns: f64,
    /// Cache-warmup penalty after a process switch at full contention (ns).
    pub cache_warm_ns: f64,
    /// In-process task switch (future poll) cost (ns).
    pub task_switch_ns: f64,
    /// Sandbox transition pair per compute slice without ColorGuard (ns).
    pub transition_pair_ns: f64,
    /// Extra per transition pair with ColorGuard (2 × wrpkru, ns).
    pub colorguard_extra_ns: f64,
    /// Base dTLB misses per compute slice (warm working set).
    pub base_slice_tlb_misses: u64,
    /// OS timer tick rate (Hz) — the floor on context switches.
    pub timer_hz: u64,
}

impl Default for SimCosts {
    fn default() -> Self {
        SimCosts {
            quantum_ns: 1_000_000,
            process_switch_ns: 170.0,
            tlb_refill_entries: 64,
            tlb_miss_ns: 14.0,
            cache_warm_ns: 480.0,
            task_switch_ns: 120.0,
            transition_pair_ns: 2.0 * 30.34,
            colorguard_extra_ns: 2.0 * 21.2,
            base_slice_tlb_misses: 4,
            timer_hz: 100,
        }
    }
}

impl SimConfig {
    /// The paper's rig: 1 ms epochs, 5 ms Poisson IO, three-stage requests,
    /// 60 simulated seconds.
    pub fn paper_rig(workload: FaasWorkload, mode: ScalingMode) -> SimConfig {
        SimConfig {
            workload,
            mode,
            duration_ms: 10_000,
            requests_per_epoch: 40,
            arrivals: ArrivalModel::ClosedLoop,
            io_mean_ms: 5.0,
            stages: 3,
            seed: 0x5E65E9,
            costs: SimCosts::default(),
            failures: FailureModel::default(),
        }
    }
}

/// Results of one simulation run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimReport {
    /// Requests offered (arrived).
    pub offered: u64,
    /// Requests completed within the window.
    pub completed: u64,
    /// Completions per second.
    pub throughput_rps: f64,
    /// OS context switches.
    pub context_switches: u64,
    /// dTLB misses.
    pub dtlb_misses: u64,
    /// CPU time spent on useful guest compute (ns).
    pub busy_ns: u64,
    /// CPU time burned on switching/transitions/refills (ns).
    pub overhead_ns: u64,
    /// Mean request latency (ms) over completed requests.
    pub mean_latency_ms: f64,
    /// Median request latency (ms).
    pub p50_latency_ms: f64,
    /// 99th-percentile request latency (ms) — the tail FaaS platforms care
    /// about.
    pub p99_latency_ms: f64,
    /// Injected guest traps (poisoned instances).
    pub faults: u64,
    /// Injected infrastructure faults during instance replacement.
    pub infra_faults: u64,
    /// Request attempts re-queued after a fault.
    pub retries: u64,
    /// Requests abandoned after exhausting the retry budget.
    pub dead_lettered: u64,
    /// Fraction of *resolved* requests (completed or dead-lettered) that
    /// completed. 1.0 when nothing was dead-lettered.
    pub availability: f64,
    /// Completions per second that needed no retry — throughput with the
    /// rework discounted.
    pub goodput_rps: f64,
}

/// Renders a single-core [`SimReport`] as a metrics registry, the same
/// series shapes the sharded engine exports (`sfi_sim_*` namespace), so the
/// fig6/fig7/§6.4.x bench binaries can embed a `"telemetry"` JSON section
/// exactly like `figX_multicore` does. `labels` are applied to every series
/// (e.g. `mode="colorguard"`), letting a bench merge several runs'
/// registries into one snapshot with each run's series kept distinct.
/// Gauges carry the float summary statistics scaled to integers (`_milli`
/// = value × 1000, rounded).
pub fn sim_registry(r: &SimReport, labels: &[(&'static str, &str)]) -> sfi_telemetry::Registry {
    let mut reg = sfi_telemetry::Registry::new();
    let counters: [(&'static str, u64); 9] = [
        ("sfi_sim_offered_total", r.offered),
        ("sfi_sim_completed_total", r.completed),
        ("sfi_sim_ctx_switches_total", r.context_switches),
        ("sfi_sim_dtlb_misses_total", r.dtlb_misses),
        ("sfi_sim_busy_ns_total", r.busy_ns),
        ("sfi_sim_overhead_ns_total", r.overhead_ns),
        ("sfi_sim_faults_total", r.faults + r.infra_faults),
        ("sfi_sim_retries_total", r.retries),
        ("sfi_sim_dead_lettered_total", r.dead_lettered),
    ];
    for (name, v) in counters {
        let id = reg.try_counter(name, labels).expect("one registry per run");
        reg.add(id, v);
    }
    let gauges: [(&'static str, f64); 4] = [
        ("sfi_sim_throughput_rps_milli", r.throughput_rps),
        ("sfi_sim_mean_latency_ms_milli", r.mean_latency_ms),
        ("sfi_sim_p99_latency_ms_milli", r.p99_latency_ms),
        ("sfi_sim_availability_milli", r.availability),
    ];
    for (name, v) in gauges {
        let id = reg.try_gauge(name, labels).expect("one registry per run");
        reg.set(id, (v * 1000.0).round() as i64);
    }
    reg
}

#[derive(Debug, Clone)]
pub(crate) struct Request {
    pub(crate) arrival_ns: u64,
    pub(crate) io_ns: Vec<u64>,
    pub(crate) compute_ns: Vec<u64>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Event {
    /// Request becomes ready to compute (arrival IO or inter-stage IO done).
    Ready { rid: u32, stage: u32 },
    /// The CPU finishes the current slice.
    SliceDone,
}

/// Pre-generates a request stream for `duration_ms` 1 ms epochs, with
/// per-request compute derived from real executions of the workload
/// engines. Closed-loop mode injects exactly `requests_per_epoch` arrivals
/// per epoch and consumes the RNG exactly as the legacy generator did;
/// open-loop models draw the per-epoch count from the same RNG stream
/// first. Either way the stream is a pure function of its arguments, so any
/// two simulations given the same parameters see identical arrivals, IO
/// delays and compute (the shared basis for both the single-core and the
/// sharded multi-core schedulers).
pub(crate) fn generate_stream(
    workload: FaasWorkload,
    duration_ms: u64,
    requests_per_epoch: u32,
    io_mean_ms: f64,
    stages: u32,
    seed: u64,
    arrivals: &ArrivalModel,
) -> Vec<Request> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut rt = WorkloadRt::new();
    let mut reqs = Vec::new();
    for e in 0..duration_ms {
        let count = match arrivals.epoch_rate(e) {
            None => requests_per_epoch,
            Some(rate_per_ms) => crate::stats::poisson_count(&mut rng, rate_per_ms) as u32,
        };
        for _ in 0..count {
            let arrival_ns = e * 1_000_000 + rng.gen_range(0..1_000_000);
            let total_work = workload.service_work(&mut rng, &mut rt);
            let per_stage_ns = (total_work as f64 * workload.ns_per_work_unit() / f64::from(stages))
                .max(1_000.0) as u64;
            let io_ns = (0..stages)
                .map(|_| {
                    // Poisson in ms, jittered within the ms by an exponential.
                    let ms = poisson(&mut rng, io_mean_ms).max(1);
                    ms * 1_000_000 + (exponential(&mut rng, 0.2) * 1e6) as u64
                })
                .collect();
            let compute_ns = vec![per_stage_ns; stages as usize];
            reqs.push(Request { arrival_ns, io_ns, compute_ns });
        }
    }
    reqs
}

/// Pre-generates the request stream (identical across modes for a seed).
fn generate_requests(cfg: &SimConfig) -> Vec<Request> {
    generate_stream(
        cfg.workload,
        cfg.duration_ms,
        cfg.requests_per_epoch,
        cfg.io_mean_ms,
        cfg.stages,
        cfg.seed,
        &cfg.arrivals,
    )
}

/// Runs the simulation.
pub fn simulate(cfg: &SimConfig) -> SimReport {
    let requests = generate_requests(cfg);
    let nproc = match cfg.mode {
        ScalingMode::ColorGuard => 1u32,
        ScalingMode::MultiProcess { processes } => processes.max(1),
    };
    let colorguard = cfg.mode == ScalingMode::ColorGuard;
    let costs = &cfg.costs;
    let horizon_ns = cfg.duration_ms * 1_000_000;

    // Per-process ready queues of (rid, stage, remaining_ns).
    let mut ready: Vec<VecDeque<(u32, u32, u64)>> = vec![VecDeque::new(); nproc as usize];
    let mut heap: BinaryHeap<Reverse<(u64, u64, Event)>> = BinaryHeap::new();
    let mut seq = 0u64;
    let push = |heap: &mut BinaryHeap<Reverse<(u64, u64, Event)>>, seq: &mut u64, t: u64, e: Event| {
        *seq += 1;
        heap.push(Reverse((t, *seq, e)));
    };

    for (rid, r) in requests.iter().enumerate() {
        push(&mut heap, &mut seq, r.arrival_ns + r.io_ns[0], Event::Ready { rid: rid as u32, stage: 0 });
    }

    let mut cpu_busy = false;
    let mut current_proc: u32 = u32::MAX;
    let mut proc_run_since_switch: u64 = 0;
    let mut rr_cursor: u32 = 0;
    // The slice the CPU is executing: (proc, rid, stage, slice_ns, remaining_after).
    let mut running: Option<(u32, u32, u32, u64, u64)> = None;

    let mut completed = 0u64;
    let mut ctx_switches = 0u64;
    let mut dtlb = 0u64;
    let mut busy_ns = 0u64;
    let mut overhead_ns = 0u64;
    let mut latencies = Vec::new();

    // Failure-model state.
    let fm = cfg.failures;
    let mut attempts: Vec<u32> = vec![0; requests.len()];
    let mut faults = 0u64;
    let mut infra_faults = 0u64;
    let mut retries = 0u64;
    let mut dead_lettered = 0u64;
    let mut clean_completed = 0u64;

    let epoch_ns = 1_000_000u64;
    let contention = f64::from(nproc.min(15)) / 15.0;

    // Dispatch: choose the next (proc, task) and start a slice at `now`.
    // Returns the SliceDone time.
    let dispatch = |now: u64,
                        ready: &mut Vec<VecDeque<(u32, u32, u64)>>,
                        current_proc: &mut u32,
                        proc_run: &mut u64,
                        rr_cursor: &mut u32,
                        ctx_switches: &mut u64,
                        dtlb: &mut u64,
                        busy_ns: &mut u64,
                        overhead_ns: &mut u64,
                        running: &mut Option<(u32, u32, u32, u64, u64)>|
     -> Option<u64> {
        // Fair round-robin at slice granularity: tasks yield at each epoch
        // and the kernel picks the next runnable process. (Wakeup
        // preemption makes CFS behave this way under massive IO-bound
        // concurrency.)
        let proc = {
            let mut chosen = None;
            for k in 0..nproc {
                let cand = (*rr_cursor + 1 + k) % nproc;
                if !ready[cand as usize].is_empty() {
                    chosen = Some(cand);
                    break;
                }
            }
            chosen?
        };
        let mut start_overhead = 0.0f64;
        if proc != *current_proc {
            if *current_proc != u32::MAX {
                // A real OS process switch (multi-process only; nproc == 1
                // never reaches here). The refill and warm-up grow with
                // contention: more competing processes leave colder state.
                *ctx_switches += 1;
                let refill = (costs.tlb_refill_entries as f64 * contention).round() as u64;
                *dtlb += refill;
                start_overhead += costs.process_switch_ns
                    + refill as f64 * costs.tlb_miss_ns
                    + costs.cache_warm_ns * contention;
            }
            *current_proc = proc;
            *rr_cursor = proc;
            *proc_run = 0;
        }
        let (rid, stage, remaining) = ready[proc as usize].pop_front().expect("picked nonempty");
        // In-process scheduling costs per slice.
        start_overhead += costs.task_switch_ns + costs.transition_pair_ns;
        if colorguard {
            start_overhead += costs.colorguard_extra_ns;
        }
        *dtlb += costs.base_slice_tlb_misses;
        let slice = remaining.min(epoch_ns);
        *proc_run += slice;
        *busy_ns += slice;
        *overhead_ns += start_overhead as u64;
        *running = Some((proc, rid, stage, slice, remaining - slice));
        Some(now + start_overhead as u64 + slice)
    };

    while let Some(Reverse((t, _, ev))) = heap.pop() {
        if t > horizon_ns {
            break;
        }
        match ev {
            Event::Ready { rid, stage } => {
                let proc = rid % nproc;
                let remaining = requests[rid as usize].compute_ns[stage as usize];
                ready[proc as usize].push_back((rid, stage, remaining));
                if !cpu_busy {
                    if let Some(done) = dispatch(
                        t,
                        &mut ready,
                        &mut current_proc,
                        &mut proc_run_since_switch,
                        &mut rr_cursor,
                        &mut ctx_switches,
                        &mut dtlb,
                        &mut busy_ns,
                        &mut overhead_ns,
                        &mut running,
                    ) {
                        cpu_busy = true;
                        push(&mut heap, &mut seq, done, Event::SliceDone);
                    }
                }
            }
            Event::SliceDone => {
                let (proc, rid, stage, _slice, remaining) =
                    running.take().expect("SliceDone implies a running slice");
                if remaining > 0 {
                    // Epoch-preempted: yield to the back of the queue.
                    ready[proc as usize].push_back((rid, stage, remaining));
                } else {
                    let req = &requests[rid as usize];
                    let attempt = attempts[rid as usize];
                    let trapped = fm.trap_prob > 0.0
                        && fault_draw(
                            cfg.seed ^ 0xC4A05,
                            u64::from(rid) << 8 | u64::from(stage),
                            u64::from(attempt),
                        ) < fm.trap_prob;
                    if trapped {
                        // The sandbox trapped: poison, recycle the slot and
                        // instantiate a replacement — all charged as
                        // overhead. A transient infra fault during
                        // replacement forces a second teardown.
                        faults += 1;
                        let mut repl_ns = fm.recycle_ns;
                        if fm.infra_fault_prob > 0.0
                            && fault_draw(
                                cfg.seed ^ 0x1F4A,
                                u64::from(rid) << 8 | u64::from(stage),
                                u64::from(attempt),
                            ) < fm.infra_fault_prob
                        {
                            infra_faults += 1;
                            repl_ns += 2 * fm.recycle_ns;
                        }
                        overhead_ns += repl_ns;
                        attempts[rid as usize] = attempt + 1;
                        if attempt + 1 > fm.max_retries {
                            dead_lettered += 1;
                        } else {
                            // Exponential backoff, then re-run this stage on
                            // the replacement instance.
                            retries += 1;
                            let backoff = fm.backoff_base_ns << attempt.min(16);
                            push(
                                &mut heap,
                                &mut seq,
                                t + repl_ns + backoff,
                                Event::Ready { rid, stage },
                            );
                        }
                    } else {
                        let next = stage + 1;
                        if (next as usize) < req.compute_ns.len() {
                            push(
                                &mut heap,
                                &mut seq,
                                t + req.io_ns[next as usize],
                                Event::Ready { rid, stage: next },
                            );
                        } else {
                            completed += 1;
                            if attempt == 0 {
                                clean_completed += 1;
                            }
                            latencies.push((t - req.arrival_ns) as f64 / 1e6);
                        }
                    }
                }
                cpu_busy = false;
                if let Some(done) = dispatch(
                    t,
                    &mut ready,
                    &mut current_proc,
                    &mut proc_run_since_switch,
                    &mut rr_cursor,
                    &mut ctx_switches,
                    &mut dtlb,
                    &mut busy_ns,
                    &mut overhead_ns,
                    &mut running,
                ) {
                    cpu_busy = true;
                    push(&mut heap, &mut seq, done, Event::SliceDone);
                }
            }
        }
    }

    // The OS timer tick floor (both modes).
    ctx_switches += cfg.duration_ms / 1000 * costs.timer_hz;

    let mut sorted = latencies.clone();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
    let (p50, p99) = (
        crate::stats::percentile_sorted(&sorted, 0.50),
        crate::stats::percentile_sorted(&sorted, 0.99),
    );

    SimReport {
        offered: requests.len() as u64,
        completed,
        throughput_rps: completed as f64 / (cfg.duration_ms as f64 / 1000.0),
        context_switches: ctx_switches,
        dtlb_misses: dtlb,
        busy_ns,
        overhead_ns,
        mean_latency_ms: crate::stats::mean(&latencies),
        p50_latency_ms: p50,
        p99_latency_ms: p99,
        faults,
        infra_faults,
        retries,
        dead_lettered,
        availability: if completed + dead_lettered == 0 {
            1.0
        } else {
            completed as f64 / (completed + dead_lettered) as f64
        },
        goodput_rps: clean_completed as f64 / (cfg.duration_ms as f64 / 1000.0),
    }
}

/// Convenience: ColorGuard throughput gain (%) over `processes`-process
/// scaling for one workload — one point of Figure 6.
pub fn throughput_gain_percent(workload: FaasWorkload, processes: u32) -> f64 {
    let cg = simulate(&SimConfig::paper_rig(workload, ScalingMode::ColorGuard));
    let mp = simulate(&SimConfig::paper_rig(
        workload,
        ScalingMode::MultiProcess { processes },
    ));
    (cg.throughput_rps - mp.throughput_rps) / mp.throughput_rps * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(workload: FaasWorkload, mode: ScalingMode) -> SimReport {
        let mut cfg = SimConfig::paper_rig(workload, mode);
        cfg.duration_ms = 800;
        simulate(&cfg)
    }

    #[test]
    fn determinism() {
        let a = quick(FaasWorkload::RegexFilter, ScalingMode::ColorGuard);
        let b = quick(FaasWorkload::RegexFilter, ScalingMode::ColorGuard);
        assert_eq!(a, b);
    }

    #[test]
    fn same_offered_load_across_modes() {
        let cg = quick(FaasWorkload::HtmlTemplate, ScalingMode::ColorGuard);
        let mp = quick(FaasWorkload::HtmlTemplate, ScalingMode::MultiProcess { processes: 8 });
        assert_eq!(cg.offered, mp.offered, "identical request streams");
    }

    #[test]
    fn colorguard_completes_more_under_pressure() {
        let cg = quick(FaasWorkload::RegexFilter, ScalingMode::ColorGuard);
        let mp15 = quick(FaasWorkload::RegexFilter, ScalingMode::MultiProcess { processes: 15 });
        assert!(
            cg.throughput_rps > mp15.throughput_rps,
            "cg {} vs mp15 {}",
            cg.throughput_rps,
            mp15.throughput_rps
        );
    }

    #[test]
    fn context_switches_grow_with_processes() {
        let mut prev = 0u64;
        for k in [1u32, 4, 8, 15] {
            let r = quick(FaasWorkload::HashLoadBalance, ScalingMode::MultiProcess { processes: k });
            // Counts saturate once nearly every slice changes process; allow
            // small wobble but no real shrinkage.
            assert!(
                r.context_switches * 10 >= prev * 9,
                "switches must not really shrink: k={k} {} vs {prev}",
                r.context_switches
            );
            prev = prev.max(r.context_switches);
        }
        let cg = quick(FaasWorkload::HashLoadBalance, ScalingMode::ColorGuard);
        let mp15 = quick(FaasWorkload::HashLoadBalance, ScalingMode::MultiProcess { processes: 15 });
        assert!(cg.context_switches * 5 < mp15.context_switches, "ColorGuard stays flat");
    }

    #[test]
    fn dtlb_misses_grow_with_processes() {
        let cg = quick(FaasWorkload::HtmlTemplate, ScalingMode::ColorGuard);
        let mp2 = quick(FaasWorkload::HtmlTemplate, ScalingMode::MultiProcess { processes: 2 });
        let mp15 = quick(FaasWorkload::HtmlTemplate, ScalingMode::MultiProcess { processes: 15 });
        assert!(mp15.dtlb_misses > mp2.dtlb_misses);
        assert!(cg.dtlb_misses < mp15.dtlb_misses / 2, "the warm-TLB advantage");
    }

    #[test]
    fn gain_grows_with_process_count() {
        // A compressed version of Figure 6's shape.
        let g2 = {
            let mut c = SimConfig::paper_rig(FaasWorkload::RegexFilter, ScalingMode::ColorGuard);
            c.duration_ms = 1_200;
            let cg = simulate(&c);
            c.mode = ScalingMode::MultiProcess { processes: 2 };
            let mp = simulate(&c);
            (cg.throughput_rps - mp.throughput_rps) / mp.throughput_rps * 100.0
        };
        let g15 = {
            let mut c = SimConfig::paper_rig(FaasWorkload::RegexFilter, ScalingMode::ColorGuard);
            c.duration_ms = 1_200;
            let cg = simulate(&c);
            c.mode = ScalingMode::MultiProcess { processes: 15 };
            let mp = simulate(&c);
            (cg.throughput_rps - mp.throughput_rps) / mp.throughput_rps * 100.0
        };
        assert!(g15 > g2, "gain at 15 procs ({g15:.1}%) must exceed gain at 2 ({g2:.1}%)");
        assert!((5.0..=45.0).contains(&g15), "paper reports up to ≈29%: got {g15:.1}%");
    }

    #[test]
    fn latency_reported() {
        let r = quick(FaasWorkload::RegexFilter, ScalingMode::ColorGuard);
        assert!(r.mean_latency_ms > 0.0);
        assert!(r.completed > 0);
        assert!(r.busy_ns > 0);
        assert!(r.p50_latency_ms <= r.p99_latency_ms);
        assert!(r.p50_latency_ms > 0.0);
    }

    #[test]
    fn zero_rate_failure_model_changes_nothing() {
        let clean = quick(FaasWorkload::RegexFilter, ScalingMode::ColorGuard);
        assert_eq!(clean.faults, 0);
        assert_eq!(clean.retries, 0);
        assert_eq!(clean.dead_lettered, 0);
        assert_eq!(clean.availability, 1.0);
        assert_eq!(clean.goodput_rps, clean.throughput_rps, "no rework ⇒ goodput = throughput");
    }

    #[test]
    fn failure_runs_are_deterministic() {
        let run = |_: ()| {
            let mut cfg = SimConfig::paper_rig(FaasWorkload::RegexFilter, ScalingMode::ColorGuard);
            cfg.duration_ms = 600;
            cfg.failures = FailureModel::with_trap_rate(0.15);
            simulate(&cfg)
        };
        let a = run(());
        let b = run(());
        assert_eq!(a, b);
        assert!(a.faults > 0, "a 15% rate over hundreds of stages must fire");
        assert!(a.retries > 0);
    }

    #[test]
    fn degradation_is_graceful_and_monotone() {
        // Relative throughput drop at the 10% and 40% trap rates, per mode.
        let mut drops = Vec::new();
        for mode in [ScalingMode::ColorGuard, ScalingMode::MultiProcess { processes: 15 }] {
            let at = |rate: f64| {
                let mut cfg = SimConfig::paper_rig(FaasWorkload::HashLoadBalance, mode);
                cfg.duration_ms = 600;
                cfg.failures = FailureModel::with_trap_rate(rate);
                simulate(&cfg)
            };
            let clean = at(0.0);
            let light = at(0.1);
            let heavy = at(0.4);
            assert!(light.throughput_rps <= clean.throughput_rps, "{mode:?}");
            assert!(heavy.throughput_rps < light.throughput_rps, "{mode:?}");
            // Graceful: even at a 40% per-stage trap rate the platform keeps
            // completing a meaningful share of the load — no cliff to zero.
            assert!(
                heavy.throughput_rps > 0.25 * clean.throughput_rps,
                "{mode:?} collapse: {} vs clean {}",
                heavy.throughput_rps,
                clean.throughput_rps
            );
            assert!(heavy.faults > light.faults, "{mode:?}");
            assert!(heavy.goodput_rps < heavy.throughput_rps || heavy.retries == 0, "{mode:?}");
            assert!(heavy.availability > 0.5, "{mode:?}: retries keep most requests alive");
            let drop = |r: &SimReport| 1.0 - r.throughput_rps / clean.throughput_rps;
            drops.push([drop(&light), drop(&heavy)]);
        }
        // Containment cost is mode-independent: both modes lose the same
        // share of throughput to the same trap rate, within 2 points.
        for (rate, (cg, mp)) in ["10%", "40%"].iter().zip(drops[0].iter().zip(drops[1])) {
            assert!(
                (cg - mp).abs() <= 0.02,
                "drop at {rate}: ColorGuard {:.1}% vs Multiprocess {:.1}%",
                cg * 100.0,
                mp * 100.0
            );
        }
    }

    #[test]
    fn retry_cap_dead_letters() {
        let mut cfg = SimConfig::paper_rig(FaasWorkload::HtmlTemplate, ScalingMode::ColorGuard);
        cfg.duration_ms = 400;
        cfg.failures = FailureModel {
            trap_prob: 0.9,
            max_retries: 1,
            ..FailureModel::default()
        };
        let r = simulate(&cfg);
        assert!(r.dead_lettered > 0, "a 90% trap rate with 1 retry must dead-letter");
        assert!(r.availability < 1.0);
        // Accounting sanity: every dead-letter burned its retry budget.
        assert!(r.faults >= r.dead_lettered * u64::from(cfg.failures.max_retries + 1));
    }

    #[test]
    fn dead_letter_saturation_floors_availability_without_nan() {
        // The pathological edge: every attempt traps and there is no retry
        // budget, so *every* resolved request dead-letters. Availability
        // must hit its 0.0 floor exactly — a finite number, not NaN or a
        // panic — because /healthz serves this value verbatim.
        let mut cfg = SimConfig::paper_rig(FaasWorkload::HashLoadBalance, ScalingMode::ColorGuard);
        cfg.duration_ms = 400;
        cfg.failures = FailureModel { trap_prob: 1.0, max_retries: 0, ..FailureModel::default() };
        let r = simulate(&cfg);
        assert_eq!(r.completed, 0, "a 100% trap rate with no retries completes nothing");
        assert!(r.dead_lettered > 0, "offered load must resolve to dead letters");
        assert_eq!(r.availability, 0.0, "availability must floor at exactly 0.0");
        assert!(r.availability.is_finite());
        assert!(r.goodput_rps == 0.0 && r.goodput_rps.is_finite());
        assert!(r.mean_latency_ms.is_finite(), "empty latency set must not yield NaN");
        assert!(r.p99_latency_ms.is_finite());
        // The degenerate-but-different edge: nothing resolved at all (zero
        // duration) reports availability 1.0 by convention, not 0/0.
        let mut empty = cfg.clone();
        empty.duration_ms = 0;
        let e = simulate(&empty);
        assert_eq!((e.completed, e.dead_lettered), (0, 0));
        assert_eq!(e.availability, 1.0, "no resolved requests ⇒ vacuous availability");
    }

    #[test]
    fn open_loop_arrivals_are_deterministic_and_scale_with_rate() {
        let at = |rate: f64| {
            let mut cfg = SimConfig::paper_rig(FaasWorkload::HashLoadBalance, ScalingMode::ColorGuard);
            cfg.duration_ms = 600;
            cfg.arrivals = ArrivalModel::Poisson { rate_rps: rate };
            simulate(&cfg)
        };
        let a = at(20_000.0);
        let b = at(20_000.0);
        assert_eq!(a, b, "open-loop runs replay byte-identically");
        let heavy = at(60_000.0);
        // Poisson(λ) over 600 epochs: mean within a few percent of λ·T.
        let expect = |rate: f64| rate / 1000.0 * 600.0;
        assert!((a.offered as f64 - expect(20_000.0)).abs() < 0.1 * expect(20_000.0));
        assert!((heavy.offered as f64 - expect(60_000.0)).abs() < 0.1 * expect(60_000.0));
        assert!(heavy.offered > 2 * a.offered, "offered load follows the rate");
    }

    #[test]
    fn closed_loop_flag_is_byte_compatible_with_legacy_stream() {
        // The explicit flag and the default must generate the *same* stream
        // — the byte-compat contract the PR-5 artifacts rest on. Both paths
        // must also match a stream generated with a different (ignored)
        // open-loop-only knob untouched.
        let base = generate_stream(
            FaasWorkload::RegexFilter, 50, 7, 5.0, 3, 0xA5A5, &ArrivalModel::ClosedLoop,
        );
        let dflt = generate_stream(
            FaasWorkload::RegexFilter, 50, 7, 5.0, 3, 0xA5A5, &ArrivalModel::default(),
        );
        assert_eq!(base.len(), dflt.len());
        for (a, b) in base.iter().zip(&dflt) {
            assert_eq!((a.arrival_ns, &a.io_ns, &a.compute_ns), (b.arrival_ns, &b.io_ns, &b.compute_ns));
        }
        assert_eq!(base.len(), 50 * 7, "closed loop injects exactly N per epoch");
    }

    #[test]
    fn phase_schedules_cycle_and_shape_the_load() {
        // Bursty: same mean neighborhood as flat Poisson, but per-epoch
        // counts must swing between trough and burst phases.
        let burst = ArrivalModel::bursty(40_000.0);
        let s = generate_stream(
            FaasWorkload::HashLoadBalance, 200, 0, 1.0, 1, 0x7777, &burst,
        );
        assert!(!s.is_empty());
        let mut per_epoch = vec![0u64; 200];
        for r in &s {
            per_epoch[(r.arrival_ns / 1_000_000) as usize] += 1;
        }
        // Phase boundaries at 80/100 per the bursty schedule: compare mean
        // arrivals inside trough epochs vs burst epochs across both cycles.
        let trough: u64 = (0..80).chain(100..180).map(|e| per_epoch[e]).sum();
        let burst_n: u64 = (80..100).chain(180..200).map(|e| per_epoch[e]).sum();
        // 160 trough epochs at 24/ms vs 40 burst epochs at 104/ms.
        assert!(
            burst_n * 160 > 2 * trough * 40,
            "burst epochs must run far hotter: burst {burst_n} vs trough {trough}"
        );
        // Diurnal constructor produces a positive-length 4-phase cycle.
        match ArrivalModel::diurnal(10_000.0, 400) {
            ArrivalModel::Phases { phases, .. } => {
                assert_eq!(phases.len(), 4);
                assert_eq!(phases.iter().map(|p| p.duration_ms).sum::<u64>(), 400);
            }
            other => panic!("diurnal must be a phase schedule, got {other:?}"),
        }
    }

    #[test]
    fn multiprocess_overload_shows_up_in_tail_latency() {
        let cg = quick(FaasWorkload::RegexFilter, ScalingMode::ColorGuard);
        let mp = quick(FaasWorkload::RegexFilter, ScalingMode::MultiProcess { processes: 15 });
        assert!(
            mp.p99_latency_ms > cg.p99_latency_ms,
            "switch overhead must surface in the tail: cg {} vs mp {}",
            cg.p99_latency_ms,
            mp.p99_latency_ms
        );
    }

    /// FNV-1a over every field of every request, in stream order.
    fn stream_digest(reqs: &[Request]) -> u64 {
        let mut bytes = Vec::new();
        for r in reqs {
            for v in std::iter::once(&r.arrival_ns).chain(&r.io_ns).chain(&r.compute_ns) {
                bytes.extend_from_slice(&v.to_le_bytes());
            }
        }
        bytes.extend_from_slice(&(reqs.len() as u64).to_le_bytes());
        crate::hashlb::fnv1a(&bytes)
    }

    const DIGEST_SEEDS: [u64; 4] = [1, 0xA5A5, 0x5E65E9, 0xDEAD_BEEF];

    /// The arrival models the digests cover: closed loop, Poisson, bursty.
    fn digest_arrivals() -> [ArrivalModel; 3] {
        [
            ArrivalModel::ClosedLoop,
            ArrivalModel::Poisson { rate_rps: 9_000.0 },
            ArrivalModel::bursty(9_000.0),
        ]
    }

    /// `digest` folded over [`DIGEST_SEEDS`]' streams, per workload (paper
    /// order) × arrival model.
    fn stream_digests(digest: impl Fn(&[Request]) -> u64) -> Vec<[u64; 3]> {
        FaasWorkload::ALL
            .iter()
            .map(|&w| {
                digest_arrivals().map(|a| {
                    let per_seed: Vec<u8> = DIGEST_SEEDS
                        .iter()
                        .flat_map(|&seed| {
                            digest(&generate_stream(w, 40, 9, 5.0, 3, seed, &a)).to_le_bytes()
                        })
                        .collect();
                    crate::hashlb::fnv1a(&per_seed)
                })
            })
            .collect()
    }

    /// The streams as the engines generated them before any memo: recorded
    /// from the generator that re-ran every engine for every request.
    const PINNED_STREAM_DIGESTS: [[u64; 3]; 3] = [
        [0x64c8486fc500cda6, 0x8150a407826103de, 0xd5bc479a10b856f7],
        [0x426d5554930b60b7, 0xaa578995e3aed40e, 0xedc13f58c1b4939a],
        [0x60a958d43e5cd5d2, 0x137cca50c45827c8, 0xab7b20ed72c4a85e],
    ];

    #[test]
    fn memoized_streams_equal_the_pinned_engine_streams() {
        assert_eq!(stream_digests(stream_digest), PINNED_STREAM_DIGESTS);
    }

    #[test]
    fn the_pin_catches_one_request_off_by_one_ns() {
        // The smallest error a wrong memo could make: one request's first
        // compute stage 1 ns off. Every cell's digest must move.
        let off_by_one = |reqs: &[Request]| {
            let mut reqs = reqs.to_vec();
            let mid = reqs.len() / 2;
            if let Some(r) = reqs.get_mut(mid) {
                r.compute_ns[0] += 1;
            }
            stream_digest(&reqs)
        };
        for (got, pinned) in stream_digests(off_by_one).iter().zip(PINNED_STREAM_DIGESTS) {
            for (g, p) in got.iter().zip(pinned) {
                assert_ne!(*g, p, "a 1 ns error must move the digest");
            }
        }
    }

    /// [`PAGE`] rendered from scratch, as one request did before the memo.
    fn fresh_page_work(items: i32) -> u64 {
        let mut ctx = Context::new();
        ctx.insert("title".into(), "Edge page".into());
        ctx.insert(
            "rows".into(),
            (0..items).map(|i| format!("item-0-{i}")).collect::<Vec<_>>().join("|"),
        );
        ctx.insert("user".into(), "visitor <3".into());
        render_counted(PAGE, &ctx).unwrap().1
    }

    #[test]
    fn page_memo_equals_a_fresh_render_for_every_count() {
        let mut rt = WorkloadRt::new();
        // Fill out of order and read twice: the memo is keyed by count only.
        for items in PAGE_ITEMS.rev().chain(PAGE_ITEMS) {
            assert_eq!(rt.page_work(items), fresh_page_work(items), "{items} items");
        }
        // Every count renders a different amount of work, so a memo read
        // under any other count (off by one here) is caught.
        for items in PAGE_ITEMS.skip(1) {
            assert_ne!(rt.page_work(items - 1), fresh_page_work(items), "{items} items");
        }
    }

    #[test]
    fn url_filter_dfas_agree_with_the_nfa_on_seeded_urls() {
        let nfas: Vec<Regex> = URL_FILTERS.iter().map(|p| Regex::new(p).unwrap()).collect();
        let mut rt = WorkloadRt::new();
        let mut matched = [0u32; 4];
        for seed in 0..8 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut url = String::new();
            for i in 0..400 {
                draw_url(&mut rng, &mut url);
                // Also the shapes the other filters look for.
                match i % 4 {
                    1 => url.push_str(".css"),
                    2 => url.replace_range(..4, "/admin"),
                    3 => url = format!("/api/v{i}/users/{seed}{i}"),
                    _ => {}
                }
                for (k, (nfa, dfa)) in nfas.iter().zip(&mut rt.filters).enumerate() {
                    let want = nfa.is_match_counted(&url);
                    assert_eq!(dfa.is_match_counted(&url), want, "filter {k} on {url:?}");
                    matched[k] += u32::from(want.0);
                }
            }
        }
        assert!(matched.iter().all(|&m| m > 0), "every filter must match something: {matched:?}");
    }
}
