//! The M-core sharded FaaS engine.
//!
//! Extends the single-core rig of [`crate::simulate`] across cores, the way
//! a production edge host would shard the paper's §6.4.3 workloads:
//!
//! - **Per-core run queues.** Every request has a *home core* chosen by the
//!   crate's consistent-hash ring ([`crate::hashlb::HashRing`]) over
//!   `core-0..core-{M-1}`, so placement is sticky and deterministic.
//! - **Per-core ColorGuard pools.** Each core owns a 15-color MPK pool, so
//!   resident capacity scales as `cores × 15`. A request occupies a color
//!   from admission to completion; when the pool is full, arrivals queue
//!   and are admitted on a slot recycle (quarantine scrub + re-color,
//!   charged as overhead). The multi-process comparator instead gives each
//!   core K worker processes, one resident instance each.
//! - **Deterministic work-stealing.** After every event, each idle core
//!   attempts one steal: the victim scan order is a seeded rotation (the
//!   same stateless splitmix draw the chaos layer uses), and the thief
//!   takes the *newest* task from the first victim with at least two queued
//!   — classic steal-from-the-back. A migration penalty (cold cache + dTLB
//!   refill on the thief) is charged to the stolen task.
//! - **Spawn model.** A request's first slice pays an instance spawn. With
//!   the compiled-code cache *cold* (disabled) every spawn pays full
//!   `sfi-core` codegen; *warm*, the first compile per cache domain fills
//!   the cache and every later spawn is a cache hit. ColorGuard's single
//!   address space shares one cache across all cores; each multi-process
//!   worker has its own, so the cold-compile tax is paid once per process.
//!
//! Everything — arrivals, compute, routing, steal order — is a pure
//! function of the seed, so `BENCH_multicore.json` replays byte-identically.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::fmt::Write as _;

use sfi_telemetry::{
    pack_span, BucketExemplars, CycleHistogram, FlightRecorder, Registry, SpanLevel, TraceEvent,
    TraceKind,
};
use sfi_vm::fault_draw;

use crate::hashlb::HashRing;
use crate::qos::{tenant_class, Admission, ClassReport, QosConfig, QosQueues, QosReport, SloClass};
use crate::sim::{generate_stream, ArrivalModel};
use crate::{FaasWorkload, ScalingMode, SimCosts};

/// One scheduling epoch / preemption quantum (ns).
const EPOCH_NS: u64 = 1_000_000;

/// Whether instance spawns may use the compiled-code cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CacheMode {
    /// Cache disabled: every spawn pays full codegen (the per-invoke
    /// compile tax).
    Cold,
    /// Cache enabled: the first compile per cache domain fills it; later
    /// spawns are hits.
    Warm,
}

impl CacheMode {
    /// Display name used in benchmark tables and JSON.
    pub fn name(self) -> &'static str {
        match self {
            CacheMode::Cold => "cold",
            CacheMode::Warm => "warm",
        }
    }
}

/// Modeled costs of instance spawn paths (calibrated against the
/// `sfi-runtime` engine: a cold spawn runs `sfi_core::compile`, a warm
/// spawn is a cache lookup plus pool instantiation).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpawnModel {
    /// Full `sfi-core` codegen + instantiation (ns).
    pub cold_compile_ns: u64,
    /// Cache-hit spawn: key hash + `Arc` clone + instantiation (ns).
    pub warm_spawn_ns: u64,
    /// Recycling a freed slot for a queued request (madvise scrub +
    /// `pkey_mprotect` re-color + data write-in, ns).
    pub recycle_ns: u64,
    /// MPK colors per core — the per-core resident-instance capacity under
    /// ColorGuard.
    pub colors_per_core: u32,
}

impl Default for SpawnModel {
    fn default() -> Self {
        SpawnModel {
            cold_compile_ns: 150_000,
            warm_spawn_ns: 8_000,
            recycle_ns: 2_000,
            colors_per_core: 15,
        }
    }
}

/// Configuration for a multi-core run.
#[derive(Debug, Clone)]
pub struct MultiCoreConfig {
    /// Which workload.
    pub workload: FaasWorkload,
    /// Scaling strategy. [`ScalingMode::MultiProcess`]'s `processes` is
    /// interpreted *per core* here.
    pub mode: ScalingMode,
    /// Spawn cache behaviour.
    pub cache: CacheMode,
    /// Number of cores.
    pub cores: u32,
    /// Simulated duration in milliseconds.
    pub duration_ms: u64,
    /// New requests injected per 1 ms epoch, per core (offered load scales
    /// with the core count; closed-loop mode only).
    pub requests_per_epoch_per_core: u32,
    /// Arrival generation — closed-loop by default (byte-compatible with
    /// the legacy rig). Open-loop rates are *host-wide*, not per-core.
    pub arrivals: ArrivalModel,
    /// Multi-tenant QoS (SLO classes, weighted fair queueing, admission
    /// control). `None` — the default — is the legacy FIFO admission path,
    /// byte-identical to the pre-QoS engine.
    pub qos: Option<QosConfig>,
    /// Mean IO delay before a request's first compute stage (ms).
    pub io_mean_ms: f64,
    /// IO/compute stages per request.
    pub stages: u32,
    /// RNG seed.
    pub seed: u64,
    /// Scheduler cost constants (shared with the single-core rig).
    pub costs: SimCosts,
    /// Spawn-path cost model.
    pub spawn: SpawnModel,
    /// Per-core flight-recorder capacity in events (0 disables tracing —
    /// the telemetry-off configuration of the overhead gate). Events are
    /// stamped with simulated nanoseconds, so same-seed runs produce
    /// byte-identical traces.
    pub trace_capacity: usize,
    /// Emit per-request span events ([`TraceKind::Flow`]) and latency
    /// exemplars: queue-wait, admission and invoke edges keyed by a
    /// deterministic [`trace_id`]. Off by default — legacy configs keep
    /// byte-identical traces and reports (DESIGN.md §14).
    pub spans: bool,
}

impl MultiCoreConfig {
    /// The multi-core rig: FaaS-granularity requests (single compute stage
    /// after a ~1 ms arrival IO) at a per-core offered load that saturates
    /// the warm path, so throughput measures the schedulers rather than
    /// idle time.
    pub fn paper_rig(
        workload: FaasWorkload,
        mode: ScalingMode,
        cache: CacheMode,
        cores: u32,
    ) -> MultiCoreConfig {
        MultiCoreConfig {
            workload,
            mode,
            cache,
            cores,
            duration_ms: 400,
            requests_per_epoch_per_core: 40,
            arrivals: ArrivalModel::ClosedLoop,
            qos: None,
            io_mean_ms: 1.0,
            stages: 1,
            seed: 0x5E65E9,
            costs: SimCosts::default(),
            spawn: SpawnModel::default(),
            trace_capacity: 512,
            spans: false,
        }
    }
}

/// The request's end-to-end trace id: a stateless splitmix mix of the run
/// seed and the request id, so every span edge of request `rid` — across
/// cores, queues and serving rounds — carries the same id, and same-seed
/// replays reproduce it. Pure function; consumes no RNG stream.
pub fn trace_id(seed: u64, rid: u64) -> u64 {
    let mut z = seed ^ 0x7D0_C0FF_EE00_0001 ^ rid.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Per-core counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoreMetrics {
    /// Requests whose final slice ran on this core.
    pub completed: u64,
    /// Tasks this core stole from other cores' queues.
    pub steals: u64,
    /// OS context switches (process changes + timer ticks).
    pub ctx_switches: u64,
    /// dTLB misses.
    pub dtlb_misses: u64,
    /// Useful guest compute (ns).
    pub busy_ns: u64,
    /// Scheduling/transition/spawn overhead (ns).
    pub overhead_ns: u64,
    /// Spawns that paid full codegen.
    pub cold_spawns: u64,
    /// Spawns served from the compiled-code cache.
    pub warm_spawns: u64,
    /// Slot recycles (a freed color handed to a queued request).
    pub recycles: u64,
    /// ns spent in spawn paths (cold compiles + warm hits), a subset of
    /// `overhead_ns`.
    pub spawn_ns: u64,
}

impl CoreMetrics {
    fn add(&mut self, o: &CoreMetrics) {
        self.completed += o.completed;
        self.steals += o.steals;
        self.ctx_switches += o.ctx_switches;
        self.dtlb_misses += o.dtlb_misses;
        self.busy_ns += o.busy_ns;
        self.overhead_ns += o.overhead_ns;
        self.cold_spawns += o.cold_spawns;
        self.warm_spawns += o.warm_spawns;
        self.recycles += o.recycles;
        self.spawn_ns += o.spawn_ns;
    }
}

/// Results of one multi-core run.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiCoreReport {
    /// Cores simulated.
    pub cores: u32,
    /// Requests offered.
    pub offered: u64,
    /// Requests completed within the window.
    pub completed: u64,
    /// Completions per second (all cores).
    pub throughput_rps: f64,
    /// Mean request latency (ms).
    pub mean_latency_ms: f64,
    /// 99th-percentile latency (ms).
    pub p99_latency_ms: f64,
    /// Mean over cores of peak resident slots ÷ slot capacity, in [0, 1] —
    /// the saturation signal the fleet autoscaler watches.
    pub occupancy: f64,
    /// Per-class QoS summary (present iff the config enables QoS).
    pub qos: Option<QosReport>,
    /// Aggregate counters (sum over cores).
    pub totals: CoreMetrics,
    /// Per-core counters.
    pub per_core: Vec<CoreMetrics>,
    /// Per-core flight-recorder traces, oldest first (empty vectors when
    /// [`MultiCoreConfig::trace_capacity`] is 0).
    pub traces: Vec<Vec<TraceEvent>>,
    /// Per-core request-latency distributions (simulated ns, recorded on
    /// the core that ran the completing slice). Scalar `mean_latency_ms` /
    /// `p99_latency_ms` above summarize the same completions; these carry
    /// the full cross-shard distribution.
    pub latency_per_core: Vec<CycleHistogram>,
    /// Per-bucket latency exemplars: for each latency-histogram bucket the
    /// first `(trace_id, latency_ns)` that landed in it, merged across
    /// cores shard-order-independently. Empty unless
    /// [`MultiCoreConfig::spans`] is on.
    pub exemplars: BucketExemplars,
    /// The merged per-core metrics registry (counters, occupancy gauges,
    /// and the latency histograms — both per-core `{core="N"}` series and
    /// the bucket-wise cross-shard merge). A live server folds successive
    /// reports' registries together with [`Registry::merge_from`].
    /// Render it with [`sfi_telemetry::json_snapshot`].
    pub registry: Registry,
}

#[derive(Debug, Clone, Copy)]
struct Task {
    rid: u32,
    stage: u32,
    remaining: u64,
    /// This slice must pay the instance-spawn cost first.
    spawn: bool,
    /// One-shot extra overhead attached to the task (slot recycle,
    /// steal-migration penalty).
    extra_ns: u64,
}

struct Core {
    /// This core's index (stamped into trace events).
    idx: u32,
    ready: VecDeque<Task>,
    /// Requests awaiting a free resident slot (legacy FIFO admission
    /// queue; unused when QoS is enabled).
    wait: VecDeque<u32>,
    /// QoS admission queues (present iff the config enables QoS).
    qos: Option<QosQueues>,
    /// Occupied resident slots (colors / worker processes).
    resident: u32,
    /// High-water mark of `resident`.
    peak_resident: u32,
    busy: bool,
    running: Option<Task>,
    /// Current process (multi-process mode); `u32::MAX` = none yet.
    cur_proc: u32,
    /// Per-process code-cache state (multi-process warm mode).
    primed: Vec<bool>,
    steal_attempts: u64,
    m: CoreMetrics,
    /// This core's flight recorder (ticks are simulated ns).
    rec: FlightRecorder,
    /// Request-latency distribution (ns) of completions on this core.
    lat: CycleHistogram,
    /// Per-bucket latency exemplars (populated only when spans are on).
    ex: BucketExemplars,
    /// Span edges emitted (so the trace-event counter can keep counting
    /// simulation events only — the profiler must not move modeled series).
    flow: u64,
}

impl Core {
    fn trace(&mut self, tick: u64, sandbox: u64, kind: TraceKind, arg: u64) {
        self.rec.record(TraceEvent { tick, core: self.idx, sandbox, kind, arg });
    }

    /// Records one span edge of a request's trace: a [`TraceKind::Flow`]
    /// event whose `sandbox` field carries the trace id and whose arg is
    /// the packed `(level, start, end, detail)` edge.
    fn span(&mut self, tick: u64, tid: u64, level: SpanLevel, start: bool, end: bool, detail: u64) {
        self.trace(tick, tid, TraceKind::Flow, pack_span(level, start, end, detail));
        self.flow += 1;
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Ev {
    /// A request's stage is ready to compute at its home core.
    Ready { rid: u32, stage: u32 },
    /// A core finishes its current slice.
    SliceDone { core: u32 },
}

struct Ctx {
    costs: SimCosts,
    spawn: SpawnModel,
    cache: CacheMode,
    colorguard: bool,
    procs: u32,
    contention: f64,
    /// Span emission on, plus the seed [`trace_id`] derives from.
    spans: bool,
    seed: u64,
}

/// Starts the next slice on `core` at `now`; returns its completion time.
fn start_slice(core: &mut Core, cg_primed: &mut bool, ctx: &Ctx, now: u64) -> Option<u64> {
    let mut task = core.ready.pop_front()?;
    // The spawn flag is set on exactly one slice per request — its first —
    // which is where the invoke span opens.
    if ctx.spans && task.spawn {
        let tid = trace_id(ctx.seed, u64::from(task.rid));
        core.span(now, tid, SpanLevel::Invoke, true, false, u64::from(task.rid));
    }
    let mut over = 0.0f64;
    if !ctx.colorguard {
        let proc = task.rid % ctx.procs;
        if proc != core.cur_proc {
            if core.cur_proc != u32::MAX {
                // A real OS process switch: refill and warm-up grow with the
                // number of competing processes on this core.
                core.m.ctx_switches += 1;
                let refill = (ctx.costs.tlb_refill_entries as f64 * ctx.contention).round() as u64;
                core.m.dtlb_misses += refill;
                over += ctx.costs.process_switch_ns
                    + refill as f64 * ctx.costs.tlb_miss_ns
                    + ctx.costs.cache_warm_ns * ctx.contention;
            }
            core.cur_proc = proc;
        }
    }
    over += ctx.costs.task_switch_ns + ctx.costs.transition_pair_ns;
    if ctx.colorguard {
        over += ctx.costs.colorguard_extra_ns;
    }
    core.m.dtlb_misses += ctx.costs.base_slice_tlb_misses;

    let mut spawn_ns = 0u64;
    if task.spawn {
        let mut cold = true;
        spawn_ns = match ctx.cache {
            CacheMode::Cold => {
                core.m.cold_spawns += 1;
                ctx.spawn.cold_compile_ns
            }
            CacheMode::Warm => {
                let primed = if ctx.colorguard {
                    // One address space, one shared cache across all cores.
                    cg_primed
                } else {
                    &mut core.primed[(task.rid % ctx.procs) as usize]
                };
                if *primed {
                    cold = false;
                    core.m.warm_spawns += 1;
                    ctx.spawn.warm_spawn_ns
                } else {
                    *primed = true;
                    core.m.cold_spawns += 1;
                    ctx.spawn.cold_compile_ns
                }
            }
        };
        if cold {
            core.trace(now, u64::from(task.rid), TraceKind::Compile, spawn_ns);
        }
        core.m.spawn_ns += spawn_ns;
        task.spawn = false;
    }
    let extra = task.extra_ns;
    task.extra_ns = 0;

    let slice = task.remaining.min(EPOCH_NS);
    let overhead = over as u64 + spawn_ns + extra;
    core.m.busy_ns += slice;
    core.m.overhead_ns += overhead;
    task.remaining -= slice;
    core.trace(now, u64::from(task.rid), TraceKind::Enter, u64::from(task.stage));
    core.running = Some(task);
    core.busy = true;
    Some(now + overhead + slice)
}

/// One steal round: every idle core with an empty queue attempts to take
/// the newest task from the first victim (in a seeded rotation) holding at
/// least two. Deterministic: thief scan order is fixed, victim order is a
/// pure function of `(seed, thief, attempt)`.
fn steal_pass(cores: &mut [Core], seed: u64, costs: &SimCosts, now: u64) {
    let n = cores.len();
    if n < 2 {
        return;
    }
    for thief in 0..n {
        if cores[thief].busy || !cores[thief].ready.is_empty() {
            continue;
        }
        let draw = fault_draw(seed ^ 0x57EA1, thief as u64, cores[thief].steal_attempts);
        cores[thief].steal_attempts += 1;
        let start = (draw * n as f64) as usize % n;
        let mut stolen: Option<(Task, usize)> = None;
        for k in 0..n {
            let victim = (start + k) % n;
            if victim == thief || cores[victim].ready.len() < 2 {
                continue;
            }
            stolen = cores[victim].ready.pop_back().map(|t| (t, victim));
            break;
        }
        if let Some((mut t, victim)) = stolen {
            // Migration penalty: the stolen task's working set is cold on
            // the thief (cache warm-up + a full dTLB refill).
            cores[thief].m.dtlb_misses += costs.tlb_refill_entries;
            t.extra_ns +=
                (costs.cache_warm_ns + costs.tlb_refill_entries as f64 * costs.tlb_miss_ns) as u64;
            cores[thief].m.steals += 1;
            cores[thief].trace(now, u64::from(t.rid), TraceKind::Steal, victim as u64);
            cores[thief].ready.push_back(t);
        }
    }
}

/// Runs the sharded multi-core simulation.
pub fn simulate_multicore(cfg: &MultiCoreConfig) -> MultiCoreReport {
    let ncores = cfg.cores.max(1);
    let requests = generate_stream(
        cfg.workload,
        cfg.duration_ms,
        cfg.requests_per_epoch_per_core.saturating_mul(ncores),
        cfg.io_mean_ms,
        cfg.stages,
        cfg.seed,
        &cfg.arrivals,
    );

    // Tenant SLO classes: a stateless per-request draw on its own stream,
    // so enabling QoS leaves the generated arrivals untouched.
    let classes: Option<Vec<SloClass>> = cfg.qos.as_ref().map(|q| {
        (0..requests.len()).map(|rid| tenant_class(cfg.seed, rid as u32, &q.shares)).collect()
    });

    // Sticky home-core placement via the consistent-hash ring.
    // Backend i is core i.
    let ring = HashRing::new((0..ncores).map(|i| format!("core-{i}")).collect::<Vec<_>>(), 64);
    let mut key = String::new();
    let home: Vec<u32> = (0..requests.len())
        .map(|rid| {
            key.clear();
            write!(key, "req-{rid}").expect("writing to a String");
            ring.route_index(&key) as u32
        })
        .collect();

    let (procs, colorguard) = match cfg.mode {
        ScalingMode::ColorGuard => (1u32, true),
        ScalingMode::MultiProcess { processes } => (processes.max(1), false),
    };
    let capacity = if colorguard { cfg.spawn.colors_per_core.max(1) } else { procs };
    let ctx = Ctx {
        costs: cfg.costs.clone(),
        spawn: cfg.spawn,
        cache: cfg.cache,
        colorguard,
        procs,
        contention: f64::from(procs.min(15)) / 15.0,
        spans: cfg.spans,
        seed: cfg.seed,
    };

    let mut cores: Vec<Core> = (0..ncores)
        .map(|i| Core {
            idx: i,
            ready: VecDeque::new(),
            wait: VecDeque::new(),
            qos: cfg.qos.as_ref().map(QosQueues::new),
            resident: 0,
            peak_resident: 0,
            busy: false,
            running: None,
            cur_proc: u32::MAX,
            primed: vec![false; procs as usize],
            steal_attempts: 0,
            m: CoreMetrics::default(),
            rec: FlightRecorder::new(cfg.trace_capacity),
            lat: CycleHistogram::new(),
            ex: BucketExemplars::new(),
            flow: 0,
        })
        .collect();
    let mut cg_primed = false;

    let mut heap: BinaryHeap<Reverse<(u64, u64, Ev)>> = BinaryHeap::new();
    let mut seq = 0u64;
    let mut push = |heap: &mut BinaryHeap<Reverse<(u64, u64, Ev)>>, t: u64, e: Ev| {
        seq += 1;
        heap.push(Reverse((t, seq, e)));
    };
    for (rid, r) in requests.iter().enumerate() {
        push(&mut heap, r.arrival_ns + r.io_ns[0], Ev::Ready { rid: rid as u32, stage: 0 });
    }

    let horizon_ns = cfg.duration_ms * 1_000_000;
    let mut completed = 0u64;
    let mut latencies = Vec::new();

    // Per-class QoS aggregates (only written when QoS is enabled).
    let mut class_offered = [0u64; 3];
    let mut class_shed = [0u64; 3];
    let mut class_completed = [0u64; 3];
    let mut class_lat: [Vec<f64>; 3] = [Vec::new(), Vec::new(), Vec::new()];
    let mut class_hist = [CycleHistogram::new(), CycleHistogram::new(), CycleHistogram::new()];

    while let Some(Reverse((t, _, ev))) = heap.pop() {
        if t > horizon_ns {
            break;
        }
        match ev {
            Ev::Ready { rid, stage } => {
                let h = home[rid as usize] as usize;
                let remaining = requests[rid as usize].compute_ns[stage as usize];
                if stage == 0 {
                    if let Some(cl) = &classes {
                        class_offered[cl[rid as usize].idx()] += 1;
                    }
                    let class_idx =
                        classes.as_ref().map_or(0, |cl| cl[rid as usize].idx() as u64);
                    let tid = trace_id(cfg.seed, u64::from(rid));
                    // Admission: take a resident slot or queue for one.
                    if cores[h].resident < capacity {
                        cores[h].resident += 1;
                        cores[h].peak_resident = cores[h].peak_resident.max(cores[h].resident);
                        let occupied = u64::from(cores[h].resident);
                        cores[h].trace(t, u64::from(rid), TraceKind::Spawn, occupied);
                        if cfg.spans {
                            // Direct admission: an instantaneous admission
                            // span (no queue wait preceded it).
                            cores[h].span(t, tid, SpanLevel::Admission, true, true, class_idx);
                        }
                        cores[h]
                            .ready
                            .push_back(Task { rid, stage, remaining, spawn: true, extra_ns: 0 });
                    } else if cores[h].qos.is_some() {
                        // QoS admission control: bounded per-class queues
                        // and lowest-class-first watermark shedding.
                        let class = classes.as_ref().expect("qos implies classes")[rid as usize];
                        let qcfg = cfg.qos.as_ref().expect("qos queues imply a config");
                        let q = cores[h].qos.as_mut().expect("checked is_some");
                        if q.offer(qcfg, rid, class) == Admission::Shed {
                            class_shed[class.idx()] += 1;
                            cores[h].trace(t, u64::from(rid), TraceKind::Shed, class.idx() as u64);
                        } else if cfg.spans {
                            cores[h].span(t, tid, SpanLevel::QueueWait, true, false, u64::from(h as u32));
                        }
                    } else {
                        cores[h].wait.push_back(rid);
                        if cfg.spans {
                            cores[h].span(t, tid, SpanLevel::QueueWait, true, false, u64::from(h as u32));
                        }
                    }
                } else {
                    cores[h].ready.push_back(Task { rid, stage, remaining, spawn: false, extra_ns: 0 });
                }
            }
            Ev::SliceDone { core: c } => {
                let c = c as usize;
                let task = cores[c].running.take().expect("SliceDone implies a running slice");
                cores[c].busy = false;
                if task.remaining > 0 {
                    // Epoch-preempted: yield to the back of the queue.
                    cores[c].ready.push_back(task);
                } else {
                    let req = &requests[task.rid as usize];
                    let next = task.stage + 1;
                    if (next as usize) < req.compute_ns.len() {
                        // The slot stays resident across the IO wait.
                        push(
                            &mut heap,
                            t + req.io_ns[next as usize],
                            Ev::Ready { rid: task.rid, stage: next },
                        );
                    } else {
                        completed += 1;
                        cores[c].m.completed += 1;
                        cores[c].trace(t, u64::from(task.rid), TraceKind::Exit, u64::from(task.stage));
                        cores[c].lat.record(t - req.arrival_ns);
                        if cfg.spans {
                            let tid = trace_id(cfg.seed, u64::from(task.rid));
                            cores[c].span(
                                t,
                                tid,
                                SpanLevel::Invoke,
                                false,
                                true,
                                u64::from(task.stage),
                            );
                            cores[c].ex.observe(tid, t - req.arrival_ns);
                        }
                        latencies.push((t - req.arrival_ns) as f64 / 1e6);
                        if let Some(cl) = &classes {
                            let ci = cl[task.rid as usize].idx();
                            class_completed[ci] += 1;
                            class_hist[ci].record(t - req.arrival_ns);
                            class_lat[ci].push((t - req.arrival_ns) as f64 / 1e6);
                        }
                        // Free the home slot; hand it to a queued request
                        // (a recycle: scrub + re-color before reuse). With
                        // QoS the next admit comes from the weighted
                        // fair-queue rotation instead of plain FIFO.
                        let h = home[task.rid as usize] as usize;
                        cores[h].resident -= 1;
                        let next_admit = match cores[h].qos.as_mut() {
                            Some(q) => q.pop().map(|(rid, _)| rid),
                            None => cores[h].wait.pop_front(),
                        };
                        if let Some(w) = next_admit {
                            cores[h].resident += 1;
                            cores[h].peak_resident = cores[h].peak_resident.max(cores[h].resident);
                            cores[h].m.recycles += 1;
                            cores[h].trace(t, u64::from(w), TraceKind::Recycle, u64::from(task.rid));
                            if cfg.spans {
                                // The queued request's wait ends here and it
                                // is admitted onto the recycled slot.
                                let wtid = trace_id(cfg.seed, u64::from(w));
                                let wclass =
                                    classes.as_ref().map_or(0, |cl| cl[w as usize].idx() as u64);
                                cores[h].span(t, wtid, SpanLevel::QueueWait, false, true, u64::from(h as u32));
                                cores[h].span(t, wtid, SpanLevel::Admission, true, true, wclass);
                            }
                            cores[h].ready.push_back(Task {
                                rid: w,
                                stage: 0,
                                remaining: requests[w as usize].compute_ns[0],
                                spawn: true,
                                extra_ns: cfg.spawn.recycle_ns,
                            });
                        }
                    }
                }
            }
        }

        // Rebalance, then start slices on every idle core with work.
        steal_pass(&mut cores, cfg.seed, &ctx.costs, t);
        for (c, core) in cores.iter_mut().enumerate() {
            if !core.busy {
                if let Some(done) = start_slice(core, &mut cg_primed, &ctx, t) {
                    push(&mut heap, done, Ev::SliceDone { core: c as u32 });
                }
            }
        }
    }

    // The OS timer tick floor, per core.
    let ticks = cfg.duration_ms / 1000 * cfg.costs.timer_hz;
    for c in &mut cores {
        c.m.ctx_switches += ticks;
    }

    let per_core: Vec<CoreMetrics> = cores.iter().map(|c| c.m).collect();
    let mut totals = CoreMetrics::default();
    for m in &per_core {
        totals.add(m);
    }
    let traces: Vec<Vec<TraceEvent>> = cores.iter().map(|c| c.rec.events()).collect();
    let latency_per_core: Vec<CycleHistogram> = cores.iter().map(|c| c.lat.clone()).collect();
    let mut exemplars = BucketExemplars::new();
    for c in &cores {
        exemplars.merge_from(&c.ex);
    }
    let occupancy = cores
        .iter()
        .map(|c| f64::from(c.peak_resident) / f64::from(capacity.max(1)))
        .sum::<f64>()
        / f64::from(ncores);
    let qos_report = cfg.qos.as_ref().map(|_| {
        let mut per_class = [ClassReport::default(); 3];
        for i in 0..3 {
            per_class[i] = ClassReport {
                offered: class_offered[i],
                completed: class_completed[i],
                shed: class_shed[i],
                p50_ms: crate::stats::p50(&class_lat[i]),
                p99_ms: crate::stats::p99(&class_lat[i]),
            };
        }
        let offered_total: u64 = class_offered.iter().sum();
        let shed_total: u64 = class_shed.iter().sum();
        QosReport {
            per_class,
            shed_total,
            shed_rate: if offered_total == 0 {
                0.0
            } else {
                shed_total as f64 / offered_total as f64
            },
            goodput_rps: class_completed.iter().sum::<u64>() as f64
                / (cfg.duration_ms.max(1) as f64 / 1000.0),
        }
    });
    // Built once at the end from the per-core counters — zero hot-path
    // cost — then folded into one registry, the same merge-at-export
    // shape the runtime uses per shard.
    let mut registry = Registry::new();
    for core in &cores {
        registry.merge_from(&core_registry(core, cfg.seed));
    }
    // QoS series join the snapshot only when the layer is on, so legacy
    // configs keep their byte-identical telemetry sections.
    if let Some(rep) = &qos_report {
        registry.merge_from(&qos_registry(rep, &class_hist));
    }
    MultiCoreReport {
        cores: ncores,
        offered: requests.len() as u64,
        completed,
        throughput_rps: completed as f64 / (cfg.duration_ms as f64 / 1000.0),
        mean_latency_ms: crate::stats::mean(&latencies),
        p99_latency_ms: crate::stats::p99(&latencies),
        occupancy,
        qos: qos_report,
        totals,
        per_core,
        traces,
        latency_per_core,
        exemplars,
        registry,
    }
}

/// Renders one core's counters as a metrics registry. Per-core registries
/// merge into the run-wide snapshot embedded in `BENCH_multicore.json`:
/// counters sum, and the latency histogram is registered twice — once
/// labeled `{core="N"}` (per-shard distribution, distinct series survive
/// the merge) and once unlabeled (the same buckets, which `merge_from`
/// sums bucket-wise into the cross-shard distribution).
fn core_registry(core: &Core, seed: u64) -> Registry {
    let mut reg = Registry::new();
    let counters: [(&str, u64); 11] = [
        ("sfi_shard_completed_total", core.m.completed),
        ("sfi_shard_steals_total", core.m.steals),
        ("sfi_shard_ctx_switches_total", core.m.ctx_switches),
        ("sfi_shard_dtlb_misses_total", core.m.dtlb_misses),
        ("sfi_shard_busy_ns_total", core.m.busy_ns),
        ("sfi_shard_overhead_ns_total", core.m.overhead_ns),
        ("sfi_shard_cold_spawns_total", core.m.cold_spawns),
        ("sfi_shard_warm_spawns_total", core.m.warm_spawns),
        ("sfi_shard_recycles_total", core.m.recycles),
        ("sfi_shard_spawn_ns_total", core.m.spawn_ns),
        ("sfi_shard_trace_events_total", core.rec.total_recorded() - core.flow),
    ];
    for (name, v) in counters {
        let id = reg.counter(name);
        reg.add(id, v);
    }
    // Span edges are the one series the profiler adds; every modeled series
    // above is byte-identical with spans on or off.
    if core.flow > 0 {
        let spans = reg.counter("sfi_shard_span_events_total");
        reg.add(spans, core.flow);
    }
    // Per-access dTLB events are the hottest series the shard produces, so
    // they additionally export through the deterministic 1-in-N sampler
    // (rate in the labels; each shard samples at its own seeded phase). The
    // exact counter above stays — the sampled series exists so scrapers of
    // the live endpoint can verify the documented `value × rate` estimate.
    let sampled =
        reg.sampled_counter("sfi_shard_dtlb_events_total", &[], DTLB_SAMPLE_RATE, seed ^ u64::from(core.idx));
    reg.sample_trials(sampled, core.m.dtlb_misses);
    let resident = reg.gauge("sfi_shard_resident_slots");
    reg.set(resident, i64::from(core.resident));
    let peak = reg.gauge("sfi_shard_peak_resident_slots");
    reg.set(peak, i64::from(core.peak_resident));
    let core_label = core.idx.to_string();
    let per_core = reg.try_histogram("sfi_shard_request_latency_ns", &[("core", &core_label)])
        .expect("one registry per core");
    let merged = reg.histogram("sfi_shard_request_latency_ns");
    for (id, hist) in [(per_core, &core.lat), (merged, &core.lat)] {
        reg.merge_histogram(id, hist);
    }
    reg
}

/// Renders the per-class QoS counters and latency distributions as a
/// registry (`sfi_qos_*` namespace, every series labeled by SLO class).
/// Merged into the run-wide snapshot only when QoS is enabled.
fn qos_registry(rep: &QosReport, hists: &[CycleHistogram; 3]) -> Registry {
    let mut reg = Registry::new();
    for (i, class) in SloClass::ALL.iter().enumerate() {
        let labels: [(&'static str, &str); 1] = [("class", class.name())];
        let counters: [(&'static str, u64); 3] = [
            ("sfi_qos_offered_total", rep.per_class[i].offered),
            ("sfi_qos_completed_total", rep.per_class[i].completed),
            ("sfi_qos_shed_total", rep.per_class[i].shed),
        ];
        for (name, v) in counters {
            let id = reg.try_counter(name, &labels).expect("one qos registry per run");
            reg.add(id, v);
        }
        let h = reg
            .try_histogram("sfi_qos_request_latency_ns", &labels)
            .expect("one qos registry per run");
        reg.merge_histogram(h, &hists[i]);
    }
    reg
}

/// Sampling rate for the per-access dTLB event series (recorded in the
/// series' `sample_rate` label).
pub const DTLB_SAMPLE_RATE: u64 = 64;

#[cfg(test)]
mod tests {
    use super::*;
    use sfi_telemetry::json_snapshot;

    fn quick(mode: ScalingMode, cache: CacheMode, cores: u32) -> MultiCoreReport {
        let mut cfg = MultiCoreConfig::paper_rig(FaasWorkload::HashLoadBalance, mode, cache, cores);
        cfg.duration_ms = 120;
        simulate_multicore(&cfg)
    }

    #[test]
    fn determinism() {
        let a = quick(ScalingMode::ColorGuard, CacheMode::Warm, 4);
        let b = quick(ScalingMode::ColorGuard, CacheMode::Warm, 4);
        assert_eq!(a, b);
    }

    #[test]
    fn warm_cache_beats_cold() {
        let cold = quick(ScalingMode::ColorGuard, CacheMode::Cold, 2);
        let warm = quick(ScalingMode::ColorGuard, CacheMode::Warm, 2);
        assert!(
            warm.throughput_rps > cold.throughput_rps,
            "warm {} vs cold {}",
            warm.throughput_rps,
            cold.throughput_rps
        );
        assert!(warm.totals.warm_spawns > 0);
        assert_eq!(cold.totals.warm_spawns, 0, "cold mode never hits the cache");
    }

    #[test]
    fn colorguard_shares_one_cache_processes_do_not() {
        let cg = quick(ScalingMode::ColorGuard, CacheMode::Warm, 4);
        assert_eq!(cg.totals.cold_spawns, 1, "one address space, one compile");
        let mp = quick(ScalingMode::MultiProcess { processes: 15 }, CacheMode::Warm, 4);
        assert!(
            mp.totals.cold_spawns > cg.totals.cold_spawns,
            "every worker process pays its own compile: {}",
            mp.totals.cold_spawns
        );
    }

    #[test]
    fn throughput_scales_with_cores() {
        let one = quick(ScalingMode::ColorGuard, CacheMode::Warm, 1);
        let four = quick(ScalingMode::ColorGuard, CacheMode::Warm, 4);
        let ratio = four.throughput_rps / one.throughput_rps;
        assert!(ratio >= 3.0, "1→4 core scaling {ratio:.2}× (need ≥ 3×)");
        assert_eq!(four.offered, one.offered * 4, "offered load scales per core");
    }

    #[test]
    fn stealing_fires_and_is_deterministic() {
        // Ring placement is uneven, so lighter cores steal from heavier
        // ones once their own queues drain.
        let a = quick(ScalingMode::ColorGuard, CacheMode::Warm, 8);
        let b = quick(ScalingMode::ColorGuard, CacheMode::Warm, 8);
        assert_eq!(a.per_core, b.per_core);
        assert!(a.totals.steals > 0, "8 uneven cores must steal");
    }

    #[test]
    fn residency_is_bounded_and_recycled() {
        let r = quick(ScalingMode::ColorGuard, CacheMode::Cold, 1);
        // Cold spawns are slow enough that the 15-color pool saturates and
        // queued requests are admitted via recycles.
        assert!(r.totals.recycles > 0, "overload must recycle slots");
    }

    #[test]
    fn traces_are_recorded_and_deterministic() {
        // Spawn events all land in the first milliseconds (before the color
        // pool saturates and admissions shift to recycles), so use a ring
        // deep enough that wraparound doesn't evict them.
        let deep = |_| {
            let mut cfg = MultiCoreConfig::paper_rig(
                FaasWorkload::HashLoadBalance,
                ScalingMode::ColorGuard,
                CacheMode::Warm,
                4,
            );
            cfg.duration_ms = 120;
            cfg.trace_capacity = 1 << 16;
            simulate_multicore(&cfg)
        };
        let a = deep(());
        let b = deep(());
        assert_eq!(a.traces, b.traces, "same seed, same traces");
        assert_eq!(json_snapshot(&a.registry), json_snapshot(&b.registry));
        assert_eq!(a.traces.len(), 4, "one trace ring per core");
        let all: Vec<&TraceEvent> = a.traces.iter().flatten().collect();
        assert!(!all.is_empty());
        for kind in [TraceKind::Spawn, TraceKind::Enter, TraceKind::Exit, TraceKind::Steal] {
            assert!(all.iter().any(|e| e.kind == kind), "missing {} events", kind.name());
        }
        // Every core's ring is in tick order (oldest first).
        for ring in &a.traces {
            assert!(ring.windows(2).all(|w| w[0].tick <= w[1].tick));
        }
        assert!(json_snapshot(&a.registry).contains("sfi_shard_steals_total"));
    }

    #[test]
    fn qos_sheds_batch_first_and_shields_latency_sensitive() {
        let overload = |_| {
            let mut cfg = MultiCoreConfig::paper_rig(
                FaasWorkload::HashLoadBalance,
                ScalingMode::ColorGuard,
                CacheMode::Warm,
                1,
            );
            cfg.duration_ms = 200;
            // 2× the closed-loop saturation load, open loop: queues build.
            cfg.arrivals = ArrivalModel::Poisson { rate_rps: 80_000.0 };
            cfg.qos = Some(QosConfig::paper_rig());
            simulate_multicore(&cfg)
        };
        let a = overload(());
        let b = overload(());
        assert_eq!(a, b, "QoS runs replay byte-identically");
        let q = a.qos.as_ref().expect("qos enabled");
        let [ls, std_, batch] = &q.per_class;
        assert!(batch.shed > 0, "overload must shed batch work");
        assert_eq!(ls.shed, 0, "latency-sensitive work is never watermark-shed");
        let rate = |c: &ClassReport| c.shed as f64 / c.offered.max(1) as f64;
        assert!(
            rate(batch) > rate(std_) && rate(std_) >= rate(ls),
            "shed ordering lowest class first: batch {} std {} ls {}",
            rate(batch),
            rate(std_),
            rate(ls)
        );
        assert!(ls.completed > 0);
        assert!(q.shed_total > 0 && q.shed_rate > 0.0 && q.goodput_rps > 0.0);
        assert!((a.occupancy - 1.0).abs() < 1e-9, "overload pins occupancy at 1.0");
        assert!(json_snapshot(&a.registry).contains("sfi_qos_shed_total"));
        assert!(a.traces.iter().flatten().any(|e| e.kind == TraceKind::Shed));
    }

    #[test]
    fn qos_off_leaves_stream_and_telemetry_untouched() {
        let run = |qos: Option<QosConfig>| {
            let mut cfg = MultiCoreConfig::paper_rig(
                FaasWorkload::HashLoadBalance,
                ScalingMode::ColorGuard,
                CacheMode::Warm,
                2,
            );
            cfg.duration_ms = 120;
            cfg.qos = qos;
            simulate_multicore(&cfg)
        };
        let off = run(None);
        let on = run(Some(QosConfig::paper_rig()));
        // Class assignment is a separate draw stream: same arrivals.
        assert_eq!(off.offered, on.offered);
        assert!(off.qos.is_none());
        assert!(
            !json_snapshot(&off.registry).contains("sfi_qos_"),
            "legacy configs must not grow new series"
        );
        // Under closed-loop saturation the QoS engine completes work too.
        assert!(on.qos.as_ref().unwrap().per_class.iter().any(|c| c.completed > 0));
    }

    #[test]
    fn occupancy_tracks_offered_load() {
        let at = |rate: f64| {
            let mut cfg = MultiCoreConfig::paper_rig(
                FaasWorkload::HashLoadBalance,
                ScalingMode::ColorGuard,
                CacheMode::Warm,
                2,
            );
            cfg.duration_ms = 150;
            cfg.arrivals = ArrivalModel::Poisson { rate_rps: rate };
            simulate_multicore(&cfg)
        };
        let light = at(2_000.0);
        let heavy = at(120_000.0);
        assert!(light.occupancy < heavy.occupancy, "{} vs {}", light.occupancy, heavy.occupancy);
        assert!(heavy.occupancy <= 1.0 + 1e-9);
    }

    #[test]
    fn spans_do_not_perturb_results_and_form_request_trees() {
        use sfi_telemetry::unpack_span;
        let run = |spans: bool| {
            let mut cfg = MultiCoreConfig::paper_rig(
                FaasWorkload::HashLoadBalance,
                ScalingMode::ColorGuard,
                CacheMode::Cold,
                2,
            );
            cfg.duration_ms = 120;
            cfg.trace_capacity = 1 << 16;
            cfg.spans = spans;
            simulate_multicore(&cfg)
        };
        let off = run(false);
        let on = run(true);
        // Zero observer effect: spans change no benchmark result field.
        assert_eq!(off.completed, on.completed);
        assert_eq!(off.totals, on.totals);
        assert_eq!(off.p99_latency_ms, on.p99_latency_ms);
        // Every modeled series is untouched; the span-edge counter is the
        // one series the profiler itself adds.
        let modeled = |json: &str| -> String {
            match json.find("\"sfi_shard_span_events_total\"") {
                None => json.to_owned(),
                Some(i) => {
                    let rest = &json[i..];
                    let end = i + rest.find(", ").map_or(rest.len(), |e| e + 2);
                    format!("{}{}", &json[..i], &json[end..])
                }
            }
        };
        let (off_json, on_json) = (json_snapshot(&off.registry), json_snapshot(&on.registry));
        assert_eq!(modeled(&off_json), modeled(&on_json));
        assert!(on_json.contains("sfi_shard_span_events_total"));
        assert!(off.traces.iter().flatten().all(|e| e.kind != TraceKind::Flow));
        assert_eq!(off.exemplars, BucketExemplars::new(), "no exemplars without spans");

        // Same seed, same spans: the instrumented run replays exactly too.
        assert_eq!(on, run(true));

        let edges: Vec<(u64, sfi_telemetry::SpanEdge)> = on
            .traces
            .iter()
            .flatten()
            .filter(|e| e.kind == TraceKind::Flow)
            .map(|e| (e.sandbox, unpack_span(e.arg).expect("well-formed span arg")))
            .collect();
        assert!(!edges.is_empty(), "spans on must emit flow events");
        let count = |lvl: SpanLevel, start: bool, end: bool| {
            edges.iter().filter(|(_, s)| s.level == lvl && s.start == start && s.end == end).count()
                as u64
        };
        // Every completion closes its invoke span; opens can exceed closes
        // (requests still running at the horizon).
        assert_eq!(count(SpanLevel::Invoke, false, true), on.completed);
        assert!(count(SpanLevel::Invoke, true, false) >= on.completed);
        // Cold-cache saturation queues requests, so wait spans open, and
        // recycle admissions close them (paired with an admission instant).
        assert!(count(SpanLevel::QueueWait, true, false) > 0);
        assert!(count(SpanLevel::QueueWait, false, true) > 0);
        assert!(count(SpanLevel::Admission, true, true) > 0);

        // Exemplars chase back to real request trace ids.
        let ids: std::collections::BTreeSet<u64> = edges.iter().map(|(tid, _)| *tid).collect();
        let mut seen = 0;
        for i in 0..40 {
            if let Some((tid, _)) = on.exemplars.get(i) {
                seen += 1;
                assert!(ids.contains(&tid), "exemplar trace id {tid} has no span edge");
            }
        }
        assert!(seen > 0, "completions must leave exemplars");
    }

    #[test]
    fn trace_capacity_zero_disables_recording() {
        let mut cfg = MultiCoreConfig::paper_rig(
            FaasWorkload::HashLoadBalance,
            ScalingMode::ColorGuard,
            CacheMode::Warm,
            2,
        );
        cfg.duration_ms = 120;
        cfg.trace_capacity = 0;
        let off = simulate_multicore(&cfg);
        assert!(off.traces.iter().all(Vec::is_empty));
        // Tracing must not perturb the simulation itself.
        let on = quick(ScalingMode::ColorGuard, CacheMode::Warm, 2);
        assert_eq!(off.completed, on.completed);
        assert_eq!(off.totals, on.totals);
        assert_eq!(off.p99_latency_ms, on.p99_latency_ms);
    }
}
