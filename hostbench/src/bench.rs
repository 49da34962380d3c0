//! The closed-loop runner shared by every workload: set up (several times,
//! for a steady `setup_s`), compute references, then issue ops one after
//! another — one caller, no think time — until the run's time or op
//! budget is spent.

use std::time::Instant;

use crate::oracle::Failure;
use crate::stats::median;
use crate::trace::{Layer, Tracer};

/// Batches per phase for [`Phase::ops_per_s`].
const BATCHES: usize = 10;

/// How much to run and how to observe it.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// The workload seed: the op stream is a pure function of it.
    pub seed: u64,
    /// Measured phase length in seconds (ignored when `ops` is set). A
    /// workload whose op stream comes in units stops at a unit boundary.
    pub seconds: f64,
    /// Fixed work instead of a time budget: exactly this many ops.
    pub ops: Option<u64>,
    /// Small inputs, short warm-ups and a single set-up, for tests and
    /// smoke runs.
    pub quick: bool,
    /// Trace every other block of ops, for per-layer metrics.
    pub trace: bool,
}

impl RunConfig {
    /// A run of `seconds` of ops.
    pub fn timed(seed: u64, seconds: f64) -> RunConfig {
        RunConfig {
            seed,
            seconds,
            ops: None,
            quick: false,
            trace: false,
        }
    }

    /// A fixed-work quick configuration (what the tests run).
    pub fn quick(seed: u64, ops: u64) -> RunConfig {
        RunConfig {
            seed,
            seconds: 0.0,
            ops: Some(ops),
            quick: true,
            trace: false,
        }
    }
}

/// Set-ups per run, at least, and the set-up time to reach before
/// stopping, so that a set-up of a few milliseconds still yields a steady
/// median `setup_s`.
const SETUPS: usize = 3;
const SETUP_BUDGET_S: f64 = 0.5;

/// Op ids of warm-up ops start here, so they never repeat a measured op.
pub const WARM_UP_BASE: u64 = 1 << 40;

/// Failure bookkeeping for one phase.
#[derive(Debug, Default)]
pub struct Tally {
    /// Ops executed (warm-up included).
    pub attempted: u64,
    /// Ops that failed a check.
    pub failed: u64,
    /// The first few failures, for diagnosis.
    pub failures: Vec<Failure>,
}

impl Tally {
    /// Counts one op.
    pub fn record(&mut self, outcome: Result<(), Failure>) {
        self.attempted += 1;
        if let Err(f) = outcome {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(f);
            }
        }
    }
}

/// A workload: a system under test, its op stream and its oracles.
pub trait Workload: Sized {
    /// Reference outputs computed independently of the system under test,
    /// once per run (timed as `check_s`, outside `setup_s`).
    type Refs;

    /// Tail percentile reported as `op_tail_ms`: the highest of p99, p95
    /// and p90 with at least ten samples beyond it in a default run.
    const TAIL_PERCENTILE: f64;

    /// Computes the references for `seed`.
    fn references(seed: u64, quick: bool) -> Self::Refs;

    /// Generates inputs and builds the system under test.
    fn setup(seed: u64, quick: bool, refs: &Self::Refs) -> Self;

    /// Warm-up ops run after [`Workload::setup`], as part of set-up; the
    /// runner issues them through [`Workload::op`] with ids from
    /// [`WARM_UP_BASE`] and checks them like any other op.
    fn warm_up_ops(&self, _quick: bool) -> u64 {
        0
    }

    /// Ops per stream unit; a timed run ends only on a unit boundary.
    fn unit_ops(&self) -> u64 {
        1
    }

    /// Issues op `i` and checks its outputs.
    fn op(&mut self, i: u64, refs: &Self::Refs, tr: &mut Tracer) -> Result<(), Failure>;

    /// The size of the last op in work units, for workloads whose ops
    /// differ in size (see [`Phase::ops_per_s`]); 1 by default.
    fn last_op_weight(&self) -> f64 {
        1.0
    }

    /// Untimed work after the last op (replays that attribute a share of a
    /// call hostbench cannot split from outside).
    fn finish(&mut self, _tr: &mut Tracer) {}

    /// Cumulative counters since set-up (guest instructions, cache misses,
    /// traps, …); a phase reports their increase.
    fn counts(&self) -> Vec<(&'static str, f64)>;

    /// Modeled-side results that must repeat bit for bit: name, unit, value.
    fn exact(&self) -> Vec<(&'static str, &'static str, f64)> {
        Vec::new()
    }
}

/// The ops of one kind (untraced or traced) of a run.
#[derive(Debug, Default)]
pub struct Phase {
    /// Each op's wall time in ns, oracle time excluded, in op order.
    pub durations_ns: Vec<u64>,
    /// Each op's size in work units, in op order.
    pub weights: Vec<f64>,
    /// Counter increases over these ops, in [`Workload::counts`] order.
    pub counts: Vec<(&'static str, f64)>,
    /// Failures (the untraced tally also counts set-up's).
    pub tally: Tally,
}

impl Phase {
    /// Increase of counter `name` over the phase (0 if absent).
    pub fn count(&self, name: &str) -> f64 {
        self.counts
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    }

    /// Summed op time in seconds.
    pub fn busy_s(&self) -> f64 {
        self.durations_ns.iter().sum::<u64>() as f64 / 1e9
    }

    /// Throughput of ten equal batches of consecutive ops, in work units
    /// per second.
    pub fn batch_rates(&self) -> Vec<f64> {
        let per = self.durations_ns.len().div_ceil(BATCHES).max(1);
        self.durations_ns
            .chunks(per)
            .zip(self.weights.chunks(per))
            .map(|(d, w)| w.iter().sum::<f64>() / (d.iter().sum::<u64>().max(1) as f64 / 1e9))
            .collect()
    }

    /// Ops per second: the median batch's throughput, in ops of the
    /// phase's mean size. The median shrugs off bursts of machine noise
    /// that a plain total would average in; weighting by op size keeps
    /// batches of large and small ops comparable.
    pub fn ops_per_s(&self) -> f64 {
        let work: f64 = self.weights.iter().sum();
        if work <= 0.0 {
            return 0.0;
        }
        self.durations_ns.len() as f64 / work * median(&self.batch_rates())
    }

    /// The median op's time per work unit, in ns.
    pub fn median_ns_per_work(&self) -> f64 {
        let per: Vec<f64> = self
            .durations_ns
            .iter()
            .zip(&self.weights)
            .filter(|(_, w)| **w > 0.0)
            .map(|(d, w)| *d as f64 / w)
            .collect();
        median(&per)
    }
}

/// Everything one run measured.
#[derive(Debug)]
pub struct Outcome {
    /// Each set-up's wall time in seconds.
    pub setups_s: Vec<f64>,
    /// Reference computation time in seconds.
    pub check_s: f64,
    /// The untraced ops (end-to-end metrics).
    pub untraced: Phase,
    /// The traced ops and their spans, when tracing was asked for.
    pub traced: Option<(Phase, Tracer)>,
    /// Exact modeled results from the untraced phase.
    pub exact: Vec<(&'static str, &'static str, f64)>,
    /// Tail percentile used for `op_tail_ms`.
    pub tail_percentile: f64,
}

impl Outcome {
    /// Whether every op of every phase passed its checks.
    pub fn correct(&self) -> bool {
        self.untraced.tally.failed == 0
            && self
                .traced
                .as_ref()
                .is_none_or(|(p, _)| p.tally.failed == 0)
    }
}

/// Ops per traced or untraced block of a traced run.
const TRACE_BLOCK: u64 = 16;

/// Runs workload `W` under `cfg`.
pub fn run<W: Workload>(cfg: &RunConfig) -> Outcome {
    let t = Instant::now();
    let refs = W::references(cfg.seed, cfg.quick);
    let check_s = t.elapsed().as_secs_f64();

    let mut setups_s = Vec::new();
    let mut w = None;
    let mut tally = Tally::default();
    let (setups, budget_s) = if cfg.quick {
        (1, 0.0)
    } else {
        (SETUPS, SETUP_BUDGET_S)
    };
    while setups_s.len() < setups || setups_s.iter().sum::<f64>() < budget_s {
        drop(w.take());
        tally = Tally::default();
        let mut tr = Tracer::off();
        let t = Instant::now();
        let mut built = W::setup(cfg.seed, cfg.quick, &refs);
        for k in 0..built.warm_up_ops(cfg.quick) {
            tally.record(built.op(WARM_UP_BASE + k, &refs, &mut tr));
        }
        let check_ns = tr.take_check_ns();
        setups_s.push(t.elapsed().as_secs_f64() - check_ns as f64 / 1e9);
        w = Some(built);
    }
    let mut w = w.expect("at least one set-up");
    let (untraced, traced) = measure(&mut w, &refs, cfg, tally);
    let exact = w.exact();
    Outcome {
        setups_s,
        check_s,
        untraced,
        traced,
        exact,
        tail_percentile: W::TAIL_PERCENTILE,
    }
}

fn add_counts(
    into: &mut Vec<(&'static str, f64)>,
    from: &[(&'static str, f64)],
    to: &[(&'static str, f64)],
) {
    if into.is_empty() {
        into.extend(to.iter().map(|(name, _)| (*name, 0.0)));
    }
    for ((acc, (_, a)), (_, b)) in into.iter_mut().zip(from).zip(to) {
        acc.1 += b - a;
    }
}

/// Issues ops until the budget is spent. A traced run alternates blocks
/// of untraced and traced ops on one system, so both kinds see the same
/// state and the same machine noise, and the difference between them is
/// the tracing overhead.
fn measure<W: Workload>(
    w: &mut W,
    refs: &W::Refs,
    cfg: &RunConfig,
    tally: Tally,
) -> (Phase, Option<(Phase, Tracer)>) {
    let unit = w.unit_ops().max(1);
    // A traced run needs at least one block of each kind.
    let min_ops = if cfg.trace { 2 * TRACE_BLOCK } else { 0 };
    let mut tr = if cfg.trace {
        Tracer::on(1 << 16)
    } else {
        Tracer::off()
    };
    let mut untraced = Phase {
        durations_ns: Vec::with_capacity(1 << 14),
        tally,
        ..Phase::default()
    };
    let mut traced = Phase::default();
    let mut mark = w.counts();
    let mut in_traced_block = false;
    let start = Instant::now();
    let mut i = 0u64;
    loop {
        let done = match cfg.ops {
            Some(n) => i >= n,
            None => {
                i >= min_ops
                    && i.is_multiple_of(unit)
                    && start.elapsed().as_secs_f64() >= cfg.seconds
            }
        };
        if done || i.is_multiple_of(TRACE_BLOCK) {
            let now = w.counts();
            let phase = if in_traced_block {
                &mut traced
            } else {
                &mut untraced
            };
            add_counts(&mut phase.counts, &mark, &now);
            mark = now;
            if done {
                break;
            }
            in_traced_block = cfg.trace && (i / TRACE_BLOCK) % 2 == 1;
            tr.set_enabled(in_traced_block);
        }
        let t = Instant::now();
        let root = tr.begin_op(i);
        let outcome = w.op(i, refs, &mut tr);
        tr.end(root, Layer::Op);
        let phase = if in_traced_block {
            &mut traced
        } else {
            &mut untraced
        };
        phase
            .durations_ns
            .push((t.elapsed().as_nanos() as u64).saturating_sub(tr.take_check_ns()));
        phase.weights.push(w.last_op_weight());
        phase.tally.record(outcome);
        i += 1;
    }
    tr.set_enabled(cfg.trace);
    w.finish(&mut tr);
    (untraced, cfg.trace.then_some((traced, tr)))
}
