//! # hostbench: the lab's host-time benchmark
//!
//! The lab's claims are carried by *modeled* cycles; host time decides how
//! many seeds, cells and figures it can afford. hostbench measures host
//! time end to end on four closed-loop workloads (one caller, no think
//! time), checks every op's outputs against independent references, and,
//! in a separate traced run, splits op time across the layers it calls.
//! It drives the lab only through public functions.
//!
//! See `README.md` next to this crate for the metric and workload tables.

#![forbid(unsafe_code)]

pub mod bench;
pub mod compare;
pub mod json;
pub mod oracle;
pub mod report;
pub mod rng;
pub mod stats;
pub mod trace;
pub mod workloads;

use bench::{run, Outcome, RunConfig};
use workloads::{corpus, differential, fleet, invoke};

/// The workloads and why each was chosen (one line each).
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "corpus_exec",
        "Figure 3-5 path: compiled corpus kernels on the emulator; per-instruction emulation \
         dominates, so compiler, runtime and simulator changes should read as no change",
    ),
    (
        "differential",
        "equivalence-gate path: random programs compiled 12 ways, emulated and interpreted, with \
         speculative gadget sweeps; compile time and per-call emulator set-up dominate",
    ),
    (
        "faas_invoke",
        "pooled-runtime path: tenant WAT parse, tiered spawns through a Zipf-hot LRU code cache, \
         invokes over the MPK address space, hostile traps recycled",
    ),
    (
        "faas_fleet",
        "modeled serving stack: fleet rounds of both discrete-event simulators plus telemetry \
         scrapes; no emulation, so emulator and compiler changes must read as no change",
    ),
];

/// Runs workload `name`; `None` for an unknown name.
pub fn run_workload(name: &str, cfg: &RunConfig) -> Option<Outcome> {
    Some(match name {
        "corpus_exec" => run::<corpus::CorpusExec>(cfg),
        "differential" => run::<differential::Differential>(cfg),
        "faas_invoke" => run::<invoke::FaasInvoke>(cfg),
        "faas_fleet" => run::<fleet::FaasFleet>(cfg),
        _ => return None,
    })
}

/// Ops of a `--quick` run of workload `name`: a few dozen, enough to
/// cross from an untraced into a traced block.
pub fn quick_ops(name: &str) -> u64 {
    match name {
        "corpus_exec" => 24,
        "faas_invoke" => 48,
        _ => 34,
    }
}

/// Digest of the first `ops` inputs of workload `name`'s op stream for
/// `seed`; `None` for an unknown name.
pub fn stream_digest(name: &str, seed: u64, quick: bool, ops: u64) -> Option<u64> {
    Some(match name {
        "corpus_exec" => corpus::stream_digest(seed, quick, ops),
        "differential" => differential::stream_digest(seed, ops),
        "faas_invoke" => invoke::stream_digest(seed, ops),
        "faas_fleet" => fleet::stream_digest(seed, ops),
        _ => return None,
    })
}
