//! Determinism regression for the sharded multi-core engine: the entire
//! simulation — scheduling, stealing, cache warm-up, TLB accounting — is a
//! pure function of its seed. Same seed, same everything; this is what
//! makes `BENCH_multicore.json` reviewable in diffs.

use segue_colorguard::faas::{
    simulate_multicore, CacheMode, FaasWorkload, MultiCoreConfig, ScalingMode,
};
use segue_colorguard::faas::hashlb::fnv1a;
use sfi_bench::sweep::trace_json;
use sfi_bench::MulticoreSweep;

const SEED: u64 = 0xD15EA5E;

fn rig(cores: u32, seed: u64) -> MultiCoreConfig {
    let mut cfg = MultiCoreConfig::paper_rig(
        FaasWorkload::HashLoadBalance,
        ScalingMode::ColorGuard,
        CacheMode::Warm,
        cores,
    );
    cfg.seed = seed;
    cfg.duration_ms = 150;
    cfg
}

/// Same seed → the full report (throughput, latency percentiles, and every
/// per-core counter: steals, context switches, dTLB misses, spawn split)
/// is identical at every core count.
#[test]
fn same_seed_reproduces_every_counter_at_every_core_count() {
    for cores in [1, 4, 8] {
        let a = simulate_multicore(&rig(cores, SEED));
        let b = simulate_multicore(&rig(cores, SEED));
        assert_eq!(a, b, "{cores}-core run must be a pure function of the seed");
        assert_eq!(a.per_core.len(), cores as usize);
        for (i, (ca, cb)) in a.per_core.iter().zip(&b.per_core).enumerate() {
            assert_eq!(ca.steals, cb.steals, "core {i} steals @ {cores} cores");
            assert_eq!(ca.ctx_switches, cb.ctx_switches, "core {i} ctx switches @ {cores} cores");
            assert_eq!(ca.dtlb_misses, cb.dtlb_misses, "core {i} dTLB misses @ {cores} cores");
            assert_eq!(
                (ca.cold_spawns, ca.warm_spawns),
                (cb.cold_spawns, cb.warm_spawns),
                "core {i} spawn split @ {cores} cores"
            );
        }
        assert!(a.completed > 0, "the rig must actually complete work at {cores} cores");
    }
}

/// A different seed must actually change the schedule (the determinism test
/// is vacuous if the seed is ignored).
#[test]
fn the_seed_is_live() {
    let a = simulate_multicore(&rig(4, SEED));
    let b = simulate_multicore(&rig(4, SEED ^ 0xFF));
    assert_ne!(a, b, "different seeds must produce different schedules");
}

/// The sweep artifact itself: two same-seed renderings are byte-identical,
/// including float formatting.
#[test]
fn sweep_json_is_byte_identical_for_the_same_seed() {
    let a = MulticoreSweep::run(SEED, 100, &[1, 4, 8]).artifact().render();
    let b = MulticoreSweep::run(SEED, 100, &[1, 4, 8]).artifact().render();
    assert_eq!(a, b);
    assert!(a.contains("\"cores\": 8"), "sweep covers 8 cores");
}

/// `TRACE_multicore.json` as `figX_multicore` writes it for the default
/// seed: (byte length, FNV-1a of the bytes). The file is not committed, so
/// this pin is its drift check; re-recording it means changing this
/// constant, with the reason in CHANGES.md.
const TRACE_MULTICORE: (usize, u64) = (490_879, 0x52c5_4bcd_2f6f_c4f5);

#[test]
fn trace_multicore_json_bytes_are_pinned() {
    let cores = *MulticoreSweep::CORES.iter().max().unwrap();
    let report =
        MulticoreSweep::headline_run(MulticoreSweep::SEED, MulticoreSweep::DURATION_MS, cores);
    let trace = trace_json(&report);
    let (len, digest) = (trace.len(), fnv1a(trace.as_bytes()));
    assert!(
        (len, digest) == TRACE_MULTICORE,
        "TRACE_multicore.json drifted: {len} bytes, digest {digest:#x}"
    );
}
