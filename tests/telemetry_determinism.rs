//! Telemetry regression: the observability layer must itself be a pure
//! function of the seed. Same-seed runs export byte-identical flight
//! recorder dumps and metric snapshots (the acceptance criterion of the
//! telemetry PR), the ring buffer wraps without losing order, histogram
//! buckets sit exactly on powers of two, and Prometheus label values escape
//! per the text-format rules. Companion to `multicore_determinism.rs`,
//! which pins the *simulated* numbers — this file pins their *exports*.

use std::sync::Arc;

use segue_colorguard::core::{compile, CompilerConfig, Strategy};
use segue_colorguard::faas::{
    simulate_multicore, CacheMode, FaasWorkload, MultiCoreConfig, ScalingMode,
};
use segue_colorguard::runtime::{Runtime, RuntimeConfig};
use segue_colorguard::telemetry::{
    json_is_valid, json_snapshot, prometheus_text, CycleHistogram, FlightRecorder, Registry,
    TraceEvent, TraceKind, HISTOGRAM_BUCKETS,
};

const SEED: u64 = 0xD15EA5E;

fn rig(cores: u32) -> MultiCoreConfig {
    let mut cfg = MultiCoreConfig::paper_rig(
        FaasWorkload::HashLoadBalance,
        ScalingMode::ColorGuard,
        CacheMode::Warm,
        cores,
    );
    cfg.seed = SEED;
    cfg.duration_ms = 150;
    cfg
}

/// The PR's headline acceptance criterion: two same-seed FaaS runs produce
/// byte-identical flight-recorder dumps and metric snapshots.
#[test]
fn same_seed_runs_export_byte_identical_traces_and_snapshots() {
    let a = simulate_multicore(&rig(4));
    let b = simulate_multicore(&rig(4));
    assert_eq!(a.traces, b.traces, "flight recorder must replay byte-identically");
    let (snap_a, snap_b) = (json_snapshot(&a.registry), json_snapshot(&b.registry));
    assert_eq!(snap_a, snap_b, "metric snapshot must replay byte-identically");
    assert!(json_is_valid(&snap_a), "{snap_a}");
    // The dump form too — the exact strings a fault report would embed.
    let dump_a: Vec<String> =
        a.traces.iter().flatten().map(TraceEvent::dump_line).collect();
    let dump_b: Vec<String> =
        b.traces.iter().flatten().map(TraceEvent::dump_line).collect();
    assert_eq!(dump_a, dump_b);
    assert!(!dump_a.is_empty());
}

/// The runtime's own registry exports identically across two identically
/// seeded engines driving the same guest.
#[test]
fn runtime_snapshots_are_deterministic() {
    let run = || {
        let m = segue_colorguard::wasm::wat::parse(
            r#"(module (memory 1)
                (func (export "get") (param $p i32) (result i32)
                  local.get $p i32.load))"#,
        )
        .unwrap();
        let cm = Arc::new(compile(&m, &CompilerConfig::for_strategy(Strategy::Segue)).unwrap());
        let mut rt = Runtime::new(RuntimeConfig::small_test(true)).unwrap();
        let id = rt.instantiate(cm).unwrap();
        for _ in 0..5 {
            rt.invoke(id, "get", &[64]).unwrap();
        }
        rt.telemetry_snapshot()
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "same guest, same config, same snapshot");
    assert!(json_is_valid(&a), "{a}");
    assert!(a.contains("sfi_transitions_total"));
    assert!(a.contains("sfi_invocation_transition_cycles"));
    // Snapshotting is idempotent: a second scrape with no new work must not
    // double-count the delta-based counters.
    let mut rt = Runtime::new(RuntimeConfig::small_test(true)).unwrap();
    let s1 = rt.telemetry_snapshot();
    let s2 = rt.telemetry_snapshot();
    assert_eq!(s1, s2);
}

/// Ring wraparound: a full recorder drops the *oldest* events, keeps
/// arrival order, and still counts everything it ever saw.
#[test]
fn flight_recorder_wraps_oldest_first() {
    let mut rec = FlightRecorder::new(4);
    for i in 0..10u64 {
        rec.record(TraceEvent { tick: i, core: 0, sandbox: i, kind: TraceKind::Enter, arg: i });
    }
    assert_eq!(rec.len(), 4, "capacity bounds residency");
    assert_eq!(rec.total_recorded(), 10, "wraparound must not lose the count");
    let ticks: Vec<u64> = rec.events().iter().map(|e| e.tick).collect();
    assert_eq!(ticks, [6, 7, 8, 9], "last 4 events, oldest first");

    // Capacity 0 is the documented off switch.
    let mut off = FlightRecorder::disabled();
    off.record(TraceEvent { tick: 1, core: 0, sandbox: 0, kind: TraceKind::Enter, arg: 0 });
    assert!(!off.is_enabled());
    assert_eq!(off.total_recorded(), 0);
    assert!(off.events().is_empty());
}

/// Histogram bucket boundaries: `2^k` is the *first* value of bucket `k+1`,
/// so `2^k − 1` and `2^k` must report different upper bounds and the upper
/// bound of every interior bucket is `2^i − 1`.
#[test]
fn histogram_buckets_split_exactly_at_powers_of_two() {
    for k in 2..24u32 {
        let boundary = 1u64 << k;
        let mut below = CycleHistogram::new();
        below.record(boundary - 1);
        let mut at = CycleHistogram::new();
        at.record(boundary);
        assert_eq!(below.p50(), boundary - 1, "2^{k}-1 caps its own bucket");
        assert_eq!(at.p50(), boundary, "2^{k} opens the next bucket (max is exact)");
    }
    for i in 1..HISTOGRAM_BUCKETS - 1 {
        assert_eq!(CycleHistogram::bucket_upper_bound(i), (1u64 << i) - 1);
    }
    assert_eq!(CycleHistogram::bucket_upper_bound(0), 0);
    assert_eq!(CycleHistogram::bucket_upper_bound(HISTOGRAM_BUCKETS - 1), u64::MAX);
}

/// Prometheus label escaping: `\`, `"` and newline in a label value must
/// render per the text-format rules, in both exporters, and the escaped
/// JSON must still parse.
#[test]
fn prometheus_label_values_escape() {
    let mut r = Registry::new();
    let c = r.counter_with("sfi_test_paths_total", &[("path", "a\"b\\c\nd")]);
    r.add(c, 3);
    let text = prometheus_text(&r);
    assert!(
        text.contains(r#"sfi_test_paths_total{path="a\"b\\c\nd"} 3"#),
        "escaped text-format series: {text}"
    );
    let json = json_snapshot(&r);
    assert!(json_is_valid(&json), "escaped key must survive JSON embedding: {json}");

    // A label-free series is unaffected.
    let mut plain = Registry::new();
    let p = plain.counter("sfi_plain_total");
    plain.inc(p);
    assert!(prometheus_text(&plain).contains("sfi_plain_total 1\n"));
}

/// Merging per-shard registries is order-insensitive for counters and
/// histogram quantiles — required for the multi-core merge-at-export path.
#[test]
fn shard_merge_is_order_insensitive() {
    let shard = |n: u64| {
        let mut r = Registry::new();
        let c = r.counter("sfi_work_total");
        r.add(c, n);
        let h = r.histogram("sfi_cycles");
        r.observe(h, n * 100);
        r
    };
    let (a, b, c) = (shard(1), shard(10), shard(100));
    let mut fwd = Registry::new();
    for s in [&a, &b, &c] {
        fwd.merge_from(s);
    }
    let mut rev = Registry::new();
    for s in [&c, &b, &a] {
        rev.merge_from(s);
    }
    assert_eq!(json_snapshot(&fwd), json_snapshot(&rev));
    assert_eq!(fwd.counter_value("sfi_work_total"), Some(111));
}
