//! §6.4.1: the transition microbenchmark.
//!
//! The paper measures Wasmtime's per-transition cost at 30.34 ns, rising to
//! 51.52 ns with ColorGuard (one `wrpkru` per direction, ≈44 cycles at the
//! pinned 2.2 GHz). This binary reports the model's transition costs and
//! cross-checks them against an actual end-to-end invocation through the
//! multi-instance runtime.
//!
//! Every run also gates its artifact: the cross-check's p50 transition
//! cycles must stay within the drift bound of the DESIGN.md §10
//! calibration record (the cost-model canary).

use std::sync::Arc;

use sfi_bench::{Artifact, Json, Obj};
use sfi_core::{compile, CompilerConfig, Strategy};
use sfi_runtime::{Runtime, RuntimeConfig, TransitionKind, TransitionModel, MEM_ACCESS_SAMPLE_RATE};

const DESIGN: &str = include_str!("../../../../DESIGN.md");

fn main() {
    println!("§6.4.1: transition microbenchmark\n");
    let tm = TransitionModel::default();
    let plain = TransitionKind::default();
    let cg = TransitionKind { colorguard: true, ..TransitionKind::default() };
    let seg = TransitionKind { set_segment_base: true, ..TransitionKind::default() };
    let seg_syscall = TransitionKind {
        set_segment_base: true,
        segment_base_via_syscall: true,
        ..TransitionKind::default()
    };

    println!("modelled per-transition costs (2.2 GHz):");
    println!("  baseline                     {:6.2} ns ({:5.1} cycles)", tm.ns(plain), tm.cycles(plain));
    println!("  + ColorGuard (wrpkru)        {:6.2} ns ({:5.1} cycles)", tm.ns(cg), tm.cycles(cg));
    println!("  + Segue (wrgsbase)           {:6.2} ns ({:5.1} cycles)", tm.ns(seg), tm.cycles(seg));
    println!("  + Segue via arch_prctl       {:6.2} ns ({:5.1} cycles)", tm.ns(seg_syscall), tm.cycles(seg_syscall));
    println!("  (paper: 30.34 ns baseline, 51.52 ns with ColorGuard — a ~44-cycle increase)\n");

    // End-to-end cross-check: invoke a trivial export through the runtime
    // and read back the charged transition cycles.
    let module = sfi_wasm::wat::parse(
        r#"(module (memory 1)
             (func (export "noop") (result i32) i32.const 1))"#,
    )
    .expect("static module");
    let cm = Arc::new(
        compile(&module, &CompilerConfig::for_strategy(Strategy::Segue)).expect("compiles"),
    );

    let mut runs = Vec::new();
    let mut p50s = Vec::new();
    for colorguard in [false, true] {
        let mut rt = Runtime::new(RuntimeConfig::small_test(colorguard)).expect("runtime");
        let inst = rt.instantiate(Arc::clone(&cm)).expect("slot available");
        let reps = 10;
        for _ in 0..reps {
            rt.invoke(inst, "noop", &[]).expect("runs");
        }
        println!(
            "runtime, colorguard={colorguard}: {} transitions over {reps} invocations, \
             mean {:.2} ns/transition",
            rt.transitions.count,
            rt.transitions.mean_ns(&tm)
        );
        runs.push(
            Obj::new()
                .with("colorguard", colorguard)
                .with("telemetry", Json::raw(rt.telemetry_snapshot())),
        );
        let registry = rt.telemetry().registry();
        let sampled = format!("sfi_guest_mem_accesses_total{{sample_rate=\"{MEM_ACCESS_SAMPLE_RATE}\"}}");
        assert!(
            registry.counter_value(&sampled).is_some(),
            "the snapshot must declare the guest-access sampling rate ({sampled})"
        );
        let transitions = registry
            .histogram_values("sfi_invocation_transition_cycles")
            .expect("the runtime registers the transition-cycle histogram");
        p50s.push(transitions.p50() as f64);
    }

    // The cross-check runs' full runtime metric registries — transition op
    // counters, the invocation-transition cycle histogram, pool gauges —
    // exported per configuration, the same `"telemetry"` shape
    // `figX_multicore` embeds.
    let modeled_ns = Obj::new()
        .float("baseline", tm.ns(plain), 3)
        .float("colorguard", tm.ns(cg), 3)
        .float("segue_wrgsbase", tm.ns(seg), 3)
        .float("segue_arch_prctl", tm.ns(seg_syscall), 3);
    println!();
    Artifact::new("sec641_transitions", Obj::new().with("modeled_ns", modeled_ns).with("runs", runs))
        .write("BENCH_sec641.json");

    sfi_bench::check_calibration(DESIGN, "sec641", &[("baseline", p50s[0]), ("colorguard", p50s[1])]);
}
