//! hostbench's own checks: op streams are pure functions of the seed,
//! quick fixed-work runs repeat their exact results, traced spans are
//! well formed, every oracle behind `failed` rejects a seeded violation,
//! and `BENCHMARK.json` matches the metric tables.

use hostbench::bench::{Outcome, RunConfig};
use hostbench::oracle::{
    check_attribution, check_exec, check_hostile, check_spec_cell, Failure, Heap, Reference,
};
use hostbench::report::{self, END_TO_END};
use hostbench::trace::Layer;
use hostbench::workloads::invoke;
use hostbench::{quick_ops, run_workload, stream_digest, WORKLOADS};
use sfi_core::harness::{execute_export, execute_speculative, spec_config_for};
use sfi_core::{compile, CompilerConfig, MitigationLevel, Strategy};
use sfi_runtime::{Engine, Runtime, RuntimeConfig};

fn quick(workload: &str, seed: u64, trace: bool) -> Outcome {
    let cfg = RunConfig {
        trace,
        ..RunConfig::quick(seed, quick_ops(workload))
    };
    run_workload(workload, &cfg).expect("known workload")
}

#[test]
fn op_streams_are_pure_functions_of_the_seed() {
    for (w, _) in WORKLOADS {
        let a = stream_digest(w, 1, true, 40).expect("known workload");
        let b = stream_digest(w, 1, true, 40).expect("known workload");
        let c = stream_digest(w, 2, true, 40).expect("known workload");
        assert_eq!(a, b, "{w}: seed 1 must give one op stream");
        assert_ne!(a, c, "{w}: seeds 1 and 2 must give different op streams");
    }
}

#[test]
fn quick_runs_are_correct_and_repeat_exactly() {
    for (w, _) in WORKLOADS {
        let (a, b) = (quick(w, 1, false), quick(w, 1, false));
        for o in [&a, &b] {
            assert!(o.correct(), "{w}: {:?}", o.untraced.tally.failures);
            assert_eq!(
                o.untraced.durations_ns.len() as u64,
                quick_ops(w),
                "{w}: fixed work"
            );
        }
        assert_eq!(
            a.untraced.tally.attempted, b.untraced.tally.attempted,
            "{w}"
        );
        assert_eq!(
            a.untraced.counts, b.untraced.counts,
            "{w}: counts must repeat exactly"
        );
        let bits = |o: &Outcome| {
            o.exact
                .iter()
                .map(|(n, _, v)| (*n, v.to_bits()))
                .collect::<Vec<_>>()
        };
        assert_eq!(
            bits(&a),
            bits(&b),
            "{w}: exact metrics must repeat bit for bit"
        );
    }
}

#[test]
fn counts_show_each_workloads_mechanism() {
    let count = |o: &Outcome, name: &str| o.untraced.count(name);
    let invoke = quick("faas_invoke", 1, false);
    assert!(count(&invoke, "cache_misses") > 0.0 && count(&invoke, "warm_spawns") > 0.0);
    let diff = quick("differential", 1, false);
    assert!(count(&diff, "spec_cells") > 0.0 && count(&diff, "cells") > 0.0);
    let corpus = quick("corpus_exec", 1, false);
    assert!(corpus
        .exact
        .iter()
        .any(|(n, _, v)| *n == "code_kb" && *v > 0.0));
}

#[test]
fn traced_spans_are_well_formed() {
    for (w, _) in WORKLOADS {
        let o = quick(w, 1, true);
        assert!(o.correct(), "{w}");
        let (phase, tr) = o.traced.as_ref().expect("traced");
        let spans = tr.spans();
        assert!(
            !spans.is_empty(),
            "{w}: a quick run crosses into a traced block"
        );
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans {
            assert!(
                s.start_ns <= s.end_ns,
                "{w}: span {} ends before it starts",
                s.span_id
            );
            if let Some(p) = s.parent {
                let parent = spans[p as usize];
                assert!(
                    parent.start_ns <= s.start_ns && s.end_ns <= parent.end_ns,
                    "{w}: child outside parent"
                );
                assert_eq!(
                    parent.op_id, s.op_id,
                    "{w}: a child belongs to its parent's op"
                );
                child_ns[p as usize] += s.duration_ns();
            } else {
                assert_eq!(s.layer, Layer::Op, "{w}: roots are op spans");
            }
        }
        for (s, c) in spans.iter().zip(&child_ns) {
            assert!(
                *c <= s.duration_ns(),
                "{w}: children of span {} overlap (self time < 0)",
                s.span_id
            );
        }

        // Self times outside the oracle add up to the op time the runner
        // measured (which leaves oracle time out).
        let layers = tr.summarize();
        let self_ns: u64 = layers
            .iter()
            .filter(|l| l.layer != Layer::Check)
            .map(|l| l.self_ns)
            .sum();
        let op_ns: u64 = phase.durations_ns.iter().sum();
        let gap = (self_ns as f64 - op_ns as f64).abs() / op_ns as f64;
        assert!(
            gap < 0.01,
            "{w}: layer self times {self_ns} ns vs op time {op_ns} ns"
        );

        let seen = |prefix: &str| {
            layers
                .iter()
                .any(|l| l.calls > 0 && l.layer.name().starts_with(prefix))
        };
        if w == "faas_fleet" {
            assert!(
                !seen("x86.") && !seen("runtime.") && !seen("core."),
                "fleet rounds emulate nothing"
            );
            assert!(
                seen("faas.shard") && seen("faas.sim"),
                "traced rounds attribute the simulators"
            );
        } else {
            assert!(!seen("faas.") && !seen("telemetry."), "{w}: no fleet spans");
        }
        let metrics = report::per_layer(phase, tr, &o.untraced, o.tail_percentile);
        assert_eq!(metrics.len(), report::per_layer_schema().len(), "{w}");
    }
}

/// A corrupted interpreter reference must fail the op: result and heap.
#[test]
fn oracle_rejects_a_corrupted_reference() {
    // The first generated program that runs to completion (many divide by
    // zero and trap).
    let (module, good) = (0..)
        .map(|seed| sfi_workloads::genprog::generate(seed).module())
        .map(|m| {
            let r = Reference::interpret(&m, "run", &[]);
            (m, r)
        })
        .find(|(_, r)| r.result.is_ok())
        .expect("some program completes");
    let cm = compile(&module, &CompilerConfig::for_strategy(Strategy::Segue)).expect("compiles");
    let out = execute_export(&cm, "run", &[]);
    assert_eq!(check_exec("good", &good, &out), Ok(()));
    assert_eq!(
        check_exec(
            "good digest",
            &Reference {
                heap: good.heap.to_digest(),
                ..good.clone()
            },
            &out
        ),
        Ok(())
    );

    let Ok(Some(v)) = good.result else {
        panic!("genprog exports return i32")
    };
    let bad_result = Reference {
        result: Ok(Some(v ^ 1)),
        ..good.clone()
    };
    assert!(matches!(
        check_exec("bad result", &bad_result, &out),
        Err(Failure::Result { .. })
    ));
    let bad_trap = Reference {
        result: Err(()),
        ..good.clone()
    };
    assert!(matches!(
        check_exec("reference trapped", &bad_trap, &out),
        Err(Failure::Trap { .. })
    ));

    let Heap::Bytes(mut bytes) = good.heap.clone() else {
        panic!("interpreted references hold bytes")
    };
    bytes[100] ^= 0x40;
    let bad_heap = Reference {
        heap: Heap::Bytes(bytes.clone()),
        ..good.clone()
    };
    assert!(matches!(
        check_exec("bad heap", &bad_heap, &out),
        Err(Failure::Heap { .. })
    ));
    let bad_digest = Reference {
        heap: Heap::Bytes(bytes).to_digest(),
        ..good
    };
    assert!(matches!(
        check_exec("bad digest", &bad_digest, &out),
        Err(Failure::Heap { .. })
    ));
}

/// A hostile request rewritten to stay in bounds no longer traps: the op
/// must fail.
#[test]
fn oracle_rejects_a_hostile_request_that_does_not_trap() {
    let mut rt = Runtime::new(RuntimeConfig::small_test(true)).expect("runtime");
    rt.set_quarantine_policy(invoke::QUARANTINE);
    let mut engine = Engine::new(8);
    let cfg = CompilerConfig::for_strategy(Strategy::Segue);
    let stride = rt.pool().layout().slot_bytes;
    for (offset, must_pass) in [(stride, true), (0, false)] {
        let module = sfi_wasm::wat::parse(&invoke::hostile_wat(offset)).expect("parses");
        let (id, _) = rt.spawn_tiered(&mut engine, &module, &cfg).expect("spawns");
        let out = rt.invoke(id, "run", &[]);
        let verdict = check_hostile("hostile", &out);
        assert_eq!(
            verdict.is_ok(),
            must_pass,
            "store at {offset:#x}: {verdict:?}"
        );
        if must_pass {
            rt.recycle(id).expect("recycles");
        } else {
            assert!(matches!(verdict, Err(Failure::HostileNotTrapped { .. })));
            rt.terminate(id).expect("terminates");
        }
    }
}

/// A cell marked declared-safe whose gadget leaks must fail the op.
#[test]
fn oracle_rejects_a_leaking_declared_safe_cell() {
    let gadget = sfi_workloads::genprog::gadget(3);
    let run = |level: MitigationLevel| {
        let cm = compile(
            &gadget,
            &CompilerConfig::for_strategy(Strategy::Segue).mitigated(level),
        )
        .expect("compiles");
        let spec = spec_config_for(&cm).expect("secret placement");
        execute_speculative(&cm, "run", &[], spec)
            .expect("runs")
            .stats
    };
    let leaky = run(MitigationLevel::None);
    assert!(
        leaky.spec_leaks > 0,
        "unmitigated Segue leaks on the gadget"
    );
    assert_eq!(
        check_spec_cell("segue/none", false, &leaky),
        Ok(()),
        "not declared safe: no verdict"
    );
    assert!(matches!(
        check_spec_cell("segue/none marked safe", true, &leaky),
        Err(Failure::DeclaredSafeLeak { .. })
    ));
    let masked = run(MitigationLevel::IndexMask);
    assert!(MitigationLevel::IndexMask.declared_safe(Strategy::Segue));
    assert_eq!(check_spec_cell("segue/index-mask", true, &masked), Ok(()));
}

/// A perturbed cycle bucket breaks the exact sum: the op must fail.
#[test]
fn oracle_rejects_a_perturbed_cycle_bucket() {
    let module = sfi_wasm::wat::parse(&sfi_workloads::kernels::fib(12, 1)).expect("parses");
    let cm = compile(
        &module,
        &CompilerConfig::for_strategy(Strategy::GuardRegion),
    )
    .expect("compiles");
    let stats = execute_export(&cm, "run", &[]).expect("runs").stats;
    assert_eq!(check_attribution("fib", &stats), Ok(()));
    let mut prov = stats;
    prov.prov_cycles[0] += 1.0;
    assert!(matches!(
        check_attribution("fib", &prov),
        Err(Failure::Attribution { .. })
    ));
    let mut penalty = stats;
    penalty.dcache_penalty_cycles += 0.5;
    assert!(check_attribution("fib", &penalty).is_err());
}

#[test]
fn benchmark_json_matches_the_metric_tables() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    assert_eq!(
        on_disk,
        report::benchmark_json(&WORKLOADS),
        "regenerate with `hostbench schema`"
    );

    let valid = |name: &str| {
        !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
    };
    let schema = report::per_layer_schema();
    assert!(schema.len() <= 128);
    let mut names: Vec<String> = schema.iter().map(|(n, _, _)| n.clone()).collect();
    names.extend(END_TO_END.iter().map(|d| d.name.to_owned()));
    names.extend(WORKLOADS.iter().map(|(n, _)| (*n).to_owned()));
    assert!(
        names.iter().all(|n| valid(n)),
        "metric and workload names use [A-Za-z0-9_.-]"
    );
    let total = names.len();
    names.sort();
    names.dedup();
    assert_eq!(names.len(), total, "names are unique");
    assert!(WORKLOADS
        .iter()
        .all(|(_, why)| why.len() <= 200 && !why.contains('\n')));
    assert!(END_TO_END.iter().all(|d| d.bound > 0.0 && d.bound <= 0.25));
}
