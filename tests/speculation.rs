//! The DESIGN.md §16 speculation contract, end to end: known-leaky
//! gadgets are flagged under unmitigated sandboxes (true positives),
//! their hardened twins are not (true negatives), every declared-safe
//! strategy × mitigation cell is leak-free across the corpus and the
//! genprog gadget mode, and transient execution never perturbs
//! architectural state.

use sfi_core::harness::{
    execute_export, execute_speculative, spec_config_for, spec_config_with_secret,
    speculative_check, SpecSetupError,
};
use sfi_core::{compile, CompilerConfig, MitigationLevel, Strategy};
use sfi_workloads::{gadgets, genprog};

fn compile_gadget(wat: &str, strategy: Strategy, level: MitigationLevel) -> sfi_core::CompiledModule {
    let m = sfi_wasm::wat::parse(wat).expect("gadget parses");
    sfi_wasm::validate(&m).expect("gadget validates");
    compile(&m, &CompilerConfig::for_strategy(strategy).mitigated(level)).expect("compiles")
}

fn leaks(cm: &sfi_core::CompiledModule) -> u64 {
    let spec = spec_config_for(cm).expect("secret placement");
    execute_speculative(cm, "run", &[], spec).expect("runs").stats.spec_leaks
}

/// True positive: the bounds-check-bypass gadget leaks transiently under
/// unmitigated Segue (no bounds checks, no masks — nothing stops the
/// wrong-path secret read).
#[test]
fn known_leaky_gadget_is_flagged() {
    let wat = gadgets::bounds_check_bypass(64, gadgets::SECRET_INDEX, 64);
    let cm = compile_gadget(&wat, Strategy::Segue, MitigationLevel::None);
    assert!(leaks(&cm) > 0, "unmitigated Segue must leak on the bypass gadget");
}

/// True negative: the *same* gadget compiled with lfence insertion is not
/// flagged — every speculation window dies on its first µop.
#[test]
fn lfence_twin_is_not_flagged() {
    let wat = gadgets::bounds_check_bypass(64, gadgets::SECRET_INDEX, 64);
    let cm = compile_gadget(&wat, Strategy::Segue, MitigationLevel::Lfence);
    assert_eq!(leaks(&cm), 0, "lfence-hardened twin must not be flagged");
}

/// At least two distinct leak classes reproduce under unmitigated Segue:
/// bounds-check bypass (trained branch) and transient type confusion
/// (stale BTB on an indirect call).
#[test]
fn two_leak_classes_reproduce_under_unmitigated_segue() {
    let bypass = gadgets::bounds_check_bypass(64, gadgets::SECRET_INDEX, 64);
    let confusion = gadgets::type_confusion(32, gadgets::SECRET_INDEX, 64);
    for (name, wat) in [("bounds-check bypass", bypass), ("type confusion", confusion)] {
        let cm = compile_gadget(&wat, Strategy::Segue, MitigationLevel::None);
        assert!(leaks(&cm) > 0, "{name} must leak under unmitigated Segue");
    }
}

/// The full declared-safe sweep over the fixed corpus: every cell where
/// `MitigationLevel::declared_safe` holds reports zero leaks (asserted
/// inside `speculative_check`), and the true-negative probe reports zero
/// leaks in *every* cell.
#[test]
fn corpus_sweeps_clean_at_declared_safe_cells() {
    for w in gadgets::gadgets() {
        let module = w.module();
        let cells = speculative_check(&module, "run", &[]);
        if w.name == "probe_benign" {
            for (strategy, level, leaked) in cells {
                assert_eq!(leaked, 0, "benign probe flagged under {strategy}/{level}");
            }
        }
    }
}

/// Genprog gadget mode: a sample of seeds sweeps clean at declared-safe
/// cells (the full ≥500-seed sweep runs in `figX_spectre --check`).
#[test]
fn genprog_gadgets_sweep_clean() {
    for seed in 0..24 {
        let module = genprog::gadget(seed);
        speculative_check(&module, "run", &[]);
    }
}

/// Rollback is byte-exact: for 256 random gadget seeds, running with the
/// speculative window enabled produces the same architectural result and
/// the same final heap as running without it — transient execution
/// touches the cache model, never architectural state.
#[test]
fn rollback_restores_architectural_state_for_random_gadgets() {
    for seed in 0..256 {
        let module = genprog::gadget(seed);
        for strategy in [Strategy::Segue, Strategy::GuardRegion, Strategy::BoundsCheck] {
            let cm = compile(&module, &CompilerConfig::for_strategy(strategy)).expect("compiles");
            let off = execute_export(&cm, "run", &[]).expect("plain run");
            let spec = spec_config_for(&cm).expect("secret placement");
            let on = execute_speculative(&cm, "run", &[], spec).expect("speculative run");
            assert_eq!(off.result, on.result, "seed {seed} under {strategy}: result diverged");
            assert_eq!(off.heap, on.heap, "seed {seed} under {strategy}: heap diverged");
            assert_eq!(
                off.stats.insts, on.stats.insts,
                "seed {seed} under {strategy}: retired instruction count diverged"
            );
        }
    }
}

/// Degenerate speculation configs are rejected with errors, not panics:
/// a zero-size window, an empty secret region, and a secret region
/// overlapping architecturally mapped memory.
#[test]
fn degenerate_configs_are_rejected() {
    let wat = gadgets::contention_probe(8);
    let m = sfi_wasm::wat::parse(&wat).unwrap();
    let cm = compile(&m, &CompilerConfig::for_strategy(Strategy::Segue)).unwrap();

    assert!(matches!(
        spec_config_with_secret(&cm, 0, 0x2000_0000, 0x2000_1000),
        Err(SpecSetupError::Config(_))
    ));
    assert!(matches!(
        spec_config_with_secret(&cm, 32, 0x2000_1000, 0x2000_1000),
        Err(SpecSetupError::Config(_))
    ));
    // Taint tracking on the (architecturally reachable) heap itself is a
    // config error: the program may legitimately touch that region.
    let heap_base = cm.config.layout.heap_base;
    assert!(matches!(
        spec_config_with_secret(&cm, 32, heap_base, heap_base + 0x1000),
        Err(SpecSetupError::SecretOverlapsSandbox { .. })
    ));
    // And a valid far placement is accepted.
    assert!(spec_config_with_secret(&cm, 32, heap_base + 0x1000_0000, heap_base + 0x1000_1000).is_ok());
}

/// One pinned cell of the transient model: gadget, strategy, mitigation
/// level, then `(spec_flushes, spec_uops, spec_leaks, icache_misses,
/// dcache_misses, cycles.to_bits())` of one speculative run.
type PinRow = (&'static str, &'static str, &'static str, [u64; 6]);

/// Exact transient-model counters for every gadget × sandboxed strategy ×
/// mitigation level. A change to the wrong-path semantics that the gadgets
/// exercise (taint rules, window stops, budget accounting, cache
/// footprint) moves some of these numbers; `crates/x86/tests/taint_rules.rs`
/// covers the taint rules one form at a time.
const TRANSIENT_PIN: &[PinRow] = &[
    ("bcb_load", "guard", "none", [2, 47, 1, 4, 3, 4656307540703578201]),
    ("bcb_load", "guard", "lfence", [2, 2, 0, 4, 3, 4663631762013724787]),
    ("bcb_load", "guard", "slh", [2, 47, 1, 4, 3, 4656307540703578201]),
    ("bcb_load", "guard", "index-mask", [2, 48, 0, 4, 3, 4656575612109969301]),
    ("bcb_load", "segue", "none", [2, 47, 1, 4, 3, 4656307540703578201]),
    ("bcb_load", "segue", "lfence", [2, 2, 0, 4, 3, 4663631762013724787]),
    ("bcb_load", "segue", "slh", [2, 47, 1, 4, 3, 4656307540703578201]),
    ("bcb_load", "segue", "index-mask", [2, 48, 0, 4, 3, 4656575612109969301]),
    ("bcb_load", "segue-loads", "none", [2, 47, 1, 4, 3, 4656307540703578201]),
    ("bcb_load", "segue-loads", "lfence", [2, 2, 0, 4, 3, 4663631762013724787]),
    ("bcb_load", "segue-loads", "slh", [2, 47, 1, 4, 3, 4656307540703578201]),
    ("bcb_load", "segue-loads", "index-mask", [2, 48, 0, 4, 3, 4656575612109969301]),
    ("bcb_load", "bounds", "none", [2, 50, 1, 4, 3, 4656782849108726636]),
    ("bcb_load", "bounds", "lfence", [2, 2, 0, 5, 3, 4665114846126504979]),
    ("bcb_load", "bounds", "slh", [2, 58, 0, 4, 3, 4657473803158699702]),
    ("bcb_load", "bounds", "index-mask", [2, 52, 0, 4, 3, 4656916884811922186]),
    ("bcb_load", "bounds-segue", "none", [2, 50, 1, 4, 3, 4656782849108726636]),
    ("bcb_load", "bounds-segue", "lfence", [2, 2, 0, 5, 3, 4665114846126504979]),
    ("bcb_load", "bounds-segue", "slh", [2, 58, 0, 4, 3, 4657473803158699702]),
    ("bcb_load", "bounds-segue", "index-mask", [2, 52, 0, 4, 3, 4656916884811922186]),
    ("bcb_load", "masking", "none", [2, 49, 0, 4, 3, 4656709647813164857]),
    ("bcb_load", "masking", "lfence", [2, 2, 0, 5, 3, 4663747681953910315]),
    ("bcb_load", "masking", "slh", [2, 49, 0, 4, 3, 4656709647813164857]),
    ("bcb_load", "masking", "index-mask", [2, 51, 0, 4, 3, 4656849866960324410]),
    ("bcb_load_wide", "guard", "none", [2, 47, 1, 4, 4, 4658527575102759974]),
    ("bcb_load_wide", "guard", "lfence", [2, 2, 0, 4, 4, 4666350635675831736]),
    ("bcb_load_wide", "guard", "slh", [2, 47, 1, 4, 4, 4658527575102759974]),
    ("bcb_load_wide", "guard", "index-mask", [2, 48, 0, 4, 4, 4658728628657553300]),
    ("bcb_load_wide", "segue", "none", [2, 47, 1, 4, 4, 4658527575102759974]),
    ("bcb_load_wide", "segue", "lfence", [2, 2, 0, 4, 4, 4666350635675831736]),
    ("bcb_load_wide", "segue", "slh", [2, 47, 1, 4, 4, 4658527575102759974]),
    ("bcb_load_wide", "segue", "index-mask", [2, 48, 0, 4, 4, 4658728628657553300]),
    ("bcb_load_wide", "segue-loads", "none", [2, 47, 1, 4, 4, 4658527575102759974]),
    ("bcb_load_wide", "segue-loads", "lfence", [2, 2, 0, 4, 4, 4666350635675831736]),
    ("bcb_load_wide", "segue-loads", "slh", [2, 47, 1, 4, 4, 4658527575102759974]),
    ("bcb_load_wide", "segue-loads", "index-mask", [2, 48, 0, 4, 4, 4658728628657553300]),
    ("bcb_load_wide", "bounds", "none", [2, 50, 1, 4, 4, 4658929682212346630]),
    ("bcb_load_wide", "bounds", "lfence", [2, 2, 0, 5, 4, 4667459100469719664]),
    ("bcb_load_wide", "bounds", "slh", [2, 58, 0, 4, 4, 4659966113287306232]),
    ("bcb_load_wide", "bounds", "index-mask", [2, 52, 0, 4, 4, 4659130735767139956]),
    ("bcb_load_wide", "bounds-segue", "none", [2, 50, 1, 4, 4, 4658929682212346630]),
    ("bcb_load_wide", "bounds-segue", "lfence", [2, 2, 0, 5, 4, 4667459100469719664]),
    ("bcb_load_wide", "bounds-segue", "slh", [2, 58, 0, 4, 4, 4659966113287306232]),
    ("bcb_load_wide", "bounds-segue", "index-mask", [2, 52, 0, 4, 4, 4659130735767139956]),
    ("bcb_load_wide", "masking", "none", [2, 49, 0, 4, 4, 4658829155434949966]),
    ("bcb_load_wide", "masking", "lfence", [2, 2, 0, 5, 4, 4666433727340273666]),
    ("bcb_load_wide", "masking", "slh", [2, 49, 0, 4, 4, 4658829155434949966]),
    ("bcb_load_wide", "masking", "index-mask", [2, 51, 0, 4, 4, 4659030208989743292]),
    ("bcb_store", "guard", "none", [3, 75, 1, 4, 65, 4658935640518215376]),
    ("bcb_store", "guard", "lfence", [3, 3, 0, 5, 66, 4665548027529000365]),
    ("bcb_store", "guard", "slh", [3, 75, 1, 4, 65, 4658935640518215376]),
    ("bcb_store", "guard", "index-mask", [3, 77, 0, 4, 65, 4659136694073008702]),
    ("bcb_store", "segue", "none", [3, 75, 1, 4, 65, 4658935640518215376]),
    ("bcb_store", "segue", "lfence", [3, 3, 0, 5, 66, 4665548027529000365]),
    ("bcb_store", "segue", "slh", [3, 75, 1, 4, 65, 4658935640518215376]),
    ("bcb_store", "segue", "index-mask", [3, 77, 0, 4, 65, 4659136694073008702]),
    ("bcb_store", "segue-loads", "none", [3, 75, 1, 4, 65, 4658935640518215376]),
    ("bcb_store", "segue-loads", "lfence", [3, 3, 0, 5, 66, 4665548027529000365]),
    ("bcb_store", "segue-loads", "slh", [3, 75, 1, 4, 65, 4658935640518215376]),
    ("bcb_store", "segue-loads", "index-mask", [3, 77, 0, 4, 65, 4659136694073008702]),
    ("bcb_store", "bounds", "none", [3, 80, 1, 5, 65, 4659368533953379760]),
    ("bcb_store", "bounds", "lfence", [3, 3, 0, 5, 66, 4666739388954910606]),
    ("bcb_store", "bounds", "slh", [3, 87, 0, 5, 66, 4660431353307405986]),
    ("bcb_store", "bounds", "index-mask", [3, 81, 0, 5, 65, 4659569587508173086]),
    ("bcb_store", "bounds-segue", "none", [3, 80, 1, 5, 65, 4659368533953379760]),
    ("bcb_store", "bounds-segue", "lfence", [3, 3, 0, 5, 66, 4666739388954910606]),
    ("bcb_store", "bounds-segue", "slh", [3, 87, 0, 5, 66, 4660431353307405986]),
    ("bcb_store", "bounds-segue", "index-mask", [3, 81, 0, 5, 65, 4659569587508173086]),
    ("bcb_store", "masking", "none", [3, 78, 0, 4, 65, 4659203711924606480]),
    ("bcb_store", "masking", "lfence", [3, 3, 0, 5, 66, 4665682063232195917]),
    ("bcb_store", "masking", "slh", [3, 78, 0, 4, 65, 4659203711924606480]),
    ("bcb_store", "masking", "index-mask", [3, 80, 0, 5, 65, 4659435551804977534]),
    ("confused_deputy", "guard", "none", [2, 51, 1, 5, 4, 4653671613413305620]),
    ("confused_deputy", "guard", "lfence", [2, 2, 0, 6, 4, 4660145454105336185]),
    ("confused_deputy", "guard", "slh", [2, 51, 1, 5, 4, 4653671613413305620]),
    ("confused_deputy", "guard", "index-mask", [2, 53, 0, 5, 4, 4653805649116501170]),
    ("confused_deputy", "segue", "none", [2, 51, 1, 5, 4, 4653671613413305620]),
    ("confused_deputy", "segue", "lfence", [2, 2, 0, 6, 4, 4660145454105336185]),
    ("confused_deputy", "segue", "slh", [2, 51, 1, 5, 4, 4653671613413305620]),
    ("confused_deputy", "segue", "index-mask", [2, 53, 0, 5, 4, 4653805649116501170]),
    ("confused_deputy", "segue-loads", "none", [2, 51, 1, 5, 4, 4653671613413305620]),
    ("confused_deputy", "segue-loads", "lfence", [2, 2, 0, 6, 4, 4660145454105336185]),
    ("confused_deputy", "segue-loads", "slh", [2, 51, 1, 5, 4, 4653671613413305620]),
    ("confused_deputy", "segue-loads", "index-mask", [2, 53, 0, 5, 4, 4653805649116501170]),
    ("confused_deputy", "bounds", "none", [2, 55, 1, 5, 4, 4653939684819696723]),
    ("confused_deputy", "bounds", "lfence", [2, 2, 0, 6, 4, 4661419379691895404]),
    ("confused_deputy", "bounds", "slh", [2, 63, 0, 6, 5, 4654744988078958492]),
    ("confused_deputy", "bounds", "index-mask", [2, 57, 0, 5, 4, 4654073720522892273]),
    ("confused_deputy", "bounds-segue", "none", [2, 55, 1, 5, 4, 4653939684819696723]),
    ("confused_deputy", "bounds-segue", "lfence", [2, 2, 0, 6, 4, 4661419379691895404]),
    ("confused_deputy", "bounds-segue", "slh", [2, 63, 0, 6, 5, 4654744988078958492]),
    ("confused_deputy", "bounds-segue", "index-mask", [2, 57, 0, 5, 4, 4654073720522892273]),
    ("confused_deputy", "masking", "none", [2, 54, 0, 5, 4, 4653872666968098947]),
    ("confused_deputy", "masking", "lfence", [2, 2, 0, 6, 4, 4660245980882732848]),
    ("confused_deputy", "masking", "slh", [2, 54, 0, 5, 4, 4653872666968098947]),
    ("confused_deputy", "masking", "index-mask", [2, 56, 0, 5, 4, 4654006702671294497]),
    ("confused_deputy_wide", "guard", "none", [2, 51, 1, 5, 4, 4656209746997942110]),
    ("confused_deputy_wide", "guard", "lfence", [2, 2, 0, 6, 4, 4662487015954005143]),
    ("confused_deputy_wide", "guard", "slh", [2, 51, 1, 5, 4, 4656209746997942110]),
    ("confused_deputy_wide", "guard", "index-mask", [2, 53, 0, 5, 4, 4656410800552735435]),
    ("confused_deputy_wide", "segue", "none", [2, 51, 1, 5, 4, 4656209746997942110]),
    ("confused_deputy_wide", "segue", "lfence", [2, 2, 0, 6, 4, 4662487015954005143]),
    ("confused_deputy_wide", "segue", "slh", [2, 51, 1, 5, 4, 4656209746997942110]),
    ("confused_deputy_wide", "segue", "index-mask", [2, 53, 0, 5, 4, 4656410800552735435]),
    ("confused_deputy_wide", "segue-loads", "none", [2, 51, 1, 5, 4, 4656209746997942110]),
    ("confused_deputy_wide", "segue-loads", "lfence", [2, 2, 0, 6, 4, 4662487015954005143]),
    ("confused_deputy_wide", "segue-loads", "slh", [2, 51, 1, 5, 4, 4656209746997942110]),
    ("confused_deputy_wide", "segue-loads", "index-mask", [2, 53, 0, 5, 4, 4656410800552735435]),
    ("confused_deputy_wide", "bounds", "none", [2, 55, 1, 5, 4, 4656611854107528765]),
    ("confused_deputy_wide", "bounds", "lfence", [2, 2, 0, 6, 4, 4663587784166498596]),
    ("confused_deputy_wide", "bounds", "slh", [2, 63, 0, 6, 5, 4657242324546434965]),
    ("confused_deputy_wide", "bounds", "index-mask", [2, 57, 0, 5, 4, 4656767461181707477]),
    ("confused_deputy_wide", "bounds-segue", "none", [2, 55, 1, 5, 4, 4656611854107528765]),
    ("confused_deputy_wide", "bounds-segue", "lfence", [2, 2, 0, 6, 4, 4663587784166498596]),
    ("confused_deputy_wide", "bounds-segue", "slh", [2, 63, 0, 6, 5, 4657242324546434965]),
    ("confused_deputy_wide", "bounds-segue", "index-mask", [2, 57, 0, 5, 4, 4656767461181707477]),
    ("confused_deputy_wide", "masking", "none", [2, 54, 0, 5, 4, 4656511327330132101]),
    ("confused_deputy_wide", "masking", "lfence", [2, 2, 0, 6, 4, 4662562411037052641]),
    ("confused_deputy_wide", "masking", "slh", [2, 54, 0, 5, 4, 4656511327330132101]),
    ("confused_deputy_wide", "masking", "index-mask", [2, 56, 0, 5, 4, 4656712380884925426]),
    ("probe_benign", "guard", "none", [2, 44, 0, 4, 18, 4656540176420937036]),
    ("probe_benign", "guard", "lfence", [2, 2, 0, 4, 18, 4663689920943064496]),
    ("probe_benign", "guard", "slh", [2, 44, 0, 4, 18, 4656540176420937036]),
    ("probe_benign", "guard", "index-mask", [2, 45, 0, 4, 18, 4656674212124132586]),
    ("probe_benign", "segue", "none", [2, 44, 0, 4, 18, 4656540176420937036]),
    ("probe_benign", "segue", "lfence", [2, 2, 0, 4, 18, 4663689920943064496]),
    ("probe_benign", "segue", "slh", [2, 44, 0, 4, 18, 4656540176420937036]),
    ("probe_benign", "segue", "index-mask", [2, 45, 0, 4, 18, 4656674212124132586]),
    ("probe_benign", "segue-loads", "none", [2, 44, 0, 4, 18, 4656540176420937036]),
    ("probe_benign", "segue-loads", "lfence", [2, 2, 0, 4, 18, 4663689920943064496]),
    ("probe_benign", "segue-loads", "slh", [2, 44, 0, 4, 18, 4656540176420937036]),
    ("probe_benign", "segue-loads", "index-mask", [2, 45, 0, 4, 18, 4656674212124132586]),
    ("probe_benign", "bounds", "none", [2, 46, 0, 4, 18, 4656765131264210502]),
    ("probe_benign", "bounds", "lfence", [2, 2, 0, 4, 18, 4664423766418060160]),
    ("probe_benign", "bounds", "slh", [2, 50, 0, 4, 18, 4657110608289197034]),
    ("probe_benign", "bounds", "index-mask", [2, 48, 0, 4, 18, 4656832149115808277]),
    ("probe_benign", "bounds-segue", "none", [2, 46, 0, 4, 18, 4656765131264210502]),
    ("probe_benign", "bounds-segue", "lfence", [2, 2, 0, 4, 18, 4664423766418060160]),
    ("probe_benign", "bounds-segue", "slh", [2, 50, 0, 4, 18, 4657110608289197034]),
    ("probe_benign", "bounds-segue", "index-mask", [2, 48, 0, 4, 18, 4656832149115808277]),
    ("probe_benign", "masking", "none", [2, 45, 0, 4, 18, 4656674212124132588]),
    ("probe_benign", "masking", "lfence", [2, 2, 0, 4, 18, 4663723429868863384]),
    ("probe_benign", "masking", "slh", [2, 45, 0, 4, 18, 4656674212124132588]),
    ("probe_benign", "masking", "index-mask", [2, 46, 0, 4, 18, 4656765131264210501]),
];

fn transient_rows() -> Vec<PinRow> {
    let mut rows = Vec::new();
    for w in gadgets::gadgets() {
        let module = w.module();
        for strategy in Strategy::ALL {
            if strategy == Strategy::Native {
                continue;
            }
            for level in MitigationLevel::ALL {
                let cfg = CompilerConfig::for_strategy(strategy).mitigated(level);
                let cm = compile(&module, &cfg).expect("compiles");
                let spec = spec_config_for(&cm).expect("secret placement");
                let s = execute_speculative(&cm, "run", &[], spec).expect("runs").stats;
                let counters = [
                    s.spec_flushes,
                    s.spec_uops,
                    s.spec_leaks,
                    s.icache_misses,
                    s.dcache_misses,
                    s.cycles.to_bits(),
                ];
                rows.push((w.name, strategy.name(), level.name(), counters));
            }
        }
    }
    rows
}

/// Tier-1 pin of the transient model: every cell of the gadget matrix
/// reproduces its recorded counters bit for bit. A failure lists each
/// diverging cell with expected and measured counters.
#[test]
fn transient_counters_match_the_pinned_matrix() {
    let got = transient_rows();
    let mut diffs = Vec::new();
    for (i, row) in got.iter().enumerate() {
        match TRANSIENT_PIN.get(i) {
            Some(want) if want == row => {}
            want => diffs.push(format!("  expected {want:?}\n  measured {row:?}")),
        }
    }
    assert!(
        diffs.is_empty() && got.len() == TRANSIENT_PIN.len(),
        "{} of {} transient cells diverge from the pin ({} pinned):\n{}",
        diffs.len(),
        got.len(),
        TRANSIENT_PIN.len(),
        diffs.join("\n")
    );
}
