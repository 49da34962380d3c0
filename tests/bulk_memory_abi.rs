//! The bulk-memory built-ins agree with the reference interpreter on every
//! path that serves them: the flat harness (all strategies × both tiers,
//! through `differential_check`) and the pooled runtime (GuardRegion and
//! Segue under ColorGuard). Out-of-bounds cases must trap on the runtime at
//! the slot's heap base plus the interpreter's trap address, classify as a
//! guard hit and poison the instance.

use std::sync::Arc;

use segue_colorguard::core::harness::differential_check;
use segue_colorguard::core::{compile, CompilerConfig, Strategy};
use segue_colorguard::runtime::{Runtime, RuntimeConfig, RuntimeError, SandboxFault};
use segue_colorguard::wasm::interp::Interpreter;
use segue_colorguard::wasm::{wat, Module, WasmTrap};
use segue_colorguard::x86::{MemFault, Trap};

const PAGE: u64 = 65536;

/// `copy` and `fill` write a non-zero pattern over the first 5000 bytes
/// first (so copy direction is visible), then run the built-in and return
/// `memory.size`. `grow` returns `(memory.size << 16) | old_size`, so one
/// result shows both the old size and the size seen in the same invoke.
/// The memory declares no maximum, so it may grow to 65,536 pages, the
/// interpreter's rule; each runner caps growth at what it can back.
const BULK: &str = r#"(module (memory 1)
    (global $g (mut i64) (i64.const 7))
    (func $pattern
      (local $i i32)
      block loop
        local.get $i i32.const 5000 i32.ge_u br_if 1
        local.get $i
        local.get $i i32.const 37 i32.mul i32.const 3 i32.shr_u
        i32.store8
        local.get $i i32.const 1 i32.add local.set $i
        br 0
      end end)
    (func (export "copy") (param $dst i32) (param $src i32) (param $len i32) (result i32)
      call $pattern
      local.get $dst local.get $src local.get $len memory.copy
      memory.size)
    (func (export "fill") (param $dst i32) (param $val i32) (param $len i32) (result i32)
      call $pattern
      local.get $dst local.get $val local.get $len memory.fill
      memory.size)
    (func (export "size") (result i32)
      memory.size)
    (func (export "grow") (param $d i32) (result i32)
      local.get $d memory.grow
      memory.size i32.const 16 i32.shl
      i32.or)
    (func (export "bump") (result i64)
      global.get $g i64.const 1 i64.add global.set $g
      global.get $g))"#;

/// `(name, export, args)`: every case runs on a fresh instance.
const CASES: &[(&str, &str, &[u64])] = &[
    ("fill in bounds", "fill", &[100, 0xAB, 300]),
    ("copy overlapping forwards", "copy", &[300, 0, 4500]),
    ("copy overlapping backwards", "copy", &[0, 300, 4500]),
    ("copy overlapping by a few bytes", "copy", &[5, 3, 16]),
    ("copy of zero bytes at the end", "copy", &[PAGE, PAGE, 0]),
    ("fill of zero bytes at the end", "fill", &[PAGE, 7, 0]),
    ("copy ending exactly at the end", "copy", &[PAGE - 100, 0, 100]),
    ("copy reading exactly up to the end", "copy", &[0, PAGE - 100, 100]),
    ("fill ending exactly at the end", "fill", &[PAGE - 100, 9, 100]),
    ("copy one byte past the end", "copy", &[PAGE - 100, 0, 101]),
    ("fill one byte past the end", "fill", &[PAGE - 100, 9, 101]),
    ("copy with only src out of bounds", "copy", &[0, PAGE - 50, 100]),
    ("copy with only dst out of bounds", "copy", &[PAGE - 50, 0, 100]),
    ("copy of zero bytes past the end", "copy", &[0, PAGE + 1, 0]),
    ("memory.size", "size", &[]),
];

fn module() -> Module {
    wat::parse(BULK).expect("parses")
}

/// [`BULK`] with a two-page maximum.
fn growable_module() -> Module {
    wat::parse(&BULK.replacen("(memory 1)", "(memory 1 2)", 1)).expect("parses")
}

/// [`BULK`] with a declared maximum above what the flat harness backs.
fn bounded_module() -> Module {
    wat::parse(&BULK.replacen("(memory 1)", "(memory 1 4)", 1)).expect("parses")
}

/// A ColorGuard runtime whose slots back two pages, so growth can succeed
/// once and then hit the pool's limit.
fn runtime() -> Runtime {
    let mut config = RuntimeConfig::small_test(true);
    config.pool.max_memory_bytes = 2 * PAGE;
    Runtime::new(config).expect("boots")
}

fn compiled(m: &Module, config: &CompilerConfig) -> Arc<segue_colorguard::core::CompiledModule> {
    Arc::new(compile(m, config).expect("compiles"))
}

#[test]
fn every_case_matches_the_interpreter_on_the_flat_harness() {
    let m = module();
    for (name, export, args) in CASES {
        eprintln!("case: {name}");
        differential_check(&m, export, args);
    }
}

/// A maximum the flat harness cannot back is still a valid module: growth
/// there reports −1, and nothing else changes.
#[test]
fn a_maximum_beyond_the_compile_layout_passes_the_flat_harness() {
    let m = bounded_module();
    for (name, export, args) in CASES {
        eprintln!("case: {name}");
        differential_check(&m, export, args);
    }
}

/// A memory without a declared maximum grows as far as the slot backs, as
/// the interpreter's would.
#[test]
fn a_memory_without_a_maximum_grows_on_the_runtime() {
    let m = module();
    let mut interp = Interpreter::new(&m).expect("instantiates");
    let expected = interp.invoke_export("grow", &[1]).expect("grows");
    assert_eq!(expected, Some(2 << 16 | 1), "the interpreter grows from one page to two");
    for strategy in [Strategy::GuardRegion, Strategy::Segue] {
        let mut rt = runtime();
        let id = rt.instantiate(compiled(&m, &CompilerConfig::for_strategy(strategy))).expect("slot");
        let grow = rt.invoke(id, "grow", &[1]).expect("runs").result.map(|r| r & 0xFFFF_FFFF);
        assert_eq!(grow, expected, "{strategy}: memory.grow 1 returns the old size");
        let again = rt.invoke(id, "grow", &[1]).expect("runs").result.map(|r| r & 0xFFFF_FFFF);
        assert_eq!(again, Some(0xFFFF_FFFF), "{strategy}: the two-page slot is full");
    }
}

#[test]
fn every_case_matches_the_interpreter_on_the_runtime() {
    let m = module();
    for strategy in [Strategy::GuardRegion, Strategy::Segue] {
        let cm = compiled(&m, &CompilerConfig::for_strategy(strategy));
        let mut rt = runtime();
        for (name, export, args) in CASES {
            let ctx = format!("{name} under {strategy}");
            let mut interp = Interpreter::new(&m).expect("instantiates");
            let expected = interp.invoke_export(export, args);
            let id = rt.instantiate(Arc::clone(&cm)).expect("slot");
            let heap = rt.heap_base(id).expect("live");
            match expected {
                Ok(value) => {
                    let out = rt.invoke(id, export, args).unwrap_or_else(|e| panic!("{ctx}: {e}"));
                    assert_eq!(out.result.map(|r| r & 0xFFFF_FFFF), value, "{ctx}: result");
                    let mut mem = vec![0u8; interp.memory.len()];
                    rt.read_heap(id, 0, &mut mem).expect("in bounds");
                    assert!(mem == interp.memory, "{ctx}: heap contents diverged");
                    rt.terminate(id).expect("terminates");
                }
                Err(WasmTrap::OutOfBoundsMemory { addr }) => {
                    let err = rt.invoke(id, export, args).expect_err(&ctx);
                    assert_eq!(
                        err,
                        RuntimeError::Trapped(Trap::Mem(MemFault::Unmapped { addr: heap + addr })),
                        "{ctx}: trap"
                    );
                    assert_eq!(
                        rt.last_fault(id),
                        Some(&SandboxFault::GuardHit { addr: heap + addr }),
                        "{ctx}: classification"
                    );
                    assert_eq!(rt.is_poisoned(id), Some(true), "{ctx}: poison");
                    rt.recycle(id).expect("recycles");
                }
                Err(other) => panic!("{ctx}: unexpected interpreter trap {other:?}"),
            }
        }
    }
}

#[test]
fn growth_and_globals_persist_across_invokes_on_the_runtime() {
    let m = growable_module();
    for strategy in [Strategy::GuardRegion, Strategy::Segue] {
        let mut config = CompilerConfig::for_strategy(strategy);
        config.layout.mem_size = 2 * PAGE;
        let mut rt = runtime();
        let id = rt.instantiate(compiled(&m, &config)).expect("slot");
        let result = |rt: &mut Runtime, export: &str, args: &[u64]| {
            rt.invoke(id, export, args).expect("runs").result.map(|r| r & 0xFFFF_FFFF)
        };
        // Growth returns the old size; the same invoke sees the new size.
        assert_eq!(result(&mut rt, "grow", &[1]), Some(2 << 16 | 1), "{strategy}");
        // The next invoke sees it through the header read-back.
        assert_eq!(result(&mut rt, "size", &[]), Some(2), "{strategy}");
        // The slot backs two pages: further growth fails (-1) and changes
        // nothing.
        assert_eq!(result(&mut rt, "grow", &[1]), Some(0xFFFF_FFFF), "{strategy}");
        assert_eq!(result(&mut rt, "size", &[]), Some(2), "{strategy}");
        // Bulk operations are bounded by the grown size.
        assert_eq!(result(&mut rt, "fill", &[PAGE, 5, PAGE]), Some(2), "{strategy}");
        let mut tail = [0u8; 4];
        rt.read_heap(id, 2 * PAGE - 4, &mut tail).expect("in bounds");
        assert_eq!(tail, [5; 4], "{strategy}");
        // A global written in one invoke is read in the next.
        assert_eq!(result(&mut rt, "bump", &[]), Some(8), "{strategy}");
        assert_eq!(result(&mut rt, "bump", &[]), Some(9), "{strategy}");
        assert_eq!(rt.global(id, 0), Some(9), "{strategy}");
    }
}
