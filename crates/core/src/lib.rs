//! # sfi-core: Segue and the SFI compilation strategies
//!
//! This crate is the reproduction of the paper's primary code-generation
//! contribution: a Wasm → x86-64 compiler with pluggable SFI strategies
//! ([`Strategy`]), including **Segue** — heap-base addition via the `%gs`
//! segment register (§3.1) — alongside the production baseline
//! (reserved-GPR + guard regions), explicit bounds checks, masking, and
//! WAMR's loads-only Segue variant.
//!
//! The compiler is deliberately observable: [`CompiledModule`] exposes
//! instruction counts, encoded byte sizes, and per-function SFI overhead,
//! and the [`harness`] runs compiled code on the deterministic `sfi-x86`
//! emulator and diffs it against the `sfi-wasm` reference interpreter.
//!
//! ## Example: Figure 1 in code
//!
//! ```
//! use sfi_core::{compile, CompilerConfig, Strategy};
//! use sfi_wasm::wat;
//!
//! // Pattern 2 of the paper's Figure 1: read an array element in a struct.
//! let module = wat::parse(r#"
//!   (module (memory 1)
//!     (func (export "get") (param $obj i32) (param $idx i32) (result i32)
//!       local.get $obj
//!       local.get $idx
//!       i32.const 4
//!       i32.mul
//!       i32.add
//!       i32.load offset=0))
//! "#).unwrap();
//!
//! let baseline = compile(&module, &CompilerConfig::for_strategy(Strategy::GuardRegion)).unwrap();
//! let segue = compile(&module, &CompilerConfig::for_strategy(Strategy::Segue)).unwrap();
//! // Segue needs fewer instructions for the same function.
//! assert!(segue.func_stats[0].insts < baseline.func_stats[0].insts);
//! // And both agree with the reference interpreter.
//! sfi_core::harness::differential_check(&module, "get", &[16, 3]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod abi;
pub mod compile;
pub mod config;
pub mod fingerprint;
pub mod harness;
pub mod opt;
pub mod vectorize;

pub use compile::{compile, CompileError, CompiledModule};
pub use config::{
    CompilerConfig, FuncStats, MemLayout, MitigationLevel, OptLevel, RuntimeRegions, Strategy,
};
pub use fingerprint::module_hash;
pub use opt::OptStats;

#[cfg(test)]
mod tests {
    use super::*;
    use harness::{differential_check, execute_export};
    use sfi_wasm::wat;

    fn cc(s: Strategy) -> CompilerConfig {
        CompilerConfig::for_strategy(s)
    }

    #[test]
    fn add_function_all_strategies() {
        let m = wat::parse(
            r#"(module (memory 1)
                 (func (export "add") (param i32 i32) (result i32)
                   local.get 0
                   local.get 1
                   i32.add))"#,
        )
        .unwrap();
        for s in Strategy::ALL {
            let cm = compile(&m, &cc(s)).unwrap();
            let out = execute_export(&cm, "add", &[20, 22]).unwrap();
            assert_eq!(out.result.map(|r| r & 0xFFFF_FFFF), Some(42), "strategy {s}");
        }
    }

    #[test]
    fn memory_roundtrip_all_strategies() {
        let m = wat::parse(
            r#"(module (memory 1)
                 (func (export "rw") (param $p i32) (param $v i32) (result i32)
                   local.get $p
                   local.get $v
                   i32.store offset=8
                   local.get $p
                   i32.load offset=8))"#,
        )
        .unwrap();
        for s in Strategy::ALL {
            let cm = compile(&m, &cc(s)).unwrap();
            let out = execute_export(&cm, "rw", &[64, 0xBEEF]).unwrap();
            assert_eq!(out.result.map(|r| r & 0xFFFF_FFFF), Some(0xBEEF), "strategy {s}");
        }
    }

    #[test]
    fn figure1_pattern2_instruction_counts() {
        // obj->arr[idx]: baseline needs lea+mov, Segue needs one mov.
        let m = wat::parse(
            r#"(module (memory 1)
                 (func (export "get") (param $obj i32) (param $idx i32) (result i32)
                   local.get $obj
                   local.get $idx
                   i32.const 4
                   i32.mul
                   i32.add
                   i32.load))"#,
        )
        .unwrap();
        let base = compile(&m, &cc(Strategy::GuardRegion)).unwrap();
        let segue = compile(&m, &cc(Strategy::Segue)).unwrap();
        let native = compile(&m, &cc(Strategy::Native)).unwrap();
        // Both pay the 2-instruction prologue stack check; the baseline
        // additionally pays a lea the others avoid.
        assert_eq!(segue.func_stats[0].sfi_overhead_insts, 2, "{:?}", segue.func_stats[0]);
        assert_eq!(
            base.func_stats[0].sfi_overhead_insts,
            segue.func_stats[0].sfi_overhead_insts + 1,
            "{:?}",
            base.func_stats[0]
        );
        // Segue's access count stays close to native's.
        assert!(segue.func_stats[0].insts <= native.func_stats[0].insts + 2);
        // Check the actual Segue instruction shape appears in the listing.
        let listing = segue.image.program().listing();
        assert!(listing.contains("gs:["), "expected gs-relative access:\n{listing}");
        assert!(
            listing.contains("*4"),
            "expected scaled-index folding into the gs access:\n{listing}"
        );
        differential_check(&m, "get", &[100, 7]);
    }

    #[test]
    fn figure1_pattern1_wrap_i64() {
        // Int-to-pointer then deref: i32.wrap_i64 feeding a load.
        let m = wat::parse(
            r#"(module (memory 1)
                 (func (export "deref") (param $val i64) (result i32)
                   local.get $val
                   i32.wrap_i64
                   i32.load))"#,
        )
        .unwrap();
        let base = compile(&m, &cc(Strategy::GuardRegion)).unwrap();
        let segue = compile(&m, &cc(Strategy::Segue)).unwrap();
        // Baseline pays an explicit truncation; Segue folds it into the
        // address-size override.
        assert!(base.func_stats[0].sfi_overhead_insts > segue.func_stats[0].sfi_overhead_insts);
        let has_addr32_gs = segue
            .image
            .program()
            .insts()
            .iter()
            .any(|i| i.mem().is_some_and(|m| m.seg.is_some() && m.addr32));
        assert!(has_addr32_gs, "expected an addr32 gs access:\n{}", segue.image.program().listing());
        // High upper bits must be ignored under every SFI strategy.
        for s in [Strategy::GuardRegion, Strategy::Segue, Strategy::BoundsCheck] {
            let cm = compile(&m, &cc(s)).unwrap();
            let out = execute_export(&cm, "deref", &[0xDEAD_0000_0000_0040]).unwrap();
            assert_eq!(out.result.map(|r| r & 0xFFFF_FFFF), Some(0), "strategy {s}");
        }
    }

    #[test]
    fn segue_binary_is_smaller() {
        // A memory-heavy function: Segue cuts both instructions and bytes.
        let m = wat::parse(
            r#"(module (memory 1)
                 (func (export "sum") (param $n i32) (result i32)
                   (local $i i32) (local $acc i32)
                   block
                     loop
                       local.get $i
                       local.get $n
                       i32.ge_u
                       br_if 1
                       local.get $acc
                       local.get $i
                       i32.const 4
                       i32.mul
                       i32.load
                       i32.add
                       local.set $acc
                       local.get $i
                       i32.const 1
                       i32.add
                       local.set $i
                       br 0
                     end
                   end
                   local.get $acc))"#,
        )
        .unwrap();
        let base = compile(&m, &cc(Strategy::GuardRegion)).unwrap();
        let segue = compile(&m, &cc(Strategy::Segue)).unwrap();
        assert!(
            segue.code_size() < base.code_size(),
            "segue {} vs baseline {}",
            segue.code_size(),
            base.code_size()
        );
        differential_check(&m, "sum", &[10]);
    }

    #[test]
    fn oob_access_traps_under_sfi() {
        let m = wat::parse(
            r#"(module (memory 1)
                 (func (export "poke") (param $p i32) (result i32)
                   local.get $p
                   i32.const 1
                   i32.store
                   i32.const 7))"#,
        )
        .unwrap();
        // In-bounds works everywhere; out-of-bounds traps under every
        // protection strategy (masking wraps instead — footnote 1).
        for s in [
            Strategy::GuardRegion,
            Strategy::Segue,
            Strategy::SegueLoads,
            Strategy::BoundsCheck,
            Strategy::BoundsCheckSegue,
        ] {
            let cm = compile(&m, &cc(s)).unwrap();
            assert!(execute_export(&cm, "poke", &[100]).is_ok(), "{s}");
            let oob = execute_export(&cm, "poke", &[0x2_0000]); // 128 KiB > 64 KiB mem
            assert!(matches!(oob, Err(harness::ExecError::Trapped(_))), "{s}: {oob:?}");
        }
        // Masking wraps: the store lands inside the sandbox, no trap.
        let cm = compile(&m, &cc(Strategy::Masking)).unwrap();
        let out = execute_export(&cm, "poke", &[0x2_0000]).unwrap();
        assert_eq!(out.heap[0], 1, "masked store wrapped to offset 0");
    }

    #[test]
    fn calls_and_recursion_differential() {
        let m = wat::parse(
            r#"(module (memory 1)
                 (func $fib (param $n i32) (result i32)
                   local.get $n
                   i32.const 2
                   i32.lt_u
                   if
                     local.get $n
                     return
                   end
                   local.get $n
                   i32.const 1
                   i32.sub
                   call $fib
                   local.get $n
                   i32.const 2
                   i32.sub
                   call $fib
                   i32.add)
                 (func (export "fib") (param i32) (result i32)
                   local.get 0
                   call $fib))"#,
        )
        .unwrap();
        differential_check(&m, "fib", &[12]);
    }

    #[test]
    fn call_indirect_differential_and_traps() {
        let m = wat::parse(
            r#"(module (memory 1)
                 (func $double (param i32) (result i32)
                   local.get 0 i32.const 2 i32.mul)
                 (func $square (param i32) (result i32)
                   local.get 0 local.get 0 i32.mul)
                 (func $wrongsig (param i32) (result i64)
                   i64.const 0)
                 (table funcref (elem $double $square $wrongsig))
                 (func (export "apply") (param $f i32) (param $x i32) (result i32)
                   local.get $x
                   local.get $f
                   call_indirect (type $double)))"#,
        )
        .unwrap();
        differential_check(&m, "apply", &[0, 21]);
        differential_check(&m, "apply", &[1, 6]);
        // Signature mismatch and out-of-range table index trap.
        for s in [Strategy::GuardRegion, Strategy::Segue] {
            let cm = compile(&m, &cc(s)).unwrap();
            assert!(matches!(
                execute_export(&cm, "apply", &[2, 1]),
                Err(harness::ExecError::Trapped(_))
            ));
            assert!(matches!(
                execute_export(&cm, "apply", &[99, 1]),
                Err(harness::ExecError::Trapped(_))
            ));
        }
    }

    #[test]
    fn division_semantics() {
        let m = wat::parse(
            r#"(module (memory 1)
                 (func (export "divs") (param i32 i32) (result i32)
                   local.get 0 local.get 1 i32.div_s)
                 (func (export "rems") (param i32 i32) (result i32)
                   local.get 0 local.get 1 i32.rem_s)
                 (func (export "divu") (param i32 i32) (result i32)
                   local.get 0 local.get 1 i32.div_u))"#,
        )
        .unwrap();
        differential_check(&m, "divs", &[100, 7]);
        differential_check(&m, "divs", &[(-100i32) as u32 as u64, 7]);
        differential_check(&m, "rems", &[(-100i32) as u32 as u64, 7]);
        // INT_MIN rem -1 must be 0, not a trap.
        differential_check(&m, "rems", &[i32::MIN as u32 as u64, u32::MAX as u64]);
        differential_check(&m, "divu", &[u32::MAX as u64, 3]);
        // Division by zero traps in both worlds.
        let cm = compile(&m, &cc(Strategy::Segue)).unwrap();
        assert!(matches!(
            execute_export(&cm, "divs", &[1, 0]),
            Err(harness::ExecError::Trapped(_))
        ));
    }

    #[test]
    fn control_flow_differential() {
        let m = wat::parse(
            r#"(module (memory 1)
                 (func (export "collatz") (param $n i32) (result i32) (local $steps i32)
                   block $done
                     loop $top
                       local.get $n
                       i32.const 1
                       i32.le_u
                       br_if $done
                       local.get $n
                       i32.const 1
                       i32.and
                       if
                         local.get $n
                         i32.const 3
                         i32.mul
                         i32.const 1
                         i32.add
                         local.set $n
                       else
                         local.get $n
                         i32.const 1
                         i32.shr_u
                         local.set $n
                       end
                       local.get $steps
                       i32.const 1
                       i32.add
                       local.set $steps
                       br $top
                     end
                   end
                   local.get $steps))"#,
        )
        .unwrap();
        for n in [1u64, 6, 7, 27, 97] {
            differential_check(&m, "collatz", &[n]);
        }
    }

    #[test]
    fn br_table_differential() {
        let m = wat::parse(
            r#"(module (memory 1)
                 (func (export "sw") (param $i i32) (result i32)
                   block block block
                     local.get $i
                     br_table 0 1 2
                   end
                     i32.const 10 return
                   end
                     i32.const 20 return
                   end
                   i32.const 30))"#,
        )
        .unwrap();
        for i in 0..5u64 {
            differential_check(&m, "sw", &[i]);
        }
    }

    #[test]
    fn globals_and_bulk_memory() {
        let m = wat::parse(
            r#"(module (memory 1)
                 (global $g (mut i32) (i32.const 3))
                 (func (export "run") (result i32)
                   ;; fill [64, 96) with g, copy to [128, 160), read back
                   i32.const 64
                   global.get $g
                   i32.const 32
                   memory.fill
                   i32.const 128
                   i32.const 64
                   i32.const 32
                   memory.copy
                   i32.const 140
                   i32.load8_u))"#,
        )
        .unwrap();
        differential_check(&m, "run", &[]);
    }

    #[test]
    fn many_locals_spill_to_frame() {
        // More locals than the register pool: frame spilling must be
        // transparent under every strategy.
        let mut body = String::new();
        for i in 0..10 {
            body.push_str(&format!("(local $x{i} i32)\n"));
        }
        for i in 0..10 {
            body.push_str(&format!("i32.const {}\nlocal.set $x{i}\n", i * 3 + 1));
        }
        for i in 0..10 {
            body.push_str(&format!("local.get $x{i}\n"));
        }
        for _ in 0..9 {
            body.push_str("i32.add\n");
        }
        let src = format!("(module (memory 1) (func (export \"sum\") (result i32)\n{body}))");
        let m = wat::parse(&src).unwrap();
        differential_check(&m, "sum", &[]);
        // Expected: Σ (3i+1) for i in 0..10 = 3*45 + 10 = 145.
        let cm = compile(&m, &cc(Strategy::Segue)).unwrap();
        assert_eq!(
            execute_export(&cm, "sum", &[]).unwrap().result.map(|r| r & 0xFFFF_FFFF),
            Some(145)
        );
    }

    #[test]
    fn deep_operand_stack_spills() {
        // Push 12 constants (beyond the 7 operand registers), then add.
        // Mix in locals so the slots are not all compile-time constants.
        let mut body = String::new();
        body.push_str("(local $v i32) i32.const 5 local.set $v\n");
        for i in 1..=12 {
            body.push_str(&format!("i32.const {i}\nlocal.get $v\ni32.mul\n"));
        }
        for _ in 0..11 {
            body.push_str("i32.add\n");
        }
        let src = format!("(module (memory 1) (func (export \"s\") (result i32)\n{body}))");
        let m = wat::parse(&src).unwrap();
        differential_check(&m, "s", &[]);
    }

    #[test]
    fn imports_are_host_calls() {
        use sfi_wasm::{FuncBuilder, HostImport, Module, Op, ValType};
        let mut m = Module::new(1);
        let imp = m.push_import(HostImport {
            name: "env.magic".into(),
            params: vec![ValType::I32],
            result: Some(ValType::I32),
        });
        let f = m.push_func(
            FuncBuilder::new("f")
                .params(&[ValType::I32])
                .result(ValType::I32)
                .body(vec![Op::LocalGet(0), Op::Call(imp), Op::End])
                .build(),
        );
        m.export("f", f);
        let cm = compile(&m, &cc(Strategy::Segue)).unwrap();
        // The import is compiled as a host call with the import's id.
        let listing = cm.image.program().listing();
        assert!(listing.contains("call <host:0>"), "{listing}");
    }

    #[test]
    fn stack_overflow_check_traps() {
        let m = wat::parse(
            r#"(module (memory 1)
                 (func $inf (export "inf") (result i32)
                   call $inf))"#,
        )
        .unwrap();
        let cm = compile(&m, &cc(Strategy::GuardRegion)).unwrap();
        let r = execute_export(&cm, "inf", &[]);
        assert!(
            matches!(r, Err(harness::ExecError::Trapped(_))),
            "infinite recursion must hit the stack check: {r:?}"
        );
    }

    #[test]
    fn reserved_gpr_reduces_register_locals() {
        // With four locals, GuardRegion (R15 reserved) can pin only three in
        // registers; Segue pins all four. Observable as fewer memory ops.
        let m = wat::parse(
            r#"(module (memory 1)
                 (func (export "f") (param $a i32) (param $b i32) (param $c i32) (param $d i32) (result i32)
                   (local $acc i32)
                   block loop
                     local.get $a i32.eqz br_if 1
                     local.get $acc local.get $b i32.add
                     local.get $c i32.add local.get $d i32.add
                     local.set $acc
                     local.get $a i32.const 1 i32.sub local.set $a
                     br 0
                   end end
                   local.get $acc))"#,
        )
        .unwrap();
        let base = compile(&m, &cc(Strategy::GuardRegion)).unwrap();
        let segue = compile(&m, &cc(Strategy::Segue)).unwrap();
        let base_out = execute_export(&base, "f", &[50, 1, 2, 3]).unwrap();
        let segue_out = execute_export(&segue, "f", &[50, 1, 2, 3]).unwrap();
        assert_eq!(base_out.result, segue_out.result);
        assert!(
            segue_out.stats.loads < base_out.stats.loads,
            "freed GPR must reduce frame traffic: segue {} vs baseline {}",
            segue_out.stats.loads,
            base_out.stats.loads
        );
        differential_check(&m, "f", &[10, 5, 6, 7]);
    }
}

#[cfg(test)]
mod tier_tests {
    use crate::harness::{differential_check, execute_export};
    use crate::{compile, CompilerConfig, OptLevel, Strategy};

    /// A hot loop with more live locals than the baseline local pool: the
    /// optimizing tier must keep them all in registers (borrowing from the
    /// operand pool) and fold the Segue addressing.
    const HOT_SRC: &str = r#"(module (memory 1)
        (func (export "kern") (param $n i32) (result i32)
          (local $i i32) (local $a i32) (local $b i32) (local $c i32)
          (local $d i32) (local $acc i32)
          i32.const 1 local.set $a
          i32.const 2 local.set $b
          i32.const 3 local.set $c
          i32.const 4 local.set $d
          block loop
            local.get $i local.get $n i32.ge_u br_if 1
            local.get $acc
            local.get $i i32.const 4 i32.mul i32.load
            local.get $a i32.add local.get $b i32.xor
            local.get $c i32.add local.get $d i32.xor
            i32.add local.set $acc
            local.get $i i32.const 1 i32.add local.set $i
            br 0
          end end
          local.get $acc))"#;

    #[test]
    fn optimized_tier_matches_interpreter_and_baseline() {
        let m = sfi_wasm::wat::parse(HOT_SRC).unwrap();
        differential_check(&m, "kern", &[37]);
    }

    #[test]
    fn optimized_tier_cuts_cycles_on_hot_loop() {
        let m = sfi_wasm::wat::parse(HOT_SRC).unwrap();
        let cfg = CompilerConfig::for_strategy(Strategy::Segue);
        let base = compile(&m, &cfg).unwrap();
        let opt = compile(&m, &cfg.clone().optimized()).unwrap();
        assert!(opt.opt_stats.total() > 0, "the tier must do work: {:?}", opt.opt_stats);
        let b = execute_export(&base, "kern", &[200]).unwrap();
        let o = execute_export(&opt, "kern", &[200]).unwrap();
        assert_eq!(b.result, o.result, "tiers must agree");
        assert!(
            o.stats.cycles < b.stats.cycles,
            "optimized {} vs baseline {} cycles",
            o.stats.cycles,
            b.stats.cycles
        );
        assert!(
            o.stats.loads < b.stats.loads,
            "register-allocated locals must cut frame traffic: {} vs {}",
            o.stats.loads,
            b.stats.loads
        );
    }

    #[test]
    fn baseline_tier_is_byte_identical_to_default() {
        // With tiering off the artifact is byte-for-byte the pre-tier output.
        let m = sfi_wasm::wat::parse(HOT_SRC).unwrap();
        for s in Strategy::ALL {
            let cfg = CompilerConfig::for_strategy(s);
            assert_eq!(cfg.opt_level, OptLevel::Baseline, "default is baseline");
            let a = compile(&m, &cfg).unwrap();
            let b = compile(&m, &cfg).unwrap();
            assert_eq!(a.image.encoded().bytes, b.image.encoded().bytes, "{s}");
            assert_eq!(a.opt_stats.total(), 0, "baseline runs no passes");
        }
    }

    #[test]
    fn operand_pool_borrowing_survives_deep_stacks_and_calls() {
        // 8 locals (borrows operand registers) + a call (caller-save path)
        // + deep operand stack (spill path with the narrowed pool).
        let m = sfi_wasm::wat::parse(
            r#"(module (memory 1)
                 (func $leaf (param i32) (result i32)
                   local.get 0 i32.const 1 i32.add)
                 (func (export "f") (param $n i32) (result i32)
                   (local $a i32) (local $b i32) (local $c i32) (local $d i32)
                   (local $e i32) (local $f i32) (local $g i32)
                   block loop
                     local.get $n i32.eqz br_if 1
                     local.get $a i32.const 3 i32.mul i32.const 7 i32.add local.set $a
                     local.get $b local.get $a i32.xor local.set $b
                     local.get $c local.get $b call $leaf i32.add local.set $c
                     local.get $d i32.const 1 i32.add local.set $d
                     local.get $e local.get $d i32.or local.set $e
                     local.get $f local.get $e i32.add local.set $f
                     local.get $g i32.const 2 i32.mul local.get $f i32.add local.set $g
                     local.get $n i32.const 1 i32.sub local.set $n
                     br 0
                   end end
                   local.get $a local.get $b i32.add local.get $c i32.add
                   local.get $d i32.add local.get $e i32.add
                   local.get $f i32.add local.get $g i32.add))"#,
        )
        .unwrap();
        differential_check(&m, "f", &[0]);
        differential_check(&m, "f", &[1]);
        differential_check(&m, "f", &[23]);
    }
}

#[cfg(test)]
mod segment_entry_tests {
    use crate::harness::execute_export;
    use crate::{compile, CompilerConfig, Strategy};
    use sfi_x86::Inst;

    const SRC: &str = r#"(module (memory 1)
        (func $helper (param $p i32) (result i32)
          local.get $p i32.load)
        (func (export "read") (param $p i32) (result i32)
          local.get $p call $helper))"#;

    #[test]
    fn exported_functions_set_the_segment_base_internal_ones_do_not() {
        // §4.1: Wasm2c sets the base on module entry; internal calls elide
        // it. With the protocol on, exactly the exported function carries a
        // wrgsbase.
        let m = sfi_wasm::wat::parse(SRC).unwrap();
        let mut cfg = CompilerConfig::for_strategy(Strategy::Segue);
        cfg.segment_entry_protocol = true;
        let cm = compile(&m, &cfg).unwrap();
        let wrgsbase_count = cm
            .image
            .program()
            .insts()
            .iter()
            .filter(|i| matches!(i, Inst::WrGsBase { .. }))
            .count();
        assert_eq!(wrgsbase_count, 1, "one module-entry function, one wrgsbase");

        // And the code is self-sufficient: the harness's pre-set gs base is
        // redundant because the prologue re-derives it from the header.
        let out = execute_export(&cm, "read", &[64]).unwrap();
        assert_eq!(out.result.map(|r| r & 0xFFFF_FFFF), Some(0));
    }

    #[test]
    fn protocol_off_emits_no_wrgsbase() {
        let m = sfi_wasm::wat::parse(SRC).unwrap();
        let cm = compile(&m, &CompilerConfig::for_strategy(Strategy::Segue)).unwrap();
        assert!(
            !cm.image.program().insts().iter().any(|i| matches!(i, Inst::WrGsBase { .. })),
            "embedder-managed bases by default"
        );
    }

    #[test]
    fn non_segue_strategies_never_touch_segments() {
        let m = sfi_wasm::wat::parse(SRC).unwrap();
        let mut cfg = CompilerConfig::for_strategy(Strategy::GuardRegion);
        cfg.segment_entry_protocol = true;
        let cm = compile(&m, &cfg).unwrap();
        assert!(
            !cm.image.program().insts().iter().any(|i| matches!(i, Inst::WrGsBase { .. })),
            "the protocol only applies to segment-based strategies"
        );
    }
}

