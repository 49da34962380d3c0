//! The cycle cost model.
//!
//! The model is a deliberately simple, fully documented approximation of a
//! modern out-of-order x86 core, tuned so that the *relative* effects the
//! paper measures fall out of first principles:
//!
//! - **Throughput**: each instruction costs
//!   `max(uops / issue_width, bytes / fetch_bytes_per_cycle)` cycles, so both
//!   µop count (Segue halves it for memory ops) and code bytes (Segue's
//!   prefixes lengthen individual instructions) matter.
//! - **Serial latencies**: multiplies, divides, and system instructions
//!   (`wrpkru` ≈ 40+ cycles, `wrgsbase`) add fixed serial costs.
//! - **Memory hierarchy**: L1I/L1D misses (simulated precisely by
//!   [`crate::cache::Cache`]) add per-miss penalties.
//! - **Prefix decode penalty**: instructions carrying the address-size
//!   override pay a small decode tax, modelling length-changing-prefix
//!   stalls. This is the mechanism behind the paper's 473_astar outlier,
//!   where Segue is slightly *slower*.
//! - **Branches**: a 2-bit dynamic predictor per branch site; mispredictions
//!   pay a pipeline-flush penalty.
//!
//! All parameters are public so ablation benchmarks can vary them.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use crate::encode::Encoded;
use crate::inst::ShiftAmount;
use crate::{Inst, Program, Width};

/// Tunable cost parameters (cycles unless noted).
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    /// Sustained µops per cycle (issue width).
    pub issue_width: f64,
    /// Sustained instruction-fetch bandwidth, bytes per cycle.
    pub fetch_bytes_per_cycle: f64,
    /// Cycles of exposed load latency charged per data load (dependence
    /// chains hide most but not all of L1 latency).
    pub load_cycles: f64,
    /// Extra serial cycles for an integer multiply.
    pub mul_cycles: f64,
    /// Extra serial cycles for an integer divide.
    pub div_cycles: f64,
    /// Penalty per L1I miss.
    pub icache_miss_cycles: f64,
    /// Penalty per L1D miss.
    pub dcache_miss_cycles: f64,
    /// Penalty per branch misprediction.
    pub branch_miss_cycles: f64,
    /// Extra cycles for a *taken* branch (front-end redirect).
    pub taken_branch_cycles: f64,
    /// Decode tax per instruction bearing an address-size override prefix
    /// (models length-changing-prefix pre-decode stalls).
    pub addr32_decode_cycles: f64,
    /// Serial cost of `wrpkru` (the paper measures ≈ 40–44 cycles, §6.4.1).
    pub wrpkru_cycles: f64,
    /// Serial cost of `rdpkru`.
    pub rdpkru_cycles: f64,
    /// Serial cost of `wrgsbase`/`wrfsbase` (FSGSBASE user instructions).
    pub wrgsbase_cycles: f64,
    /// Serial cost of the host-call trampoline (`Inst::CallHost`), excluding
    /// whatever the host itself does.
    pub call_host_cycles: f64,
    /// Serial cost of `lfence`: the pipeline drains before later µops issue,
    /// so every fence pays roughly a ROB-refill's worth of cycles. This is
    /// why the `Lfence` mitigation level is the costliest on branchy code.
    pub lfence_cycles: f64,
    /// Core frequency in GHz, used only to convert cycles to nanoseconds.
    /// The paper pins benchmarks at 2.2 GHz; so do we.
    pub freq_ghz: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            issue_width: 2.1,
            fetch_bytes_per_cycle: 28.0,
            load_cycles: 0.55,
            mul_cycles: 2.0,
            div_cycles: 18.0,
            icache_miss_cycles: 14.0,
            dcache_miss_cycles: 12.0,
            branch_miss_cycles: 14.0,
            taken_branch_cycles: 0.5,
            addr32_decode_cycles: 0.18,
            wrpkru_cycles: 44.0,
            rdpkru_cycles: 6.0,
            wrgsbase_cycles: 12.0,
            call_host_cycles: 12.0,
            lfence_cycles: 9.0,
            freq_ghz: 2.2,
        }
    }
}

impl CostModel {
    /// µop count of an instruction in this model.
    pub fn uops(&self, inst: &Inst) -> f64 {
        match inst {
            Inst::Nop => 0.25,
            Inst::AluRM { .. } => 2.0,
            Inst::StoreImm { .. } | Inst::Store { .. } => 1.0,
            Inst::Push { .. } | Inst::Pop { .. } => 1.0,
            Inst::Call { .. } | Inst::CallReg { .. } | Inst::Ret => 2.0,
            Inst::CallHost { .. } => 2.0,
            Inst::Div { .. } => 10.0,
            Inst::MovdquLoad { .. } | Inst::MovdquStore { .. } => 1.0,
            Inst::WrPkru | Inst::RdPkru => 3.0,
            Inst::WrGsBase { .. } | Inst::RdGsBase { .. } | Inst::WrFsBase { .. } => 2.0,
            _ => 1.0,
        }
    }

    /// Serial (non-pipelined) extra cycles for an instruction.
    pub fn serial_cycles(&self, inst: &Inst) -> f64 {
        match inst {
            Inst::Imul { .. } | Inst::ImulRRI { .. } => self.mul_cycles,
            Inst::Div { width, .. } => {
                if *width == Width::Q {
                    self.div_cycles * 1.6
                } else {
                    self.div_cycles
                }
            }
            Inst::Shift { amount: ShiftAmount::Cl, .. } => 0.5,
            Inst::WrPkru => self.wrpkru_cycles,
            Inst::RdPkru => self.rdpkru_cycles,
            Inst::WrGsBase { .. } | Inst::WrFsBase { .. } => self.wrgsbase_cycles,
            Inst::RdGsBase { .. } => 2.0,
            Inst::CallHost { .. } => self.call_host_cycles,
            Inst::Lfence => self.lfence_cycles,
            _ => 0.0,
        }
    }

    /// The throughput cost of one instruction occupying `bytes` of fetch.
    #[inline]
    pub fn throughput_cycles(&self, inst: &Inst, bytes: usize) -> f64 {
        let back = self.uops(inst) / self.issue_width;
        let front = bytes as f64 / self.fetch_bytes_per_cycle;
        let mut c = back.max(front);
        if inst.mem().is_some_and(|m| m.addr32) {
            c += self.addr32_decode_cycles;
        }
        c
    }

    /// Converts a cycle count to nanoseconds at the model frequency.
    #[inline]
    pub fn cycles_to_ns(&self, cycles: f64) -> f64 {
        cycles / self.freq_ghz
    }
}

/// The image-pure part of one instruction's charge: everything
/// [`CostModel`] derives from the instruction and its encoded length alone.
#[derive(Debug, Clone, Copy)]
pub struct InstCost {
    /// [`CostModel::throughput_cycles`] at the instruction's encoded length.
    pub throughput: f64,
    /// [`CostModel::serial_cycles`].
    pub serial: f64,
    /// µops a transient window spends on the instruction:
    /// [`CostModel::uops`] rounded up, at least one.
    pub spec_uops: u32,
    /// Encoded length in bytes (the fetch the instruction occupies).
    pub bytes: u32,
}

/// Per-instruction costs of one encoded program under one [`CostModel`]:
/// the timing table, kept apart from the decoded instructions.
///
/// Each instruction stores a 4-byte class index into a deduplicated list of
/// [`InstCost`] entries (a program has a few dozen distinct ones), so the
/// emulator's per-instruction path reads two small arrays instead of
/// re-deriving the costs on every retirement. Entries are computed by the
/// same [`CostModel`] methods, so they equal them bit for bit.
#[derive(Debug, Clone)]
pub struct CostTable {
    model: CostModel,
    class: Vec<u32>,
    classes: Vec<InstCost>,
}

impl CostTable {
    /// Builds the table of `program` (laid out as `encoded`) under `model`.
    /// Deduplication is one hash lookup per instruction.
    pub(crate) fn build(model: &CostModel, program: &Program, encoded: &Encoded) -> CostTable {
        let mut index: HashMap<[u64; 3], u32, BuildHasherDefault<FoldHasher>> = HashMap::default();
        let mut classes = Vec::new();
        let class = program
            .insts()
            .iter()
            .enumerate()
            .map(|(pc, inst)| {
                let bytes = encoded.inst_len(pc);
                let cost = InstCost {
                    throughput: model.throughput_cycles(inst, bytes),
                    serial: model.serial_cycles(inst),
                    spec_uops: model.uops(inst).ceil().max(1.0) as u32,
                    bytes: bytes as u32,
                };
                let key = [
                    cost.throughput.to_bits(),
                    cost.serial.to_bits(),
                    u64::from(cost.spec_uops) << 32 | u64::from(cost.bytes),
                ];
                *index.entry(key).or_insert_with(|| {
                    classes.push(cost);
                    (classes.len() - 1) as u32
                })
            })
            .collect();
        CostTable { model: model.clone(), class, classes }
    }

    /// The model the table was built under.
    pub fn model(&self) -> &CostModel {
        &self.model
    }

    /// The costs of instruction `pc`.
    #[inline]
    pub fn get(&self, pc: usize) -> &InstCost {
        &self.classes[self.class[pc] as usize]
    }
}

/// A multiply-fold hasher for [`CostTable::build`]'s keys. They come from
/// the image itself, so SipHash's flood resistance buys nothing, and it
/// would cost more than computing the entry does.
#[derive(Default)]
struct FoldHasher(u64);

impl Hasher for FoldHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Execution counters produced by a [`crate::emu::Machine`] run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RunStats {
    /// Retired instructions.
    pub insts: u64,
    /// Modeled cycles.
    pub cycles: f64,
    /// Data loads executed.
    pub loads: u64,
    /// Data stores executed.
    pub stores: u64,
    /// L1I misses.
    pub icache_misses: u64,
    /// L1D misses.
    pub dcache_misses: u64,
    /// Conditional/indirect branches executed.
    pub branches: u64,
    /// Branch mispredictions.
    pub branch_misses: u64,
    /// Host calls executed.
    pub host_calls: u64,
    /// Code bytes fetched (sum of executed instruction lengths).
    pub code_bytes_fetched: u64,
    /// Cycles attributed to each [`crate::Provenance`] class, indexed by
    /// [`crate::Provenance::index`]. Per-instruction throughput, latency,
    /// serialization, and host-call cycles land in the bucket of the
    /// instruction that paid them; microarchitectural penalties are broken
    /// out into the three `*_penalty_cycles` fields below.
    pub prov_cycles: [f64; crate::Provenance::COUNT],
    /// Cycles lost to L1I misses (the front-end stall bucket).
    pub icache_penalty_cycles: f64,
    /// Cycles lost to L1D misses. The emulator's data-side penalty model is
    /// the cache/dTLB surface: fig7's dTLB pressure shows up here.
    pub dcache_penalty_cycles: f64,
    /// Cycles lost to branch mispredictions.
    pub branch_penalty_cycles: f64,
    /// Speculation windows opened (one per modeled mispredict rollback when
    /// a [`crate::emu::SpecConfig`] is installed; always 0 otherwise).
    pub spec_flushes: u64,
    /// Wrong-path µops transiently executed across all windows. These µops
    /// are *not* charged cycles (their latency hides under the mispredict
    /// penalty already attributed), so the exact-sum invariant
    /// `attributed_cycles() == cycles` is untouched by speculation; their
    /// cache/TLB side effects do persist.
    pub spec_uops: u64,
    /// Speculative leak events: a transient memory access whose address was
    /// derived from secret-region data (the taint rule DESIGN.md §16
    /// documents). Nonzero means the compiled artifact is Spectre-unsafe
    /// under this strategy/mitigation combination.
    pub spec_leaks: u64,
}

impl RunStats {
    /// Modeled wall time in nanoseconds under `model`.
    pub fn ns(&self, model: &CostModel) -> f64 {
        model.cycles_to_ns(self.cycles)
    }

    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0.0 {
            0.0
        } else {
            self.insts as f64 / self.cycles
        }
    }

    /// Sum of all attribution buckets: the per-provenance buckets plus
    /// the three penalty buckets, added in a fixed order.
    ///
    /// The emulator finalizes `cycles` *from* this sum at every successful
    /// return, so for stats produced by a run the invariant
    /// `attributed_cycles() == cycles` holds exactly (bit-for-bit), not
    /// merely to within rounding. Synthetic stats built by hand may leave
    /// the buckets empty.
    pub fn attributed_cycles(&self) -> f64 {
        let mut total = 0.0;
        for b in self.prov_cycles {
            total += b;
        }
        total + self.icache_penalty_cycles + self.dcache_penalty_cycles + self.branch_penalty_cycles
    }

    /// Accumulates another run's counters into this one.
    pub fn merge(&mut self, other: &RunStats) {
        self.insts += other.insts;
        self.cycles += other.cycles;
        self.loads += other.loads;
        self.stores += other.stores;
        self.icache_misses += other.icache_misses;
        self.dcache_misses += other.dcache_misses;
        self.branches += other.branches;
        self.branch_misses += other.branch_misses;
        self.host_calls += other.host_calls;
        self.code_bytes_fetched += other.code_bytes_fetched;
        for (dst, src) in self.prov_cycles.iter_mut().zip(other.prov_cycles) {
            *dst += src;
        }
        self.icache_penalty_cycles += other.icache_penalty_cycles;
        self.dcache_penalty_cycles += other.dcache_penalty_cycles;
        self.branch_penalty_cycles += other.branch_penalty_cycles;
        self.spec_flushes += other.spec_flushes;
        self.spec_uops += other.spec_uops;
        self.spec_leaks += other.spec_leaks;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Gpr, Mem, Seg};

    #[test]
    fn defaults_are_sane() {
        let m = CostModel::default();
        assert!(m.issue_width >= 1.0);
        assert!(m.wrpkru_cycles > m.wrgsbase_cycles, "PKRU writes are the expensive ones");
    }

    #[test]
    fn throughput_accounts_for_fetch() {
        let m = CostModel::default();
        let short = Inst::Nop;
        // A 10-byte instruction is fetch-bound at 16 B/cycle.
        let long = Inst::MovRI { dst: Gpr::Rax, imm: i64::MAX, width: Width::Q };
        assert!(m.throughput_cycles(&long, 10) > m.throughput_cycles(&short, 1));
    }

    #[test]
    fn addr32_prefix_costs_extra() {
        let m = CostModel::default();
        let plain = Inst::Load { dst: Gpr::Rax, mem: Mem::base(Gpr::Rbx), width: Width::Q };
        let segue = Inst::Load {
            dst: Gpr::Rax,
            mem: Mem::base(Gpr::Rbx).with_seg(Seg::Gs).with_addr32(),
            width: Width::Q,
        };
        // Same byte count assumed; the prefixed form still costs more.
        assert!(m.throughput_cycles(&segue, 4) > m.throughput_cycles(&plain, 4));
    }

    #[test]
    fn cycles_to_ns_uses_pinned_frequency() {
        let m = CostModel::default();
        assert!((m.cycles_to_ns(2.2e9) - 1e9).abs() < 1.0);
    }

    #[test]
    fn stats_merge() {
        let mut a = RunStats { insts: 10, cycles: 5.0, ..Default::default() };
        let b = RunStats { insts: 6, cycles: 3.0, loads: 2, ..Default::default() };
        a.merge(&b);
        assert_eq!(a.insts, 16);
        assert_eq!(a.loads, 2);
        assert!((a.ipc() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn ipc_zero_cycles_is_zero_not_nan() {
        let empty = RunStats::default();
        assert_eq!(empty.ipc(), 0.0);
        let insts_only = RunStats { insts: 42, ..Default::default() };
        assert_eq!(insts_only.ipc(), 0.0, "zero cycles must not divide");
    }

    #[test]
    fn attribution_buckets_merge_and_sum() {
        use crate::Provenance;
        let mut a = RunStats::default();
        a.prov_cycles[Provenance::GuestCompute.index()] = 10.0;
        a.icache_penalty_cycles = 2.0;
        let mut b = RunStats::default();
        b.prov_cycles[Provenance::BoundsGuard.index()] = 5.0;
        b.dcache_penalty_cycles = 1.0;
        b.branch_penalty_cycles = 0.5;
        a.merge(&b);
        assert_eq!(a.prov_cycles[Provenance::GuestCompute.index()], 10.0);
        assert_eq!(a.prov_cycles[Provenance::BoundsGuard.index()], 5.0);
        assert_eq!(a.attributed_cycles(), 18.5);
    }
}
