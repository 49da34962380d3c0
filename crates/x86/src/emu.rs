//! The deterministic x86-64 emulator.
//!
//! [`Machine`] executes a [`Program`] against a pluggable [`MemBus`]
//! (a flat test memory here; `sfi-vm` provides a paged, MPK/MTE-checking
//! bus). It retires instructions one at a time, models an L1I/L1D cache and
//! a 2-bit branch predictor, and charges cycles through
//! [`crate::cost::CostModel`].
//!
//! ## Code-address model
//!
//! Code addresses during *execution* are instruction indices (a `Ret` with an
//! empty shadow call stack ends the run); the byte-accurate layout from
//! [`crate::encode`] is used for fetch/i-cache accounting. This split keeps
//! the emulator simple while preserving the size-dependent effects that the
//! Segue evaluation needs.
//!
//! ## One instruction loop
//!
//! Committed execution and transient (wrong-path) execution share one
//! interpreter. On a mispredicted `Jcc` or a stale BTB entry, with a
//! [`SpecConfig`] installed, the loop snapshots the register file, runs
//! itself in transient mode from the wrong-path target, and restores the
//! snapshot. The transient mode spends a µop budget instead of fuel,
//! touches the caches without counting misses, keeps taint and buffered
//! stores in a per-window shadow, and stops where a real window would:
//! DESIGN.md §16 has the contract.

use std::collections::HashMap;
use std::fmt;
use std::ops::Range;

use crate::cache::Cache;
use crate::cost::{CostModel, CostTable, RunStats};
use crate::encode::{encode_program, EncodeError, Encoded};
use crate::inst::{AluOp, ShiftAmount, ShiftOp};
use crate::{Cond, Gpr, Inst, Mem, MemFault, Program, Seg, Trap, Width, Xmm};

/// Per-access context handed to the bus (the MPK rights register).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessCtx {
    /// The current PKRU value: 2 bits per key, `(AD, WD)` pairs; key *k*'s
    /// access-disable bit is `pkru >> (2k) & 1`, write-disable is
    /// `pkru >> (2k+1) & 1`.
    pub pkru: u32,
}

impl AccessCtx {
    /// A context with all keys enabled (PKRU = 0).
    pub const ALL_ENABLED: AccessCtx = AccessCtx { pkru: 0 };

    /// Whether reads are permitted for `key` under this PKRU.
    #[inline]
    pub fn may_read(&self, key: u8) -> bool {
        self.pkru >> (2 * key) & 1 == 0
    }

    /// Whether writes are permitted for `key` under this PKRU.
    #[inline]
    pub fn may_write(&self, key: u8) -> bool {
        self.may_read(key) && (self.pkru >> (2 * key + 1)) & 1 == 0
    }
}

/// Configuration for the bounded speculation window (DESIGN.md §16).
///
/// When installed on a [`Machine`], every mispredicted conditional branch
/// and every stale-BTB indirect branch opens a transient window: up to
/// `window` µops of the wrong path run through the emulator's instruction
/// loop against a snapshot of the register file and a store-forwarding
/// buffer, then roll back. Cache state is deliberately **not** rolled
/// back — that residue is the Spectre side channel this model exists to
/// measure.
///
/// The window also carries a taint tracker: a transient load from the
/// configured secret region taints its destination register; when a
/// secret-derived value later forms the address of any transient memory
/// access (the "transmit"), the access is recorded in
/// [`RunStats::spec_leaks`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpecConfig {
    window: u32,
    secret_lo: u64,
    secret_hi: u64,
}

impl SpecConfig {
    /// Default window: 32 µops, a small ROB's worth of wrong-path work.
    /// Real reorder buffers run 200+ entries; 32 keeps windows cheap to
    /// simulate while still being deep enough for every gadget shape the
    /// corpus exercises (load → derive → transmit is ≤ 10 µops).
    pub const DEFAULT_WINDOW: u32 = 32;

    /// Upper clamp on the window. Deeper windows only re-walk the same
    /// wrong path; 128 bounds worst-case simulation cost per mispredict.
    pub const MAX_WINDOW: u32 = 128;

    /// Creates a speculation config.
    ///
    /// `window` is the µop budget per transient window (clamped to
    /// [`SpecConfig::MAX_WINDOW`]); `[secret_lo, secret_hi)` is the region
    /// whose contents taint transient loads.
    ///
    /// # Errors
    ///
    /// [`SpecError::ZeroWindow`] if `window == 0` (a zero-length window can
    /// never leak and would report false safety), and
    /// [`SpecError::EmptySecretRegion`] if `secret_lo >= secret_hi`.
    pub fn new(window: u32, secret_lo: u64, secret_hi: u64) -> Result<SpecConfig, SpecError> {
        if window == 0 {
            return Err(SpecError::ZeroWindow);
        }
        if secret_lo >= secret_hi {
            return Err(SpecError::EmptySecretRegion);
        }
        Ok(SpecConfig { window: window.min(Self::MAX_WINDOW), secret_lo, secret_hi })
    }

    /// The (possibly clamped) µop budget per window.
    pub fn window(&self) -> u32 {
        self.window
    }
}

/// A rejected [`SpecConfig`] (degenerate window or secret region).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpecError {
    /// The requested window was zero µops wide.
    ZeroWindow,
    /// The secret region was empty (`lo >= hi`).
    EmptySecretRegion,
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::ZeroWindow => {
                f.write_str("speculation window must be at least 1 µop (W=0 disables the detector)")
            }
            SpecError::EmptySecretRegion => f.write_str("secret region is empty (lo >= hi)"),
        }
    }
}

impl std::error::Error for SpecError {}

/// A data-memory backend for the emulator.
pub trait MemBus {
    /// Loads `width` bytes at `addr`, zero-extended.
    fn load(&mut self, addr: u64, width: Width, ctx: AccessCtx) -> Result<u64, MemFault>;
    /// Stores the low `width` bytes of `val` at `addr`.
    fn store(&mut self, addr: u64, width: Width, val: u64, ctx: AccessCtx)
        -> Result<(), MemFault>;

    /// Loads 16 bytes (for `movdqu`). The default issues two 8-byte loads.
    fn load128(&mut self, addr: u64, ctx: AccessCtx) -> Result<u128, MemFault> {
        let lo = self.load(addr, Width::Q, ctx)?;
        let hi = self.load(addr + 8, Width::Q, ctx)?;
        Ok((lo as u128) | ((hi as u128) << 64))
    }

    /// Stores 16 bytes (for `movdqu`). The default issues two 8-byte stores.
    fn store128(&mut self, addr: u64, val: u128, ctx: AccessCtx) -> Result<(), MemFault> {
        self.store(addr, Width::Q, val as u64, ctx)?;
        self.store(addr + 8, Width::Q, (val >> 64) as u64, ctx)
    }
}

/// Host-side byte access to a bus, bypassing protection checks and the
/// modeled caches: what the sandbox entry ABI is written against.
pub trait HostBytes {
    /// Reads `buf.len()` bytes at `addr`.
    fn read_unchecked(&self, addr: u64, buf: &mut [u8]) -> Result<(), MemFault>;
    /// Writes `bytes` at `addr`.
    fn write_unchecked(&mut self, addr: u64, bytes: &[u8]) -> Result<(), MemFault>;
}

/// Bytes per [`FlatMemory`] page.
const FLAT_PAGE: usize = 4096;

/// A flat, fully mapped memory for tests and self-contained benchmarks.
///
/// Every address below `size` is mapped and starts out zero, but a 4 KiB
/// page is only allocated by its first write: untouched pages read as
/// zero. A run that touches a few pages of a 1 MiB memory pays for those
/// pages, not for zeroing the whole range. Faults are those of a plain
/// `size`-byte buffer: an access that does not end inside the memory
/// faults at its start address.
#[derive(Debug, Clone)]
pub struct FlatMemory {
    size: usize,
    pages: Vec<Option<Box<[u8; FLAT_PAGE]>>>,
}

impl FlatMemory {
    /// Creates a zeroed flat memory of `size` bytes.
    pub fn new(size: usize) -> FlatMemory {
        FlatMemory { size, pages: vec![None; size.div_ceil(FLAT_PAGE)] }
    }

    /// The memory's size in bytes.
    pub fn size(&self) -> usize {
        self.size
    }

    fn check(&self, addr: u64, len: u64) -> Result<usize, MemFault> {
        let end = addr.checked_add(len).ok_or(MemFault::OutOfRange { addr })?;
        if end > self.size as u64 {
            return Err(MemFault::OutOfRange { addr });
        }
        Ok(addr as usize)
    }

    /// The page holding byte `i`, allocated (zeroed) on first use.
    fn page_mut(&mut self, i: usize) -> &mut [u8; FLAT_PAGE] {
        self.pages[i / FLAT_PAGE].get_or_insert_with(|| {
            vec![0u8; FLAT_PAGE].into_boxed_slice().try_into().expect("one page")
        })
    }

    /// Copies `buf.len()` checked bytes at `i` out, page by page.
    fn read_at(&self, mut i: usize, buf: &mut [u8]) {
        let mut done = 0;
        while done < buf.len() {
            let off = i % FLAT_PAGE;
            let n = (FLAT_PAGE - off).min(buf.len() - done);
            let chunk = &mut buf[done..done + n];
            match &self.pages[i / FLAT_PAGE] {
                Some(page) => chunk.copy_from_slice(&page[off..off + n]),
                None => chunk.fill(0),
            }
            (i, done) = (i + n, done + n);
        }
    }

    /// Copies `bytes` in at checked offset `i`, page by page.
    fn write_at(&mut self, mut i: usize, bytes: &[u8]) {
        let mut done = 0;
        while done < bytes.len() {
            let off = i % FLAT_PAGE;
            let n = (FLAT_PAGE - off).min(bytes.len() - done);
            self.page_mut(i)[off..off + n].copy_from_slice(&bytes[done..done + n]);
            (i, done) = (i + n, done + n);
        }
    }
}

impl HostBytes for FlatMemory {
    fn read_unchecked(&self, addr: u64, buf: &mut [u8]) -> Result<(), MemFault> {
        let i = self.check(addr, buf.len() as u64)?;
        self.read_at(i, buf);
        Ok(())
    }

    fn write_unchecked(&mut self, addr: u64, bytes: &[u8]) -> Result<(), MemFault> {
        let i = self.check(addr, bytes.len() as u64)?;
        self.write_at(i, bytes);
        Ok(())
    }
}

impl MemBus for FlatMemory {
    #[inline]
    fn load(&mut self, addr: u64, width: Width, _ctx: AccessCtx) -> Result<u64, MemFault> {
        let n = width.bytes() as usize;
        let i = self.check(addr, n as u64)?;
        let (off, mut buf) = (i % FLAT_PAGE, [0u8; 8]);
        if off + n <= FLAT_PAGE {
            if let Some(page) = &self.pages[i / FLAT_PAGE] {
                buf[..n].copy_from_slice(&page[off..off + n]);
            }
        } else {
            self.read_at(i, &mut buf[..n]);
        }
        Ok(u64::from_le_bytes(buf))
    }

    #[inline]
    fn store(
        &mut self,
        addr: u64,
        width: Width,
        val: u64,
        _ctx: AccessCtx,
    ) -> Result<(), MemFault> {
        let n = width.bytes() as usize;
        let i = self.check(addr, n as u64)?;
        let (off, bytes) = (i % FLAT_PAGE, val.to_le_bytes());
        if off + n <= FLAT_PAGE {
            self.page_mut(i)[off..off + n].copy_from_slice(&bytes[..n]);
        } else {
            self.write_at(i, &bytes[..n]);
        }
        Ok(())
    }
}

/// Architectural flags (the subset compilers branch on).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Flags {
    /// Zero flag.
    pub zf: bool,
    /// Sign flag.
    pub sf: bool,
    /// Carry flag.
    pub cf: bool,
    /// Overflow flag.
    pub of: bool,
}

impl Flags {
    /// Evaluates a condition code against these flags.
    pub fn cond(&self, c: Cond) -> bool {
        match c {
            Cond::E => self.zf,
            Cond::Ne => !self.zf,
            Cond::L => self.sf != self.of,
            Cond::Le => self.zf || self.sf != self.of,
            Cond::G => !self.zf && self.sf == self.of,
            Cond::Ge => self.sf == self.of,
            Cond::B => self.cf,
            Cond::Be => self.cf || self.zf,
            Cond::A => !self.cf && !self.zf,
            Cond::Ae => !self.cf,
            Cond::S => self.sf,
            Cond::Ns => !self.sf,
        }
    }
}

/// The architectural register state.
#[derive(Debug, Clone)]
#[derive(Default)]
pub struct RegFile {
    gpr: [u64; 16],
    xmm: [u128; 16],
    /// `%gs` segment base (Segue's sandbox heap base).
    pub gs_base: u64,
    /// `%fs` segment base (conventionally TLS).
    pub fs_base: u64,
    /// MPK rights register.
    pub pkru: u32,
    /// Current flags.
    pub flags: Flags,
}


impl RegFile {
    /// Reads a general-purpose register (full 64 bits).
    #[inline]
    pub fn gpr(&self, r: Gpr) -> u64 {
        self.gpr[r.index()]
    }

    /// Writes a general-purpose register (full 64 bits).
    #[inline]
    pub fn set_gpr(&mut self, r: Gpr, v: u64) {
        self.gpr[r.index()] = v;
    }

    /// Writes a register at `width` with x86 merge semantics: 32-bit writes
    /// zero the upper half; 8/16-bit writes merge into the low bits.
    #[inline]
    pub fn write_width(&mut self, r: Gpr, w: Width, v: u64) {
        let slot = &mut self.gpr[r.index()];
        *slot = match w {
            Width::Q => v,
            Width::D => v & 0xFFFF_FFFF,
            Width::W => (*slot & !0xFFFF) | (v & 0xFFFF),
            Width::B => (*slot & !0xFF) | (v & 0xFF),
        };
    }

    /// Reads an XMM register.
    #[inline]
    pub fn xmm(&self, x: crate::Xmm) -> u128 {
        self.xmm[x.index()]
    }

    /// Writes an XMM register.
    #[inline]
    pub fn set_xmm(&mut self, x: crate::Xmm, v: u128) {
        self.xmm[x.index()] = v;
    }

    fn seg_base(&self, s: Seg) -> u64 {
        match s {
            Seg::Fs => self.fs_base,
            Seg::Gs => self.gs_base,
        }
    }
}

/// A program paired with its encoded byte layout and its cost table.
#[derive(Debug, Clone)]
pub struct Image {
    program: Program,
    encoded: Encoded,
    costs: CostTable,
}

impl Image {
    /// Encodes `program` (with branch relaxation) and pairs it for execution,
    /// with its cost table under [`CostModel::default`]. A machine running
    /// another model builds that model's table for the run.
    pub fn load(program: Program) -> Result<Image, EncodeError> {
        let encoded = encode_program(&program)?;
        let costs = CostTable::build(&CostModel::default(), &program, &encoded);
        Ok(Image { program, encoded, costs })
    }

    /// The program.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The encoded bytes/offsets.
    pub fn encoded(&self) -> &Encoded {
        &self.encoded
    }

    /// Total code size in bytes.
    pub fn code_size(&self) -> usize {
        self.encoded.len()
    }

    /// The per-instruction cost table under [`CostModel::default`].
    pub fn costs(&self) -> &CostTable {
        &self.costs
    }
}

/// The branch predictors of one run: trained by committed branches, read
/// (never trained) by transient windows.
struct Predictors {
    /// 2-bit counters per instruction site.
    counters: Vec<u8>,
    /// Last target of each indirect-branch site.
    btb: HashMap<usize, usize>,
}

/// State private to one path through the instruction loop.
///
/// The committed path (`SPEC = false`) uses only its return stack: every
/// taint query on it answers `false` and every taint write is a no-op, so
/// taint tracking compiles out of the committed loop. A transient window
/// (`SPEC = true`) starts from an empty return stack and also keeps its
/// µop budget, the taint tracker and the store-forwarding buffer here, all
/// dropped with the window.
#[derive(Default)]
struct Path<const SPEC: bool> {
    /// Return addresses of the calls made on this path.
    stack: Vec<usize>,
    /// The window's µop budget.
    budget: u64,
    /// The secret region whose contents taint transient loads.
    secret: Range<u64>,
    /// One taint bit per GPR.
    taint: u16,
    /// One taint bit per XMM register.
    xtaint: u16,
    /// Taint of the flags.
    flags_taint: bool,
    /// Byte-granular store-forwarding buffer, each byte carrying taint.
    store_buf: HashMap<u64, (u8, bool)>,
}

impl<const SPEC: bool> Path<SPEC> {
    #[inline]
    fn is(&self, r: Gpr) -> bool {
        SPEC && self.taint >> r.index() & 1 == 1
    }

    /// Width-aware taint write: 32/64-bit destinations are fully
    /// overwritten (taint replaced); 8/16-bit writes merge (taint ORs).
    #[inline]
    fn put(&mut self, dst: Gpr, width: Width, t: bool) {
        let bit = 1u16 << dst.index();
        if SPEC && t {
            self.taint |= bit;
        } else if SPEC && matches!(width, Width::Q | Width::D) {
            self.taint &= !bit;
        }
    }

    #[inline]
    fn is_xmm(&self, x: Xmm) -> bool {
        SPEC && self.xtaint >> x.index() & 1 == 1
    }

    #[inline]
    fn put_xmm(&mut self, x: Xmm, t: bool) {
        if SPEC {
            self.xtaint = self.xtaint & !(1 << x.index()) | u16::from(t) << x.index();
        }
    }

    #[inline]
    fn flags(&self) -> bool {
        SPEC && self.flags_taint
    }

    #[inline]
    fn put_flags(&mut self, t: bool) {
        if SPEC {
            self.flags_taint = t;
        }
    }

    /// Whether the address of `mem` is secret-derived.
    #[inline]
    fn addr(&self, mem: &Mem) -> bool {
        mem.base.is_some_and(|b| self.is(b)) || mem.index.is_some_and(|(i, _)| self.is(i))
    }

    /// Loads `width` bytes at `ea` with their taint. The committed path
    /// reads the bus. A transient read synthesizes secret-region bytes
    /// deterministically (the region lives outside the architecturally
    /// mapped sandbox, so the bus would fault), reads other addresses
    /// through the bus with faulting loads forwarding zero, and overlays
    /// the store buffer on both.
    #[inline]
    fn read<M: MemBus>(
        &self,
        bus: &mut M,
        ea: u64,
        width: Width,
        ctx: AccessCtx,
    ) -> Result<(u64, bool), MemFault> {
        if !SPEC {
            return Ok((bus.load(ea, width, ctx)?, false));
        }
        let mut t = self.secret.contains(&ea);
        let mut v: u64 = if t {
            let mut x = 0u64;
            for i in 0..width.bytes() {
                x |= u64::from((ea.wrapping_add(i) as u8) ^ 0xA5) << (8 * i);
            }
            x
        } else {
            bus.load(ea, width, ctx).unwrap_or(0)
        };
        for i in 0..width.bytes() {
            if let Some(&(b, bt)) = self.store_buf.get(&ea.wrapping_add(i)) {
                v = (v & !(0xFFu64 << (8 * i))) | (u64::from(b) << (8 * i));
                t |= bt;
            }
        }
        Ok((v, t))
    }

    /// Stores the low `width` bytes of `v` (taint `t`): to the bus on the
    /// committed path, to the store-forwarding buffer on a transient one.
    #[inline]
    fn write<M: MemBus>(
        &mut self,
        bus: &mut M,
        ea: u64,
        width: Width,
        v: u64,
        t: bool,
        ctx: AccessCtx,
    ) -> Result<(), MemFault> {
        if !SPEC {
            return bus.store(ea, width, v, ctx);
        }
        for i in 0..width.bytes() {
            self.store_buf.insert(ea.wrapping_add(i), ((v >> (8 * i)) as u8, t));
        }
        Ok(())
    }

    /// [`Path::read`] of 16 bytes (a transient one reads two quadwords).
    #[inline]
    fn read128<M: MemBus>(
        &self,
        bus: &mut M,
        ea: u64,
        ctx: AccessCtx,
    ) -> Result<(u128, bool), MemFault> {
        if !SPEC {
            return Ok((bus.load128(ea, ctx)?, false));
        }
        let (lo, t0) = self.read(bus, ea, Width::Q, ctx)?;
        let (hi, t1) = self.read(bus, ea.wrapping_add(8), Width::Q, ctx)?;
        Ok((u128::from(lo) | u128::from(hi) << 64, t0 | t1))
    }

    /// [`Path::write`] of 16 bytes (a transient one buffers two quadwords).
    #[inline]
    fn write128<M: MemBus>(
        &mut self,
        bus: &mut M,
        ea: u64,
        v: u128,
        t: bool,
        ctx: AccessCtx,
    ) -> Result<(), MemFault> {
        if !SPEC {
            return bus.store128(ea, v, ctx);
        }
        self.write(bus, ea, Width::Q, v as u64, t, ctx)?;
        self.write(bus, ea.wrapping_add(8), Width::Q, (v >> 64) as u64, t, ctx)
    }
}

/// Host-call handler: receives the host function id, registers and bus.
///
/// Returns the extra cycles the host work should be charged (e.g. a bulk
/// `memory.copy` costs time proportional to its length).
pub type HostHandler<'a, M> = dyn FnMut(u32, &mut RegFile, &mut M) -> Result<f64, Trap> + 'a;

/// The emulator.
///
/// A `Machine` owns register state, caches, and a cost model. Caches stay
/// warm across [`Machine::run_image`] calls.
#[derive(Debug, Clone)]
pub struct Machine {
    /// Architectural registers.
    pub regs: RegFile,
    /// The cycle cost model.
    pub cost: CostModel,
    icache: Cache,
    dcache: Cache,
    fuel: u64,
    allow_system: bool,
    spec: Option<SpecConfig>,
}

impl Default for Machine {
    fn default() -> Self {
        Machine::new()
    }
}

impl Machine {
    /// A machine with default cost model and caches.
    pub fn new() -> Machine {
        Machine {
            regs: RegFile::default(),
            cost: CostModel::default(),
            icache: Cache::l1i_default(),
            dcache: Cache::l1d_default(),
            fuel: 2_000_000_000,
            allow_system: true,
            spec: None,
        }
    }

    /// Sets the instruction budget for subsequent runs.
    pub fn set_fuel(&mut self, fuel: u64) {
        self.fuel = fuel;
    }

    /// Forbids `wrpkru`/`wr*base` (models sandbox code, which must never
    /// contain them — §3.2's "Wasm compilers control which instructions are
    /// emitted").
    pub fn forbid_system_instructions(&mut self) {
        self.allow_system = false;
    }

    /// Turns on the bounded speculation window for subsequent runs.
    ///
    /// Off by default — with no config installed, runs are bit-identical to
    /// the pre-speculation emulator. With it, mispredicted branches execute
    /// transient wrong-path µops per [`SpecConfig`], populating the
    /// `spec_flushes` / `spec_uops` / `spec_leaks` buckets of
    /// [`RunStats`] (pure counters: no cycles are charged, so the exact-sum
    /// invariant `attributed_cycles() == cycles` is untouched).
    pub fn enable_speculation(&mut self, cfg: SpecConfig) {
        self.spec = Some(cfg);
    }

    /// The installed speculation config, if any.
    pub fn speculation(&self) -> Option<SpecConfig> {
        self.spec
    }

    /// Reads a general-purpose register.
    pub fn gpr(&self, r: Gpr) -> u64 {
        self.regs.gpr(r)
    }

    /// Writes a general-purpose register.
    pub fn set_gpr(&mut self, r: Gpr, v: u64) {
        self.regs.set_gpr(r, v);
    }

    /// Shared reference to the data cache (for miss accounting).
    pub fn dcache(&self) -> &Cache {
        &self.dcache
    }

    /// Shared reference to the instruction cache.
    pub fn icache(&self) -> &Cache {
        &self.icache
    }

    /// Runs a pre-encoded image from instruction 0 with no host handler.
    pub fn run_image(&mut self, image: &Image, bus: &mut impl MemBus) -> Result<RunStats, Trap> {
        self.run_image_from(image, 0, bus, &mut |f, _, _| {
            Err(Trap::BadControlFlow { target: u64::from(f) })
        })
    }

    /// Runs a pre-encoded image starting at instruction index `entry`.
    pub fn run_image_from<M: MemBus>(
        &mut self,
        image: &Image,
        entry: usize,
        bus: &mut M,
        host: &mut HostHandler<'_, M>,
    ) -> Result<RunStats, Trap> {
        let mut stats = RunStats::default();
        let mut bp = Predictors {
            // 2-bit counters per instruction site (weakly taken initial state).
            counters: vec![1; image.program.insts().len()],
            btb: HashMap::new(),
        };
        let mut path = Path::<false> { stack: Vec::with_capacity(64), ..Path::default() };
        // The image's table holds the default model's costs; any other
        // model (an ablation, a perturbed model) gets its own for this run.
        let rebuilt;
        let costs = if *image.costs.model() == self.cost {
            &image.costs
        } else {
            rebuilt = CostTable::build(&self.cost, &image.program, &image.encoded);
            &rebuilt
        };
        self.exec(image, costs, entry, &mut bp, &mut path, &mut stats, bus, host)?;
        // Finalize total cycles *from* the buckets so the sum invariant
        // (`attributed_cycles() == cycles`) holds bit-for-bit on every
        // successful return; see DESIGN.md §14.
        stats.cycles = stats.attributed_cycles();
        Ok(stats)
    }

    /// The instruction loop, shared by committed execution (`SPEC = false`)
    /// and transient windows (`SPEC = true`, entered only through
    /// [`Machine::transient_window`], which documents what the mode
    /// changes). On a transient path every `Err` is simply where the window
    /// stops.
    #[allow(clippy::too_many_arguments)]
    fn exec<const SPEC: bool, M: MemBus>(
        &mut self,
        image: &Image,
        costs: &CostTable,
        mut pc: usize,
        bp: &mut Predictors,
        path: &mut Path<SPEC>,
        stats: &mut RunStats,
        bus: &mut M,
        host: &mut HostHandler<'_, M>,
    ) -> Result<(), Trap> {
        let prog = &image.program;
        let insts = prog.insts();
        let enc = &image.encoded;
        // Committed instructions spend fuel one each; a window spends µops.
        let mut fuel = if SPEC { path.budget } else { self.fuel };

        macro_rules! ctx {
            () => {
                AccessCtx { pkru: self.regs.pkru }
            };
        }

        // Set when the top-level `ret` retires: the instruction still flows
        // through the common attribution tail below before the loop exits.
        let mut finished = false;

        while pc < insts.len() {
            if fuel == 0 {
                return Err(Trap::FuelExhausted);
            }
            let inst = &insts[pc];
            let cost = costs.get(pc);
            // Miss counters before this instruction: the deltas after the
            // dispatch below reconstruct exactly the penalty cycles it was
            // charged (each miss adds one fixed `*_miss_cycles` constant).
            let miss0 = (stats.icache_misses, stats.dcache_misses, stats.branch_misses);
            let mut cycles = cost.throughput;
            if SPEC {
                let uops = u64::from(cost.spec_uops);
                fuel = fuel.saturating_sub(uops);
                stats.spec_uops += uops;
            } else {
                fuel -= 1;
                stats.insts += 1;
                stats.code_bytes_fetched += u64::from(cost.bytes);
            }
            // Wrong-path fetches touch the I-cache too (the footprint
            // persists); only committed misses are counted and charged.
            if !self.icache.access(u64::from(enc.offsets[pc])) && !SPEC {
                stats.icache_misses += 1;
                cycles += self.cost.icache_miss_cycles;
            }
            // A window cannot cross divides (their latency outlives any
            // realistic window), host transitions, serializing system
            // writes, faults, or an lfence — the last one being exactly the
            // mitigation contract.
            if SPEC
                && matches!(
                    inst,
                    Inst::Div { .. }
                        | Inst::CallHost { .. }
                        | Inst::WrGsBase { .. }
                        | Inst::WrFsBase { .. }
                        | Inst::WrPkru
                        | Inst::Ud2
                        | Inst::Lfence
                )
            {
                break;
            }

            let mut next = pc + 1;
            match *inst {
                Inst::MovRR { dst, src, width } => {
                    let v = width.mask(self.regs.gpr(src));
                    self.regs.write_width(dst, width, v);
                    path.put(dst, width, path.is(src));
                }
                Inst::MovRI { dst, imm, width } => {
                    self.regs.write_width(dst, width, imm as u64);
                    path.put(dst, width, false);
                }
                Inst::Load { dst, mem, width } => {
                    cycles += self.load_latency();
                    let ea = self.ea(&mem);
                    cycles += self.data_access::<SPEC>(stats, ea, width.bytes(), path.addr(&mem));
                    let (v, t) = path.read(bus, ea, width, ctx!())?;
                    stats.loads += u64::from(!SPEC);
                    // A 32-bit load zero-extends; 8/16-bit merge.
                    if width == Width::D || width == Width::Q {
                        self.regs.set_gpr(dst, width.mask(v));
                    } else {
                        self.regs.write_width(dst, width, v);
                    }
                    path.put(dst, width, t);
                }
                Inst::LoadSx { dst, mem, width } => {
                    cycles += self.load_latency();
                    let ea = self.ea(&mem);
                    cycles += self.data_access::<SPEC>(stats, ea, width.bytes(), path.addr(&mem));
                    let (v, t) = path.read(bus, ea, width, ctx!())?;
                    stats.loads += u64::from(!SPEC);
                    self.regs.set_gpr(dst, width.sext(v));
                    path.put(dst, Width::Q, t);
                }
                Inst::LoadZx { dst, mem, width } => {
                    cycles += self.load_latency();
                    let ea = self.ea(&mem);
                    cycles += self.data_access::<SPEC>(stats, ea, width.bytes(), path.addr(&mem));
                    let (v, t) = path.read(bus, ea, width, ctx!())?;
                    stats.loads += u64::from(!SPEC);
                    self.regs.set_gpr(dst, width.mask(v));
                    path.put(dst, Width::Q, t);
                }
                Inst::Store { src, mem, width } => {
                    let ea = self.ea(&mem);
                    cycles += self.data_access::<SPEC>(stats, ea, width.bytes(), path.addr(&mem));
                    let v = width.mask(self.regs.gpr(src));
                    path.write(bus, ea, width, v, path.is(src), ctx!())?;
                    stats.stores += u64::from(!SPEC);
                }
                Inst::StoreImm { imm, mem, width } => {
                    let ea = self.ea(&mem);
                    cycles += self.data_access::<SPEC>(stats, ea, width.bytes(), path.addr(&mem));
                    path.write(bus, ea, width, width.mask(imm as i64 as u64), false, ctx!())?;
                    stats.stores += u64::from(!SPEC);
                }
                Inst::Lea { dst, mem, width } => {
                    // lea ignores the segment base; addr32 still truncates.
                    let mut ea = mem.disp as i64 as u64;
                    if let Some(b) = mem.base {
                        ea = ea.wrapping_add(self.regs.gpr(b));
                    }
                    if let Some((i, s)) = mem.index {
                        ea = ea.wrapping_add(self.regs.gpr(i).wrapping_mul(s.factor()));
                    }
                    if mem.addr32 {
                        ea &= 0xFFFF_FFFF;
                    }
                    self.regs.write_width(dst, width, ea);
                    path.put(dst, width, path.addr(&mem));
                }
                Inst::Movzx { dst, src, from } => {
                    self.regs.set_gpr(dst, from.mask(self.regs.gpr(src)));
                    path.put(dst, Width::Q, path.is(src));
                }
                Inst::Movsx { dst, src, from } => {
                    self.regs.set_gpr(dst, from.sext(self.regs.gpr(src)));
                    path.put(dst, Width::Q, path.is(src));
                }
                Inst::AluRR { op, dst, src, width } => {
                    let a = width.mask(self.regs.gpr(dst));
                    let b = width.mask(self.regs.gpr(src));
                    let r = self.alu(op, a, b, width);
                    let t = path.is(dst) | path.is(src);
                    path.put_flags(t);
                    if op.writes_dst() {
                        self.regs.write_width(dst, width, r);
                        path.put(dst, width, t);
                    }
                }
                Inst::AluRI { op, dst, imm, width } => {
                    let a = width.mask(self.regs.gpr(dst));
                    let b = width.mask(imm as i64 as u64);
                    let r = self.alu(op, a, b, width);
                    let t = path.is(dst);
                    path.put_flags(t);
                    if op.writes_dst() {
                        self.regs.write_width(dst, width, r);
                        path.put(dst, width, t);
                    }
                }
                Inst::AluRM { op, dst, mem, width } => {
                    cycles += self.load_latency();
                    let ea = self.ea(&mem);
                    cycles += self.data_access::<SPEC>(stats, ea, width.bytes(), path.addr(&mem));
                    let (b, mt) = path.read(bus, ea, width, ctx!())?;
                    stats.loads += u64::from(!SPEC);
                    let a = width.mask(self.regs.gpr(dst));
                    let r = self.alu(op, a, width.mask(b), width);
                    let t = path.is(dst) | mt;
                    path.put_flags(t);
                    if op.writes_dst() {
                        self.regs.write_width(dst, width, r);
                        path.put(dst, width, t);
                    }
                }
                Inst::TestRR { a, b, width } => {
                    let x = width.mask(self.regs.gpr(a)) & width.mask(self.regs.gpr(b));
                    self.regs.flags = Flags {
                        zf: x == 0,
                        sf: x >> width.sign_bit() & 1 == 1,
                        cf: false,
                        of: false,
                    };
                    path.put_flags(path.is(a) | path.is(b));
                }
                Inst::Imul { dst, src, width } => {
                    let r = width
                        .mask(self.regs.gpr(dst))
                        .wrapping_mul(width.mask(self.regs.gpr(src)));
                    self.regs.write_width(dst, width, width.mask(r));
                    path.put(dst, width, path.is(dst) | path.is(src));
                }
                Inst::ImulRRI { dst, src, imm, width } => {
                    let r = width.mask(self.regs.gpr(src)).wrapping_mul(width.mask(imm as i64 as u64));
                    self.regs.write_width(dst, width, width.mask(r));
                    path.put(dst, width, path.is(src));
                }
                Inst::Div { src, width, signed } => {
                    self.div(src, width, signed)?;
                }
                Inst::Cdq { width } => {
                    let a = width.mask(self.regs.gpr(Gpr::Rax));
                    let sign = a >> width.sign_bit() & 1 == 1;
                    let v = if sign { width.mask(u64::MAX) } else { 0 };
                    self.regs.write_width(Gpr::Rdx, width, v);
                    path.put(Gpr::Rdx, width, path.is(Gpr::Rax));
                }
                Inst::Shift { op, dst, amount, width } => {
                    let (n, amount_t) = match amount {
                        ShiftAmount::Imm(i) => (u32::from(i), false),
                        ShiftAmount::Cl => {
                            ((self.regs.gpr(Gpr::Rcx) & 0xFF) as u32, path.is(Gpr::Rcx))
                        }
                    };
                    let n = n & (width.bytes() as u32 * 8 - 1);
                    let a = width.mask(self.regs.gpr(dst));
                    let r = Self::shift_compute(op, a, n, width);
                    self.regs.write_width(dst, width, r);
                    let t = path.is(dst) | amount_t;
                    path.put(dst, width, t);
                    if n != 0 {
                        self.regs.flags.zf = r == 0;
                        self.regs.flags.sf = r >> width.sign_bit() & 1 == 1;
                        path.put_flags(t);
                    }
                }
                Inst::Neg { dst, width } => {
                    let a = width.mask(self.regs.gpr(dst));
                    let r = self.alu(AluOp::Sub, 0, a, width);
                    self.regs.write_width(dst, width, r);
                    path.put_flags(path.is(dst));
                }
                Inst::Not { dst, width } => {
                    let a = width.mask(self.regs.gpr(dst));
                    self.regs.write_width(dst, width, width.mask(!a));
                }
                Inst::Cmov { cond, dst, src, width } => {
                    if self.regs.flags.cond(cond) {
                        let v = width.mask(self.regs.gpr(src));
                        self.regs.write_width(dst, width, v);
                        path.put(dst, width, path.is(src) | path.flags());
                    } else if width == Width::D {
                        // cmov always writes in 32-bit form (zeroes upper).
                        let v = width.mask(self.regs.gpr(dst));
                        self.regs.set_gpr(dst, v);
                    }
                }
                Inst::Setcc { cond, dst } => {
                    let v = u64::from(self.regs.flags.cond(cond));
                    self.regs.set_gpr(dst, v);
                    path.put(dst, Width::Q, path.flags());
                }
                Inst::Jmp { target } => {
                    next = self.resolve(prog, target)?;
                    cycles += self.cost.taken_branch_cycles;
                }
                // Nested wrong-path branches follow the predictor read-only:
                // the wrong path must not train the committed state.
                Inst::Jcc { target, .. } if SPEC => {
                    if bp.counters[pc] >= 2 {
                        next = self.resolve(prog, target)?;
                    }
                }
                Inst::Jcc { cond, target } => {
                    stats.branches += 1;
                    let taken = self.regs.flags.cond(cond);
                    let ctr = &mut bp.counters[pc];
                    let predicted_taken = *ctr >= 2;
                    *ctr = match (taken, *ctr) {
                        (true, c) if c < 3 => c + 1,
                        (false, c) if c > 0 => c - 1,
                        (_, c) => c,
                    };
                    if predicted_taken != taken {
                        stats.branch_misses += 1;
                        cycles += self.cost.branch_miss_cycles;
                        // Wrong-path fetch: the front end ran down the
                        // *predicted* direction until the mispredict
                        // resolved. With speculation enabled, model those
                        // transient µops (rolled back architecturally, but
                        // their cache footprint persists).
                        if self.spec.is_some() {
                            let wrong = if predicted_taken {
                                prog.resolve(target)
                            } else {
                                Some(pc + 1)
                            };
                            if let Some(start) = wrong {
                                self.transient_window(image, costs, start, bp, stats, bus, host);
                            }
                        }
                    }
                    if taken {
                        next = self.resolve(prog, target)?;
                        cycles += self.cost.taken_branch_cycles;
                    }
                }
                Inst::JmpReg { reg } | Inst::CallReg { reg } => {
                    let t = if SPEC {
                        if path.is(reg) {
                            // Secret-steered fetch: the target itself transmits.
                            stats.spec_leaks += 1;
                            break;
                        }
                        // The transient front end follows the BTB, not the
                        // (not-yet-executed) register value.
                        match bp.btb.get(&pc) {
                            Some(&t) if t < insts.len() => t,
                            _ => break,
                        }
                    } else {
                        stats.branches += 1;
                        let t = self.regs.gpr(reg) as usize;
                        if t >= insts.len() {
                            return Err(Trap::BadControlFlow { target: t as u64 });
                        }
                        let prev = bp.btb.insert(pc, t);
                        if prev != Some(t) {
                            stats.branch_misses += 1;
                            cycles += self.cost.branch_miss_cycles;
                            // Stale BTB entry: the front end speculated into
                            // the *previous* target with the *current*
                            // register state — the transient type-confusion
                            // channel.
                            if let Some(old) = prev {
                                if self.spec.is_some() {
                                    self.transient_window(image, costs, old, bp, stats, bus, host);
                                }
                            }
                        }
                        t
                    };
                    if matches!(inst, Inst::CallReg { .. }) {
                        path.stack.push(pc + 1);
                    }
                    next = t;
                    cycles += self.cost.taken_branch_cycles;
                }
                Inst::Call { target } => {
                    path.stack.push(pc + 1);
                    next = self.resolve(prog, target)?;
                    cycles += self.cost.taken_branch_cycles;
                }
                Inst::CallHost { func } => {
                    stats.host_calls += 1;
                    cycles += host(func, &mut self.regs, bus)?;
                }
                Inst::Ret => match path.stack.pop() {
                    Some(ra) => {
                        next = ra;
                        cycles += self.cost.taken_branch_cycles;
                    }
                    // An empty stack ends the run. A window ends there too:
                    // returning into the committed caller would need the
                    // real RSB.
                    None => finished = true,
                },
                Inst::Push { reg } => {
                    let sp = self.regs.gpr(Gpr::Rsp).wrapping_sub(8);
                    self.regs.set_gpr(Gpr::Rsp, sp);
                    cycles += self.data_access::<SPEC>(stats, sp, 8, path.is(Gpr::Rsp));
                    path.write(bus, sp, Width::Q, self.regs.gpr(reg), path.is(reg), ctx!())?;
                    stats.stores += u64::from(!SPEC);
                }
                Inst::Pop { reg } => {
                    cycles += self.load_latency();
                    let sp = self.regs.gpr(Gpr::Rsp);
                    cycles += self.data_access::<SPEC>(stats, sp, 8, path.is(Gpr::Rsp));
                    let (v, t) = path.read(bus, sp, Width::Q, ctx!())?;
                    stats.loads += u64::from(!SPEC);
                    self.regs.set_gpr(reg, v);
                    self.regs.set_gpr(Gpr::Rsp, sp.wrapping_add(8));
                    path.put(reg, Width::Q, t);
                }
                Inst::MovdquLoad { dst, mem } => {
                    cycles += self.load_latency();
                    let ea = self.ea(&mem);
                    cycles += self.data_access::<SPEC>(stats, ea, 16, path.addr(&mem));
                    let (v, t) = path.read128(bus, ea, ctx!())?;
                    stats.loads += u64::from(!SPEC);
                    self.regs.set_xmm(dst, v);
                    path.put_xmm(dst, t);
                }
                Inst::MovdquStore { src, mem } => {
                    let ea = self.ea(&mem);
                    cycles += self.data_access::<SPEC>(stats, ea, 16, path.addr(&mem));
                    path.write128(bus, ea, self.regs.xmm(src), path.is_xmm(src), ctx!())?;
                    stats.stores += u64::from(!SPEC);
                }
                Inst::MovdqaRR { dst, src } => {
                    let v = self.regs.xmm(src);
                    self.regs.set_xmm(dst, v);
                    path.put_xmm(dst, path.is_xmm(src));
                }
                Inst::WrGsBase { src } => {
                    if !self.allow_system {
                        return Err(Trap::PrivilegedInstruction);
                    }
                    self.regs.gs_base = self.regs.gpr(src);
                }
                Inst::RdGsBase { dst } => {
                    let v = self.regs.gs_base;
                    self.regs.set_gpr(dst, v);
                    path.put(dst, Width::Q, false);
                }
                Inst::WrFsBase { src } => {
                    if !self.allow_system {
                        return Err(Trap::PrivilegedInstruction);
                    }
                    self.regs.fs_base = self.regs.gpr(src);
                }
                Inst::WrPkru => {
                    if !self.allow_system {
                        return Err(Trap::PrivilegedInstruction);
                    }
                    self.regs.pkru = self.regs.gpr(Gpr::Rax) as u32;
                }
                Inst::RdPkru => {
                    let v = u64::from(self.regs.pkru);
                    self.regs.set_gpr(Gpr::Rax, v);
                    path.put(Gpr::Rax, Width::Q, false);
                }
                Inst::Ud2 => return Err(Trap::Undefined),
                Inst::Lfence => {
                    // Architecturally a no-op; its effect is that no
                    // speculative window can cross it (the window stops
                    // above) and the serial-dispatch charge from the cost
                    // model.
                }
                Inst::Nop => {}
            }
            if !SPEC {
                cycles += cost.serial;
                // Attribution: split this instruction's charge into its
                // microarchitectural penalties (reconstructed from the miss
                // deltas) and the remainder, which lands in the bucket of
                // the provenance class the compiler tagged the instruction
                // with. With no miss the penalties are `+0.0` each, so the
                // whole charge goes to the bucket unchanged (DESIGN.md §14).
                if miss0 != (stats.icache_misses, stats.dcache_misses, stats.branch_misses) {
                    let pen_i =
                        (stats.icache_misses - miss0.0) as f64 * self.cost.icache_miss_cycles;
                    let pen_d =
                        (stats.dcache_misses - miss0.1) as f64 * self.cost.dcache_miss_cycles;
                    let pen_b =
                        (stats.branch_misses - miss0.2) as f64 * self.cost.branch_miss_cycles;
                    stats.icache_penalty_cycles += pen_i;
                    stats.dcache_penalty_cycles += pen_d;
                    stats.branch_penalty_cycles += pen_b;
                    cycles -= pen_i + pen_d + pen_b;
                }
                stats.prov_cycles[prog.prov_at(pc).index()] += cycles;
            }
            if finished {
                break;
            }
            pc = next;
        }
        Ok(())
    }

    /// Executes one transient wrong-path window starting at `start`.
    ///
    /// The window is the instruction loop in its transient mode: the
    /// register file is snapshotted here and restored afterwards, stores
    /// land in a forwarding buffer that never reaches the bus, the branch
    /// predictors are read but never trained, the budget is
    /// [`SpecConfig::window`] µops instead of fuel, and nothing is charged
    /// to `cycles` or the miss counters (the spec buckets are pure
    /// counters, so the exact-sum invariant is untouched). The two effects
    /// that persist past the rollback are the cache footprint — wrong-path
    /// fetches and data touches stay resident, which **is** the side
    /// channel — and the taint-based leak counter.
    ///
    /// Taint rules: a transient load whose address falls in the configured
    /// secret region taints its destination; taint propagates through ALU,
    /// moves, shifts, and store-to-load forwarding; any transient memory
    /// access whose *address* is tainted (or an indirect branch through a
    /// tainted register) records a leak.
    ///
    /// Kept out of line and cold so that the window's copy of the loop
    /// stays out of the committed loop's body.
    #[cold]
    #[inline(never)]
    #[allow(clippy::too_many_arguments)]
    fn transient_window<M: MemBus>(
        &mut self,
        image: &Image,
        costs: &CostTable,
        start: usize,
        bp: &mut Predictors,
        stats: &mut RunStats,
        bus: &mut M,
        host: &mut HostHandler<'_, M>,
    ) {
        let Some(spec) = self.spec else { return };
        stats.spec_flushes += 1;
        let committed = self.regs.clone();
        let mut path = Path::<true> {
            budget: u64::from(spec.window),
            secret: spec.secret_lo..spec.secret_hi,
            ..Path::default()
        };
        // The window's end (its first stop) is all an `Err` means here.
        let _ = self.exec(image, costs, start, bp, &mut path, stats, bus, host);
        self.regs = committed;
    }

    #[inline]
    fn ea(&self, mem: &Mem) -> u64 {
        mem.effective_addr(|r| self.regs.gpr(r), |s| self.regs.seg_base(s))
    }

    /// Touches the D-cache for a `len`-byte data access at `ea`. Committed
    /// accesses count their misses and return the penalty; transient ones
    /// leave only the footprint, and record a leak when the address is
    /// secret-derived (`tainted`) — that touch is the transmit.
    #[inline]
    fn data_access<const SPEC: bool>(
        &mut self,
        stats: &mut RunStats,
        ea: u64,
        len: u64,
        tainted: bool,
    ) -> f64 {
        let misses = self.dcache.access_range(ea, len);
        if SPEC {
            stats.spec_leaks += u64::from(tainted);
            return 0.0;
        }
        stats.dcache_misses += u64::from(misses);
        f64::from(misses) * self.cost.dcache_miss_cycles
    }

    /// Exposed-latency charge for load-like instructions.
    #[inline]
    fn load_latency(&self) -> f64 {
        self.cost.load_cycles
    }

    fn resolve(&self, prog: &Program, target: crate::Label) -> Result<usize, Trap> {
        prog.resolve(target).ok_or(Trap::BadControlFlow { target: u64::from(target.0) })
    }

    /// Pure shift: `a` shifted/rotated by the pre-masked amount `n`.
    fn shift_compute(op: ShiftOp, a: u64, n: u32, width: Width) -> u64 {
        let bits = width.bytes() as u32 * 8;
        let r = match op {
            ShiftOp::Shl => a.wrapping_shl(n),
            ShiftOp::Shr => a.wrapping_shr(n),
            ShiftOp::Sar => (width.sext(a) as i64).wrapping_shr(n) as u64,
            ShiftOp::Rol => {
                if n == 0 {
                    a
                } else {
                    (a << n | a >> (bits - n)) & width.mask(u64::MAX)
                }
            }
            ShiftOp::Ror => {
                if n == 0 {
                    a
                } else {
                    (a >> n | a << (bits - n)) & width.mask(u64::MAX)
                }
            }
        };
        width.mask(r)
    }

    /// Pure ALU: result and flags, no machine state touched. Kept apart
    /// from [`Machine::alu`]: merged into one function, the ALU stops being
    /// inlined into the instruction loop and every ALU op becomes a call.
    fn alu_compute(op: AluOp, a: u64, b: u64, width: Width) -> (u64, Flags) {
        let sign = width.sign_bit();
        let (r, cf, of) = match op {
            AluOp::Add => {
                let r = width.mask(a.wrapping_add(b));
                let cf = r < a;
                let of = ((a ^ r) & (b ^ r)) >> sign & 1 == 1;
                (r, cf, of)
            }
            AluOp::Sub | AluOp::Cmp => {
                let r = width.mask(a.wrapping_sub(b));
                let cf = a < b;
                let of = ((a ^ b) & (a ^ r)) >> sign & 1 == 1;
                (r, cf, of)
            }
            AluOp::And => (a & b, false, false),
            AluOp::Or => (a | b, false, false),
            AluOp::Xor => (a ^ b, false, false),
        };
        (r, Flags { zf: r == 0, sf: r >> sign & 1 == 1, cf, of })
    }

    fn alu(&mut self, op: AluOp, a: u64, b: u64, width: Width) -> u64 {
        let (r, flags) = Self::alu_compute(op, a, b, width);
        self.regs.flags = flags;
        r
    }

    fn div(&mut self, src: Gpr, width: Width, signed: bool) -> Result<(), Trap> {
        let d = width.mask(self.regs.gpr(src));
        if d == 0 {
            return Err(Trap::DivideError);
        }
        match width {
            Width::Q => {
                let lo = self.regs.gpr(Gpr::Rax) as u128;
                let hi = self.regs.gpr(Gpr::Rdx) as u128;
                let dividend = (hi << 64) | lo;
                if signed {
                    let dividend = dividend as i128;
                    let divisor = self.regs.gpr(src) as i64 as i128;
                    let q = dividend / divisor;
                    let r = dividend % divisor;
                    if q > i64::MAX as i128 || q < i64::MIN as i128 {
                        return Err(Trap::DivideError);
                    }
                    self.regs.set_gpr(Gpr::Rax, q as u64);
                    self.regs.set_gpr(Gpr::Rdx, r as u64);
                } else {
                    let divisor = self.regs.gpr(src) as u128;
                    let q = dividend / divisor;
                    if q > u64::MAX as u128 {
                        return Err(Trap::DivideError);
                    }
                    self.regs.set_gpr(Gpr::Rax, q as u64);
                    self.regs.set_gpr(Gpr::Rdx, (dividend % divisor) as u64);
                }
            }
            _ => {
                let bits = width.bytes() as u32 * 8;
                let lo = width.mask(self.regs.gpr(Gpr::Rax));
                let hi = width.mask(self.regs.gpr(Gpr::Rdx));
                let dividend = (u128::from(hi) << bits) | u128::from(lo);
                if signed {
                    let shift = 128 - 2 * bits;
                    let dividend = ((dividend << shift) as i128) >> shift;
                    let divisor = i128::from(width.sext(d) as i64);
                    let q = dividend / divisor;
                    let r = dividend % divisor;
                    let min = -(1i128 << (bits - 1));
                    let max = (1i128 << (bits - 1)) - 1;
                    if q < min || q > max {
                        return Err(Trap::DivideError);
                    }
                    self.regs.write_width(Gpr::Rax, width, width.mask(q as u64));
                    self.regs.write_width(Gpr::Rdx, width, width.mask(r as u64));
                } else {
                    let divisor = u128::from(d);
                    let q = dividend / divisor;
                    if q >> bits != 0 {
                        return Err(Trap::DivideError);
                    }
                    self.regs.write_width(Gpr::Rax, width, q as u64);
                    self.regs.write_width(Gpr::Rdx, width, (dividend % divisor) as u64);
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_prog(p: &Program, mem_size: usize) -> (Machine, FlatMemory, RunStats) {
        let mut mem = FlatMemory::new(mem_size);
        let mut m = Machine::new();
        let image = Image::load(p.clone()).unwrap();
        let stats = m.run_image(&image, &mut mem).unwrap();
        (m, mem, stats)
    }

    #[test]
    fn mov_and_alu() {
        let mut p = Program::new();
        p.push(Inst::MovRI { dst: Gpr::Rax, imm: 40, width: Width::Q });
        p.push(Inst::MovRI { dst: Gpr::Rbx, imm: 2, width: Width::Q });
        p.push(Inst::AluRR { op: AluOp::Add, dst: Gpr::Rax, src: Gpr::Rbx, width: Width::Q });
        p.push(Inst::Ret);
        let (m, _, stats) = run_prog(&p, 64);
        assert_eq!(m.gpr(Gpr::Rax), 42);
        assert_eq!(stats.insts, 4);
        assert!(stats.cycles > 0.0);
    }

    #[test]
    fn thirty_two_bit_writes_zero_extend() {
        let mut p = Program::new();
        p.push(Inst::MovRI { dst: Gpr::Rax, imm: -1, width: Width::Q });
        p.push(Inst::AluRI { op: AluOp::Add, dst: Gpr::Rax, imm: 1, width: Width::D });
        p.push(Inst::Ret);
        let (m, _, _) = run_prog(&p, 64);
        assert_eq!(m.gpr(Gpr::Rax), 0, "32-bit add must zero the upper half");
    }

    #[test]
    fn loop_counts_and_branch_prediction_warms_up() {
        // for (rcx = 100; rcx != 0; rcx--) {}
        let mut p = Program::new();
        p.push(Inst::MovRI { dst: Gpr::Rcx, imm: 100, width: Width::Q });
        let top = p.here();
        p.push(Inst::AluRI { op: AluOp::Sub, dst: Gpr::Rcx, imm: 1, width: Width::Q });
        p.push(Inst::Jcc { cond: Cond::Ne, target: top });
        p.push(Inst::Ret);
        let (_, _, stats) = run_prog(&p, 64);
        assert_eq!(stats.insts, 1 + 200 + 1);
        assert_eq!(stats.branches, 100);
        assert!(stats.branch_misses <= 3, "predictor should saturate: {}", stats.branch_misses);
    }

    #[test]
    fn segment_relative_load_uses_gs_base() {
        let mut p = Program::new();
        // gs:[ebx] with gs_base = 0x100, rbx = 8 → address 0x108.
        p.push(Inst::Load {
            dst: Gpr::Rax,
            mem: Mem::base(Gpr::Rbx).with_seg(Seg::Gs).with_addr32(),
            width: Width::Q,
        });
        p.push(Inst::Ret);
        let mut mem = FlatMemory::new(0x200);
        mem.write_unchecked(0x108, &0xDEADu64.to_le_bytes()).unwrap();
        let mut m = Machine::new();
        m.regs.gs_base = 0x100;
        m.set_gpr(Gpr::Rbx, 8);
        let image = Image::load(p).unwrap();
        m.run_image(&image, &mut mem).unwrap();
        assert_eq!(m.gpr(Gpr::Rax), 0xDEAD);
    }

    #[test]
    fn addr32_wraps_index_before_gs() {
        let mut p = Program::new();
        p.push(Inst::Load {
            dst: Gpr::Rax,
            mem: Mem::base_disp(Gpr::Rbx, 0x10).with_seg(Seg::Gs).with_addr32(),
            width: Width::B,
        });
        p.push(Inst::Ret);
        let mut mem = FlatMemory::new(0x200);
        mem.write_unchecked(0x100 + 0x0F, &[0x77]).unwrap();
        let mut m = Machine::new();
        m.regs.gs_base = 0x100;
        // rbx = 2^32 - 1; (rbx + 0x10) mod 2^32 = 0xF.
        m.set_gpr(Gpr::Rbx, 0xFFFF_FFFF);
        let image = Image::load(p).unwrap();
        m.run_image(&image, &mut mem).unwrap();
        assert_eq!(m.gpr(Gpr::Rax) & 0xFF, 0x77);
    }

    #[test]
    fn division_signed_and_unsigned() {
        let mut p = Program::new();
        p.push(Inst::MovRI { dst: Gpr::Rax, imm: -7, width: Width::Q });
        p.push(Inst::MovRI { dst: Gpr::Rbx, imm: 2, width: Width::Q });
        p.push(Inst::Cdq { width: Width::Q });
        p.push(Inst::Div { src: Gpr::Rbx, width: Width::Q, signed: true });
        p.push(Inst::Ret);
        let (m, _, _) = run_prog(&p, 64);
        assert_eq!(m.gpr(Gpr::Rax) as i64, -3);
        assert_eq!(m.gpr(Gpr::Rdx) as i64, -1);
    }

    #[test]
    fn division_by_zero_traps() {
        let mut p = Program::new();
        p.push(Inst::MovRI { dst: Gpr::Rax, imm: 1, width: Width::D });
        p.push(Inst::MovRI { dst: Gpr::Rdx, imm: 0, width: Width::D });
        p.push(Inst::MovRI { dst: Gpr::Rbx, imm: 0, width: Width::D });
        p.push(Inst::Div { src: Gpr::Rbx, width: Width::D, signed: false });
        p.push(Inst::Ret);
        let mut mem = FlatMemory::new(64);
        let mut m = Machine::new();
        let image = Image::load(p).unwrap();
        assert_eq!(m.run_image(&image, &mut mem), Err(Trap::DivideError));
    }

    #[test]
    fn div32_uses_edx_eax() {
        let mut p = Program::new();
        p.push(Inst::MovRI { dst: Gpr::Rax, imm: 100, width: Width::D });
        p.push(Inst::MovRI { dst: Gpr::Rdx, imm: 0, width: Width::D });
        p.push(Inst::MovRI { dst: Gpr::Rbx, imm: 7, width: Width::D });
        p.push(Inst::Div { src: Gpr::Rbx, width: Width::D, signed: false });
        p.push(Inst::Ret);
        let (m, _, _) = run_prog(&p, 64);
        assert_eq!(m.gpr(Gpr::Rax), 14);
        assert_eq!(m.gpr(Gpr::Rdx), 2);
    }

    #[test]
    fn ud2_traps() {
        let mut p = Program::new();
        p.push(Inst::Ud2);
        let mut mem = FlatMemory::new(64);
        let mut m = Machine::new();
        let image = Image::load(p).unwrap();
        assert_eq!(m.run_image(&image, &mut mem), Err(Trap::Undefined));
    }

    #[test]
    fn call_and_ret() {
        let mut p = Program::new();
        let f = p.fresh_label();
        p.push(Inst::Call { target: f });
        p.push(Inst::AluRI { op: AluOp::Add, dst: Gpr::Rax, imm: 1, width: Width::Q });
        p.push(Inst::Ret); // outer return
        p.bind(f);
        p.push(Inst::MovRI { dst: Gpr::Rax, imm: 10, width: Width::Q });
        p.push(Inst::Ret);
        let (m, _, _) = run_prog(&p, 64);
        assert_eq!(m.gpr(Gpr::Rax), 11);
    }

    #[test]
    fn push_pop_roundtrip() {
        let mut p = Program::new();
        p.push(Inst::MovRI { dst: Gpr::Rsp, imm: 64, width: Width::Q });
        p.push(Inst::MovRI { dst: Gpr::Rax, imm: 0x1234, width: Width::Q });
        p.push(Inst::Push { reg: Gpr::Rax });
        p.push(Inst::MovRI { dst: Gpr::Rax, imm: 0, width: Width::Q });
        p.push(Inst::Pop { reg: Gpr::Rbx });
        p.push(Inst::Ret);
        let (m, _, _) = run_prog(&p, 128);
        assert_eq!(m.gpr(Gpr::Rbx), 0x1234);
        assert_eq!(m.gpr(Gpr::Rsp), 64);
    }

    #[test]
    fn host_calls_are_dispatched() {
        let mut p = Program::new();
        p.push(Inst::CallHost { func: 7 });
        p.push(Inst::Ret);
        let mut mem = FlatMemory::new(64);
        let mut m = Machine::new();
        let image = Image::load(p).unwrap();
        let mut seen = Vec::new();
        let stats = m
            .run_image_from(&image, 0, &mut mem, &mut |f, regs, _| {
                seen.push(f);
                regs.set_gpr(Gpr::Rax, 99);
                Ok(0.0)
            })
            .unwrap();
        assert_eq!(seen, vec![7]);
        assert_eq!(m.gpr(Gpr::Rax), 99);
        assert_eq!(stats.host_calls, 1);
    }

    #[test]
    fn forbidden_system_instructions_trap() {
        let mut p = Program::new();
        p.push(Inst::WrPkru);
        p.push(Inst::Ret);
        let mut mem = FlatMemory::new(64);
        let mut m = Machine::new();
        m.forbid_system_instructions();
        let image = Image::load(p).unwrap();
        assert_eq!(m.run_image(&image, &mut mem), Err(Trap::PrivilegedInstruction));
    }

    #[test]
    fn wrpkru_updates_pkru_and_costs_cycles() {
        let mut p = Program::new();
        p.push(Inst::MovRI { dst: Gpr::Rax, imm: 0b1100, width: Width::D });
        p.push(Inst::Ret);
        let mut pk = Program::new();
        pk.push(Inst::MovRI { dst: Gpr::Rax, imm: 0b1100, width: Width::D });
        pk.push(Inst::WrPkru);
        pk.push(Inst::Ret);
        let (_, _, s_plain) = run_prog(&p, 64);
        let (m, _, s_pkru) = run_prog(&pk, 64);
        assert_eq!(m.regs.pkru, 0b1100);
        let delta = s_pkru.cycles - s_plain.cycles;
        assert!(delta >= CostModel::default().wrpkru_cycles, "wrpkru must be expensive: {delta}");
    }

    #[test]
    fn fuel_exhaustion() {
        let mut p = Program::new();
        let top = p.here();
        p.push(Inst::Jmp { target: top });
        let mut mem = FlatMemory::new(64);
        let mut m = Machine::new();
        m.set_fuel(1000);
        let image = Image::load(p).unwrap();
        assert_eq!(m.run_image(&image, &mut mem), Err(Trap::FuelExhausted));
    }

    #[test]
    fn indirect_jump_via_register() {
        let mut p = Program::new();
        p.push(Inst::MovRI { dst: Gpr::Rax, imm: 3, width: Width::Q }); // 0
        p.push(Inst::JmpReg { reg: Gpr::Rax }); // 1
        p.push(Inst::Ud2); // 2 — skipped
        p.push(Inst::MovRI { dst: Gpr::Rbx, imm: 5, width: Width::Q }); // 3
        p.push(Inst::Ret); // 4
        let (m, _, _) = run_prog(&p, 64);
        assert_eq!(m.gpr(Gpr::Rbx), 5);
    }

    #[test]
    fn indirect_jump_out_of_range_traps() {
        let mut p = Program::new();
        p.push(Inst::MovRI { dst: Gpr::Rax, imm: 1000, width: Width::Q });
        p.push(Inst::JmpReg { reg: Gpr::Rax });
        let mut mem = FlatMemory::new(64);
        let mut m = Machine::new();
        let image = Image::load(p).unwrap();
        assert!(matches!(
            m.run_image(&image, &mut mem),
            Err(Trap::BadControlFlow { target: 1000 })
        ));
    }

    #[test]
    fn simd_roundtrip() {
        let mut p = Program::new();
        p.push(Inst::MovdquLoad { dst: crate::Xmm(0), mem: Mem::abs(0x10) });
        p.push(Inst::MovdqaRR { dst: crate::Xmm(1), src: crate::Xmm(0) });
        p.push(Inst::MovdquStore { src: crate::Xmm(1), mem: Mem::abs(0x30) });
        p.push(Inst::Ret);
        let mut mem = FlatMemory::new(0x100);
        let pattern: Vec<u8> = (0..16).collect();
        mem.write_unchecked(0x10, &pattern).unwrap();
        let mut m = Machine::new();
        let image = Image::load(p).unwrap();
        m.run_image(&image, &mut mem).unwrap();
        let mut out = [0u8; 16];
        mem.read_unchecked(0x30, &mut out).unwrap();
        assert_eq!(&out[..], &pattern[..]);
    }

    #[test]
    fn dcache_misses_counted() {
        // Stride through 256 KiB — guaranteed misses with a 48 KiB L1D.
        let mut p = Program::new();
        p.push(Inst::MovRI { dst: Gpr::Rcx, imm: 4096, width: Width::Q });
        p.push(Inst::MovRI { dst: Gpr::Rbx, imm: 0, width: Width::Q });
        let top = p.here();
        p.push(Inst::Load { dst: Gpr::Rax, mem: Mem::base(Gpr::Rbx), width: Width::Q });
        p.push(Inst::AluRI { op: AluOp::Add, dst: Gpr::Rbx, imm: 64, width: Width::Q });
        p.push(Inst::AluRI { op: AluOp::Sub, dst: Gpr::Rcx, imm: 1, width: Width::Q });
        p.push(Inst::Jcc { cond: Cond::Ne, target: top });
        p.push(Inst::Ret);
        let (_, _, stats) = run_prog(&p, 4096 * 64);
        assert_eq!(stats.loads, 4096);
        assert!(stats.dcache_misses >= 4000, "cold strides must miss: {}", stats.dcache_misses);
    }

    #[test]
    fn cmov_and_setcc() {
        let mut p = Program::new();
        p.push(Inst::MovRI { dst: Gpr::Rax, imm: 5, width: Width::Q });
        p.push(Inst::MovRI { dst: Gpr::Rbx, imm: 9, width: Width::Q });
        p.push(Inst::AluRR { op: AluOp::Cmp, dst: Gpr::Rax, src: Gpr::Rbx, width: Width::Q });
        p.push(Inst::Cmov { cond: Cond::L, dst: Gpr::Rax, src: Gpr::Rbx, width: Width::Q });
        p.push(Inst::Setcc { cond: Cond::L, dst: Gpr::Rcx });
        p.push(Inst::Ret);
        let (m, _, _) = run_prog(&p, 64);
        assert_eq!(m.gpr(Gpr::Rax), 9);
        assert_eq!(m.gpr(Gpr::Rcx), 1);
    }

    /// A classic Spectre-v1 shape: a bounds check (`cmp; ja`) trained
    /// in-bounds for 15 trips, then fed a secret-region offset on the last
    /// trip. Architecturally the body is skipped; transiently the load at
    /// the secret offset and the dependent probe both execute.
    fn spectre_gadget(with_fence: bool) -> Program {
        let mut p = Program::new();
        let top = p.fresh_label();
        let oob = p.fresh_label();
        p.push(Inst::MovRI { dst: Gpr::Rdx, imm: 0x1000, width: Width::Q });
        p.push(Inst::MovRI { dst: Gpr::Rcx, imm: 16, width: Width::Q });
        p.bind(top);
        p.push(Inst::MovRI { dst: Gpr::Rbx, imm: 8, width: Width::Q });
        p.push(Inst::AluRI { op: AluOp::Cmp, dst: Gpr::Rcx, imm: 1, width: Width::Q });
        p.push(Inst::Cmov { cond: Cond::E, dst: Gpr::Rbx, src: Gpr::Rdx, width: Width::Q });
        p.push(Inst::AluRI { op: AluOp::Cmp, dst: Gpr::Rbx, imm: 16, width: Width::Q });
        p.push(Inst::Jcc { cond: Cond::A, target: oob });
        if with_fence {
            p.push(Inst::Lfence);
        }
        p.push(Inst::Load { dst: Gpr::Rax, mem: Mem::base(Gpr::Rbx), width: Width::B });
        p.push(Inst::Shift {
            op: ShiftOp::Shl,
            dst: Gpr::Rax,
            amount: ShiftAmount::Imm(6),
            width: Width::Q,
        });
        p.push(Inst::Load { dst: Gpr::R8, mem: Mem::base_disp(Gpr::Rax, 0x200), width: Width::Q });
        p.bind(oob);
        p.push(Inst::AluRI { op: AluOp::Sub, dst: Gpr::Rcx, imm: 1, width: Width::Q });
        p.push(Inst::Jcc { cond: Cond::Ne, target: top });
        p.push(Inst::Ret);
        p
    }

    fn spec_cfg() -> SpecConfig {
        SpecConfig::new(SpecConfig::DEFAULT_WINDOW, 0x1000, 0x1040).unwrap()
    }

    #[test]
    fn spec_config_rejects_degenerate() {
        assert_eq!(SpecConfig::new(0, 0, 0x100), Err(SpecError::ZeroWindow));
        assert_eq!(SpecConfig::new(32, 0x100, 0x100), Err(SpecError::EmptySecretRegion));
        assert_eq!(SpecConfig::new(32, 0x200, 0x100), Err(SpecError::EmptySecretRegion));
    }

    #[test]
    fn spec_config_clamps_window() {
        assert_eq!(SpecConfig::DEFAULT_WINDOW, 32);
        let cfg = SpecConfig::new(1000, 0, 0x100).unwrap();
        assert_eq!(cfg.window(), SpecConfig::MAX_WINDOW);
        assert_eq!(SpecConfig::new(1, 0, 0x100).unwrap().window(), 1);
    }

    #[test]
    fn bounds_check_bypass_leaks_transiently() {
        let p = spectre_gadget(false);
        let mut mem = FlatMemory::new(0x20000);
        let mut m = Machine::new();
        m.enable_speculation(spec_cfg());
        let image = Image::load(p).unwrap();
        let stats = m.run_image(&image, &mut mem).unwrap();
        assert!(stats.spec_flushes > 0, "mispredict must open a window");
        assert!(stats.spec_uops > 0);
        assert!(stats.spec_leaks > 0, "secret-derived probe address must be flagged");
        // Spec buckets are pure counters: the exact-sum invariant holds.
        assert_eq!(stats.attributed_cycles(), stats.cycles);
    }

    #[test]
    fn lfence_closes_the_window() {
        let p = spectre_gadget(true);
        let mut mem = FlatMemory::new(0x20000);
        let mut m = Machine::new();
        m.enable_speculation(spec_cfg());
        let image = Image::load(p).unwrap();
        let stats = m.run_image(&image, &mut mem).unwrap();
        assert!(stats.spec_flushes > 0, "the mispredict still happens");
        assert_eq!(stats.spec_leaks, 0, "the fence must stop the transient load");
    }

    #[test]
    fn speculation_rolls_back_architectural_state() {
        let p = spectre_gadget(false);
        let image = Image::load(p).unwrap();
        let run = |spec: Option<SpecConfig>| {
            let mut mem = FlatMemory::new(0x20000);
            let mut m = Machine::new();
            if let Some(cfg) = spec {
                m.enable_speculation(cfg);
            }
            m.run_image(&image, &mut mem).unwrap();
            (m, mem)
        };
        let (m_off, mem_off) = run(None);
        let (m_on, mem_on) = run(Some(spec_cfg()));
        for r in Gpr::ALL {
            assert_eq!(m_off.gpr(r), m_on.gpr(r), "gpr {r:?} must roll back");
        }
        assert_eq!(m_off.regs.flags, m_on.regs.flags);
        let (mut off, mut on) = (vec![0u8; mem_off.size()], vec![0u8; mem_on.size()]);
        mem_off.read_unchecked(0, &mut off).unwrap();
        mem_on.read_unchecked(0, &mut on).unwrap();
        assert_eq!(off, on, "spec stores must never hit memory");
    }

    #[test]
    fn speculation_disabled_is_bit_identical() {
        let p = spectre_gadget(false);
        let image = Image::load(p).unwrap();
        let mut mem = FlatMemory::new(0x20000);
        let mut m = Machine::new();
        let base = m.run_image(&image, &mut mem).unwrap();
        assert_eq!(base.spec_flushes, 0);
        assert_eq!(base.spec_uops, 0);
        assert_eq!(base.spec_leaks, 0);
    }

    #[test]
    fn flags_unsigned_compare() {
        let mut p = Program::new();
        p.push(Inst::MovRI { dst: Gpr::Rax, imm: 1, width: Width::Q });
        p.push(Inst::MovRI { dst: Gpr::Rbx, imm: -1, width: Width::Q }); // u64::MAX
        p.push(Inst::AluRR { op: AluOp::Cmp, dst: Gpr::Rax, src: Gpr::Rbx, width: Width::Q });
        p.push(Inst::Setcc { cond: Cond::B, dst: Gpr::Rcx }); // 1 < MAX unsigned
        p.push(Inst::Setcc { cond: Cond::G, dst: Gpr::Rdx }); // 1 > -1 signed
        p.push(Inst::Ret);
        let (m, _, _) = run_prog(&p, 64);
        assert_eq!(m.gpr(Gpr::Rcx), 1);
        assert_eq!(m.gpr(Gpr::Rdx), 1);
    }
}
