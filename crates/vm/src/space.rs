//! The address space: VMAs, permissions, lazy page contents.

use std::collections::{BTreeMap, HashMap};

use sfi_x86::emu::{AccessCtx, HostBytes, MemBus};
use sfi_x86::{MemFault, Width};

use crate::chaos::{FaultPlan, SyscallKind};
use crate::mpk::KeyAllocator;
use crate::mte::TagStore;
use crate::tlb::Tlb;

/// OS page size (4 KiB), the granularity of all mapping operations.
pub const OS_PAGE_SIZE: u64 = 4096;

/// Linux's default `vm.max_map_count`.
///
/// Each MPK stripe is a separate VMA, so ColorGuard deployments must raise
/// this limit (§5.1); the model enforces it for the same reason.
pub const DEFAULT_MAX_MAP_COUNT: usize = 65_530;

/// Page protection bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Prot {
    /// Readable.
    pub r: bool,
    /// Writable.
    pub w: bool,
}

impl Prot {
    /// `PROT_NONE` — no access; the guard-region protection.
    pub const NONE: Prot = Prot { r: false, w: false };
    /// `PROT_READ`.
    pub const READ: Prot = Prot { r: true, w: false };
    /// `PROT_READ | PROT_WRITE`.
    pub const READ_WRITE: Prot = Prot { r: true, w: true };
}

/// A mapping-operation failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum MapError {
    /// Address or length not page-aligned.
    Unaligned,
    /// The range exceeds the user virtual address space.
    OutOfAddressSpace,
    /// The range overlaps an existing mapping (for non-fixed maps).
    Overlap,
    /// The `vm.max_map_count` limit would be exceeded.
    TooManyMappings,
    /// The range is not fully mapped (for `mprotect`/`madvise`).
    NotMapped,
    /// An invalid or unallocated protection key was used.
    BadKey,
    /// A fault injected by the attached [`FaultPlan`] (models transient
    /// `ENOMEM`/`EAGAIN` from the kernel).
    Injected,
}

impl core::fmt::Display for MapError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            MapError::Unaligned => f.write_str("address or length not page-aligned"),
            MapError::OutOfAddressSpace => f.write_str("range exceeds user address space"),
            MapError::Overlap => f.write_str("range overlaps an existing mapping"),
            MapError::TooManyMappings => f.write_str("vm.max_map_count exceeded"),
            MapError::NotMapped => f.write_str("range is not fully mapped"),
            MapError::BadKey => f.write_str("invalid protection key"),
            MapError::Injected => f.write_str("injected fault (chaos plan)"),
        }
    }
}

impl std::error::Error for MapError {}

/// One virtual memory area (kernel-style `[start, end)` with uniform
/// attributes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Vma {
    end: u64,
    prot: Prot,
    /// MPK protection key (0 = default).
    pkey: u8,
    /// Whether MTE tag checking is enabled for this VMA.
    mte: bool,
}

/// A read-only snapshot of a VMA, for inspection and tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VmaInfo {
    /// Start address (inclusive).
    pub start: u64,
    /// End address (exclusive).
    pub end: u64,
    /// Protection.
    pub prot: Prot,
    /// MPK key.
    pub pkey: u8,
    /// MTE enabled.
    pub mte: bool,
}

/// A sparse model of one process address space.
///
/// Contents are materialized lazily, one 4 KiB page at a time, on first
/// write — so reserving terabytes (as guard-region SFI does) costs only VMA
/// bookkeeping, while executed code still reads and writes real bytes.
#[derive(Debug, Clone)]
pub struct AddressSpace {
    va_bits: u32,
    max_map_count: usize,
    vmas: BTreeMap<u64, Vma>,
    pages: HashMap<u64, Box<[u8]>>,
    /// MPK key allocator (15 user keys).
    pub keys: KeyAllocator,
    /// MTE tag store (tags exist regardless; VMAs opt into checking).
    pub tags: TagStore,
    /// dTLB model, consulted on every emulated access.
    pub dtlb: Tlb,
    mmap_cursor: u64,
    /// Optional deterministic fault-injection plan.
    chaos: Option<FaultPlan>,
    /// High-water mark of [`AddressSpace::map_count`] — the telemetry gauge
    /// behind the `vm.max_map_count` sizing guidance (§5.1).
    peak_map_count: usize,
}

impl AddressSpace {
    /// A 48-bit (47 usable user bits) address space — the x86-64 default.
    pub fn new_48bit() -> AddressSpace {
        AddressSpace::with_va_bits(48)
    }

    /// A 57-bit address space (5-level paging, §8).
    pub fn new_57bit() -> AddressSpace {
        AddressSpace::with_va_bits(57)
    }

    /// An address space with the given total VA width. User space gets half
    /// (one fewer bit), as on Linux.
    pub fn with_va_bits(va_bits: u32) -> AddressSpace {
        assert!((32..=57).contains(&va_bits), "va_bits must be in 32..=57");
        AddressSpace {
            va_bits,
            max_map_count: DEFAULT_MAX_MAP_COUNT,
            vmas: BTreeMap::new(),
            pages: HashMap::new(),
            keys: KeyAllocator::new(),
            tags: TagStore::new(),
            dtlb: Tlb::for_va_bits(va_bits),
            mmap_cursor: 0x10_0000, // skip the traditional NULL-guard low MiB
            chaos: None,
            peak_map_count: 0,
        }
    }

    /// Attaches (or detaches, with `None`) a deterministic fault-injection
    /// plan. An attached plan that never fires leaves behaviour identical
    /// to no plan at all.
    pub fn set_fault_plan(&mut self, plan: Option<FaultPlan>) {
        self.chaos = plan;
    }

    /// The attached fault plan, if any (counters and stats are visible
    /// through it).
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.chaos.as_ref()
    }

    /// Consults the chaos plan for one mapping call of `kind`.
    fn chaos_gate(&mut self, kind: SyscallKind) -> Result<(), MapError> {
        match &mut self.chaos {
            Some(plan) => {
                if plan.syscall_fires(kind) {
                    Err(MapError::Injected)
                } else {
                    Ok(())
                }
            }
            None => Ok(()),
        }
    }

    /// Usable user-space bytes (half the VA width, as on Linux).
    pub fn user_span(&self) -> u64 {
        1u64 << (self.va_bits - 1)
    }

    /// Overrides the `vm.max_map_count` limit (the sysctl ColorGuard
    /// deployments raise).
    pub fn set_max_map_count(&mut self, n: usize) {
        self.max_map_count = n;
    }

    /// Current number of VMAs.
    pub fn map_count(&self) -> usize {
        self.vmas.len()
    }

    /// The highest VMA count this space ever reached — the number a
    /// deployment must provision `vm.max_map_count` for.
    pub fn peak_map_count(&self) -> usize {
        self.peak_map_count
    }

    /// Snapshot of all VMAs in address order.
    pub fn vmas(&self) -> Vec<VmaInfo> {
        self.vmas
            .iter()
            .map(|(&start, v)| VmaInfo { start, end: v.end, prot: v.prot, pkey: v.pkey, mte: v.mte })
            .collect()
    }

    /// The VMA containing `addr`, if any.
    pub fn vma_at(&self, addr: u64) -> Option<VmaInfo> {
        let (&start, v) = self.vmas.range(..=addr).next_back()?;
        (addr < v.end)
            .then_some(VmaInfo { start, end: v.end, prot: v.prot, pkey: v.pkey, mte: v.mte })
    }

    fn check_range(&self, addr: u64, len: u64) -> Result<(), MapError> {
        if !addr.is_multiple_of(OS_PAGE_SIZE) || !len.is_multiple_of(OS_PAGE_SIZE) || len == 0 {
            return Err(MapError::Unaligned);
        }
        let end = addr.checked_add(len).ok_or(MapError::OutOfAddressSpace)?;
        if end > self.user_span() {
            return Err(MapError::OutOfAddressSpace);
        }
        Ok(())
    }

    fn overlaps(&self, addr: u64, end: u64) -> bool {
        if let Some((_, v)) = self.vmas.range(..addr).next_back() {
            if v.end > addr {
                return true;
            }
        }
        self.vmas.range(addr..end).next().is_some()
    }

    /// Maps `len` bytes at a kernel-chosen address; returns the address.
    pub fn mmap(&mut self, len: u64, prot: Prot) -> Result<u64, MapError> {
        let len = round_up(len);
        // First-fit from the cursor.
        let mut addr = self.mmap_cursor;
        loop {
            let end = addr.checked_add(len).ok_or(MapError::OutOfAddressSpace)?;
            if end > self.user_span() {
                return Err(MapError::OutOfAddressSpace);
            }
            if !self.overlaps(addr, end) {
                break;
            }
            // Skip past the blocking VMA.
            let (_, v) = self.vmas.range(..end).next_back().expect("overlap implies a vma");
            addr = v.end;
        }
        self.mmap_fixed(addr, len, prot)?;
        self.mmap_cursor = addr + len;
        Ok(addr)
    }

    /// Maps `[addr, addr+len)` (like `mmap(MAP_FIXED_NOREPLACE)`): fails on
    /// overlap.
    pub fn mmap_fixed(&mut self, addr: u64, len: u64, prot: Prot) -> Result<(), MapError> {
        self.chaos_gate(SyscallKind::Mmap)?;
        self.check_range(addr, len)?;
        let end = addr + len;
        if self.overlaps(addr, end) {
            return Err(MapError::Overlap);
        }
        self.insert_vma(addr, Vma { end, prot, pkey: 0, mte: false })?;
        Ok(())
    }

    /// Unmaps `[addr, addr+len)`; pages and their contents are discarded.
    pub fn munmap(&mut self, addr: u64, len: u64) -> Result<(), MapError> {
        self.check_range(addr, len)?;
        let end = addr + len;
        self.split_at(addr)?;
        self.split_at(end)?;
        let keys: Vec<u64> = self.vmas.range(addr..end).map(|(&s, _)| s).collect();
        for k in keys {
            self.vmas.remove(&k);
        }
        self.discard_pages(addr, end);
        Ok(())
    }

    /// Changes protection on a fully mapped range (`mprotect`).
    pub fn mprotect(&mut self, addr: u64, len: u64, prot: Prot) -> Result<(), MapError> {
        self.chaos_gate(SyscallKind::Mprotect)?;
        self.update_range(addr, len, |v| v.prot = prot)
    }

    /// Changes protection *and* assigns an MPK key (`pkey_mprotect`).
    ///
    /// The key must have been allocated from [`AddressSpace::keys`] (key 0,
    /// the default, is always valid).
    pub fn pkey_mprotect(&mut self, addr: u64, len: u64, prot: Prot, key: u8) -> Result<(), MapError> {
        self.chaos_gate(SyscallKind::PkeyMprotect)?;
        if key != 0 && !self.keys.is_allocated(key) {
            return Err(MapError::BadKey);
        }
        self.update_range(addr, len, |v| {
            v.prot = prot;
            v.pkey = key;
        })
    }

    /// Enables or disables MTE checking on a mapped range.
    pub fn set_mte(&mut self, addr: u64, len: u64, enabled: bool) -> Result<(), MapError> {
        self.update_range(addr, len, |v| v.mte = enabled)
    }

    /// `madvise(MADV_DONTNEED)`: zeroes the range's contents while keeping
    /// the mapping — the call Wasm runtimes use to recycle instance slots.
    ///
    /// Faithful to Linux/MTE semantics, this also **discards MTE tags** in
    /// the range (§7, Observation 2) while MPK keys (stored in PTEs) are
    /// left intact.
    pub fn madvise_dontneed(&mut self, addr: u64, len: u64) -> Result<(), MapError> {
        self.chaos_gate(SyscallKind::Madvise)?;
        self.check_range(addr, len)?;
        if !self.fully_mapped(addr, addr + len) {
            return Err(MapError::NotMapped);
        }
        self.discard_pages(addr, addr + len);
        self.tags.clear_range(addr, len);
        Ok(())
    }

    /// Whether `[addr, end)` is covered by mappings without gaps.
    pub fn fully_mapped(&self, addr: u64, end: u64) -> bool {
        let mut at = addr;
        while at < end {
            match self.vma_at(at) {
                Some(v) => at = v.end,
                None => return false,
            }
        }
        true
    }

    /// Reads bytes without permission checks (host/debug access), one page
    /// lookup per 4 KiB page; unmaterialized pages read as zero.
    pub fn read_unchecked(&self, addr: u64, buf: &mut [u8]) {
        let mut done = 0;
        while done < buf.len() {
            let (page, off, n) = page_span(addr + done as u64, buf.len() - done);
            let chunk = &mut buf[done..done + n];
            match self.pages.get(&page) {
                Some(p) => chunk.copy_from_slice(&p[off..off + n]),
                None => chunk.fill(0),
            }
            done += n;
        }
    }

    /// Writes bytes without permission checks (host/debug access), one page
    /// lookup per 4 KiB page, materializing pages as needed.
    pub fn write_unchecked(&mut self, addr: u64, bytes: &[u8]) {
        let mut done = 0;
        while done < bytes.len() {
            let (page, off, n) = page_span(addr + done as u64, bytes.len() - done);
            let p = self
                .pages
                .entry(page)
                .or_insert_with(|| vec![0u8; OS_PAGE_SIZE as usize].into_boxed_slice());
            p[off..off + n].copy_from_slice(&bytes[done..done + n]);
            done += n;
        }
    }

    // ---- internals ----

    fn insert_vma(&mut self, start: u64, vma: Vma) -> Result<(), MapError> {
        let end = vma.end;
        self.vmas.insert(start, vma);
        self.merge_range(start, end);
        if self.vmas.len() > self.max_map_count {
            // Undo-ish: the kernel fails the call; we mirror by removing.
            self.vmas.remove(&start);
            return Err(MapError::TooManyMappings);
        }
        self.peak_map_count = self.peak_map_count.max(self.vmas.len());
        Ok(())
    }

    /// Splits the VMA containing `at` so that `at` becomes a boundary.
    fn split_at(&mut self, at: u64) -> Result<(), MapError> {
        if !at.is_multiple_of(OS_PAGE_SIZE) {
            return Err(MapError::Unaligned);
        }
        if let Some((&start, &v)) = self.vmas.range(..at).next_back() {
            if at > start && at < v.end {
                if self.vmas.len() + 1 > self.max_map_count {
                    return Err(MapError::TooManyMappings);
                }
                self.vmas.insert(start, Vma { end: at, ..v });
                self.vmas.insert(at, v);
                self.peak_map_count = self.peak_map_count.max(self.vmas.len());
            }
        }
        Ok(())
    }

    fn update_range(
        &mut self,
        addr: u64,
        len: u64,
        f: impl Fn(&mut Vma),
    ) -> Result<(), MapError> {
        self.check_range(addr, len)?;
        let end = addr + len;
        if !self.fully_mapped(addr, end) {
            return Err(MapError::NotMapped);
        }
        self.split_at(addr)?;
        self.split_at(end)?;
        let keys: Vec<u64> = self.vmas.range(addr..end).map(|(&s, _)| s).collect();
        for k in &keys {
            f(self.vmas.get_mut(k).expect("collected above"));
        }
        self.merge_range(addr, end);
        Ok(())
    }

    /// Kernel-style merging of adjacent VMAs with identical attributes over
    /// `[lo, hi]` (plus the VMA immediately before `lo`) — this is what
    /// keeps the map count at one-VMA-per-stripe rather than one per call.
    fn merge_range(&mut self, lo: u64, hi: u64) {
        let mut cur = self
            .vmas
            .range(..lo)
            .next_back()
            .map(|(&s, _)| s)
            .or_else(|| self.vmas.range(lo..).next().map(|(&s, _)| s));
        while let Some(s) = cur {
            if s > hi {
                break;
            }
            let Some(&v) = self.vmas.get(&s) else { break };
            let next = self.vmas.range(v.end..).next().map(|(&ns, &nv)| (ns, nv));
            match next {
                Some((ns, nv))
                    if ns == v.end
                        && nv.prot == v.prot
                        && nv.pkey == v.pkey
                        && nv.mte == v.mte =>
                {
                    // Absorb the neighbour and stay put: there may be more.
                    self.vmas.remove(&ns);
                    self.vmas.get_mut(&s).expect("exists").end = nv.end;
                }
                _ => {
                    cur = self.vmas.range(s + 1..).next().map(|(&n, _)| n);
                }
            }
        }
    }

    fn discard_pages(&mut self, addr: u64, end: u64) {
        let first = addr / OS_PAGE_SIZE;
        let last = end.div_ceil(OS_PAGE_SIZE);
        // For huge ranges, sweep the (small) materialized-page map instead
        // of iterating billions of page numbers.
        if last - first < self.pages.len() as u64 {
            for p in first..last {
                self.pages.remove(&p);
            }
        } else {
            self.pages.retain(|&p, _| p < first || p >= last);
        }
    }

    /// The access check shared by loads and stores. Returns the MTE-stripped
    /// address on success.
    fn check_access(
        &mut self,
        addr: u64,
        len: u64,
        write: bool,
        ctx: AccessCtx,
    ) -> Result<u64, MemFault> {
        // Strip the MTE pointer tag (top byte ignore).
        let ptr_tag = ((addr >> 56) & 0xF) as u8;
        let addr = addr & 0x00FF_FFFF_FFFF_FFFF;
        let vma = self.vma_at(addr).ok_or(MemFault::Unmapped { addr })?;
        if !vma.prot.r || (write && !vma.prot.w) {
            return Err(MemFault::Protection { addr });
        }
        if vma.pkey != 0 {
            let ok = if write { ctx.may_write(vma.pkey) } else { ctx.may_read(vma.pkey) };
            if !ok {
                return Err(MemFault::PkuViolation { addr, key: vma.pkey });
            }
        }
        // Hardware faults per page: an access that straddles out of this VMA
        // must satisfy mapping, protection, and pkey on the tail VMA too.
        // (Widths are <= 16 bytes, so an access spans at most two VMAs.)
        if addr + len > vma.end {
            let tail = self.vma_at(addr + len - 1).ok_or(MemFault::Unmapped { addr: vma.end })?;
            if !tail.prot.r || (write && !tail.prot.w) {
                return Err(MemFault::Protection { addr: vma.end });
            }
            if tail.pkey != 0 {
                let ok =
                    if write { ctx.may_write(tail.pkey) } else { ctx.may_read(tail.pkey) };
                if !ok {
                    return Err(MemFault::PkuViolation { addr: vma.end, key: tail.pkey });
                }
            }
        }
        if vma.mte {
            let mem_tag = self.tags.tag_at(addr);
            if mem_tag != ptr_tag {
                return Err(MemFault::MteTagMismatch { addr, ptr_tag, mem_tag });
            }
        }
        self.dtlb.access(addr);
        Ok(addr)
    }
}

fn round_up(len: u64) -> u64 {
    len.div_ceil(OS_PAGE_SIZE) * OS_PAGE_SIZE
}

impl HostBytes for AddressSpace {
    fn read_unchecked(&self, addr: u64, buf: &mut [u8]) -> Result<(), MemFault> {
        AddressSpace::read_unchecked(self, addr, buf);
        Ok(())
    }

    fn write_unchecked(&mut self, addr: u64, bytes: &[u8]) -> Result<(), MemFault> {
        AddressSpace::write_unchecked(self, addr, bytes);
        Ok(())
    }
}

impl MemBus for AddressSpace {
    fn load(&mut self, addr: u64, width: Width, ctx: AccessCtx) -> Result<u64, MemFault> {
        if let Some(plan) = &mut self.chaos {
            if let Some(fault) = plan.bus_fires(addr) {
                return Err(fault);
            }
        }
        let addr = self.check_access(addr, width.bytes(), false, ctx)?;
        let mut buf = [0u8; 8];
        self.read_unchecked(addr, &mut buf[..width.bytes() as usize]);
        Ok(u64::from_le_bytes(buf))
    }

    fn store(&mut self, addr: u64, width: Width, val: u64, ctx: AccessCtx) -> Result<(), MemFault> {
        if let Some(plan) = &mut self.chaos {
            if let Some(fault) = plan.bus_fires(addr) {
                return Err(fault);
            }
        }
        let addr = self.check_access(addr, width.bytes(), true, ctx)?;
        self.write_unchecked(addr, &val.to_le_bytes()[..width.bytes() as usize]);
        Ok(())
    }
}

/// The page of `addr`, the offset in it, and how many of `len` bytes from
/// `addr` fit before the page ends.
fn page_span(addr: u64, len: usize) -> (u64, usize, usize) {
    let off = (addr % OS_PAGE_SIZE) as usize;
    (addr / OS_PAGE_SIZE, off, (OS_PAGE_SIZE as usize - off).min(len))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mmap_and_rw() {
        let mut s = AddressSpace::new_48bit();
        let a = s.mmap(8192, Prot::READ_WRITE).unwrap();
        let ctx = AccessCtx::ALL_ENABLED;
        s.store(a + 16, Width::Q, 0xABCD, ctx).unwrap();
        assert_eq!(s.load(a + 16, Width::Q, ctx).unwrap(), 0xABCD);
        // Zero-fill on untouched pages.
        assert_eq!(s.load(a + 4096, Width::Q, ctx).unwrap(), 0);
    }

    #[test]
    fn unmapped_access_faults() {
        let mut s = AddressSpace::new_48bit();
        let ctx = AccessCtx::ALL_ENABLED;
        assert!(matches!(s.load(0x5000, Width::D, ctx), Err(MemFault::Unmapped { .. })));
    }

    #[test]
    fn guard_region_faults() {
        let mut s = AddressSpace::new_48bit();
        let a = s.mmap(4096, Prot::READ_WRITE).unwrap();
        // Adjacent PROT_NONE guard.
        s.mmap_fixed(a + 4096, 4096, Prot::NONE).unwrap();
        let ctx = AccessCtx::ALL_ENABLED;
        assert!(matches!(
            s.load(a + 4096, Width::D, ctx),
            Err(MemFault::Protection { .. })
        ));
        // Write to read-only also faults.
        s.mprotect(a, 4096, Prot::READ).unwrap();
        assert!(matches!(
            s.store(a, Width::D, 1, ctx),
            Err(MemFault::Protection { .. })
        ));
    }

    #[test]
    fn straddling_access_checks_the_tail_vma() {
        let mut s = AddressSpace::new_48bit();
        let a = s.mmap(4096, Prot::READ_WRITE).unwrap();
        let ctx = AccessCtx::ALL_ENABLED;
        // Last byte lands in an adjacent PROT_NONE guard: per-page fault.
        s.mmap_fixed(a + 4096, 4096, Prot::NONE).unwrap();
        assert_eq!(
            s.load(a + 4096 - 2, Width::D, ctx),
            Err(MemFault::Protection { addr: a + 4096 })
        );
        // Last byte lands past the end of the mapping entirely.
        let b = s.mmap(4096, Prot::READ_WRITE).unwrap();
        assert_eq!(
            s.load(b + 4096 - 2, Width::D, ctx),
            Err(MemFault::Unmapped { addr: b + 4096 })
        );
        // Straddling into another readable VMA is fine.
        s.mprotect(a + 4096, 4096, Prot::READ_WRITE).unwrap();
        assert_eq!(s.load(a + 4096 - 2, Width::D, ctx).unwrap(), 0);
    }

    #[test]
    fn straddling_into_a_foreign_pkey_faults() {
        let mut s = AddressSpace::new_48bit();
        let a = s.mmap(8192, Prot::READ_WRITE).unwrap();
        let key = s.keys.pkey_alloc().unwrap();
        s.pkey_mprotect(a + 4096, 4096, Prot::READ_WRITE, key).unwrap();
        let deny = AccessCtx { pkru: 1 << (2 * key) };
        assert_eq!(
            s.load(a + 4096 - 2, Width::D, deny),
            Err(MemFault::PkuViolation { addr: a + 4096, key })
        );
    }

    #[test]
    fn vma_merging_keeps_map_count_low() {
        let mut s = AddressSpace::new_48bit();
        let a = s.mmap(4096 * 4, Prot::READ_WRITE).unwrap();
        assert_eq!(s.map_count(), 1);
        // mprotect the middle, then back: 3 VMAs then merge to 1.
        s.mprotect(a + 4096, 4096, Prot::READ).unwrap();
        assert_eq!(s.map_count(), 3);
        s.mprotect(a + 4096, 4096, Prot::READ_WRITE).unwrap();
        assert_eq!(s.map_count(), 1);
    }

    #[test]
    fn max_map_count_enforced() {
        let mut s = AddressSpace::new_48bit();
        s.set_max_map_count(4);
        // Alternate protections so VMAs cannot merge.
        let base = 0x10_0000u64;
        for i in 0..4u64 {
            let prot = if i % 2 == 0 { Prot::READ_WRITE } else { Prot::NONE };
            s.mmap_fixed(base + i * 4096, 4096, prot).unwrap();
        }
        assert_eq!(s.map_count(), 4);
        let e = s.mmap_fixed(base + 5 * 4096, 4096, Prot::READ_WRITE);
        assert_eq!(e, Err(MapError::TooManyMappings));
    }

    #[test]
    fn munmap_discards_contents() {
        let mut s = AddressSpace::new_48bit();
        let a = s.mmap(4096, Prot::READ_WRITE).unwrap();
        let ctx = AccessCtx::ALL_ENABLED;
        s.store(a, Width::Q, 7, ctx).unwrap();
        s.munmap(a, 4096).unwrap();
        assert!(matches!(s.load(a, Width::Q, ctx), Err(MemFault::Unmapped { .. })));
        // Re-mapping sees zeroes.
        s.mmap_fixed(a, 4096, Prot::READ_WRITE).unwrap();
        assert_eq!(s.load(a, Width::Q, ctx).unwrap(), 0);
    }

    #[test]
    fn madvise_zeroes_but_keeps_mapping() {
        let mut s = AddressSpace::new_48bit();
        let a = s.mmap(8192, Prot::READ_WRITE).unwrap();
        let ctx = AccessCtx::ALL_ENABLED;
        s.store(a + 8, Width::Q, 42, ctx).unwrap();
        s.madvise_dontneed(a, 8192).unwrap();
        assert_eq!(s.load(a + 8, Width::Q, ctx).unwrap(), 0, "madvise zeroes");
        assert_eq!(s.map_count(), 1, "mapping survives");
    }

    #[test]
    fn pkey_checks() {
        let mut s = AddressSpace::new_48bit();
        let a = s.mmap(4096, Prot::READ_WRITE).unwrap();
        let key = s.keys.pkey_alloc().unwrap();
        s.pkey_mprotect(a, 4096, Prot::READ_WRITE, key).unwrap();
        // PKRU with this key's access-disable bit set.
        let deny = AccessCtx { pkru: 1 << (2 * key) };
        assert!(matches!(
            s.load(a, Width::D, deny),
            Err(MemFault::PkuViolation { .. })
        ));
        // Write-disable only.
        let ro = AccessCtx { pkru: 1 << (2 * key + 1) };
        assert!(s.load(a, Width::D, ro).is_ok());
        assert!(matches!(s.store(a, Width::D, 1, ro), Err(MemFault::PkuViolation { .. })));
        // All enabled.
        assert!(s.store(a, Width::D, 1, AccessCtx::ALL_ENABLED).is_ok());
    }

    #[test]
    fn unallocated_pkey_rejected() {
        let mut s = AddressSpace::new_48bit();
        let a = s.mmap(4096, Prot::READ_WRITE).unwrap();
        assert_eq!(s.pkey_mprotect(a, 4096, Prot::READ_WRITE, 5), Err(MapError::BadKey));
    }

    #[test]
    fn huge_reservations_are_cheap() {
        let mut s = AddressSpace::new_48bit();
        // Reserve 1 TiB; only bookkeeping should happen.
        let a = s.mmap(1 << 40, Prot::NONE).unwrap();
        assert_eq!(s.map_count(), 1);
        s.mprotect(a, 1 << 30, Prot::READ_WRITE).unwrap();
        let ctx = AccessCtx::ALL_ENABLED;
        s.store(a + (1 << 29), Width::Q, 9, ctx).unwrap();
        assert_eq!(s.load(a + (1 << 29), Width::Q, ctx).unwrap(), 9);
    }

    #[test]
    fn address_space_exhaustion() {
        let mut s = AddressSpace::with_va_bits(32); // 2 GiB user space
        assert!(s.mmap(4 << 30, Prot::NONE).is_err());
        let half = s.mmap(1 << 30, Prot::NONE).unwrap();
        assert!(half < 1 << 31);
        // 57-bit spaces fit vastly more.
        let s57 = AddressSpace::new_57bit();
        assert_eq!(s57.user_span(), 1 << 56);
    }

    #[test]
    fn mte_tag_checking() {
        let mut s = AddressSpace::new_48bit();
        let a = s.mmap(4096, Prot::READ_WRITE).unwrap();
        s.set_mte(a, 4096, true).unwrap();
        s.tags.set_range(a, 4096, 0x3);
        let ctx = AccessCtx::ALL_ENABLED;
        // Pointer with matching tag in bits 59:56.
        let tagged = a | (0x3u64 << 56);
        assert!(s.load(tagged, Width::D, ctx).is_ok());
        // Mismatched tag traps.
        let bad = a | (0x5u64 << 56);
        assert!(matches!(
            s.load(bad, Width::D, ctx),
            Err(MemFault::MteTagMismatch { ptr_tag: 5, mem_tag: 3, .. })
        ));
    }

    #[test]
    fn madvise_discards_mte_tags_but_not_pkeys() {
        let mut s = AddressSpace::new_48bit();
        let a = s.mmap(4096, Prot::READ_WRITE).unwrap();
        let key = s.keys.pkey_alloc().unwrap();
        s.pkey_mprotect(a, 4096, Prot::READ_WRITE, key).unwrap();
        s.set_mte(a, 4096, true).unwrap();
        s.tags.set_range(a, 4096, 0x7);
        s.madvise_dontneed(a, 4096).unwrap();
        // MTE tags gone (reset to 0)…
        assert_eq!(s.tags.tag_at(a), 0);
        // …but the MPK key survives (it lives in the PTE).
        assert_eq!(s.vma_at(a).unwrap().pkey, key);
    }

    #[test]
    fn vma_iteration_and_lookup() {
        let mut s = AddressSpace::new_48bit();
        let a = s.mmap(4096, Prot::READ_WRITE).unwrap();
        let b = s.mmap(4096, Prot::NONE).unwrap();
        let vmas = s.vmas();
        assert_eq!(vmas.len(), 2);
        assert_eq!(s.vma_at(a).unwrap().prot, Prot::READ_WRITE);
        assert_eq!(s.vma_at(b).unwrap().prot, Prot::NONE);
        assert_eq!(s.vma_at(b + 4096), None);
    }

    #[test]
    fn alignment_errors() {
        let mut s = AddressSpace::new_48bit();
        assert_eq!(s.mmap_fixed(0x1001, 4096, Prot::NONE), Err(MapError::Unaligned));
        assert_eq!(s.mmap_fixed(0x1000, 100, Prot::NONE), Err(MapError::Unaligned));
        // mmap rounds the length up instead.
        let a = s.mmap(100, Prot::READ).unwrap();
        assert_eq!(s.vma_at(a).unwrap().end - a, 4096);
    }
}
