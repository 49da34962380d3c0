//! The runtime pooling allocator: slabs, stripes and instance slots on top
//! of the `sfi-vm` address space.
//!
//! Mirrors the Wasmtime flow ColorGuard instruments (§5.1): the pool
//! `mmap`s one large slab at startup, carves it into slots per the computed
//! [`SlotLayout`], colors each slot's memory with `pkey_mprotect`, and
//! recycles finished slots with `madvise(MADV_DONTNEED)` — which keeps MPK
//! colors (they live in PTEs), so recycling needs no re-striping.
//!
//! Slots whose sandbox *trapped* take the crash-containment path instead:
//! [`MemoryPool::quarantine`] scrubs the slot, fences it `PROT_NONE`, and
//! parks it in a FIFO quarantine ring. A slot leaves the ring only through a
//! deterministic teardown (re-commit, re-apply its stripe color, scrub
//! again); a slot that faults [`QuarantinePolicy::max_faults`] times is
//! retired and never returned to circulation.

use std::collections::VecDeque;

use sfi_vm::{AddressSpace, MapError, Prot};

use crate::layout::{compute_layout, LayoutError, PoolConfig, SlotLayout};

/// An allocated instance slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotHandle {
    /// Slot index within the pool.
    pub index: u64,
    /// Virtual address of the slot's linear memory.
    pub heap_base: u64,
    /// The MPK key protecting this slot (0 when striping is off).
    pub pkey: u8,
}

/// Pool failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum PoolError {
    /// Layout computation failed.
    Layout(LayoutError),
    /// An address-space operation failed.
    Map(MapError),
    /// All slots are in use.
    Exhausted,
    /// Not enough MPK keys could be allocated.
    KeysUnavailable,
    /// The handle does not belong to this pool or is already free.
    BadHandle,
}

impl core::fmt::Display for PoolError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            PoolError::Layout(e) => write!(f, "layout: {e}"),
            PoolError::Map(e) => write!(f, "mapping: {e}"),
            PoolError::Exhausted => f.write_str("pool exhausted"),
            PoolError::KeysUnavailable => f.write_str("not enough protection keys"),
            PoolError::BadHandle => f.write_str("bad slot handle"),
        }
    }
}

impl std::error::Error for PoolError {}

impl From<LayoutError> for PoolError {
    fn from(e: LayoutError) -> Self {
        PoolError::Layout(e)
    }
}

impl From<MapError> for PoolError {
    fn from(e: MapError) -> Self {
        PoolError::Map(e)
    }
}

/// Policy governing the crash-containment path.
///
/// The same budget is applied at two scales: inside an engine it retires
/// an instance slot, and `sfi-faas::FleetSupervisor` reuses it verbatim as
/// the engine-level escalation — a member whose lifetime fault count
/// reaches `max_faults` is retired from the fleet (DESIGN.md §11).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuarantinePolicy {
    /// Quarantined slots the ring holds before the oldest is rehabilitated
    /// back to the free list. `0` rehabilitates immediately.
    pub ring_capacity: usize,
    /// Lifetime fault count at which a slot is retired for good.
    pub max_faults: u32,
}

impl Default for QuarantinePolicy {
    fn default() -> Self {
        QuarantinePolicy { ring_capacity: 2, max_faults: 3 }
    }
}

/// Lifetime counters for the crash-containment path, scraped by the
/// telemetry layer (quarantine-ring depth and retirement rate are the
/// observable cost of containment).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QuarantineStats {
    /// Slots that entered the quarantine ring.
    pub quarantines: u64,
    /// Slots rehabilitated from the ring back to circulation.
    pub rehabilitations: u64,
    /// Slots permanently retired (fault budget exhausted or scrub failed).
    pub retirements: u64,
    /// High-water mark of the quarantine ring's occupancy.
    pub peak_quarantined: usize,
}

/// What [`MemoryPool::quarantine`] did with the slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuarantineOutcome {
    /// The slot entered the quarantine ring and will eventually circulate
    /// again.
    Quarantined,
    /// The slot hit its fault budget (or could not be scrubbed) and is
    /// permanently out of circulation.
    Retired,
}

/// The pooling allocator.
#[derive(Debug)]
pub struct MemoryPool {
    layout: SlotLayout,
    slab_base: u64,
    /// MPK key per stripe index (empty when striping is off).
    stripe_keys: Vec<u8>,
    free: Vec<u64>,
    in_use: u64,
    /// Whether slot memory is eagerly committed+colored (done at creation,
    /// so recycling never re-stripes — the MPK advantage of §7 Obs. 2).
    eager_commit: bool,
    /// FIFO ring of faulted slots awaiting rehabilitation.
    quarantine: VecDeque<u64>,
    /// Lifetime fault count per slot.
    faults: Vec<u32>,
    /// Slots permanently removed from circulation.
    retired: Vec<u64>,
    policy: QuarantinePolicy,
    stats: QuarantineStats,
}

impl MemoryPool {
    /// Creates a pool in `space` per `cfg`, reserving the slab, committing
    /// slot memories, and striping them with freshly allocated MPK keys.
    pub fn create(space: &mut AddressSpace, cfg: &PoolConfig) -> Result<MemoryPool, PoolError> {
        Self::create_with(space, cfg, true)
    }

    /// Like [`MemoryPool::create`], but allows lazy commit (slots are
    /// committed and colored on first allocation) — needed when creating
    /// hundreds of thousands of slots where eager commit would exceed
    /// `vm.max_map_count` before it is raised.
    pub fn create_with(
        space: &mut AddressSpace,
        cfg: &PoolConfig,
        eager_commit: bool,
    ) -> Result<MemoryPool, PoolError> {
        let layout = compute_layout(cfg)?;
        let total = layout.total_slab_bytes().ok_or(PoolError::Layout(LayoutError::Overflow))?;
        let slab_base = space.mmap(total, Prot::NONE)?;

        // Allocate one key per stripe.
        let mut stripe_keys = Vec::new();
        if layout.num_stripes > 1 {
            for _ in 0..layout.num_stripes {
                let k = space.keys.pkey_alloc().ok_or(PoolError::KeysUnavailable)?;
                stripe_keys.push(k);
            }
        }

        let pool = MemoryPool {
            layout,
            slab_base,
            stripe_keys,
            free: (0..layout.num_slots).rev().collect(),
            in_use: 0,
            eager_commit,
            quarantine: VecDeque::new(),
            faults: vec![0; layout.num_slots as usize],
            retired: Vec::new(),
            policy: QuarantinePolicy::default(),
            stats: QuarantineStats::default(),
        };
        if eager_commit {
            for i in 0..layout.num_slots {
                pool.commit_slot(space, i)?;
            }
        }
        Ok(pool)
    }

    fn commit_slot(&self, space: &mut AddressSpace, i: u64) -> Result<(), PoolError> {
        let base = self.slot_base(i);
        space.mprotect(base, self.layout.max_memory_bytes, Prot::READ_WRITE)?;
        if let Some(&key) = self.stripe_keys.get(usize::from(self.layout.stripe_of(i))) {
            space.pkey_mprotect(base, self.layout.max_memory_bytes, Prot::READ_WRITE, key)?;
        }
        Ok(())
    }

    /// The layout contract (hand this to the compiler).
    pub fn layout(&self) -> &SlotLayout {
        &self.layout
    }

    /// Slab base address.
    pub fn slab_base(&self) -> u64 {
        self.slab_base
    }

    /// Linear-memory base of slot `i`.
    pub fn slot_base(&self, i: u64) -> u64 {
        self.slab_base + self.layout.slot_offset(i)
    }

    /// The MPK key for slot `i` (0 when striping is off).
    pub fn slot_key(&self, i: u64) -> u8 {
        self.stripe_keys
            .get(usize::from(self.layout.stripe_of(i)))
            .copied()
            .unwrap_or(0)
    }

    /// Slots currently allocated.
    pub fn in_use(&self) -> u64 {
        self.in_use
    }

    /// Total slots.
    pub fn capacity(&self) -> u64 {
        self.layout.num_slots
    }

    /// Allocates a slot.
    pub fn allocate(&mut self, space: &mut AddressSpace) -> Result<SlotHandle, PoolError> {
        let index = self.free.pop().ok_or(PoolError::Exhausted)?;
        if !self.eager_commit {
            // Failed commits (e.g. injected map faults) must not leak the
            // slot: put it back so a later attempt can retry it.
            if let Err(e) = self.commit_slot(space, index) {
                self.free.push(index);
                return Err(e);
            }
        }
        self.in_use += 1;
        Ok(SlotHandle { index, heap_base: self.slot_base(index), pkey: self.slot_key(index) })
    }

    /// Returns a slot to the pool, zeroing it with
    /// `madvise(MADV_DONTNEED)`. MPK colors survive in the PTEs; only the
    /// contents are discarded.
    pub fn deallocate(
        &mut self,
        space: &mut AddressSpace,
        handle: SlotHandle,
    ) -> Result<(), PoolError> {
        if !self.is_live(handle.index) {
            return Err(PoolError::BadHandle);
        }
        space.madvise_dontneed(self.slot_base(handle.index), self.layout.max_memory_bytes)?;
        self.free.push(handle.index);
        self.in_use -= 1;
        Ok(())
    }

    /// Whether `index` names a slot that is currently allocated (not free,
    /// quarantined or retired).
    fn is_live(&self, index: u64) -> bool {
        index < self.layout.num_slots
            && !self.free.contains(&index)
            && !self.quarantine.contains(&index)
            && !self.retired.contains(&index)
    }

    /// Sets the crash-containment policy (applies to future quarantines).
    pub fn set_quarantine_policy(&mut self, policy: QuarantinePolicy) {
        self.policy = policy;
    }

    /// Slots currently parked in the quarantine ring.
    pub fn quarantined(&self) -> usize {
        self.quarantine.len()
    }

    /// Slots permanently retired.
    pub fn retired(&self) -> usize {
        self.retired.len()
    }

    /// Lifetime fault count of slot `i`.
    pub fn fault_count(&self, i: u64) -> u32 {
        self.faults.get(i as usize).copied().unwrap_or(0)
    }

    /// Lifetime crash-containment counters.
    pub fn quarantine_stats(&self) -> QuarantineStats {
        self.stats
    }

    /// Takes a *faulted* slot out of circulation: scrubs its contents,
    /// fences the memory `PROT_NONE` (so any stale pointer into it traps),
    /// and parks it in the quarantine ring. When the ring overflows
    /// [`QuarantinePolicy::ring_capacity`], the oldest occupant is
    /// rehabilitated back to the free list.
    ///
    /// A slot that reaches [`QuarantinePolicy::max_faults`] lifetime faults
    /// is retired instead, as is a slot whose scrub/fence itself fails
    /// (e.g. under fault injection): a slot that cannot be proven clean
    /// never circulates again.
    pub fn quarantine(
        &mut self,
        space: &mut AddressSpace,
        handle: SlotHandle,
    ) -> Result<QuarantineOutcome, PoolError> {
        if !self.is_live(handle.index) {
            return Err(PoolError::BadHandle);
        }
        let i = handle.index;
        self.in_use -= 1;
        self.faults[i as usize] += 1;

        let base = self.slot_base(i);
        let scrubbed = space
            .madvise_dontneed(base, self.layout.max_memory_bytes)
            .and_then(|()| space.mprotect(base, self.layout.max_memory_bytes, Prot::NONE));

        if scrubbed.is_err() || self.faults[i as usize] >= self.policy.max_faults {
            self.retired.push(i);
            self.stats.retirements += 1;
            return Ok(QuarantineOutcome::Retired);
        }

        self.quarantine.push_back(i);
        self.stats.quarantines += 1;
        self.stats.peak_quarantined = self.stats.peak_quarantined.max(self.quarantine.len());
        while self.quarantine.len() > self.policy.ring_capacity {
            self.rehabilitate_oldest(space);
        }
        Ok(QuarantineOutcome::Quarantined)
    }

    /// Rehabilitates every quarantined slot immediately (shutdown / tests).
    pub fn drain_quarantine(&mut self, space: &mut AddressSpace) {
        while !self.quarantine.is_empty() {
            self.rehabilitate_oldest(space);
        }
    }

    /// Deterministic teardown of the oldest quarantined slot: re-commit
    /// read-write, re-apply the stripe color, scrub once more, and only then
    /// return it to the free list. If any step fails the slot is retired.
    fn rehabilitate_oldest(&mut self, space: &mut AddressSpace) {
        let Some(i) = self.quarantine.pop_front() else { return };
        let restored = self
            .commit_slot(space, i)
            .and_then(|()| {
                space
                    .madvise_dontneed(self.slot_base(i), self.layout.max_memory_bytes)
                    .map_err(PoolError::from)
            });
        if restored.is_ok() {
            self.free.push(i);
            self.stats.rehabilitations += 1;
        } else {
            self.retired.push(i);
            self.stats.retirements += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::WASM_PAGE_SIZE;
    use sfi_vm::mpk::Pkru;
    use sfi_x86::emu::{AccessCtx, MemBus};
    use sfi_x86::{MemFault, Width};

    fn small_cfg() -> PoolConfig {
        PoolConfig {
            num_slots: 8,
            max_memory_bytes: WASM_PAGE_SIZE,
            expected_slot_bytes: 4 * WASM_PAGE_SIZE,
            guard_bytes: 4 * WASM_PAGE_SIZE,
            guard_before_slots: true,
            num_pkeys_available: 15,
            total_memory_bytes: 1 << 30,
        }
    }

    #[test]
    fn pool_allocates_and_recycles() {
        let mut space = AddressSpace::new_48bit();
        let mut pool = MemoryPool::create(&mut space, &small_cfg()).unwrap();
        assert_eq!(pool.capacity(), 8);
        let a = pool.allocate(&mut space).unwrap();
        let b = pool.allocate(&mut space).unwrap();
        assert_ne!(a.heap_base, b.heap_base);
        assert_eq!(pool.in_use(), 2);
        // Write into a's memory with a's PKRU, read it back.
        let ctx = AccessCtx { pkru: Pkru::only_stripe(a.pkey).0 };
        space.store(a.heap_base + 64, Width::Q, 0x1234, ctx).unwrap();
        assert_eq!(space.load(a.heap_base + 64, Width::Q, ctx).unwrap(), 0x1234);
        // Recycle: contents are zeroed, key survives.
        pool.deallocate(&mut space, a).unwrap();
        let a2 = pool.allocate(&mut space).unwrap();
        assert_eq!(a2.index, a.index, "LIFO reuse");
        assert_eq!(a2.pkey, a.pkey, "colors survive madvise");
        assert_eq!(space.load(a.heap_base + 64, Width::Q, ctx).unwrap(), 0, "zeroed");
    }

    #[test]
    fn cross_stripe_access_faults() {
        // The ColorGuard security property: sandbox A (running with only
        // its own key enabled) cannot touch sandbox B's stripe, even though
        // B's memory is mapped and closer than A's guard distance.
        let mut space = AddressSpace::new_48bit();
        let mut pool = MemoryPool::create(&mut space, &small_cfg()).unwrap();
        let a = pool.allocate(&mut space).unwrap();
        let b = pool.allocate(&mut space).unwrap();
        assert_ne!(a.pkey, b.pkey, "adjacent slots use different stripes");
        let ctx_a = AccessCtx { pkru: Pkru::only_stripe(a.pkey).0 };
        // A's view: its own memory works…
        space.store(a.heap_base, Width::D, 1, ctx_a).unwrap();
        // …but B's stripe faults with a PKU violation.
        let denied = space.load(b.heap_base, Width::D, ctx_a);
        assert!(matches!(denied, Err(MemFault::PkuViolation { .. })), "{denied:?}");
    }

    #[test]
    fn guard_region_beyond_last_slot_faults() {
        let mut space = AddressSpace::new_48bit();
        let mut pool = MemoryPool::create(&mut space, &small_cfg()).unwrap();
        let handles: Vec<_> =
            (0..pool.capacity()).map(|_| pool.allocate(&mut space).unwrap()).collect();
        let last = handles.last().unwrap();
        let ctx = AccessCtx { pkru: Pkru::only_stripe(last.pkey).0 };
        // One byte past the last slot's memory: unmapped or PROT_NONE.
        let oob = space.load(last.heap_base + pool.layout().max_memory_bytes, Width::B, ctx);
        assert!(
            matches!(oob, Err(MemFault::Protection { .. }) | Err(MemFault::Unmapped { .. })
                | Err(MemFault::PkuViolation { .. })),
            "{oob:?}"
        );
    }

    #[test]
    fn exhaustion_and_bad_handles() {
        let mut space = AddressSpace::new_48bit();
        let mut cfg = small_cfg();
        cfg.num_slots = 2;
        let mut pool = MemoryPool::create(&mut space, &cfg).unwrap();
        let a = pool.allocate(&mut space).unwrap();
        let _b = pool.allocate(&mut space).unwrap();
        assert_eq!(pool.allocate(&mut space).unwrap_err(), PoolError::Exhausted);
        pool.deallocate(&mut space, a).unwrap();
        assert_eq!(pool.deallocate(&mut space, a).unwrap_err(), PoolError::BadHandle);
    }

    #[test]
    fn striping_needs_keys() {
        let mut space = AddressSpace::new_48bit();
        // Reserve 14 keys: only 1 remains, but the layout wants several.
        space.keys.reserve(14);
        let err = MemoryPool::create(&mut space, &small_cfg());
        assert!(matches!(err, Err(PoolError::KeysUnavailable)), "{err:?}");
    }

    #[test]
    fn quarantine_fences_and_rehabilitates() {
        let mut space = AddressSpace::new_48bit();
        let mut pool = MemoryPool::create(&mut space, &small_cfg()).unwrap();
        pool.set_quarantine_policy(QuarantinePolicy { ring_capacity: 1, max_faults: 10 });
        let a = pool.allocate(&mut space).unwrap();
        let ctx = AccessCtx { pkru: Pkru::only_stripe(a.pkey).0 };
        space.store(a.heap_base, Width::Q, 0xDEAD, ctx).unwrap();

        assert_eq!(pool.quarantine(&mut space, a).unwrap(), QuarantineOutcome::Quarantined);
        assert_eq!(pool.quarantined(), 1);
        assert_eq!(pool.fault_count(a.index), 1);
        // While quarantined the slot is fenced: even its own color traps.
        assert!(matches!(
            space.load(a.heap_base, Width::Q, ctx),
            Err(MemFault::Protection { .. })
        ));
        // Double-quarantine / deallocate of a parked slot is a bad handle.
        assert_eq!(pool.quarantine(&mut space, a).unwrap_err(), PoolError::BadHandle);
        assert_eq!(pool.deallocate(&mut space, a).unwrap_err(), PoolError::BadHandle);

        // Rehabilitate: the slot circulates again, same color, scrubbed.
        pool.drain_quarantine(&mut space);
        assert_eq!(pool.quarantined(), 0);
        let free_before = pool.capacity() - pool.in_use();
        assert_eq!(free_before, pool.capacity());
        // Allocate everything; the rehabilitated slot must come back usable.
        let handles: Vec<_> =
            (0..pool.capacity()).map(|_| pool.allocate(&mut space).unwrap()).collect();
        let back = handles.iter().find(|h| h.index == a.index).expect("slot circulates");
        assert_eq!(back.pkey, a.pkey, "stripe color re-applied");
        assert_eq!(space.load(back.heap_base, Width::Q, ctx).unwrap(), 0, "scrubbed");
    }

    #[test]
    fn quarantine_ring_defers_reuse() {
        let mut space = AddressSpace::new_48bit();
        let mut pool = MemoryPool::create(&mut space, &small_cfg()).unwrap();
        pool.set_quarantine_policy(QuarantinePolicy { ring_capacity: 2, max_faults: 10 });
        let a = pool.allocate(&mut space).unwrap();
        let b = pool.allocate(&mut space).unwrap();
        let c = pool.allocate(&mut space).unwrap();
        pool.quarantine(&mut space, a).unwrap();
        pool.quarantine(&mut space, b).unwrap();
        assert_eq!(pool.quarantined(), 2, "ring holds both");
        // Third entry overflows the ring: the oldest (a) is rehabilitated.
        pool.quarantine(&mut space, c).unwrap();
        assert_eq!(pool.quarantined(), 2);
        let ctx = AccessCtx { pkru: Pkru::only_stripe(a.pkey).0 };
        assert!(space.load(a.heap_base, Width::Q, ctx).is_ok(), "a circulates again");
    }

    #[test]
    fn repeat_offender_is_retired() {
        let mut space = AddressSpace::new_48bit();
        let mut pool = MemoryPool::create(&mut space, &small_cfg()).unwrap();
        pool.set_quarantine_policy(QuarantinePolicy { ring_capacity: 0, max_faults: 2 });
        let first = pool.allocate(&mut space).unwrap();
        assert_eq!(pool.quarantine(&mut space, first).unwrap(), QuarantineOutcome::Quarantined);
        // ring_capacity 0 rehabilitates immediately; fault it again.
        let again = loop {
            let h = pool.allocate(&mut space).unwrap();
            if h.index == first.index {
                break h;
            }
        };
        assert_eq!(pool.quarantine(&mut space, again).unwrap(), QuarantineOutcome::Retired);
        assert_eq!(pool.retired(), 1);
        assert_eq!(pool.fault_count(first.index), 2);
        // The retired slot never comes back.
        let mut seen = Vec::new();
        while let Ok(h) = pool.allocate(&mut space) {
            seen.push(h.index);
        }
        assert!(!seen.contains(&first.index), "retired slot must not circulate");
    }

    #[test]
    fn vma_count_reflects_striping() {
        // Each colored slot is its own VMA (they cannot merge across
        // stripes) — the vm.max_map_count pressure §5.1 mentions.
        let mut space = AddressSpace::new_48bit();
        let pool = MemoryPool::create(&mut space, &small_cfg()).unwrap();
        assert!(space.map_count() >= pool.capacity() as usize);
    }
}
