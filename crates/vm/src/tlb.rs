//! dTLB simulation.
//!
//! ColorGuard's throughput advantage over multi-process scaling partly comes
//! from TLB behaviour (Figure 7b): process switches flush the (non-PCID)
//! TLB, while in-process sandbox switches keep it warm. The model also
//! carries the §8 observation that 5-level paging (57-bit VA) makes each
//! miss ~25% more expensive by adding one page-table level.

/// A set-associative TLB with true-LRU replacement.
#[derive(Debug, Clone)]
pub struct Tlb {
    sets: usize,
    ways: usize,
    /// Page-table levels walked on a miss (4 for 48-bit VA, 5 for 57-bit).
    pub walk_levels: u32,
    entries: Vec<u64>,
    stamps: Vec<u64>,
    clock: u64,
    accesses: u64,
    misses: u64,
    flushes: u64,
}

/// Default dTLB geometry: 64 entries, 4-way (typical L1 dTLB).
pub const DEFAULT_ENTRIES: usize = 64;
/// Default associativity.
pub const DEFAULT_WAYS: usize = 4;

impl Tlb {
    /// A TLB with the default geometry and a walk depth derived from the
    /// address-space width (4 levels up to 48 bits, 5 beyond — §8).
    pub fn for_va_bits(va_bits: u32) -> Tlb {
        Tlb::new(DEFAULT_ENTRIES, DEFAULT_WAYS, if va_bits > 48 { 5 } else { 4 })
    }

    /// A TLB with explicit geometry.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not divisible by `ways` or the set count is
    /// not a power of two.
    pub fn new(entries: usize, ways: usize, walk_levels: u32) -> Tlb {
        assert_eq!(entries % ways, 0);
        let sets = entries / ways;
        assert!(sets.is_power_of_two());
        Tlb {
            sets,
            ways,
            walk_levels,
            entries: vec![u64::MAX; entries],
            stamps: vec![0; entries],
            clock: 0,
            accesses: 0,
            misses: 0,
            flushes: 0,
        }
    }

    /// Translates the page containing `addr`; returns `true` on a hit.
    pub fn access(&mut self, addr: u64) -> bool {
        self.accesses += 1;
        self.clock += 1;
        let page = addr >> 12;
        let set = (page as usize) & (self.sets - 1);
        let base = set * self.ways;
        for w in 0..self.ways {
            if self.entries[base + w] == page {
                self.stamps[base + w] = self.clock;
                return true;
            }
        }
        self.misses += 1;
        let mut victim = 0;
        let mut best = u64::MAX;
        for w in 0..self.ways {
            if self.entries[base + w] == u64::MAX {
                victim = w;
                break;
            }
            if self.stamps[base + w] < best {
                best = self.stamps[base + w];
                victim = w;
            }
        }
        self.entries[base + victim] = page;
        self.stamps[base + victim] = self.clock;
        false
    }

    /// Full flush (a non-PCID address-space switch).
    pub fn flush(&mut self) {
        self.entries.fill(u64::MAX);
        self.stamps.fill(0);
        self.flushes += 1;
    }

    /// Cycles charged per miss: a constant per page-walk level.
    pub fn miss_cycles(&self) -> f64 {
        const CYCLES_PER_LEVEL: f64 = 7.0;
        f64::from(self.walk_levels) * CYCLES_PER_LEVEL
    }

    /// Total translations.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Total misses.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Total flushes.
    pub fn flushes(&self) -> u64 {
        self.flushes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hits_after_first_touch() {
        let mut t = Tlb::for_va_bits(48);
        assert!(!t.access(0x1000));
        assert!(t.access(0x1FFF)); // same page
        assert!(!t.access(0x2000));
        assert_eq!(t.misses(), 2);
    }

    #[test]
    fn flush_forces_remisses() {
        let mut t = Tlb::for_va_bits(48);
        t.access(0x1000);
        t.flush();
        assert!(!t.access(0x1000));
        assert_eq!(t.flushes(), 1);
        assert_eq!(t.misses(), 2);
    }

    #[test]
    fn five_level_walks_cost_25_percent_more() {
        let four = Tlb::for_va_bits(48);
        let five = Tlb::for_va_bits(57);
        let ratio = five.miss_cycles() / four.miss_cycles();
        assert!((ratio - 1.25).abs() < 1e-9, "got {ratio}");
    }

    #[test]
    fn capacity_eviction() {
        let mut t = Tlb::new(4, 2, 4); // tiny: 2 sets × 2 ways
        // Four pages mapping to set 0: pages 0, 2, 4, 6 (even pages).
        for p in [0u64, 2, 4, 6] {
            t.access(p << 12);
        }
        // Page 0 was LRU-evicted.
        assert!(!t.access(0));
        // Page 6 is still resident.
        assert!(t.access(6 << 12));
    }
}
