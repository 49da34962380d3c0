//! Set-associative cache simulation (used for both L1I and L1D).
//!
//! The emulator charges miss penalties through [`crate::cost::CostModel`];
//! this module only tracks hit/miss behaviour. Caches here are physically
//! simple: true-LRU, write-allocate, no prefetching — deliberately so, to
//! keep results deterministic and explainable.

/// A set-associative cache with true-LRU replacement.
#[derive(Debug, Clone)]
pub struct Cache {
    /// log2 of the line size in bytes.
    line_shift: u32,
    sets: usize,
    ways: usize,
    /// `tags[set * ways + way]` = line tag, or `u64::MAX` if invalid.
    tags: Vec<u64>,
    /// LRU stamps, parallel to `tags`.
    stamps: Vec<u64>,
    clock: u64,
    accesses: u64,
    misses: u64,
    /// The line of the most recent access, or [`NO_LINE`] after a flush.
    mru: u64,
}

/// The `mru` memo's empty value: the marker `tags` uses for an invalid
/// way, so no resident line carries it.
const NO_LINE: u64 = u64::MAX;

impl Cache {
    /// Creates a cache of `size_bytes` with `ways`-way associativity and
    /// `line_bytes` lines.
    ///
    /// # Panics
    ///
    /// Panics if the parameters are not powers of two or inconsistent.
    pub fn new(size_bytes: usize, ways: usize, line_bytes: usize) -> Cache {
        assert!(line_bytes.is_power_of_two(), "line size must be a power of two");
        assert!(ways >= 1);
        assert_eq!(size_bytes % (ways * line_bytes), 0, "size must divide evenly");
        let sets = size_bytes / (ways * line_bytes);
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        Cache {
            line_shift: line_bytes.trailing_zeros(),
            sets,
            ways,
            tags: vec![u64::MAX; sets * ways],
            stamps: vec![0; sets * ways],
            clock: 0,
            accesses: 0,
            misses: 0,
            mru: NO_LINE,
        }
    }

    /// A typical L1 data cache (48 KiB, 12-way, 64-byte lines — client x86).
    pub fn l1d_default() -> Cache {
        Cache::new(48 * 1024, 12, 64)
    }

    /// A typical L1 instruction cache (32 KiB, 8-way, 64-byte lines).
    pub fn l1i_default() -> Cache {
        Cache::new(32 * 1024, 8, 64)
    }

    /// Accesses `addr`; returns `true` on a hit. Spanning accesses should
    /// call this once per touched line (see [`Cache::access_range`]).
    ///
    /// A repeat of the most recent line hits without touching its stamp.
    /// That is exact: the line already holds the newest stamp in its set,
    /// and every later access stamps higher, so the set's LRU order — and
    /// every future victim — is what the stamp update would have left.
    pub fn access(&mut self, addr: u64) -> bool {
        self.accesses += 1;
        self.clock += 1;
        let line = addr >> self.line_shift;
        if line == self.mru {
            return true;
        }
        self.mru = line;
        let set = (line as usize) & (self.sets - 1);
        let base = set * self.ways;
        let slots = &mut self.tags[base..base + self.ways];
        if let Some(w) = slots.iter().position(|&t| t == line) {
            self.stamps[base + w] = self.clock;
            return true;
        }
        self.misses += 1;
        // Victim: the least-recently-used way.
        let mut victim = 0;
        let mut best = u64::MAX;
        for w in 0..self.ways {
            if self.tags[base + w] == u64::MAX {
                victim = w;
                break;
            }
            if self.stamps[base + w] < best {
                best = self.stamps[base + w];
                victim = w;
            }
        }
        self.tags[base + victim] = line;
        self.stamps[base + victim] = self.clock;
        false
    }

    /// Accesses every line touched by `[addr, addr+len)`; returns the number
    /// of misses (0, 1 or 2 for ordinary accesses).
    pub fn access_range(&mut self, addr: u64, len: u64) -> u32 {
        if len == 0 {
            return 0;
        }
        let first = addr >> self.line_shift;
        let last = (addr + len - 1) >> self.line_shift;
        let mut misses = 0;
        for line in first..=last {
            if !self.access(line << self.line_shift) {
                misses += 1;
            }
        }
        misses
    }

    /// Total accesses so far.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Total misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Miss rate in [0, 1]; 0 if no accesses.
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }

    /// Invalidates all lines and zeroes counters.
    pub fn reset(&mut self) {
        self.tags.fill(u64::MAX);
        self.stamps.fill(0);
        self.clock = 0;
        self.accesses = 0;
        self.misses = 0;
        self.mru = NO_LINE;
    }

    /// Invalidates all lines but keeps counters (models a cache flushed by a
    /// context switch).
    pub fn flush(&mut self) {
        self.tags.fill(u64::MAX);
        self.stamps.fill(0);
        self.mru = NO_LINE;
    }

    /// Line size in bytes.
    pub fn line_bytes(&self) -> u64 {
        1 << self.line_shift
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_miss_then_hit() {
        let mut c = Cache::new(1024, 2, 64);
        assert!(!c.access(0x40));
        assert!(c.access(0x40));
        assert!(c.access(0x7F)); // same line
        assert!(!c.access(0x80)); // next line
        assert_eq!(c.misses(), 2);
        assert_eq!(c.accesses(), 4);
    }

    #[test]
    fn lru_eviction() {
        // 2 ways, 64-byte lines, 2 sets → set stride 128.
        let mut c = Cache::new(256, 2, 64);
        let a = 0u64;
        let b = 128; // same set as a (set 0)
        let d = 256; // same set again
        assert!(!c.access(a));
        assert!(!c.access(b));
        assert!(!c.access(d)); // evicts a (LRU)
        assert!(!c.access(a)); // a was evicted
        assert!(c.access(d)); // d still resident
    }

    #[test]
    fn range_access_spans_lines() {
        let mut c = Cache::new(1024, 2, 64);
        // 8 bytes at offset 60 spans two lines.
        assert_eq!(c.access_range(60, 8), 2);
        assert_eq!(c.access_range(60, 8), 0);
        assert_eq!(c.access_range(0, 0), 0);
    }

    #[test]
    fn flush_keeps_counters() {
        let mut c = Cache::new(1024, 2, 64);
        c.access(0);
        c.flush();
        assert_eq!(c.misses(), 1);
        assert!(!c.access(0), "flushed line must miss again");
        assert_eq!(c.misses(), 2);
    }

    /// The pre-fast-path algorithm, kept verbatim as the oracle: every hit
    /// re-stamps its way, nothing is memoized.
    struct ReferenceLru {
        line_shift: u32,
        sets: usize,
        ways: usize,
        tags: Vec<u64>,
        stamps: Vec<u64>,
        clock: u64,
        accesses: u64,
        misses: u64,
    }

    impl ReferenceLru {
        fn new(size_bytes: usize, ways: usize, line_bytes: usize) -> ReferenceLru {
            let sets = size_bytes / (ways * line_bytes);
            ReferenceLru {
                line_shift: line_bytes.trailing_zeros(),
                sets,
                ways,
                tags: vec![u64::MAX; sets * ways],
                stamps: vec![0; sets * ways],
                clock: 0,
                accesses: 0,
                misses: 0,
            }
        }

        fn access(&mut self, addr: u64) -> bool {
            self.accesses += 1;
            self.clock += 1;
            let line = addr >> self.line_shift;
            let base = ((line as usize) & (self.sets - 1)) * self.ways;
            if let Some(w) = self.tags[base..base + self.ways].iter().position(|&t| t == line) {
                self.stamps[base + w] = self.clock;
                return true;
            }
            self.misses += 1;
            let mut victim = 0;
            let mut best = u64::MAX;
            for w in 0..self.ways {
                if self.tags[base + w] == u64::MAX {
                    victim = w;
                    break;
                }
                if self.stamps[base + w] < best {
                    best = self.stamps[base + w];
                    victim = w;
                }
            }
            self.tags[base + victim] = line;
            self.stamps[base + victim] = self.clock;
            false
        }

        fn flush(&mut self) {
            self.tags.fill(u64::MAX);
            self.stamps.fill(0);
        }
    }

    /// Replays a seeded stream — repeats of the last line, lines that
    /// conflict in one set, scattered lines, and flushes — through `Cache`
    /// (flushed by `flush`) and the reference. Returns the first step whose
    /// hit/miss answer or counters disagree.
    fn first_divergence(
        seed: u64,
        geometry: (usize, usize),
        flush: fn(&mut Cache),
    ) -> Option<usize> {
        let (size, ways) = geometry;
        let mut cache = Cache::new(size, ways, 64);
        let mut reference = ReferenceLru::new(size, ways, 64);
        let set_stride = (size / ways) as u64;
        let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut last = 0u64;
        for step in 0..20_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let addr = match x % 100 {
                0..=1 => {
                    flush(&mut cache);
                    reference.flush();
                    continue;
                }
                2..=49 => last + (x >> 8) % 64,
                50..=79 => (x >> 8) % (ways as u64 + 2) * set_stride + (x >> 32) % 64,
                _ => (x >> 8) % (4 * size as u64),
            };
            last = addr & !63;
            if cache.access(addr) != reference.access(addr)
                || (cache.accesses(), cache.misses()) != (reference.accesses, reference.misses)
            {
                return Some(step);
            }
        }
        None
    }

    const GEOMETRIES: [(usize, usize); 3] = [(512, 2), (1024, 4), (32 * 1024, 8)];

    #[test]
    fn mru_fast_path_matches_true_lru() {
        for geometry in GEOMETRIES {
            for seed in 0..16 {
                assert_eq!(
                    first_divergence(seed, geometry, Cache::flush),
                    None,
                    "{geometry:?} seed {seed}"
                );
            }
        }
    }

    #[test]
    fn replay_catches_a_memo_that_survives_flush() {
        // The seeded bug: a flush that forgets to clear the memo lets the
        // next access to the last line hit a cache that no longer holds it.
        fn stale_flush(c: &mut Cache) {
            let mru = c.mru;
            c.flush();
            c.mru = mru;
        }
        for geometry in GEOMETRIES {
            for seed in 0..16 {
                assert!(
                    first_divergence(seed, geometry, stale_flush).is_some(),
                    "{geometry:?} seed {seed}: the stale memo went unnoticed"
                );
            }
        }
    }

    #[test]
    fn working_set_behaviour() {
        // A working set that fits has ~zero steady-state misses; one that
        // doesn't thrashes. This is the mechanism behind the paper's
        // "Wasm's 32-bit pointers act as a cache optimization" observation.
        let mut fits = Cache::new(4096, 4, 64);
        let mut thrash = Cache::new(4096, 4, 64);
        for round in 0..8 {
            for i in 0..32 {
                fits.access(i * 64); // 2 KiB set
            }
            for i in 0..128 {
                thrash.access(i * 64); // 8 KiB set
            }
            if round == 0 {
                continue;
            }
        }
        assert_eq!(fits.misses(), 32, "small set misses only on the cold pass");
        assert!(thrash.miss_rate() > 0.9, "oversized set keeps missing");
    }
}
