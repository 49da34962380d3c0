//! Mixed-size sandbox chains — the §3.2 extension.
//!
//! The paper notes: *"A Wasm runtime could also potentially chain sandboxes
//! of different sizes to efficiently use colors and possibly eliminate
//! [trailing guard regions]."* This module implements that future-work
//! idea: a greedy packer that lays out heterogeneous linear memories in one
//! contiguous chain, assigning MPK colors such that the ColorGuard safety
//! condition holds — any two same-colored sandboxes are at least
//! `reach = max_access_span + guard` bytes apart, so a 33-bit out-of-bounds
//! offset from one sandbox can never land in another sandbox of the same
//! color.

use crate::WASM_PAGE_SIZE;

/// One placed sandbox.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChainSlot {
    /// Byte offset of the sandbox's memory within the chain.
    pub offset: u64,
    /// The sandbox's memory size.
    pub size: u64,
    /// Assigned stripe (0-based color index).
    pub stripe: u8,
}

/// A packed chain of mixed-size sandboxes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Chain {
    slots: Vec<ChainSlot>,
    total_bytes: u64,
    reach: u64,
}

/// Chain-packing errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum ChainError {
    /// A sandbox size was zero or not Wasm-page aligned.
    BadSize(u64),
    /// Fewer than two stripes were available (no striping possible).
    NotEnoughStripes,
}

impl core::fmt::Display for ChainError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ChainError::BadSize(s) => write!(f, "bad sandbox size {s}"),
            ChainError::NotEnoughStripes => f.write_str("need at least two stripes"),
        }
    }
}

impl std::error::Error for ChainError {}

impl Chain {
    /// Greedily packs `sizes` into a chain using up to `stripes` colors,
    /// where any same-colored pair must be at least `reach` bytes apart
    /// (`reach` = the per-sandbox reservation the compiler assumes plus its
    /// guard requirement).
    ///
    /// Larger sandboxes naturally push same-color successors further apart,
    /// which is exactly why mixed-size chains use colors more efficiently
    /// than uniform striping.
    pub fn pack(sizes: &[u64], stripes: u8, reach: u64) -> Result<Chain, ChainError> {
        if stripes < 2 {
            return Err(ChainError::NotEnoughStripes);
        }
        for &s in sizes {
            if s == 0 || !s.is_multiple_of(WASM_PAGE_SIZE) {
                return Err(ChainError::BadSize(s));
            }
        }
        // next_free[c] = lowest offset where color c may be used again.
        let mut next_free = vec![0u64; usize::from(stripes)];
        let mut cursor = 0u64;
        let mut slots = Vec::with_capacity(sizes.len());
        for &size in sizes {
            // Choose the color usable earliest at (or nearest past) cursor.
            let (stripe, start) = next_free
                .iter()
                .enumerate()
                .map(|(c, &nf)| (c as u8, nf.max(cursor)))
                .min_by_key(|&(c, start)| (start, c))
                .expect("stripes >= 2");
            slots.push(ChainSlot { offset: start, size, stripe });
            next_free[usize::from(stripe)] = start + reach;
            cursor = start + size;
        }
        // The chain ends with a real guard protecting the final sandboxes.
        let total_bytes = cursor + reach;
        Ok(Chain { slots, total_bytes, reach })
    }

    /// The placed sandboxes, in input order.
    pub fn slots(&self) -> &[ChainSlot] {
        &self.slots
    }

    /// Total chain bytes including the trailing guard.
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }

    /// Colors actually used.
    pub fn stripes_used(&self) -> u8 {
        self.slots.iter().map(|s| s.stripe).max().map_or(0, |m| m + 1)
    }

    /// Verifies the ColorGuard safety condition: same-colored sandboxes are
    /// ≥ `reach` apart, and no two sandboxes overlap. Returns the first
    /// violating pair, if any.
    pub fn check(&self) -> Option<(usize, usize)> {
        for i in 0..self.slots.len() {
            for j in (i + 1)..self.slots.len() {
                let (a, b) = (self.slots[i], self.slots[j]);
                let (lo, hi) = if a.offset <= b.offset { (a, b) } else { (b, a) };
                if lo.offset + lo.size > hi.offset {
                    return Some((i, j));
                }
                if a.stripe == b.stripe && hi.offset - lo.offset < self.reach {
                    return Some((i, j));
                }
            }
        }
        None
    }

    /// Address-space efficiency vs. the uniform guard-region layout (each
    /// sandbox in its own `reach`-sized reservation).
    pub fn efficiency_vs_guard_regions(&self) -> f64 {
        let guard_layout = self.slots.len() as u64 * self.reach;
        guard_layout as f64 / self.total_bytes as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PAGE: u64 = WASM_PAGE_SIZE;

    #[test]
    fn uniform_chain_matches_striped_pool_density() {
        // 15 colors, uniform small sandboxes: the chain packs them
        // back-to-back, like the striped pool.
        let sizes = vec![PAGE; 30];
        let chain = Chain::pack(&sizes, 15, 15 * PAGE).expect("packs");
        assert_eq!(chain.check(), None);
        assert_eq!(chain.stripes_used(), 15);
        // Consecutive sandboxes are adjacent (no wasted space).
        for w in chain.slots().windows(2) {
            assert_eq!(w[0].offset + w[0].size, w[1].offset);
        }
    }

    #[test]
    fn mixed_sizes_reuse_colors_sooner() {
        // A large sandbox creates distance for free: the color after it can
        // repeat sooner, so fewer colors are needed for the same packing.
        let sizes = vec![PAGE, 8 * PAGE, PAGE, 8 * PAGE, PAGE, 8 * PAGE];
        let reach = 9 * PAGE;
        let chain = Chain::pack(&sizes, 4, reach).expect("packs");
        assert_eq!(chain.check(), None);
        assert!(
            chain.stripes_used() <= 3,
            "big interleaved sandboxes should need few colors: used {}",
            chain.stripes_used()
        );
    }

    #[test]
    fn safety_condition_is_never_violated() {
        let sizes: Vec<u64> =
            (1..40).map(|i| (i % 5 + 1) * PAGE).collect();
        for stripes in [2u8, 3, 7, 15] {
            let chain = Chain::pack(&sizes, stripes, 16 * PAGE).expect("packs");
            assert_eq!(chain.check(), None, "{stripes} stripes");
        }
    }

    #[test]
    fn fewer_stripes_means_more_padding() {
        let sizes = vec![PAGE; 20];
        let reach = 10 * PAGE;
        let two = Chain::pack(&sizes, 2, reach).expect("packs");
        let fifteen = Chain::pack(&sizes, 15, reach).expect("packs");
        assert!(two.total_bytes() > fifteen.total_bytes());
        assert!(fifteen.efficiency_vs_guard_regions() > two.efficiency_vs_guard_regions());
    }

    #[test]
    fn errors() {
        assert_eq!(Chain::pack(&[PAGE], 1, PAGE), Err(ChainError::NotEnoughStripes));
        assert_eq!(Chain::pack(&[123], 2, PAGE), Err(ChainError::BadSize(123)));
        assert_eq!(Chain::pack(&[0], 2, PAGE), Err(ChainError::BadSize(0)));
    }

    #[test]
    fn efficiency_beats_guard_regions() {
        // 64 KiB sandboxes with a 4 GiB-class reach: the whole point of
        // ColorGuard, now with mixed sizes.
        let sizes: Vec<u64> = (0..100).map(|i| (i % 4 + 1) * PAGE).collect();
        let chain = Chain::pack(&sizes, 15, 64 * PAGE).expect("packs");
        assert_eq!(chain.check(), None);
        assert!(
            chain.efficiency_vs_guard_regions() > 5.0,
            "got {:.1}×",
            chain.efficiency_vs_guard_regions()
        );
    }
}
