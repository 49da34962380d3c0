//! Seeded input generation: a splitmix64 stream, a Zipf sampler, a
//! Fisher–Yates shuffle, and a 64-bit digest. Everything a workload feeds
//! the lab is derived from `--seed` through these, never from ambient
//! state, so one seed always yields one op stream.

/// splitmix64: small, full-period, and deterministic everywhere.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream keyed by `seed` and a per-use `salt`, so different uses of
    /// one seed do not share draws.
    pub fn new(seed: u64, salt: u64) -> Rng {
        Rng(mix(seed ^ salt.wrapping_mul(0xD6E8_FEB8_6659_FD93)))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Shuffles `items` in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Zipf-distributed ranks over `0..n`: rank `k` has weight `1 / (k+1)^s`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// A sampler over `n ≥ 1` ranks with exponent `s`.
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..n)
            .map(|k| {
                acc += 1.0 / ((k + 1) as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    /// Draws one rank.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// An FNV-1a-style digest taken a word at a time (heaps run to hundreds of
/// KiB per op): the digest for heaps and op streams.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Digest {
        Digest(0xCBF2_9CE4_8422_2325)
    }
}

impl Digest {
    fn word(&mut self, w: u64) {
        self.0 = (self.0 ^ w)
            .wrapping_mul(0x0000_0100_0000_01B3)
            .rotate_left(29);
    }

    /// Folds `bytes` (and their length) into the digest.
    pub fn bytes(mut self, bytes: &[u8]) -> Digest {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.word(u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
        }
        let mut tail = [0u8; 8];
        tail[..words.remainder().len()].copy_from_slice(words.remainder());
        self.word(u64::from_le_bytes(tail));
        self.word(bytes.len() as u64);
        self
    }

    /// Folds one integer into the digest.
    pub fn u64(self, v: u64) -> Digest {
        self.bytes(&v.to_le_bytes())
    }

    /// The digest value.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Digest of a byte slice.
pub fn digest(bytes: &[u8]) -> u64 {
    Digest::default().bytes(bytes).finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_head_is_heaviest() {
        let z = Zipf::new(144, 1.0);
        let mut rng = Rng::new(7, 1);
        let mut counts = vec![0u32; 144];
        for _ in 0..20_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[1] && counts[1] > counts[20]);
        assert!(counts.iter().all(|&c| c < 20_000));
    }

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let mut a: Vec<u32> = (0..50).collect();
        let mut b = a.clone();
        Rng::new(3, 9).shuffle(&mut a);
        Rng::new(3, 9).shuffle(&mut b);
        assert_eq!(a, b);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }
}
