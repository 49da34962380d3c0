//! Hash-based load balancing (the paper's third FaaS workload, §6.4.3):
//! a from-scratch 64-bit hash plus a consistent-hash ring with virtual
//! nodes, as an edge load balancer would use to pick an origin.

/// FNV-1a, 64-bit.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// A final avalanche (xxhash-style) for ring positions.
fn avalanche(mut h: u64) -> u64 {
    h ^= h >> 33;
    h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    h ^= h >> 33;
    h = h.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
    h ^= h >> 33;
    h
}

/// A consistent-hash ring over named backends.
#[derive(Debug, Clone)]
pub struct HashRing {
    /// Sorted (position, backend index).
    points: Vec<(u64, u32)>,
    backends: Vec<String>,
}

impl HashRing {
    /// Builds a ring with `vnodes` virtual nodes per backend.
    ///
    /// # Panics
    ///
    /// Panics if `backends` is empty or `vnodes` is zero.
    pub fn new<S: Into<String>>(backends: Vec<S>, vnodes: u32) -> HashRing {
        assert!(vnodes > 0, "need at least one virtual node");
        let backends: Vec<String> = backends.into_iter().map(Into::into).collect();
        assert!(!backends.is_empty(), "need at least one backend");
        let mut points = Vec::with_capacity(backends.len() * vnodes as usize);
        for (i, b) in backends.iter().enumerate() {
            for v in 0..vnodes {
                let key = format!("{b}#{v}");
                points.push((avalanche(fnv1a(key.as_bytes())), i as u32));
            }
        }
        points.sort_unstable();
        points.dedup_by_key(|p| p.0);
        HashRing { points, backends }
    }

    /// The index, in the backend list given to [`HashRing::new`], of the
    /// backend for `key`.
    pub fn route_index(&self, key: &str) -> usize {
        let h = avalanche(fnv1a(key.as_bytes()));
        let idx = self.points.partition_point(|&(p, _)| p < h);
        self.points[idx % self.points.len()].1 as usize
    }

    /// Picks the backend for `key`; also returns the hash-work units
    /// (bytes hashed + probe steps) for cost accounting.
    pub fn route_counted(&self, key: &str) -> (&str, u64) {
        let work = key.len() as u64 + 64;
        (&self.backends[self.route_index(key)], work)
    }

    /// Picks the backend for `key`.
    pub fn route(&self, key: &str) -> &str {
        self.route_counted(key).0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn fnv_vectors() {
        // Known FNV-1a test vectors.
        assert_eq!(fnv1a(b""), 0xCBF2_9CE4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xAF63_DC4C_8601_EC8C);
        assert_eq!(fnv1a(b"foobar"), 0x85944171F73967E8);
    }

    #[test]
    fn routing_is_deterministic() {
        let ring = HashRing::new(vec!["origin-a", "origin-b", "origin-c"], 64);
        let a = ring.route("/api/users/1");
        for _ in 0..10 {
            assert_eq!(ring.route("/api/users/1"), a);
        }
    }

    #[test]
    fn distribution_is_roughly_even() {
        let ring = HashRing::new(vec!["a", "b", "c", "d"], 128);
        let mut counts: BTreeMap<&str, u32> = BTreeMap::new();
        for i in 0..8000 {
            *counts.entry(ring.route(&format!("/path/{i}"))).or_default() += 1;
        }
        for (&b, &c) in &counts {
            assert!(
                (1200..=2800).contains(&c),
                "backend {b} got {c} of 8000 — too skewed"
            );
        }
    }

    #[test]
    fn consistency_under_backend_removal() {
        // Removing one backend should only remap ~1/n of the keys.
        let ring4 = HashRing::new(vec!["a", "b", "c", "d"], 128);
        let ring3 = HashRing::new(vec!["a", "b", "c"], 128);
        let mut moved = 0;
        let total = 4000;
        for i in 0..total {
            let key = format!("/k/{i}");
            let before = ring4.route(&key);
            let after = ring3.route(&key);
            if before != "d" && before != after {
                moved += 1;
            }
        }
        assert!(
            moved < total / 6,
            "consistent hashing should move few keys: {moved}/{total}"
        );
    }

    #[test]
    fn route_index_names_the_backend_route_picks() {
        let names: Vec<String> = (0..8).map(|i| format!("core-{i}")).collect();
        let ring = HashRing::new(names.clone(), 64);
        for i in 0..10_000 {
            let key = format!("req-{i}");
            // Reference: the first ring point at or after the key's hash,
            // wrapping to the lowest point, by linear scan.
            let h = avalanche(fnv1a(key.as_bytes()));
            let owner = ring.points.iter().find(|&&(p, _)| p >= h).unwrap_or(&ring.points[0]).1;
            assert_eq!(ring.route_index(&key), owner as usize, "key {key}");
            assert_eq!(names[ring.route_index(&key)], ring.route(&key), "key {key}");
        }
    }

    #[test]
    fn work_scales_with_key_length() {
        let ring = HashRing::new(vec!["a", "b"], 16);
        let (_, short) = ring.route_counted("/a");
        let (_, long) = ring.route_counted(&"/a".repeat(100));
        assert!(long > short);
    }
}
