//! Deterministic samplers and summary statistics.
//!
//! The offline crate set excludes `rand_distr`, so the Poisson and
//! exponential samplers the simulation needs (§6.4.3 draws IO delays "from
//! a Poisson distribution at 5 ms") are implemented here on top of `rand`.

use rand::Rng;

/// Samples a Poisson(λ) variate (Knuth's method — fine for the λ ≤ ~50
/// range the simulation uses).
pub fn poisson(rng: &mut impl Rng, lambda: f64) -> u64 {
    assert!(lambda > 0.0 && lambda < 500.0, "Knuth sampler needs small λ");
    let l = (-lambda).exp();
    let mut k = 0u64;
    let mut p = 1.0f64;
    loop {
        p *= rng.gen::<f64>();
        if p <= l {
            return k;
        }
        k += 1;
    }
}

/// [`poisson`] guarded for arrival-rate use: λ ≤ 0 (an idle phase of a
/// schedule) yields 0 without touching the RNG stream, and λ is clamped
/// below the Knuth sampler's breakdown point so a hostile sweep
/// multiplier cannot panic the generator mid-run.
pub fn poisson_count(rng: &mut impl Rng, lambda: f64) -> u64 {
    if lambda <= 0.0 {
        return 0;
    }
    poisson(rng, lambda.min(400.0))
}

/// Samples an Exponential(mean) variate.
pub fn exponential(rng: &mut impl Rng, mean: f64) -> f64 {
    let u: f64 = rng.gen::<f64>().max(1e-12);
    -mean * u.ln()
}

/// Mean of a slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Nearest-rank percentile by the index rule `sorted[⌊(len−1)·p⌋]` — the
/// one formula every report in this workspace uses for latency tails, kept
/// here so no bench or simulator re-derives its own variant. Empty input
/// yields 0.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
    percentile_sorted(&sorted, p)
}

/// [`percentile`] over an already-sorted slice (avoids re-sorting when
/// several quantiles are taken from one sample set).
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        0.0
    } else {
        sorted[((sorted.len() - 1) as f64 * p) as usize]
    }
}

/// Median ([`percentile`] at 0.50).
pub fn p50(xs: &[f64]) -> f64 {
    percentile(xs, 0.50)
}

/// 99th percentile ([`percentile`] at 0.99).
pub fn p99(xs: &[f64]) -> f64 {
    percentile(xs, 0.99)
}

/// Geometric mean (used by the SPEC figures).
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn poisson_mean_converges() {
        let mut rng = StdRng::seed_from_u64(7);
        let lambda = 5.0;
        let n = 20_000;
        let total: u64 = (0..n).map(|_| poisson(&mut rng, lambda)).sum();
        let m = total as f64 / f64::from(n);
        assert!((m - lambda).abs() < 0.1, "Poisson mean {m} vs λ {lambda}");
    }

    #[test]
    fn exponential_mean_converges() {
        let mut rng = StdRng::seed_from_u64(9);
        let mean_target = 3.0;
        let n = 20_000;
        let total: f64 = (0..n).map(|_| exponential(&mut rng, mean_target)).sum();
        let m = total / f64::from(n);
        assert!((m - mean_target).abs() < 0.1, "Exp mean {m}");
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let a: Vec<u64> =
            (0..10).map(|_| poisson(&mut StdRng::seed_from_u64(1), 4.0)).collect();
        let b: Vec<u64> =
            (0..10).map(|_| poisson(&mut StdRng::seed_from_u64(1), 4.0)).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn percentiles_use_the_index_rule() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(p50(&xs), 50.0, "⌊99·0.5⌋ = 49 → 50.0");
        assert_eq!(p99(&xs), 99.0, "⌊99·0.99⌋ = 98 → 99.0");
        assert_eq!(percentile(&xs, 1.0), 100.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        // Input order must not matter.
        let mut rev = xs.clone();
        rev.reverse();
        assert_eq!(p99(&rev), p99(&xs));
        // The pre-sorted form agrees.
        assert_eq!(percentile_sorted(&xs, 0.99), p99(&xs));
    }

    #[test]
    fn poisson_count_guards_edge_lambdas() {
        let mut rng = StdRng::seed_from_u64(3);
        assert_eq!(poisson_count(&mut rng, 0.0), 0);
        assert_eq!(poisson_count(&mut rng, -1.0), 0);
        // λ = 0 must not consume randomness: the next draw matches a fresh
        // stream (open-loop idle phases stay byte-compatible).
        let mut fresh = StdRng::seed_from_u64(3);
        assert_eq!(poisson_count(&mut rng, 4.0), poisson_count(&mut fresh, 4.0));
        // Far past the Knuth breakdown point: clamps instead of panicking.
        assert!(poisson_count(&mut rng, 1e9) > 0);
    }

    #[test]
    fn summary_stats() {
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert_eq!(mean(&[]), 0.0);
    }
}
