//! Deterministic random-number helpers shared by the workload generators.
//!
//! Everything in the workspace draws randomness from a seeded
//! [`rand::rngs::SmallRng`], so simulation runs are reproducible from
//! `(seed, parameters)` alone.

use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

/// Creates a deterministic RNG from a 64-bit seed.
pub fn seeded(seed: u64) -> SmallRng {
    SmallRng::seed_from_u64(seed)
}

/// Samples an exponential variate with the given mean.
///
/// Uses inverse-transform sampling; the uniform draw is taken from the open
/// interval (0, 1] so the logarithm is always finite.
///
/// # Panics
///
/// Panics if `mean` is not positive.
#[inline]
pub fn exponential(rng: &mut SmallRng, mean: f64) -> f64 {
    assert!(mean > 0.0, "exponential mean must be positive");
    let u: f64 = 1.0 - rng.random::<f64>(); // u in (0, 1]
    -mean * u.ln()
}

/// Samples a uniform integer in `[0, n)`.
///
/// # Panics
///
/// Panics if `n` is zero.
#[inline]
pub fn uniform_u64(rng: &mut SmallRng, n: u64) -> u64 {
    assert!(n > 0, "uniform range must be non-empty");
    rng.random_range(0..n)
}

/// Returns `true` with probability `p`.
///
/// # Panics
///
/// Panics if `p` is outside `[0, 1]`.
#[inline]
pub fn bernoulli(rng: &mut SmallRng, p: f64) -> bool {
    assert!((0.0..=1.0).contains(&p), "probability must be in [0,1]");
    rng.random::<f64>() < p
}

/// Samples from a bounded self-similar ("80/20") distribution over `[0, n)`
/// with skew parameter `theta` in (0, 1): a fraction `theta` of the samples
/// falls in the first `1 - theta` fraction of the range (recursively), so
/// higher `theta` is more skewed and `theta = 0.5` is uniform. This is the
/// Gray et al. generator database benchmarks use for hot spots; our
/// TPC-C-like trace generator builds on it.
///
/// # Panics
///
/// Panics if `n == 0` or `theta` is outside (0, 1).
pub fn zipf(rng: &mut SmallRng, n: u64, theta: f64) -> u64 {
    assert!(n > 0, "zipf range must be non-empty");
    assert!(
        theta > 0.0 && theta < 1.0,
        "zipf theta must be in (0,1), got {theta}"
    );
    // Power-law CDF F(x) = (x/n)^alpha with F((1-theta)·n) = theta gives
    // alpha = ln(theta)/ln(1-theta); invert to sample.
    let u: f64 = rng.random();
    let exponent = (1.0 - theta).ln() / theta.ln();
    let x = n as f64 * u.powf(exponent);
    (x as u64).min(n - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_is_deterministic() {
        let mut a = seeded(42);
        let mut b = seeded(42);
        for _ in 0..100 {
            assert_eq!(a.random::<u64>(), b.random::<u64>());
        }
    }

    #[test]
    fn exponential_mean_converges() {
        let mut rng = seeded(1);
        let n = 200_000;
        let mean = 0.004;
        let sum: f64 = (0..n).map(|_| exponential(&mut rng, mean)).sum();
        let sample_mean = sum / n as f64;
        assert!(
            (sample_mean - mean).abs() / mean < 0.02,
            "sample mean {sample_mean} too far from {mean}"
        );
    }

    #[test]
    fn exponential_is_nonnegative() {
        let mut rng = seeded(7);
        for _ in 0..10_000 {
            assert!(exponential(&mut rng, 1.0) >= 0.0);
        }
    }

    #[test]
    fn uniform_stays_in_range() {
        let mut rng = seeded(3);
        for _ in 0..10_000 {
            assert!(uniform_u64(&mut rng, 17) < 17);
        }
    }

    #[test]
    fn bernoulli_rate_converges() {
        let mut rng = seeded(5);
        let hits = (0..100_000).filter(|_| bernoulli(&mut rng, 0.67)).count();
        let rate = hits as f64 / 100_000.0;
        assert!((rate - 0.67).abs() < 0.01, "rate {rate}");
    }

    #[test]
    fn zipf_is_skewed_toward_low_values() {
        let mut rng = seeded(9);
        let n = 1000u64;
        let samples: Vec<u64> = (0..50_000).map(|_| zipf(&mut rng, n, 0.7)).collect();
        assert!(samples.iter().all(|&x| x < n));
        // The bottom 10% of the key space should receive well over 10% of
        // accesses under theta = 0.7.
        let low = samples.iter().filter(|&&x| x < n / 10).count() as f64 / samples.len() as f64;
        assert!(low > 0.3, "low-range mass {low} not skewed");
    }
}
