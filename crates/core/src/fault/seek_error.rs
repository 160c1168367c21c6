//! Seek-error penalty models (§6.1.3).
//!
//! A disk that mis-seeks pays a short re-seek (1–2 ms) plus up to a full
//! rotation before the sector comes back under the head. A MEMS device
//! verifies servo information at every involved tip and recovers with at
//! most two Y turnarounds plus short X/Y re-seeks — orders of magnitude
//! cheaper.

use atlas_disk::DiskParams;
use mems_device::{MemsParams, SpringSled};
use rand::rngs::SmallRng;
use storage_sim::rng;

/// Seek-error penalty statistics, in seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SeekErrorPenalty {
    /// Best-case recovery time.
    pub min: f64,
    /// Average recovery time.
    pub mean: f64,
    /// Worst-case recovery time.
    pub max: f64,
}

/// Disk seek-error penalty: a short re-seek plus rotational re-latency.
///
/// The re-seek costs `reseek` (1–2 ms for short re-seeks); the rotational
/// penalty ranges from zero to a full revolution, averaging half.
///
/// # Examples
///
/// ```
/// use atlas_disk::DiskParams;
/// use mems_os::fault::disk_seek_error_penalty;
///
/// let p = disk_seek_error_penalty(&DiskParams::quantum_atlas_10k(), 1.5e-3);
/// // Up to ~1.5 ms re-seek + ~6 ms rotation (§6.1.3).
/// assert!(p.max > 7e-3);
/// ```
pub fn disk_seek_error_penalty(params: &DiskParams, reseek: f64) -> SeekErrorPenalty {
    let rev = params.revolution_time();
    SeekErrorPenalty {
        min: reseek,
        mean: reseek + rev / 2.0,
        max: reseek + rev,
    }
}

/// MEMS seek-error penalty: up to two turnarounds in Y plus short
/// re-seeks in X and Y (§6.1.3).
///
/// Turnaround times are sampled over the sled's travel at access
/// velocity; the short re-seek is a one-cylinder X seek plus settle.
pub fn mems_seek_error_penalty(params: &MemsParams) -> SeekErrorPenalty {
    let sled =
        SpringSled::from_spring_factor(params.accel, params.spring_factor, params.half_mobility());
    let v = params.access_velocity();
    let samples = 101;
    let mut min = f64::INFINITY;
    let mut max: f64 = 0.0;
    let mut sum = 0.0;
    for i in 0..samples {
        let frac = i as f64 / (samples - 1) as f64;
        let p = (frac - 0.5) * params.mobility * 0.98;
        for dir in [v, -v] {
            let t = sled.turnaround_time(p, dir);
            min = min.min(t);
            max = max.max(t);
            sum += t;
        }
    }
    let mean_turn = sum / (2 * samples) as f64;
    let reseek = sled.rest_seek_time(0.0, params.bit_width) + params.settle_time();
    SeekErrorPenalty {
        // Best case: one spring-assisted turnaround, no X movement.
        min,
        // Average: between one and two turnarounds plus the short re-seek.
        mean: 1.5 * mean_turn + reseek,
        // Worst case: two slow turnarounds plus the short re-seek.
        max: 2.0 * max + reseek,
    }
}

/// Transient seek errors retry with bounded exponential backoff: attempt
/// `i` (1-based) pays the device's per-attempt recovery penalty plus
/// [`backoff`]`(i)`, and after [`MAX_RETRIES`] failed attempts the error
/// surfaces as unrecoverable rather than being silently swallowed. Four
/// attempts with a 50 µs first backoff doubling to at most 1 ms keep a
/// typical recovery well under one revolution-scale penalty, even on the
/// disk model. Every degraded device retries this way.
const MAX_RETRIES: u32 = 4;
/// Backoff before the first retry, seconds.
const BASE_BACKOFF: f64 = 50e-6;
/// Geometric growth factor per subsequent retry.
const MULTIPLIER: f64 = 2.0;
/// Upper bound on any single backoff, seconds.
pub(super) const MAX_BACKOFF: f64 = 1e-3;

/// Backoff delay before 1-based retry `attempt`, seconds.
fn backoff(attempt: u32) -> f64 {
    debug_assert!(attempt >= 1);
    let raw = BASE_BACKOFF * MULTIPLIER.powi(attempt as i32 - 1);
    raw.min(MAX_BACKOFF)
}

/// The result of retrying one transient seek error.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum RetryOutcome {
    /// A retry succeeded; `delay` is the total recovery time billed.
    Recovered {
        /// Attempts made, including the successful one.
        attempts: u32,
        /// Total penalty + backoff time spent, seconds.
        delay: f64,
    },
    /// All retries failed; the error must surface to the fault layer
    /// (reconstruction or reported loss), never as silent success.
    Exhausted {
        /// Attempts made (equals [`MAX_RETRIES`]).
        attempts: u32,
        /// Total penalty + backoff time spent before giving up, seconds.
        delay: f64,
    },
}

impl RetryOutcome {
    /// Total recovery time billed, regardless of outcome.
    pub(crate) fn delay(&self) -> f64 {
        match *self {
            RetryOutcome::Recovered { delay, .. } | RetryOutcome::Exhausted { delay, .. } => delay,
        }
    }
}

/// Resolves one transient seek error: each attempt pays
/// `penalty_per_attempt` plus its backoff, then succeeds with probability
/// `recover_prob` (drawn from `rng_state`, so the decision is
/// deterministic per seed). Exhaustion is an explicit outcome.
pub(crate) fn resolve_transient(
    penalty_per_attempt: f64,
    recover_prob: f64,
    rng_state: &mut SmallRng,
) -> RetryOutcome {
    let mut delay = 0.0;
    for attempt in 1..=MAX_RETRIES {
        delay += penalty_per_attempt + backoff(attempt);
        if rng::bernoulli(rng_state, recover_prob) {
            return RetryOutcome::Recovered {
                attempts: attempt,
                delay,
            };
        }
    }
    RetryOutcome::Exhausted {
        attempts: MAX_RETRIES,
        delay,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn disk_penalty_matches_paper_envelope() {
        // §6.1.3: 1–2 ms re-seek plus up to 6 ms rotation for 10K RPM.
        let p = disk_seek_error_penalty(&DiskParams::quantum_atlas_10k(), 1.5e-3);
        assert!((p.min - 1.5e-3).abs() < 1e-9);
        assert!((p.max - (1.5e-3 + 5.985e-3)).abs() < 1e-5);
        assert!(p.min <= p.mean && p.mean <= p.max);
    }

    #[test]
    fn mems_penalty_matches_paper_envelope() {
        // §6.1.3: "up to two turnarounds in the Y direction (0.04–1.11 ms
        // each) and short seeks in possibly both the X and Y directions."
        let p = mems_seek_error_penalty(&MemsParams::default());
        assert!(p.min > 0.02e-3 && p.min < 0.06e-3, "min {}", p.min);
        assert!(p.max < 1.5e-3, "max {}", p.max);
        assert!(p.min <= p.mean && p.mean <= p.max);
    }

    #[test]
    fn mems_recovers_much_faster_than_disk_on_average() {
        let d = disk_seek_error_penalty(&DiskParams::quantum_atlas_10k(), 1.5e-3);
        let m = mems_seek_error_penalty(&MemsParams::default());
        assert!(d.mean / m.mean > 5.0, "disk {} vs mems {}", d.mean, m.mean);
    }

    #[test]
    fn backoff_grows_geometrically_and_caps() {
        assert!((backoff(1) - 50e-6).abs() < 1e-15);
        assert!((backoff(2) - 100e-6).abs() < 1e-15);
        assert!((backoff(3) - 200e-6).abs() < 1e-15);
        assert_eq!(backoff(20), MAX_BACKOFF, "cap binds eventually");
    }

    #[test]
    fn certain_recovery_takes_one_attempt() {
        let mut r = rng::seeded(1);
        let out = resolve_transient(1e-3, 1.0, &mut r);
        assert_eq!(
            out,
            RetryOutcome::Recovered {
                attempts: 1,
                delay: 1e-3 + backoff(1)
            }
        );
    }

    #[test]
    fn impossible_recovery_exhausts_with_full_bill() {
        let mut r = rng::seeded(1);
        let out = resolve_transient(1e-3, 0.0, &mut r);
        let expected: f64 = (1..=MAX_RETRIES).map(|a| 1e-3 + backoff(a)).sum();
        match out {
            RetryOutcome::Exhausted { attempts, delay } => {
                assert_eq!(attempts, MAX_RETRIES);
                assert!((delay - expected).abs() < 1e-15);
            }
            other => panic!("expected exhaustion, got {other:?}"),
        }
        assert!(out.delay() > 0.0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The retry decision is a pure function of the seed: identical
        /// seeds replay the identical outcome (attempts and billed delay,
        /// bit for bit), and the delay grows with each attempt.
        #[test]
        fn retry_decision_is_deterministic_per_seed(
            seed in any::<u64>(),
            prob_milli in 0u32..=1000,
            penalty_us in 1u32..=2000,
        ) {
            let prob = f64::from(prob_milli) / 1000.0;
            let penalty = f64::from(penalty_us) * 1e-6;
            let a = resolve_transient(penalty, prob, &mut rng::seeded(seed));
            let b = resolve_transient(penalty, prob, &mut rng::seeded(seed));
            prop_assert_eq!(a, b, "same seed must replay the same outcome");
            match a {
                RetryOutcome::Recovered { attempts, delay }
                | RetryOutcome::Exhausted { attempts, delay } => {
                    prop_assert!((1..=MAX_RETRIES).contains(&attempts));
                    // Every attempt bills at least the penalty plus first backoff.
                    prop_assert!(delay >= f64::from(attempts) * (penalty + backoff(1)) - 1e-15);
                }
            }
        }

        /// Exhausting every retry surfaces as an explicit `Exhausted`
        /// outcome — never a silent success — and still bills the time
        /// spent trying.
        #[test]
        fn retry_exhaustion_is_never_silent_success(seed in any::<u64>()) {
            match resolve_transient(0.5e-3, 0.0, &mut rng::seeded(seed)) {
                RetryOutcome::Exhausted { attempts, delay } => {
                    prop_assert_eq!(attempts, MAX_RETRIES);
                    prop_assert!(delay >= f64::from(MAX_RETRIES) * 0.5e-3);
                }
                RetryOutcome::Recovered { .. } => prop_assert!(false, "silent success"),
            }
        }
    }
}
