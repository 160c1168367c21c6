//! Arrival-rate ramp generator for open-loop overload experiments.
//!
//! ROADMAP item 4 asks for overload-and-recovery runs: drive an open-loop
//! arrival process past the device's saturation rate and watch the queue
//! grow, then bring the rate back down and watch it drain. [`RampWorkload`]
//! produces exactly that profile — a trapezoidal rate ramp
//! `low → high → low` — with the §3 request envelope (uniform locations,
//! 67% reads, exponential sizes), so overload cells differ from the
//! steady-state random cells only in their arrival intensity.
//!
//! Arrivals approximate an inhomogeneous Poisson process: each gap is
//! exponential with the mean set by the instantaneous rate at the current
//! clock — the standard discretization when the rate changes slowly
//! relative to the interarrival time, which a multi-second ramp over
//! millisecond gaps satisfies.

use rand::rngs::SmallRng;
use storage_sim::rng;
use storage_sim::{Request, SimTime, Workload};

use crate::zipf::kind_and_sectors;

/// Open-loop workload whose arrival rate ramps `low → high → low`.
///
/// The profile is trapezoidal in time: hold at `rate_low` for
/// `hold_secs`, ramp linearly to `rate_high` over `ramp_secs`, hold at
/// `rate_high` for `hold_secs`, ramp back down over `ramp_secs`, then
/// stay at `rate_low` until the request budget is exhausted. Constant
/// memory, exact `len_hint`.
///
/// # Examples
///
/// ```
/// use storage_sim::Workload;
/// use storage_trace::RampWorkload;
///
/// let mut w = RampWorkload::new(1_000_000, 100.0, 2_000.0, 5.0, 5.0, 1_000, 42);
/// assert_eq!(w.len_hint(), Some(1_000));
/// assert!(w.rate_at(0.0) == 100.0 && w.rate_at(7.5) == 1_050.0);
/// assert!(w.next_request().is_some());
/// ```
#[derive(Debug, Clone)]
pub struct RampWorkload {
    capacity: u64,
    rate_low: f64,
    rate_high: f64,
    ramp_secs: f64,
    hold_secs: f64,
    rng: SmallRng,
    remaining: u64,
    clock: f64,
    next_id: u64,
}

impl RampWorkload {
    /// Creates a ramp workload addressing `capacity` sectors.
    ///
    /// # Panics
    ///
    /// Panics if rates or durations are not positive, `rate_high <
    /// rate_low`, `requests == 0`, or the capacity cannot hold the
    /// largest envelope request (128 sectors).
    pub fn new(
        capacity: u64,
        rate_low: f64,
        rate_high: f64,
        ramp_secs: f64,
        hold_secs: f64,
        requests: u64,
        seed: u64,
    ) -> Self {
        assert!(rate_low > 0.0 && rate_high >= rate_low, "need a ramp up");
        assert!(ramp_secs > 0.0 && hold_secs > 0.0, "phases must have span");
        assert!(requests > 0, "need at least one request");
        assert!(capacity > 128, "capacity must hold the largest request");
        RampWorkload {
            capacity,
            rate_low,
            rate_high,
            ramp_secs,
            hold_secs,
            rng: rng::seeded(seed),
            remaining: requests,
            clock: 0.0,
            next_id: 0,
        }
    }

    /// The instantaneous arrival rate (requests/second) at time `t`.
    pub fn rate_at(&self, t: f64) -> f64 {
        let mut t = t;
        if t < self.hold_secs {
            return self.rate_low;
        }
        t -= self.hold_secs;
        if t < self.ramp_secs {
            return self.rate_low + (self.rate_high - self.rate_low) * t / self.ramp_secs;
        }
        t -= self.ramp_secs;
        if t < self.hold_secs {
            return self.rate_high;
        }
        t -= self.hold_secs;
        if t < self.ramp_secs {
            return self.rate_high - (self.rate_high - self.rate_low) * t / self.ramp_secs;
        }
        self.rate_low
    }
}

impl Workload for RampWorkload {
    fn next_request(&mut self) -> Option<Request> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let mean_gap = 1.0 / self.rate_at(self.clock);
        self.clock += rng::exponential(&mut self.rng, mean_gap);
        let (kind, sectors) = kind_and_sectors(&mut self.rng);
        let lbn = rng::uniform_u64(&mut self.rng, self.capacity - u64::from(sectors));
        let req = Request::new(
            self.next_id,
            SimTime::from_secs(self.clock),
            lbn,
            sectors,
            kind,
        );
        self.next_id += 1;
        Some(req)
    }

    fn len_hint(&self) -> Option<u64> {
        Some(self.remaining)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_is_trapezoidal() {
        let w = RampWorkload::new(1 << 20, 100.0, 1_100.0, 10.0, 20.0, 10, 1);
        assert_eq!(w.rate_at(0.0), 100.0);
        assert_eq!(w.rate_at(25.0), 600.0); // halfway up the ramp
        assert_eq!(w.rate_at(35.0), 1_100.0); // high hold
        assert_eq!(w.rate_at(55.0), 600.0); // halfway down
        assert_eq!(w.rate_at(70.0), 100.0); // back at low
    }

    #[test]
    fn arrivals_are_ordered_and_rate_tracks_profile() {
        let mut w = RampWorkload::new(1 << 22, 50.0, 2_000.0, 5.0, 5.0, 20_000, 7);
        let mut last = SimTime::ZERO;
        let mut in_high_hold = 0u64;
        let mut span_high = 0.0f64;
        let mut prev_t = 0.0f64;
        while let Some(req) = w.next_request() {
            assert!(req.arrival >= last);
            last = req.arrival;
            let t = req.arrival.as_secs();
            // Count arrivals inside the high hold [10, 15).
            if (10.0..15.0).contains(&t) {
                if in_high_hold == 0 {
                    prev_t = t;
                }
                in_high_hold += 1;
                span_high = t - prev_t;
            }
        }
        assert!(span_high > 1.0, "high hold must be sampled");
        let rate = in_high_hold as f64 / span_high;
        assert!(
            (rate - 2_000.0).abs() / 2_000.0 < 0.15,
            "high-hold rate {rate}"
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let collect = |seed| {
            let mut w = RampWorkload::new(1 << 20, 100.0, 500.0, 2.0, 2.0, 500, seed);
            let mut v = Vec::new();
            while let Some(r) = w.next_request() {
                v.push(r);
            }
            v
        };
        assert_eq!(collect(9), collect(9));
    }
}
