//! The paper's *random* synthetic workload (§3).
//!
//! Request interarrival times are exponential (the mean sweeps the load
//! axis of Figs. 5, 6 and 8); 67% of requests are reads; sizes are
//! exponential with a 4 KB mean (rounded up to whole sectors); start
//! locations are uniform over the device.

use rand::rngs::SmallRng;
use storage_sim::rng;
use storage_sim::{IoKind, Request, SimTime, Workload};

/// Generator for the random workload.
///
/// # Examples
///
/// ```
/// use storage_trace::RandomWorkload;
/// use storage_sim::Workload;
///
/// // 1000 requests at 500 requests/second against a 6.75M-sector device.
/// let mut w = RandomWorkload::paper(6_750_000, 500.0, 1000, 42);
/// let first = w.next_request().unwrap();
/// assert!(first.sectors >= 1);
/// ```
#[derive(Debug)]
pub struct RandomWorkload {
    capacity: u64,
    mean_interarrival: f64,
    read_fraction: f64,
    mean_sectors: f64,
    max_sectors: u32,
    remaining: u64,
    clock: f64,
    next_id: u64,
    rng: SmallRng,
}

impl RandomWorkload {
    /// The paper's parameters: 67% reads, exponential 4 KB (8-sector)
    /// sizes, uniform locations, `rate` requests per second.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not positive or `capacity` is too small.
    pub fn paper(capacity: u64, rate: f64, requests: u64, seed: u64) -> Self {
        assert!(rate > 0.0, "arrival rate must be positive");
        Self::new(capacity, 1.0 / rate, 0.67, 8.0, requests, seed)
    }

    /// Fully parameterized constructor; `mean_sectors` is the exponential
    /// mean request size in sectors.
    ///
    /// # Panics
    ///
    /// Panics on non-positive parameters or a capacity too small for the
    /// largest request.
    pub fn new(
        capacity: u64,
        mean_interarrival: f64,
        read_fraction: f64,
        mean_sectors: f64,
        requests: u64,
        seed: u64,
    ) -> Self {
        assert!(mean_interarrival > 0.0 && mean_sectors >= 1.0);
        assert!((0.0..=1.0).contains(&read_fraction));
        // Cap sizes at 16x the mean so the uniform-location math can
        // always place a request (the tail above 16x has mass e^-16).
        let max_sectors = (mean_sectors * 16.0).ceil() as u32;
        assert!(capacity > u64::from(max_sectors), "device too small");
        RandomWorkload {
            capacity,
            mean_interarrival,
            read_fraction,
            mean_sectors,
            max_sectors,
            remaining: requests,
            clock: 0.0,
            next_id: 0,
            rng: rng::seeded(seed),
        }
    }
}

impl Workload for RandomWorkload {
    #[inline]
    fn next_request(&mut self) -> Option<Request> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        self.clock += rng::exponential(&mut self.rng, self.mean_interarrival);
        let kind = if rng::bernoulli(&mut self.rng, self.read_fraction) {
            IoKind::Read
        } else {
            IoKind::Write
        };
        let sectors = (rng::exponential(&mut self.rng, self.mean_sectors).ceil() as u32)
            .clamp(1, self.max_sectors);
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

    fn drain(mut w: RandomWorkload) -> Vec<Request> {
        std::iter::from_fn(move || w.next_request()).collect()
    }

    #[test]
    fn produces_requested_count_in_time_order() {
        let reqs = drain(RandomWorkload::paper(1_000_000, 100.0, 500, 1));
        assert_eq!(reqs.len(), 500);
        for pair in reqs.windows(2) {
            assert!(pair[0].arrival <= pair[1].arrival);
        }
    }

    #[test]
    fn read_fraction_converges_to_67_percent() {
        let reqs = drain(RandomWorkload::paper(1_000_000, 100.0, 20_000, 2));
        let reads = reqs.iter().filter(|r| r.kind.is_read()).count();
        let frac = reads as f64 / reqs.len() as f64;
        assert!((frac - 0.67).abs() < 0.02, "read fraction {frac}");
    }

    #[test]
    fn mean_size_converges_to_4_kb() {
        let reqs = drain(RandomWorkload::paper(1_000_000, 100.0, 20_000, 3));
        let mean = reqs.iter().map(|r| f64::from(r.sectors)).sum::<f64>() / reqs.len() as f64;
        // Ceil-rounding adds ~0.5 sector to the 8-sector exponential mean.
        assert!((8.0..9.2).contains(&mean), "mean sectors {mean}");
    }

    #[test]
    fn arrival_rate_converges() {
        let reqs = drain(RandomWorkload::paper(1_000_000, 1000.0, 20_000, 4));
        let span = (reqs.last().unwrap().arrival - reqs[0].arrival).as_secs();
        let rate = (reqs.len() - 1) as f64 / span;
        assert!((rate - 1000.0).abs() / 1000.0 < 0.05, "rate {rate}");
    }

    #[test]
    fn locations_cover_the_device_uniformly() {
        let reqs = drain(RandomWorkload::paper(1_000_000, 100.0, 20_000, 5));
        let below_half = reqs.iter().filter(|r| r.lbn < 500_000).count();
        let frac = below_half as f64 / reqs.len() as f64;
        assert!((frac - 0.5).abs() < 0.02, "lower-half fraction {frac}");
        assert!(reqs.iter().all(|r| r.end_lbn() <= 1_000_000));
    }

    #[test]
    fn deterministic_per_seed() {
        let a = drain(RandomWorkload::paper(1_000_000, 100.0, 100, 9));
        let b = drain(RandomWorkload::paper(1_000_000, 100.0, 100, 9));
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "rate")]
    fn zero_rate_rejected() {
        let _ = RandomWorkload::paper(1_000_000, 0.0, 10, 1);
    }
}
