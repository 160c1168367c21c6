//! Cello-like synthetic trace generator.
//!
//! The paper's Cello workload is a week of disk activity from an HP Labs
//! server (program development, simulation, mail, news) traced in 1992
//! \[RW93]. The original trace is not redistributable, so this generator
//! reproduces the characteristics \[RW93] reports that matter for
//! scheduling studies:
//!
//! * bursty arrivals — think-time gaps separating bursts of closely
//!   spaced requests;
//! * a write-majority mix (metadata updates and the news feed dominate);
//! * strong spatial locality: a few hot regions (file-system metadata,
//!   swap, news spool) absorb most accesses, with occasional sequential
//!   runs from program and file reads;
//! * small requests — mostly one file-system block (4 KB or 8 KB).
//!
//! The paper's own finding for Cello (Fig. 7a) is that the scheduling
//! algorithms behave as they do under the random workload; the burstiness
//! and locality here preserve exactly that comparison.

use rand::rngs::SmallRng;
use storage_sim::rng;
use storage_sim::{IoKind, Request, SimTime, Workload};

use crate::record::TraceRecord;

/// Parameters of the Cello-like generator.
#[derive(Debug, Clone, PartialEq)]
pub struct CelloParams {
    /// Device capacity the trace addresses, in sectors.
    pub capacity: u64,
    /// Number of requests to generate.
    pub requests: u64,
    /// Fraction of requests that are reads (≈0.45: Cello is
    /// write-majority).
    pub read_fraction: f64,
    /// Mean requests per burst.
    pub burst_mean: f64,
    /// Mean interarrival within a burst, seconds.
    pub intra_burst_gap: f64,
    /// Mean gap between bursts, seconds.
    pub inter_burst_gap: f64,
    /// Number of hot regions (metadata/swap/news-spool analogues).
    pub hot_regions: u32,
    /// Fraction of accesses that hit a hot region.
    pub hot_fraction: f64,
    /// Probability that a request continues a sequential run.
    pub sequential_fraction: f64,
}

impl Default for CelloParams {
    fn default() -> Self {
        CelloParams {
            capacity: 6_750_000,
            requests: 10_000,
            read_fraction: 0.45,
            burst_mean: 8.0,
            intra_burst_gap: 3e-3,
            inter_burst_gap: 0.25,
            hot_regions: 6,
            hot_fraction: 0.6,
            sequential_fraction: 0.25,
        }
    }
}

/// Constant-memory streaming Cello-like generator.
///
/// Produces exactly the same record sequence per `(params, seed)` as
/// [`generate_cello`] — that function is now a thin `collect()` over this
/// type — but holds only O(hot regions) state, so a 10⁷-request trace
/// streams through the driver without ever existing as a vector.
///
/// Use it directly as a [`Workload`] (requests get dense ids from 0 and
/// as-traced arrival times), as an `Iterator` of [`TraceRecord`]s, or
/// behind [`crate::Replay`] to scale the arrival rate. `len_hint` is
/// exact, so it can feed a streaming fleet.
///
/// # Examples
///
/// ```
/// use storage_sim::Workload;
/// use storage_trace::{CelloParams, CelloWorkload};
///
/// let mut w = CelloWorkload::new(&CelloParams::default(), 7);
/// assert_eq!(w.len_hint(), Some(10_000));
/// let first = w.next_request().unwrap();
/// assert_eq!(first.id, 0);
/// ```
#[derive(Debug, Clone)]
pub struct CelloWorkload {
    params: CelloParams,
    region_len: u64,
    hot_starts: Vec<u64>,
    rng: SmallRng,
    remaining: u64,
    clock: f64,
    burst_left: u64,
    seq_lbn: u64,
    next_id: u64,
}

impl CelloWorkload {
    /// Creates the generator. Draws the hot-region placement eagerly so
    /// the record stream is a pure function of `(params, seed)`.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range parameters (capacity ≤ 1024, zero requests,
    /// fractions outside `[0, 1]`).
    pub fn new(params: &CelloParams, seed: u64) -> Self {
        assert!(params.capacity > 1024 && params.requests > 0);
        assert!((0.0..=1.0).contains(&params.read_fraction));
        assert!((0.0..=1.0).contains(&params.hot_fraction));
        assert!((0.0..=1.0).contains(&params.sequential_fraction));
        let mut r = rng::seeded(seed);
        // Hot regions: small slices scattered over the device (metadata at
        // the front, swap in the middle, spool wherever the allocator put
        // it). Each is 0.5% of the device.
        let region_len = params.capacity / 200;
        let hot_starts: Vec<u64> = (0..params.hot_regions)
            .map(|_| rng::uniform_u64(&mut r, params.capacity - region_len))
            .collect();
        CelloWorkload {
            params: params.clone(),
            region_len,
            hot_starts,
            rng: r,
            remaining: params.requests,
            clock: 0.0,
            burst_left: 0,
            seq_lbn: 0,
            next_id: 0,
        }
    }
}

impl Iterator for CelloWorkload {
    type Item = TraceRecord;

    fn next(&mut self) -> Option<TraceRecord> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let params = &self.params;
        let r = &mut self.rng;
        if self.burst_left == 0 {
            self.clock += rng::exponential(r, params.inter_burst_gap);
            self.burst_left = 1 + rng::exponential(r, params.burst_mean) as u64;
        } else {
            self.clock += rng::exponential(r, params.intra_burst_gap);
        }
        self.burst_left -= 1;

        let sectors = match rng::uniform_u64(r, 10) {
            0..=6 => 8u32,                                 // 4 KB fs block
            7..=8 => 16,                                   // 8 KB block
            _ => 32 * (1 + rng::uniform_u64(r, 4) as u32), // occasional big I/O
        };
        let lbn = if rng::bernoulli(r, params.sequential_fraction) && self.seq_lbn != 0 {
            // Continue the current sequential run.
            self.seq_lbn
        } else if rng::bernoulli(r, params.hot_fraction) {
            // Hot-region access, Zipf-skewed across the regions.
            let region = rng::zipf(r, u64::from(params.hot_regions), 0.7) as usize;
            self.hot_starts[region] + rng::uniform_u64(r, self.region_len)
        } else {
            // Cold uniform access.
            rng::uniform_u64(r, params.capacity - 256)
        };
        let lbn = lbn.min(params.capacity - u64::from(sectors));
        self.seq_lbn = lbn + u64::from(sectors);
        if self.seq_lbn + 256 >= params.capacity {
            self.seq_lbn = 0; // run hit the end of the device
        }
        let kind = if rng::bernoulli(r, params.read_fraction) {
            IoKind::Read
        } else {
            IoKind::Write
        };
        Some(TraceRecord {
            arrival: self.clock,
            lbn,
            sectors,
            kind,
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.remaining as usize;
        (n, Some(n))
    }
}

impl ExactSizeIterator for CelloWorkload {}

impl Workload for CelloWorkload {
    fn next_request(&mut self) -> Option<Request> {
        let rec = Iterator::next(self)?;
        let req = Request::new(
            self.next_id,
            SimTime::from_secs(rec.arrival),
            rec.lbn,
            rec.sectors,
            rec.kind,
        );
        self.next_id += 1;
        Some(req)
    }

    fn len_hint(&self) -> Option<u64> {
        Some(self.remaining)
    }
}

/// Generates a Cello-like trace (sorted by arrival time) by collecting
/// [`CelloWorkload`]'s stream — byte-identical to the streaming path.
///
/// # Examples
///
/// ```
/// use storage_trace::{generate_cello, CelloParams};
///
/// let trace = generate_cello(&CelloParams::default(), 7);
/// assert_eq!(trace.len(), 10_000);
/// assert!(trace.windows(2).all(|p| p[0].arrival <= p[1].arrival));
/// ```
pub fn generate_cello(params: &CelloParams, seed: u64) -> Vec<TraceRecord> {
    CelloWorkload::new(params, seed).collect()
}

/// Convenience: the default Cello-like trace for a device capacity.
pub fn cello_for_capacity(capacity: u64, requests: u64, seed: u64) -> Vec<TraceRecord> {
    generate_cello(
        &CelloParams {
            capacity,
            requests,
            ..CelloParams::default()
        },
        seed,
    )
}

/// Exposes the generator's RNG-free burstiness measure for tests: the
/// squared coefficient of variation of interarrival times (1 for Poisson,
/// larger for bursty processes).
pub fn interarrival_cv2(records: &[TraceRecord]) -> f64 {
    let gaps: Vec<f64> = records
        .windows(2)
        .map(|p| p[1].arrival - p[0].arrival)
        .collect();
    if gaps.is_empty() {
        return 0.0;
    }
    let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
    let var = gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / gaps.len() as f64;
    var / (mean * mean)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace() -> Vec<TraceRecord> {
        generate_cello(&CelloParams::default(), 1)
    }

    #[test]
    fn arrivals_are_sorted_and_bursty() {
        let t = trace();
        assert!(t.windows(2).all(|p| p[0].arrival <= p[1].arrival));
        // Burstiness: interarrival CV² well above Poisson's 1.
        let cv2 = interarrival_cv2(&t);
        assert!(cv2 > 2.0, "cv² {cv2} not bursty");
    }

    #[test]
    fn mix_is_write_majority() {
        let t = trace();
        let reads = t.iter().filter(|r| r.kind == IoKind::Read).count();
        let frac = reads as f64 / t.len() as f64;
        assert!((0.40..0.50).contains(&frac), "read fraction {frac}");
    }

    #[test]
    fn accesses_concentrate_in_hot_regions() {
        let p = CelloParams::default();
        let t = generate_cello(&p, 2);
        // Count accesses landing in the busiest 3% of the device (by
        // 0.5%-sized buckets).
        let bucket = p.capacity / 200;
        let mut counts = std::collections::HashMap::new();
        for r in &t {
            *counts.entry(r.lbn / bucket).or_insert(0u64) += 1;
        }
        let mut per_bucket: Vec<u64> = counts.values().copied().collect();
        per_bucket.sort_unstable_by(|a, b| b.cmp(a));
        let top6: u64 = per_bucket.iter().take(6).sum();
        let frac = top6 as f64 / t.len() as f64;
        assert!(frac > 0.4, "top-6 bucket mass {frac} lacks locality");
    }

    #[test]
    fn sequential_runs_exist() {
        let t = trace();
        let seq = t
            .windows(2)
            .filter(|p| p[1].lbn == p[0].lbn + u64::from(p[0].sectors))
            .count();
        let frac = seq as f64 / t.len() as f64;
        assert!(frac > 0.1, "sequential fraction {frac}");
    }

    #[test]
    fn requests_stay_in_bounds() {
        let p = CelloParams::default();
        for r in generate_cello(&p, 3) {
            assert!(r.lbn + u64::from(r.sectors) <= p.capacity);
            assert!(r.sectors >= 1);
        }
    }

    #[test]
    fn deterministic_per_seed() {
        assert_eq!(
            generate_cello(&CelloParams::default(), 5),
            generate_cello(&CelloParams::default(), 5)
        );
    }

    #[test]
    fn streaming_workload_matches_materialized_replay() {
        use crate::record::TraceWorkload;
        let p = CelloParams::default();
        for seed in [1u64, 9, 0x5EED] {
            let mut streamed = CelloWorkload::new(&p, seed);
            assert_eq!(streamed.len_hint(), Some(p.requests));
            let mut replayed = TraceWorkload::new(generate_cello(&p, seed), 1.0);
            let mut n = 0u64;
            while let Some(want) = replayed.next_request() {
                assert_eq!(streamed.next_request(), Some(want), "seed {seed} req {n}");
                n += 1;
            }
            assert_eq!(streamed.next_request(), None);
            assert_eq!(n, p.requests);
        }
    }
}
