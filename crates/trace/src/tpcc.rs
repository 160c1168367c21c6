//! TPC-C-like synthetic OLTP trace generator.
//!
//! The paper's TPC-C trace captures one hour of disk activity from a
//! Microsoft SQL Server TPC-C testbed with a 1 GB database \[RFGN00]. The
//! trace itself is unavailable, so this generator reproduces the two
//! properties the paper explicitly credits for SPTF's larger win on
//! TPC-C (§4.3):
//!
//! * **many concurrently-pending requests** — OLTP issues I/O from many
//!   transactions at once, so arrivals come in dense Poisson bursts; and
//! * **very small inter-LBN distances between pending requests** — the
//!   hot tables and indices of a 1 GB database concentrate accesses, so
//!   LBN-based schedulers constantly face ties they cannot break, while
//!   SPTF sees the real (Y-dominated) positioning differences.
//!
//! Structure: a small database region of hot table/index extents accessed
//! with Zipf skew in 8 KB pages (2:1 read/write), plus an append-only log
//! region receiving sequential 2–16 KB writes.

use rand::rngs::SmallRng;
use storage_sim::rng;
use storage_sim::IoKind;

use crate::record::TraceRecord;

/// Parameters of the TPC-C-like generator.
#[derive(Debug, Clone, PartialEq)]
pub struct TpccParams {
    /// Device capacity in sectors.
    pub capacity: u64,
    /// Number of requests to generate.
    pub requests: u64,
    /// Database size in sectors (1 GB → ~2M sectors on the traced
    /// system; scaled to the simulated device).
    pub database_sectors: u64,
    /// Number of hot extents (tables/indices).
    pub hot_extents: u32,
    /// Mean interarrival time, seconds.
    pub mean_interarrival: f64,
    /// Fraction of page accesses that are reads (≈0.65).
    pub read_fraction: f64,
    /// Fraction of requests that are log appends.
    pub log_fraction: f64,
}

impl Default for TpccParams {
    fn default() -> Self {
        TpccParams {
            capacity: 6_750_000,
            requests: 10_000,
            database_sectors: 2_000_000,
            hot_extents: 16,
            mean_interarrival: 5e-3,
            read_fraction: 0.65,
            log_fraction: 0.12,
        }
    }
}

/// Constant-memory TPC-C-like trace: an iterator of [`TraceRecord`]s,
/// sorted by arrival time and a pure function of `(params, seed)`.
///
/// It holds O(1) state (clock, log head, RNG). Replay it with
/// [`crate::Replay`] (scale 1.0 = as traced); its `size_hint` is exact,
/// so the replay can feed a streaming fleet.
///
/// # Examples
///
/// ```
/// use storage_sim::Workload;
/// use storage_trace::{Replay, TpccParams, TpccTrace};
///
/// let trace = TpccTrace::new(&TpccParams::default(), 11);
/// assert_eq!(trace.len(), 10_000);
/// // OLTP pages are 8 KB.
/// assert!(trace.clone().filter(|r| r.sectors == 16).count() > 7_000);
/// let mut w = Replay::new(trace, 1.0);
/// assert_eq!(w.len_hint(), Some(10_000));
/// assert!(w.next_request().is_some());
/// ```
#[derive(Debug, Clone)]
pub struct TpccTrace {
    params: TpccParams,
    extent_len: u64,
    log_start: u64,
    log_len: u64,
    rng: SmallRng,
    remaining: u64,
    clock: f64,
    log_head: u64,
}

impl TpccTrace {
    /// Creates the generator.
    ///
    /// # Panics
    ///
    /// Panics if the database (plus the 2% log region) does not fit the
    /// capacity, or on zero requests / non-positive interarrival.
    pub fn new(params: &TpccParams, seed: u64) -> Self {
        assert!(params.database_sectors < params.capacity);
        assert!(params.requests > 0 && params.mean_interarrival > 0.0);
        let r = rng::seeded(seed);
        // The database occupies a contiguous region at the front of the
        // device (as a striped SQL Server data file would); the log lives
        // right after it.
        let extent_len = params.database_sectors / u64::from(params.hot_extents);
        let log_start = params.database_sectors;
        let log_len = params.capacity / 50; // 2% of the device for the log
        assert!(log_start + log_len < params.capacity);
        TpccTrace {
            params: params.clone(),
            extent_len,
            log_start,
            log_len,
            rng: r,
            remaining: params.requests,
            clock: 0.0,
            log_head: log_start,
        }
    }
}

impl Iterator for TpccTrace {
    type Item = TraceRecord;

    fn next(&mut self) -> Option<TraceRecord> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let params = &self.params;
        let r = &mut self.rng;
        let db_start = 0u64;
        self.clock += rng::exponential(r, params.mean_interarrival);
        let rec = if rng::bernoulli(r, params.log_fraction) {
            // Sequential log append: 2–16 KB.
            let sectors = 4 * (1 + rng::uniform_u64(r, 8)) as u32;
            if self.log_head + u64::from(sectors) >= self.log_start + self.log_len {
                self.log_head = self.log_start; // circular log
            }
            let rec = TraceRecord {
                arrival: self.clock,
                lbn: self.log_head,
                sectors,
                kind: IoKind::Write,
            };
            self.log_head += u64::from(sectors);
            rec
        } else {
            // 8 KB page access to a Zipf-hot extent, Zipf-skewed within
            // the extent as well (B-tree roots and hot rows).
            let extent = rng::zipf(r, u64::from(params.hot_extents), 0.75);
            let offset = rng::zipf(r, self.extent_len - 16, 0.65);
            let lbn = db_start + extent * self.extent_len + offset;
            let kind = if rng::bernoulli(r, params.read_fraction) {
                IoKind::Read
            } else {
                IoKind::Write
            };
            TraceRecord {
                arrival: self.clock,
                lbn,
                sectors: 16,
                kind,
            }
        };
        Some(rec)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.remaining as usize;
        (n, Some(n))
    }
}

impl ExactSizeIterator for TpccTrace {}

/// Convenience: the default TPC-C-like trace for a device capacity, with
/// the database scaled to ~30% of the device.
pub fn tpcc_for_capacity(capacity: u64, requests: u64, seed: u64) -> TpccTrace {
    TpccTrace::new(
        &TpccParams {
            capacity,
            requests,
            database_sectors: capacity * 3 / 10,
            ..TpccParams::default()
        },
        seed,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn generate(params: &TpccParams, seed: u64) -> Vec<TraceRecord> {
        TpccTrace::new(params, seed).collect()
    }

    fn trace() -> Vec<TraceRecord> {
        generate(&TpccParams::default(), 1)
    }

    #[test]
    fn arrivals_sorted_and_rate_matches() {
        let t = trace();
        assert!(t.windows(2).all(|p| p[0].arrival <= p[1].arrival));
        let span = t.last().unwrap().arrival - t[0].arrival;
        let rate = (t.len() - 1) as f64 / span;
        assert!((rate - 200.0).abs() / 200.0 < 0.05, "rate {rate}");
    }

    #[test]
    fn inter_lbn_distances_are_small() {
        // The property the paper credits for SPTF's big TPC-C win: pending
        // requests cluster at tiny LBN distances. Median nearest-distance
        // among a window of concurrent requests must be far below the
        // uniform-workload expectation.
        let t = trace();
        let mut nearest = Vec::new();
        for w in t.windows(20) {
            let base = w[0].lbn;
            let d = w[1..]
                .iter()
                .map(|r| r.lbn.abs_diff(base))
                .min()
                .expect("window non-empty");
            nearest.push(d);
        }
        nearest.sort_unstable();
        let median = nearest[nearest.len() / 2];
        // Uniform over 6.75M sectors would give ≈ capacity/20 ≈ 340k.
        assert!(
            median < 60_000,
            "median nearest inter-LBN distance {median}"
        );
    }

    #[test]
    fn pages_dominate_and_log_is_sequential_writes() {
        let t = trace();
        let pages = t.iter().filter(|r| r.sectors == 16).count();
        assert!(pages as f64 / t.len() as f64 > 0.8);
        // All log-region requests are writes.
        let p = TpccParams::default();
        for r in t.iter().filter(|r| r.lbn >= p.database_sectors) {
            assert_eq!(r.kind, IoKind::Write, "log append must be a write");
        }
    }

    #[test]
    fn read_fraction_reflects_oltp_mix() {
        let t = trace();
        let reads = t.iter().filter(|r| r.kind == IoKind::Read).count();
        let frac = reads as f64 / t.len() as f64;
        // 65% of the 88% page traffic: ≈0.57 overall.
        assert!((0.5..0.65).contains(&frac), "read fraction {frac}");
    }

    #[test]
    fn requests_stay_in_bounds() {
        let p = TpccParams::default();
        for r in generate(&p, 2) {
            assert!(r.lbn + u64::from(r.sectors) <= p.capacity);
        }
    }

    #[test]
    fn hot_extents_receive_skewed_traffic() {
        let p = TpccParams::default();
        let t = generate(&p, 3);
        let extent_len = p.database_sectors / u64::from(p.hot_extents);
        let mut counts = vec![0u64; p.hot_extents as usize];
        for r in t.iter().filter(|r| r.lbn < p.database_sectors) {
            counts[(r.lbn / extent_len).min(u64::from(p.hot_extents) - 1) as usize] += 1;
        }
        let total: u64 = counts.iter().sum();
        assert!(
            counts[0] as f64 / total as f64 > 0.25,
            "hottest extent should absorb >25%: {counts:?}"
        );
    }

    #[test]
    fn deterministic_per_seed() {
        assert_eq!(
            generate(&TpccParams::default(), 9),
            generate(&TpccParams::default(), 9)
        );
    }

    #[test]
    fn streaming_workload_matches_materialized_replay() {
        // Replaying the live stream must equal replaying its collected
        // records, request for request, with an exact length hint at
        // every step (a streaming fleet sizes its id block from it).
        use crate::Replay;
        use storage_sim::Workload;
        let p = TpccParams::default();
        for seed in [2u64, 11, 0x7CC] {
            let mut streamed = Replay::new(TpccTrace::new(&p, seed), 1.0);
            let records: Vec<TraceRecord> = TpccTrace::new(&p, seed).collect();
            let mut materialized = Replay::new(records, 1.0);
            loop {
                assert_eq!(streamed.len_hint(), materialized.len_hint(), "seed {seed}");
                let want = materialized.next_request();
                assert_eq!(streamed.next_request(), want, "seed {seed}");
                if want.is_none() {
                    break;
                }
            }
        }
    }
}
