//! Trace characterization.
//!
//! [`TraceSummary`] computes the aggregate properties storage papers
//! report about their workloads — arrival rate and burstiness, size
//! distribution, read/write mix, sequentiality, and spatial locality —
//! so synthetic generators can be validated against published trace
//! descriptions (that is exactly how the Cello-like and TPC-C-like
//! generators in this crate were calibrated).
//!
//! The computation is a single streaming pass ([`TraceSummary::from_stream`])
//! over O(1) state — a Welford accumulator for interarrival moments, a
//! log-spaced histogram for interarrival tails, and a fixed 100-bucket
//! locality map — so a 10⁷-request generator stream can be characterized
//! without ever materializing a `Vec<TraceRecord>`.

use storage_sim::{IoKind, LogHistogram, Welford};

use crate::record::TraceRecord;

/// Aggregate characteristics of a trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSummary {
    /// Number of requests.
    pub requests: u64,
    /// Trace duration (first to last arrival), seconds.
    pub duration: f64,
    /// Mean arrival rate, requests/second.
    pub arrival_rate: f64,
    /// Squared coefficient of variation of interarrival times (1 ≈
    /// Poisson; larger = bursty).
    pub interarrival_cv2: f64,
    /// 99th-percentile interarrival gap, seconds (log-histogram estimate,
    /// within ~12%): the think-time tail that separates bursts.
    pub interarrival_p99: f64,
    /// Fraction of requests that are reads.
    pub read_fraction: f64,
    /// Mean request size, sectors.
    pub mean_sectors: f64,
    /// Largest request, sectors.
    pub max_sectors: u32,
    /// Fraction of requests that start exactly where the previous one
    /// ended (strict sequentiality).
    pub sequential_fraction: f64,
    /// Fraction of accessed bytes that land in the busiest 10% of the
    /// address space (by 1%-of-capacity buckets); 0.1 = uniform.
    pub top_decile_mass: f64,
    /// Footprint: fraction of 1%-capacity buckets touched at all.
    pub footprint: f64,
}

impl TraceSummary {
    /// Computes the summary against a device of `capacity` sectors in one
    /// streaming pass over any record iterator — a `Vec`, a generator, or
    /// a [`crate::TraceReader`] — so arbitrarily long traces summarize in
    /// O(1) memory.
    ///
    /// # Panics
    ///
    /// Panics if the stream is empty or `capacity` is zero.
    pub fn from_stream<I: IntoIterator<Item = TraceRecord>>(records: I, capacity: u64) -> Self {
        assert!(capacity > 0);

        // Locality over 100 equal buckets.
        let buckets = 100u64;
        let bucket_size = capacity.div_ceil(buckets);
        let mut mass = vec![0u64; buckets as usize];

        // Interarrival gaps: Welford for mean/cv², a 1 µs-origin
        // log-spaced histogram for the tail.
        let mut gaps = Welford::new();
        let mut gap_hist = LogHistogram::new(1e-6, 20);

        let mut requests = 0u64;
        let mut reads = 0u64;
        let mut total_sectors = 0u64;
        let mut max_sectors = 0u32;
        let mut sequential = 0u64;
        let mut first_arrival = 0.0f64;
        let mut prev: Option<TraceRecord> = None;
        for r in records.into_iter() {
            match &prev {
                Some(p) => {
                    let gap = r.arrival - p.arrival;
                    gaps.push(gap);
                    gap_hist.push(gap);
                    if r.lbn == p.lbn + u64::from(p.sectors) {
                        sequential += 1;
                    }
                }
                None => first_arrival = r.arrival,
            }
            requests += 1;
            if r.kind == IoKind::Read {
                reads += 1;
            }
            total_sectors += u64::from(r.sectors);
            max_sectors = max_sectors.max(r.sectors);
            let b = (r.lbn / bucket_size).min(buckets - 1) as usize;
            mass[b] += u64::from(r.sectors);
            prev = Some(r);
        }
        assert!(requests > 0, "empty trace");
        let duration = prev.expect("non-empty").arrival - first_arrival;

        let (cv2, rate, p99) = if requests < 2 || duration <= 0.0 {
            (0.0, 0.0, 0.0)
        } else {
            (
                gaps.sq_coeff_var(),
                (requests - 1) as f64 / duration,
                gap_hist.quantile(0.99),
            )
        };

        let mut sorted = mass.clone();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        let top_decile: u64 = sorted.iter().take(10).sum();
        let touched = mass.iter().filter(|&&m| m > 0).count();

        TraceSummary {
            requests,
            duration,
            arrival_rate: rate,
            interarrival_cv2: cv2,
            interarrival_p99: p99,
            read_fraction: reads as f64 / requests as f64,
            mean_sectors: total_sectors as f64 / requests as f64,
            max_sectors,
            sequential_fraction: if requests > 1 {
                sequential as f64 / (requests - 1) as f64
            } else {
                0.0
            },
            top_decile_mass: if total_sectors > 0 {
                top_decile as f64 / total_sectors as f64
            } else {
                0.0
            },
            footprint: touched as f64 / buckets as f64,
        }
    }

    /// Renders the summary as an aligned report.
    pub fn render(&self) -> String {
        format!(
            "requests            {}\n\
             duration            {:.1} s\n\
             arrival rate        {:.1} req/s\n\
             interarrival cv^2   {:.2}\n\
             interarrival p99    {:.1} ms\n\
             read fraction       {:.1}%\n\
             mean request size   {:.1} sectors ({:.1} KB)\n\
             max request size    {} sectors\n\
             sequential fraction {:.1}%\n\
             top-decile mass     {:.1}%\n\
             footprint           {:.1}% of device",
            self.requests,
            self.duration,
            self.arrival_rate,
            self.interarrival_cv2,
            self.interarrival_p99 * 1e3,
            self.read_fraction * 100.0,
            self.mean_sectors,
            self.mean_sectors / 2.0,
            self.max_sectors,
            self.sequential_fraction * 100.0,
            self.top_decile_mass * 100.0,
            self.footprint * 100.0,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cello::{CelloParams, CelloTrace};
    use crate::tpcc::{TpccParams, TpccTrace};

    fn uniform_trace(n: u64, capacity: u64) -> Vec<TraceRecord> {
        let mut lbn = 13u64;
        (0..n)
            .map(|i| {
                lbn = (lbn.wrapping_mul(6364136223846793005).wrapping_add(11)) % (capacity - 8);
                TraceRecord {
                    arrival: i as f64 * 0.01,
                    lbn,
                    sectors: 8,
                    kind: IoKind::Read,
                }
            })
            .collect()
    }

    #[test]
    fn uniform_trace_summary_is_uniform() {
        let t = uniform_trace(20_000, 1_000_000);
        let s = TraceSummary::from_stream(t, 1_000_000);
        assert_eq!(s.requests, 20_000);
        assert!((s.arrival_rate - 100.0).abs() < 1.0);
        assert!(s.interarrival_cv2 < 0.01, "constant arrivals");
        assert_eq!(s.read_fraction, 1.0);
        assert!((s.mean_sectors - 8.0).abs() < 1e-9);
        // Uniform: busiest 10% of buckets hold ≈10-13% of mass.
        assert!(s.top_decile_mass < 0.15, "mass {}", s.top_decile_mass);
        assert!(s.footprint > 0.99);
        // Constant 10 ms gaps: the p99 estimate sits within one bin.
        assert!((9e-3..11.5e-3).contains(&s.interarrival_p99));
    }

    #[test]
    fn cello_like_summary_matches_published_characteristics() {
        let p = CelloParams::default();
        let s = TraceSummary::from_stream(CelloTrace::new(&p, 3), p.capacity);
        assert!(
            s.interarrival_cv2 > 2.0,
            "bursty: cv2 {}",
            s.interarrival_cv2
        );
        assert!((0.40..0.50).contains(&s.read_fraction), "write-majority");
        assert!(s.sequential_fraction > 0.1, "sequential runs exist");
        assert!(s.top_decile_mass > 0.4, "hot regions dominate");
        // Bursty arrivals: the p99 gap dwarfs the mean gap.
        assert!(s.interarrival_p99 > 3.0 / s.arrival_rate);
    }

    #[test]
    fn tpcc_like_summary_matches_published_characteristics() {
        let p = TpccParams::default();
        let s = TraceSummary::from_stream(TpccTrace::new(&p, 3), p.capacity);
        assert!(
            (15.0..17.0).contains(&s.mean_sectors),
            "8 KB pages dominate"
        );
        assert!(s.top_decile_mass > 0.5, "hot tables dominate");
        assert!(s.footprint < 0.5, "database confined to part of the device");
    }

    #[test]
    fn render_contains_key_lines() {
        let t = uniform_trace(100, 10_000);
        let text = TraceSummary::from_stream(t, 10_000).render();
        assert!(text.contains("arrival rate"));
        assert!(text.contains("interarrival p99"));
        assert!(text.contains("sequential fraction"));
    }

    #[test]
    #[should_panic(expected = "empty trace")]
    fn empty_trace_rejected() {
        let _ = TraceSummary::from_stream(std::iter::empty(), 100);
    }
}
