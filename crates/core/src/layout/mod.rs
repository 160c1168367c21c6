//! On-device data placement (§5).
//!
//! The paper's layout study exploits two MEMS-specific observations:
//!
//! 1. short seeks near the sled edges are slower than near the center,
//!    because the springs fight the actuator (§5.1, Fig. 9), and
//! 2. positioning is so fast relative to streaming that large sequential
//!    transfers barely care where they live (<10% penalty even for
//!    1000-cylinder seeks; §5.2, Fig. 10).
//!
//! Together they motivate a **bipartite** placement: small, popular data
//! in the centermost subregion; large streaming data in the outermost
//! subregions. This module provides the four layouts Fig. 11 compares —
//! [`SimpleLayout`], [`OrganPipeLayout`], [`SubregionedLayout`] (5×5
//! grid), and [`ColumnarLayout`] (25 columns) — as designated LBN regions
//! for the two data classes, a [`BipartiteWorkload`] generator that drives
//! them with the paper's 89%-small/11%-large read mix, and the real
//! organ-pipe block permutation ([`OrganPipeMap`]) with its bookkeeping
//! cost, which the bipartite layouts avoid.

mod columnar;
pub(crate) mod organ_pipe;
mod simple;
mod subregion;

pub use columnar::ColumnarLayout;
pub use organ_pipe::{OrganPipeLayout, OrganPipeMap};
pub use simple::SimpleLayout;
pub use subregion::SubregionedLayout;

use std::ops::Range;

use rand::rngs::SmallRng;
use storage_sim::rng;
use storage_sim::{IoKind, Request, SimTime, Workload};

/// A bipartite data placement: designated LBN regions for small/popular
/// and large/sequential data.
pub trait Layout {
    /// Scheme name as it appears in Fig. 11.
    fn name(&self) -> &str;

    /// LBN ranges holding small, popular data.
    fn small_ranges(&self) -> &[Range<u64>];

    /// LBN ranges holding large, streaming data.
    fn large_ranges(&self) -> &[Range<u64>];
}

/// Samples an aligned start LBN for a request of `sectors` sectors,
/// uniform over the usable positions of `ranges`.
///
/// Returns `None` if no range can hold the request.
pub fn sample_start(rng_state: &mut SmallRng, ranges: &[Range<u64>], sectors: u32) -> Option<u64> {
    let usable: Vec<Range<u64>> = ranges
        .iter()
        .filter(|r| r.end - r.start >= u64::from(sectors))
        .cloned()
        .collect();
    if usable.is_empty() {
        return None;
    }
    let total: u64 = usable
        .iter()
        .map(|r| r.end - r.start - u64::from(sectors) + 1)
        .sum();
    let mut pick = rng::uniform_u64(rng_state, total);
    for r in &usable {
        let slots = r.end - r.start - u64::from(sectors) + 1;
        if pick < slots {
            return Some(r.start + pick);
        }
        pick -= slots;
    }
    unreachable!("pick is within the total slot count");
}

/// The Fig. 11 workload: a read stream, `small_fraction` of requests
/// small (4 KB) targeting the layout's small region and the rest large
/// (400 KB) targeting its large region.
///
/// # Examples
///
/// ```
/// use mems_os::layout::{BipartiteWorkload, SimpleLayout};
/// use storage_sim::Workload;
///
/// let layout = SimpleLayout::new(6_750_000);
/// let mut w = BipartiteWorkload::paper(&layout, 100, 42);
/// let mut small = 0;
/// while let Some(r) = w.next_request() {
///     if r.sectors == 8 { small += 1; }
/// }
/// assert!(small > 75); // ≈89% of requests are small
/// ```
pub struct BipartiteWorkload {
    small_ranges: Vec<Range<u64>>,
    large_ranges: Vec<Range<u64>>,
    small_fraction: f64,
    small_sectors: u32,
    large_sectors: u32,
    interarrival: f64,
    remaining: u64,
    next_id: u64,
    clock: f64,
    rng: SmallRng,
}

impl BipartiteWorkload {
    /// The paper's §5.3 parameters: 89% small 4 KB reads, 11% large
    /// 400 KB reads, arrivals spaced far enough apart that no queueing
    /// occurs (Fig. 11 reports pure access times).
    pub fn paper(layout: &dyn Layout, requests: u64, seed: u64) -> Self {
        Self::new(layout, requests, 0.89, 8, 800, 1.0, seed)
    }

    /// Fully parameterized constructor.
    ///
    /// # Panics
    ///
    /// Panics if `small_fraction` is outside `[0,1]` or a region cannot
    /// hold its request size.
    pub fn new(
        layout: &dyn Layout,
        requests: u64,
        small_fraction: f64,
        small_sectors: u32,
        large_sectors: u32,
        interarrival: f64,
        seed: u64,
    ) -> Self {
        assert!((0.0..=1.0).contains(&small_fraction));
        let small_ranges = layout.small_ranges().to_vec();
        let large_ranges = layout.large_ranges().to_vec();
        assert!(
            small_ranges
                .iter()
                .any(|r| r.end - r.start >= u64::from(small_sectors)),
            "small region too small for small requests"
        );
        assert!(
            small_fraction >= 1.0
                || large_ranges
                    .iter()
                    .any(|r| r.end - r.start >= u64::from(large_sectors)),
            "large region too small for large requests"
        );
        BipartiteWorkload {
            small_ranges,
            large_ranges,
            small_fraction,
            small_sectors,
            large_sectors,
            interarrival,
            remaining: requests,
            next_id: 0,
            clock: 0.0,
            rng: rng::seeded(seed),
        }
    }
}

impl Workload for BipartiteWorkload {
    fn next_request(&mut self) -> Option<Request> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let small = rng::bernoulli(&mut self.rng, self.small_fraction);
        let (ranges, sectors) = if small {
            (&self.small_ranges, self.small_sectors)
        } else {
            (&self.large_ranges, self.large_sectors)
        };
        let lbn = sample_start(&mut self.rng, ranges, sectors)
            .expect("constructor validated the regions");
        let req = Request::new(
            self.next_id,
            SimTime::from_secs(self.clock),
            lbn,
            sectors,
            IoKind::Read,
        );
        self.next_id += 1;
        self.clock += self.interarrival;
        Some(req)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Total number of sectors across a set of ranges: the layouts' tests
    /// check their region sizes with it.
    pub(super) fn ranges_len(ranges: &[Range<u64>]) -> u64 {
        ranges.iter().map(|r| r.end - r.start).sum()
    }

    struct TwoRegion {
        small: Vec<Range<u64>>,
        large: Vec<Range<u64>>,
    }

    impl Layout for TwoRegion {
        fn name(&self) -> &str {
            "two-region"
        }
        fn small_ranges(&self) -> &[Range<u64>] {
            &self.small
        }
        fn large_ranges(&self) -> &[Range<u64>] {
            &self.large
        }
    }

    #[test]
    fn ranges_len_sums_disjoint_ranges() {
        assert_eq!(ranges_len(&[0..10, 20..25]), 15);
        assert_eq!(ranges_len(&[]), 0);
    }

    #[test]
    fn sample_start_stays_inside_and_fits() {
        let mut r = rng::seeded(7);
        let ranges = vec![100..200, 1000..1016];
        for _ in 0..10_000 {
            let start = sample_start(&mut r, &ranges, 16).unwrap();
            let fits_first = (100..=184).contains(&start);
            let fits_second = start == 1000;
            assert!(fits_first || fits_second, "start {start}");
        }
    }

    #[test]
    fn sample_start_skips_too_small_ranges() {
        let mut r = rng::seeded(7);
        let ranges = vec![0..4, 100..200];
        for _ in 0..1000 {
            let start = sample_start(&mut r, &ranges, 8).unwrap();
            assert!((100..=192).contains(&start));
        }
        assert_eq!(sample_start(&mut r, &[0..4], 8), None);
    }

    #[test]
    fn workload_respects_regions_and_mix() {
        let layout = TwoRegion {
            small: vec![0..10_000],
            large: vec![100_000..200_000],
        };
        let mut w = BipartiteWorkload::new(&layout, 5000, 0.89, 8, 800, 0.001, 3);
        let (mut small, mut large) = (0u64, 0u64);
        let mut last_arrival = SimTime::ZERO;
        while let Some(r) = w.next_request() {
            assert!(r.arrival >= last_arrival);
            last_arrival = r.arrival;
            if r.sectors == 8 {
                small += 1;
                assert!(r.end_lbn() <= 10_000);
            } else {
                large += 1;
                assert_eq!(r.sectors, 800);
                assert!(r.lbn >= 100_000 && r.end_lbn() <= 200_000);
            }
        }
        let frac = small as f64 / (small + large) as f64;
        assert!((frac - 0.89).abs() < 0.02, "small fraction {frac}");
    }

    #[test]
    #[should_panic(expected = "large region too small")]
    fn undersized_large_region_rejected() {
        let layout = TwoRegion {
            small: vec![0..10_000],
            large: vec![0..100],
        };
        let _ = BipartiteWorkload::new(&layout, 10, 0.5, 8, 800, 1.0, 1);
    }
}
