//! The organ pipe layout [VC90, RW91] — the optimal *disk* arrangement.
//!
//! The most popular blocks sit at the center of the LBN space, with blocks
//! of decreasing popularity alternating to either side. The paper's point
//! (§5.3): although provably optimal for disks, on MEMS devices organ pipe
//! loses to the bipartite subregioned/columnar layouts — and it also drags
//! along bookkeeping the bipartite layouts don't need (per-block popularity
//! counts and periodic reshuffling). [`OrganPipeMap`] is the real
//! block-permutation machinery including that bookkeeping;
//! [`OrganPipeLayout`] is the bipartite-workload view used by Fig. 11.

use std::ops::Range;

use super::Layout;

/// The center-out order of `n` slots: center (`n / 2`), center + 1,
/// center − 1, center + 2, center − 2, …, each slot once. Rank `r` of an
/// organ-pipe arrangement lives in the `r`-th slot of this order.
pub(crate) fn center_out_slots(n: usize) -> impl Iterator<Item = usize> {
    let center = n / 2;
    std::iter::once(center).chain(
        (1..=center)
            .flat_map(move |d| [center + d, center - d].into_iter().filter(move |&s| s < n)),
    )
}

/// A popularity-driven organ-pipe block permutation.
///
/// Logical blocks ranked by access frequency are assigned physical
/// positions center-out: rank 0 at the center slot, rank 1 just above,
/// rank 2 just below, and so on.
///
/// # Examples
///
/// ```
/// use mems_os::layout::OrganPipeMap;
///
/// // Five blocks; block 3 is the hottest, block 0 the coldest.
/// let freqs = [1.0, 2.0, 3.0, 100.0, 4.0];
/// let map = OrganPipeMap::build(&freqs);
/// // The hottest block lands in the center slot (index 2 of 5).
/// assert_eq!(map.physical_of(3), 2);
/// // Round trip.
/// for b in 0..5 { assert_eq!(map.logical_of(map.physical_of(b)), b); }
/// ```
#[derive(Debug, Clone)]
pub struct OrganPipeMap {
    /// physical slot of each logical block.
    phys: Vec<u64>,
    /// logical block in each physical slot.
    logical: Vec<u64>,
}

impl OrganPipeMap {
    /// Builds the permutation from per-block access frequencies.
    ///
    /// # Panics
    ///
    /// Panics if `frequencies` is empty or contains a negative or
    /// non-finite value.
    pub fn build(frequencies: &[f64]) -> Self {
        assert!(!frequencies.is_empty(), "no blocks to place");
        assert!(
            frequencies.iter().all(|f| f.is_finite() && *f >= 0.0),
            "frequencies must be finite and non-negative"
        );
        let n = frequencies.len();
        // Rank blocks by descending frequency (ties by block number for
        // determinism).
        let mut ranked: Vec<usize> = (0..n).collect();
        ranked.sort_by(|&a, &b| {
            frequencies[b]
                .partial_cmp(&frequencies[a])
                .expect("frequencies are finite")
                .then(a.cmp(&b))
        });
        let mut phys = vec![0u64; n];
        let mut logical = vec![0u64; n];
        for (&block, slot) in ranked.iter().zip(center_out_slots(n)) {
            phys[block] = slot as u64;
            logical[slot] = block as u64;
        }
        OrganPipeMap { phys, logical }
    }

    /// Number of blocks managed.
    pub fn len(&self) -> usize {
        self.phys.len()
    }

    /// Returns `true` if the map is empty (never true for built maps).
    pub fn is_empty(&self) -> bool {
        self.phys.is_empty()
    }

    /// Physical slot of a logical block.
    ///
    /// # Panics
    ///
    /// Panics if `block` is out of range.
    pub fn physical_of(&self, block: u64) -> u64 {
        self.phys[usize::try_from(block).expect("block fits usize")]
    }

    /// Logical block stored in a physical slot.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range.
    pub fn logical_of(&self, slot: u64) -> u64 {
        self.logical[usize::try_from(slot).expect("slot fits usize")]
    }
}

/// Fig. 11's organ-pipe layout: *all* blocks — small 4 KB blocks and
/// large 400 KB extents alike — are placed center-out by per-block access
/// frequency, the way organ pipe actually works.
///
/// This is where organ pipe loses to the bipartite layouts on MEMS
/// devices: with the paper's one-large-per-eight-small distribution, the
/// per-block popularity of large extents is comparable to that of small
/// blocks, so large extents interleave into the hot center. The small
/// data ends up scattered across a wide span (large extents consume 100×
/// the space per placement), inflating the hot-access excursions, while
/// the bipartite layouts pin all small data in one tight subregion.
#[derive(Debug, Clone)]
pub struct OrganPipeLayout {
    small: Vec<Range<u64>>,
    large: Vec<Range<u64>>,
}

impl OrganPipeLayout {
    /// Builds the popularity-interleaved arrangement for a device of
    /// `capacity` sectors: a small-block pool of `small_pool` sectors (in
    /// `small_block` chunks) and a large-extent pool of `large_pool`
    /// sectors (in `large_block` chunks), with class access masses of
    /// 89%/11% and Zipf-ish per-block popularity within each class.
    ///
    /// # Panics
    ///
    /// Panics if the pools don't fit the capacity or a chunk size is
    /// zero.
    pub fn interleaved(
        capacity: u64,
        small_pool: u64,
        large_pool: u64,
        small_block: u32,
        large_block: u32,
    ) -> Self {
        assert!(small_block > 0 && large_block > 0);
        assert!(small_pool + large_pool <= capacity, "pools exceed capacity");
        let n_small = small_pool / u64::from(small_block);
        let n_large = large_pool / u64::from(large_block);
        assert!(n_small > 0 && n_large > 0, "each pool needs blocks");
        // Per-block weight: class mass × Zipf(rank) within the class.
        let theta = 0.8;
        let h = |n: u64| -> f64 { (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum() };
        let h_small = h(n_small.min(200_000));
        let h_large = h(n_large);
        let weight_small = |rank: u64| 0.89 / h_small / ((rank + 1) as f64).powf(theta);
        let weight_large = |rank: u64| 0.11 / h_large / ((rank + 1) as f64).powf(theta);

        // Merge the two popularity-sorted classes by descending weight
        // (both sequences are themselves descending, so this is a merge).
        let mut placements: Vec<(bool, u32)> = Vec::with_capacity((n_small + n_large) as usize);
        let (mut i, mut j) = (0u64, 0u64);
        while i < n_small || j < n_large {
            let take_small = match (i < n_small, j < n_large) {
                (true, true) => weight_small(i) >= weight_large(j),
                (true, false) => true,
                _ => false,
            };
            if take_small {
                placements.push((true, small_block));
                i += 1;
            } else {
                placements.push((false, large_block));
                j += 1;
            }
        }

        // Assign placements to positions center-out: alternate above and
        // below the center, keeping each side contiguous.
        let total: u64 = small_pool + large_pool;
        let center = capacity / 2;
        let mut above = center; // next free sector going up
        let mut below = center; // one past the next free run going down
        debug_assert!(center >= total / 2 + u64::from(large_block));
        let mut small = Vec::new();
        let mut large = Vec::new();
        for (idx, &(is_small, len)) in placements.iter().enumerate() {
            let len = u64::from(len);
            let range = if idx % 2 == 0 {
                let r = above..above + len;
                above += len;
                r
            } else {
                let r = below - len..below;
                below -= len;
                r
            };
            if is_small {
                small.push(range);
            } else {
                large.push(range);
            }
        }
        OrganPipeLayout {
            small: coalesce(small),
            large: coalesce(large),
        }
    }

    /// The paper-comparable sizing: the same data footprints as the
    /// columnar layout (small pool = 1/25 of capacity in 4 KB blocks,
    /// large pool = 20/25 in 400 KB extents).
    pub fn paper(capacity: u64) -> Self {
        Self::interleaved(capacity, capacity / 25, capacity * 20 / 25, 8, 800)
    }
}

/// Sorts ranges and merges adjacent/overlapping ones.
fn coalesce(mut ranges: Vec<Range<u64>>) -> Vec<Range<u64>> {
    ranges.sort_by_key(|r| r.start);
    let mut out: Vec<Range<u64>> = Vec::new();
    for r in ranges {
        match out.last_mut() {
            Some(last) if r.start <= last.end => last.end = last.end.max(r.end),
            _ => out.push(r),
        }
    }
    out
}

impl Layout for OrganPipeLayout {
    fn name(&self) -> &str {
        "organ pipe"
    }

    fn small_ranges(&self) -> &[Range<u64>] {
        &self.small
    }

    fn large_ranges(&self) -> &[Range<u64>] {
        &self.large
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::ranges_len;

    #[test]
    fn center_out_slots_alternate_and_cover_every_slot() {
        let order = |n| center_out_slots(n).collect::<Vec<_>>();
        assert_eq!(order(1), [0]);
        assert_eq!(order(2), [1, 0]);
        assert_eq!(order(4), [2, 3, 1, 0]);
        assert_eq!(order(5), [2, 3, 1, 4, 0]);
        for n in 1..64 {
            let mut slots = order(n);
            slots.sort_unstable();
            assert_eq!(slots, (0..n).collect::<Vec<_>>(), "n = {n}");
        }
    }

    #[test]
    fn map_places_hottest_at_center() {
        let freqs: Vec<f64> = (0..101).map(f64::from).collect();
        let map = OrganPipeMap::build(&freqs);
        // Block 100 is hottest -> center slot 50.
        assert_eq!(map.physical_of(100), 50);
        // The next two hottest flank the center.
        let p99 = map.physical_of(99);
        let p98 = map.physical_of(98);
        assert!(p99 == 51 || p99 == 49);
        assert!(p98 == 51 || p98 == 49);
        assert_ne!(p99, p98);
    }

    #[test]
    fn map_is_a_permutation() {
        let freqs: Vec<f64> = (0..500).map(|i| ((i * 37) % 91) as f64).collect();
        let map = OrganPipeMap::build(&freqs);
        let mut seen = vec![false; 500];
        for b in 0..500 {
            let p = map.physical_of(b);
            assert!(!seen[p as usize], "slot {p} assigned twice");
            seen[p as usize] = true;
            assert_eq!(map.logical_of(p), b);
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn popularity_decreases_with_distance_from_center() {
        let freqs: Vec<f64> = (0..200).map(|i| f64::from(200 - i)).collect();
        let map = OrganPipeMap::build(&freqs);
        let center = 100u64;
        // For any two blocks, the more popular one is no farther from the
        // center than the less popular one (frequencies are distinct).
        for a in 0..200u64 {
            for b in (a + 1)..200 {
                // freqs[a] > freqs[b]
                let da = map.physical_of(a).abs_diff(center);
                let db = map.physical_of(b).abs_diff(center);
                assert!(da <= db, "block {a} (hotter) farther than {b}");
            }
        }
    }

    #[test]
    fn interleaved_layout_preserves_pool_sizes() {
        let l = OrganPipeLayout::paper(6_750_000);
        assert_eq!(ranges_len(l.small_ranges()), 6_750_000 / 25 / 8 * 8);
        assert_eq!(
            ranges_len(l.large_ranges()),
            6_750_000 * 20 / 25 / 800 * 800
        );
        // The two classes never overlap.
        let mut all: Vec<_> = l
            .small_ranges()
            .iter()
            .chain(l.large_ranges())
            .cloned()
            .collect();
        all.sort_by_key(|r| r.start);
        for pair in all.windows(2) {
            assert!(pair[0].end <= pair[1].start, "overlapping placements");
        }
    }

    #[test]
    fn interleaved_layout_scatters_small_data_beyond_a_tight_band() {
        // The §5.3 point: organ pipe interleaves large extents into the
        // hot center, so the small data spans far more than its own pool
        // size — unlike the bipartite layouts, which pin it in one
        // subregion.
        let capacity = 6_750_000u64;
        let l = OrganPipeLayout::paper(capacity);
        let lo = l.small_ranges().iter().map(|r| r.start).min().unwrap();
        let hi = l.small_ranges().iter().map(|r| r.end).max().unwrap();
        let span = hi - lo;
        let pool = ranges_len(l.small_ranges());
        assert!(
            span > 3 * pool,
            "small-data span {span} should far exceed its pool {pool}"
        );
    }

    #[test]
    fn interleaved_center_is_hot_small_data() {
        // The very center of the arrangement holds the most popular
        // (small) blocks.
        let capacity = 6_750_000u64;
        let l = OrganPipeLayout::paper(capacity);
        let center = capacity / 2;
        let covers_center = l
            .small_ranges()
            .iter()
            .any(|r| r.start <= center && center < r.end + 800);
        assert!(covers_center, "hottest small blocks should sit at center");
    }

    #[test]
    #[should_panic(expected = "no blocks")]
    fn empty_frequencies_rejected() {
        let _ = OrganPipeMap::build(&[]);
    }
}
