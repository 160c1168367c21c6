//! Decayed per-block access frequency tracking.
//!
//! [`FrequencyTracker`] maintains one exponentially-decayed access
//! counter per placement block without ever touching more than the
//! accessed block: instead of decaying every counter on every access, it
//! keeps weights *normalized to a shared time anchor* and adds
//! `2^((now - anchor) / half_life)` per access. Because every stored
//! weight carries the same implicit decay factor, comparing raw weights
//! at any instant is exactly comparing decayed frequencies — the
//! ordering the placement policy needs. When the exponent grows large
//! enough to threaten `f64` range, all weights are rescaled by an exact
//! power of two (order-preserving) and the anchor advances.
//!
//! [`HeatQueue`] is the matching priority structure: it yields the
//! currently hottest blocks in `O(log n)` with lazy invalidation (stale
//! heap entries are skipped by comparing their recorded weight bits
//! against the tracker), so the migration policy can walk its swap
//! candidates hottest first without a full sort per idle window.

use std::collections::BinaryHeap;

/// How many half-lives the anchor exponent may reach before the tracker
/// renormalizes. `2^512` leaves another ~500 powers of two of headroom
/// below `f64::MAX` for summing per-access increments.
const RENORM_HALF_LIVES: f64 = 512.0;

/// Exponentially-decayed per-block access counters with O(1) updates.
#[derive(Debug, Clone)]
pub(crate) struct FrequencyTracker {
    half_life: f64,
    /// Time the stored weights are normalized to, seconds.
    anchor: f64,
    /// Anchor-normalized weights; ordering equals decayed-count ordering.
    weights: Vec<f64>,
}

impl FrequencyTracker {
    /// Creates a tracker for `n_blocks` blocks with the given decay
    /// half-life in seconds (an access loses half its weight every
    /// `half_life` seconds).
    pub(crate) fn new(n_blocks: usize, half_life: f64) -> Self {
        FrequencyTracker {
            half_life,
            anchor: 0.0,
            weights: vec![0.0; n_blocks],
        }
    }

    /// Records one access to `block` at time `now` (seconds). Returns
    /// `true` if the table was renormalized, in which case any externally
    /// cached weight bits (e.g. [`HeatQueue`] entries) are stale and must
    /// be rebuilt.
    ///
    /// # Panics
    ///
    /// Panics if `block` is out of range.
    pub(crate) fn record(&mut self, block: usize, now: f64) -> bool {
        let mut renormalized = false;
        // `while`, not `if`: an access gap longer than 2×512 half-lives
        // must step the anchor repeatedly or the increment exponent
        // below would still overflow.
        while (now - self.anchor) / self.half_life > RENORM_HALF_LIVES {
            // Exact power-of-two rescale: multiplication by 2^-512 never
            // rounds, so the relative order of all weights is preserved
            // (weights more than ~1586 half-lives behind flush to zero,
            // where they belong).
            let scale = f64::exp2(-RENORM_HALF_LIVES);
            for w in &mut self.weights {
                *w *= scale;
            }
            self.anchor += RENORM_HALF_LIVES * self.half_life;
            renormalized = true;
        }
        self.weights[block] += f64::exp2((now - self.anchor) / self.half_life);
        renormalized
    }

    /// The block's anchor-normalized weight — meaningless as an absolute
    /// count, but *comparing* two weights compares their decayed
    /// frequencies exactly (both carry the same implicit decay factor).
    ///
    /// # Panics
    ///
    /// Panics if `block` is out of range.
    pub(crate) fn weight(&self, block: usize) -> f64 {
        self.weights[block]
    }

    /// The decayed access count of `block` as observed at time `now`:
    /// each past access contributes `2^-(age / half_life)`.
    ///
    /// # Panics
    ///
    /// Panics if `block` is out of range.
    pub(crate) fn weight_at(&self, block: usize, now: f64) -> f64 {
        self.weights[block] * f64::exp2(-(now - self.anchor) / self.half_life)
    }

    /// Forgets all recorded accesses.
    pub(crate) fn reset(&mut self) {
        self.weights.fill(0.0);
        self.anchor = 0.0;
    }
}

/// Heap entry: (weight bits, block). Weights are non-negative finite
/// `f64`s, whose IEEE-754 bit patterns order identically to their
/// values, so plain tuple ordering is numeric ordering with a
/// deterministic block-id tiebreak.
type Entry = (u64, u32);

/// A max-priority queue over the tracker's blocks: pops the hottest in
/// `O(log n)` amortized, with lazy invalidation against the live tracker
/// weights.
///
/// Every block always has at least one live entry as long as callers
/// re-push what they pop (see [`HeatQueue::push`]); stale entries left
/// behind by weight updates are skipped on pop and garbage-collected by
/// an automatic rebuild once they outnumber live entries ~8:1.
#[derive(Debug, Clone)]
pub(crate) struct HeatQueue {
    heap: BinaryHeap<Entry>,
    blocks: u32,
}

impl HeatQueue {
    /// Builds the queue with one entry per tracker block at its current
    /// weight.
    pub(crate) fn new(tracker: &FrequencyTracker) -> Self {
        let blocks = u32::try_from(tracker.weights.len()).expect("block count fits u32");
        let mut q = HeatQueue {
            heap: BinaryHeap::new(),
            blocks,
        };
        q.rebuild(tracker);
        q
    }

    /// Registers `block`'s current `weight` (typically right after a
    /// [`FrequencyTracker::record`], or to return a popped block to the
    /// queue). Older entries for the block become stale and are skipped
    /// on pop.
    pub(crate) fn push(&mut self, block: u32, weight: f64) {
        self.heap.push((weight.to_bits(), block));
    }

    /// Pops the hottest block (highest weight, ties to the highest block
    /// id) whose entry matches the tracker's live weight. Returns `None`
    /// only if every block has been popped without being re-pushed.
    pub(crate) fn pop_max(&mut self, tracker: &FrequencyTracker) -> Option<(u32, f64)> {
        while let Some((bits, block)) = self.heap.pop() {
            let live = tracker.weight(block as usize);
            if live.to_bits() == bits {
                return Some((block, live));
            }
        }
        None
    }

    /// Discards every entry and re-inserts one live entry per block.
    /// Required after [`FrequencyTracker::record`] reports a
    /// renormalization (all cached bits went stale at once); also called
    /// automatically by [`HeatQueue::maintain`].
    pub(crate) fn rebuild(&mut self, tracker: &FrequencyTracker) {
        self.heap.clear();
        for block in 0..self.blocks {
            self.heap
                .push((tracker.weight(block as usize).to_bits(), block));
        }
    }

    /// Rebuilds if stale entries dominate (heap length beyond ~8× the
    /// block count), bounding memory without changing pop results.
    pub(crate) fn maintain(&mut self, tracker: &FrequencyTracker) {
        if self.heap.len() > 8 * self.blocks as usize + 64 {
            self.rebuild(tracker);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn two_accesses_outweigh_one() {
        let mut t = FrequencyTracker::new(4, 10.0);
        t.record(1, 0.0);
        t.record(1, 1.0);
        t.record(2, 1.0);
        // Block 1 (two accesses) is hotter than block 2 (one access).
        assert!(t.weight(1) > t.weight(2));
        // Decayed absolute counts: ~2 accesses worth of heat on block 1.
        assert!(t.weight_at(1, 1.0) > 1.9 && t.weight_at(1, 1.0) < 2.0);
    }

    #[test]
    fn more_recent_accesses_weigh_more() {
        let mut t = FrequencyTracker::new(2, 1.0);
        t.record(0, 0.0);
        t.record(1, 3.0);
        // One access each, but block 1's is 3 half-lives fresher.
        assert!(t.weight(1) > t.weight(0));
        let w0 = t.weight_at(0, 3.0);
        let w1 = t.weight_at(1, 3.0);
        assert!((w0 - 0.125).abs() < 1e-12, "decayed to 1/8: {w0}");
        assert!((w1 - 1.0).abs() < 1e-12, "fresh access: {w1}");
    }

    #[test]
    fn many_old_accesses_can_outweigh_one_fresh() {
        let mut t = FrequencyTracker::new(2, 10.0);
        for _ in 0..8 {
            t.record(0, 0.0);
        }
        t.record(1, 10.0); // one half-life later
        assert!(t.weight(0) > t.weight(1), "8 * 1/2 > 1 * 1");
    }

    #[test]
    fn renormalization_preserves_order_and_decayed_counts() {
        let mut t = FrequencyTracker::new(3, 0.001);
        t.record(0, 0.0);
        t.record(0, 0.0);
        t.record(1, 0.0);
        // 1000 half-lives later: forces a renormalization.
        let renormed = t.record(2, 1.0);
        assert!(renormed);
        // Exactly one rescale stepped the anchor.
        assert_eq!(t.anchor, RENORM_HALF_LIVES * 0.001);
        assert!(t.weight(2) > t.weight(0));
        assert!(t.weight(0) > t.weight(1));
        let w2 = t.weight_at(2, 1.0);
        assert!((w2 - 1.0).abs() < 1e-9, "fresh access: {w2}");
    }

    #[test]
    fn queue_pops_hottest_first() {
        let mut t = FrequencyTracker::new(4, 10.0);
        let mut q = HeatQueue::new(&t);
        for (block, n) in [(0u32, 1), (1, 3), (2, 2)] {
            for _ in 0..n {
                assert!(!t.record(block as usize, 0.0));
                q.push(block, t.weight(block as usize));
            }
        }
        let (hot, w) = q.pop_max(&t).unwrap();
        assert_eq!((hot, w), (1, 3.0));
        assert_eq!(q.pop_max(&t).unwrap(), (2, 2.0));
        // Re-push and the top is stable.
        q.push(hot, 3.0);
        assert_eq!(q.pop_max(&t).unwrap().0, 1);
    }

    #[test]
    fn stale_entries_are_skipped_and_maintained() {
        let mut t = FrequencyTracker::new(2, 10.0);
        let mut q = HeatQueue::new(&t);
        for i in 0..100 {
            t.record(0, i as f64 * 1e-3);
            q.push(0, t.weight(0));
            q.maintain(&t);
        }
        // 100 pushes against a cap of 8*2+64: must have rebuilt, and the
        // heap stays near one live entry per block.
        assert!(q.heap.len() <= 8 * 2 + 64 + 1);
        assert_eq!(q.pop_max(&t).unwrap().0, 0);
        assert_eq!(q.pop_max(&t).unwrap().0, 1);
        // Drained of valid entries -> None.
        assert!(q.pop_max(&t).is_none());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The anchor-normalized decayed counters order exactly like
        /// brute-force decayed sums under arbitrary access interleavings
        /// and decay rates — including rates small enough that the run
        /// crosses many renormalization boundaries — and the queue tracks
        /// the hottest block through it all.
        #[test]
        fn decayed_counters_preserve_relative_order(
            accesses in prop::collection::vec((0usize..6, 1e-4f64..0.5), 1..120),
            half_life_pick in 0usize..3,
        ) {
            const BLOCKS: usize = 6;
            // Spans gentle decay up to a rate small enough that the run
            // crosses many renormalization boundaries.
            let half_life = [0.001f64, 0.05, 5.0][half_life_pick];
            let mut tracker = FrequencyTracker::new(BLOCKS, half_life);
            let mut queue = HeatQueue::new(&tracker);
            let mut times: Vec<Vec<f64>> = vec![Vec::new(); BLOCKS];
            let mut now = 0.0;
            for &(block, dt) in &accesses {
                now += dt;
                if tracker.record(block, now) {
                    // Renormalization staled every cached weight bit pattern.
                    queue.rebuild(&tracker);
                } else {
                    queue.push(block as u32, tracker.weight(block));
                }
                queue.maintain(&tracker);
                times[block].push(now);
            }
            // Brute force: each access contributes 2^-(age / half_life).
            let brute: Vec<f64> = times
                .iter()
                .map(|ts| ts.iter().map(|t| f64::exp2(-(now - t) / half_life)).sum())
                .collect();
            for (b, &expect) in brute.iter().enumerate() {
                let got = tracker.weight_at(b, now);
                prop_assert!(
                    (got - expect).abs() <= 1e-9 * expect.max(got) + 1e-300,
                    "block {}: weight_at {} vs brute {}",
                    b, got, expect
                );
            }
            // Raw (anchor-normalized) weights order identically wherever the
            // brute-force comparison is decisive.
            for i in 0..BLOCKS {
                for j in 0..BLOCKS {
                    if brute[i] > brute[j] * 1.000_001 && brute[i] > 1e-200 {
                        prop_assert!(
                            tracker.weight(i) > tracker.weight(j),
                            "order flipped: block {} ({} brute {}) vs block {} ({} brute {})",
                            i, tracker.weight(i), brute[i],
                            j, tracker.weight(j), brute[j]
                        );
                    }
                }
            }
            // The queue's top is the live maximum, bit for bit.
            let max_w = (0..BLOCKS).map(|b| tracker.weight(b)).fold(f64::MIN, f64::max);
            let (_, popped_max) = queue.pop_max(&tracker).unwrap();
            prop_assert_eq!(popped_max.to_bits(), max_w.to_bits());
        }
    }
}
