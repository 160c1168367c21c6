//! Property-based tests for the OS-management layer's invariants.

use mems_device::{MemsDevice, MemsParams};
use mems_os::fault::{
    crc8, resolve_transient, ReedSolomon, RetryOutcome, RetryPolicy, StripeCodec, TipSector,
};
use mems_os::layout::{
    Allocator, ColumnarLayout, DataClass, Layout, OrganPipeMap, SimpleLayout, SubregionedLayout,
};
use mems_os::placement::{DoublePriorityQueue, FrequencyTracker};
use mems_os::sched::Algorithm;
use proptest::prelude::*;
use storage_sim::{IoKind, Request, Scheduler, SimTime};

proptest! {
    // 64 cases per property: several of these run whole scheduler/codec
    // pipelines per case, and the default 256 makes `cargo test` crawl.
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// RS decode ∘ encode is the identity under any erasure pattern of at
    /// most `m` losses.
    #[test]
    fn rs_recovers_any_erasure_pattern(
        data in prop::collection::vec(any::<u8>(), 16),
        mut losses in prop::collection::hash_set(0usize..20, 0..=4),
    ) {
        let rs = ReedSolomon::new(16, 4);
        let encoded = rs.encode(&data);
        let mut shards: Vec<Option<u8>> = encoded.into_iter().map(Some).collect();
        losses.retain(|&i| i < shards.len());
        for &i in &losses {
            shards[i] = None;
        }
        let decoded = rs.decode(&shards);
        prop_assert_eq!(decoded.as_deref(), Some(data.as_slice()));
    }

    /// Exceeding the parity budget always fails cleanly (no wrong data).
    #[test]
    fn rs_fails_cleanly_beyond_parity(
        data in prop::collection::vec(any::<u8>(), 16),
        start in 0usize..15,
    ) {
        let rs = ReedSolomon::new(16, 4);
        let encoded = rs.encode(&data);
        let mut shards: Vec<Option<u8>> = encoded.into_iter().map(Some).collect();
        for i in 0..5 {
            shards[(start + i * 3) % 20] = None;
        }
        let erased = shards.iter().filter(|s| s.is_none()).count();
        let decoded = rs.decode(&shards);
        if erased > 4 {
            prop_assert_eq!(decoded, None);
        } else {
            prop_assert_eq!(decoded.as_deref(), Some(data.as_slice()));
        }
    }

    /// The stripe codec round-trips any sector under any ≤8-tip damage.
    #[test]
    fn stripe_codec_round_trips(
        seed in any::<u64>(),
        damaged in prop::collection::hash_set(0usize..72, 0..=8),
    ) {
        let codec = StripeCodec::new(8);
        let mut sector = [0u8; 512];
        let mut x = seed | 1;
        for b in sector.iter_mut() {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            *b = (x >> 56) as u8;
        }
        let mut stripe = codec.encode(&sector);
        for &t in &damaged {
            stripe[t].data[(t * 3) % 8] ^= 0x5a;
        }
        prop_assert_eq!(codec.decode(&stripe), Some(sector));
    }

    /// The vertical check catches any nonzero corruption of a tip sector.
    #[test]
    fn vertical_check_detects_any_corruption(
        data in any::<[u8; 8]>(),
        flip in any::<[u8; 8]>(),
    ) {
        prop_assume!(flip.iter().any(|&b| b != 0));
        let ts = TipSector::encode(data);
        let mut bad = ts;
        for (d, f) in bad.data.iter_mut().zip(flip.iter()) {
            *d ^= f;
        }
        // CRC-8 detects all burst errors ≤8 bits and virtually all wider
        // patterns; a same-CRC collision over random flips is possible in
        // principle (p≈1/256) but the deterministic check below uses the
        // actual CRC values.
        if crc8(&bad.data) != crc8(&ts.data) {
            prop_assert!(!bad.verify());
        }
    }

    /// Organ pipe always produces a permutation with the hottest block in
    /// the centermost slot.
    #[test]
    fn organ_pipe_builds_valid_permutations(
        freqs in prop::collection::vec(0.0f64..100.0, 1..200),
    ) {
        let map = OrganPipeMap::build(&freqs);
        let n = freqs.len();
        let mut seen = vec![false; n];
        for b in 0..n as u64 {
            let p = map.physical_of(b);
            prop_assert!(!seen[p as usize]);
            seen[p as usize] = true;
            prop_assert_eq!(map.logical_of(p), b);
        }
        // The hottest block (ties broken by lowest index) sits center.
        let hottest = (0..n)
            .max_by(|&a, &b| freqs[a].partial_cmp(&freqs[b]).unwrap().then(b.cmp(&a)))
            .unwrap();
        prop_assert_eq!(map.physical_of(hottest as u64), (n / 2) as u64);
    }

    /// LBN-based schedulers are conservative: every enqueued request is
    /// picked exactly once, regardless of interleaving.
    #[test]
    fn schedulers_lose_nothing(
        lbns in prop::collection::vec(0u64..6_000_000, 1..60),
        pick_between in prop::collection::vec(prop::bool::ANY, 1..60),
    ) {
        let dev = MemsDevice::new(MemsParams::default());
        for alg in [Algorithm::SstfLbn, Algorithm::Clook, Algorithm::Sptf, Algorithm::Fcfs] {
            let mut s = alg.build();
            let mut picked = Vec::new();
            for (i, &lbn) in lbns.iter().enumerate() {
                s.enqueue(Request::new(i as u64, SimTime::ZERO, lbn, 8, IoKind::Read));
                if *pick_between.get(i).unwrap_or(&false) {
                    if let Some(r) = s.pick(&dev, SimTime::ZERO) {
                        picked.push(r.id);
                    }
                }
            }
            while let Some(r) = s.pick(&dev, SimTime::ZERO) {
                picked.push(r.id);
            }
            picked.sort_unstable();
            let expected: Vec<u64> = (0..lbns.len() as u64).collect();
            prop_assert_eq!(&picked, &expected, "{} lost/duplicated requests", alg.label());
        }
    }

    /// Allocator invariant: live extents never overlap and stay inside
    /// their class regions, across arbitrary alloc/free interleavings.
    #[test]
    fn allocator_extents_never_overlap(
        ops in prop::collection::vec((any::<bool>(), 1u64..200), 1..80),
    ) {
        let layout = SimpleLayout::new(50_000);
        let mut a = Allocator::new(&layout);
        let mut live: Vec<mems_os::layout::Extent> = Vec::new();
        for (free_instead, size) in ops {
            if free_instead && !live.is_empty() {
                let e = live.swap_remove(live.len() / 2);
                a.release(DataClass::Small, e);
            } else if let Some(e) = a.allocate(DataClass::Small, size) {
                prop_assert!(e.end() <= 50_000);
                for other in &live {
                    prop_assert!(
                        e.end() <= other.lbn || other.end() <= e.lbn,
                        "overlap {:?} vs {:?}", e, other
                    );
                }
                live.push(e);
            }
        }
        // Free everything: the region must coalesce back to one run.
        for e in live.drain(..) {
            a.release(DataClass::Small, e);
        }
        prop_assert_eq!(a.free_sectors(DataClass::Small), 50_000);
        prop_assert_eq!(a.fragmentation(DataClass::Small), 0.0);
    }

    /// Every layout keeps its two regions disjoint and large requests
    /// placeable.
    #[test]
    fn layouts_have_disjoint_usable_regions(seed in any::<u64>()) {
        let geom = MemsParams::default().geometry();
        let capacity = geom.total_sectors();
        let layouts: Vec<Box<dyn Layout>> = vec![
            Box::new(SimpleLayout::new(capacity)),
            Box::new(ColumnarLayout::new(&geom)),
            Box::new(SubregionedLayout::new(&geom)),
            Box::new(mems_os::layout::OrganPipeLayout::paper(capacity)),
        ];
        let _ = seed;
        for l in &layouts {
            if l.name() != "simple" {
                for s in l.small_ranges() {
                    for g in l.large_ranges() {
                        prop_assert!(s.end <= g.start || g.end <= s.start);
                    }
                }
            }
            prop_assert!(l.large_ranges().iter().any(|r| r.end - r.start >= 800));
            prop_assert!(l.small_ranges().iter().any(|r| r.end - r.start >= 8));
            for r in l.small_ranges().iter().chain(l.large_ranges()) {
                prop_assert!(r.end <= capacity);
            }
        }
    }

    /// The transient-seek-error retry decision is a pure function of the
    /// seed: identical seeds replay the identical outcome (attempts and
    /// billed delay, bit for bit), and the delay grows with each attempt.
    #[test]
    fn retry_decision_is_deterministic_per_seed(
        seed in any::<u64>(),
        prob_milli in 0u32..=1000,
        penalty_us in 1u32..=2000,
    ) {
        let policy = RetryPolicy::default();
        let prob = f64::from(prob_milli) / 1000.0;
        let penalty = f64::from(penalty_us) * 1e-6;
        let a = resolve_transient(&policy, penalty, prob, &mut storage_sim::rng::seeded(seed));
        let b = resolve_transient(&policy, penalty, prob, &mut storage_sim::rng::seeded(seed));
        prop_assert_eq!(a, b, "same seed must replay the same outcome");
        match a {
            RetryOutcome::Recovered { attempts, delay }
            | RetryOutcome::Exhausted { attempts, delay } => {
                prop_assert!(attempts >= 1 && attempts <= policy.max_retries);
                // Every attempt bills at least the penalty plus first backoff.
                prop_assert!(delay >= f64::from(attempts) * (penalty + policy.backoff(1)) - 1e-15);
            }
        }
    }

    /// Max-retry exhaustion surfaces as an explicit `Exhausted` outcome —
    /// never a silent success — and still bills the time spent trying.
    #[test]
    fn retry_exhaustion_is_never_silent_success(
        seed in any::<u64>(),
        max_retries in 1u32..=8,
    ) {
        let policy = RetryPolicy { max_retries, ..RetryPolicy::default() };
        let out = resolve_transient(&policy, 0.5e-3, 0.0, &mut storage_sim::rng::seeded(seed));
        prop_assert!(!out.recovered(), "zero recovery probability cannot succeed");
        match out {
            RetryOutcome::Exhausted { attempts, delay } => {
                prop_assert_eq!(attempts, max_retries);
                prop_assert!(delay >= f64::from(max_retries) * 0.5e-3);
            }
            RetryOutcome::Recovered { .. } => prop_assert!(false, "silent success"),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The anchor-normalized decayed counters order exactly like
    /// brute-force decayed sums under arbitrary access interleavings and
    /// decay rates — including rates small enough that the run crosses
    /// many renormalization boundaries — and the double-ended priority
    /// queue tracks both extremes through it all.
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
        let mut queue = DoublePriorityQueue::new(&tracker);
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
        // The queue's two ends are the live extremes, bit for bit.
        let max_w = (0..BLOCKS).map(|b| tracker.weight(b)).fold(f64::MIN, f64::max);
        let min_w = (0..BLOCKS).map(|b| tracker.weight(b)).fold(f64::MAX, f64::min);
        let (_, popped_max) = queue.pop_max(&tracker).unwrap();
        let (_, popped_min) = queue.pop_min(&tracker).unwrap();
        prop_assert_eq!(popped_max.to_bits(), max_w.to_bits());
        prop_assert_eq!(popped_min.to_bits(), min_w.to_bits());
    }
}
