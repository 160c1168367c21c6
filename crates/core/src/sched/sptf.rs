//! Shortest Positioning Time First (SPTF, §4.1–4.2).
//!
//! SPTF asks the device for the actual positioning delay of every pending
//! request and greedily services the cheapest [SCO90, JW91]. On disks the
//! positioning estimate combines seek and rotational latency; on MEMS
//! devices it is `max(X seek + settle, Y seek)` — which is exactly why
//! SPTF beats the LBN-based algorithms there: LBN distance approximates
//! only the X component, and once an LBN-based scheduler has squeezed X
//! seeks down, the Y component (which it cannot see) dominates (§4.2,
//! §4.4).
//!
//! # The pruned scan
//!
//! A full scan runs one closed-form kinematic solve per pending request
//! per pick — O(queue²) solves per simulated second at saturation, the
//! dominant cost of the Fig. 6 sweeps. The pruned scan instead keeps the
//! pending set indexed by the device's *positioning bucket* (the cylinder,
//! for mechanical devices) and expands outward from the bucket under the
//! head, alternating sides nearest-first. Two sound lower bounds terminate
//! the scan early:
//!
//! * [`PositionOracle::min_position_time_at_bucket_distance`] — once the
//!   floor for the next ring exceeds the best exact positioning time
//!   found, no farther request can win and the scan stops;
//! * [`PositionOracle::bucket_position_time_floor`] — a whole bucket is
//!   skipped when its own floor (for MEMS, the exact X-seek + settle)
//!   cannot beat the incumbent.
//!
//! Both prunes fire only on a *strict* excess, and ties between exact
//! scores break on enqueue order, so the pruned pick is bit-identical to
//! the naive full scan ([`NaiveSptfScheduler`], kept as the reference the
//! equivalence tests run against). Devices that do not implement the
//! bucket interface fall back to all-buckets-0, degrading gracefully to
//! the exact full scan.
//!
//! # Incremental candidate maintenance
//!
//! The pruned scheduler keeps its pending requests in one compact index
//! whose memory follows the queue, never the cylinder count: a `Vec` of
//! `(bucket, entry)` keys sorted by bucket, over a slab of entries with a
//! free list. A bucket's requests form one *run* of adjacent keys in
//! enqueue order. The walk splits the keys at the device's current bucket
//! and steps over whole runs outward, nearer side first.
//!
//! [`SptfScheduler`] caches each run's winner in the run's first entry,
//! under the device's [`PositionOracle::rest_key`] — the collision-free
//! fingerprint of everything positioning depends on besides the request.
//! A cached run answers a visit without rescoring any candidate. An
//! arrival into the run or a removal from it invalidates the cache, a
//! reused entry starts invalid, and the whole cache turns over when the
//! rest key changes. Debug builds cross-check every cache hit against a
//! fresh rescan of that run.
//!
//! Before it removes a pick, [`SptfScheduler`] passes the device
//! [`PositionOracle::prefetch_seek`] hints for the seeks from the pick's
//! bucket to the nearest keys on either side: the next walk starts where
//! the pick leaves the device and scores those runs first. The hints
//! change no pick and no counter.

use storage_sim::{PositionOracle, Request, SchedCounters, Scheduler, SimTime};

/// A run's winner `(score, seq, idx)` as scored under cache generation
/// `gen`, with `idx` the winner's offset in the run. Generations start at
/// 1, so `gen` 0 (the default) marks a winner that is not cached.
#[derive(Debug, Clone, Copy, Default)]
struct Winner {
    gen: u64,
    score: f64,
    seq: u64,
    idx: usize,
}

/// One pending request in the slab, with its enqueue sequence number. Only
/// the `winner` of a run's first entry is ever read.
#[derive(Debug)]
struct Entry {
    seq: u64,
    req: Request,
    winner: Winner,
}

/// The pending requests of the pruned scheduler, sized by the queue.
#[derive(Debug, Default)]
struct PendingIndex {
    /// Arrivals not yet bucketed (bucketing needs the device, which
    /// `enqueue` does not see), with their sequence numbers.
    inbox: Vec<(u64, Request)>,
    /// `(bucket, entry)` of every bucketed request, sorted by bucket; each
    /// bucket's run is in enqueue order.
    keys: Vec<(u32, u32)>,
    entries: Vec<Entry>,
    /// Entries that hold no pending request.
    free: Vec<u32>,
    next_seq: u64,
}

impl PendingIndex {
    fn len(&self) -> usize {
        self.inbox.len() + self.keys.len()
    }

    /// Queues an arrival under the next sequence number.
    fn enqueue(&mut self, req: Request) {
        self.inbox.push((self.next_seq, req));
        self.next_seq += 1;
    }

    /// Moves every queued arrival to the end of its bucket's run.
    fn absorb<O: PositionOracle + ?Sized>(&mut self, device: &O) {
        let mut inbox = std::mem::take(&mut self.inbox);
        for (seq, req) in inbox.drain(..) {
            let bucket = u32::try_from(device.position_bucket(&req)).expect("bucket fits u32");
            self.insert(bucket, seq, req);
        }
        self.inbox = inbox;
    }

    /// Appends a request to its bucket's run, uncaching the run's winner.
    fn insert(&mut self, bucket: u32, seq: u64, req: Request) {
        let winner = Winner::default();
        let entry = Entry { seq, req, winner };
        let slot = match self.free.pop() {
            Some(slot) => {
                self.entries[slot as usize] = entry;
                slot
            }
            None => {
                self.entries.push(entry);
                u32::try_from(self.entries.len() - 1).expect("pending count fits u32")
            }
        };
        let start = self.keys.partition_point(|k| k.0 < bucket);
        let end = self.keys.partition_point(|k| k.0 <= bucket);
        if start < end {
            self.entries[self.keys[start].1 as usize].winner.gen = 0;
        }
        self.keys.insert(end, (bucket, slot));
    }

    /// Removes entry `idx` of the run that starts at key `start`, uncaching
    /// the run's winner, and returns its request.
    fn remove(&mut self, start: usize, idx: usize) -> Request {
        let (bucket, slot) = self.keys.remove(start + idx);
        if let Some(&(b, first)) = self.keys.get(start) {
            if b == bucket {
                self.entries[first as usize].winner.gen = 0;
            }
        }
        self.free.push(slot);
        self.entries[slot as usize].req
    }
}

/// Scores every entry of one run, returning the `(score, seq, idx)` winner
/// under the lexicographic `(score, seq)` order.
fn run_best<O: PositionOracle + ?Sized>(
    run: &[(u32, u32)],
    entries: &[Entry],
    device: &O,
    now: SimTime,
) -> (f64, u64, usize) {
    let mut best = (f64::INFINITY, u64::MAX, 0usize);
    for (idx, &(_, slot)) in run.iter().enumerate() {
        let Entry { seq, req, .. } = &entries[slot as usize];
        let s = device.position_time(req, now);
        if s < best.0 || (s == best.0 && *seq < best.1) {
            best = (s, *seq, idx);
        }
    }
    best
}

/// Walks the index outward from the device's current bucket and returns
/// the `(run start, index within run)` of the request with the least
/// positioning time, ties broken by enqueue sequence.
///
/// Run winners cached under generation `gen` answer their runs, and every
/// scored run caches its winner under it. Debug builds cross-check every
/// cache hit against a fresh rescan of the hit run.
fn pruned_best<O: PositionOracle + ?Sized>(
    index: &mut PendingIndex,
    gen: u64,
    device: &O,
    now: SimTime,
    counters: &mut SchedCounters,
) -> Option<(usize, usize)> {
    let (keys, entries) = (&index.keys, &mut index.entries);
    let cur = device.current_bucket();
    // Unvisited runs: `keys[..down]` at or below the current bucket,
    // `keys[up..]` above it.
    let mut down = keys.partition_point(|k| u64::from(k.0) <= cur);
    let mut up = down;
    // (score, seq, run start, index) of the incumbent.
    let mut best: Option<(f64, u64, usize, usize)> = None;
    // The distance floor is deterministic in `dist` for the duration of a
    // pick, and the walk checks it with nondecreasing `dist` — often the
    // same value twice in a row (a down visit then an up visit at equal
    // distance). Memoize the last answer.
    let mut floor_dist = u64::MAX;
    let mut floor_val = 0.0f64;
    loop {
        let d_down = down.checked_sub(1).map(|i| cur - u64::from(keys[i].0));
        let d_up = keys.get(up).map(|k| u64::from(k.0) - cur);
        // Visit the nearer side first (lower bucket on equal distance —
        // the choice cannot affect the result: every unpruned candidate
        // is scored exactly and ties break on enqueue order).
        let (take_down, dist) = match (d_down, d_up) {
            (None, None) => break,
            (Some(a), Some(b)) if a <= b => (true, a),
            (Some(a), None) => (true, a),
            (_, Some(b)) => (false, b),
        };
        if let Some((best_score, ..)) = best {
            if dist != floor_dist {
                floor_val = device.min_position_time_at_bucket_distance(dist);
                floor_dist = dist;
            }
            if floor_val > best_score {
                break;
            }
        }
        let (start, end) = if take_down {
            let (end, bucket) = (down, keys[down - 1].0);
            while down > 0 && keys[down - 1].0 == bucket {
                down -= 1;
            }
            (down, end)
        } else {
            let (start, bucket) = (up, keys[up].0);
            while up < keys.len() && keys[up].0 == bucket {
                up += 1;
            }
            (start, up)
        };
        let run = &keys[start..end];
        if let Some((best_score, ..)) = best {
            if device.bucket_position_time_floor(u64::from(run[0].0)) > best_score {
                counters.buckets_pruned += 1;
                continue;
            }
        }
        let first = run[0].1 as usize;
        let (bs, bseq, bidx) = if entries[first].winner.gen == gen {
            counters.cached_best_hits += 1;
            let w = entries[first].winner;
            #[cfg(debug_assertions)]
            {
                // Cross-check the hit against a fresh rescan of this one
                // run (a full per-pick rescan would defeat the point of the
                // cache even in debug builds).
                let fresh = run_best(run, entries, device, now);
                debug_assert_eq!(
                    (fresh.0.to_bits(), fresh.1, fresh.2),
                    (w.score.to_bits(), w.seq, w.idx),
                    "stale SPTF cached winner for bucket {}",
                    run[0].0
                );
            }
            (w.score, w.seq, w.idx)
        } else {
            counters.candidates_examined += run.len() as u64;
            let (score, seq, idx) = run_best(run, entries, device, now);
            entries[first].winner = Winner {
                gen,
                score,
                seq,
                idx,
            };
            (score, seq, idx)
        };
        // Run-winner-then-compare equals the entrywise comparison: the
        // lexicographic (score, seq) minimum is associative.
        let better = match best {
            None => true,
            Some((best_score, best_seq, ..)) => {
                bs < best_score || (bs == best_score && bseq < best_seq)
            }
        };
        if better {
            best = Some((bs, bseq, start, bidx));
        }
    }
    best.map(|(_, _, start, idx)| (start, idx))
}

/// Keys on each side of a pick whose seeks [`prefetch_next_walk`] hints.
/// Of widths 0, 2, 4 and 8, 4 ran the deep-queue benchmark fastest at the
/// median.
const PREFETCH_KEYS: usize = 4;

/// Hints the device to fetch the seeks from the bucket of key `at`, the
/// pick, to the [`PREFETCH_KEYS`] nearest other keys on each side. The
/// next walk starts where the pick leaves the device and scores those
/// runs first, so their misses overlap the pick's service.
fn prefetch_next_walk<O: PositionOracle + ?Sized>(keys: &[(u32, u32)], at: usize, device: &O) {
    let from = u64::from(keys[at].0);
    let below = keys[..at].iter().rev().take(PREFETCH_KEYS);
    for &(to, _) in below.chain(keys[at + 1..].iter().take(PREFETCH_KEYS)) {
        device.prefetch_seek(from, u64::from(to));
    }
}

/// Greedy shortest-positioning-time scheduler with a pruned, incrementally
/// cached pick.
///
/// Each pick queries [`PositionOracle::position_time`] — the same
/// full-knowledge oracle the paper's simulator gives its SPTF — but only
/// for candidates the bucket bounds cannot exclude, and only in buckets
/// whose cached winner was invalidated since the last pick from the same
/// rest state; the result is always identical to the full scan.
///
/// # Examples
///
/// ```
/// use mems_os::sched::SptfScheduler;
/// use mems_device::{MemsDevice, MemsParams};
/// use storage_sim::{IoKind, Request, Scheduler, SimTime};
///
/// let mut s = SptfScheduler::new();
/// let dev = MemsDevice::new(MemsParams::default());
/// s.enqueue(Request::new(0, SimTime::ZERO, 0, 8, IoKind::Read));
/// s.enqueue(Request::new(1, SimTime::ZERO, 1250 * 2700, 8, IoKind::Read));
/// // The sled starts centered; the center-cylinder request is
/// // mechanically closer and wins.
/// assert_eq!(s.pick(&dev, SimTime::ZERO).unwrap().id, 1);
/// ```
#[derive(Debug, Default)]
pub struct SptfScheduler {
    index: PendingIndex,
    /// Generation of the cached run winners; bumping it uncaches them all.
    gen: u64,
    /// Device rest state the current generation was scored under.
    rest_key: Option<[u64; 3]>,
    counters: SchedCounters,
}

impl SptfScheduler {
    /// Creates an empty scheduler.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Scheduler for SptfScheduler {
    fn name(&self) -> &str {
        "SPTF"
    }

    fn enqueue(&mut self, req: Request) {
        self.index.enqueue(req);
    }

    fn pick<O: PositionOracle + ?Sized>(&mut self, device: &O, now: SimTime) -> Option<Request> {
        // Shallow queues skip the walk, the oracle, and the cache: the lone
        // request (bucketed or not) counts as one pick over one candidate.
        match self.index.len() {
            0 => return None,
            1 => {
                self.counters.picks += 1;
                self.counters.candidates_examined += 1;
                return match self.index.inbox.pop() {
                    Some((_, req)) => Some(req),
                    None => Some(self.index.remove(0, 0)),
                };
            }
            _ => {}
        }
        self.index.absorb(device);
        // A rest key match keeps every cached winner; anything else
        // (including a device without a rest key) turns the cache over.
        let key = device.rest_key(now);
        if key.is_none() || key != self.rest_key {
            self.gen += 1;
            self.rest_key = key;
        }
        let (start, idx) = pruned_best(&mut self.index, self.gen, device, now, &mut self.counters)?;
        self.counters.picks += 1;
        prefetch_next_walk(&self.index.keys, start + idx, device);
        Some(self.index.remove(start, idx))
    }

    fn len(&self) -> usize {
        self.index.len()
    }

    fn counters(&self) -> SchedCounters {
        self.counters
    }
}

/// The exact O(n)-scan SPTF the pruned implementation must match pick for
/// pick: scan every pending request in enqueue order, keep the strict
/// minimum. Retained as the equivalence-test reference and the
/// scheduler micro-benchmark's baseline.
#[derive(Debug, Default)]
pub struct NaiveSptfScheduler {
    pending: Vec<Request>,
    counters: SchedCounters,
}

impl NaiveSptfScheduler {
    /// Creates an empty scheduler.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Scheduler for NaiveSptfScheduler {
    fn name(&self) -> &str {
        "SPTF"
    }

    fn enqueue(&mut self, req: Request) {
        self.pending.push(req);
    }

    fn pick<O: PositionOracle + ?Sized>(&mut self, device: &O, now: SimTime) -> Option<Request> {
        if self.pending.is_empty() {
            return None;
        }
        self.counters.picks += 1;
        self.counters.candidates_examined += self.pending.len() as u64;
        let mut best = 0usize;
        let mut best_time = f64::INFINITY;
        for (i, req) in self.pending.iter().enumerate() {
            let t = device.position_time(req, now);
            if t < best_time {
                best_time = t;
                best = i;
            }
        }
        // Order-preserving removal keeps the scan's tie-break (earliest
        // enqueue wins) stable across picks.
        Some(self.pending.remove(best))
    }

    fn len(&self) -> usize {
        self.pending.len()
    }

    fn counters(&self) -> SchedCounters {
        self.counters
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mems_device::{MemsDevice, MemsParams};
    use std::cell::RefCell;
    use storage_sim::{ConstantDevice, IoKind, StorageDevice};

    fn req(id: u64, lbn: u64) -> Request {
        Request::new(id, SimTime::ZERO, lbn, 8, IoKind::Read)
    }

    #[test]
    fn picks_the_mechanically_cheapest_request() {
        let mut s = SptfScheduler::new();
        let dev = MemsDevice::new(MemsParams::default());
        // Sled centered: LBN at the center cylinder (1250 · 2700) beats
        // both extremes.
        s.enqueue(req(0, 0));
        s.enqueue(req(1, 1250 * 2700));
        s.enqueue(req(2, 2499 * 2700));
        assert_eq!(s.pick(&dev, SimTime::ZERO).unwrap().id, 1);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn pick_agrees_with_position_time_oracle() {
        let mut s = SptfScheduler::new();
        let dev = MemsDevice::new(MemsParams::default());
        let candidates: Vec<Request> = (0..50).map(|i| req(i, i * 67_000 + 13)).collect();
        for r in &candidates {
            s.enqueue(*r);
        }
        let picked = s.pick(&dev, SimTime::ZERO).unwrap();
        let t_picked = dev.position_time(&picked, SimTime::ZERO);
        for r in &candidates {
            assert!(
                dev.position_time(r, SimTime::ZERO) >= t_picked - 1e-15,
                "picked request is not minimal"
            );
        }
    }

    #[test]
    fn empty_queue_returns_none() {
        let mut s = SptfScheduler::new();
        let dev = MemsDevice::new(MemsParams::default());
        assert!(s.pick(&dev, SimTime::ZERO).is_none());
    }

    /// Deterministic LCG stream of in-range LBNs.
    fn lbn_stream(seed: u64, capacity: u64) -> impl FnMut() -> u64 {
        let mut state = seed;
        move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state % (capacity - 8)
        }
    }

    /// Drains two schedulers against twin devices (service is applied to
    /// both so their mechanical states track), asserting identical pick
    /// sequences. Interleaves batches of arrivals with picks so the scan
    /// runs from many different sled states.
    fn assert_pick_equivalence<P: Scheduler, N: Scheduler>(
        mut pruned: P,
        mut naive: N,
        seed: u64,
        use_table: bool,
    ) {
        let mut dev_p = MemsDevice::new(MemsParams::default()).with_seek_table(use_table);
        let mut dev_n = MemsDevice::new(MemsParams::default()).with_seek_table(use_table);
        let mut next_lbn = lbn_stream(seed, dev_p.capacity_lbns());
        let mut id = 0u64;
        let mut now = SimTime::ZERO;
        for batch in 0..40 {
            for _ in 0..16 {
                let r = Request::new(id, now, next_lbn(), 8, IoKind::Read);
                pruned.enqueue(r);
                naive.enqueue(r);
                id += 1;
            }
            // Drain half the queue (all of it on the last batch).
            let drain = if batch == 39 { usize::MAX } else { 8 };
            for _ in 0..drain {
                let (a, b) = (pruned.pick(&dev_p, now), naive.pick(&dev_n, now));
                match (a, b) {
                    (Some(a), Some(b)) => {
                        assert_eq!(a.id, b.id, "pick diverged at t={now:?} (seed {seed})");
                        let done_p = now + dev_p.service(&a, now).total_time();
                        let done_n = now + dev_n.service(&b, now).total_time();
                        assert_eq!(done_p, done_n);
                        now = done_p;
                    }
                    (None, None) => break,
                    (a, b) => panic!("queue length diverged: {a:?} vs {b:?}"),
                }
            }
        }
        assert!(pruned.is_empty() && naive.is_empty());
    }

    /// Runs two schedulers through a stream whose queue depth cycles
    /// through 0, 1, 2, 3, asserting identical picks (including `None` on
    /// the empty queue) and pick counts. A `moving` device is serviced
    /// after every pick; a parked one keeps one rest state throughout, so
    /// a cached winner that outlived its run's last request would be read
    /// back if entry reuse were unsound (debug builds cross-check every
    /// hit).
    fn assert_shallow_equivalence<P: Scheduler, N: Scheduler>(
        mut fast: P,
        mut naive: N,
        seed: u64,
        moving: bool,
    ) {
        let mut dev_f = MemsDevice::new(MemsParams::default());
        let mut dev_n = MemsDevice::new(MemsParams::default());
        let mut next_lbn = lbn_stream(seed, dev_f.capacity_lbns());
        let (mut id, mut now) = (0u64, SimTime::ZERO);
        let mut pick = |fast: &mut P, naive: &mut N, now: &mut SimTime| match (
            fast.pick(&dev_f, *now),
            naive.pick(&dev_n, *now),
        ) {
            (Some(a), Some(b)) => {
                assert_eq!(a.id, b.id, "pick diverged at t={now:?} (seed {seed})");
                if moving {
                    let done = *now + dev_f.service(&a, *now).total_time();
                    assert_eq!(done, *now + dev_n.service(&b, *now).total_time());
                    *now = done;
                }
            }
            (None, None) => {}
            (a, b) => panic!("queue length diverged: {a:?} vs {b:?}"),
        };
        for step in 0..600 {
            let depth = step % 4;
            while fast.len() < depth {
                let r = Request::new(id, now, next_lbn(), 8, IoKind::Read);
                fast.enqueue(r);
                naive.enqueue(r);
                id += 1;
            }
            while fast.len() > depth {
                pick(&mut fast, &mut naive, &mut now);
            }
            pick(&mut fast, &mut naive, &mut now);
        }
        while !fast.is_empty() {
            pick(&mut fast, &mut naive, &mut now);
        }
        assert!(naive.is_empty());
        assert_eq!(fast.counters().picks, id);
        assert_eq!(naive.counters().picks, id);
    }

    #[test]
    fn shallow_queue_picks_match_naive_scan() {
        for seed in [3u64, 0x5EED_0006] {
            for moving in [true, false] {
                assert_shallow_equivalence(
                    SptfScheduler::new(),
                    NaiveSptfScheduler::new(),
                    seed,
                    moving,
                );
            }
        }
        // Every single-entry pick counts one candidate and never scores.
        let dev = MemsDevice::new(MemsParams::default());
        let mut s = SptfScheduler::new();
        assert!(s.pick(&dev, SimTime::ZERO).is_none());
        s.enqueue(req(0, 1234));
        assert_eq!(s.pick(&dev, SimTime::ZERO).unwrap().id, 0);
        let c = s.counters();
        assert_eq!(
            (c.picks, c.candidates_examined, c.cached_best_hits),
            (1, 1, 0)
        );
    }

    #[test]
    fn incremental_sptf_matches_naive_scan_across_seeds() {
        for seed in [1u64, 0xDEAD_BEEF, 0x5EED_0006] {
            assert_pick_equivalence(SptfScheduler::new(), NaiveSptfScheduler::new(), seed, true);
            assert_pick_equivalence(SptfScheduler::new(), NaiveSptfScheduler::new(), seed, false);
        }
    }

    #[test]
    fn pruned_scan_examines_fewer_candidates_than_naive() {
        let dev = MemsDevice::new(MemsParams::default());
        let mut pruned = SptfScheduler::new();
        let mut naive = NaiveSptfScheduler::new();
        let mut next_lbn = lbn_stream(0xC0FFEE, dev.capacity_lbns());
        for i in 0..256 {
            let r = Request::new(i, SimTime::ZERO, next_lbn(), 8, IoKind::Read);
            pruned.enqueue(r);
            naive.enqueue(r);
        }
        while pruned.pick(&dev, SimTime::ZERO).is_some() {
            let _ = naive.pick(&dev, SimTime::ZERO);
        }
        let (cp, cn) = (pruned.counters(), naive.counters());
        assert_eq!(cp.picks, 256);
        assert_eq!(cn.picks, 256);
        // Naive scans the whole queue every pick: 256 + 255 + ... + 1.
        assert_eq!(cn.candidates_examined, 256 * 257 / 2);
        assert!(
            cp.candidates_examined < cn.candidates_examined / 2,
            "prune saved less than half the scans: {} vs {}",
            cp.candidates_examined,
            cn.candidates_examined
        );
        // Every pick resolves each visited bucket exactly once, either by
        // scoring it or from the cache.
        assert!(
            cp.candidates_examined + cp.cached_best_hits >= cp.picks,
            "every pick resolves >= 1 bucket"
        );
        // The device never moves in this drain (no service calls), so the
        // rest key is constant and the incremental cache must fire.
        assert!(
            cp.cached_best_hits > 0,
            "static rest state produced no cache hits"
        );
    }

    #[test]
    fn cache_survives_untouched_buckets_across_arrivals() {
        // Drain-with-interleaved-arrivals from a fixed rest state: only
        // buckets touched by arrivals or removals rescore; the rest hit.
        let dev = MemsDevice::new(MemsParams::default());
        let mut s = SptfScheduler::new();
        let mut next_lbn = lbn_stream(7, dev.capacity_lbns());
        let mut id = 0u64;
        for _ in 0..128 {
            s.enqueue(Request::new(id, SimTime::ZERO, next_lbn(), 8, IoKind::Read));
            id += 1;
        }
        let mut picked = Vec::new();
        for _ in 0..64 {
            picked.push(s.pick(&dev, SimTime::ZERO).unwrap().id);
            s.enqueue(Request::new(id, SimTime::ZERO, next_lbn(), 8, IoKind::Read));
            id += 1;
        }
        // Same stream through the full-scan reference must pick
        // identically.
        let mut r = NaiveSptfScheduler::new();
        let mut next_lbn = lbn_stream(7, dev.capacity_lbns());
        let mut id = 0u64;
        for _ in 0..128 {
            r.enqueue(Request::new(id, SimTime::ZERO, next_lbn(), 8, IoKind::Read));
            id += 1;
        }
        for want in &picked {
            assert_eq!(r.pick(&dev, SimTime::ZERO).unwrap().id, *want);
            r.enqueue(Request::new(id, SimTime::ZERO, next_lbn(), 8, IoKind::Read));
            id += 1;
        }
        assert!(s.counters().cached_best_hits > 0);
    }

    /// Drives 12,500 requests over every cylinder of a moving device, five
    /// visits per cylinder in a scattered order, at a queue depth cycling
    /// through 1..=4. After every step the index may hold no more entries
    /// than the deepest queue so far, and no buffer may have room for more
    /// than twice the deepest queue: nothing is sized by the 2,500
    /// cylinders.
    #[test]
    fn index_footprint_follows_the_queue_not_the_cylinders() {
        const DEPTH: u64 = 4;
        let mut s = SptfScheduler::new();
        let mut dev = MemsDevice::new(MemsParams::default());
        let cylinders = u64::from(dev.geometry().cylinders);
        let per_cylinder = dev.capacity_lbns() / cylinders;
        let mut touched = vec![false; cylinders as usize];
        let (mut now, mut peak) = (SimTime::ZERO, 0);
        for id in 0..5 * cylinders {
            // 1,009 is coprime to 2,500: each block of 2,500 ids is a
            // permutation of the cylinders.
            let cylinder = id * 1_009 % cylinders;
            let lbn = cylinder * per_cylinder + id % 300 * 8;
            assert_eq!(u64::from(dev.cylinder_of_lbn(lbn)), cylinder);
            touched[cylinder as usize] = true;
            s.enqueue(Request::new(id, now, lbn, 8, IoKind::Read));
            peak = peak.max(s.len());
            while s.len() > (id % DEPTH) as usize {
                let r = s.pick(&dev, now).expect("pending request");
                now = now + dev.service(&r, now).total_time();
            }
            let ix = &s.index;
            assert!(ix.entries.len() <= peak, "{} entries", ix.entries.len());
            for cap in [
                ix.inbox.capacity(),
                ix.keys.capacity(),
                ix.entries.capacity(),
                ix.free.capacity(),
            ] {
                assert!(cap <= 2 * DEPTH as usize, "capacity {cap}");
            }
        }
        while s.pick(&dev, now).is_some() {}
        assert_eq!(peak, DEPTH as usize);
        assert!(touched.iter().all(|&t| t));
        assert_eq!(s.counters().picks, 5 * cylinders);
    }

    /// A MEMS device's oracle that records the seek hints it is given and
    /// passes them on when `record` is set, and drops them otherwise.
    struct HintLog<'a> {
        dev: &'a MemsDevice,
        record: bool,
        hints: RefCell<Vec<(u64, u64)>>,
    }

    impl PositionOracle for HintLog<'_> {
        fn position_time(&self, req: &Request, now: SimTime) -> f64 {
            self.dev.position_time(req, now)
        }

        fn position_bucket(&self, req: &Request) -> u64 {
            self.dev.position_bucket(req)
        }

        fn current_bucket(&self) -> u64 {
            self.dev.current_bucket()
        }

        fn min_position_time_at_bucket_distance(&self, distance: u64) -> f64 {
            self.dev.min_position_time_at_bucket_distance(distance)
        }

        fn bucket_position_time_floor(&self, bucket: u64) -> f64 {
            self.dev.bucket_position_time_floor(bucket)
        }

        fn rest_key(&self, now: SimTime) -> Option<[u64; 3]> {
            self.dev.rest_key(now)
        }

        fn prefetch_seek(&self, from_bucket: u64, to_bucket: u64) {
            if self.record {
                self.hints.borrow_mut().push((from_bucket, to_bucket));
                self.dev.prefetch_seek(from_bucket, to_bucket);
            }
        }
    }

    /// Serves interleaved batches of arrivals and picks through a
    /// [`HintLog`] over a moving MEMS device. Every hint must seek from the
    /// pick's bucket to a bucket that still holds a pending request.
    /// Returns the picks, the counters and the number of hints.
    fn hinted_run(record: bool) -> (Vec<u64>, SchedCounters, usize) {
        let mut dev = MemsDevice::new(MemsParams::default());
        let mut s = SptfScheduler::new();
        let mut next_lbn = lbn_stream(0x41B7, dev.capacity_lbns());
        let (mut pending, mut picks, mut hinted) = (Vec::new(), Vec::new(), 0);
        let mut now = SimTime::ZERO;
        for batch in 0..40u64 {
            for i in 0..16 {
                let r = Request::new(batch * 16 + i, now, next_lbn(), 8, IoKind::Read);
                s.enqueue(r);
                pending.push(r);
            }
            // Drain half the queue (all of it on the last batch).
            let drain = if batch == 39 { pending.len() } else { 8 };
            for _ in 0..drain {
                let log = HintLog {
                    dev: &dev,
                    record,
                    hints: RefCell::default(),
                };
                let r = s.pick(&log, now).expect("a pending request");
                pending.retain(|p: &Request| p.id != r.id);
                let hints = log.hints.into_inner();
                assert!(hints.len() <= 2 * PREFETCH_KEYS, "{hints:?}");
                for (from, to) in hints.iter().copied() {
                    assert_eq!(from, dev.position_bucket(&r), "hint from {from}");
                    assert!(
                        pending.iter().any(|p| dev.position_bucket(p) == to),
                        "hint to bucket {to}, which holds no pending request"
                    );
                }
                hinted += hints.len();
                picks.push(r.id);
                now = now + dev.service(&r, now).total_time();
            }
        }
        (picks, s.counters(), hinted)
    }

    #[test]
    fn pick_hints_seek_from_the_pick_to_pending_buckets_and_move_nothing() {
        let (picks, counters, hinted) = hinted_run(true);
        assert!(hinted > 0, "no pick hinted a seek");
        let (silent_picks, silent_counters, none) = hinted_run(false);
        assert_eq!(none, 0);
        assert_eq!(picks, silent_picks);
        assert_eq!(counters, silent_counters);
    }

    #[test]
    fn default_bucket_device_degrades_to_full_scan() {
        // ConstantDevice keeps every request in bucket 0 with zero floors;
        // the pruned scan must still pick the earliest-enqueued minimum
        // (everything ties at position time 0).
        let dev = ConstantDevice::new(1000, 1e-3);
        let mut s = SptfScheduler::new();
        for i in 0..10 {
            s.enqueue(req(i, 990 - i * 7));
        }
        for expect in 0..10 {
            assert_eq!(s.pick(&dev, SimTime::ZERO).unwrap().id, expect);
        }
    }
}
