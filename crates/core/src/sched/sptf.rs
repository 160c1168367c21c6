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
//! [`SptfScheduler`] goes one step further than pruning: it keeps the
//! bucket index in a *flat* dense array with an occupancy bitmap (the ring
//! walk becomes bit scans instead of B-tree iterator hops) and caches each
//! bucket's best candidate under the device's [`PositionOracle::rest_key`]
//! — the collision-free fingerprint of everything positioning depends on
//! besides the request. A cached bucket answers a visit without rescoring
//! any candidate; the cache slot is invalidated only when the bucket is
//! touched by an arrival or removal, and the whole cache turns over when
//! the rest key changes. Debug builds cross-check every cache hit against
//! a fresh rescan of that bucket. [`RescanSptfScheduler`] retains the
//! previous B-tree rescan-every-pick implementation as the equivalence
//! reference.
//!
//! [`AgedSptfScheduler`] is the classic aged variant \[WGP94]: each
//! request's positioning estimate is discounted by how long it has waited,
//! bounding starvation at a small average-case cost. The same pruned scan
//! applies with the maximum outstanding age credit
//! (`weight × oldest wait`) folded into the bounds. Aged scores depend on
//! `now`, so the aged pick uses the flat index without the per-bucket
//! cache ([`RescanAgedSptfScheduler`] keeps the B-tree reference).

use std::collections::{BTreeMap, BTreeSet};
use std::ops::Bound;

use storage_sim::{PositionOracle, Request, SchedCounters, Scheduler, SimTime};

/// Pending requests indexed by positioning bucket; entries carry the
/// enqueue sequence number that breaks exact-tie scores.
type BucketIndex = BTreeMap<u64, Vec<(u64, Request)>>;

/// How many emptied bucket `Vec`s a rescan scheduler keeps around for
/// reuse. At steady state a bucket drains and refills once per handful of
/// picks; recycling its allocation removes a malloc/free pair per cycle.
const SPARE_BUCKET_CAP: usize = 64;

/// Expands the bucket index outward from the device's current bucket and
/// returns the `(bucket, index-within-bucket)` of the request minimizing
/// `score(req, position_time)`, ties broken by enqueue sequence.
///
/// `credit_bound` is the largest amount by which any pending request's
/// score may undercut its positioning-time floor (0 for plain SPTF,
/// `weight × oldest wait` for the aged variant).
fn pruned_best<O: PositionOracle + ?Sized, F: Fn(&Request, f64) -> f64>(
    buckets: &BucketIndex,
    device: &O,
    now: SimTime,
    score: F,
    credit_bound: f64,
    counters: &mut SchedCounters,
) -> Option<(u64, usize)> {
    let cur = device.current_bucket();
    let mut down = buckets.range(..=cur).rev().peekable();
    let mut up = buckets
        .range((Bound::Excluded(cur), Bound::Unbounded))
        .peekable();
    // (score, seq, bucket, index) of the incumbent.
    let mut best: Option<(f64, u64, u64, usize)> = None;
    loop {
        let d_down = down.peek().map(|(b, _)| cur - **b);
        let d_up = up.peek().map(|(b, _)| **b - cur);
        // Visit the nearer side first (lower bucket on equal distance —
        // the choice cannot affect the result: every unpruned candidate
        // is scored exactly and ties break on enqueue order).
        let take_down = match (d_down, d_up) {
            (None, None) => break,
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (Some(a), Some(b)) => a <= b,
        };
        let dist = if take_down {
            d_down.unwrap()
        } else {
            d_up.unwrap()
        };
        if let Some((best_score, ..)) = best {
            // Every unexplored bucket on either side is at least `dist`
            // buckets away, and the floor is nondecreasing in distance.
            if device.min_position_time_at_bucket_distance(dist) - credit_bound > best_score {
                break;
            }
        }
        let (&bucket, entries) = if take_down {
            down.next().unwrap()
        } else {
            up.next().unwrap()
        };
        if let Some((best_score, ..)) = best {
            if device.bucket_position_time_floor(bucket) - credit_bound > best_score {
                counters.buckets_pruned += 1;
                continue;
            }
        }
        counters.candidates_examined += entries.len() as u64;
        for (idx, (seq, req)) in entries.iter().enumerate() {
            let s = score(req, device.position_time(req, now));
            let better = match best {
                None => true,
                Some((best_score, best_seq, ..)) => {
                    s < best_score || (s == best_score && *seq < best_seq)
                }
            };
            if better {
                best = Some((s, *seq, bucket, idx));
            }
        }
    }
    best.map(|(_, _, bucket, idx)| (bucket, idx))
}

/// Removes and returns entry `idx` of `bucket`, dropping the bucket when
/// it empties (its allocation is recycled into `spare`). Order within the
/// bucket (enqueue order) is preserved.
fn take_entry(
    buckets: &mut BucketIndex,
    spare: &mut Vec<Vec<(u64, Request)>>,
    bucket: u64,
    idx: usize,
) -> (u64, Request) {
    let entries = buckets.get_mut(&bucket).expect("bucket exists");
    let entry = entries.remove(idx);
    if entries.is_empty() {
        let emptied = buckets.remove(&bucket).expect("bucket exists");
        if spare.len() < SPARE_BUCKET_CAP {
            spare.push(emptied);
        }
    }
    entry
}

/// Moves the arrivals of `inbox` into their positioning buckets, drawing
/// recycled `Vec`s from `spare` for buckets that spring into existence.
/// Sequence numbers grow monotonically, so appending keeps each bucket
/// sorted by enqueue order.
fn index_arrivals<O: PositionOracle + ?Sized>(
    inbox: &mut Vec<(u64, Request)>,
    buckets: &mut BucketIndex,
    spare: &mut Vec<Vec<(u64, Request)>>,
    device: &O,
) {
    for (seq, req) in inbox.drain(..) {
        buckets
            .entry(device.position_bucket(&req))
            .or_insert_with(|| spare.pop().unwrap_or_default())
            .push((seq, req));
    }
}

/// Flat dense bucket index: bucket `b` lives at `buckets[b]`, occupancy is
/// a bitmap, and the outward ring walk of the pruned scan becomes
/// next/previous-set-bit scans instead of B-tree iterator hops.
///
/// Positioning buckets are small dense cylinder indices on every device in
/// the workspace (MEMS: 2500, disks: a few thousand), so the dense array
/// stays tiny; emptied buckets keep their `Vec` allocation in place, which
/// replaces the rescan scheduler's spare-list recycling.
#[derive(Debug, Default)]
struct FlatIndex {
    buckets: Vec<Vec<(u64, Request)>>,
    /// Occupancy bitmap: bit `b` of `words[b / 64]` ⇔ `buckets[b]` nonempty.
    words: Vec<u64>,
}

impl FlatIndex {
    /// Grows the dense array to cover `bucket`.
    fn ensure(&mut self, bucket: usize) {
        if bucket >= self.buckets.len() {
            self.buckets.resize_with(bucket + 1, Vec::new);
            self.words.resize(self.buckets.len().div_ceil(64), 0);
        }
    }

    /// Appends an entry (sequence numbers grow monotonically, so appending
    /// keeps the bucket in enqueue order).
    fn push(&mut self, bucket: usize, seq: u64, req: Request) {
        self.ensure(bucket);
        self.buckets[bucket].push((seq, req));
        self.words[bucket / 64] |= 1u64 << (bucket % 64);
    }

    /// Removes and returns entry `idx` of `bucket`, preserving the order
    /// of the remaining entries and keeping the emptied `Vec` in place.
    fn remove(&mut self, bucket: usize, idx: usize) -> (u64, Request) {
        let entry = self.buckets[bucket].remove(idx);
        if self.buckets[bucket].is_empty() {
            self.words[bucket / 64] &= !(1u64 << (bucket % 64));
        }
        entry
    }

    /// Highest occupied bucket ≤ `from`, if any.
    fn prev_occupied(&self, from: u64) -> Option<usize> {
        if self.buckets.is_empty() {
            return None;
        }
        let from = (from as usize).min(self.buckets.len() - 1);
        let (mut w, off) = (from / 64, from % 64);
        let mut m = self.words[w] & (!0u64 >> (63 - off));
        loop {
            if m != 0 {
                return Some(w * 64 + 63 - m.leading_zeros() as usize);
            }
            if w == 0 {
                return None;
            }
            w -= 1;
            m = self.words[w];
        }
    }

    /// Lowest occupied bucket ≥ `from`, if any.
    fn next_occupied(&self, from: u64) -> Option<usize> {
        let from = from as usize;
        if from >= self.buckets.len() {
            return None;
        }
        let (mut w, off) = (from / 64, from % 64);
        let mut m = self.words[w] & (!0u64 << off);
        loop {
            if m != 0 {
                return Some(w * 64 + m.trailing_zeros() as usize);
            }
            w += 1;
            if w >= self.words.len() {
                return None;
            }
            m = self.words[w];
        }
    }
}

/// One cached per-bucket winner. Valid iff `gen` equals the cache's
/// current generation; a freshly grown or invalidated slot has `gen` 0,
/// which never matches (generations start at 1).
#[derive(Debug, Clone, Copy)]
struct CacheSlot {
    gen: u64,
    score: f64,
    seq: u64,
    idx: usize,
}

const INVALID_SLOT: CacheSlot = CacheSlot {
    gen: 0,
    score: f64::INFINITY,
    seq: u64::MAX,
    idx: 0,
};

/// Per-bucket best-candidate cache keyed on the device rest state.
///
/// A slot holds the winning `(score, seq, idx)` of its bucket as computed
/// under `key` (the device's [`PositionOracle::rest_key`]). The slot
/// answers later visits from the same rest state without rescoring, as
/// long as the bucket itself was not touched by an arrival or removal.
/// Correct only for rest-state-pure scores (plain SPTF's positioning
/// time); aged scores depend on `now` and must not use the cache.
#[derive(Debug, Default)]
struct PickCache {
    slots: Vec<CacheSlot>,
    /// Current generation; bumping it invalidates every slot at once.
    gen: u64,
    key: Option<[u64; 3]>,
}

impl PickCache {
    /// Grows the slot array to match the index (new slots start invalid).
    fn ensure(&mut self, buckets: usize) {
        if buckets > self.slots.len() {
            self.slots.resize(buckets, INVALID_SLOT);
        }
    }

    /// Invalidates one bucket's slot (the bucket's entries changed).
    fn invalidate_bucket(&mut self, bucket: usize) {
        if let Some(slot) = self.slots.get_mut(bucket) {
            slot.gen = 0;
        }
    }

    /// Retunes the cache to the device's rest state at this pick: a key
    /// match keeps every valid slot, anything else (including devices
    /// without a rest key) turns the whole cache over.
    fn sync_key(&mut self, key: Option<[u64; 3]>) {
        match key {
            Some(k) if self.key == Some(k) => {}
            _ => {
                self.gen += 1;
                self.key = key;
            }
        }
    }
}

/// Scores every entry of one bucket, returning the `(score, seq, idx)`
/// winner under the lexicographic `(score, seq)` order.
fn bucket_best<O: PositionOracle + ?Sized, F: Fn(&Request, f64) -> f64>(
    entries: &[(u64, Request)],
    device: &O,
    now: SimTime,
    score: &F,
) -> (f64, u64, usize) {
    let mut best = (f64::INFINITY, u64::MAX, 0usize);
    for (idx, (seq, req)) in entries.iter().enumerate() {
        let s = score(req, device.position_time(req, now));
        if s < best.0 || (s == best.0 && *seq < best.1) {
            best = (s, *seq, idx);
        }
    }
    best
}

/// The flat-index pruned scan: identical visit order, floor comparisons,
/// and tie-breaks to [`pruned_best`], with the ring walk on the occupancy
/// bitmap and (when `cache` is given) per-bucket winners answered from the
/// incremental cache.
///
/// `cache` must be `None` unless `score` depends only on the request and
/// the device rest state (plain SPTF); the caller is responsible for
/// keying and invalidating it. Debug builds cross-check every cache hit
/// against a fresh rescan of the hit bucket.
fn pruned_best_flat<O: PositionOracle + ?Sized, F: Fn(&Request, f64) -> f64>(
    index: &FlatIndex,
    mut cache: Option<&mut PickCache>,
    device: &O,
    now: SimTime,
    score: F,
    credit_bound: f64,
    counters: &mut SchedCounters,
) -> Option<(u64, usize)> {
    let cur = device.current_bucket();
    let mut down = index.prev_occupied(cur);
    let mut up = index.next_occupied(cur + 1);
    // (score, seq, bucket, index) of the incumbent.
    let mut best: Option<(f64, u64, u64, usize)> = None;
    // The distance floor is deterministic in `dist` for the duration of a
    // pick, and the walk checks it with nondecreasing `dist` — often the
    // same value twice in a row (a down visit then an up visit at equal
    // distance). Memoize the last answer.
    let mut floor_dist = u64::MAX;
    let mut floor_val = 0.0f64;
    loop {
        let d_down = down.map(|b| cur - b as u64);
        let d_up = up.map(|b| b as u64 - cur);
        let take_down = match (d_down, d_up) {
            (None, None) => break,
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (Some(a), Some(b)) => a <= b,
        };
        let dist = if take_down {
            d_down.unwrap()
        } else {
            d_up.unwrap()
        };
        if let Some((best_score, ..)) = best {
            if dist != floor_dist {
                floor_val = device.min_position_time_at_bucket_distance(dist);
                floor_dist = dist;
            }
            if floor_val - credit_bound > best_score {
                break;
            }
        }
        let bucket = if take_down {
            let b = down.unwrap();
            down = if b == 0 {
                None
            } else {
                index.prev_occupied(b as u64 - 1)
            };
            b
        } else {
            let b = up.unwrap();
            up = index.next_occupied(b as u64 + 1);
            b
        };
        if let Some((best_score, ..)) = best {
            if device.bucket_position_time_floor(bucket as u64) - credit_bound > best_score {
                counters.buckets_pruned += 1;
                continue;
            }
        }
        let entries = &index.buckets[bucket];
        let (bs, bseq, bidx) = match cache.as_deref_mut() {
            Some(c) if c.slots[bucket].gen == c.gen => {
                counters.cached_best_hits += 1;
                let slot = c.slots[bucket];
                #[cfg(debug_assertions)]
                {
                    // Cross-check the hit against a fresh rescan of this
                    // one bucket (a full per-pick rescan would defeat the
                    // point of the cache even in debug builds).
                    let fresh = bucket_best(entries, device, now, &score);
                    debug_assert_eq!(
                        (fresh.0.to_bits(), fresh.1, fresh.2),
                        (slot.score.to_bits(), slot.seq, slot.idx),
                        "stale SPTF cache slot for bucket {bucket}"
                    );
                }
                (slot.score, slot.seq, slot.idx)
            }
            c => {
                counters.candidates_examined += entries.len() as u64;
                let fresh = bucket_best(entries, device, now, &score);
                if let Some(c) = c {
                    c.slots[bucket] = CacheSlot {
                        gen: c.gen,
                        score: fresh.0,
                        seq: fresh.1,
                        idx: fresh.2,
                    };
                }
                fresh
            }
        };
        // Bucket-winner-then-compare equals the entrywise comparison: the
        // lexicographic (score, seq) minimum is associative.
        let better = match best {
            None => true,
            Some((best_score, best_seq, ..)) => {
                bs < best_score || (bs == best_score && bseq < best_seq)
            }
        };
        if better {
            best = Some((bs, bseq, bucket as u64, bidx));
        }
    }
    best.map(|(_, _, bucket, idx)| (bucket, idx))
}

/// Moves the arrivals of `inbox` into the flat index, invalidating the
/// cache slot of every touched bucket.
fn index_arrivals_flat<O: PositionOracle + ?Sized>(
    inbox: &mut Vec<(u64, Request)>,
    index: &mut FlatIndex,
    mut cache: Option<&mut PickCache>,
    device: &O,
) {
    for (seq, req) in inbox.drain(..) {
        let bucket = usize::try_from(device.position_bucket(&req)).expect("bucket fits usize");
        index.push(bucket, seq, req);
        if let Some(c) = cache.as_deref_mut() {
            c.invalidate_bucket(bucket);
        }
    }
    if let Some(c) = cache {
        c.ensure(index.buckets.len());
    }
}

/// The shallow-queue pick of the flat-index schedulers: `None` with no
/// request pending, the lone request (unbucketed or indexed) with one —
/// counted as one pick over one candidate, nothing scored. Returns `None`
/// when two or more are pending and the scan must run.
fn pick_shallow(
    len: &mut usize,
    counters: &mut SchedCounters,
    inbox: &mut Vec<(u64, Request)>,
    index: &mut FlatIndex,
) -> Option<Option<Request>> {
    match *len {
        0 => Some(None),
        1 => {
            *len = 0;
            counters.picks += 1;
            counters.candidates_examined += 1;
            let (_, req) = inbox.pop().unwrap_or_else(|| {
                let bucket = index.next_occupied(0).expect("one request is indexed");
                index.remove(bucket, 0)
            });
            Some(Some(req))
        }
        _ => None,
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
    /// Arrivals not yet bucketed (bucketing needs the device, which
    /// `enqueue` does not see).
    inbox: Vec<(u64, Request)>,
    index: FlatIndex,
    cache: PickCache,
    len: usize,
    next_seq: u64,
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
        self.inbox.push((self.next_seq, req));
        self.next_seq += 1;
        self.len += 1;
    }

    fn pick<O: PositionOracle + ?Sized>(&mut self, device: &O, now: SimTime) -> Option<Request> {
        // Shallow queues skip the index, the oracle, and the cache. The
        // lone request leaves its bucket's cache slot stale, which is
        // sound: the index is then empty, so every bucket occupied at a
        // later pick received an arrival in between, and each arrival
        // invalidates its bucket's slot before the walk can read it.
        let (inbox, index) = (&mut self.inbox, &mut self.index);
        if let Some(shallow) = pick_shallow(&mut self.len, &mut self.counters, inbox, index) {
            return shallow;
        }
        index_arrivals_flat(
            &mut self.inbox,
            &mut self.index,
            Some(&mut self.cache),
            device,
        );
        self.cache.sync_key(device.rest_key(now));
        let (bucket, idx) = pruned_best_flat(
            &self.index,
            Some(&mut self.cache),
            device,
            now,
            |_, t| t,
            0.0,
            &mut self.counters,
        )?;
        self.counters.picks += 1;
        self.len -= 1;
        let bucket = bucket as usize;
        self.cache.invalidate_bucket(bucket);
        Some(self.index.remove(bucket, idx).1)
    }

    fn len(&self) -> usize {
        self.len
    }

    fn counters(&self) -> SchedCounters {
        self.counters
    }
}

/// The previous pruned SPTF: a B-tree bucket index rescanned on every
/// pick. Retained as the reference [`SptfScheduler`]'s incremental cache
/// is proven against (equivalence tests and `perf_smoke` ladders).
#[derive(Debug, Default)]
pub struct RescanSptfScheduler {
    inbox: Vec<(u64, Request)>,
    buckets: BucketIndex,
    /// Recycled allocations of emptied buckets.
    spare: Vec<Vec<(u64, Request)>>,
    len: usize,
    next_seq: u64,
    counters: SchedCounters,
}

impl RescanSptfScheduler {
    /// Creates an empty scheduler.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Scheduler for RescanSptfScheduler {
    fn name(&self) -> &str {
        "SPTF"
    }

    fn enqueue(&mut self, req: Request) {
        self.inbox.push((self.next_seq, req));
        self.next_seq += 1;
        self.len += 1;
    }

    fn pick<O: PositionOracle + ?Sized>(&mut self, device: &O, now: SimTime) -> Option<Request> {
        index_arrivals(&mut self.inbox, &mut self.buckets, &mut self.spare, device);
        let (bucket, idx) = pruned_best(
            &self.buckets,
            device,
            now,
            |_, t| t,
            0.0,
            &mut self.counters,
        )?;
        self.counters.picks += 1;
        self.len -= 1;
        Some(take_entry(&mut self.buckets, &mut self.spare, bucket, idx).1)
    }

    fn len(&self) -> usize {
        self.len
    }

    fn counters(&self) -> SchedCounters {
        self.counters
    }
}

/// The exact O(n)-scan SPTF the pruned implementations must match pick for
/// pick: scan every pending request in enqueue order, keep the strict
/// minimum. Retained as the equivalence-test reference and the
/// `perf_smoke` baseline.
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

/// Aged SPTF: positioning time minus `weight × wait time` \[WGP94],
/// served by the same flat-index pruned scan as [`SptfScheduler`].
///
/// With `weight = 0` this is plain SPTF; larger weights approach FCFS.
/// A weight in the low single digits (seconds of positioning credit per
/// second of waiting, i.e. dimensionless) bounds starvation effectively.
/// The prune stays sound under aging: the bounds are discounted by the
/// *maximum* credit any pending request has earned (`weight × oldest
/// wait`), tracked via the arrival set. Aged scores depend on `now`, so
/// the per-bucket winner cache does not apply.
#[derive(Debug)]
pub struct AgedSptfScheduler {
    inbox: Vec<(u64, Request)>,
    index: FlatIndex,
    /// `(arrival, seq)` of every pending request; the first entry gives
    /// the oldest wait, hence the largest possible age credit.
    arrivals: BTreeSet<(SimTime, u64)>,
    len: usize,
    next_seq: u64,
    weight: f64,
    name: String,
    counters: SchedCounters,
}

impl AgedSptfScheduler {
    /// Creates an aged SPTF scheduler with the given aging weight.
    ///
    /// # Panics
    ///
    /// Panics if `weight` is negative or not finite.
    pub fn new(weight: f64) -> Self {
        assert!(weight.is_finite() && weight >= 0.0, "weight must be >= 0");
        AgedSptfScheduler {
            inbox: Vec::new(),
            index: FlatIndex::default(),
            arrivals: BTreeSet::new(),
            len: 0,
            next_seq: 0,
            weight,
            name: format!("SPTF-aged({weight})"),
            counters: SchedCounters::default(),
        }
    }
}

impl Scheduler for AgedSptfScheduler {
    fn name(&self) -> &str {
        &self.name
    }

    fn enqueue(&mut self, req: Request) {
        self.arrivals.insert((req.arrival, self.next_seq));
        self.inbox.push((self.next_seq, req));
        self.next_seq += 1;
        self.len += 1;
    }

    fn pick<O: PositionOracle + ?Sized>(&mut self, device: &O, now: SimTime) -> Option<Request> {
        // Shallow queues skip the index and the oracle, as in SPTF.
        let (inbox, index) = (&mut self.inbox, &mut self.index);
        if let Some(shallow) = pick_shallow(&mut self.len, &mut self.counters, inbox, index) {
            self.arrivals.clear();
            return shallow;
        }
        index_arrivals_flat(&mut self.inbox, &mut self.index, None, device);
        let credit_bound = match self.arrivals.first() {
            Some(&(oldest, _)) => self.weight * (now - oldest).as_secs().max(0.0),
            None => return None,
        };
        let weight = self.weight;
        let score = |req: &Request, t: f64| {
            let wait = (now - req.arrival).as_secs().max(0.0);
            t - weight * wait
        };
        let (bucket, idx) = pruned_best_flat(
            &self.index,
            None,
            device,
            now,
            score,
            credit_bound,
            &mut self.counters,
        )?;
        self.counters.picks += 1;
        let (seq, req) = self.index.remove(bucket as usize, idx);
        self.arrivals.remove(&(req.arrival, seq));
        self.len -= 1;
        Some(req)
    }

    fn len(&self) -> usize {
        self.len
    }

    fn counters(&self) -> SchedCounters {
        self.counters
    }
}

/// The previous pruned aged SPTF on the B-tree bucket index, the
/// reference for [`AgedSptfScheduler`]'s flat-index pick.
#[derive(Debug)]
pub struct RescanAgedSptfScheduler {
    inbox: Vec<(u64, Request)>,
    buckets: BucketIndex,
    /// Recycled allocations of emptied buckets.
    spare: Vec<Vec<(u64, Request)>>,
    /// `(arrival, seq)` of every pending request; the first entry gives
    /// the oldest wait, hence the largest possible age credit.
    arrivals: BTreeSet<(SimTime, u64)>,
    len: usize,
    next_seq: u64,
    weight: f64,
    name: String,
    counters: SchedCounters,
}

impl RescanAgedSptfScheduler {
    /// Creates an aged SPTF scheduler with the given aging weight.
    ///
    /// # Panics
    ///
    /// Panics if `weight` is negative or not finite.
    pub fn new(weight: f64) -> Self {
        assert!(weight.is_finite() && weight >= 0.0, "weight must be >= 0");
        RescanAgedSptfScheduler {
            inbox: Vec::new(),
            buckets: BTreeMap::new(),
            spare: Vec::new(),
            arrivals: BTreeSet::new(),
            len: 0,
            next_seq: 0,
            weight,
            name: format!("SPTF-aged({weight})"),
            counters: SchedCounters::default(),
        }
    }
}

impl Scheduler for RescanAgedSptfScheduler {
    fn name(&self) -> &str {
        &self.name
    }

    fn enqueue(&mut self, req: Request) {
        self.arrivals.insert((req.arrival, self.next_seq));
        self.inbox.push((self.next_seq, req));
        self.next_seq += 1;
        self.len += 1;
    }

    fn pick<O: PositionOracle + ?Sized>(&mut self, device: &O, now: SimTime) -> Option<Request> {
        index_arrivals(&mut self.inbox, &mut self.buckets, &mut self.spare, device);
        let credit_bound = match self.arrivals.first() {
            Some(&(oldest, _)) => self.weight * (now - oldest).as_secs().max(0.0),
            None => return None,
        };
        let weight = self.weight;
        let score = |req: &Request, t: f64| {
            let wait = (now - req.arrival).as_secs().max(0.0);
            t - weight * wait
        };
        let (bucket, idx) = pruned_best(
            &self.buckets,
            device,
            now,
            score,
            credit_bound,
            &mut self.counters,
        )?;
        self.counters.picks += 1;
        let (seq, req) = take_entry(&mut self.buckets, &mut self.spare, bucket, idx);
        self.arrivals.remove(&(req.arrival, seq));
        self.len -= 1;
        Some(req)
    }

    fn len(&self) -> usize {
        self.len
    }

    fn counters(&self) -> SchedCounters {
        self.counters
    }
}

/// The exact O(n)-scan aged SPTF, the reference for
/// [`AgedSptfScheduler`]'s pruned pick.
#[derive(Debug)]
pub struct NaiveAgedSptfScheduler {
    pending: Vec<Request>,
    weight: f64,
    name: String,
    counters: SchedCounters,
}

impl NaiveAgedSptfScheduler {
    /// Creates a naive aged SPTF scheduler with the given aging weight.
    ///
    /// # Panics
    ///
    /// Panics if `weight` is negative or not finite.
    pub fn new(weight: f64) -> Self {
        assert!(weight.is_finite() && weight >= 0.0, "weight must be >= 0");
        NaiveAgedSptfScheduler {
            pending: Vec::new(),
            weight,
            name: format!("SPTF-aged({weight})"),
            counters: SchedCounters::default(),
        }
    }
}

impl Scheduler for NaiveAgedSptfScheduler {
    fn name(&self) -> &str {
        &self.name
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
        let mut best_score = f64::INFINITY;
        for (i, req) in self.pending.iter().enumerate() {
            let wait = (now - req.arrival).as_secs().max(0.0);
            let score = device.position_time(req, now) - self.weight * wait;
            if score < best_score {
                best_score = score;
                best = i;
            }
        }
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
    fn aged_sptf_with_zero_weight_matches_sptf() {
        let dev = MemsDevice::new(MemsParams::default());
        let mut plain = SptfScheduler::new();
        let mut aged = AgedSptfScheduler::new(0.0);
        for i in 0..20 {
            let r = req(i, (i * 997_001) % 6_000_000);
            plain.enqueue(r);
            aged.enqueue(r);
        }
        while let (Some(a), Some(b)) = (
            plain.pick(&dev, SimTime::ZERO),
            aged.pick(&dev, SimTime::ZERO),
        ) {
            assert_eq!(a.id, b.id);
        }
        assert!(plain.is_empty() && aged.is_empty());
    }

    #[test]
    fn aging_promotes_old_requests() {
        let dev = MemsDevice::new(MemsParams::default());
        let mut aged = AgedSptfScheduler::new(1.0);
        // An old, mechanically distant request vs a fresh nearby one.
        let old = Request::new(0, SimTime::ZERO, 2499 * 2700, 8, IoKind::Read);
        let fresh = Request::new(1, SimTime::from_secs(10.0), 1250 * 2700, 8, IoKind::Read);
        aged.enqueue(old);
        aged.enqueue(fresh);
        // At t = 10 s the old request has earned 10 s of credit — far more
        // than any positioning difference.
        assert_eq!(aged.pick(&dev, SimTime::from_secs(10.0)).unwrap().id, 0);
    }

    #[test]
    #[should_panic(expected = "weight")]
    fn negative_weight_rejected() {
        let _ = AgedSptfScheduler::new(-1.0);
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
    /// cache slots left stale by single-entry picks would be read back if
    /// the short-circuit were unsound (debug builds cross-check every hit).
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
                assert_shallow_equivalence(
                    AgedSptfScheduler::new(1.5),
                    NaiveAgedSptfScheduler::new(1.5),
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
    fn incremental_sptf_matches_rescan_across_seeds() {
        for seed in [1u64, 0xDEAD_BEEF, 0x5EED_0006] {
            assert_pick_equivalence(SptfScheduler::new(), RescanSptfScheduler::new(), seed, true);
        }
    }

    #[test]
    fn rescan_sptf_matches_naive_scan_across_seeds() {
        for seed in [1u64, 0x5EED_0006] {
            assert_pick_equivalence(
                RescanSptfScheduler::new(),
                NaiveSptfScheduler::new(),
                seed,
                true,
            );
        }
    }

    #[test]
    fn aged_sptf_matches_naive_scan_across_seeds() {
        for seed in [2u64, 42, 0x5EED_0006] {
            for weight in [0.5, 3.0] {
                assert_pick_equivalence(
                    AgedSptfScheduler::new(weight),
                    NaiveAgedSptfScheduler::new(weight),
                    seed,
                    true,
                );
            }
        }
    }

    #[test]
    fn aged_sptf_matches_rescan_across_seeds() {
        for seed in [2u64, 0x5EED_0006] {
            for weight in [0.5, 3.0] {
                assert_pick_equivalence(
                    AgedSptfScheduler::new(weight),
                    RescanAgedSptfScheduler::new(weight),
                    seed,
                    true,
                );
            }
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
        // Same stream through the rescan reference must pick identically.
        let mut r = RescanSptfScheduler::new();
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
