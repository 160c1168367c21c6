//! Online hot/cold block placement with idle-window migration.
//!
//! [`AdaptiveDevice`] closes the loop the paper's static layouts (§5)
//! leave open: the device's own seek model says center cylinders are
//! dramatically cheaper, so the wrapper tracks per-block access
//! frequency with exponential decay ([`FrequencyTracker`]), detects idle
//! windows in the request stream, and swaps hot blocks toward the
//! low-seek-cost center of the LBN space (cold blocks outward) through a
//! block-granular indirection table. It is the *online* counterpart of
//! [`crate::layout::OrganPipeMap`]: same center-out goal arrangement,
//! but reached incrementally from observed traffic instead of from an
//! offline frequency census.
//!
//! Honest billing is the design center: every migration I/O goes through
//! the wrapped device's normal [`StorageDevice::service`] path, so its
//! seek, transfer, and energy cost is real, moves the sled/arm, and is
//! visible to any tracer or heatmap sitting *inside* the wrapper.
//! Migration is preemptible *between* chunk I/Os, the copy-forward
//! idiom cleaners use: an arrival mid-swap defers the remaining chunks
//! to the next idle window, so a foreground request waits for at most
//! one in-flight chunk — and that overlap is billed to it as
//! [`ServiceBreakdown::background_wait`]; an individual chunk is never
//! preempted. Migration traffic is accounted in [`MigrationStats`],
//! separate from foreground response stats, mirroring the
//! rebuild-traffic split in the fleet layer.
//!
//! The policy has one tuning, held in this module's constants; only the
//! block size is public, because callers size their workloads' blocks
//! and fleet stripe units by it. The one choice left is whether to
//! migrate at all. With migration off and the identity initial
//! placement, the wrapper is proven bit-identical to the bare device
//! (`crates/bench/tests/placement.rs`, as
//! `tests/degraded_equivalence.rs` proves a zero-fault
//! `DegradedDevice`).

use std::ops::RangeInclusive;

use storage_sim::{
    FaultKind, IoKind, LogHistogram, PhaseEnergy, PositionOracle, Request, ServiceBreakdown,
    SimTime, StorageDevice, Welford, Workload,
};

use super::frequency::{FrequencyTracker, HeatQueue};
use crate::layout::organ_pipe::center_out_slots;
use crate::layout::OrganPipeMap;

/// Placement granularity in sectors: 512 KB blocks. The indirection
/// table, frequency counters, and migration chunks all work on blocks of
/// this size; a trailing partial block (capacity not divisible by the
/// block size) is left unmanaged at its identity mapping. Coarse blocks
/// matter twice: each hot block collects enough accesses per half-life
/// for its decayed weight to be a low-noise signal (fine blocks thrash —
/// similar-weight hot blocks endlessly displace each other), and the
/// whole working set moves in tens of swaps rather than hundreds.
pub const BLOCK_SECTORS: u32 = 1024;
/// Frequency-decay half-life, seconds: an access loses half its
/// placement weight every second. Well under a shifting hotspot's 15 s
/// epoch, so ex-working-set blocks decay to displaceable within ~1–2 s
/// of the shift and the new set can take over the center early in its
/// epoch.
const HALF_LIFE: f64 = 1.0;
/// Quiet time after the last service completion before the migrator
/// wakes, seconds. Detection is retrospective (this is a simulator):
/// when a request arrives after a gap of at least this long, migration
/// is replayed as having started this long after the device went idle
/// and run until the arrival.
const IDLE_WINDOW: f64 = 4e-3;
/// Block swaps allowed per detected idle period.
const MAX_SWAPS_PER_WINDOW: u32 = 4;
/// A hot block displaces a slot occupant only if its weight exceeds the
/// occupant's by this factor, damping swap thrash between blocks of
/// similar heat.
const HYSTERESIS: f64 = 1.5;
/// A swap must move the hot block at least this many center-out ranks
/// inward. Once the working set is gathered at the center, its internal
/// ordering is irrelevant to seek cost — this floor stops migration
/// bandwidth from being burned on marginal reshuffles inside the set (the
/// weight ordering between two similarly hot blocks is mostly sampling
/// noise anyway). A shifting hotspot's working set is ~220 blocks; once
/// a block is inside the innermost couple hundred ranks, further inward
/// shuffling buys nothing. 64 ranks ≈ 32 cylinders of displacement.
const MIN_RANK_GAIN: u32 = 64;
/// A block is eligible to migrate only while its decayed access count is
/// at least this many recent accesses. The relative [`HYSTERESIS`] bar
/// alone would let a block touched once migrate over a never-touched
/// occupant; this absolute floor keeps one-off touches from consuming
/// migration bandwidth. Hot blocks sustain ~10 decayed accesses; Poisson
/// clustering on warm Zipf-tail blocks rarely spikes past 4, so the floor
/// keeps the tail from buying migrations it cannot repay.
const MIN_HEAT: f64 = 4.0;

/// Migration-side accounting, kept separate from foreground stats so
/// adaptive runs don't pollute foreground p99 comparisons.
#[derive(Debug, Clone)]
pub struct MigrationStats {
    /// Block swaps committed.
    pub swaps: u64,
    /// Idle periods in which at least one swap ran.
    pub windows: u64,
    /// Migration I/Os issued (4 per swap: two reads, two writes).
    pub chunk_ios: u64,
    /// Sectors moved by migration I/O.
    pub sectors: u64,
    /// Device busy time consumed by migration, seconds.
    pub busy_secs: f64,
    /// Energy consumed by migration I/O, joules.
    pub energy_j: f64,
    /// Phase decomposition summed over all migration I/Os.
    pub breakdown_sum: ServiceBreakdown,
    /// Foreground requests that arrived while a migration chunk was in
    /// flight.
    pub waits: u64,
    /// Total foreground wait billed as
    /// [`ServiceBreakdown::background_wait`], seconds.
    pub foreground_wait_secs: f64,
    /// Per-chunk service-time distribution (mean/min/max).
    pub chunk_time: Welford,
    /// Per-chunk service-time tail histogram (mergeable, log-spaced).
    pub chunk_tail: LogHistogram,
}

impl Default for MigrationStats {
    fn default() -> Self {
        Self::new()
    }
}

impl MigrationStats {
    /// All-zero stats, as a freshly built wrapper starts out.
    pub fn new() -> Self {
        MigrationStats {
            swaps: 0,
            windows: 0,
            chunk_ios: 0,
            sectors: 0,
            busy_secs: 0.0,
            energy_j: 0.0,
            breakdown_sum: ServiceBreakdown::default(),
            waits: 0,
            foreground_wait_secs: 0.0,
            chunk_time: Welford::new(),
            chunk_tail: LogHistogram::response_times(),
        }
    }

    /// Folds another ledger into this one (every field is mergeable), so
    /// a fleet of adaptive stations can report one pooled migration
    /// ledger. Exact for counts and histogram bins; float sums follow
    /// accumulation order.
    pub fn accumulate(&mut self, other: &MigrationStats) {
        self.swaps += other.swaps;
        self.windows += other.windows;
        self.chunk_ios += other.chunk_ios;
        self.sectors += other.sectors;
        self.busy_secs += other.busy_secs;
        self.energy_j += other.energy_j;
        self.breakdown_sum.accumulate(&other.breakdown_sum);
        self.waits += other.waits;
        self.foreground_wait_secs += other.foreground_wait_secs;
        self.chunk_time.merge(&other.chunk_time);
        self.chunk_tail.merge(&other.chunk_tail);
    }

    /// The ledger as one compact JSON object, for splicing into the
    /// tracer summaries (`telemetry_report`, `fleet_obs`) so migration
    /// traffic is visible wherever a tracer is attached.
    pub fn summary_json(&self) -> String {
        format!(
            "{{ \"swaps\": {}, \"windows\": {}, \"chunk_ios\": {}, \"sectors\": {}, \
             \"busy_s\": {:.6}, \"energy_j\": {:.6}, \"foreground_waits\": {}, \
             \"foreground_wait_s\": {:.6}, \"chunk_mean_ms\": {:.4}, \
             \"chunk_p99_ms\": {:.4} }}",
            self.swaps,
            self.windows,
            self.chunk_ios,
            self.sectors,
            self.busy_secs,
            self.energy_j,
            self.waits,
            self.foreground_wait_secs,
            self.chunk_time.mean() * 1e3,
            self.chunk_tail.quantile(0.99) * 1e3,
        )
    }
}

/// Migration request ids live in their own namespace (top bit set) so
/// they can never collide with driver-issued foreground ids in a trace.
const MIGRATION_ID_BASE: u64 = 1 << 63;

/// A [`StorageDevice`] wrapper that adaptively migrates hot blocks to
/// the cheap center of the LBN space during idle windows.
///
/// Composes like the other oracle-stack wrappers (`DegradedDevice`,
/// cache, RAID): anything accepting a [`StorageDevice`] can hold an
/// `AdaptiveDevice`, and the wrapped device may itself be a wrapper.
///
/// # Examples
///
/// ```
/// use mems_device::{MemsDevice, MemsParams};
/// use mems_os::placement::AdaptiveDevice;
/// use storage_sim::{IoKind, Request, SimTime, StorageDevice};
///
/// let mut dev = AdaptiveDevice::new(MemsDevice::new(MemsParams::default()), true);
/// let req = Request::new(0, SimTime::ZERO, 40_000, 8, IoKind::Read);
/// let b = dev.service(&req, SimTime::ZERO);
/// assert!(b.total() > 0.0);
/// // Nothing was hot yet, so nothing has migrated.
/// assert_eq!(dev.migration_stats().swaps, 0);
/// ```
#[derive(Debug, Clone)]
pub struct AdaptiveDevice<D> {
    inner: D,
    /// Off, the wrapper never migrates and never bills wait time.
    migrate: bool,
    name: String,
    /// Whole blocks under management; the partial tail block (if any)
    /// stays identity-mapped.
    n_blocks: u32,
    /// Physical slot currently holding each logical block.
    log_to_phys: Vec<u32>,
    /// Logical block currently stored in each physical slot.
    phys_to_log: Vec<u32>,
    /// The placement the wrapper starts from (and resets to).
    initial_log_to_phys: Vec<u32>,
    /// Center-out desirability rank of each physical slot (rank 0 =
    /// cheapest, the center of the LBN space).
    rank_of_slot: Vec<u32>,
    /// Physical slot at each center-out rank.
    slot_at_rank: Vec<u32>,
    tracker: FrequencyTracker,
    heap: HeatQueue,
    /// When the device last finished serving a request, seconds.
    last_busy_end: f64,
    /// A swap whose remaining chunks were deferred by a foreground
    /// arrival; resumed before new picks in the next idle window.
    pending: Option<PendingSwap>,
    next_migration_id: u64,
    stats: MigrationStats,
}

/// A swap mid-flight. The four chunk I/Os (read both homes, write
/// both) run one at a time so an arrival can preempt between them; the
/// permutation flips only when the final write lands. In-flight data
/// sits in a staging buffer, so deferral never loses a block (foreground
/// writes to a block mid-swap merge into the buffer — the standard
/// copy-forward discipline, costless in this model).
#[derive(Debug, Clone, Copy)]
struct PendingSwap {
    hot: u32,
    cold: u32,
    /// Next index into the fixed `[read hot, read cold, write cold,
    /// write hot]` chunk sequence.
    next_chunk: u8,
}

impl<D: StorageDevice> AdaptiveDevice<D> {
    /// Wraps `inner` with the identity initial placement. With `migrate`
    /// off the wrapper never moves a block: at the identity placement it
    /// is bit-identical to the bare device, and with
    /// [`AdaptiveDevice::with_initial_placement`] it serves as the
    /// static-layout baseline.
    ///
    /// # Panics
    ///
    /// Panics if the device has no whole block.
    pub fn new(inner: D, migrate: bool) -> Self {
        let n_blocks =
            u32::try_from(inner.capacity_lbns() / u64::from(BLOCK_SECTORS)).unwrap_or(u32::MAX);
        assert!(n_blocks > 0, "device smaller than one placement block");
        let identity: Vec<u32> = (0..n_blocks).collect();
        // Slots ranked center-out, as OrganPipeMap places them.
        let slot_at_rank: Vec<u32> = center_out_slots(n_blocks as usize)
            .map(|s| s as u32)
            .collect();
        let mut rank_of_slot = vec![0u32; n_blocks as usize];
        for (rank, &slot) in slot_at_rank.iter().enumerate() {
            rank_of_slot[slot as usize] = rank as u32;
        }
        let tracker = FrequencyTracker::new(n_blocks as usize, HALF_LIFE);
        let heap = HeatQueue::new(&tracker);
        AdaptiveDevice {
            name: format!("adaptive({})", inner.name()),
            inner,
            migrate,
            n_blocks,
            log_to_phys: identity.clone(),
            phys_to_log: identity.clone(),
            initial_log_to_phys: identity,
            rank_of_slot,
            slot_at_rank,
            tracker,
            heap,
            last_busy_end: 0.0,
            pending: None,
            next_migration_id: MIGRATION_ID_BASE,
            stats: MigrationStats::new(),
        }
    }

    /// Starts from a precomputed block permutation instead of the
    /// identity — with migration off this *is* the static organ-pipe
    /// baseline, served through the same mapping code as the adaptive
    /// runs.
    ///
    /// # Panics
    ///
    /// Panics if `map` does not cover exactly this wrapper's managed
    /// blocks.
    pub fn with_initial_placement(mut self, map: &OrganPipeMap) -> Self {
        assert_eq!(
            map.len(),
            self.n_blocks as usize,
            "placement map must cover the managed blocks"
        );
        for block in 0..self.n_blocks {
            let slot = u32::try_from(map.physical_of(u64::from(block))).expect("slot fits u32");
            self.log_to_phys[block as usize] = slot;
            self.phys_to_log[slot as usize] = block;
        }
        self.initial_log_to_phys = self.log_to_phys.clone();
        self
    }

    /// The wrapped device.
    pub fn inner(&self) -> &D {
        &self.inner
    }

    /// Migration-side accounting (separate from foreground stats).
    pub fn migration_stats(&self) -> &MigrationStats {
        &self.stats
    }

    /// Offline frequency census: the accesses a whole request stream
    /// makes to each managed block, counted by the same spanning-block
    /// rule the wrapper records heat with. [`OrganPipeMap::build`] turns
    /// it into a map for [`AdaptiveDevice::with_initial_placement`].
    pub fn census(&self, mut workload: impl Workload) -> Vec<f64> {
        let mut freqs = vec![0.0; self.n_blocks as usize];
        while let Some(req) = workload.next_request() {
            for block in self.blocks_of(&req) {
                freqs[block] += 1.0;
            }
        }
        freqs
    }

    /// The managed blocks `req` touches, from its first sector's block to
    /// its last sector's.
    fn blocks_of(&self, req: &Request) -> RangeInclusive<usize> {
        let bs = u64::from(BLOCK_SECTORS);
        let first = req.lbn / bs;
        let last = (req.end_lbn().max(req.lbn + 1) - 1) / bs;
        first as usize..=last.min(u64::from(self.n_blocks) - 1) as usize
    }

    /// Maps a logical request to its physical location. Multi-block
    /// requests are placed by their first sector's block and extend
    /// contiguously from there (block-granular placement approximates
    /// spanning requests), clamped to the device capacity.
    fn map_request(&self, req: &Request) -> Request {
        let bs = u64::from(BLOCK_SECTORS);
        let block = req.lbn / bs;
        if block >= u64::from(self.n_blocks) {
            return *req; // unmanaged tail: identity
        }
        let phys = u64::from(self.log_to_phys[block as usize]) * bs + (req.lbn % bs);
        if phys == req.lbn {
            return *req;
        }
        let sectors = u64::from(req.sectors)
            .min(self.inner.capacity_lbns() - phys)
            .try_into()
            .expect("clamped sectors fit u32");
        Request::new(req.id, req.arrival, phys, sectors, req.kind)
    }

    /// Records heat on every managed block the request touches.
    fn record_heat(&mut self, req: &Request, now_s: f64) {
        for block in self.blocks_of(req) {
            if self.tracker.record(block, now_s) {
                // Renormalization staled every cached weight bit pattern.
                self.heap.rebuild(&self.tracker);
            } else {
                self.heap.push(block as u32, self.tracker.weight(block));
            }
        }
        self.heap.maintain(&self.tracker);
    }

    /// Picks the best (hot block, displaced cold block) swap, or `None`
    /// when no swap clears the hysteresis, rank-gain, and heat bars.
    /// Deterministic: candidate order comes from the heap's (weight,
    /// block-id) ordering and the fixed center-out slot ranking.
    fn pick_swap(&mut self, now_s: f64) -> Option<(u32, u32)> {
        /// Improvable candidates evaluated per pick.
        const HOT_CANDIDATES: usize = 16;
        /// Total heap pops per pick: already-centered blocks dominate
        /// the top of the heap once the set is gathered, and skipping
        /// them must not exhaust the candidate budget — but the walk
        /// has to stay bounded.
        const MAX_POPS: usize = 128;
        let mut popped: Vec<(u32, f64)> = Vec::with_capacity(MAX_POPS);
        let mut best: Option<(f64, u32, u32)> = None;
        let mut examined = 0usize;
        while popped.len() < MAX_POPS && examined < HOT_CANDIDATES {
            let Some((h, wh)) = self.heap.pop_max(&self.tracker) else {
                break;
            };
            // Duplicate live entries are possible after re-pushes; skip.
            if popped.iter().any(|&(b, _)| b == h) {
                continue;
            }
            popped.push((h, wh));
            // The heap walks weight-descending: below the heat floor,
            // everything after is colder still.
            if wh <= 0.0 || self.tracker.weight_at(h as usize, now_s) < MIN_HEAT {
                break;
            }
            let rank_h = self.rank_of_slot[self.log_to_phys[h as usize] as usize];
            // Take the *innermost* slot whose occupant is genuinely
            // cold — below the absolute heat floor, not merely cooler by
            // the hysteresis ratio. Hot blocks therefore displace only
            // non-working-set leftovers, never each other: each block
            // makes one jump to the packing frontier around the center
            // and stays put, so migration bandwidth is never burned
            // reshuffling the ordering *within* the gathered set (which
            // is irrelevant to seek cost) or ratcheting one block inward
            // through repeated small steps. Only slots at least
            // `MIN_RANK_GAIN` ranks inward qualify; an already-centered
            // block is not improvable and does not count against the
            // candidate budget.
            let scan_end = rank_h.saturating_sub(MIN_RANK_GAIN - 1);
            if scan_end == 0 {
                continue;
            }
            examined += 1;
            for r in 0..scan_end {
                let slot = self.slot_at_rank[r as usize];
                let occupant = self.phys_to_log[slot as usize];
                let wo = self.tracker.weight(occupant as usize);
                let wo_now = self.tracker.weight_at(occupant as usize, now_s);
                // Two-threshold hysteresis: entry requires `MIN_HEAT`,
                // eviction requires decaying a hysteresis factor *below*
                // it — otherwise blocks hovering at the threshold evict
                // each other endlessly (the Zipf tail is full of them).
                if wo_now * HYSTERESIS < MIN_HEAT && wh > HYSTERESIS * wo {
                    let gain = (wh - wo) * f64::from(rank_h - r);
                    if best.is_none_or(|(g, _, _)| gain > g) {
                        best = Some((gain, h, occupant));
                    }
                    break;
                }
            }
        }
        for (b, w) in popped {
            self.heap.push(b, w);
        }
        best.map(|(_, h, c)| (h, c))
    }

    /// Services the pending swap's next chunk I/O at `t` (seconds)
    /// through the wrapped device's normal service path — the cost is
    /// real and lands in any tracer or heatmap inside the wrapper. The
    /// permutation flips when the final write lands. Returns the chunk's
    /// duration.
    fn service_chunk(&mut self, t: f64) -> f64 {
        let p = self.pending.expect("a chunk needs a pending swap");
        let slot_hot = self.log_to_phys[p.hot as usize];
        let slot_cold = self.log_to_phys[p.cold as usize];
        let (slot, kind) = match p.next_chunk {
            0 => (slot_hot, IoKind::Read),
            1 => (slot_cold, IoKind::Read),
            2 => (slot_cold, IoKind::Write),
            _ => (slot_hot, IoKind::Write),
        };
        let at = SimTime::from_secs(t);
        let lbn = u64::from(slot) * u64::from(BLOCK_SECTORS);
        let req = Request::new(self.next_migration_id, at, lbn, BLOCK_SECTORS, kind);
        self.next_migration_id += 1;
        let b = self.inner.service(&req, at);
        let energy = self.inner.phase_energy(&b);
        let total = b.total();
        self.stats.chunk_ios += 1;
        self.stats.sectors += u64::from(BLOCK_SECTORS);
        self.stats.busy_secs += total;
        self.stats.energy_j += energy.total();
        self.stats.breakdown_sum.accumulate(&b);
        self.stats.chunk_time.push(total);
        self.stats.chunk_tail.push(total);
        if p.next_chunk == 3 {
            self.log_to_phys.swap(p.hot as usize, p.cold as usize);
            self.phys_to_log.swap(slot_hot as usize, slot_cold as usize);
            self.stats.swaps += 1;
            self.pending = None;
        } else {
            self.pending = Some(PendingSwap {
                next_chunk: p.next_chunk + 1,
                ..p
            });
        }
        total
    }

    /// Replays the migrations of an idle period that started at `start`
    /// and was ended by a foreground arrival at `now_s`: first the
    /// chunks of a swap deferred by the previous arrival, then up to
    /// [`MAX_SWAPS_PER_WINDOW`] fresh picks. Chunks are issued one at a
    /// time, and no new chunk starts at or after `now_s`, so the arrival
    /// waits for at most the one chunk in flight; that overlap is
    /// returned for billing as background wait.
    fn run_idle_window(&mut self, start: f64, now_s: f64) -> f64 {
        let mut t = start;
        let mut started = 0u32;
        let mut any = false;
        while t < now_s {
            if self.pending.is_none() {
                if started >= MAX_SWAPS_PER_WINDOW {
                    break;
                }
                let Some((hot, cold)) = self.pick_swap(now_s) else {
                    break;
                };
                self.pending = Some(PendingSwap {
                    hot,
                    cold,
                    next_chunk: 0,
                });
                started += 1;
            }
            t += self.service_chunk(t);
            any = true;
        }
        if any {
            self.stats.windows += 1;
        }
        if t > now_s {
            let wait = t - now_s;
            self.stats.waits += 1;
            self.stats.foreground_wait_secs += wait;
            wait
        } else {
            0.0
        }
    }
}

impl<D: StorageDevice> PositionOracle for AdaptiveDevice<D> {
    fn position_time(&self, req: &Request, now: SimTime) -> f64 {
        self.inner.position_time(&self.map_request(req), now)
    }

    fn position_bucket(&self, req: &Request) -> u64 {
        self.inner.position_bucket(&self.map_request(req))
    }

    fn current_bucket(&self) -> u64 {
        self.inner.current_bucket()
    }

    fn min_position_time_at_bucket_distance(&self, distance: u64) -> f64 {
        self.inner.min_position_time_at_bucket_distance(distance)
    }

    fn bucket_position_time_floor(&self, bucket: u64) -> f64 {
        self.inner.bucket_position_time_floor(bucket)
    }

    fn rest_key(&self, now: SimTime) -> Option<[u64; 3]> {
        if self.migrate {
            // A swap between two scheduler visits changes position_time
            // for remapped requests without the inner rest state moving,
            // so cached per-bucket winners could go stale: disable the
            // pick cache (always safe).
            None
        } else {
            self.inner.rest_key(now)
        }
    }

    fn prefetch_seek(&self, from_bucket: u64, to_bucket: u64) {
        self.inner.prefetch_seek(from_bucket, to_bucket);
    }
}

impl<D: StorageDevice> StorageDevice for AdaptiveDevice<D> {
    fn name(&self) -> &str {
        &self.name
    }

    fn capacity_lbns(&self) -> u64 {
        self.inner.capacity_lbns()
    }

    fn service(&mut self, req: &Request, now: SimTime) -> ServiceBreakdown {
        let now_s = now.as_secs();
        let mut wait = 0.0;
        if self.migrate && now_s - self.last_busy_end >= IDLE_WINDOW {
            wait = self.run_idle_window(self.last_busy_end + IDLE_WINDOW, now_s);
        }
        self.record_heat(req, now_s);
        let eff = self.map_request(req);
        let start = if wait > 0.0 {
            SimTime::from_secs(now_s + wait)
        } else {
            now
        };
        let mut b = self.inner.service(&eff, start);
        b.background_wait = wait;
        self.last_busy_end = now_s + b.total();
        b
    }

    fn reset(&mut self) {
        self.inner.reset();
        self.log_to_phys.copy_from_slice(&self.initial_log_to_phys);
        for (block, &slot) in self.initial_log_to_phys.iter().enumerate() {
            self.phys_to_log[slot as usize] = block as u32;
        }
        self.tracker.reset();
        self.heap.rebuild(&self.tracker);
        self.last_busy_end = 0.0;
        self.pending = None;
        self.next_migration_id = MIGRATION_ID_BASE;
        self.stats = MigrationStats::new();
    }

    fn phase_energy(&self, breakdown: &ServiceBreakdown) -> PhaseEnergy {
        // `background_wait` is not a mechanical phase of this request
        // (its energy is billed on the migration I/Os themselves), and
        // the inner models only read the explicit phase fields.
        self.inner.phase_energy(breakdown)
    }

    fn on_fault(&mut self, fault: &FaultKind, now: SimTime) {
        self.inner.on_fault(fault, now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mems_device::{MemsDevice, MemsParams};

    fn mems() -> MemsDevice {
        MemsDevice::new(MemsParams::default())
    }

    /// First sector of logical block `block`.
    fn lbn_of(block: u64) -> u64 {
        block * u64::from(BLOCK_SECTORS)
    }

    fn read(id: u64, at_ms: f64, lbn: u64) -> Request {
        Request::new(id, SimTime::from_ms(at_ms), lbn, 8, IoKind::Read)
    }

    /// Center-out desirability rank of logical `block`'s current slot
    /// (0 = the cheapest, center slot).
    fn block_rank<D>(dev: &AdaptiveDevice<D>, block: u32) -> u32 {
        dev.rank_of_slot[dev.log_to_phys[block as usize] as usize]
    }

    #[test]
    fn hot_block_migrates_toward_center() {
        let mut dev = AdaptiveDevice::new(mems(), true);
        // Hammer a block at the far edge of the device, with idle gaps.
        let hot_block = 2u32;
        let lbn = lbn_of(hot_block.into()) + 100;
        let start_rank = block_rank(&dev, hot_block);
        for i in 0..40 {
            let b = dev.service(
                &read(i, 10.0 * i as f64, lbn),
                SimTime::from_ms(10.0 * i as f64),
            );
            assert!(b.total() > 0.0);
        }
        let stats = dev.migration_stats();
        assert!(stats.swaps >= 1, "hot edge block should migrate");
        // 4 chunk I/Os per committed swap, plus up to 3 belonging to a
        // swap still deferred mid-flight.
        assert!(
            stats.chunk_ios >= 4 * stats.swaps && stats.chunk_ios <= 4 * stats.swaps + 3,
            "chunk_ios {} vs swaps {}",
            stats.chunk_ios,
            stats.swaps
        );
        assert!(stats.busy_secs > 0.0);
        assert!(stats.energy_j > 0.0);
        assert!(
            block_rank(&dev, hot_block) < start_rank,
            "rank should improve: {} -> {}",
            start_rank,
            block_rank(&dev, hot_block)
        );
    }

    #[test]
    fn migrated_block_reads_its_new_home() {
        let mut dev = AdaptiveDevice::new(mems(), true);
        let lbn = lbn_of(2) + 100;
        for i in 0..40 {
            dev.service(
                &read(i, 10.0 * i as f64, lbn),
                SimTime::from_ms(10.0 * i as f64),
            );
        }
        assert!(dev.migration_stats().swaps >= 1);
        let slot = dev.log_to_phys[2];
        assert_ne!(slot, 2);
        let eff = dev.map_request(&read(99, 0.0, lbn));
        assert_eq!(eff.lbn, lbn_of(slot.into()) + 100);
        // The mapping is a permutation: some other block now maps to the
        // hot block's old home.
        let displaced = dev.phys_to_log[2];
        assert_eq!(dev.log_to_phys[displaced as usize], 2);
    }

    #[test]
    fn no_migration_without_idle_window() {
        let mut dev = AdaptiveDevice::new(mems(), true);
        // Back-to-back requests, never idle for the 4 ms idle window.
        let mut t = 0.0;
        for i in 0..200 {
            let b = dev.service(&read(i, t * 1e3, lbn_of(2) + 100), SimTime::from_secs(t));
            t += b.total();
        }
        assert_eq!(dev.migration_stats().swaps, 0);
    }

    #[test]
    fn migrate_off_never_swaps_or_waits() {
        let mut dev = AdaptiveDevice::new(mems(), false);
        for i in 0..40 {
            let b = dev.service(
                &read(i, 10.0 * i as f64, lbn_of(5)),
                SimTime::from_ms(10.0 * i as f64),
            );
            assert_eq!(b.background_wait, 0.0);
        }
        assert_eq!(dev.migration_stats().swaps, 0);
        assert_eq!(dev.migration_stats().chunk_ios, 0);
    }

    #[test]
    fn reset_restores_initial_placement_and_stats() {
        let mut dev = AdaptiveDevice::new(mems(), true);
        for i in 0..40 {
            dev.service(
                &read(i, 10.0 * i as f64, lbn_of(5) + 100),
                SimTime::from_ms(10.0 * i as f64),
            );
        }
        assert!(dev.migration_stats().swaps >= 1);
        dev.reset();
        assert_eq!(dev.migration_stats().swaps, 0);
        for block in 0..dev.n_blocks {
            assert_eq!(dev.log_to_phys[block as usize], block);
        }
        assert_eq!(dev.tracker.weight(5), 0.0);
    }

    #[test]
    fn organ_pipe_initial_placement_applies() {
        let base = AdaptiveDevice::new(mems(), true);
        let n = base.n_blocks as usize;
        // Block 7 hottest, everything else uniform.
        let mut freqs = vec![1.0; n];
        freqs[7] = 100.0;
        let map = OrganPipeMap::build(&freqs);
        let dev = AdaptiveDevice::new(mems(), false).with_initial_placement(&map);
        assert_eq!(block_rank(&dev, 7), 0, "hottest block sits at rank 0");
        let req = read(0, 0.0, lbn_of(7) + 5);
        let eff = dev.map_request(&req);
        assert_eq!(eff.lbn, lbn_of(dev.log_to_phys[7].into()) + 5);
    }

    #[test]
    fn spanning_request_extends_contiguously_and_clamps() {
        use storage_sim::ConstantDevice;
        // 10 blocks on a 10-block device; descending frequencies rank
        // block i at center-out rank i, and rank 7 is the last physical
        // slot (slot order 5,6,4,7,3,8,2,9,1,0).
        let freqs: Vec<f64> = (0..10).map(|i| f64::from(10 - i)).collect();
        let map = OrganPipeMap::build(&freqs);
        let dev = AdaptiveDevice::new(ConstantDevice::new(lbn_of(10), 1e-3), false)
            .with_initial_placement(&map);
        assert_eq!(dev.log_to_phys[7], 9);
        // A spanning request from block 7 extends contiguously from its
        // mapped start and clamps at the device capacity.
        let req = Request::new(0, SimTime::ZERO, lbn_of(8) - 5, 10, IoKind::Read);
        let eff = dev.map_request(&req);
        assert_eq!(eff.lbn, lbn_of(10) - 5);
        assert_eq!(eff.sectors, 5, "clamped at capacity");
        // A request that fits keeps its size.
        let req = Request::new(1, SimTime::ZERO, lbn_of(8) - 5, 3, IoKind::Read);
        let eff = dev.map_request(&req);
        assert_eq!((eff.lbn, eff.sectors), (lbn_of(10) - 5, 3));
    }

    #[test]
    fn census_counts_every_managed_block_a_request_spans() {
        use storage_sim::{ConstantDevice, VecWorkload};
        // Three whole blocks and an unmanaged partial tail.
        let dev = AdaptiveDevice::new(ConstantDevice::new(lbn_of(3) + 10, 1e-3), false);
        let at = |id, lbn, sectors| Request::new(id, SimTime::ZERO, lbn, sectors, IoKind::Read);
        let census = dev.census(VecWorkload::new(vec![
            at(0, 0, 8),
            at(1, lbn_of(1) - 4, 8), // spans blocks 0 and 1
            at(2, lbn_of(3) - 4, 8), // block 2, then the tail
            at(3, lbn_of(3) + 2, 8), // the tail alone
        ]));
        assert_eq!(census, vec![2.0, 1.0, 1.0]);
    }
}
