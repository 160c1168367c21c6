//! The fleet engine: per-station event loops on persistent worker
//! threads, and the deterministic streaming merge of their completions.
//!
//! # Execution model
//!
//! Every leaf device is a **station**: its own request queue, scheduler,
//! and three-slot event loop (a [`Driver`] stepped through the session
//! API). A shared splitter pulls fleet requests from the workload
//! on demand, routes them through the [`VolumeSpec`], and parks each
//! station's sub-I/Os in a ring until that station's driver asks.
//!
//! The stations are split into `threads` contiguous runs, each owned by a
//! **worker** that lives for the whole run inside one `thread::scope`. A
//! worker advances its stations one **batch** at a time: the batch ends at
//! the smallest multiple of `epoch` covering the worker's earliest pending
//! event, and each station steps there with [`Driver::advance_until`].
//! The worker sends the batch's completions, sorted by `(completion time,
//! station, drain order)`, with the batch end over a bounded channel. The
//! main thread emits every received completion at or before the least
//! batch end over the unfinished workers, in that order, and assembles
//! fleet requests from them. With one worker the main thread runs the
//! worker's loop itself: the same loop and merge, no thread, no channel.
//!
//! A full channel blocks its worker, so a worker runs at most the channel
//! depth in batches ahead of the merge. That bounds how far the workers
//! drift apart in sim time, hence how many routed sub-I/Os wait in the
//! splitter's rings: the only memory the engine adds to the stations'.
//!
//! # Determinism guarantee
//!
//! Fleet results are bit-identical for any shard count, worker-thread
//! count, and batch (epoch) width:
//!
//! * routing depends only on the request sequence, so station timelines
//!   are **causally independent**: each station's event sequence is
//!   exactly what a standalone [`Driver::run`] would produce;
//! * `advance_until(end)` processes every event at or before `end`, so a
//!   worker's later batches hold only completions after its last batch
//!   end. Every completion at or before the merge bound has therefore
//!   arrived, and each emitted run is a prefix of the total order
//!   `(completion time, station, drain order)`, whatever the worker
//!   split, batch widths, or thread timing.
//!
//! With one station, the merged stream is the station's own completion
//! order, so a one-station fleet reproduces the single-loop driver bit
//! for bit (asserted by the `fleet_equivalence` integration test).

use std::collections::VecDeque;
use std::sync::mpsc::{sync_channel, RecvError};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use storage_sim::{
    Completion, Driver, FaultClock, IoKind, LogHistogram, NoopTracer, Request, ResponseStats,
    RunState, Scheduler, SimReport, SimTime, StorageDevice, Tracer, VecWorkload, Welford, Workload,
};

use crate::volume::{SubIo, VolumeSpec};

/// Batches a worker may have queued for the merge before `send` blocks
/// it: the engine's run-ahead bound.
const RUN_AHEAD_BATCHES: usize = 4;

/// Fleet execution parameters.
#[derive(Debug, Clone, Copy)]
pub struct FleetConfig {
    /// Contiguous station groups the wall-clock profile reports advance
    /// time for ([`FleetProfile::shard_nanos`]); results are invariant
    /// to it.
    pub shards: usize,
    /// Persistent worker threads, each owning a contiguous run of
    /// stations (capped at the station count; 1 runs everything on the
    /// caller's thread). Results are invariant to it.
    pub threads: usize,
    /// Batch width in sim time: each worker's batches end on multiples
    /// of it. Results are invariant to it.
    pub epoch: SimTime,
    /// Leading foreground completions excluded from fleet statistics.
    pub warmup_requests: u64,
    /// Retain each station's full completion stream in its
    /// [`SimReport`]. Disable for streaming-scale runs: the per-station
    /// vectors are the engine's only O(total-requests) memory term, and
    /// turning them off leaves every aggregate (and the digest) intact.
    pub keep_station_completions: bool,
    /// Use constant-memory response statistics (log-histogram
    /// percentiles) at the fleet level and in every station driver.
    /// Welford-derived fields — and therefore the digest — are
    /// bit-identical either way.
    pub streaming_stats: bool,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            shards: 1,
            threads: 1,
            epoch: SimTime::from_ms(10.0),
            warmup_requests: 0,
            keep_station_completions: true,
            streaming_stats: false,
        }
    }
}

/// Aggregated results of a fleet run.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// Foreground fleet requests completed (after warm-up exclusion).
    pub completed: u64,
    /// Foreground fleet requests completed, warm-up included: the ones
    /// the makespan covers.
    foreground_served: u64,
    /// Background (e.g. rebuild) requests completed.
    pub background_completed: u64,
    /// Per-station sub-I/Os completed, foreground and background.
    pub subs_completed: u64,
    /// Sim-time of the last sub-I/O completion anywhere in the fleet.
    pub makespan: SimTime,
    /// Foreground response times (arrival to last sub), seconds.
    pub response: ResponseStats,
    /// Foreground time-to-first-service, seconds.
    pub queue_time: Welford,
    /// Foreground first-service-to-last-completion, seconds.
    pub service_time: Welford,
    /// Background response times, seconds.
    pub background_response: Welford,
    /// Log-spaced histogram of foreground response times (p99.9 source).
    pub tail: LogHistogram,
    /// Total device busy time across every station, seconds.
    pub busy_secs: f64,
    /// Fault events delivered across the fleet.
    pub fault_events: u64,
    /// Largest scheduler queue depth seen at any station.
    pub max_station_queue_depth: usize,
    /// Event-store restructures summed over stations. Each driver keeps
    /// one fixed slot per event chain, so this is always zero.
    pub station_restructures: u64,
    /// Each station's own [`SimReport`], in station order.
    pub stations: Vec<SimReport>,
}

impl FleetReport {
    /// Fleet throughput in foreground requests per simulated second. The
    /// makespan spans every request, so the warm-up ones count too.
    pub fn throughput(&self) -> f64 {
        let span = self.makespan.as_secs();
        if span > 0.0 {
            self.foreground_served as f64 / span
        } else {
            0.0
        }
    }

    /// Mean station utilization: total busy time over stations x makespan.
    pub fn utilization(&self) -> f64 {
        let span = self.makespan.as_secs() * self.stations.len() as f64;
        if span > 0.0 {
            self.busy_secs / span
        } else {
            0.0
        }
    }

    /// A quantile of the foreground response-time distribution, from the
    /// log-spaced tail histogram (e.g. `0.999` for p99.9).
    pub fn tail_quantile(&self, q: f64) -> f64 {
        self.tail.quantile(q)
    }

    /// A compact bit-exact fingerprint of the run, for determinism
    /// assertions: every float is rendered as its IEEE-754 bit pattern,
    /// so two digests match only if the runs are bit-identical.
    ///
    /// Every public field participates — aggregate moments (mean, spread,
    /// extremes, counts) of each statistic plus an FNV-1a rollup of every
    /// per-station report — so a divergence anywhere in the fleet cannot
    /// slip past the identity tests. The benchmark stores recorded
    /// digests per seed, so a change to this format means re-recording
    /// them.
    pub fn digest(&self) -> String {
        format!(
            "fg={} bg={} subs={} mk={:016x} rn={} rm={:016x} rsd={:016x} rmax={:016x} \
             qm={:016x} qmax={:016x} sm={:016x} smax={:016x} bgn={} bgm={:016x} \
             bgmax={:016x} tn={} ts={:016x} p999={:016x} busy={:016x} faults={} \
             depth={} restr={} st={:016x}",
            self.completed,
            self.background_completed,
            self.subs_completed,
            self.makespan.as_secs().to_bits(),
            self.response.count(),
            self.response.mean().to_bits(),
            self.response.std_dev().to_bits(),
            self.response.max().to_bits(),
            self.queue_time.mean().to_bits(),
            self.queue_time.max().to_bits(),
            self.service_time.mean().to_bits(),
            self.service_time.max().to_bits(),
            self.background_response.count(),
            self.background_response.mean().to_bits(),
            self.background_response.max().to_bits(),
            self.tail.count(),
            self.tail.sum().to_bits(),
            self.tail_quantile(0.999).to_bits(),
            self.busy_secs.to_bits(),
            self.fault_events,
            self.max_station_queue_depth,
            self.station_restructures,
            self.stations_fingerprint(),
        )
    }

    /// FNV-1a hash over every station's report, in station order: counts,
    /// bit patterns of the timing moments, queue and fault counters, and
    /// the per-station completion stream length. Folded into
    /// [`FleetReport::digest`] so per-station divergence (even one that
    /// cancels out in the fleet aggregates) still flips the digest.
    pub fn stations_fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut fold = |v: u64| {
            h ^= v;
            h = h.wrapping_mul(0x100_0000_01b3);
        };
        for s in &self.stations {
            fold(s.completed);
            fold(s.makespan.as_secs().to_bits());
            fold(s.response.count());
            fold(s.response.mean().to_bits());
            fold(s.response.max().to_bits());
            fold(s.queue_time.mean().to_bits());
            fold(s.service_time.mean().to_bits());
            fold(s.breakdown_sum.total().to_bits());
            fold(s.busy_secs.to_bits());
            fold(s.mean_queue_depth.to_bits());
            fold(s.max_queue_depth as u64);
            fold(s.fault_events);
            fold(s.event_queue_restructures);
            fold(s.completions.as_ref().map_or(0, |c| c.len() as u64));
        }
        h
    }
}

/// One station mid-run: its driver, the session loop state, and the time
/// of its earliest pending event (`None` once the station has drained).
struct Cell<S: Scheduler, D: StorageDevice, T: Tracer, W: Workload> {
    driver: Driver<StationFeed<W>, S, D, T>,
    state: RunState,
    next: Option<SimTime>,
}

/// How many sub-I/Os a refill tries to leave in the asking station's
/// buffer: larger batches amortize the splitter lock without affecting
/// simulated results (buffered arrivals enter the event queue one at a
/// time either way).
const REFILL_TARGET: usize = 64;

/// The shared router behind a fleet: pulls fleet-level requests from the
/// workload on demand, routes each through the volume, and parks the
/// resulting sub-I/Os in per-station ring buffers until the owning
/// station's feed asks for them.
///
/// The router emits subs in fleet order (= arrival order) and a station's
/// ring preserves it, so each station sees its subs in arrival order no
/// matter which worker pulls when. Ring occupancy is bounded by routing
/// skew (how many fleet requests must be pulled before the asking station
/// sees one of its own), the refill batch, and the workers' bounded
/// run-ahead — constant for stripe/mirror/parity volumes, where every
/// station appears in every few requests.
struct Splitter<W: Workload> {
    workload: W,
    volume: VolumeSpec,
    rings: Vec<VecDeque<Request>>,
    /// `(expected subs, arrival)` per fleet id, in id order, moved into
    /// the assembler by the merge after each batch it receives.
    meta: Vec<(u32, SimTime)>,
    subs: Vec<SubIo>,
    next_id: u64,
    foreground: u64,
    exhausted: bool,
}

impl<W: Workload> Splitter<W> {
    fn new(workload: W, volume: VolumeSpec, stations: usize, foreground: u64) -> Self {
        Splitter {
            workload,
            volume,
            rings: vec![VecDeque::new(); stations],
            meta: Vec::new(),
            subs: Vec::new(),
            next_id: 0,
            foreground,
            exhausted: false,
        }
    }

    /// Moves everything already ringed for `station` into `local`, then
    /// keeps routing fleet requests until the batch target is met or the
    /// workload is exhausted.
    fn refill(&mut self, station: usize, local: &mut VecDeque<Request>) {
        debug_assert!(local.is_empty());
        std::mem::swap(local, &mut self.rings[station]);
        while local.len() < REFILL_TARGET && !self.exhausted {
            let Some(req) = self.workload.next_request() else {
                self.exhausted = true;
                break;
            };
            assert_eq!(
                req.id, self.next_id,
                "fleet workload ids must be dense 0..n in order"
            );
            assert!(
                self.next_id < self.foreground,
                "fleet workload yielded more requests than its len_hint"
            );
            self.next_id += 1;
            self.subs.clear();
            self.volume.route(&req, &mut self.subs);
            self.meta.push((self.subs.len() as u32, req.arrival));
            for sub in &self.subs {
                let r = Request::new(req.id, req.arrival, sub.lbn, sub.sectors, sub.kind);
                if sub.station == station {
                    local.push_back(r);
                } else {
                    self.rings[sub.station].push_back(r);
                }
            }
        }
    }
}

/// Locks the shared splitter. A worker that panics while holding the
/// lock dooms the run anyway — its lane never finishes, so the merge
/// stops and re-raises that panic — and ignoring the poison keeps the
/// other threads from masking it with a secondary one.
fn lock<W: Workload>(splitter: &Mutex<Splitter<W>>) -> MutexGuard<'_, Splitter<W>> {
    splitter.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A station driver's request source: a buffered tap on the shared
/// [`Splitter`], merged by arrival with the station's own (small,
/// explicit) background stream. Routed requests win arrival ties, so
/// background requests queued for the same instant follow them.
struct StationFeed<W: Workload> {
    station: usize,
    local: VecDeque<Request>,
    background: VecDeque<Request>,
    splitter: Arc<Mutex<Splitter<W>>>,
}

/// `len_hint` stays the default `None`: routed counts are discovered as
/// the run streams, and the driver needs no count to run.
impl<W: Workload> Workload for StationFeed<W> {
    fn next_request(&mut self) -> Option<Request> {
        if self.local.is_empty() {
            lock(&self.splitter).refill(self.station, &mut self.local);
        }
        match (self.local.front(), self.background.front()) {
            (Some(f), Some(b)) if b.arrival < f.arrival => self.background.pop_front(),
            (Some(_), _) => self.local.pop_front(),
            (None, Some(_)) => self.background.pop_front(),
            (None, None) => None,
        }
    }
}

/// In-flight assembly state of one foreground fleet request.
struct Slot {
    remaining: u32,
    arrival: SimTime,
    first_start: SimTime,
    last_end: SimTime,
}

/// Reassembles per-station sub-I/O completions into fleet-level request
/// completions, in the deterministic merged order.
///
/// Foreground requests live in a sliding window keyed by dense fleet id:
/// metadata is appended in id order as the splitter routes, and fully
/// assembled slots are reclaimed from the front, so memory tracks the
/// number of requests in flight, not the run length. Background requests
/// route to exactly one sub, so they bypass the window entirely.
struct Assembler {
    foreground: u64,
    bg_arrivals: Vec<SimTime>,
    base: u64,
    slots: VecDeque<Slot>,
}

/// A fully assembled fleet request: every routed sub-I/O has completed.
struct FleetCompletion {
    id: u64,
    arrival: SimTime,
    first_start: SimTime,
    end: SimTime,
}

impl Assembler {
    fn new(foreground: u64, bg_arrivals: Vec<SimTime>) -> Self {
        Assembler {
            foreground,
            bg_arrivals,
            base: 0,
            slots: VecDeque::new(),
        }
    }

    /// Registers the next fleet request (dense id order): its routed sub
    /// count and arrival time.
    fn push_meta(&mut self, expected: u32, arrival: SimTime) {
        debug_assert!(expected > 0, "routing always produces at least one sub");
        self.slots.push_back(Slot {
            remaining: expected,
            arrival,
            first_start: SimTime::from_secs(f64::INFINITY),
            last_end: SimTime::ZERO,
        });
    }

    /// Feeds one sub-I/O completion; returns the assembled fleet
    /// completion when it was the request's last outstanding sub.
    fn feed(&mut self, c: &Completion) -> Option<FleetCompletion> {
        let id = c.request.id;
        if id >= self.foreground {
            // Background: always a single sub, no assembly needed.
            return Some(FleetCompletion {
                id,
                arrival: self.bg_arrivals[(id - self.foreground) as usize],
                first_start: c.start_service,
                end: c.completion,
            });
        }
        let idx = (id - self.base) as usize;
        let slot = &mut self.slots[idx];
        slot.first_start = slot.first_start.min(c.start_service);
        slot.last_end = slot.last_end.max(c.completion);
        slot.remaining -= 1;
        if slot.remaining == 0 {
            let fc = FleetCompletion {
                id,
                arrival: slot.arrival,
                first_start: slot.first_start,
                end: slot.last_end,
            };
            // Reclaim the assembled prefix of the window.
            while self.slots.front().is_some_and(|s| s.remaining == 0) {
                self.slots.pop_front();
                self.base += 1;
            }
            Some(fc)
        } else {
            None
        }
    }
}

/// One batch of a worker's completions: every completion of its stations
/// after the previous batch's end and at or before `end`, sorted by
/// `(completion time, station, drain order)`.
struct Batch {
    end: SimTime,
    completions: Vec<(Completion, usize)>,
}

/// A persistent worker: a fixed contiguous run of stations, advanced
/// batch by batch on the worker's own epoch grid.
struct Worker<S: Scheduler, D: StorageDevice, T: Tracer, W: Workload> {
    /// Station index of `cells[0]`.
    first: usize,
    cells: Vec<Cell<S, D, T, W>>,
    epoch_secs: f64,
    /// Wall nanoseconds each station spent advancing and draining.
    nanos: Vec<u64>,
}

impl<S: Scheduler, D: StorageDevice, T: Tracer, W: Workload> Worker<S, D, T, W> {
    /// Advances every station to the end of the next batch and returns
    /// the batch, or `None` once all of the worker's stations have
    /// drained.
    fn next_batch(&mut self) -> Option<Batch> {
        let next = self.cells.iter().filter_map(|c| c.next).min()?;
        let grid = SimTime::from_secs((next.as_secs() / self.epoch_secs).ceil() * self.epoch_secs);
        let end = grid.max(next);
        let mut completions = Vec::new();
        // One chained clock read per advanced station: each read closes
        // that station's interval and opens the next one's.
        let mut clock = Instant::now();
        for (i, cell) in self.cells.iter_mut().enumerate() {
            if cell.next.is_some_and(|t| t <= end) {
                cell.driver.advance_until(&mut cell.state, end);
                cell.next = cell.state.next_event_time();
                let station = self.first + i;
                completions.extend(cell.state.drain_completions().map(|c| (c, station)));
                let now = Instant::now();
                self.nanos[i] += (now - clock).as_nanos() as u64;
                clock = now;
            }
        }
        // Stations were drained in order, each in its own completion
        // order, so a stable sort on time alone yields (time, station,
        // drain order).
        completions.sort_by_key(|(c, _)| c.completion);
        Some(Batch { end, completions })
    }
}

/// The merge's view of one worker: completions received but not yet
/// emitted, and the end of the last batch received — `None` before the
/// first, infinite once the worker has sent its last.
#[derive(Default)]
struct Lane {
    pending: VecDeque<(Completion, usize)>,
    frontier: Option<SimTime>,
}

/// The main thread's side of a run: request assembly and report
/// accumulation over the merged completion stream.
struct Merge<W: Workload> {
    splitter: Arc<Mutex<Splitter<W>>>,
    assembler: Assembler,
    report: FleetReport,
    station_completions: Vec<Vec<Completion>>,
    keep_station_completions: bool,
    warmup_requests: u64,
    profile: FleetProfile,
}

impl<W: Workload> Merge<W> {
    /// Merges `lanes` worker streams into the global completion order.
    /// `pull(i)` returns worker `i`'s next batch: `Ok(None)` once it has
    /// finished, `Err` if it died without finishing. Returns `false` as
    /// soon as a worker has died, leaving the report incomplete.
    fn run(
        &mut self,
        lanes: usize,
        mut pull: impl FnMut(usize) -> Result<Option<Batch>, RecvError>,
    ) -> bool {
        let finished = Some(SimTime::from_secs(f64::INFINITY));
        let mut lanes: Vec<Lane> = (0..lanes).map(|_| Lane::default()).collect();
        loop {
            // Pull from the lane holding the merge back: the least
            // frontier (one that has sent nothing holds back everything).
            let (i, lane) = lanes
                .iter()
                .enumerate()
                .min_by_key(|(_, l)| l.frontier)
                .expect("at least one worker");
            if lane.frontier == finished {
                return true;
            }
            let t0 = Instant::now();
            let pulled = pull(i);
            let t1 = Instant::now();
            self.profile.batch_wait.record(t1 - t0);
            match pulled {
                Ok(Some(batch)) => {
                    self.profile.barriers += 1;
                    lanes[i].frontier = Some(batch.end);
                    lanes[i].pending.extend(batch.completions);
                }
                Ok(None) => lanes[i].frontier = finished,
                Err(RecvError) => return false,
            }
            let Some(bound) = lanes.iter().map(|l| l.frontier).min().flatten() else {
                continue;
            };
            // Everything received was routed before it was sent, so its
            // metadata is in the splitter by now.
            for (expected, arrival) in lock(&self.splitter).meta.drain(..) {
                self.assembler.push_meta(expected, arrival);
            }
            // Workers own disjoint stations, so (time, station) keys never
            // tie across lanes.
            loop {
                let mut best: Option<(SimTime, usize, usize)> = None;
                for (k, lane) in lanes.iter().enumerate() {
                    if let Some(&(c, station)) = lane.pending.front() {
                        let key = (c.completion, station, k);
                        if c.completion <= bound && best.is_none_or(|b| key < b) {
                            best = Some(key);
                        }
                    }
                }
                let Some((.., k)) = best else { break };
                let (c, station) = lanes[k].pending.pop_front().expect("lane head");
                self.absorb(c, station);
            }
            self.profile.merge.record(t1.elapsed());
        }
    }

    /// Accounts one sub-I/O completion, in merged order.
    fn absorb(&mut self, c: Completion, station: usize) {
        let report = &mut self.report;
        report.subs_completed += 1;
        if self.keep_station_completions {
            self.station_completions[station].push(c);
        }
        let Some(fc) = self.assembler.feed(&c) else {
            return;
        };
        report.makespan = report.makespan.max(fc.end);
        let response = (fc.end - fc.arrival).as_secs();
        if fc.id < self.assembler.foreground {
            report.foreground_served += 1;
            if report.foreground_served > self.warmup_requests {
                report.completed += 1;
                report.response.push(response);
                report
                    .queue_time
                    .push((fc.first_start - fc.arrival).as_secs());
                report
                    .service_time
                    .push((fc.end - fc.first_start).as_secs());
                report.tail.push(response);
            }
        } else {
            report.background_completed += 1;
            report.background_response.push(response);
        }
    }
}

/// Runs every worker to completion under `merge`, and hands the workers
/// back. One worker runs inline on the caller's thread; more run on
/// persistent threads feeding bounded channels.
///
/// # Panics
///
/// Re-raises the first worker panic (in station order) after every
/// thread has stopped, so a failed run never returns a report built from
/// partial streams.
fn drive<S, D, T, W>(
    mut workers: Vec<Worker<S, D, T, W>>,
    merge: &mut Merge<W>,
) -> Vec<Worker<S, D, T, W>>
where
    S: Scheduler + Send,
    D: StorageDevice + Send,
    T: Tracer + Send,
    W: Workload + Send,
{
    if let [worker] = workers.as_mut_slice() {
        merge.run(1, |_| Ok(worker.next_batch()));
        return workers;
    }
    std::thread::scope(|scope| {
        let mut receivers = Vec::with_capacity(workers.len());
        let mut handles = Vec::with_capacity(workers.len());
        for mut worker in workers {
            let (tx, rx) = sync_channel(RUN_AHEAD_BATCHES);
            receivers.push(rx);
            handles.push(scope.spawn(move || {
                while let Some(batch) = worker.next_batch() {
                    if tx.send(Some(batch)).is_err() {
                        // The merge stopped: another worker died.
                        return worker;
                    }
                }
                let _ = tx.send(None);
                worker
            }));
        }
        let finished = merge.run(receivers.len(), |i| receivers[i].recv());
        // Closing the channels unblocks any worker still sending.
        drop(receivers);
        let workers = handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect();
        assert!(finished, "a fleet worker stopped without finishing");
        workers
    })
}

/// A sharded multi-station fleet simulation.
///
/// Build one with [`FleetEngine::streaming`] (requests pulled
/// incrementally from any [`Workload`], constant memory in the run
/// length; an explicit request list goes in as a [`VecWorkload`]),
/// optionally attach per-station fault clocks and background streams,
/// then [`FleetEngine::run`] it. To observe the run, attach per-station
/// tracers with [`FleetEngine::with_station_tracers`] and use
/// [`FleetEngine::run_instrumented`], which hands the tracers back next
/// to the report. Tracers observe; they never steer — an instrumented
/// run's [`FleetReport`] is bit-identical to an untraced one.
pub struct FleetEngine<
    S: Scheduler,
    D: StorageDevice,
    T: Tracer = NoopTracer,
    W: Workload = VecWorkload,
> {
    devices: Vec<D>,
    schedulers: Vec<S>,
    faults: Vec<FaultClock>,
    tracers: Vec<T>,
    workload: W,
    volume: VolumeSpec,
    /// Per-station background requests (few and explicit), routed around
    /// the volume.
    background: Vec<Vec<Request>>,
    /// Foreground request count; background ids follow this block.
    foreground: u64,
    /// Arrival times of background requests, indexed by `id - foreground`.
    bg_arrivals: Vec<SimTime>,
    config: FleetConfig,
}

/// Everything an instrumented fleet run produces: the aggregate report,
/// each station's tracer (telemetry windows, event rings, …) and
/// post-run device (migration ledgers, degraded maps) in station order,
/// and the engine's own wall-clock profile.
pub struct FleetRun<D: StorageDevice, T: Tracer> {
    /// The aggregate fleet report — bit-identical to an untraced
    /// [`FleetEngine::run`] of the same setup.
    pub report: FleetReport,
    /// Per-station tracers, recovered from the drivers after the run.
    pub tracers: Vec<T>,
    /// Per-station devices after the run — wrapper state such as the
    /// adaptive-placement migration ledger is read from here.
    pub devices: Vec<D>,
    /// The engine's own profile, recorded on every run. Informational,
    /// never part of a byte-gated artifact.
    pub profile: FleetProfile,
}

/// Self-profile of the fleet engine itself: where does the *engine* (as
/// opposed to the stations' event loops) spend host time?
///
/// Recorded on every run, whatever the station tracer: a few clock reads
/// per received batch and one per station advance. Wall-clock data is
/// nondeterministic: informational artifacts only, never part of a golden
/// or digest.
#[derive(Debug, Clone, Default)]
pub struct FleetProfile {
    /// Worker batches the merge received. A pure function of the run's
    /// setup (workload, volume, stations, `threads`, `epoch`), so it
    /// repeats exactly from run to run, and it is positive whenever any
    /// station had an event.
    pub barriers: u64,
    /// Total wall nanoseconds each shard's stations spent advancing and
    /// draining their completions, indexed by shard. Spread here = shard
    /// imbalance.
    pub shard_nanos: Vec<u64>,
    /// Wall time the main thread spent waiting for worker batches (with
    /// one worker: advancing it inline).
    pub batch_wait: ScopeStats,
    /// Wall time spent merging and assembling completions.
    pub merge: ScopeStats,
}

/// Accumulated wall-clock time of one engine scope.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScopeStats {
    /// Times the scope was entered.
    pub calls: u64,
    /// Total wall-clock nanoseconds spent inside the scope.
    pub nanos: u64,
}

impl ScopeStats {
    fn record(&mut self, elapsed: Duration) {
        self.calls += 1;
        self.nanos += elapsed.as_nanos() as u64;
    }

    /// Total seconds spent inside the scope.
    pub fn seconds(&self) -> f64 {
        self.nanos as f64 * 1e-9
    }
}

impl FleetProfile {
    /// Shard imbalance: slowest shard's advance time over the mean
    /// (1.0 = perfectly balanced; 0.0 before any batch).
    pub fn imbalance(&self) -> f64 {
        let max = self.shard_nanos.iter().copied().max().unwrap_or(0);
        if max == 0 {
            return 0.0;
        }
        let mean = self.shard_nanos.iter().sum::<u64>() as f64 / self.shard_nanos.len() as f64;
        max as f64 / mean
    }

    /// The profile as a compact JSON object (informational only).
    pub fn summary_json(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::with_capacity(256);
        let _ = write!(
            s,
            "{{ \"barriers\": {}, \"batch_wait_s\": {:.6}, \"merge_s\": {:.6}, \
             \"shard_imbalance\": {:.4}, \"shard_nanos\": [",
            self.barriers,
            self.batch_wait.seconds(),
            self.merge.seconds(),
            self.imbalance(),
        );
        for (i, n) in self.shard_nanos.iter().enumerate() {
            let _ = write!(s, "{}{n}", if i == 0 { "" } else { ", " });
        }
        s.push_str("] }");
        s
    }
}

impl<S: Scheduler, D: StorageDevice, W: Workload> FleetEngine<S, D, NoopTracer, W> {
    /// Builds a fleet whose foreground requests are pulled incrementally
    /// from `workload` and routed through `volume` on demand — only the
    /// bounded run-ahead window is held, so memory is constant in the run
    /// length — and the [`FleetReport`] is bit-identical at every
    /// shard/thread/epoch split
    /// (gated by the `streaming_equivalence` integration tests).
    ///
    /// The workload must yield requests with ids dense from 0 in arrival
    /// order (every generator in `storage-trace` does; the run panics
    /// otherwise) and must know its exact length: the foreground block
    /// size anchors background id allocation and the
    /// foreground/background billing split.
    ///
    /// # Panics
    ///
    /// Panics if `workload.len_hint()` is `None`, if the volume references
    /// a station outside `devices`, or if the config asks for zero
    /// shards/threads or a non-positive epoch.
    pub fn streaming(
        devices: Vec<D>,
        mut make_scheduler: impl FnMut(usize) -> S,
        volume: VolumeSpec,
        workload: W,
        config: FleetConfig,
    ) -> Self {
        let n = devices.len();
        assert!(n > 0, "fleet needs at least one device");
        assert!(
            volume.max_station() < n,
            "volume references station {} but the fleet has {} devices",
            volume.max_station(),
            n
        );
        assert!(config.shards >= 1, "need at least one shard");
        assert!(config.threads >= 1, "need at least one worker thread");
        assert!(config.epoch > SimTime::ZERO, "epoch must be positive");
        let foreground = workload
            .len_hint()
            .expect("a streaming fleet workload must have an exact len_hint");
        FleetEngine {
            schedulers: (0..n).map(&mut make_scheduler).collect(),
            faults: (0..n).map(|_| FaultClock::empty()).collect(),
            tracers: (0..n).map(|_| NoopTracer).collect(),
            workload,
            volume,
            background: vec![Vec::new(); n],
            foreground,
            bg_arrivals: Vec::new(),
            config,
            devices,
        }
    }
}

impl<S: Scheduler, D: StorageDevice, T: Tracer, W: Workload> FleetEngine<S, D, T, W> {
    /// Attaches one tracer per station (telemetry, ring, pairs, …),
    /// rebinding the engine's tracer type. `make` is called once per
    /// station, in station order. Tracers are observation-only: the
    /// simulated results stay bit-identical to an untraced run (gated by
    /// the `fleet_observability` integration test).
    pub fn with_station_tracers<T2: Tracer>(
        self,
        mut make: impl FnMut(usize) -> T2,
    ) -> FleetEngine<S, D, T2, W> {
        let n = self.devices.len();
        FleetEngine {
            devices: self.devices,
            schedulers: self.schedulers,
            faults: self.faults,
            tracers: (0..n).map(&mut make).collect(),
            workload: self.workload,
            volume: self.volume,
            background: self.background,
            foreground: self.foreground,
            bg_arrivals: self.bg_arrivals,
            config: self.config,
        }
    }

    /// Number of stations.
    pub fn stations(&self) -> usize {
        self.devices.len()
    }

    /// Attaches a fault clock to one station's device.
    pub fn set_station_faults(&mut self, station: usize, clock: FaultClock) {
        self.faults[station] = clock;
    }

    /// Queues a background (rebuild, scrub, migration) sub-I/O directly
    /// on one station, bypassing volume routing. Returns the assigned
    /// fleet id (background ids follow the foreground block). Background
    /// completions are reported separately from foreground statistics.
    pub fn add_background(
        &mut self,
        station: usize,
        at: SimTime,
        lbn: u64,
        sectors: u32,
        kind: IoKind,
    ) -> u64 {
        let id = self.foreground + self.bg_arrivals.len() as u64;
        self.bg_arrivals.push(at);
        self.background[station].push(Request::new(id, at, lbn, sectors, kind));
        id
    }

    /// Runs the fleet to exhaustion and aggregates the report.
    ///
    /// `Send` bounds exist so stations can advance on worker threads;
    /// with `threads == 1` everything runs on the caller's thread.
    pub fn run(self) -> FleetReport
    where
        S: Send,
        D: Send,
        T: Send,
        W: Send,
    {
        self.run_instrumented().report
    }

    /// Runs the fleet and returns the report together with every
    /// station's tracer and the engine's profile.
    ///
    /// The simulation path is exactly [`FleetEngine::run`]'s — tracers
    /// observe through the driver's existing hooks and the profile reads
    /// the host clock without feeding anything back, so the report is
    /// bit-identical to an untraced run.
    ///
    /// # Panics
    ///
    /// Re-raises a panic from any worker (for example on non-dense
    /// request ids) once every thread has stopped.
    pub fn run_instrumented(self) -> FleetRun<D, T>
    where
        S: Send,
        D: Send,
        T: Send,
        W: Send,
    {
        let n = self.devices.len();
        let config = self.config;
        let shards = config.shards.min(n);
        let splitter = Arc::new(Mutex::new(Splitter::new(
            self.workload,
            self.volume,
            n,
            self.foreground,
        )));

        let mut cells = Vec::with_capacity(n);
        for (station, (((device, scheduler), tracer), (mut background, faults))) in self
            .devices
            .into_iter()
            .zip(self.schedulers)
            .zip(self.tracers)
            .zip(self.background.into_iter().zip(self.faults))
            .enumerate()
        {
            // Background requests may be queued in any order; the stable
            // sort keeps insertion order among equal arrivals.
            background.sort_by_key(|r| r.arrival);
            let feed = StationFeed {
                station,
                local: VecDeque::new(),
                background: VecDeque::from(background),
                splitter: Arc::clone(&splitter),
            };
            let mut driver = Driver::new(feed, scheduler, device)
                .with_tracer(tracer)
                .record_completions(true)
                .streaming_stats(config.streaming_stats)
                .with_faults(faults);
            let state = driver.begin();
            let next = state.next_event_time();
            cells.push(Cell {
                driver,
                state,
                next,
            });
        }

        let lanes = config.threads.min(n);
        let mut cells = cells.into_iter();
        let workers = (0..lanes)
            .map(|w| {
                let first = w * n / lanes;
                let len = (w + 1) * n / lanes - first;
                Worker {
                    first,
                    cells: cells.by_ref().take(len).collect(),
                    epoch_secs: config.epoch.as_secs(),
                    nanos: vec![0; len],
                }
            })
            .collect();

        let mut merge = Merge {
            splitter,
            assembler: Assembler::new(self.foreground, self.bg_arrivals),
            report: FleetReport {
                completed: 0,
                foreground_served: 0,
                background_completed: 0,
                subs_completed: 0,
                makespan: SimTime::ZERO,
                response: if config.streaming_stats {
                    ResponseStats::streaming()
                } else {
                    ResponseStats::new()
                },
                queue_time: Welford::new(),
                service_time: Welford::new(),
                background_response: Welford::new(),
                tail: LogHistogram::response_times(),
                busy_secs: 0.0,
                fault_events: 0,
                max_station_queue_depth: 0,
                station_restructures: 0,
                stations: Vec::with_capacity(n),
            },
            station_completions: vec![Vec::new(); n],
            keep_station_completions: config.keep_station_completions,
            warmup_requests: config.warmup_requests,
            profile: FleetProfile::default(),
        };
        let workers = drive(workers, &mut merge);

        let Merge {
            mut report,
            station_completions,
            mut profile,
            ..
        } = merge;
        let mut station_nanos = Vec::with_capacity(n);
        let mut tracers = Vec::with_capacity(n);
        let mut devices = Vec::with_capacity(n);
        let cells = workers.into_iter().flat_map(|w| {
            station_nanos.extend(w.nanos);
            w.cells
        });
        for (cell, completions) in cells.zip(station_completions) {
            let Cell {
                mut driver, state, ..
            } = cell;
            let mut station = driver.finish(state);
            report.busy_secs += station.busy_secs;
            report.fault_events += station.fault_events;
            report.station_restructures += station.event_queue_restructures;
            report.max_station_queue_depth =
                report.max_station_queue_depth.max(station.max_queue_depth);
            station.completions = config.keep_station_completions.then_some(completions);
            report.stations.push(station);
            let (tracer, device) = driver.into_observables();
            tracers.push(tracer);
            devices.push(device);
        }
        profile.shard_nanos = (0..shards)
            .map(|s| {
                station_nanos[s * n / shards..(s + 1) * n / shards]
                    .iter()
                    .sum()
            })
            .collect();
        FleetRun {
            report,
            tracers,
            devices,
            profile,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use storage_sim::{ConstantDevice, FifoScheduler};

    #[test]
    fn throughput_counts_the_warm_up_the_makespan_covers() {
        // Ten 1 ms requests 10 ms apart; the first four are warm-up.
        let reqs = (0..10)
            .map(|i| Request::new(i, SimTime::from_ms(10.0 * i as f64), 8 * i, 8, IoKind::Read))
            .collect();
        let report = FleetEngine::streaming(
            vec![ConstantDevice::new(1_000, 1e-3)],
            |_| FifoScheduler::new(),
            VolumeSpec::leaf(0),
            VecWorkload::new(reqs),
            FleetConfig {
                warmup_requests: 4,
                ..FleetConfig::default()
            },
        )
        .run();
        assert_eq!(report.completed, 6);
        assert_eq!(report.throughput(), 10.0 / report.makespan.as_secs());
    }
}
