//! Benchmark-side timing wrappers around the simulator's layer traits.
//!
//! Each wrapper forwards **every** method of the trait it wraps to the
//! inner value, so the wrapped program makes exactly the same decisions:
//! dropping a defaulted method such as `rest_key` or the bucket floors
//! would silently disable SPTF pruning and the pick cache and measure a
//! different program. Only the methods named in the layer table are timed
//! (`position_time`, `service`, `pick`, `enqueue`, `next_request`); the rest
//! are forwarded untimed and their cost lands in the caller's span.
//!
//! Counters live in [`Span`]s shared through an `Arc` with the benchmark,
//! because the driver and the fleet engine consume schedulers and
//! workloads. One [`StationProbes`] belongs to one station, and a station
//! is advanced by one thread at a time (fleet workers hand stations over
//! at barrier joins), so the counters are plain relaxed load/store pairs:
//! no lock-prefixed read-modify-write on the hot path.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use storage_sim::{
    FaultKind, PhaseEnergy, PositionOracle, Request, SchedCounters, Scheduler, ServiceBreakdown,
    SimTime, StorageDevice, Workload,
};

/// Call count and accumulated host nanoseconds of one timed boundary.
#[derive(Debug, Default)]
pub struct Span {
    calls: AtomicU64,
    nanos: AtomicU64,
}

/// Adds to a counter that only one thread writes at a time (see the
/// module docs); the load/store pair is not a read-modify-write.
fn bump(counter: &AtomicU64, by: u64) {
    counter.store(counter.load(Ordering::Relaxed) + by, Ordering::Relaxed);
}

impl Span {
    /// Runs `f`, recording one call and its wall time.
    #[inline]
    pub fn time<R>(&self, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let r = f();
        let ns = t0.elapsed().as_nanos() as u64;
        bump(&self.calls, 1);
        bump(&self.nanos, ns);
        r
    }

    /// Calls recorded so far.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// Host nanoseconds recorded so far.
    pub fn nanos(&self) -> u64 {
        self.nanos.load(Ordering::Relaxed)
    }
}

/// The timed boundaries of one station: its device and its scheduler.
#[derive(Debug, Default)]
pub struct StationProbes {
    /// `PositionOracle::position_time`, the SPTF seek oracle.
    pub oracle: Span,
    /// `StorageDevice::service`.
    pub service: Span,
    /// `Scheduler::pick`, including the oracle calls nested inside it.
    pub pick: Span,
    /// `Scheduler::enqueue`.
    pub enqueue: Span,
    /// The scheduler's `SchedCounters` after its latest pick, as
    /// `[picks, candidates_examined, buckets_pruned, cached_best_hits]`.
    counters: [AtomicU64; 4],
}

impl StationProbes {
    /// The scheduler's work counters as of its latest pick.
    pub fn sched(&self) -> SchedCounters {
        let [picks, candidates_examined, buckets_pruned, cached_best_hits] =
            self.counters.each_ref().map(|c| c.load(Ordering::Relaxed));
        SchedCounters {
            picks,
            candidates_examined,
            buckets_pruned,
            cached_best_hits,
        }
    }

    fn set_sched(&self, c: SchedCounters) {
        let values = [
            c.picks,
            c.candidates_examined,
            c.buckets_pruned,
            c.cached_best_hits,
        ];
        for (slot, v) in self.counters.iter().zip(values) {
            slot.store(v, Ordering::Relaxed);
        }
    }
}

/// A device whose `position_time` and `service` calls are timed.
pub struct TimedDevice<D> {
    inner: D,
    probes: Arc<StationProbes>,
}

impl<D> TimedDevice<D> {
    /// Wraps `inner`, recording into `probes`.
    pub fn new(inner: D, probes: Arc<StationProbes>) -> Self {
        TimedDevice { inner, probes }
    }
}

impl<D: PositionOracle> PositionOracle for TimedDevice<D> {
    fn position_time(&self, req: &Request, now: SimTime) -> f64 {
        self.probes
            .oracle
            .time(|| self.inner.position_time(req, now))
    }

    fn position_bucket(&self, req: &Request) -> u64 {
        self.inner.position_bucket(req)
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
        self.inner.rest_key(now)
    }
}

impl<D: StorageDevice> StorageDevice for TimedDevice<D> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn capacity_lbns(&self) -> u64 {
        self.inner.capacity_lbns()
    }

    fn service(&mut self, req: &Request, now: SimTime) -> ServiceBreakdown {
        let inner = &mut self.inner;
        self.probes.service.time(|| inner.service(req, now))
    }

    fn reset(&mut self) {
        self.inner.reset();
    }

    fn phase_energy(&self, breakdown: &ServiceBreakdown) -> PhaseEnergy {
        self.inner.phase_energy(breakdown)
    }

    fn on_fault(&mut self, fault: &FaultKind, now: SimTime) {
        self.inner.on_fault(fault, now);
    }
}

/// A scheduler whose `pick` and `enqueue` calls are timed.
pub struct TimedScheduler<S> {
    inner: S,
    probes: Arc<StationProbes>,
}

impl<S> TimedScheduler<S> {
    /// Wraps `inner`, recording into `probes`.
    pub fn new(inner: S, probes: Arc<StationProbes>) -> Self {
        TimedScheduler { inner, probes }
    }
}

impl<S: Scheduler> Scheduler for TimedScheduler<S> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn enqueue(&mut self, req: Request) {
        let inner = &mut self.inner;
        self.probes.enqueue.time(|| inner.enqueue(req));
    }

    fn pick<O: PositionOracle + ?Sized>(&mut self, device: &O, now: SimTime) -> Option<Request> {
        let inner = &mut self.inner;
        let picked = self.probes.pick.time(|| inner.pick(device, now));
        // The driver consumes the scheduler, so its counters are published
        // here, outside the timed span.
        self.probes.set_sched(self.inner.counters());
        picked
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    fn counters(&self) -> SchedCounters {
        self.inner.counters()
    }
}

/// A workload whose `next_request` calls are timed.
pub struct TimedWorkload<W> {
    inner: W,
    span: Arc<Span>,
}

impl<W> TimedWorkload<W> {
    /// Wraps `inner`, recording into `span`.
    pub fn new(inner: W, span: Arc<Span>) -> Self {
        TimedWorkload { inner, span }
    }
}

impl<W: Workload> Workload for TimedWorkload<W> {
    fn next_request(&mut self) -> Option<Request> {
        let inner = &mut self.inner;
        self.span.time(|| inner.next_request())
    }

    fn len_hint(&self) -> Option<u64> {
        self.inner.len_hint()
    }
}

/// Host nanoseconds one empty [`Span::time`] costs, as the median of
/// several batches: the timer overhead every timed call carries.
pub fn empty_span_ns() -> f64 {
    const BATCH: u64 = 200_000;
    let span = Span::default();
    let mut batches: Vec<f64> = (0..7)
        .map(|_| {
            let t0 = Instant::now();
            for i in 0..BATCH {
                span.time(|| std::hint::black_box(i));
            }
            t0.elapsed().as_nanos() as f64 / BATCH as f64
        })
        .collect();
    batches.sort_by(f64::total_cmp);
    batches[batches.len() / 2]
}
