//! The simulation driver: couples a workload, a scheduler, and a device.
//!
//! The driver runs the classic open-queueing storage simulation: requests
//! arrive from the workload, wait in the scheduler's pending set while the
//! device is busy, and each time the device goes idle the scheduler elects
//! the next request given the device's mechanical state (this is where
//! SPTF's positioning-time oracle gets consulted). One device, one
//! outstanding request — the configuration used throughout the paper.
//!
//! That configuration bounds the pending events at three, one per chain:
//! the next arrival, the completion in service and the next fault. A
//! chain schedules its next event only once its pending one has fired, so
//! the loop keeps one slot per chain instead of a priority queue and pops
//! the least `(time, seq)`, where `seq` counts pushes — the order in which
//! every stable event queue pops.
//!
//! While the queue is shallow, the driver also hints the device
//! ([`crate::PositionOracle::prefetch_seek`]) with a seek it will answer
//! three or four requests later: the seek between two arrivals it already
//! holds in its look-ahead buffer. A hint changes no state and no result.

use std::collections::VecDeque;

use crate::device::{ServiceBreakdown, StorageDevice};
use crate::fault::{FaultClock, FaultKind};
use crate::overload::OverloadPolicy;
use crate::request::{Completion, Request};
use crate::sched::{SchedCounters, Scheduler};
use crate::stats::{ResponseStats, Welford};
use crate::time::SimTime;
use crate::tracer::{NoopTracer, Tracer};
use crate::workload::Workload;

/// Buffered arrivals the arrival-stream seek hint skips: handling arrival
/// `r`, with `r + 1` pending as an event, the driver hints the seek from
/// `lookahead_buf[HINT_AHEAD]` into the arrival after it, the seek into
/// arrival `r + 3 + HINT_AHEAD`. Depths 0, 1 and 2 ran perfbench's
/// `fifo_stream` within noise of each other; 1 had the best median (6.27 M
/// simulated requests/s against 6.11 M and 6.22 M, 10 rotations).
const HINT_AHEAD: usize = 1;

/// Fewest buffered arrivals a pull may start from: the one it pops, the
/// [`HINT_AHEAD`] the hint skips, then the hinted pair. A pull that finds
/// fewer refills the buffer first.
const LOOKAHEAD_FLOOR: usize = HINT_AHEAD + 3;

/// Aggregated results of a simulation run.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Number of completed requests (after warm-up exclusion).
    pub completed: u64,
    /// Simulated time of the last completion.
    pub makespan: SimTime,
    /// Response time (queue + service) statistics, in seconds.
    pub response: ResponseStats,
    /// Queue-time statistics, in seconds.
    pub queue_time: Welford,
    /// Service-time statistics, in seconds.
    pub service_time: Welford,
    /// Sum of the service components of every request serviced, warm-up
    /// requests included: for means, divide by the number serviced, which
    /// exceeds `completed` whenever there is a warm-up.
    pub breakdown_sum: ServiceBreakdown,
    /// Total time the device spent servicing requests, in seconds.
    pub busy_secs: f64,
    /// Time-averaged number of requests in the scheduler queue.
    pub mean_queue_depth: f64,
    /// Largest queue depth observed.
    pub max_queue_depth: usize,
    /// Fault events delivered to the device during the run.
    pub fault_events: u64,
    /// Arrivals rejected at admission by the overload policy's shed
    /// watermark; always zero without a policy.
    pub shed: u64,
    /// Queued requests abandoned by the pick loop after aging past the
    /// overload policy's queue timeout; always zero without a policy.
    pub timed_out: u64,
    /// Times the driver's event store restructured mid-run. The store is
    /// one fixed slot per event chain, so this is always zero; recorded
    /// report digests fold it in.
    pub event_queue_restructures: u64,
    /// Every completion, in completion order (only if recording was enabled).
    pub completions: Option<Vec<Completion>>,
}

impl SimReport {
    /// Device utilization over the makespan: busy time / total time.
    pub fn utilization(&self) -> f64 {
        let span = self.makespan.as_secs();
        if span > 0.0 {
            self.busy_secs / span
        } else {
            0.0
        }
    }

    /// Mean service time in milliseconds.
    pub fn mean_service_ms(&self) -> f64 {
        self.service_time.mean() * 1e3
    }
}

/// A pending event; the variant names the chain it belongs to.
#[derive(Clone, Copy)]
enum Ev {
    Arrival(Request),
    Complete(Completion),
    Fault(FaultKind),
}

impl Ev {
    /// Index of the event's chain, and of its slot in [`Pending`].
    #[inline]
    fn chain(&self) -> usize {
        match self {
            Ev::Arrival(_) => 0,
            Ev::Complete(_) => 1,
            Ev::Fault(_) => 2,
        }
    }
}

/// The driver's pending events: one slot per chain, each event stamped
/// with a global push sequence number. [`Pending::pop`] takes the least
/// `(time, seq)`, so simultaneous events fire in push order, exactly as
/// from a stable priority queue.
#[derive(Default)]
struct Pending {
    slots: [Option<(SimTime, u64, Ev)>; 3],
    seq: u64,
}

impl Pending {
    /// Schedules `ev` to fire at `at` in its chain's slot.
    ///
    /// # Panics
    ///
    /// Panics if the chain already has a pending event: overwriting it
    /// would drop that event.
    #[inline]
    fn push(&mut self, at: SimTime, ev: Ev) {
        let slot = &mut self.slots[ev.chain()];
        assert!(slot.is_none(), "event chain already has a pending event");
        *slot = Some((at, self.seq, ev));
        self.seq += 1;
    }

    /// Removes and returns the earliest event by `(time, seq)`, if any.
    #[inline]
    fn pop(&mut self) -> Option<(SimTime, Ev)> {
        let (_, chain) = self
            .slots
            .iter()
            .enumerate()
            .filter_map(|(chain, slot)| slot.as_ref().map(|&(at, seq, _)| ((at, seq), chain)))
            .min()?;
        self.slots[chain].take().map(|(at, _, ev)| (at, ev))
    }

    /// Firing time of the earliest event, if any.
    #[inline]
    fn peek_time(&self) -> Option<SimTime> {
        self.slots.iter().flatten().map(|&(at, _, _)| at).min()
    }

    /// Number of pending events.
    #[inline]
    fn len(&self) -> usize {
        self.slots.iter().flatten().count()
    }
}

/// Loop state of an in-progress simulation session, produced by
/// [`Driver::begin`] and consumed by [`Driver::finish`].
///
/// Extracting the state lets callers interleave many drivers on one
/// thread — a fleet worker steps each of its stations to the end of a
/// sim-time batch via [`Driver::advance_until`], draining completions
/// after each batch with [`RunState::drain_completions`]. The fields are
/// exactly the locals of the pre-session one-shot loop, so stepped runs
/// and [`Driver::run`] share one code path and one result.
pub struct RunState {
    events: Pending,
    report: SimReport,
    device_busy: bool,
    completed_total: u64,
    depth_integral: f64,
    last_event_time: SimTime,
    /// Arrival time of the last request pulled from the workload into the
    /// look-ahead buffer (ordering is asserted at pull time; the buffer is
    /// FIFO, so popped arrivals inherit the guarantee).
    last_arrival: SimTime,
    /// Bounded look-ahead buffer between the workload and the arrival
    /// chain: refilled up to the larger of the driver's look-ahead and
    /// [`LOOKAHEAD_FLOOR`] whenever a pull finds fewer than the floor, so
    /// the arrival-stream seek hint always finds its pair buffered while
    /// the workload lasts. Exactly one buffered arrival is ever pending as
    /// an event, so buffer size never changes event order — only how often
    /// the workload is consulted.
    lookahead_buf: VecDeque<Request>,
    /// Bucket of `lookahead_buf[HINT_AHEAD]` when the previous arrival's
    /// hint computed it (as the bucket it hinted into): every arrival pops
    /// exactly one buffered request, so each arrival's bucket is computed
    /// once while hints run back to back.
    hinted_bucket: Option<u64>,
    /// Whether the overload policy is currently shedding arrivals
    /// (hysteresis state between the high and low watermarks).
    shedding: bool,
}

impl RunState {
    /// Sim-time of the earliest pending event, if any. A fleet worker
    /// ends its next batch on the epoch grid point covering the minimum
    /// across its stations.
    pub fn next_event_time(&self) -> Option<SimTime> {
        self.events.peek_time()
    }

    /// Takes every completion recorded so far (in completion order),
    /// leaving the recording buffer empty, its capacity kept, for the
    /// next batch. Yields nothing unless the driver was built with
    /// [`Driver::record_completions`]`(true)`.
    pub fn drain_completions(&mut self) -> impl Iterator<Item = Completion> + '_ {
        self.report
            .completions
            .iter_mut()
            .flat_map(|all| all.drain(..))
    }
}

/// Couples a [`Workload`], a [`Scheduler`], and a [`StorageDevice`] and
/// runs the workload to exhaustion.
///
/// The driver is generic over a [`Tracer`]; the default [`NoopTracer`]
/// compiles every observation hook to nothing, so an untraced driver is
/// exactly the pre-observability driver (asserted bit-identical by test).
/// Attach a recording tracer with [`Driver::with_tracer`].
///
/// # Examples
///
/// ```
/// use storage_sim::{ConstantDevice, Driver, FifoScheduler, IoKind, Request, SimTime,
///                   VecWorkload};
///
/// let reqs = vec![
///     Request::new(0, SimTime::ZERO, 0, 8, IoKind::Read),
///     Request::new(1, SimTime::ZERO, 64, 8, IoKind::Read),
/// ];
/// let report = Driver::new(
///     VecWorkload::new(reqs),
///     FifoScheduler::new(),
///     ConstantDevice::new(1_000, 0.001),
/// )
/// .run();
/// // Second request queues behind the first: responses are 1 ms and 2 ms.
/// assert!((report.response.mean_ms() - 1.5).abs() < 1e-9);
/// ```
pub struct Driver<W, S, D, T = NoopTracer> {
    workload: W,
    scheduler: S,
    device: D,
    tracer: T,
    faults: FaultClock,
    warmup_requests: u64,
    record_completions: bool,
    overload: Option<OverloadPolicy>,
    lookahead: usize,
    streaming_stats: bool,
}

impl<W: Workload, S: Scheduler, D: StorageDevice> Driver<W, S, D> {
    /// Creates an untraced driver with no warm-up exclusion and completion
    /// recording disabled.
    pub fn new(workload: W, scheduler: S, device: D) -> Self {
        Driver {
            workload,
            scheduler,
            device,
            tracer: NoopTracer,
            faults: FaultClock::empty(),
            warmup_requests: 0,
            record_completions: false,
            overload: None,
            lookahead: 1,
            streaming_stats: false,
        }
    }
}

impl<W: Workload, S: Scheduler, D: StorageDevice, T: Tracer> Driver<W, S, D, T> {
    /// Replaces the tracer, rebinding the driver to the new tracer type.
    /// Typically called right after [`Driver::new`] to attach a
    /// [`crate::RingTracer`].
    pub fn with_tracer<T2: Tracer>(self, tracer: T2) -> Driver<W, S, D, T2> {
        Driver {
            workload: self.workload,
            scheduler: self.scheduler,
            device: self.device,
            tracer,
            faults: self.faults,
            warmup_requests: self.warmup_requests,
            record_completions: self.record_completions,
            overload: self.overload,
            lookahead: self.lookahead,
            streaming_stats: self.streaming_stats,
        }
    }

    /// Attaches a schedule of fault events. Each fault is delivered to the
    /// device via [`StorageDevice::on_fault`] as a first-class simulation
    /// event at its scheduled time; an empty clock (the default) schedules
    /// nothing, leaving the fault-free event sequence bit-identical.
    pub fn with_faults(mut self, faults: FaultClock) -> Self {
        self.faults = faults;
        self
    }

    /// Excludes the first `n` completed requests from the statistics.
    pub fn warmup_requests(mut self, n: u64) -> Self {
        self.warmup_requests = n;
        self
    }

    /// Retains every [`Completion`] in the report.
    pub fn record_completions(mut self, yes: bool) -> Self {
        self.record_completions = yes;
        self
    }

    /// Attaches an overload policy: arrivals are shed at the queue-depth
    /// watermark (with hysteresis) and queued requests older than the
    /// policy's timeout are abandoned at pick time. Both outcomes are
    /// billed explicitly in the report (`shed` / `timed_out`); no policy
    /// (the default) takes none of these branches and is bit-identical to
    /// the pre-overload driver.
    pub fn with_overload(mut self, policy: OverloadPolicy) -> Self {
        self.overload = Some(policy);
        self
    }

    /// Sets the arrival look-ahead: how many requests are pulled from the
    /// workload per refill of the internal buffer. Exactly one arrival is
    /// ever pending as an event regardless, so this never changes simulated
    /// results — only the batching of workload pulls (larger values
    /// amortize per-pull overhead for streaming generators). Default 1.
    ///
    /// The buffer keeps a floor of four arrivals whatever `n` is: a pull
    /// that finds fewer refills it to the larger of `n` and four, so the
    /// driver's seek hint always finds the pair of arrivals it names. With
    /// the default, each pull tops the buffer up by one.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn with_arrival_lookahead(mut self, n: usize) -> Self {
        assert!(n > 0, "look-ahead must buffer at least one arrival");
        self.lookahead = n;
        self
    }

    /// Selects constant-memory response statistics
    /// ([`ResponseStats::streaming`]): percentiles come from a log-spaced
    /// histogram instead of a retained per-sample vector. Welford-derived
    /// report fields (mean, deviation, max, count) are bit-identical
    /// either way.
    pub fn streaming_stats(mut self, yes: bool) -> Self {
        self.streaming_stats = yes;
        self
    }

    /// Returns a reference to the device (e.g. to inspect energy state
    /// after [`Driver::run`]).
    pub fn device(&self) -> &D {
        &self.device
    }

    /// Returns a reference to the tracer (e.g. to export a
    /// [`crate::RingTracer`]'s events after [`Driver::run`]).
    pub fn tracer(&self) -> &T {
        &self.tracer
    }

    /// Consumes the driver and returns its tracer together with the
    /// post-run device, whose wrapper state (migration ledgers, degraded-
    /// mode maps, cache counters) is itself an observability surface.
    pub fn into_observables(self) -> (T, D) {
        (self.tracer, self.device)
    }

    /// Runs the workload to exhaustion and returns the aggregated report.
    ///
    /// Equivalent to [`Driver::begin`], advancing through every event, then
    /// [`Driver::finish`] — the session methods are the same code path, so
    /// a run driven through them (as the fleet engine does, barrier by
    /// barrier) is bit-identical to this one-shot call.
    ///
    /// # Panics
    ///
    /// Panics if the workload yields decreasing arrival times.
    pub fn run(&mut self) -> SimReport {
        let mut state = self.begin();
        self.advance_inner(&mut state, None);
        self.finish(state)
    }

    /// Starts a resumable simulation session: schedules the first arrival
    /// (and the first fault, if a clock is attached) and returns the loop
    /// state. Drive it with [`Driver::advance_until`] and
    /// close it with [`Driver::finish`]; [`Driver::run`] composes exactly
    /// these steps, so a stepped run reproduces a one-shot run bit for bit.
    pub fn begin(&mut self) -> RunState {
        let mut events = Pending::default();
        let report = SimReport {
            completed: 0,
            makespan: SimTime::ZERO,
            response: if self.streaming_stats {
                ResponseStats::streaming()
            } else {
                ResponseStats::new()
            },
            queue_time: Welford::new(),
            service_time: Welford::new(),
            breakdown_sum: ServiceBreakdown::default(),
            busy_secs: 0.0,
            mean_queue_depth: 0.0,
            max_queue_depth: 0,
            fault_events: 0,
            shed: 0,
            timed_out: 0,
            event_queue_restructures: 0,
            completions: if self.record_completions {
                Some(Vec::new())
            } else {
                None
            },
        };

        let target = self.refill_target();
        let mut lookahead_buf = VecDeque::with_capacity(target);
        let mut last_arrival = SimTime::ZERO;
        Self::refill_lookahead(
            &mut self.workload,
            &mut lookahead_buf,
            target,
            &mut last_arrival,
        );
        if let Some(first) = lookahead_buf.pop_front() {
            events.push(first.arrival, Ev::Arrival(first));
            // Faults are scheduled one at a time (the clock is already
            // time-ordered); each delivery schedules its successor, exactly
            // like the workload's arrival chain. An empty clock pushes
            // nothing, so the fault-free event sequence is untouched. An
            // empty *workload* schedules nothing at all — not even faults —
            // matching the pre-session driver, which returned before
            // touching the clock.
            if let Some(fault) = self.faults.pop() {
                events.push(fault.at, Ev::Fault(fault.kind));
            }
        }

        RunState {
            events,
            report,
            device_busy: false,
            completed_total: 0,
            depth_integral: 0.0,
            last_event_time: SimTime::ZERO,
            last_arrival,
            lookahead_buf,
            hinted_bucket: None,
            shedding: false,
        }
    }

    /// How full a refill leaves the look-ahead buffer.
    fn refill_target(&self) -> usize {
        self.lookahead.max(LOOKAHEAD_FLOOR)
    }

    /// Refills the look-ahead buffer from the workload, pulling up to
    /// `lookahead` requests and asserting arrival-time order as they are
    /// buffered. Free function over the split borrows so callers holding
    /// `RunState` fields stay disjoint from the workload.
    fn refill_lookahead(
        workload: &mut W,
        buf: &mut VecDeque<Request>,
        lookahead: usize,
        last_arrival: &mut SimTime,
    ) {
        while buf.len() < lookahead {
            let Some(req) = workload.next_request() else {
                break;
            };
            assert!(
                req.arrival >= *last_arrival,
                "workload arrival times must be non-decreasing"
            );
            *last_arrival = req.arrival;
            buf.push_back(req);
        }
    }

    /// Pops the next buffered arrival, refilling the buffer from the
    /// workload first when it holds fewer than [`LOOKAHEAD_FLOOR`]. `None`
    /// means the workload is exhausted and the arrival chain ends.
    fn pull_arrival(&mut self, state: &mut RunState) -> Option<Request> {
        if state.lookahead_buf.len() < LOOKAHEAD_FLOOR {
            let target = self.refill_target();
            Self::refill_lookahead(
                &mut self.workload,
                &mut state.lookahead_buf,
                target,
                &mut state.last_arrival,
            );
        }
        state.lookahead_buf.pop_front()
    }

    /// Hints the device with the seek from one buffered arrival into the
    /// next, [`HINT_AHEAD`] past the front of the buffer, while the
    /// scheduler holds at most the arrival just enqueued. With so shallow
    /// a queue every work-conserving scheduler serves arrivals in arrival
    /// order, so the second is positioned from where the first leaves the
    /// device, and the device answers that seek three or four requests
    /// after the hint.
    fn hint_next_seeks(&self, state: &mut RunState) {
        let from = state.hinted_bucket.take();
        if self.scheduler.len() > 1 {
            return;
        }
        let buf = &state.lookahead_buf;
        if let (Some(a), Some(b)) = (buf.get(HINT_AHEAD), buf.get(HINT_AHEAD + 1)) {
            let from = from.unwrap_or_else(|| self.device.position_bucket(a));
            let to = self.device.position_bucket(b);
            self.device.prefetch_seek(from, to);
            state.hinted_bucket = Some(to);
        }
    }

    /// Processes every event scheduled at or before `limit`, in exactly the
    /// order the one-shot [`Driver::run`] loop would. Returns `true` while
    /// events remain pending beyond the limit — the caller moves the
    /// limit on and calls again. A fleet worker uses this to step each of
    /// its stations to the end of a sim-time batch.
    pub fn advance_until(&mut self, state: &mut RunState, limit: SimTime) -> bool {
        self.advance_inner(state, Some(limit))
    }

    /// The event loop shared by [`Driver::run`] (no limit) and
    /// [`Driver::advance_until`] (barrier-bounded). With `limit == None`
    /// the peek is skipped entirely, so the one-shot hot path is untouched.
    fn advance_inner(&mut self, state: &mut RunState, limit: Option<SimTime>) -> bool {
        loop {
            if let Some(limit) = limit {
                match state.events.peek_time() {
                    Some(t) if t <= limit => {}
                    _ => break,
                }
            }
            let Some((now, event)) = state.events.pop() else {
                break;
            };
            state.depth_integral +=
                self.scheduler.len() as f64 * (now - state.last_event_time).as_secs();
            state.last_event_time = now;
            if T::ENABLED {
                self.tracer.on_queue_depth(now, self.scheduler.len());
            }

            match event {
                Ev::Arrival(req) => {
                    // Overload admission: update the hysteresis state
                    // against the pre-enqueue depth, then shed or admit.
                    // Shed arrivals never reach the scheduler; they are
                    // billed in the report and the arrival chain continues.
                    let mut admit = true;
                    if let Some(policy) = self.overload {
                        let depth = self.scheduler.len();
                        if state.shedding && depth < policy.resume_low {
                            state.shedding = false;
                        }
                        if !state.shedding && depth >= policy.shed_high {
                            state.shedding = true;
                        }
                        if state.shedding {
                            admit = false;
                            state.report.shed += 1;
                            if T::ENABLED {
                                self.tracer.on_shed(&req, now, depth);
                            }
                        }
                    }
                    if admit {
                        self.scheduler.enqueue(req);
                        if T::ENABLED {
                            self.tracer.on_arrival(&req, now, self.scheduler.len());
                        }
                        state.report.max_queue_depth =
                            state.report.max_queue_depth.max(self.scheduler.len());
                    }
                    if let Some(next) = self.pull_arrival(state) {
                        state.events.push(next.arrival, Ev::Arrival(next));
                    }
                    self.hint_next_seeks(state);
                    if !state.device_busy {
                        state.device_busy =
                            self.start_next(now, &mut state.events, &mut state.report);
                    }
                }
                Ev::Complete(completion) => {
                    state.completed_total += 1;
                    if state.completed_total > self.warmup_requests {
                        state.report.completed += 1;
                        state
                            .report
                            .response
                            .push(completion.response_time().as_secs());
                        state
                            .report
                            .queue_time
                            .push(completion.queue_time().as_secs());
                        state
                            .report
                            .service_time
                            .push(completion.service_time().as_secs());
                    }
                    state.report.makespan = state.report.makespan.max(completion.completion);
                    if T::ENABLED {
                        self.tracer.on_complete(&completion);
                    }
                    if let Some(all) = state.report.completions.as_mut() {
                        all.push(completion);
                    }
                    state.device_busy = self.start_next(now, &mut state.events, &mut state.report);
                }
                Ev::Fault(kind) => {
                    // Faults never preempt: the device absorbs the state
                    // change now and applies it from its next service call.
                    self.device.on_fault(&kind, now);
                    state.report.fault_events += 1;
                    if T::ENABLED {
                        self.tracer.on_fault(&kind, now);
                    }
                    if let Some(next) = self.faults.pop() {
                        state.events.push(next.at, Ev::Fault(next.kind));
                    }
                }
            }
        }
        state.events.len() > 0
    }

    /// Closes a session and returns the aggregated report. Call after
    /// [`Driver::advance_until`] reports no pending events; finishing a
    /// session with events still queued simply leaves them unprocessed.
    pub fn finish(&mut self, state: RunState) -> SimReport {
        let mut report = state.report;
        let span = report.makespan.as_secs();
        report.mean_queue_depth = if span > 0.0 {
            state.depth_integral / span
        } else {
            0.0
        };
        report
    }

    /// Starts servicing the scheduler's next pick at `now`, if any.
    /// Returns whether the device is now busy.
    fn start_next(&mut self, now: SimTime, events: &mut Pending, report: &mut SimReport) -> bool {
        let depth_before = if T::ENABLED { self.scheduler.len() } else { 0 };
        let counters_before = if T::ENABLED {
            self.scheduler.counters()
        } else {
            SchedCounters::default()
        };
        // Election loop: with a queue-timeout policy, a pick whose queue
        // time already exceeds the deadline is billed as timed out and the
        // scheduler elects again; the device services only in-deadline
        // work. Without a policy the loop runs exactly once, preserving
        // the pre-overload pick path.
        let timeout = self.overload.and_then(|p| p.queue_timeout);
        let picked = loop {
            match self.scheduler.pick(&self.device, now) {
                Some(req) => {
                    if let Some(deadline) = timeout {
                        if now - req.arrival > deadline {
                            report.timed_out += 1;
                            if T::ENABLED {
                                self.tracer.on_timeout(&req, now);
                            }
                            continue;
                        }
                    }
                    break Some(req);
                }
                None => break None,
            }
        };
        match picked {
            Some(req) => {
                if T::ENABLED {
                    let examined = self
                        .scheduler
                        .counters()
                        .candidates_examined
                        .saturating_sub(counters_before.candidates_examined);
                    self.tracer.on_pick(&req, now, depth_before, examined);
                }
                let breakdown = self.device.service(&req, now);
                if T::ENABLED {
                    let energy = self.device.phase_energy(&breakdown);
                    self.tracer.on_service(&req, now, &breakdown, &energy);
                }
                let total = breakdown.total_time();
                report.breakdown_sum.accumulate(&breakdown);
                report.busy_secs += breakdown.total();
                let completion = Completion {
                    request: req,
                    start_service: now,
                    completion: now + total,
                };
                events.push(completion.completion, Ev::Complete(completion));
                true
            }
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::ConstantDevice;
    use crate::event::BinaryHeapEventQueue;
    use crate::request::IoKind;
    use crate::sched::FifoScheduler;
    use crate::workload::VecWorkload;
    use proptest::prelude::*;

    fn req(id: u64, at_ms: f64, lbn: u64) -> Request {
        Request::new(id, SimTime::from_ms(at_ms), lbn, 8, IoKind::Read)
    }

    #[test]
    fn empty_workload_yields_empty_report() {
        let mut d = Driver::new(
            VecWorkload::new(vec![]),
            FifoScheduler::new(),
            ConstantDevice::new(100, 1e-3),
        );
        let r = d.run();
        assert_eq!(r.completed, 0);
        assert_eq!(r.makespan, SimTime::ZERO);
    }

    #[test]
    fn sequential_requests_have_service_only_response() {
        // Requests spaced wider than the service time never queue.
        let reqs = vec![req(0, 0.0, 0), req(1, 10.0, 8), req(2, 20.0, 16)];
        let mut d = Driver::new(
            VecWorkload::new(reqs),
            FifoScheduler::new(),
            ConstantDevice::new(100, 1e-3),
        );
        let r = d.run();
        assert_eq!(r.completed, 3);
        assert!((r.response.mean_ms() - 1.0).abs() < 1e-9);
        assert_eq!(r.queue_time.mean(), 0.0);
        assert!((r.makespan.as_secs() * 1e3 - 21.0).abs() < 1e-9);
    }

    #[test]
    fn simultaneous_arrivals_queue_fifo() {
        let reqs = vec![req(0, 0.0, 0), req(1, 0.0, 8), req(2, 0.0, 16)];
        let mut d = Driver::new(
            VecWorkload::new(reqs),
            FifoScheduler::new(),
            ConstantDevice::new(100, 1e-3),
        )
        .record_completions(true);
        let r = d.run();
        let completions = r.completions.as_ref().unwrap();
        assert_eq!(completions.len(), 3);
        // FIFO: response times 1, 2, 3 ms.
        for (i, c) in completions.iter().enumerate() {
            assert!((c.response_time().as_secs() * 1e3 - (i as f64 + 1.0)).abs() < 1e-9);
            assert_eq!(c.request.id, i as u64);
        }
        assert!((r.response.mean_ms() - 2.0).abs() < 1e-9);
        // The first request starts service immediately, so at most two
        // requests are ever waiting in the queue.
        assert_eq!(r.max_queue_depth, 2);
    }

    #[test]
    fn warmup_excludes_leading_requests() {
        let reqs = vec![req(0, 0.0, 0), req(1, 0.0, 8), req(2, 0.0, 16)];
        let mut d = Driver::new(
            VecWorkload::new(reqs),
            FifoScheduler::new(),
            ConstantDevice::new(100, 1e-3),
        )
        .warmup_requests(2);
        let r = d.run();
        assert_eq!(r.completed, 1);
        assert!((r.response.mean_ms() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn traced_run_matches_untraced_run_exactly() {
        use crate::tracer::{RingTracer, TraceEvent};
        let reqs = vec![req(0, 0.0, 0), req(1, 0.5, 8), req(2, 0.6, 16)];
        let plain = Driver::new(
            VecWorkload::new(reqs.clone()),
            FifoScheduler::new(),
            ConstantDevice::new(100, 1e-3),
        )
        .run();
        let mut traced_driver = Driver::new(
            VecWorkload::new(reqs),
            FifoScheduler::new(),
            ConstantDevice::new(100, 1e-3),
        )
        .with_tracer(RingTracer::new(64));
        let traced = traced_driver.run();
        assert_eq!(plain.completed, traced.completed);
        assert_eq!(plain.makespan, traced.makespan);
        assert_eq!(plain.response.mean(), traced.response.mean());
        assert_eq!(plain.busy_secs, traced.busy_secs);
        // Four events per request: arrival, pick, service, complete.
        let t = traced_driver.tracer();
        assert_eq!(t.events().count(), 12);
        let completes = t
            .events()
            .filter(|e| matches!(e, TraceEvent::Complete(_)))
            .count();
        assert_eq!(completes, 3);
    }

    /// Identifies a test event by its chain and the id it carries.
    fn label(ev: &Ev) -> (usize, u64) {
        let id = match *ev {
            Ev::Arrival(r) => r.id,
            Ev::Complete(c) => c.request.id,
            Ev::Fault(FaultKind::TipFailure { tip }) => u64::from(tip),
            Ev::Fault(_) => unreachable!("scripts only schedule tip failures"),
        };
        (ev.chain(), id)
    }

    proptest! {
        /// On random scripts that keep each chain at most one event deep
        /// and interleave pops with pushes, `Pending` pops the same
        /// `(time, payload)` sequence as the stable heap queue. Times come
        /// from eight values, so ties across chains are common.
        #[test]
        fn pending_pops_in_heap_order(
            ops in prop::collection::vec((0usize..4, 0u32..8), 0..200),
        ) {
            let mut pending = Pending::default();
            let mut heap = BinaryHeapEventQueue::new();
            let mut busy = [false; 3];
            for (i, &(op, t)) in ops.iter().enumerate() {
                if op < 3 && !busy[op] {
                    let at = SimTime::from_us(f64::from(t));
                    let request = req(i as u64, 0.0, 0);
                    let ev = match op {
                        0 => Ev::Arrival(request),
                        1 => Ev::Complete(Completion {
                            request,
                            start_service: at,
                            completion: at,
                        }),
                        _ => Ev::Fault(FaultKind::TipFailure { tip: i as u32 }),
                    };
                    pending.push(at, ev);
                    heap.push(at, label(&ev));
                    busy[op] = true;
                } else if op == 3 {
                    let peek = pending.peek_time();
                    let popped = pending.pop().map(|(at, ev)| (at, label(&ev)));
                    prop_assert_eq!(popped, heap.pop());
                    prop_assert_eq!(peek, popped.map(|(at, _)| at));
                    if let Some((_, (chain, _))) = popped {
                        busy[chain] = false;
                    }
                }
                prop_assert_eq!(pending.len(), busy.iter().filter(|&&b| b).count());
            }
            loop {
                let popped = pending.pop().map(|(at, ev)| (at, label(&ev)));
                prop_assert_eq!(popped, heap.pop());
                if popped.is_none() {
                    break;
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "event chain already has a pending event")]
    fn second_event_on_one_chain_panics() {
        let mut pending = Pending::default();
        pending.push(SimTime::ZERO, Ev::Arrival(req(0, 0.0, 0)));
        pending.push(SimTime::ZERO, Ev::Arrival(req(1, 0.0, 8)));
    }

    #[test]
    fn faults_are_delivered_in_order_and_counted() {
        use crate::fault::{FaultClock, FaultEvent};

        /// Constant device that logs every fault delivered to it.
        struct Probe {
            inner: ConstantDevice,
            seen: Vec<(f64, FaultKind)>,
        }
        impl crate::device::PositionOracle for Probe {
            fn position_time(&self, req: &Request, now: SimTime) -> f64 {
                self.inner.position_time(req, now)
            }
        }
        impl StorageDevice for Probe {
            fn name(&self) -> &str {
                self.inner.name()
            }
            fn capacity_lbns(&self) -> u64 {
                self.inner.capacity_lbns()
            }
            fn service(&mut self, req: &Request, now: SimTime) -> ServiceBreakdown {
                self.inner.service(req, now)
            }
            fn reset(&mut self) {
                self.inner.reset();
            }
            fn on_fault(&mut self, fault: &FaultKind, now: SimTime) {
                self.seen.push((now.as_secs(), *fault));
            }
        }

        let reqs = vec![req(0, 0.0, 0), req(1, 5.0, 8)];
        let clock = FaultClock::from_events(vec![
            FaultEvent {
                at: SimTime::from_ms(4.0),
                kind: FaultKind::TransientSeekError,
            },
            FaultEvent {
                at: SimTime::from_ms(2.0),
                kind: FaultKind::TipFailure { tip: 3 },
            },
        ]);
        let mut d = Driver::new(
            VecWorkload::new(reqs),
            FifoScheduler::new(),
            Probe {
                inner: ConstantDevice::new(100, 1e-3),
                seen: Vec::new(),
            },
        )
        .with_faults(clock);
        let r = d.run();
        assert_eq!(r.fault_events, 2);
        assert_eq!(r.completed, 2);
        let seen = &d.device().seen;
        assert_eq!(seen.len(), 2);
        assert_eq!(seen[0], (2.0e-3, FaultKind::TipFailure { tip: 3 }));
        assert_eq!(seen[1], (4.0e-3, FaultKind::TransientSeekError));
    }

    #[test]
    fn empty_fault_clock_is_bit_identical_to_no_clock() {
        let reqs = vec![req(0, 0.0, 0), req(1, 0.5, 8), req(2, 0.6, 16)];
        let plain = Driver::new(
            VecWorkload::new(reqs.clone()),
            FifoScheduler::new(),
            ConstantDevice::new(100, 1e-3),
        )
        .record_completions(true)
        .run();
        let clocked = Driver::new(
            VecWorkload::new(reqs),
            FifoScheduler::new(),
            ConstantDevice::new(100, 1e-3),
        )
        .with_faults(crate::fault::FaultClock::empty())
        .record_completions(true)
        .run();
        assert_eq!(plain.fault_events, 0);
        assert_eq!(clocked.fault_events, 0);
        assert_eq!(plain.makespan, clocked.makespan);
        assert_eq!(plain.response.mean(), clocked.response.mean());
        assert_eq!(plain.busy_secs, clocked.busy_secs);
        let (a, b) = (
            plain.completions.as_ref().unwrap(),
            clocked.completions.as_ref().unwrap(),
        );
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.request.id, y.request.id);
            assert_eq!(x.start_service, y.start_service);
            assert_eq!(x.completion, y.completion);
        }
    }

    /// Digest of the observable report surface for identity assertions.
    fn digest(r: &SimReport) -> (u64, u64, u64, u64, u64, u64, usize, u64, u64) {
        (
            r.completed,
            r.makespan.as_secs().to_bits(),
            r.response.mean().to_bits(),
            r.queue_time.mean().to_bits(),
            r.busy_secs.to_bits(),
            r.shed,
            r.max_queue_depth,
            r.timed_out,
            r.event_queue_restructures,
        )
    }

    fn burst(n: u64) -> Vec<Request> {
        // All arrivals in the first 2 ms against a 1 ms device: the queue
        // builds to ~n, then drains.
        (0..n)
            .map(|i| req(i, i as f64 * 2.0 / n as f64, i * 8))
            .collect()
    }

    #[test]
    fn arrival_lookahead_is_bit_identical() {
        let reqs = burst(300);
        let base = Driver::new(
            VecWorkload::new(reqs.clone()),
            FifoScheduler::new(),
            ConstantDevice::new(10_000, 1e-3),
        )
        .run();
        for k in [1usize, 2, 3, 4, 7, 300, 4096] {
            let buffered = Driver::new(
                VecWorkload::new(reqs.clone()),
                FifoScheduler::new(),
                ConstantDevice::new(10_000, 1e-3),
            )
            .with_arrival_lookahead(k)
            .run();
            assert_eq!(digest(&base), digest(&buffered), "lookahead {k}");
        }
    }

    #[test]
    fn untripped_overload_policy_is_bit_identical() {
        let reqs = burst(300);
        let plain = Driver::new(
            VecWorkload::new(reqs.clone()),
            FifoScheduler::new(),
            ConstantDevice::new(10_000, 1e-3),
        )
        .run();
        let policed = Driver::new(
            VecWorkload::new(reqs),
            FifoScheduler::new(),
            ConstantDevice::new(10_000, 1e-3),
        )
        .with_overload(OverloadPolicy::watermarks(usize::MAX, 0))
        .run();
        assert_eq!(plain.shed, 0);
        assert_eq!(policed.shed, 0);
        assert_eq!(digest(&plain), digest(&policed));
    }

    #[test]
    fn shed_watermark_caps_depth_and_bills_sheds() {
        let reqs = burst(400);
        let r = Driver::new(
            VecWorkload::new(reqs),
            FifoScheduler::new(),
            ConstantDevice::new(10_000, 1e-3),
        )
        .with_overload(OverloadPolicy::watermarks(16, 4))
        .run();
        assert!(r.shed > 0, "a 400-deep burst must trip a 16-high watermark");
        assert_eq!(r.completed + r.shed, 400, "every arrival is billed");
        // Depth at admission never exceeds the high watermark, so the
        // enqueued depth is bounded by it.
        assert!(r.max_queue_depth <= 16, "depth {}", r.max_queue_depth);
    }

    #[test]
    fn queue_timeout_expires_aged_requests() {
        let reqs = burst(100);
        let r = Driver::new(
            VecWorkload::new(reqs),
            FifoScheduler::new(),
            ConstantDevice::new(10_000, 1e-3),
        )
        .with_overload(OverloadPolicy::timeout_only(SimTime::from_ms(10.0)))
        .run();
        // The backlog reaches ~98 ms of queue time; most of the burst ages
        // past the 10 ms deadline.
        assert!(r.timed_out > 0);
        assert_eq!(r.completed + r.timed_out, 100);
        assert!(
            r.response.max() <= 11.1e-3,
            "serviced work stayed in deadline"
        );
    }

    /// A 1 ms constant device whose buckets are LBNs and which records
    /// every seek hint.
    #[derive(Default)]
    struct HintProbe {
        hints: std::cell::RefCell<Vec<(u64, u64)>>,
    }

    impl crate::device::PositionOracle for HintProbe {
        fn position_time(&self, _req: &Request, _now: SimTime) -> f64 {
            0.0
        }

        fn position_bucket(&self, req: &Request) -> u64 {
            req.lbn
        }

        fn prefetch_seek(&self, from_bucket: u64, to_bucket: u64) {
            self.hints.borrow_mut().push((from_bucket, to_bucket));
        }
    }

    impl StorageDevice for HintProbe {
        fn name(&self) -> &str {
            "hint probe"
        }

        fn capacity_lbns(&self) -> u64 {
            u64::MAX
        }

        fn service(&mut self, _req: &Request, _now: SimTime) -> ServiceBreakdown {
            ServiceBreakdown {
                transfer: 1e-3,
                ..ServiceBreakdown::default()
            }
        }

        fn reset(&mut self) {}
    }

    /// The hints a FIFO run of `reqs` on a [`HintProbe`] gives, with
    /// arrival look-ahead `lookahead`.
    fn hints(reqs: Vec<Request>, lookahead: usize) -> Vec<(u64, u64)> {
        let mut d = Driver::new(
            VecWorkload::new(reqs),
            FifoScheduler::new(),
            HintProbe::default(),
        )
        .with_arrival_lookahead(lookahead);
        d.run();
        d.into_observables().1.hints.into_inner()
    }

    #[test]
    fn a_shallow_queue_hints_the_seek_between_buffered_arrivals() {
        // Arrivals 10 ms apart against a 1 ms device never queue: arrival
        // k hints the seek from request k + 3 into request k + 4, so every
        // request from the fifth on is hinted, whatever the look-ahead.
        let spaced: Vec<_> = (0..7)
            .map(|i| req(i, i as f64 * 10.0, 100 * i + 7))
            .collect();
        let want: Vec<_> = spaced[3..]
            .windows(2)
            .map(|w| (w[0].lbn, w[1].lbn))
            .collect();
        for lookahead in [1, 2, 4, 4096] {
            assert_eq!(
                hints(spaced.clone(), lookahead),
                want,
                "lookahead {lookahead}"
            );
        }

        // Requests 1–4 arrive together during request 0's service. The
        // arrivals that find one of them already queued hint nothing; once
        // the backlog has drained, request 5 hints the seek from request 8
        // into request 9.
        let mut burst = vec![req(0, 0.0, 7)];
        burst.extend((1..5).map(|i| req(i, 0.5, 100 * i + 7)));
        burst.extend((5..10).map(|i| req(i, 10.0 * (i - 3) as f64, 100 * i + 7)));
        for lookahead in [1, 4096] {
            assert_eq!(
                hints(burst.clone(), lookahead),
                [(307, 407), (407, 507), (807, 907)],
                "lookahead {lookahead}"
            );
        }
    }

    #[test]
    fn utilization_is_busy_fraction() {
        let reqs = vec![req(0, 0.0, 0), req(1, 1.0, 8)];
        let mut d = Driver::new(
            VecWorkload::new(reqs),
            FifoScheduler::new(),
            ConstantDevice::new(100, 1e-3),
        );
        let r = d.run();
        // Busy 2 ms of a 2 ms makespan... second request arrives at 1 ms,
        // so makespan = 2 ms and busy = 2 ms, utilization 1.0.
        assert!((r.utilization() - 1.0).abs() < 1e-9);
        assert!((r.busy_secs - 2e-3).abs() < 1e-12);
    }
}
