//! Zero-cost-when-off request tracing.
//!
//! The paper's analyses hinge on *where time and energy go inside a
//! request* — seek vs. settle vs. media transfer vs. turnaround (Fig. 4,
//! Fig. 8, the §7 power tables) — but the driver's [`crate::SimReport`]
//! only aggregates. A [`Tracer`] observes every request's lifecycle
//! (arrival, scheduler pick, per-phase device timing and energy,
//! completion) without perturbing the simulation: the driver is generic
//! over the tracer type, so with the default [`NoopTracer`] every hook
//! monomorphizes to nothing and the binary is byte-for-byte the untraced
//! simulation. The equivalence is asserted by test, not just promised:
//! tracer-off and tracer-on runs must produce bit-identical reports.
//!
//! [`RingTracer`] is the recording implementation: a bounded ring of
//! structured [`TraceEvent`]s plus monotonic counters and a queue-depth
//! time series, exportable as JSONL (one event per line) and a summary
//! JSON object.

use std::collections::VecDeque;
use std::fmt::Write as _;

use crate::device::{PhaseEnergy, ServiceBreakdown};
use crate::fault::FaultKind;
use crate::request::{Completion, IoKind, Request};
use crate::time::SimTime;

/// Observer of request lifecycle events inside the simulation driver.
///
/// All hooks default to no-ops; implementations override what they need.
/// The driver consults [`Tracer::ENABLED`] before doing any work that
/// exists only to feed the tracer (phase-energy attribution, counter
/// deltas), so a disabled tracer costs nothing — not even the arithmetic.
pub trait Tracer {
    /// Whether the driver should compute trace-only inputs (phase energy,
    /// candidate-count deltas, queue-depth samples) at all. `false`
    /// compiles the instrumented paths out entirely.
    const ENABLED: bool;

    /// A request entered the scheduler queue at `now`; `queue_depth` is
    /// the pending count including this request.
    fn on_arrival(&mut self, req: &Request, now: SimTime, queue_depth: usize) {
        let _ = (req, now, queue_depth);
    }

    /// The scheduler elected `req` at `now` from `queue_depth` pending
    /// requests, examining `candidates` of them (exact positioning
    /// queries issued; 0 when the scheduler does not report counters).
    fn on_pick(&mut self, req: &Request, now: SimTime, queue_depth: usize, candidates: u64) {
        let _ = (req, now, queue_depth, candidates);
    }

    /// The device serviced `req` starting at `start`, with the given
    /// per-phase time decomposition and per-phase energy attribution.
    fn on_service(
        &mut self,
        req: &Request,
        start: SimTime,
        breakdown: &ServiceBreakdown,
        energy: &PhaseEnergy,
    ) {
        let _ = (req, start, breakdown, energy);
    }

    /// A request completed.
    fn on_complete(&mut self, completion: &Completion) {
        let _ = completion;
    }

    /// The scheduler queue depth observed at an event boundary (sampled
    /// by the driver at every simulation event).
    fn on_queue_depth(&mut self, now: SimTime, depth: usize) {
        let _ = (now, depth);
    }

    /// A scheduled fault event was delivered to the device at `now`.
    fn on_fault(&mut self, fault: &FaultKind, now: SimTime) {
        let _ = (fault, now);
    }

    /// An arrival was shed at admission by the overload policy at `now`
    /// (`queue_depth` is the pending count that tripped the watermark).
    fn on_shed(&mut self, req: &Request, now: SimTime, queue_depth: usize) {
        let _ = (req, now, queue_depth);
    }

    /// A queued request aged past the overload policy's timeout and was
    /// abandoned by the pick loop at `now` instead of being dispatched.
    fn on_timeout(&mut self, req: &Request, now: SimTime) {
        let _ = (req, now);
    }
}

/// The default tracer: records nothing, costs nothing.
///
/// With `ENABLED = false` the driver skips every trace-only computation,
/// and the empty hook bodies inline away — the traced driver is the
/// untraced driver.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoopTracer;

impl Tracer for NoopTracer {
    const ENABLED: bool = false;
}

/// One structured lifecycle event.
///
/// Times are in seconds on the simulated timeline; phase durations and
/// energies are per-request (not cumulative).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraceEvent {
    /// A request arrived in the scheduler queue.
    Arrival {
        /// Request id.
        id: u64,
        /// Arrival time, seconds.
        t: f64,
        /// First logical block addressed.
        lbn: u64,
        /// Sectors transferred.
        sectors: u32,
        /// `true` for reads.
        read: bool,
        /// Queue depth including this request.
        queue_depth: usize,
    },
    /// The scheduler elected a request.
    Pick {
        /// Request id.
        id: u64,
        /// Pick time, seconds.
        t: f64,
        /// Pending requests at pick time (including the picked one).
        queue_depth: usize,
        /// Exact positioning candidates the scheduler examined.
        candidates: u64,
    },
    /// The device serviced a request: per-phase times and energy.
    Service {
        /// Request id.
        id: u64,
        /// Service start time, seconds.
        t: f64,
        /// First logical block addressed (for replay harnesses).
        lbn: u64,
        /// Sectors transferred.
        sectors: u32,
        /// Resolved pre-transfer positioning time, seconds.
        positioning: f64,
        /// X/arm seek component, seconds.
        seek_x: f64,
        /// Post-seek settle, seconds.
        settle: f64,
        /// Y seek component, seconds.
        seek_y: f64,
        /// Rotational latency (disk), seconds.
        rotation: f64,
        /// Media transfer time, seconds.
        transfer: f64,
        /// Turnaround portion of the transfer, seconds.
        turnaround: f64,
        /// Number of turnarounds.
        turnaround_count: u32,
        /// Fixed overhead, seconds.
        overhead: f64,
        /// Online failure-recovery time billed to the request, seconds.
        fault_recovery: f64,
        /// Energy attributed to positioning, joules.
        energy_positioning_j: f64,
        /// Energy attributed to media transfer, joules.
        energy_transfer_j: f64,
        /// Energy attributed to overhead, joules.
        energy_overhead_j: f64,
    },
    /// A request completed.
    Complete {
        /// Request id.
        id: u64,
        /// Completion time, seconds.
        t: f64,
        /// Queue (wait) time, seconds.
        queue: f64,
        /// Service time, seconds.
        service: f64,
        /// Response time (queue + service), seconds.
        response: f64,
    },
    /// A scheduled fault event was delivered to the device.
    Fault {
        /// Delivery time, seconds.
        t: f64,
        /// The fault delivered.
        kind: FaultKind,
    },
}

impl TraceEvent {
    /// The event as one JSON object (no trailing newline). Field names
    /// are stable; see EXPERIMENTS.md for the schema.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(160);
        match *self {
            TraceEvent::Arrival {
                id,
                t,
                lbn,
                sectors,
                read,
                queue_depth,
            } => {
                let _ = write!(
                    s,
                    "{{\"ev\":\"arrival\",\"id\":{id},\"t\":{t:.9},\"lbn\":{lbn},\
                     \"sectors\":{sectors},\"kind\":\"{}\",\"queue_depth\":{queue_depth}}}",
                    if read { "read" } else { "write" }
                );
            }
            TraceEvent::Pick {
                id,
                t,
                queue_depth,
                candidates,
            } => {
                let _ = write!(
                    s,
                    "{{\"ev\":\"pick\",\"id\":{id},\"t\":{t:.9},\
                     \"queue_depth\":{queue_depth},\"candidates\":{candidates}}}"
                );
            }
            TraceEvent::Service {
                id,
                t,
                lbn,
                sectors,
                positioning,
                seek_x,
                settle,
                seek_y,
                rotation,
                transfer,
                turnaround,
                turnaround_count,
                overhead,
                fault_recovery,
                energy_positioning_j,
                energy_transfer_j,
                energy_overhead_j,
            } => {
                let _ = write!(
                    s,
                    "{{\"ev\":\"service\",\"id\":{id},\"t\":{t:.9},\"lbn\":{lbn},\
                     \"sectors\":{sectors},\"positioning\":{positioning:.12},\
                     \"seek_x\":{seek_x:.12},\"settle\":{settle:.12},\
                     \"seek_y\":{seek_y:.12},\"rotation\":{rotation:.12},\
                     \"transfer\":{transfer:.12},\"turnaround\":{turnaround:.12},\
                     \"turnaround_count\":{turnaround_count},\"overhead\":{overhead:.12},\
                     \"fault_recovery\":{fault_recovery:.12},\
                     \"energy_positioning_j\":{energy_positioning_j:.12},\
                     \"energy_transfer_j\":{energy_transfer_j:.12},\
                     \"energy_overhead_j\":{energy_overhead_j:.12}}}"
                );
            }
            TraceEvent::Complete {
                id,
                t,
                queue,
                service,
                response,
            } => {
                let _ = write!(
                    s,
                    "{{\"ev\":\"complete\",\"id\":{id},\"t\":{t:.9},\"queue\":{queue:.12},\
                     \"service\":{service:.12},\"response\":{response:.12}}}"
                );
            }
            TraceEvent::Fault { t, kind } => {
                let _ = write!(
                    s,
                    "{{\"ev\":\"fault\",\"t\":{t:.9},\"kind\":\"{}\"",
                    kind.label()
                );
                match kind {
                    FaultKind::TipFailure { tip } => {
                        let _ = write!(s, ",\"tip\":{tip}");
                    }
                    FaultKind::MediaDefect {
                        tip,
                        row_start,
                        row_end,
                    } => {
                        let _ = write!(
                            s,
                            ",\"tip\":{tip},\"row_start\":{row_start},\"row_end\":{row_end}"
                        );
                    }
                    FaultKind::TransientSeekError => {}
                }
                s.push('}');
            }
        }
        s
    }
}

/// Monotonic counters accumulated over a traced run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TraceCounters {
    /// Requests that arrived.
    pub arrivals: u64,
    /// Scheduler picks.
    pub picks: u64,
    /// Completions.
    pub completions: u64,
    /// Exact positioning candidates examined across all picks.
    pub candidates_examined: u64,
    /// Sum of queue depth at each pick (for candidates-vs-depth ratios).
    pub pick_depth_sum: u64,
    /// Fault events delivered to the device.
    pub faults: u64,
    /// Events evicted from the ring because it was full.
    pub dropped_events: u64,
    /// Queue-depth samples evicted because the series was full. The
    /// max-depth statistic stays exact regardless.
    pub dropped_depth_samples: u64,
}

/// A recording tracer: bounded event ring, counters, phase/energy sums,
/// and a queue-depth time series.
///
/// # Examples
///
/// ```
/// use storage_sim::{ConstantDevice, Driver, FifoScheduler, IoKind, Request,
///                   RingTracer, SimTime, VecWorkload};
///
/// let reqs = vec![Request::new(0, SimTime::ZERO, 0, 8, IoKind::Read)];
/// let mut driver = Driver::new(
///     VecWorkload::new(reqs),
///     FifoScheduler::new(),
///     ConstantDevice::new(1_000, 0.001),
/// )
/// .with_tracer(RingTracer::new(1024));
/// let report = driver.run();
/// let trace = driver.tracer();
/// assert_eq!(trace.counters().completions, report.completed);
/// // Four events per request: arrival, pick, service, complete.
/// assert_eq!(trace.events().count(), 4);
/// ```
#[derive(Debug, Clone)]
pub struct RingTracer {
    capacity: usize,
    events: VecDeque<TraceEvent>,
    counters: TraceCounters,
    /// Per-phase time sums over all serviced requests, seconds.
    phase_sum: ServiceBreakdown,
    /// Per-phase energy sums, joules.
    energy_sum: PhaseEnergy,
    /// `(time, depth)` samples, one per simulation event (same bound as
    /// the event ring).
    depth_series: VecDeque<(f64, usize)>,
    max_queue_depth: usize,
}

impl RingTracer {
    /// Creates a tracer retaining at most `capacity` events (and as many
    /// queue-depth samples). Counters and sums are exact regardless of
    /// capacity; only the per-event ring is bounded.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "ring capacity must be positive");
        RingTracer {
            capacity,
            events: VecDeque::with_capacity(capacity.min(4096)),
            counters: TraceCounters::default(),
            phase_sum: ServiceBreakdown::default(),
            energy_sum: PhaseEnergy::default(),
            depth_series: VecDeque::with_capacity(capacity.min(4096)),
            max_queue_depth: 0,
        }
    }

    fn push_event(&mut self, ev: TraceEvent) {
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.counters.dropped_events += 1;
        }
        self.events.push_back(ev);
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter()
    }

    /// The monotonic counters.
    pub fn counters(&self) -> TraceCounters {
        self.counters
    }

    /// Per-phase time sums over every serviced request (exact even when
    /// the ring dropped events).
    pub fn phase_sum(&self) -> &ServiceBreakdown {
        &self.phase_sum
    }

    /// Per-phase energy sums over every serviced request, joules.
    pub fn energy_sum(&self) -> &PhaseEnergy {
        &self.energy_sum
    }

    /// The retained `(time, depth)` queue-depth samples, oldest first.
    pub fn depth_series(&self) -> impl Iterator<Item = &(f64, usize)> {
        self.depth_series.iter()
    }

    /// Largest queue depth sampled.
    pub fn max_queue_depth(&self) -> usize {
        self.max_queue_depth
    }

    /// Mean candidates examined per pick (0 when no picks were counted).
    pub fn mean_candidates_per_pick(&self) -> f64 {
        if self.counters.picks == 0 {
            0.0
        } else {
            self.counters.candidates_examined as f64 / self.counters.picks as f64
        }
    }

    /// Mean queue depth at pick time (0 when no picks happened).
    pub fn mean_depth_at_pick(&self) -> f64 {
        if self.counters.picks == 0 {
            0.0
        } else {
            self.counters.pick_depth_sum as f64 / self.counters.picks as f64
        }
    }

    /// The retained events as JSONL, one event object per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.events.len() * 160);
        for ev in &self.events {
            out.push_str(&ev.to_json());
            out.push('\n');
        }
        out
    }

    /// The run summary as one pretty-printed JSON object: counters,
    /// per-phase time and energy sums, and derived ratios.
    pub fn summary_json(&self) -> String {
        let c = &self.counters;
        let p = &self.phase_sum;
        let e = &self.energy_sum;
        let mut s = String::with_capacity(1024);
        let _ = write!(
            s,
            concat!(
                "{{\n",
                "  \"arrivals\": {},\n",
                "  \"picks\": {},\n",
                "  \"completions\": {},\n",
                "  \"candidates_examined\": {},\n",
                "  \"mean_candidates_per_pick\": {:.4},\n",
                "  \"mean_queue_depth_at_pick\": {:.4},\n",
                "  \"max_queue_depth\": {},\n",
                "  \"dropped_events\": {},\n",
                "  \"dropped_depth_samples\": {},\n",
                "  \"phase_seconds\": {{\n",
                "    \"positioning\": {:.9},\n",
                "    \"seek_x\": {:.9},\n",
                "    \"settle\": {:.9},\n",
                "    \"seek_y\": {:.9},\n",
                "    \"rotation\": {:.9},\n",
                "    \"transfer\": {:.9},\n",
                "    \"turnaround\": {:.9},\n",
                "    \"overhead\": {:.9}\n",
                "  }},\n",
                "  \"turnaround_count\": {},\n",
                "  \"energy_joules\": {{\n",
                "    \"positioning\": {:.9},\n",
                "    \"transfer\": {:.9},\n",
                "    \"overhead\": {:.9},\n",
                "    \"total\": {:.9}\n",
                "  }}"
            ),
            c.arrivals,
            c.picks,
            c.completions,
            c.candidates_examined,
            self.mean_candidates_per_pick(),
            self.mean_depth_at_pick(),
            self.max_queue_depth,
            c.dropped_events,
            c.dropped_depth_samples,
            p.positioning,
            p.seek_x,
            p.settle,
            p.seek_y,
            p.rotation,
            p.transfer,
            p.turnaround,
            p.overhead,
            p.turnaround_count,
            e.positioning_j,
            e.transfer_j,
            e.overhead_j,
            e.total(),
        );
        s.push_str("\n}\n");
        s
    }
}

impl Tracer for RingTracer {
    const ENABLED: bool = true;

    fn on_arrival(&mut self, req: &Request, now: SimTime, queue_depth: usize) {
        self.counters.arrivals += 1;
        self.push_event(TraceEvent::Arrival {
            id: req.id,
            t: now.as_secs(),
            lbn: req.lbn,
            sectors: req.sectors,
            read: req.kind == IoKind::Read,
            queue_depth,
        });
    }

    fn on_pick(&mut self, req: &Request, now: SimTime, queue_depth: usize, candidates: u64) {
        self.counters.picks += 1;
        self.counters.candidates_examined += candidates;
        self.counters.pick_depth_sum += queue_depth as u64;
        self.push_event(TraceEvent::Pick {
            id: req.id,
            t: now.as_secs(),
            queue_depth,
            candidates,
        });
    }

    fn on_service(
        &mut self,
        req: &Request,
        start: SimTime,
        b: &ServiceBreakdown,
        energy: &PhaseEnergy,
    ) {
        self.phase_sum.accumulate(b);
        self.energy_sum.accumulate(energy);
        self.push_event(TraceEvent::Service {
            id: req.id,
            t: start.as_secs(),
            lbn: req.lbn,
            sectors: req.sectors,
            positioning: b.positioning,
            seek_x: b.seek_x,
            settle: b.settle,
            seek_y: b.seek_y,
            rotation: b.rotation,
            transfer: b.transfer,
            turnaround: b.turnaround,
            turnaround_count: b.turnaround_count,
            overhead: b.overhead,
            fault_recovery: b.fault_recovery,
            energy_positioning_j: energy.positioning_j,
            energy_transfer_j: energy.transfer_j,
            energy_overhead_j: energy.overhead_j,
        });
    }

    fn on_complete(&mut self, c: &Completion) {
        self.counters.completions += 1;
        self.push_event(TraceEvent::Complete {
            id: c.request.id,
            t: c.completion.as_secs(),
            queue: c.queue_time().as_secs(),
            service: c.service_time().as_secs(),
            response: c.response_time().as_secs(),
        });
    }

    fn on_queue_depth(&mut self, now: SimTime, depth: usize) {
        self.max_queue_depth = self.max_queue_depth.max(depth);
        if self.depth_series.len() == self.capacity {
            self.depth_series.pop_front();
            self.counters.dropped_depth_samples += 1;
        }
        self.depth_series.push_back((now.as_secs(), depth));
    }

    fn on_fault(&mut self, fault: &FaultKind, now: SimTime) {
        self.counters.faults += 1;
        self.push_event(TraceEvent::Fault {
            t: now.as_secs(),
            kind: *fault,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(id: u64) -> Request {
        Request::new(id, SimTime::ZERO, id * 64, 8, IoKind::Read)
    }

    #[test]
    fn noop_tracer_is_disabled() {
        const { assert!(!NoopTracer::ENABLED) };
        // The hooks are callable and do nothing.
        let mut t = NoopTracer;
        t.on_arrival(&req(0), SimTime::ZERO, 1);
        t.on_queue_depth(SimTime::ZERO, 3);
    }

    #[test]
    fn ring_records_lifecycle_events_in_order() {
        let mut t = RingTracer::new(16);
        let r = req(7);
        t.on_arrival(&r, SimTime::ZERO, 1);
        t.on_pick(&r, SimTime::ZERO, 1, 1);
        t.on_service(
            &r,
            SimTime::ZERO,
            &ServiceBreakdown {
                positioning: 1e-3,
                transfer: 2e-3,
                ..Default::default()
            },
            &PhaseEnergy::default(),
        );
        t.on_complete(&Completion {
            request: r,
            start_service: SimTime::ZERO,
            completion: SimTime::from_ms(3.0),
        });
        let kinds: Vec<&str> = t
            .events()
            .map(|e| match e {
                TraceEvent::Arrival { .. } => "arrival",
                TraceEvent::Pick { .. } => "pick",
                TraceEvent::Service { .. } => "service",
                TraceEvent::Complete { .. } => "complete",
                TraceEvent::Fault { .. } => "fault",
            })
            .collect();
        assert_eq!(kinds, ["arrival", "pick", "service", "complete"]);
        assert_eq!(t.counters().arrivals, 1);
        assert_eq!(t.counters().picks, 1);
        assert_eq!(t.counters().completions, 1);
        assert!((t.phase_sum().positioning - 1e-3).abs() < 1e-15);
    }

    #[test]
    fn full_ring_drops_oldest_but_keeps_sums_exact() {
        let mut t = RingTracer::new(2);
        for i in 0..5 {
            t.on_arrival(&req(i), SimTime::ZERO, 1);
        }
        assert_eq!(t.events().count(), 2);
        assert_eq!(t.counters().dropped_events, 3);
        assert_eq!(t.counters().arrivals, 5, "counters are exact");
        // The survivors are the two newest.
        let ids: Vec<u64> = t
            .events()
            .map(|e| match e {
                TraceEvent::Arrival { id, .. } => *id,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(ids, [3, 4]);
    }

    #[test]
    fn jsonl_has_one_object_per_event() {
        let mut t = RingTracer::new(8);
        t.on_arrival(&req(1), SimTime::from_ms(0.5), 1);
        t.on_pick(&req(1), SimTime::from_ms(0.5), 1, 1);
        let jsonl = t.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("{\"ev\":\"arrival\""));
        assert!(lines[0].contains("\"lbn\":64"));
        assert!(lines[1].starts_with("{\"ev\":\"pick\""));
        for line in lines {
            assert!(line.ends_with('}'));
        }
    }

    #[test]
    fn summary_reports_ratios() {
        let mut t = RingTracer::new(8);
        t.on_pick(&req(0), SimTime::ZERO, 4, 2);
        t.on_pick(&req(1), SimTime::ZERO, 2, 2);
        assert_eq!(t.mean_candidates_per_pick(), 2.0);
        assert_eq!(t.mean_depth_at_pick(), 3.0);
        let s = t.summary_json();
        assert!(s.contains("\"picks\": 2"));
        assert!(s.contains("\"candidates_examined\": 4"));
    }

    #[test]
    fn depth_series_is_bounded() {
        let mut t = RingTracer::new(3);
        for i in 0..10 {
            t.on_queue_depth(SimTime::from_ms(i as f64), i as usize);
        }
        assert_eq!(t.depth_series().count(), 3);
        assert_eq!(t.max_queue_depth(), 9);
        assert_eq!(
            t.counters().dropped_depth_samples,
            7,
            "evicted samples are accounted, not silent"
        );
        assert!(t.summary_json().contains("\"dropped_depth_samples\": 7"));
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_rejected() {
        let _ = RingTracer::new(0);
    }
}
