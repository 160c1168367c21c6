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
//! [`TraceEvent`]s, each carrying the simulator's own records (the
//! [`Request`], its [`ServiceBreakdown`] and [`PhaseEnergy`], its
//! [`Completion`]), exportable as JSONL, one event per line. It keeps
//! events only. Run totals come from elsewhere: phase sums from
//! [`crate::SimReport::breakdown_sum`], pick work from the scheduler's
//! [`crate::SchedCounters`], windowed series from [`crate::Telemetry`].

use std::collections::VecDeque;
use std::fmt::Write as _;

use crate::device::{PhaseEnergy, ServiceBreakdown};
use crate::fault::FaultKind;
use crate::request::{Completion, Request};
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

/// One structured lifecycle event, carrying the simulator's own records.
///
/// Times are on the simulated timeline; phase durations and energies are
/// per-request (not cumulative).
#[derive(Debug, Clone, Copy)]
pub enum TraceEvent {
    /// A request arrived in the scheduler queue, at its `arrival` time.
    Arrival {
        /// The request.
        req: Request,
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
        /// The request.
        req: Request,
        /// Service start time.
        start: SimTime,
        /// The device's per-phase time decomposition.
        breakdown: ServiceBreakdown,
        /// The device's per-phase energy attribution.
        energy: PhaseEnergy,
    },
    /// A request completed.
    Complete(Completion),
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
        match self {
            TraceEvent::Arrival { req, queue_depth } => {
                let _ = write!(
                    s,
                    "{{\"ev\":\"arrival\",\"id\":{},\"t\":{:.9},\"lbn\":{},\
                     \"sectors\":{},\"kind\":\"{}\",\"queue_depth\":{queue_depth}}}",
                    req.id,
                    req.arrival.as_secs(),
                    req.lbn,
                    req.sectors,
                    if req.kind.is_read() { "read" } else { "write" }
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
                req,
                start,
                breakdown: b,
                energy: e,
            } => {
                let _ = write!(
                    s,
                    "{{\"ev\":\"service\",\"id\":{},\"t\":{:.9},\"lbn\":{},\
                     \"sectors\":{},\"positioning\":{:.12},\
                     \"seek_x\":{:.12},\"settle\":{:.12},\
                     \"seek_y\":{:.12},\"rotation\":{:.12},\
                     \"transfer\":{:.12},\"turnaround\":{:.12},\
                     \"turnaround_count\":{},\"overhead\":{:.12},\
                     \"fault_recovery\":{:.12},\"background_wait\":{:.12},\
                     \"energy_positioning_j\":{:.12},\
                     \"energy_transfer_j\":{:.12},\
                     \"energy_overhead_j\":{:.12}}}",
                    req.id,
                    start.as_secs(),
                    req.lbn,
                    req.sectors,
                    b.positioning,
                    b.seek_x,
                    b.settle,
                    b.seek_y,
                    b.rotation,
                    b.transfer,
                    b.turnaround,
                    b.turnaround_count,
                    b.overhead,
                    b.fault_recovery,
                    b.background_wait,
                    e.positioning_j,
                    e.transfer_j,
                    e.overhead_j,
                );
            }
            TraceEvent::Complete(c) => {
                let _ = write!(
                    s,
                    "{{\"ev\":\"complete\",\"id\":{},\"t\":{:.9},\"queue\":{:.12},\
                     \"service\":{:.12},\"response\":{:.12}}}",
                    c.request.id,
                    c.completion.as_secs(),
                    c.queue_time().as_secs(),
                    c.service_time().as_secs(),
                    c.response_time().as_secs(),
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

/// A recording tracer: a bounded ring of [`TraceEvent`]s and a count of
/// the events it evicted.
///
/// # Examples
///
/// ```
/// use storage_sim::{ConstantDevice, Driver, FifoScheduler, IoKind, Request,
///                   RingTracer, SimTime, TraceEvent, VecWorkload};
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
/// // Four events per request: arrival, pick, service, complete.
/// assert_eq!(trace.events().count(), 4);
/// assert_eq!(trace.dropped_events(), 0);
/// let Some(TraceEvent::Complete(c)) = trace.events().last() else {
///     panic!("a completion closes the run");
/// };
/// assert_eq!(c.completion, report.makespan);
/// ```
#[derive(Debug, Clone)]
pub struct RingTracer {
    capacity: usize,
    events: VecDeque<TraceEvent>,
    dropped_events: u64,
}

impl RingTracer {
    /// Creates a tracer retaining at most `capacity` events; once full,
    /// each new event evicts the oldest.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "ring capacity must be positive");
        RingTracer {
            capacity,
            events: VecDeque::with_capacity(capacity.min(4096)),
            dropped_events: 0,
        }
    }

    fn push_event(&mut self, ev: TraceEvent) {
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped_events += 1;
        }
        self.events.push_back(ev);
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter()
    }

    /// Events evicted from the ring because it was full.
    pub fn dropped_events(&self) -> u64 {
        self.dropped_events
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
}

impl Tracer for RingTracer {
    const ENABLED: bool = true;

    fn on_arrival(&mut self, req: &Request, _now: SimTime, queue_depth: usize) {
        self.push_event(TraceEvent::Arrival {
            req: *req,
            queue_depth,
        });
    }

    fn on_pick(&mut self, req: &Request, now: SimTime, queue_depth: usize, candidates: u64) {
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
        breakdown: &ServiceBreakdown,
        energy: &PhaseEnergy,
    ) {
        self.push_event(TraceEvent::Service {
            req: *req,
            start,
            breakdown: *breakdown,
            energy: *energy,
        });
    }

    fn on_complete(&mut self, completion: &Completion) {
        self.push_event(TraceEvent::Complete(*completion));
    }

    fn on_fault(&mut self, fault: &FaultKind, now: SimTime) {
        self.push_event(TraceEvent::Fault {
            t: now.as_secs(),
            kind: *fault,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::IoKind;

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
        let b = ServiceBreakdown {
            positioning: 1e-3,
            transfer: 2e-3,
            background_wait: 5e-4,
            ..Default::default()
        };
        t.on_arrival(&r, SimTime::ZERO, 1);
        t.on_pick(&r, SimTime::ZERO, 1, 1);
        t.on_service(&r, SimTime::ZERO, &b, &PhaseEnergy::default());
        t.on_complete(&Completion {
            request: r,
            start_service: SimTime::ZERO,
            completion: SimTime::from_ms(3.5),
        });
        let kinds: Vec<&str> = t
            .events()
            .map(|e| match e {
                TraceEvent::Arrival { .. } => "arrival",
                TraceEvent::Pick { .. } => "pick",
                TraceEvent::Service { .. } => "service",
                TraceEvent::Complete(_) => "complete",
                TraceEvent::Fault { .. } => "fault",
            })
            .collect();
        assert_eq!(kinds, ["arrival", "pick", "service", "complete"]);
        // The service event holds the device's breakdown whole.
        let Some(TraceEvent::Service { breakdown, .. }) = t.events().nth(2) else {
            unreachable!("third event is the service");
        };
        assert_eq!(*breakdown, b);
    }

    #[test]
    fn full_ring_drops_the_oldest_and_counts_them() {
        let mut t = RingTracer::new(2);
        for i in 0..5 {
            t.on_arrival(&req(i), SimTime::ZERO, 1);
        }
        assert_eq!(t.events().count(), 2);
        assert_eq!(t.dropped_events(), 3);
        // The survivors are the two newest.
        let ids: Vec<u64> = t
            .events()
            .map(|e| match e {
                TraceEvent::Arrival { req, .. } => req.id,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(ids, [3, 4]);
    }

    #[test]
    fn jsonl_has_one_object_per_event() {
        let mut t = RingTracer::new(8);
        t.on_arrival(&req(1), SimTime::ZERO, 1);
        t.on_pick(&req(1), SimTime::from_ms(0.5), 1, 1);
        t.on_service(
            &req(1),
            SimTime::from_ms(0.5),
            &ServiceBreakdown {
                fault_recovery: 1e-4,
                background_wait: 2e-4,
                ..Default::default()
            },
            &PhaseEnergy::default(),
        );
        let jsonl = t.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("{\"ev\":\"arrival\""));
        assert!(lines[0].contains("\"lbn\":64"));
        assert!(lines[1].starts_with("{\"ev\":\"pick\""));
        assert!(lines[2].starts_with("{\"ev\":\"service\""));
        assert!(lines[2].contains("\"fault_recovery\":0.000100000000,"));
        assert!(lines[2].contains("\"background_wait\":0.000200000000,"));
        for line in lines {
            assert!(line.ends_with('}'));
        }
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_rejected() {
        let _ = RingTracer::new(0);
    }
}
