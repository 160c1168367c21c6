//! Windowed time-series telemetry over the simulated timeline.
//!
//! The paper's aggregate figures (mean response time, σ²/µ²) hide the
//! dynamics that explain them: SPTF starving edge-of-sled requests shows
//! up as a widening p99/p50 gap over time, degraded mode shows up as a
//! utilization shift into `fault_recovery`, and energy draw tracks the
//! positioning duty cycle. [`Telemetry`] is a [`Tracer`] that buckets
//! sim-time into fixed windows and records, per window: throughput,
//! response-time distribution (via the mergeable
//! [`LogHistogram`]), queue depth, per-phase device
//! utilization, energy rate, and fault counts.
//!
//! Everything recorded here derives from *simulated* time, so telemetry
//! output is deterministic and CSV exports can be byte-gated goldens. No
//! tracer reads the host clock.
//!
//! Memory is bounded: when a run outgrows the configured window budget the
//! series **coarsens** — adjacent windows merge pairwise and the window
//! width doubles. Coarsening is lossless for counts, sums, and histogram
//! bins (the log-histogram merges exactly), so a multi-hour closed-loop
//! run degrades resolution, never correctness, and never grows without
//! limit.
//!
//! Compose telemetry with an event-ring tracer via [`TracerPair`]:
//! `TracerPair::new(RingTracer::new(n), Telemetry::new(0.5, 256))`.

use crate::device::{PhaseEnergy, ServiceBreakdown};
use crate::fault::FaultKind;
use crate::request::{Completion, Request};
use crate::stats::LogHistogram;
use crate::time::SimTime;
use crate::tracer::Tracer;

/// One telemetry window: everything observed in `[start, start + width)`
/// of simulated time. All fields are mergeable, which is what makes
/// pairwise coarsening exact.
#[derive(Debug, Clone)]
pub struct Window {
    /// Requests that arrived in this window.
    pub arrivals: u64,
    /// Requests that completed in this window.
    pub completions: u64,
    /// Response times of the requests that completed here, seconds.
    pub responses: LogHistogram,
    /// Sum of queue-depth samples taken in this window.
    pub depth_sum: u64,
    /// Number of queue-depth samples taken.
    pub depth_samples: u64,
    /// Largest queue depth sampled.
    pub depth_max: usize,
    /// Per-phase device time for services *starting* in this window,
    /// seconds.
    pub phase: ServiceBreakdown,
    /// Per-phase energy for services starting in this window, joules.
    pub energy: PhaseEnergy,
    /// Fault events delivered in this window.
    pub faults: u64,
}

impl Window {
    fn empty() -> Self {
        Window {
            arrivals: 0,
            completions: 0,
            responses: LogHistogram::response_times(),
            depth_sum: 0,
            depth_samples: 0,
            depth_max: 0,
            phase: ServiceBreakdown::default(),
            energy: PhaseEnergy::default(),
            faults: 0,
        }
    }

    /// Merges `other` into this window (used by coarsening; exact).
    pub fn merge(&mut self, other: &Window) {
        self.arrivals += other.arrivals;
        self.completions += other.completions;
        self.responses.merge(&other.responses);
        self.depth_sum += other.depth_sum;
        self.depth_samples += other.depth_samples;
        self.depth_max = self.depth_max.max(other.depth_max);
        self.phase.accumulate(&other.phase);
        self.energy.accumulate(&other.energy);
        self.faults += other.faults;
    }

    /// Mean sampled queue depth; zero when nothing was sampled.
    pub fn queue_avg(&self) -> f64 {
        if self.depth_samples == 0 {
            0.0
        } else {
            self.depth_sum as f64 / self.depth_samples as f64
        }
    }

    /// Whether nothing at all was observed in this window.
    pub fn is_empty(&self) -> bool {
        self.arrivals == 0
            && self.completions == 0
            && self.depth_samples == 0
            && self.faults == 0
            && self.phase.total() == 0.0
    }
}

/// A tracer that aggregates the request stream into fixed sim-time
/// windows, with bounded memory via pairwise coarsening.
///
/// Attribution rules (documented because they are schema): arrivals and
/// faults land in the window of their event time; per-phase service time
/// and energy land in the window where the service *started*; response
/// times land in the window of *completion* (so a long-starved request
/// shows up late, where the latency was actually felt).
///
/// # Examples
///
/// ```
/// use storage_sim::{ConstantDevice, Driver, FifoScheduler, IoKind, Request,
///                   SimTime, Telemetry, VecWorkload};
///
/// let reqs = (0..10)
///     .map(|i| Request::new(i, SimTime::from_ms(i as f64 * 2.0), i * 64, 8, IoKind::Read))
///     .collect();
/// let mut driver = Driver::new(
///     VecWorkload::new(reqs),
///     FifoScheduler::new(),
///     ConstantDevice::new(10_000, 0.001),
/// )
/// .with_tracer(Telemetry::new(0.005, 64));
/// driver.run();
/// let tel = driver.tracer();
/// let total: u64 = tel.windows().iter().map(|w| w.completions).sum();
/// assert_eq!(total, 10);
/// assert!(tel.windows().len() <= 64);
/// ```
#[derive(Debug, Clone)]
pub struct Telemetry {
    window_secs: f64,
    max_windows: usize,
    windows: Vec<Window>,
    coarsenings: u32,
}

impl Telemetry {
    /// Creates a telemetry series with `window_secs`-wide buckets and at
    /// most `max_windows` retained windows. When simulated time outgrows
    /// the budget, adjacent windows merge pairwise and the width doubles
    /// (deterministically — the trigger is sim-time, never wall-clock).
    ///
    /// # Panics
    ///
    /// Panics if `window_secs` is not positive and finite, or
    /// `max_windows < 2` (coarsening needs at least a pair).
    pub fn new(window_secs: f64, max_windows: usize) -> Self {
        assert!(
            window_secs > 0.0 && window_secs.is_finite(),
            "window width must be positive and finite"
        );
        assert!(max_windows >= 2, "need at least two windows to coarsen");
        Telemetry {
            window_secs,
            max_windows,
            windows: Vec::new(),
            coarsenings: 0,
        }
    }

    /// Current window width, seconds (doubles on every coarsening).
    pub fn window_secs(&self) -> f64 {
        self.window_secs
    }

    /// How many times the series has coarsened.
    pub fn coarsenings(&self) -> u32 {
        self.coarsenings
    }

    /// The recorded windows, oldest first. Interior windows with no
    /// activity are present (and empty), so the timeline has no gaps.
    pub fn windows(&self) -> &[Window] {
        &self.windows
    }

    /// `[start, end)` bounds of window `i`, seconds.
    pub fn window_bounds(&self, i: usize) -> (f64, f64) {
        (
            self.window_secs * i as f64,
            self.window_secs * (i + 1) as f64,
        )
    }

    fn at(&mut self, t: SimTime) -> &mut Window {
        let mut idx = (t.as_secs() / self.window_secs) as usize;
        while idx >= self.max_windows {
            self.coarsen();
            idx = (t.as_secs() / self.window_secs) as usize;
        }
        if idx >= self.windows.len() {
            self.windows.resize_with(idx + 1, Window::empty);
        }
        &mut self.windows[idx]
    }

    /// Coarsens the series until its window width reaches `target_width`.
    ///
    /// This is the alignment half of the fleet merge API: per-station
    /// series that coarsened a different number of times (stations see
    /// different event densities) are brought to a common width before
    /// window-wise merging. Coarsening is the same exact pairwise merge
    /// the memory bound uses, so counts, sums, and histogram bins are
    /// preserved bit-for-bit.
    ///
    /// # Panics
    ///
    /// Panics if `target_width` is not the current width times a
    /// non-negative power of two — anything else cannot be reached by
    /// pairwise merging and would silently misalign windows.
    pub fn coarsen_to(&mut self, target_width: f64) {
        assert!(
            target_width >= self.window_secs,
            "cannot refine a coarsened series ({} -> {target_width})",
            self.window_secs
        );
        while self.window_secs < target_width {
            self.coarsen();
        }
        assert!(
            self.window_secs == target_width,
            "target width {target_width} is not a power-of-two multiple of \
             the base width (reached {})",
            self.window_secs
        );
    }

    fn coarsen(&mut self) {
        let mut merged = Vec::with_capacity(self.windows.len().div_ceil(2));
        for pair in self.windows.chunks(2) {
            let mut w = pair[0].clone();
            if let Some(second) = pair.get(1) {
                w.merge(second);
            }
            merged.push(w);
        }
        self.windows = merged;
        self.window_secs *= 2.0;
        self.coarsenings += 1;
    }

    /// The CSV column header matching [`Telemetry::csv_rows`]. Utilization
    /// columns are phase-seconds divided by window width; `energy_w` is
    /// joules per window divided by width (watts); response quantiles come
    /// from the log histogram (within one bin, ~12 %, of exact).
    pub fn csv_header() -> &'static str {
        "cell,window,start_s,end_s,arrivals,completions,throughput_rps,\
         resp_mean_ms,resp_p50_ms,resp_p95_ms,resp_p99_ms,queue_avg,queue_max,\
         util_seek_x,util_settle,util_seek_y,util_rotation,util_transfer,\
         util_turnaround,util_fault_recovery,util_background_wait,energy_w,faults"
    }

    /// The series as CSV rows (no header), one line per window, each
    /// prefixed with `cell` so several runs can share one file. Purely
    /// sim-time derived: byte-stable across hosts and reruns.
    pub fn csv_rows(&self, cell: &str) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(self.windows.len() * 160);
        let width = self.window_secs;
        for (i, w) in self.windows.iter().enumerate() {
            let (start, end) = self.window_bounds(i);
            let _ = writeln!(
                out,
                "{cell},{i},{start:.3},{end:.3},{},{},{:.2},{:.3},{:.3},{:.3},{:.3},{:.3},{},{:.4},{:.4},{:.4},{:.4},{:.4},{:.4},{:.4},{:.4},{:.4},{}",
                w.arrivals,
                w.completions,
                w.completions as f64 / width,
                w.responses.mean() * 1e3,
                w.responses.quantile(0.50) * 1e3,
                w.responses.quantile(0.95) * 1e3,
                w.responses.quantile(0.99) * 1e3,
                w.queue_avg(),
                w.depth_max,
                w.phase.seek_x / width,
                w.phase.settle / width,
                w.phase.seek_y / width,
                w.phase.rotation / width,
                w.phase.transfer / width,
                w.phase.turnaround / width,
                w.phase.fault_recovery / width,
                w.phase.background_wait / width,
                w.energy.total() / width,
                w.faults,
            );
        }
        out
    }
}

impl Tracer for Telemetry {
    const ENABLED: bool = true;

    fn on_arrival(&mut self, _req: &Request, now: SimTime, _queue_depth: usize) {
        self.at(now).arrivals += 1;
    }

    fn on_service(
        &mut self,
        _req: &Request,
        start: SimTime,
        breakdown: &ServiceBreakdown,
        energy: &PhaseEnergy,
    ) {
        let w = self.at(start);
        w.phase.accumulate(breakdown);
        w.energy.accumulate(energy);
    }

    fn on_complete(&mut self, c: &Completion) {
        let response = c.response_time().as_secs();
        let w = self.at(c.completion);
        w.completions += 1;
        w.responses.push(response);
    }

    fn on_queue_depth(&mut self, now: SimTime, depth: usize) {
        let w = self.at(now);
        w.depth_sum += depth as u64;
        w.depth_samples += 1;
        w.depth_max = w.depth_max.max(depth);
    }

    fn on_fault(&mut self, _fault: &FaultKind, now: SimTime) {
        self.at(now).faults += 1;
    }
}

/// Runs two tracers side by side; the driver instruments for the union of
/// their needs (`ENABLED` is OR'd at compile time). Use this to
/// record an event ring *and* a telemetry timeline in one run.
///
/// # Examples
///
/// ```
/// use storage_sim::{ConstantDevice, Driver, FifoScheduler, IoKind, Request,
///                   RingTracer, SimTime, Telemetry, TracerPair, VecWorkload};
///
/// let reqs = vec![Request::new(0, SimTime::ZERO, 0, 8, IoKind::Read)];
/// let mut driver = Driver::new(
///     VecWorkload::new(reqs),
///     FifoScheduler::new(),
///     ConstantDevice::new(1_000, 0.001),
/// )
/// .with_tracer(TracerPair::new(RingTracer::new(64), Telemetry::new(0.01, 16)));
/// driver.run();
/// let pair = driver.tracer();
/// assert_eq!(pair.first.events().count(), 4);
/// assert_eq!(pair.second.windows().iter().map(|w| w.completions).sum::<u64>(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct TracerPair<A, B> {
    /// The first component tracer.
    pub first: A,
    /// The second component tracer.
    pub second: B,
}

impl<A: Tracer, B: Tracer> TracerPair<A, B> {
    /// Pairs two tracers.
    pub fn new(first: A, second: B) -> Self {
        TracerPair { first, second }
    }
}

impl<A: Tracer, B: Tracer> Tracer for TracerPair<A, B> {
    const ENABLED: bool = A::ENABLED || B::ENABLED;

    fn on_arrival(&mut self, req: &Request, now: SimTime, queue_depth: usize) {
        self.first.on_arrival(req, now, queue_depth);
        self.second.on_arrival(req, now, queue_depth);
    }

    fn on_pick(&mut self, req: &Request, now: SimTime, queue_depth: usize, candidates: u64) {
        self.first.on_pick(req, now, queue_depth, candidates);
        self.second.on_pick(req, now, queue_depth, candidates);
    }

    fn on_service(
        &mut self,
        req: &Request,
        start: SimTime,
        breakdown: &ServiceBreakdown,
        energy: &PhaseEnergy,
    ) {
        self.first.on_service(req, start, breakdown, energy);
        self.second.on_service(req, start, breakdown, energy);
    }

    fn on_complete(&mut self, completion: &Completion) {
        self.first.on_complete(completion);
        self.second.on_complete(completion);
    }

    fn on_queue_depth(&mut self, now: SimTime, depth: usize) {
        self.first.on_queue_depth(now, depth);
        self.second.on_queue_depth(now, depth);
    }

    fn on_fault(&mut self, fault: &FaultKind, now: SimTime) {
        self.first.on_fault(fault, now);
        self.second.on_fault(fault, now);
    }

    fn on_shed(&mut self, req: &Request, now: SimTime, queue_depth: usize) {
        self.first.on_shed(req, now, queue_depth);
        self.second.on_shed(req, now, queue_depth);
    }

    fn on_timeout(&mut self, req: &Request, now: SimTime) {
        self.first.on_timeout(req, now);
        self.second.on_timeout(req, now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::IoKind;

    fn complete_at(id: u64, t_ms: f64, response_ms: f64) -> Completion {
        let start = SimTime::from_ms(t_ms - response_ms);
        Completion {
            request: Request::new(id, start, 0, 8, IoKind::Read),
            start_service: start,
            completion: SimTime::from_ms(t_ms),
        }
    }

    #[test]
    fn events_land_in_their_windows() {
        let mut t = Telemetry::new(0.010, 64); // 10 ms windows
        t.on_arrival(
            &Request::new(0, SimTime::ZERO, 0, 8, IoKind::Read),
            SimTime::from_ms(3.0),
            1,
        );
        t.on_arrival(
            &Request::new(1, SimTime::ZERO, 0, 8, IoKind::Read),
            SimTime::from_ms(14.0),
            1,
        );
        t.on_complete(&complete_at(0, 9.0, 2.0));
        t.on_complete(&complete_at(1, 25.0, 4.0));
        t.on_fault(&FaultKind::TransientSeekError, SimTime::from_ms(21.0));
        let w = t.windows();
        assert_eq!(w.len(), 3);
        assert_eq!(w[0].arrivals, 1);
        assert_eq!(w[1].arrivals, 1);
        assert_eq!(w[0].completions, 1);
        assert_eq!(w[2].completions, 1);
        assert_eq!(w[2].faults, 1);
        assert!((w[2].responses.mean() - 4e-3).abs() < 1e-12);
        assert_eq!(t.window_bounds(1), (0.010, 0.020));
    }

    #[test]
    fn coarsening_bounds_memory_and_preserves_totals() {
        let mut t = Telemetry::new(0.001, 8);
        // 100 completions spread over 100 ms force several coarsenings.
        for i in 0..100u64 {
            t.on_complete(&complete_at(i, i as f64, 0.5));
            t.on_queue_depth(SimTime::from_ms(i as f64), (i % 5) as usize);
        }
        assert!(t.windows().len() <= 8, "window budget is a hard cap");
        assert!(t.coarsenings() >= 4, "0.001 → ≥0.016 s windows");
        assert_eq!(t.window_secs(), 0.001 * 2f64.powi(t.coarsenings() as i32));
        let completions: u64 = t.windows().iter().map(|w| w.completions).sum();
        let samples: u64 = t.windows().iter().map(|w| w.depth_samples).sum();
        assert_eq!(completions, 100, "coarsening loses no counts");
        assert_eq!(samples, 100);
        let max_depth = t.windows().iter().map(|w| w.depth_max).max().unwrap();
        assert_eq!(max_depth, 4);
    }

    #[test]
    fn csv_rows_are_stable_and_match_header_arity() {
        let mut t = Telemetry::new(0.010, 16);
        t.on_complete(&complete_at(0, 5.0, 1.0));
        let header_cols = Telemetry::csv_header().split(',').count();
        let rows = t.csv_rows("cellA");
        let first = rows.lines().next().unwrap();
        assert_eq!(first.split(',').count(), header_cols);
        assert!(first.starts_with("cellA,0,0.000,0.010,0,1,100.00,1.000,"));
        // Deterministic: same inputs, same bytes.
        assert_eq!(rows, t.csv_rows("cellA"));
    }

    #[test]
    fn pair_forwards_to_both() {
        use crate::tracer::{NoopTracer, RingTracer};
        let mut pair = TracerPair::new(RingTracer::new(8), Telemetry::new(0.01, 8));
        pair.on_complete(&complete_at(0, 5.0, 1.0));
        assert_eq!(pair.first.events().count(), 1);
        assert_eq!(pair.second.windows()[0].completions, 1);
        const {
            assert!(TracerPair::<RingTracer, Telemetry>::ENABLED);
            assert!(!TracerPair::<NoopTracer, NoopTracer>::ENABLED);
        }
    }

    /// Counts the overload hooks, the ones `Telemetry` leaves at their
    /// defaults.
    #[derive(Default)]
    struct OverloadCounts {
        shed: u64,
        timed_out: u64,
    }

    impl Tracer for OverloadCounts {
        const ENABLED: bool = true;

        fn on_shed(&mut self, _req: &Request, _now: SimTime, _queue_depth: usize) {
            self.shed += 1;
        }

        fn on_timeout(&mut self, _req: &Request, _now: SimTime) {
            self.timed_out += 1;
        }
    }

    #[test]
    fn pair_forwards_sheds_and_timeouts() {
        use crate::{ConstantDevice, Driver, FifoScheduler, OverloadPolicy, VecWorkload};
        // 400 arrivals in 2 ms against a 1 ms device: the queue trips the
        // high watermark, and what it admits ages past the timeout.
        let burst = (0..400u64)
            .map(|i| {
                Request::new(
                    i,
                    SimTime::from_ms(i as f64 / 200.0),
                    i * 8,
                    8,
                    IoKind::Read,
                )
            })
            .collect();
        let policy = OverloadPolicy::watermarks(64, 16).with_queue_timeout(SimTime::from_ms(20.0));
        let mut driver = Driver::new(
            VecWorkload::new(burst),
            FifoScheduler::new(),
            ConstantDevice::new(10_000, 1e-3),
        )
        .with_overload(policy)
        .with_tracer(TracerPair::new(
            OverloadCounts::default(),
            Telemetry::new(0.01, 64),
        ));
        let report = driver.run();
        assert!(report.shed > 0 && report.timed_out > 0, "{report:?}");
        let counts = &driver.tracer().first;
        assert_eq!(counts.shed, report.shed);
        assert_eq!(counts.timed_out, report.timed_out);
    }

    #[test]
    #[should_panic(expected = "two windows")]
    fn tiny_window_budget_rejected() {
        let _ = Telemetry::new(0.01, 1);
    }

    #[test]
    fn coarsen_to_aligns_and_preserves_totals() {
        let mut t = Telemetry::new(0.001, 256);
        for i in 0..40u64 {
            t.on_complete(&complete_at(i, i as f64, 0.2));
        }
        let before: u64 = t.windows().iter().map(|w| w.completions).sum();
        t.coarsen_to(0.008); // 0.001 * 2^3
        assert_eq!(t.window_secs(), 0.008);
        let after: u64 = t.windows().iter().map(|w| w.completions).sum();
        assert_eq!(before, after);
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn coarsen_to_rejects_unreachable_width() {
        let mut t = Telemetry::new(0.001, 16);
        t.coarsen_to(0.003);
    }
}
