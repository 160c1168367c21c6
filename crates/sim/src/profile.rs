//! Simulator self-profiling: where does the *simulator* spend wall-clock
//! time?
//!
//! The roadmap's "as fast as the hardware allows" goal needs data, not
//! guesses: is a run bound by scheduler picks (positioning solves, seek
//! surface lookups), by device service computation, or by the event loop
//! itself?
//! [`Profiler`] is a [`Tracer`] that answers this with wall-clock scoped
//! timers the driver wraps around its hot components. The timers are gated
//! on [`Tracer::PROFILE`], which defaults to `false` — a [`NoopTracer`] or
//! [`crate::RingTracer`] build compiles every `Instant::now()` call out,
//! exactly like the `ENABLED` gate on the trace hooks.
//!
//! Wall-clock numbers are inherently nondeterministic, so profile output is
//! informational only — never part of a byte-gated golden. Crucially, the
//! timers read the host clock but never feed anything back into the
//! simulation, so a profiled run's *simulated* results remain bit-identical
//! to an unprofiled run (asserted by the telemetry equivalence tests).
//!
//! [`Tracer`]: crate::tracer::Tracer
//! [`NoopTracer`]: crate::tracer::NoopTracer

use std::fmt::Write as _;

use crate::tracer::Tracer;

/// A driver component wrapped in a wall-clock scope.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProfScope {
    /// One scheduler `pick` call — includes every positioning-time query
    /// (and seek surface lookup) the scheduler issues while scoring
    /// candidates.
    SchedPick,
    /// One device `service` call (kinematic solves and state advance).
    DeviceService,
    /// One fault delivery (`on_fault` on the device).
    FaultDelivery,
    /// One fleet barrier: the engine waiting for every shard worker to
    /// advance its stations to the epoch-grid barrier time.
    BarrierWait,
    /// One fleet cross-shard merge: draining per-station completions,
    /// stable-sorting the batch, and feeding the stripe assembler.
    FleetMerge,
}

impl ProfScope {
    /// Stable snake_case label used in the profile JSON.
    pub fn label(&self) -> &'static str {
        match self {
            ProfScope::SchedPick => "sched_pick",
            ProfScope::DeviceService => "device_service",
            ProfScope::FaultDelivery => "fault_delivery",
            ProfScope::BarrierWait => "barrier_wait",
            ProfScope::FleetMerge => "fleet_merge",
        }
    }
}

/// Accumulated wall-clock statistics for one scope.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScopeStats {
    /// Times the scope was entered.
    pub calls: u64,
    /// Total wall-clock nanoseconds spent inside the scope.
    pub nanos: u64,
    /// Longest single call, nanoseconds.
    pub max_nanos: u64,
}

impl ScopeStats {
    /// Folds one timed call into the stats (public so layers above the
    /// driver — e.g. the fleet engine — can reuse the same accumulator).
    pub fn record(&mut self, nanos: u64) {
        self.calls += 1;
        self.nanos += nanos;
        self.max_nanos = self.max_nanos.max(nanos);
    }

    /// Total seconds spent inside the scope.
    pub fn seconds(&self) -> f64 {
        self.nanos as f64 * 1e-9
    }
}

/// A tracer that accumulates the driver's wall-clock scope timings.
///
/// # Examples
///
/// ```
/// use storage_sim::{ConstantDevice, Driver, FifoScheduler, IoKind, Profiler,
///                   Request, SimTime, VecWorkload};
///
/// let reqs = vec![Request::new(0, SimTime::ZERO, 0, 8, IoKind::Read)];
/// let mut driver = Driver::new(
///     VecWorkload::new(reqs),
///     FifoScheduler::new(),
///     ConstantDevice::new(1_000, 0.001),
/// )
/// .with_tracer(Profiler::new());
/// let report = driver.run();
/// let prof = driver.tracer();
/// assert_eq!(report.completed, 1);
/// assert!(prof.events() >= 2, "arrival + completion events");
/// assert!(prof.run_nanos() > 0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Profiler {
    sched_pick: ScopeStats,
    device_service: ScopeStats,
    fault_delivery: ScopeStats,
    barrier_wait: ScopeStats,
    fleet_merge: ScopeStats,
    events: u64,
    run_nanos: u64,
}

impl Profiler {
    /// Creates an empty profiler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Statistics for one scope.
    pub fn scope(&self, scope: ProfScope) -> ScopeStats {
        match scope {
            ProfScope::SchedPick => self.sched_pick,
            ProfScope::DeviceService => self.device_service,
            ProfScope::FaultDelivery => self.fault_delivery,
            ProfScope::BarrierWait => self.barrier_wait,
            ProfScope::FleetMerge => self.fleet_merge,
        }
    }

    /// Simulation events processed (arrivals + completions + faults).
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Total wall-clock nanoseconds of the event loop (`Driver::run`).
    pub fn run_nanos(&self) -> u64 {
        self.run_nanos
    }

    /// Events processed per wall-clock second; zero before a run.
    pub fn events_per_sec(&self) -> f64 {
        if self.run_nanos == 0 {
            0.0
        } else {
            self.events as f64 / (self.run_nanos as f64 * 1e-9)
        }
    }

    /// The profile as one pretty-printed JSON object.
    ///
    /// Wall-clock derived and therefore nondeterministic: informational
    /// artifacts only, never a byte-gated golden.
    pub fn profile_json(&self) -> String {
        let wall = self.run_nanos as f64 * 1e-9;
        let mut s = String::with_capacity(1024);
        let _ = write!(
            s,
            "{{\n  \"events\": {},\n  \"wall_seconds\": {:.6},\n  \"events_per_sec\": {:.1},\n  \"scopes\": {{\n",
            self.events,
            wall,
            self.events_per_sec()
        );
        let scopes = [
            ProfScope::SchedPick,
            ProfScope::DeviceService,
            ProfScope::FaultDelivery,
            ProfScope::BarrierWait,
            ProfScope::FleetMerge,
        ];
        let mut attributed = 0.0;
        for (i, sc) in scopes.iter().enumerate() {
            let st = self.scope(*sc);
            attributed += st.seconds();
            let share = if wall > 0.0 { st.seconds() / wall } else { 0.0 };
            let _ = writeln!(
                s,
                "    \"{}\": {{ \"calls\": {}, \"seconds\": {:.6}, \"max_us\": {:.3}, \"share_of_wall\": {:.4} }}{}",
                sc.label(),
                st.calls,
                st.seconds(),
                st.max_nanos as f64 * 1e-3,
                share,
                if i + 1 < scopes.len() { "," } else { "" }
            );
        }
        let _ = write!(
            s,
            "  }},\n  \"event_loop_other_seconds\": {:.6}",
            (wall - attributed).max(0.0)
        );
        s.push_str("\n}\n");
        s
    }
}

impl Tracer for Profiler {
    const ENABLED: bool = true;
    const PROFILE: bool = true;

    fn on_scope(&mut self, scope: ProfScope, wall_nanos: u64) {
        match scope {
            ProfScope::SchedPick => self.sched_pick.record(wall_nanos),
            ProfScope::DeviceService => self.device_service.record(wall_nanos),
            ProfScope::FaultDelivery => self.fault_delivery.record(wall_nanos),
            ProfScope::BarrierWait => self.barrier_wait.record(wall_nanos),
            ProfScope::FleetMerge => self.fleet_merge.record(wall_nanos),
        }
    }

    fn on_run_wall(&mut self, events: u64, wall_nanos: u64) {
        // Accumulate so a profiler reused across cells reports totals.
        self.events += events;
        self.run_nanos += wall_nanos;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scopes_accumulate_and_share_adds_up() {
        let mut p = Profiler::new();
        p.on_scope(ProfScope::SchedPick, 100);
        p.on_scope(ProfScope::SchedPick, 300);
        p.on_scope(ProfScope::DeviceService, 600);
        p.on_run_wall(10, 2_000);
        let pick = p.scope(ProfScope::SchedPick);
        assert_eq!(pick.calls, 2);
        assert_eq!(pick.nanos, 400);
        assert_eq!(pick.max_nanos, 300);
        assert_eq!(p.events(), 10);
        assert!((p.events_per_sec() - 10.0 / 2e-6).abs() < 1e-6);
        let json = p.profile_json();
        assert!(json.contains("\"sched_pick\": { \"calls\": 2"));
        assert!(json.contains("\"events\": 10"));
    }

    #[test]
    fn empty_profile_is_benign() {
        let p = Profiler::new();
        assert_eq!(p.events_per_sec(), 0.0);
        let json = p.profile_json();
        assert!(json.contains("\"events\": 0"));
    }
}
