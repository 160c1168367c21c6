//! Online fault injection: scheduled fault events for live simulations.
//!
//! The static fault machinery (ECC budgets, remap tables) answers *whether*
//! data survives; measuring what degraded operation *costs* requires faults
//! to occur while the discrete-event simulation is running, the way DiskSim
//! injects events mid-trace. A [`FaultClock`] is a deterministic, seeded
//! schedule of [`FaultEvent`]s that the [`crate::Driver`] merges into its
//! event queue as first-class events; when one fires, the driver delivers
//! it to the device through [`crate::StorageDevice::on_fault`] and to the
//! tracer through [`crate::Tracer::on_fault`]. A driver with an empty
//! clock executes exactly the fault-free event sequence (asserted
//! bit-identical by test).

use crate::rng;
use crate::time::SimTime;

/// One kind of fault arriving at a device mid-run.
///
/// The simulator stays geometry-agnostic: tips and rows are plain indices
/// that device wrappers interpret against their own geometry (and ignore
/// when meaningless — a disk has no probe tips).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// A probe tip fails permanently (tip crash, actuator failure, faulty
    /// per-tip logic). The device decides between spare-tip remapping and
    /// operating the region degraded.
    TipFailure {
        /// The failing tip index.
        tip: u32,
    },
    /// A transient positioning (seek) error arms on the device: the next
    /// serviced request mis-positions and must retry.
    TransientSeekError,
    /// A grown media defect ruins a contiguous blob of tip-sector rows in
    /// one tip's region.
    MediaDefect {
        /// The tip whose region is damaged.
        tip: u32,
        /// First ruined tip-sector row.
        row_start: u32,
        /// Last ruined tip-sector row (inclusive).
        row_end: u32,
    },
}

impl FaultKind {
    /// Short stable label for traces and reports.
    pub fn label(&self) -> &'static str {
        match self {
            FaultKind::TipFailure { .. } => "tip_failure",
            FaultKind::TransientSeekError => "transient_seek_error",
            FaultKind::MediaDefect { .. } => "media_defect",
        }
    }
}

/// A fault scheduled at a point in simulated time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// When the fault occurs.
    pub at: SimTime,
    /// What happens.
    pub kind: FaultKind,
}

/// A deterministic schedule of fault events, consumed in time order.
///
/// Construct one from an explicit event list ([`FaultClock::from_events`]),
/// from a seeded burst of tip failures ([`FaultClock::tip_failures`]), or
/// from seeded Poisson arrival processes ([`FaultClock::poisson`]). The
/// default clock is empty: a driver carrying it schedules nothing and runs
/// the unchanged fault-free simulation.
///
/// # Examples
///
/// ```
/// use storage_sim::{FaultClock, FaultEvent, FaultKind, SimTime};
///
/// let mut clock = FaultClock::from_events(vec![
///     FaultEvent { at: SimTime::from_ms(2.0), kind: FaultKind::TransientSeekError },
///     FaultEvent { at: SimTime::from_ms(1.0), kind: FaultKind::TipFailure { tip: 7 } },
/// ]);
/// // Events come out in time order regardless of construction order.
/// assert_eq!(clock.pop().unwrap().at, SimTime::from_ms(1.0));
/// assert_eq!(clock.pop().unwrap().kind, FaultKind::TransientSeekError);
/// assert!(clock.pop().is_none());
/// ```
#[derive(Debug, Clone, Default)]
pub struct FaultClock {
    /// Remaining events, time-ordered.
    events: Vec<FaultEvent>,
    next: usize,
}

impl FaultClock {
    /// An empty schedule: no faults ever fire.
    pub fn empty() -> Self {
        FaultClock::default()
    }

    /// Builds a schedule from explicit events, sorting them stably by time
    /// (ties keep their relative order, so the schedule is deterministic).
    pub fn from_events(mut events: Vec<FaultEvent>) -> Self {
        events.sort_by_key(|e| e.at);
        FaultClock { events, next: 0 }
    }

    /// A seeded burst of `n` tip failures on tips drawn uniformly from
    /// `[0, tips)` (duplicates possible, as in a real correlated failure),
    /// spread evenly across `(0, window]` — failure `i` fires at
    /// `(i + 1) / n · window`.
    ///
    /// # Panics
    ///
    /// Panics if `tips` is zero while `n` is not.
    pub fn tip_failures(seed: u64, n: usize, tips: u32, window: SimTime) -> Self {
        let mut r = rng::seeded(seed);
        let events = (0..n)
            .map(|i| FaultEvent {
                at: SimTime::from_secs(window.as_secs() * (i + 1) as f64 / n as f64),
                kind: FaultKind::TipFailure {
                    tip: rng::uniform_u64(&mut r, u64::from(tips)) as u32,
                },
            })
            .collect();
        FaultClock::from_events(events)
    }

    /// Seeded Poisson arrival processes over `(0, horizon)`: independent
    /// exponential inter-arrival streams for tip failures, transient seek
    /// errors, and media defects (rates in events/second; a zero rate
    /// disables that stream). Defects ruin 1–3 rows of a uniform tip, like
    /// the static injector.
    pub fn poisson(
        seed: u64,
        horizon: SimTime,
        tip_failure_rate: f64,
        transient_rate: f64,
        defect_rate: f64,
        tips: u32,
        rows_per_track: u32,
    ) -> Self {
        let mut r = rng::seeded(seed);
        let mut events = Vec::new();
        let horizon = horizon.as_secs();
        if tip_failure_rate > 0.0 {
            let mut t = rng::exponential(&mut r, 1.0 / tip_failure_rate);
            while t < horizon {
                events.push(FaultEvent {
                    at: SimTime::from_secs(t),
                    kind: FaultKind::TipFailure {
                        tip: rng::uniform_u64(&mut r, u64::from(tips)) as u32,
                    },
                });
                t += rng::exponential(&mut r, 1.0 / tip_failure_rate);
            }
        }
        if transient_rate > 0.0 {
            let mut t = rng::exponential(&mut r, 1.0 / transient_rate);
            while t < horizon {
                events.push(FaultEvent {
                    at: SimTime::from_secs(t),
                    kind: FaultKind::TransientSeekError,
                });
                t += rng::exponential(&mut r, 1.0 / transient_rate);
            }
        }
        if defect_rate > 0.0 {
            let mut t = rng::exponential(&mut r, 1.0 / defect_rate);
            while t < horizon {
                let tip = rng::uniform_u64(&mut r, u64::from(tips)) as u32;
                let row = rng::uniform_u64(&mut r, u64::from(rows_per_track)) as u32;
                let len = 1 + rng::uniform_u64(&mut r, 3) as u32;
                events.push(FaultEvent {
                    at: SimTime::from_secs(t),
                    kind: FaultKind::MediaDefect {
                        tip,
                        row_start: row,
                        row_end: (row + len - 1).min(rows_per_track - 1),
                    },
                });
                t += rng::exponential(&mut r, 1.0 / defect_rate);
            }
        }
        FaultClock::from_events(events)
    }

    /// Removes and returns the next fault event, if any.
    pub fn pop(&mut self) -> Option<FaultEvent> {
        let ev = self.events.get(self.next).copied();
        if ev.is_some() {
            self.next += 1;
        }
        ev
    }

    /// Number of events not yet delivered.
    pub fn remaining(&self) -> usize {
        self.events.len() - self.next
    }

    /// Returns `true` if no events remain.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_clock_yields_nothing() {
        let mut c = FaultClock::empty();
        assert!(c.is_empty());
        assert_eq!(c.pop(), None);
    }

    #[test]
    fn events_come_out_time_ordered_and_stably() {
        let mut c = FaultClock::from_events(vec![
            FaultEvent {
                at: SimTime::from_ms(5.0),
                kind: FaultKind::TipFailure { tip: 1 },
            },
            FaultEvent {
                at: SimTime::from_ms(1.0),
                kind: FaultKind::TransientSeekError,
            },
            FaultEvent {
                at: SimTime::from_ms(5.0),
                kind: FaultKind::TipFailure { tip: 2 },
            },
        ]);
        assert_eq!(c.remaining(), 3);
        assert_eq!(c.pop().unwrap().kind, FaultKind::TransientSeekError);
        // Simultaneous events keep their construction order.
        assert_eq!(c.pop().unwrap().kind, FaultKind::TipFailure { tip: 1 });
        assert_eq!(c.pop().unwrap().kind, FaultKind::TipFailure { tip: 2 });
        assert!(c.is_empty());
    }

    #[test]
    fn tip_failure_burst_is_deterministic_and_in_window() {
        let window = SimTime::from_ms(100.0);
        let a = FaultClock::tip_failures(42, 20, 6400, window);
        let b = FaultClock::tip_failures(42, 20, 6400, window);
        assert_eq!(a.events, b.events);
        assert_eq!(a.remaining(), 20);
        for ev in &a.events {
            assert!(ev.at > SimTime::ZERO && ev.at <= window);
            match ev.kind {
                FaultKind::TipFailure { tip } => assert!(tip < 6400),
                other => panic!("unexpected {other:?}"),
            }
        }
        let c = FaultClock::tip_failures(43, 20, 6400, window);
        assert_ne!(a.events, c.events, "different seeds draw different tips");
    }

    #[test]
    fn poisson_streams_are_seeded_and_bounded() {
        let horizon = SimTime::from_secs(10.0);
        let mk = |seed| FaultClock::poisson(seed, horizon, 2.0, 5.0, 1.0, 6400, 27);
        let a = mk(7);
        assert_eq!(a.events, mk(7).events);
        assert!(a.remaining() > 10, "~80 expected events");
        let mut last = SimTime::ZERO;
        for ev in &a.events {
            assert!(ev.at >= last, "events must be time-ordered");
            assert!(ev.at < horizon);
            last = ev.at;
            if let FaultKind::MediaDefect {
                tip,
                row_start,
                row_end,
            } = ev.kind
            {
                assert!(tip < 6400 && row_start <= row_end && row_end < 27);
            }
        }
    }

    #[test]
    fn zero_rates_disable_streams() {
        let c = FaultClock::poisson(1, SimTime::from_secs(5.0), 0.0, 0.0, 0.0, 100, 10);
        assert!(c.is_empty());
    }
}
