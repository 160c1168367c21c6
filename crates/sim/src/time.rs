//! Simulation time.
//!
//! [`SimTime`] is a thin wrapper around `f64` seconds. All device models in
//! the workspace produce times from closed-form physics, so floating point
//! is the natural representation; the wrapper exists to keep units explicit
//! (constructors and accessors are unit-suffixed) and to provide the total
//! ordering the event queue needs.

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// An instant (or duration) on the simulated timeline, in seconds.
///
/// `SimTime` is totally ordered via [`f64::total_cmp`]; constructors reject
/// NaN so the ordering is also semantically sound. Negative values are
/// permitted (they arise transiently in interval arithmetic) but the driver
/// never schedules events in the past.
///
/// # Examples
///
/// ```
/// use storage_sim::SimTime;
///
/// let t = SimTime::from_ms(1.5);
/// assert_eq!(t.as_secs() * 1e6, 1500.0);
/// assert!(t < SimTime::from_secs(1.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimTime(f64);

impl SimTime {
    /// The simulation epoch, time zero.
    pub const ZERO: SimTime = SimTime(0.0);

    /// Creates a time from seconds.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is NaN.
    #[inline]
    pub fn from_secs(secs: f64) -> Self {
        assert!(!secs.is_nan(), "SimTime must not be NaN");
        SimTime(secs)
    }

    /// Creates a time from milliseconds.
    #[inline]
    pub fn from_ms(ms: f64) -> Self {
        Self::from_secs(ms * 1e-3)
    }

    /// Creates a time from microseconds.
    #[inline]
    pub fn from_us(us: f64) -> Self {
        Self::from_secs(us * 1e-6)
    }

    /// Returns the time in seconds.
    #[inline]
    pub fn as_secs(self) -> f64 {
        self.0
    }

    /// Returns the larger of two times.
    #[inline]
    pub fn max(self, other: SimTime) -> SimTime {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// Returns the smaller of two times.
    #[inline]
    pub fn min(self, other: SimTime) -> SimTime {
        if self <= other {
            self
        } else {
            other
        }
    }
}

impl Eq for SimTime {}

impl PartialOrd for SimTime {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for SimTime {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.total_cmp(&other.0)
    }
}

impl Add for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 += rhs.0;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.abs() >= 1.0 {
            write!(f, "{:.6} s", self.0)
        } else if self.0.abs() >= 1e-3 {
            write!(f, "{:.3} ms", self.0 * 1e3)
        } else {
            write!(f, "{:.1} us", self.0 * 1e6)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        let t = SimTime::from_ms(2.5);
        assert!((t.as_secs() - 0.0025).abs() < 1e-15);
        assert!((t.as_secs() * 1e6 - 2500.0).abs() < 1e-9);
        assert_eq!(SimTime::from_us(1000.0), SimTime::from_ms(1.0));
    }

    #[test]
    fn ordering_is_total_and_sane() {
        let a = SimTime::from_ms(1.0);
        let b = SimTime::from_ms(2.0);
        assert!(a < b);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        assert_eq!(SimTime::ZERO.max(a), a);
    }

    #[test]
    fn arithmetic() {
        let a = SimTime::from_ms(1.0);
        let b = SimTime::from_ms(0.5);
        assert_eq!(a + b, SimTime::from_ms(1.5));
        assert_eq!(a - b, SimTime::from_ms(0.5));
        let mut c = a;
        c += b;
        assert_eq!(c, SimTime::from_ms(1.5));
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_rejected() {
        let _ = SimTime::from_secs(f64::NAN);
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(format!("{}", SimTime::from_secs(2.0)), "2.000000 s");
        assert_eq!(format!("{}", SimTime::from_ms(2.0)), "2.000 ms");
        assert_eq!(format!("{}", SimTime::from_us(2.0)), "2.0 us");
    }
}
