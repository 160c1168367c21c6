//! A power-managed device wrapper: timeout-to-sleep with energy and
//! latency accounting.

use storage_sim::{
    FaultKind, PhaseEnergy, PositionOracle, Request, ServiceBreakdown, SimTime, StorageDevice,
};

use super::PowerProfile;

/// Cumulative power-management statistics of one run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PowerStats {
    /// Seconds spent servicing requests.
    pub active_secs: f64,
    /// Seconds up-and-ready but idle.
    pub idle_secs: f64,
    /// Seconds in the low-power state.
    pub sleep_secs: f64,
    /// Number of sleep→active transitions.
    pub wakeups: u64,
    /// Total latency added to requests by wake-ups.
    pub added_latency: f64,
    /// Number of requests serviced.
    pub requests: u64,
}

impl PowerStats {
    /// Total energy in joules under a profile.
    pub fn energy(&self, profile: &PowerProfile) -> f64 {
        profile.active_power * self.active_secs
            + profile.idle_power * self.idle_secs
            + profile.sleep_power * self.sleep_secs
            + profile.restart_energy * self.wakeups as f64
    }

    /// Mean wake-up latency added per request.
    pub fn mean_added_latency(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.added_latency / self.requests as f64
        }
    }
}

/// Wraps a device with a timeout-to-sleep power policy.
///
/// After `timeout` seconds of emptiness the device drops into its
/// low-power state; the next request pays the profile's restart latency.
/// `timeout = 0` is the paper's aggressive MEMS policy (sleep as soon as
/// the I/O queue is empty); `timeout = f64::INFINITY` never sleeps.
///
/// # Examples
///
/// ```
/// use mems_device::{MemsDevice, MemsEnergyModel, MemsParams};
/// use mems_os::power::{PowerManagedDevice, PowerProfile};
/// use storage_sim::{IoKind, Request, SimTime, StorageDevice};
///
/// let profile = PowerProfile::mems(&MemsEnergyModel::default(), 1280);
/// let mut dev = PowerManagedDevice::new(
///     MemsDevice::new(MemsParams::default()),
///     profile,
///     0.0, // sleep whenever idle
/// );
/// // A request after a 1-second gap pays only the 0.5 ms restart.
/// let b = dev.service(&Request::new(0, SimTime::from_secs(1.0), 0, 8, IoKind::Read),
///                     SimTime::from_secs(1.0));
/// assert!(b.overhead >= 0.5e-3);
/// assert_eq!(dev.stats().wakeups, 1);
/// ```
#[derive(Debug, Clone)]
pub struct PowerManagedDevice<D> {
    inner: D,
    profile: PowerProfile,
    timeout: f64,
    last_busy_end: f64,
    stats: PowerStats,
}

impl<D: StorageDevice> PowerManagedDevice<D> {
    /// Wraps `inner` with the given profile and sleep timeout (seconds).
    ///
    /// # Panics
    ///
    /// Panics if `timeout` is negative or NaN.
    pub fn new(inner: D, profile: PowerProfile, timeout: f64) -> Self {
        assert!(timeout >= 0.0, "timeout must be non-negative");
        PowerManagedDevice {
            inner,
            profile,
            timeout,
            last_busy_end: 0.0,
            stats: PowerStats::default(),
        }
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> PowerStats {
        self.stats
    }

    /// Total energy so far under this device's profile.
    pub fn energy(&self) -> f64 {
        self.stats.energy(&self.profile)
    }

    /// The wrapped device.
    pub fn inner(&self) -> &D {
        &self.inner
    }

    /// Closes the books at `end`: accounts the trailing idle/sleep period
    /// after the last request. Call once after a simulation completes.
    pub fn finish(&mut self, end: SimTime) {
        let gap = (end.as_secs() - self.last_busy_end).max(0.0);
        if gap > self.timeout {
            self.stats.idle_secs += self.timeout;
            self.stats.sleep_secs += gap - self.timeout;
        } else {
            self.stats.idle_secs += gap;
        }
        self.last_busy_end = end.as_secs();
    }
}

/// Power management adds wake-up time at service, never to positioning,
/// so the whole oracle is the inner device's — pruned SPTF keeps its
/// buckets, floors and rest-key cache behind this wrapper.
impl<D: StorageDevice> PositionOracle for PowerManagedDevice<D> {
    fn position_time(&self, req: &Request, now: SimTime) -> f64 {
        self.inner.position_time(req, now)
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

    fn prefetch_seek(&self, from_bucket: u64, to_bucket: u64) {
        self.inner.prefetch_seek(from_bucket, to_bucket);
    }
}

impl<D: StorageDevice> StorageDevice for PowerManagedDevice<D> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn capacity_lbns(&self) -> u64 {
        self.inner.capacity_lbns()
    }

    fn service(&mut self, req: &Request, now: SimTime) -> ServiceBreakdown {
        let gap = (now.as_secs() - self.last_busy_end).max(0.0);
        let mut restart = 0.0;
        if gap > self.timeout {
            // The device slept from (last end + timeout) until now.
            self.stats.idle_secs += self.timeout;
            self.stats.sleep_secs += gap - self.timeout;
            self.stats.wakeups += 1;
            restart = self.profile.restart_time;
            self.stats.added_latency += restart;
        } else {
            self.stats.idle_secs += gap;
        }
        let mut b = self.inner.service(req, now + SimTime::from_secs(restart));
        b.overhead += restart;
        self.stats.active_secs += b.total();
        self.stats.requests += 1;
        self.last_busy_end = now.as_secs() + b.total();
        b
    }

    fn reset(&mut self) {
        self.inner.reset();
        self.last_busy_end = 0.0;
        self.stats = PowerStats::default();
    }

    fn phase_energy(&self, breakdown: &ServiceBreakdown) -> PhaseEnergy {
        self.inner.phase_energy(breakdown)
    }

    fn on_fault(&mut self, fault: &FaultKind, now: SimTime) {
        self.inner.on_fault(fault, now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mems_device::{MemsDevice, MemsEnergyModel, MemsParams};
    use storage_sim::IoKind;

    fn mems_profile() -> PowerProfile {
        PowerProfile::mems(&MemsEnergyModel::default(), 1280)
    }

    fn req(id: u64, at: f64, lbn: u64) -> Request {
        Request::new(id, SimTime::from_secs(at), lbn, 8, IoKind::Read)
    }

    #[test]
    fn no_timeout_never_sleeps() {
        let mut d = PowerManagedDevice::new(
            MemsDevice::new(MemsParams::default()),
            mems_profile(),
            f64::INFINITY,
        );
        let b = d.service(&req(0, 10.0, 0), SimTime::from_secs(10.0));
        assert_eq!(d.stats().wakeups, 0);
        assert_eq!(b.overhead, 0.0);
        assert!((d.stats().idle_secs - 10.0).abs() < 1e-9);
        assert_eq!(d.stats().sleep_secs, 0.0);
    }

    #[test]
    fn immediate_sleep_charges_restart_per_gap() {
        let mut d =
            PowerManagedDevice::new(MemsDevice::new(MemsParams::default()), mems_profile(), 0.0);
        let b0 = d.service(&req(0, 1.0, 0), SimTime::from_secs(1.0));
        assert_eq!(d.stats().wakeups, 1);
        assert!((b0.overhead - 0.5e-3).abs() < 1e-12);
        // A back-to-back request pays nothing.
        let t1 = 1.0 + b0.total();
        let b1 = d.service(&req(1, t1, 2700), SimTime::from_secs(t1));
        assert_eq!(d.stats().wakeups, 1);
        assert_eq!(b1.overhead, 0.0);
    }

    #[test]
    fn timeout_splits_idle_and_sleep_time() {
        let mut d =
            PowerManagedDevice::new(MemsDevice::new(MemsParams::default()), mems_profile(), 2.0);
        let _ = d.service(&req(0, 10.0, 0), SimTime::from_secs(10.0));
        assert!((d.stats().idle_secs - 2.0).abs() < 1e-9);
        assert!((d.stats().sleep_secs - 8.0).abs() < 1e-9);
    }

    #[test]
    fn sleeping_saves_energy_on_long_gaps() {
        let run = |timeout: f64| {
            let mut d = PowerManagedDevice::new(
                MemsDevice::new(MemsParams::default()),
                mems_profile(),
                timeout,
            );
            let mut t = 0.0;
            for i in 0..10 {
                t += 5.0; // 5-second gaps
                let b = d.service(&req(i, t, i * 2700), SimTime::from_secs(t));
                t += b.total();
            }
            d.finish(SimTime::from_secs(t));
            (d.energy(), d.stats().mean_added_latency())
        };
        let (e_sleep, lat_sleep) = run(0.0);
        let (e_awake, lat_awake) = run(f64::INFINITY);
        assert!(
            e_sleep < e_awake / 5.0,
            "sleeping {e_sleep} J vs awake {e_awake} J"
        );
        // The MEMS wake-up penalty is half a millisecond — imperceptible.
        assert!(lat_sleep <= 0.5e-3 + 1e-12);
        assert_eq!(lat_awake, 0.0);
    }

    #[test]
    fn finish_accounts_trailing_idle() {
        let mut d = PowerManagedDevice::new(
            MemsDevice::new(MemsParams::default()),
            mems_profile(),
            f64::INFINITY,
        );
        let b = d.service(&req(0, 0.0, 0), SimTime::ZERO);
        d.finish(SimTime::from_secs(b.total() + 3.0));
        assert!((d.stats().idle_secs - 3.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_timeout_rejected() {
        let _ =
            PowerManagedDevice::new(MemsDevice::new(MemsParams::default()), mems_profile(), -1.0);
    }
}
