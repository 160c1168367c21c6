//! Predictive spin-down: the adaptive policy disks are forced into.
//!
//! §7's framing: because disk restart penalties are huge, "power
//! management software must constantly make trade-offs between reducing
//! power and increasing access time" — the literature's answer is to
//! predict idle-period lengths and sleep only when the prediction
//! clears the break-even time [DKM94, LKHA94]. [`PredictiveDevice`]
//! implements the classic exponentially-weighted predictor. On a MEMS
//! device it converges to "always sleep" (everything clears a 0.5 ms
//! break-even); on a disk it earns its keep by skipping short gaps —
//! demonstrating exactly why the MEMS policy needs no prediction at all.

use storage_sim::{
    FaultKind, PhaseEnergy, PositionOracle, Request, ServiceBreakdown, SimTime, StorageDevice,
};

use super::managed::PowerStats;
use super::PowerProfile;

/// A device with EWMA-predictive sleep decisions.
///
/// At each idle-period start the device sleeps immediately iff the
/// predicted gap (an exponentially weighted moving average of past gaps)
/// exceeds the profile's break-even idle time.
///
/// # Examples
///
/// ```
/// use atlas_disk::DiskEnergyModel;
/// use mems_device::{MemsDevice, MemsParams};
/// use mems_os::power::{PowerProfile, PredictiveDevice};
///
/// let profile = PowerProfile::disk(&DiskEnergyModel::travelstar_class());
/// let dev = PredictiveDevice::new(MemsDevice::new(MemsParams::default()), profile, 0.3);
/// assert_eq!(dev.stats().wakeups, 0);
/// ```
#[derive(Debug, Clone)]
pub struct PredictiveDevice<D> {
    inner: D,
    profile: PowerProfile,
    /// EWMA smoothing weight for new observations, in (0, 1].
    alpha: f64,
    /// Predicted next gap, seconds.
    predicted_gap: f64,
    last_busy_end: f64,
    stats: PowerStats,
}

impl<D: StorageDevice> PredictiveDevice<D> {
    /// Wraps `inner`; `alpha` is the EWMA weight of the newest gap.
    ///
    /// # Panics
    ///
    /// Panics unless `alpha` is in (0, 1].
    pub fn new(inner: D, profile: PowerProfile, alpha: f64) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0,1]");
        PredictiveDevice {
            inner,
            profile,
            alpha,
            predicted_gap: 0.0,
            last_busy_end: 0.0,
            stats: PowerStats::default(),
        }
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> PowerStats {
        self.stats
    }

    /// Total energy so far under the profile.
    pub fn energy(&self) -> f64 {
        self.stats.energy(&self.profile)
    }

    /// The current gap prediction, seconds.
    pub fn predicted_gap(&self) -> f64 {
        self.predicted_gap
    }

    /// Closes the books at `end` (the trailing gap uses the prediction
    /// made when it began).
    pub fn finish(&mut self, end: SimTime) {
        let gap = (end.as_secs() - self.last_busy_end).max(0.0);
        if self.predicted_gap > self.profile.breakeven_idle() {
            self.stats.sleep_secs += gap;
        } else {
            self.stats.idle_secs += gap;
        }
        self.last_busy_end = end.as_secs();
    }
}

/// Power management adds wake-up time at service, never to positioning,
/// so the whole oracle is the inner device's — pruned SPTF keeps its
/// buckets, floors and rest-key cache behind this wrapper.
impl<D: StorageDevice> PositionOracle for PredictiveDevice<D> {
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

impl<D: StorageDevice> StorageDevice for PredictiveDevice<D> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn capacity_lbns(&self) -> u64 {
        self.inner.capacity_lbns()
    }

    fn service(&mut self, req: &Request, now: SimTime) -> ServiceBreakdown {
        let gap = (now.as_secs() - self.last_busy_end).max(0.0);
        // The decision for this gap was made when it began, using the
        // prediction available at that time.
        let slept = self.predicted_gap > self.profile.breakeven_idle() && gap > 0.0;
        let mut restart = 0.0;
        if slept {
            self.stats.sleep_secs += gap;
            self.stats.wakeups += 1;
            restart = self.profile.restart_time;
            self.stats.added_latency += restart;
        } else {
            self.stats.idle_secs += gap;
        }
        // Update the predictor with the observed gap.
        self.predicted_gap = self.alpha * gap + (1.0 - self.alpha) * self.predicted_gap;

        let mut b = self.inner.service(req, now + SimTime::from_secs(restart));
        b.overhead += restart;
        self.stats.active_secs += b.total();
        self.stats.requests += 1;
        self.last_busy_end = now.as_secs() + b.total();
        b
    }

    fn reset(&mut self) {
        self.inner.reset();
        self.predicted_gap = 0.0;
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
    use crate::power::PowerManagedDevice;
    use atlas_disk::{DiskDevice, DiskEnergyModel, DiskParams};
    use mems_device::{MemsDevice, MemsEnergyModel, MemsParams};
    use storage_sim::rng;
    use storage_sim::IoKind;

    fn req(id: u64, at: f64, lbn: u64) -> Request {
        Request::new(id, SimTime::from_secs(at), lbn, 8, IoKind::Read)
    }

    #[test]
    fn mems_predictor_converges_to_always_sleep() {
        // Any observable gap dwarfs the 0.5 ms break-even, so after the
        // first gap the predictor always sleeps — matching the paper's
        // "no prediction needed" conclusion.
        let profile = super::super::PowerProfile::mems(&MemsEnergyModel::default(), 1280);
        let mut d = PredictiveDevice::new(MemsDevice::new(MemsParams::default()), profile, 0.5);
        let mut t = 0.0;
        for i in 0..20u64 {
            t += 0.5; // half-second gaps
            let b = d.service(&req(i, t, i * 2700), SimTime::from_secs(t));
            t += b.total();
        }
        // First gap awake (no history), the rest asleep.
        assert_eq!(d.stats().wakeups, 19);
    }

    #[test]
    fn disk_predictor_skips_short_gaps() {
        // Bimodal gaps: many 0.5 s pauses (below the mobile disk's ~13 s
        // break-even) and occasional 60 s pauses. The predictor must not
        // thrash on the short ones.
        let profile = super::super::PowerProfile::disk(&DiskEnergyModel::travelstar_class());
        let mut d = PredictiveDevice::new(
            DiskDevice::new(DiskParams::ibm_travelstar_class()),
            profile,
            0.3,
        );
        let mut r = rng::seeded(5);
        let mut t = 0.0;
        let mut short_gaps = 0;
        for i in 0..200u64 {
            let gap = if rng::bernoulli(&mut r, 0.9) {
                short_gaps += 1u64;
                0.5
            } else {
                60.0
            };
            t += gap;
            let b = d.service(
                &req(i, t, (i * 137_777) % 10_000_000),
                SimTime::from_secs(t),
            );
            t += b.total();
        }
        // Far fewer wakeups than gaps: most short gaps are ridden out
        // (the EWMA mispredicts the 1–2 gaps after each long one while it
        // decays back below break-even), and the long gaps are caught.
        let long_gaps: u64 = 200 - short_gaps;
        assert!(
            d.stats().wakeups < 90,
            "wakeups {} out of {short_gaps} short + {long_gaps} long gaps",
            d.stats().wakeups,
        );
        assert!(
            d.stats().wakeups >= long_gaps - 2,
            "the long gaps should be slept through"
        );
    }

    #[test]
    fn predictive_beats_immediate_spin_down_on_disks() {
        // The §7 disk bargain, resolved: on a bursty mobile workload the
        // predictor beats the naive immediate policy on BOTH energy and
        // added latency.
        let profile = super::super::PowerProfile::disk(&DiskEnergyModel::travelstar_class());
        let drive = |i: u64| (i * 999_331) % 10_000_000;
        let run_pred = || {
            let mut d = PredictiveDevice::new(
                DiskDevice::new(DiskParams::ibm_travelstar_class()),
                profile,
                0.3,
            );
            let mut r = rng::seeded(77);
            let mut t = 0.0;
            for i in 0..150u64 {
                t += if rng::bernoulli(&mut r, 0.85) {
                    1.0
                } else {
                    90.0
                };
                let b = d.service(&req(i, t, drive(i)), SimTime::from_secs(t));
                t += b.total();
            }
            d.finish(SimTime::from_secs(t));
            (d.energy(), d.stats().mean_added_latency())
        };
        let run_naive = || {
            let mut d = PowerManagedDevice::new(
                DiskDevice::new(DiskParams::ibm_travelstar_class()),
                profile,
                0.0,
            );
            let mut r = rng::seeded(77);
            let mut t = 0.0;
            for i in 0..150u64 {
                t += if rng::bernoulli(&mut r, 0.85) {
                    1.0
                } else {
                    90.0
                };
                let b = d.service(&req(i, t, drive(i)), SimTime::from_secs(t));
                t += b.total();
            }
            d.finish(SimTime::from_secs(t));
            (d.energy(), d.stats().mean_added_latency())
        };
        let (pe, pl) = run_pred();
        let (ne, nl) = run_naive();
        assert!(pe < ne, "predictive energy {pe} vs naive {ne}");
        assert!(pl < nl, "predictive latency {pl} vs naive {nl}");
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn bad_alpha_rejected() {
        let profile = super::super::PowerProfile::mems(&MemsEnergyModel::default(), 1280);
        let _ = PredictiveDevice::new(MemsDevice::new(MemsParams::default()), profile, 0.0);
    }
}
