//! Online degraded-mode operation: the live composition of §6's fault
//! machinery.
//!
//! [`DegradedDevice`] wraps any [`StorageDevice`] and reacts to the
//! simulator's scheduled [`FaultKind`] events while the run is in flight,
//! the way a RAID controller operates a degraded array:
//!
//! * **Transient seek errors** arm on the device and hit the next serviced
//!   request, which retries with bounded exponential backoff (four
//!   attempts, 50 µs doubling to at most 1 ms); every attempt's penalty and
//!   backoff is billed as real service time in
//!   [`ServiceBreakdown::fault_recovery`]. Exhausted retries surface in the
//!   counters, never as silent success.
//! * **Persistent tip failures** consume a spare tip while
//!   [`SpareTipPolicy`] has one (a one-time remap charge, zero ongoing
//!   cost — §6.1.1's headline result); once spares run out the tip's
//!   region operates degraded and intersecting reads pay Reed–Solomon
//!   reconstruction time across the surviving stripe.
//! * **Grown media defects** accumulate in [`FaultState`]; sectors whose
//!   stripes exceed the parity budget are counted unrecoverable and
//!   (optionally) far-remapped to a spare region, after which their
//!   physical timing changes — the seek-cache regression case.
//!
//! A zero-fault wrapped run is bit-identical to the bare device: every
//! delegation passes the request through [`RemapTable::effective`], which
//! is the identity while the table is empty, and the per-request fault
//! scan short-circuits on [`FaultState::is_clean`].

use atlas_disk::DiskDevice;
use mems_device::{Mapper, MemsDevice};
use rand::rngs::SmallRng;
use storage_sim::rng;
use storage_sim::{
    FaultKind, PhaseEnergy, PositionOracle, Request, ServiceBreakdown, SimTime, StorageDevice,
};

use super::inject::{FaultState, MediaDefect};
use super::remap::{RemapPolicy, RemapTable, SpareTipPolicy};
use super::seek_error::{
    disk_seek_error_penalty, mems_seek_error_penalty, resolve_transient, RetryOutcome, MAX_BACKOFF,
};

/// Cost and policy knobs for online failure handling.
#[derive(Debug, Clone, Copy)]
struct DegradedConfig {
    /// Per-attempt recovery penalty for a transient seek error, seconds
    /// (typically the device's mean seek-error penalty, §6.1.3).
    retry_penalty: f64,
    /// Per-attempt probability that a retry recovers the request.
    recover_prob: f64,
    /// One-time charge for installing a remap (spare-tip activation or
    /// far-spare table update), seconds.
    remap_penalty: f64,
    /// Extra positioning time to start a reconstruction read (the sled or
    /// arm revisits the stripe), seconds per affected request.
    reconstruction_seek: f64,
    /// Extra transfer time per damaged sector reconstructed (one more row
    /// pass over the surviving tips plus decode), seconds.
    reconstruction_row: f64,
    /// Far-remap sectors whose stripes exceed the parity budget, so later
    /// accesses go to the spare region instead of re-failing.
    remap_unrecoverable: bool,
}

/// Event and cost counters accumulated by a [`DegradedDevice`] run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DegradedCounters {
    /// Tip-failure events delivered.
    pub tip_failures: u64,
    /// Tip failures absorbed by a spare (zero ongoing cost).
    pub spare_remaps: u64,
    /// Tip failures operating degraded (no spare left).
    pub degraded_tips: u64,
    /// Media-defect events recorded.
    pub media_defects: u64,
    /// Transient seek errors delivered.
    pub transients: u64,
    /// Total retry attempts made.
    pub retry_attempts: u64,
    /// Transients that exhausted every retry.
    pub retries_exhausted: u64,
    /// Requests that performed reconstruction reads.
    pub reconstructions: u64,
    /// Sectors whose stripes exceeded the parity budget.
    pub unrecoverable: u64,
    /// LBNs far-remapped to the spare region.
    pub far_remaps: u64,
}

/// MEMS-geometry fault tracking: which stripes are damaged and how the
/// spare-tip budget stands.
#[derive(Debug, Clone)]
struct MemsFaultModel {
    mapper: Mapper,
    faults: FaultState,
    spares: SpareTipPolicy,
    /// Parity tips per 64-data-tip stripe (erasures beyond this are data
    /// loss).
    parity: usize,
    rows_per_track: u32,
    tips: u32,
}

/// A [`StorageDevice`] wrapper that operates the wrapped device through
/// mid-run faults: retrying transient seek errors, consuming spare tips,
/// and billing Reed–Solomon reconstruction reads — all as real service
/// time in [`ServiceBreakdown::fault_recovery`].
///
/// # Examples
///
/// ```
/// use mems_device::{MemsDevice, MemsParams};
/// use mems_os::fault::DegradedDevice;
/// use storage_sim::{FaultKind, IoKind, Request, SimTime, StorageDevice};
///
/// let mut dev = DegradedDevice::mems(MemsDevice::new(MemsParams::default()), 42)
///     .with_spare_tips(2);
/// // A tip fails mid-run; the first spare absorbs it.
/// dev.on_fault(&FaultKind::TipFailure { tip: 7 }, SimTime::ZERO);
/// let req = Request::new(0, SimTime::ZERO, 0, 8, IoKind::Read);
/// let b = dev.service(&req, SimTime::ZERO);
/// // The one-time spare-remap charge is billed to this request.
/// assert!(b.fault_recovery > 0.0);
/// assert_eq!(dev.counters().spare_remaps, 1);
/// ```
#[derive(Debug, Clone)]
pub struct DegradedDevice<D> {
    inner: D,
    name: String,
    config: DegradedConfig,
    remap: RemapTable,
    mems: Option<MemsFaultModel>,
    /// Transient seek errors armed but not yet charged to a request.
    armed_transients: u32,
    /// One-time charges (remap installs) awaiting the next request.
    pending_penalty: f64,
    rng: SmallRng,
    counters: DegradedCounters,
}

impl DegradedDevice<MemsDevice> {
    /// Wraps a MEMS device with paper-calibrated recovery costs: the mean
    /// §6.1.3 seek-error penalty per retry attempt, a settle + one-row
    /// remap charge, and reconstruction priced at a short re-seek plus one
    /// extra row pass per damaged sector. Starts with zero spare tips
    /// (every tip failure degrades) — see
    /// [`DegradedDevice::with_spare_tips`].
    pub fn mems(inner: MemsDevice, seed: u64) -> Self {
        let params = inner.params().clone();
        let penalty = mems_seek_error_penalty(&params);
        let geom = params.geometry();
        let capacity = inner.capacity_lbns();
        let sectors_per_cylinder =
            u64::from(geom.tracks_per_cylinder) * u64::from(geom.sectors_per_track);
        let config = DegradedConfig {
            retry_penalty: penalty.mean,
            recover_prob: 0.75,
            remap_penalty: params.settle_time() + params.row_time(),
            reconstruction_seek: params.settle_time(),
            reconstruction_row: params.row_time(),
            remap_unrecoverable: true,
        };
        let mapper = *inner.mapper();
        let name = format!("degraded({})", inner.name());
        DegradedDevice {
            inner,
            name,
            config,
            // Far remaps land in the last cylinder, like the defect tests.
            remap: RemapTable::new(RemapPolicy::FarSpare, capacity - sectors_per_cylinder),
            mems: Some(MemsFaultModel {
                mapper,
                faults: FaultState::new(&params),
                spares: SpareTipPolicy::new(0),
                parity: 8,
                rows_per_track: geom.rows_per_track,
                tips: params.tips,
            }),
            armed_transients: 0,
            pending_penalty: 0.0,
            rng: rng::seeded(seed),
            counters: DegradedCounters::default(),
        }
    }

    /// Provisions `n` spare tips per stripe group (§6.1.1's trade-off).
    pub fn with_spare_tips(mut self, n: u32) -> Self {
        if let Some(m) = self.mems.as_mut() {
            m.spares = SpareTipPolicy::new(n);
        }
        self
    }

    /// Sets the stripe parity budget (erasures beyond it are data loss).
    pub fn with_parity(mut self, parity: usize) -> Self {
        if let Some(m) = self.mems.as_mut() {
            m.parity = parity;
        }
        self
    }

    /// A snapshot of the accumulated MEMS fault state, e.g. to drive a
    /// byte-accurate store through the same damage.
    pub fn fault_state(&self) -> Option<&FaultState> {
        self.mems.as_ref().map(|m| &m.faults)
    }
}

impl DegradedDevice<DiskDevice> {
    /// Wraps a disk with §6.1.3 recovery costs: mean re-seek + half
    /// rotation per retry attempt and far-spare remapping. Tip and media
    /// faults have no disk geometry to land on and only bump counters.
    pub fn disk(inner: DiskDevice, seed: u64) -> Self {
        let penalty = disk_seek_error_penalty(inner.params(), 1.5e-3);
        let capacity = inner.capacity_lbns();
        let config = DegradedConfig {
            retry_penalty: penalty.mean,
            recover_prob: 0.75,
            remap_penalty: penalty.min,
            reconstruction_seek: 0.0,
            reconstruction_row: 0.0,
            remap_unrecoverable: false,
        };
        let name = format!("degraded({})", inner.name());
        DegradedDevice {
            inner,
            name,
            config,
            remap: RemapTable::new(RemapPolicy::FarSpare, capacity.saturating_sub(1024)),
            mems: None,
            armed_transients: 0,
            pending_penalty: 0.0,
            rng: rng::seeded(seed),
            counters: DegradedCounters::default(),
        }
    }
}

impl<D: StorageDevice> DegradedDevice<D> {
    /// The accumulated event counters.
    pub fn counters(&self) -> DegradedCounters {
        self.counters
    }

    /// The wrapped device.
    pub fn inner(&self) -> &D {
        &self.inner
    }

    /// The far-remap table (empty until faults force redirects).
    pub fn remap_table(&self) -> &RemapTable {
        &self.remap
    }

    /// Charges armed transients against this request's recovery bill.
    fn charge_transients(&mut self) -> f64 {
        let mut recovery = 0.0;
        while self.armed_transients > 0 {
            self.armed_transients -= 1;
            let out = resolve_transient(
                self.config.retry_penalty,
                self.config.recover_prob,
                &mut self.rng,
            );
            recovery += out.delay();
            match out {
                RetryOutcome::Recovered { attempts, .. } => {
                    self.counters.retry_attempts += u64::from(attempts);
                }
                RetryOutcome::Exhausted { attempts, .. } => {
                    self.counters.retry_attempts += u64::from(attempts);
                    self.counters.retries_exhausted += 1;
                    // Escalation: fall back to a full recalibration pass,
                    // billed at the worst-case single-attempt cost.
                    recovery += self.config.retry_penalty + MAX_BACKOFF;
                }
            }
        }
        recovery
    }

    /// Bills reconstruction reads for damaged sectors the request spans
    /// and (optionally) far-remaps unrecoverable ones.
    fn charge_reconstruction(&mut self, req: &Request) -> f64 {
        let Some(model) = self.mems.as_mut() else {
            return 0.0;
        };
        if model.faults.is_clean() {
            return 0.0;
        }
        let capacity = self.inner.capacity_lbns();
        let mut damaged = 0u64;
        let mut lost = 0u64;
        for lbn in req.lbn..(req.lbn + u64::from(req.sectors)).min(capacity) {
            let erasures = model.faults.stripe_erasures_for_lbn(&model.mapper, lbn);
            if erasures == 0 {
                continue;
            }
            if erasures <= model.parity {
                damaged += 1;
            } else {
                lost += 1;
                self.counters.unrecoverable += 1;
                if self.config.remap_unrecoverable {
                    self.remap.remap(lbn);
                    self.counters.far_remaps += 1;
                }
            }
        }
        let mut recovery = 0.0;
        if damaged > 0 {
            self.counters.reconstructions += 1;
            recovery +=
                self.config.reconstruction_seek + damaged as f64 * self.config.reconstruction_row;
        }
        if lost > 0 && self.config.remap_unrecoverable {
            recovery += lost as f64 * self.config.remap_penalty;
        }
        recovery
    }
}

impl<D: StorageDevice> PositionOracle for DegradedDevice<D> {
    fn position_time(&self, req: &Request, now: SimTime) -> f64 {
        self.inner.position_time(&self.remap.effective(req), now)
    }

    fn position_bucket(&self, req: &Request) -> u64 {
        self.inner.position_bucket(&self.remap.effective(req))
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

    fn prefetch_seek(&self, from_bucket: u64, to_bucket: u64) {
        self.inner.prefetch_seek(from_bucket, to_bucket);
    }
}

impl<D: StorageDevice> StorageDevice for DegradedDevice<D> {
    fn name(&self) -> &str {
        &self.name
    }

    fn capacity_lbns(&self) -> u64 {
        self.inner.capacity_lbns()
    }

    fn service(&mut self, req: &Request, now: SimTime) -> ServiceBreakdown {
        // Reconstruction decisions use the *logical* request (damage is
        // tracked per original stripe); the physical access goes to the
        // effective (possibly far-remapped) location.
        let recovery_setup = self.pending_penalty + self.charge_reconstruction(req);
        self.pending_penalty = 0.0;
        let eff = self.remap.effective(req);
        let mut b = self.inner.service(&eff, now);
        b.fault_recovery += recovery_setup + self.charge_transients();
        b
    }

    fn reset(&mut self) {
        // Mechanical reset only: accumulated faults are physical damage
        // and survive, like a real device power cycle.
        self.inner.reset();
    }

    fn phase_energy(&self, breakdown: &ServiceBreakdown) -> PhaseEnergy {
        self.inner.phase_energy(breakdown)
    }

    fn on_fault(&mut self, fault: &FaultKind, _now: SimTime) {
        match *fault {
            FaultKind::TipFailure { tip } => {
                self.counters.tip_failures += 1;
                if let Some(model) = self.mems.as_mut() {
                    let tip = tip % model.tips;
                    if model.spares.absorb_failure() {
                        // §6.1.1: the spare covers the region with zero
                        // ongoing cost; only the remap install is billed.
                        self.counters.spare_remaps += 1;
                        self.pending_penalty += self.config.remap_penalty;
                    } else {
                        model.faults.fail_tip(tip);
                        self.counters.degraded_tips += 1;
                    }
                }
            }
            FaultKind::TransientSeekError => {
                self.counters.transients += 1;
                self.armed_transients += 1;
            }
            FaultKind::MediaDefect {
                tip,
                row_start,
                row_end,
            } => {
                self.counters.media_defects += 1;
                if let Some(model) = self.mems.as_mut() {
                    let tip = tip % model.tips;
                    let last = model.rows_per_track - 1;
                    model.faults.add_defect(MediaDefect {
                        tip,
                        row_start: row_start.min(last),
                        row_end: row_end.min(last).max(row_start.min(last)),
                    });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mems_device::MemsParams;
    use storage_sim::{ConstantDevice, IoKind};

    fn mems() -> MemsDevice {
        MemsDevice::new(MemsParams::default())
    }

    fn req(id: u64, lbn: u64) -> Request {
        Request::new(id, SimTime::ZERO, lbn, 8, IoKind::Read)
    }

    #[test]
    fn healthy_wrapper_is_bitwise_transparent() {
        let mut bare = mems();
        let mut wrapped = DegradedDevice::mems(mems(), 1);
        for lbn in [0u64, 999, 123_456, 6_000_000] {
            let a = bare.service(&req(lbn, lbn), SimTime::ZERO);
            let b = wrapped.service(&req(lbn, lbn), SimTime::ZERO);
            assert_eq!(a, b, "lbn {lbn}");
            assert_eq!(b.fault_recovery, 0.0);
        }
        assert_eq!(
            bare.position_time(&req(9, 42), SimTime::ZERO),
            wrapped.position_time(&req(9, 42), SimTime::ZERO)
        );
    }

    #[test]
    fn spare_absorbs_then_degrades() {
        let mut d = DegradedDevice::mems(mems(), 7).with_spare_tips(1);
        d.on_fault(&FaultKind::TipFailure { tip: 0 }, SimTime::ZERO);
        assert_eq!(d.counters().spare_remaps, 1);
        let b = d.service(&req(0, 0), SimTime::ZERO);
        assert!(b.fault_recovery > 0.0, "remap install billed once");
        let b2 = d.service(&req(1, 0), SimTime::ZERO);
        assert_eq!(b2.fault_recovery, 0.0, "spare remap has no ongoing cost");

        // Second failure on the same stripe: no spare left -> degraded.
        d.on_fault(&FaultKind::TipFailure { tip: 1 }, SimTime::ZERO);
        assert_eq!(d.counters().degraded_tips, 1);
        let b3 = d.service(&req(2, 0), SimTime::ZERO);
        assert!(
            b3.fault_recovery > 0.0,
            "reads over the degraded stripe pay reconstruction"
        );
        assert_eq!(d.counters().reconstructions, 1);
        // LBN 1 lives on a different 64-tip group: unaffected.
        let b4 = d.service(&req(3, 1), SimTime::ZERO);
        assert_eq!(b4.fault_recovery, 0.0);
    }

    #[test]
    fn transient_bills_retry_time_deterministically() {
        let run = |seed| {
            let mut d = DegradedDevice::mems(mems(), seed);
            d.on_fault(&FaultKind::TransientSeekError, SimTime::ZERO);
            d.service(&req(0, 500), SimTime::ZERO).fault_recovery
        };
        let a = run(3);
        assert!(a > 0.0);
        assert_eq!(a, run(3), "same seed, same retry bill");
    }

    #[test]
    fn beyond_parity_counts_unrecoverable_and_far_remaps() {
        let mut d = DegradedDevice::mems(mems(), 11);
        for tip in 0..9 {
            d.on_fault(&FaultKind::TipFailure { tip }, SimTime::ZERO);
        }
        assert_eq!(d.counters().degraded_tips, 9);
        let _ = d.service(&req(0, 0), SimTime::ZERO);
        assert_eq!(d.counters().unrecoverable, 1);
        assert_eq!(d.counters().far_remaps, 1);
        assert_eq!(d.remap_table().len(), 1);
        // The remapped access now physically lands in the spare cylinder.
        let eff = d.remap_table().effective(&req(1, 0));
        assert!(eff.lbn >= d.capacity_lbns() - 2700);
    }

    #[test]
    fn media_defect_rows_are_clamped_to_geometry() {
        let mut d = DegradedDevice::mems(mems(), 5);
        d.on_fault(
            &FaultKind::MediaDefect {
                tip: 3,
                row_start: 1_000_000,
                row_end: 2_000_000,
            },
            SimTime::ZERO,
        );
        assert_eq!(d.counters().media_defects, 1);
        let f = d.fault_state().unwrap();
        assert!(!f.is_clean());
    }

    /// A constant device that records the seek hints it is given.
    struct Hinted(ConstantDevice, std::cell::RefCell<Vec<(u64, u64)>>);

    impl PositionOracle for Hinted {
        fn position_time(&self, req: &Request, now: SimTime) -> f64 {
            self.0.position_time(req, now)
        }

        fn prefetch_seek(&self, from_bucket: u64, to_bucket: u64) {
            self.1.borrow_mut().push((from_bucket, to_bucket));
        }
    }

    impl StorageDevice for Hinted {
        fn name(&self) -> &str {
            self.0.name()
        }

        fn capacity_lbns(&self) -> u64 {
            self.0.capacity_lbns()
        }

        fn service(&mut self, req: &Request, now: SimTime) -> ServiceBreakdown {
            self.0.service(req, now)
        }

        fn reset(&mut self) {}
    }

    #[test]
    fn seek_hints_reach_the_wrapped_device_unchanged() {
        // The public constructors wrap only MEMS devices and disks, so
        // borrow a healthy MEMS wrapper's state around a recorder.
        let DegradedDevice {
            config, remap, rng, ..
        } = DegradedDevice::mems(mems(), 1);
        let d = DegradedDevice {
            inner: Hinted(ConstantDevice::new(1 << 20, 1e-3), Default::default()),
            name: "degraded(recorder)".into(),
            config,
            remap,
            mems: None,
            armed_transients: 0,
            pending_penalty: 0.0,
            rng,
            counters: DegradedCounters::default(),
        };
        d.prefetch_seek(3, 2499);
        d.prefetch_seek(u64::MAX, 0);
        assert_eq!(*d.inner().1.borrow(), [(3, 2499), (u64::MAX, 0)]);
    }
}
