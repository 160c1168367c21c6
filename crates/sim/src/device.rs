//! The device abstraction: stateful service-time models.
//!
//! A [`StorageDevice`] is what DiskSim calls a device module: given its
//! current mechanical state and a request, it returns how long the request
//! takes, broken into the paper's components (positioning, transfer,
//! overhead), and advances its state. Schedulers that need positioning
//! estimates (SPTF, §4.1) use the read-only [`PositionOracle`] supertrait,
//! which must not mutate state.

use crate::fault::FaultKind;
use crate::request::Request;
use crate::time::SimTime;

/// Per-request service-time decomposition, in seconds.
///
/// `positioning` is the *resolved* pre-transfer delay. For MEMS devices it
/// is `max(seek_x + settle, seek_y)` because the X and Y seeks proceed in
/// parallel (§2.4.1); for disks it is `seek + rotation`, which proceed in
/// sequence. The raw components are retained for the figure harnesses.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ServiceBreakdown {
    /// Resolved pre-transfer positioning time.
    pub positioning: f64,
    /// X-dimension seek (MEMS) or arm seek (disk), excluding settle.
    pub seek_x: f64,
    /// Post-seek settling time.
    pub settle: f64,
    /// Y-dimension seek including any pre-access turnarounds (MEMS only).
    pub seek_y: f64,
    /// Rotational latency (disk only).
    pub rotation: f64,
    /// Media transfer time, including intra-request track/cylinder switches.
    pub transfer: f64,
    /// Portion of `transfer` spent turning the sled around (MEMS only).
    pub turnaround: f64,
    /// Number of turnarounds performed during the request.
    pub turnaround_count: u32,
    /// Fixed controller/bus overhead.
    pub overhead: f64,
    /// Online failure-recovery time billed to this request: transient
    /// seek-error retries (penalty plus backoff), one-time remap charges,
    /// and reconstruction-read overhead. Zero on a healthy device.
    pub fault_recovery: f64,
    /// Time this foreground request spent waiting behind a non-preemptible
    /// background operation already in flight on the device (e.g. the last
    /// chunk of an idle-window migration that overshot the arrival). Part
    /// of the request's service time, but not a mechanical phase: the
    /// mechanical work it covers is billed on the background I/O itself,
    /// so energy models and phase-utilization exports ignore this field.
    pub background_wait: f64,
}

impl ServiceBreakdown {
    /// Total service time in seconds.
    #[inline]
    pub fn total(&self) -> f64 {
        self.positioning
            + self.transfer
            + self.overhead
            + self.fault_recovery
            + self.background_wait
    }

    /// Total service time as a [`SimTime`].
    #[inline]
    pub fn total_time(&self) -> SimTime {
        SimTime::from_secs(self.total())
    }

    /// Element-wise accumulation, for averaging over a run.
    #[inline]
    pub fn accumulate(&mut self, other: &ServiceBreakdown) {
        self.positioning += other.positioning;
        self.seek_x += other.seek_x;
        self.settle += other.settle;
        self.seek_y += other.seek_y;
        self.rotation += other.rotation;
        self.transfer += other.transfer;
        self.turnaround += other.turnaround;
        self.turnaround_count += other.turnaround_count;
        self.overhead += other.overhead;
        self.fault_recovery += other.fault_recovery;
        self.background_wait += other.background_wait;
    }
}

/// Per-request energy attribution by service phase, in joules.
///
/// Produced by [`StorageDevice::phase_energy`] from a completed request's
/// [`ServiceBreakdown`] and the device's power model; the three phases
/// partition the request, so the fields sum to the request's total energy.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseEnergy {
    /// Energy spent positioning (seek/settle/rotation), J.
    pub positioning_j: f64,
    /// Energy spent on the media transfer (including turnarounds), J.
    pub transfer_j: f64,
    /// Energy spent during fixed controller/bus overhead, J.
    pub overhead_j: f64,
}

impl PhaseEnergy {
    /// Total request energy in joules.
    pub fn total(&self) -> f64 {
        self.positioning_j + self.transfer_j + self.overhead_j
    }

    /// Element-wise accumulation, for summing over a run.
    pub fn accumulate(&mut self, other: &PhaseEnergy) {
        self.positioning_j += other.positioning_j;
        self.transfer_j += other.transfer_j;
        self.overhead_j += other.overhead_j;
    }
}

/// Coarse power state of a device (§7).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PowerState {
    /// Servicing requests or ready to do so immediately.
    Active,
    /// Mechanics stopped / non-essential electronics off; fast restart.
    Idle,
    /// Fully powered down (disk: spindle stopped); slow restart.
    Standby,
}

/// The read-only positioning oracle a scheduler consults while picking.
///
/// Split out of [`StorageDevice`] so `Scheduler::pick` can be generic over
/// the concrete device (fully monomorphized — no vtable hop per candidate
/// query on the SPTF hot path) while seeing only the read-only queries.
/// Every method is `&self`: consulting the oracle must never mutate
/// mechanical state.
pub trait PositionOracle {
    /// Estimates the positioning (pre-transfer) delay `req` would incur if
    /// started at `now`, without mutating state. This is SPTF's oracle.
    fn position_time(&self, req: &Request, now: SimTime) -> f64;

    /// Positioning-locality bucket of `req` — a coarse key (the cylinder,
    /// for mechanical devices) such that requests in nearby buckets tend to
    /// have small positioning times. Must depend only on the request, not
    /// on the mechanical state. The default (everything in bucket 0)
    /// disables the pruned SPTF scan, which then degrades to the exact
    /// full scan.
    fn position_bucket(&self, req: &Request) -> u64 {
        let _ = req;
        0
    }

    /// Bucket closest to the head/tips in the current mechanical state.
    fn current_bucket(&self) -> u64 {
        0
    }

    /// Lower bound on [`PositionOracle::position_time`] for **any** request
    /// whose bucket is at least `distance` buckets from
    /// [`PositionOracle::current_bucket`]. Implementations must guarantee
    /// the bound is sound and nondecreasing in `distance`; the pruned SPTF
    /// scan stops expanding once this exceeds the best candidate found.
    /// The default (0) never prunes.
    fn min_position_time_at_bucket_distance(&self, distance: u64) -> f64 {
        let _ = distance;
        0.0
    }

    /// Lower bound on [`PositionOracle::position_time`] for any request in
    /// `bucket`, given the current mechanical state. Sharper than the
    /// distance bound (it may use the exact per-bucket seek time); used to
    /// skip whole buckets. The default (0) never skips.
    fn bucket_position_time_floor(&self, bucket: u64) -> f64 {
        let _ = bucket;
        0.0
    }

    /// Collision-free fingerprint of the rest state: everything
    /// [`PositionOracle::position_time`] depends on *besides* the request.
    /// Two calls returning equal `Some` keys MUST produce bit-identical
    /// `position_time` for every request — implementations encode exact
    /// state (float bit patterns, integer coordinates), never hashes.
    /// Incremental SPTF caches per-bucket winners under this key and reuses
    /// them only while the key is unchanged. The default (`None`) disables
    /// caching, which is always safe — in particular for wrappers whose
    /// oracle depends on more than the wrapped device's mechanical state.
    fn rest_key(&self, now: SimTime) -> Option<[u64; 3]> {
        let _ = now;
        None
    }

    /// Hint that a request in `to_bucket` may soon be positioned from rest
    /// in `from_bucket`, so a device may start fetching what that answer
    /// reads (the MEMS device prefetches the seek-surface cell). A hint
    /// changes no state and no later answer: it fills nothing, resolves
    /// nothing and may point anywhere, even off the device. The default
    /// does nothing, and any wrapper may drop it.
    fn prefetch_seek(&self, from_bucket: u64, to_bucket: u64) {
        let _ = (from_bucket, to_bucket);
    }
}

/// A stateful storage device service-time model.
pub trait StorageDevice: PositionOracle {
    /// Human-readable model name, e.g. `"MEMS (default)"`.
    fn name(&self) -> &str;

    /// Number of addressable 512-byte logical blocks.
    fn capacity_lbns(&self) -> u64;

    /// Services `req` starting at `now`, advancing mechanical state, and
    /// returns the time decomposition.
    fn service(&mut self, req: &Request, now: SimTime) -> ServiceBreakdown;

    /// Restores the device to its initial mechanical state.
    fn reset(&mut self);

    /// Attributes the energy of a serviced request to its phases using the
    /// device's power model. Consumed by the observability layer; never
    /// called on the simulation's hot path unless a tracer is attached.
    /// The default (all zeros) is for devices without a power model.
    fn phase_energy(&self, breakdown: &ServiceBreakdown) -> PhaseEnergy {
        let _ = breakdown;
        PhaseEnergy::default()
    }

    /// Delivers a scheduled fault event to the device at `now`. The
    /// default ignores faults — a bare device is fault-oblivious; wrappers
    /// like `DegradedDevice` override this to transition their fault state
    /// online (remap a spare tip, arm a transient error, grow a defect).
    /// Faults never interrupt an in-flight request: state changes apply
    /// from the next [`StorageDevice::service`] call onward.
    fn on_fault(&mut self, fault: &FaultKind, now: SimTime) {
        let _ = (fault, now);
    }
}

/// A trivially simple device with a constant service time, for tests and
/// queueing sanity checks.
///
/// # Examples
///
/// ```
/// use storage_sim::{ConstantDevice, IoKind, Request, SimTime, StorageDevice};
///
/// let mut d = ConstantDevice::new(1000, 0.002);
/// let r = Request::new(0, SimTime::ZERO, 10, 8, IoKind::Read);
/// assert_eq!(d.service(&r, SimTime::ZERO).total(), 0.002);
/// ```
#[derive(Debug, Clone)]
pub struct ConstantDevice {
    capacity: u64,
    service_secs: f64,
}

impl ConstantDevice {
    /// Creates a device with `capacity` LBNs and a fixed per-request
    /// service time of `service_secs` seconds.
    pub fn new(capacity: u64, service_secs: f64) -> Self {
        ConstantDevice {
            capacity,
            service_secs,
        }
    }
}

impl PositionOracle for ConstantDevice {
    fn position_time(&self, _req: &Request, _now: SimTime) -> f64 {
        0.0
    }

    fn rest_key(&self, _now: SimTime) -> Option<[u64; 3]> {
        // Positioning is identically zero: the rest state never changes.
        Some([0; 3])
    }
}

impl StorageDevice for ConstantDevice {
    fn name(&self) -> &str {
        "constant"
    }

    fn capacity_lbns(&self) -> u64 {
        self.capacity
    }

    fn service(&mut self, _req: &Request, _now: SimTime) -> ServiceBreakdown {
        ServiceBreakdown {
            transfer: self.service_secs,
            ..ServiceBreakdown::default()
        }
    }

    fn reset(&mut self) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::IoKind;

    #[test]
    fn breakdown_total_sums_resolved_components() {
        let b = ServiceBreakdown {
            positioning: 0.5e-3,
            transfer: 0.3e-3,
            overhead: 0.1e-3,
            ..Default::default()
        };
        assert!((b.total() - 0.9e-3).abs() < 1e-15);
        assert_eq!(b.total_time(), SimTime::from_us(900.0));
    }

    #[test]
    fn breakdown_accumulates() {
        let mut a = ServiceBreakdown {
            seek_x: 1.0,
            turnaround_count: 2,
            ..Default::default()
        };
        let b = ServiceBreakdown {
            seek_x: 0.5,
            turnaround_count: 1,
            ..Default::default()
        };
        a.accumulate(&b);
        assert_eq!(a.seek_x, 1.5);
        assert_eq!(a.turnaround_count, 3);
    }

    #[test]
    fn phase_energy_totals_and_accumulates() {
        let mut a = PhaseEnergy {
            positioning_j: 1.0,
            transfer_j: 2.0,
            overhead_j: 0.5,
        };
        assert!((a.total() - 3.5).abs() < 1e-15);
        a.accumulate(&PhaseEnergy {
            positioning_j: 0.5,
            transfer_j: 0.0,
            overhead_j: 0.5,
        });
        assert_eq!(a.positioning_j, 1.5);
        assert_eq!(a.overhead_j, 1.0);
        // Devices without a power model attribute zero energy.
        let d = ConstantDevice::new(10, 1e-3);
        assert_eq!(
            d.phase_energy(&ServiceBreakdown::default()),
            PhaseEnergy::default()
        );
    }

    #[test]
    fn constant_device_is_constant() {
        let mut d = ConstantDevice::new(100, 1e-3);
        let r = Request::new(0, SimTime::ZERO, 0, 1, IoKind::Read);
        assert_eq!(d.service(&r, SimTime::ZERO).total(), 1e-3);
        assert_eq!(d.position_time(&r, SimTime::ZERO), 0.0);
        assert_eq!(d.capacity_lbns(), 100);
        assert_eq!(d.name(), "constant");
    }
}
