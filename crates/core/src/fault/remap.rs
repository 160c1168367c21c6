//! Defective-sector remapping policies (§6.1.1).
//!
//! Disks slip defective sectors or remap them to spares elsewhere in the
//! cylinder or zone, breaking physical sequentiality and making access
//! times unpredictable. A MEMS device can instead remap a defective tip
//! sector to the *same tip sector on a dedicated spare tip*: the spare is
//! read in the very same sled pass, so the remap costs nothing at service
//! time. [`RemappedDevice`] wraps any [`StorageDevice`] with a remap table
//! so both policies can be measured; [`SpareTipPolicy`] models the MEMS
//! spare-tip trade-off between capacity and fault tolerance.

use std::collections::HashMap;

use storage_sim::{
    FaultKind, PhaseEnergy, PositionOracle, Request, ServiceBreakdown, SimTime, StorageDevice,
};

/// How defective logical sectors are redirected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RemapPolicy {
    /// MEMS spare-tip remap: same position on a spare tip, zero
    /// service-time penalty (the LBN's physical timing is unchanged).
    SpareTip,
    /// Disk-style remap to a spare region elsewhere on the device; the
    /// access physically goes to the spare location.
    FarSpare,
}

/// A defective-LBN → spare-LBN redirection table under one
/// [`RemapPolicy`], usable standalone (the online `DegradedDevice` embeds
/// one) or via the [`RemappedDevice`] wrapper.
#[derive(Debug, Clone)]
pub struct RemapTable {
    policy: RemapPolicy,
    /// Defective LBN → spare LBN (used by [`RemapPolicy::FarSpare`]).
    table: HashMap<u64, u64>,
    /// Next spare slot to hand out.
    next_spare: u64,
}

impl RemapTable {
    /// Creates an empty table. `spare_base` is the first LBN of the spare
    /// region far remaps are directed to.
    pub fn new(policy: RemapPolicy, spare_base: u64) -> Self {
        RemapTable {
            policy,
            table: HashMap::new(),
            next_spare: spare_base,
        }
    }

    /// Marks `lbn` defective, allocating a spare for it.
    pub fn remap(&mut self, lbn: u64) {
        let spare = self.next_spare;
        self.next_spare += 1;
        self.table.insert(lbn, spare);
    }

    /// Number of remapped sectors.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// Returns `true` if nothing is remapped.
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    /// The table's policy.
    pub fn policy(&self) -> RemapPolicy {
        self.policy
    }

    /// Applies the policy to a request: under [`RemapPolicy::SpareTip`]
    /// the request is unchanged (the spare tip reads in the same pass);
    /// under [`RemapPolicy::FarSpare`] a request touching a defective
    /// first sector is redirected to its spare.
    pub fn effective(&self, req: &Request) -> Request {
        match self.policy {
            RemapPolicy::SpareTip => *req,
            RemapPolicy::FarSpare => match self.table.get(&req.lbn) {
                Some(&spare) => Request::new(req.id, req.arrival, spare, req.sectors, req.kind),
                None => *req,
            },
        }
    }
}

/// A device wrapper applying a defective-sector remap table.
///
/// # Examples
///
/// ```
/// use mems_device::{MemsDevice, MemsParams};
/// use mems_os::fault::{RemapPolicy, RemappedDevice};
/// use storage_sim::{IoKind, Request, SimTime, StorageDevice};
///
/// let dev = MemsDevice::new(MemsParams::default());
/// let spare_base = dev.capacity_lbns() - 2700; // last cylinder as spares
/// let mut far = RemappedDevice::new(dev, RemapPolicy::FarSpare, spare_base);
/// far.remap(1000);
/// let req = Request::new(0, SimTime::ZERO, 1000, 8, IoKind::Read);
/// // The access physically lands in the spare region.
/// let b = far.service(&req, SimTime::ZERO);
/// assert!(b.total() > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct RemappedDevice<D> {
    inner: D,
    table: RemapTable,
}

impl<D: StorageDevice> RemappedDevice<D> {
    /// Wraps a device. `spare_base` is the first LBN of the spare region
    /// far remaps are directed to.
    pub fn new(inner: D, policy: RemapPolicy, spare_base: u64) -> Self {
        RemappedDevice {
            inner,
            table: RemapTable::new(policy, spare_base),
        }
    }

    /// Marks `lbn` defective, allocating a spare for it.
    pub fn remap(&mut self, lbn: u64) {
        self.table.remap(lbn);
    }

    /// The wrapped device.
    pub fn inner(&self) -> &D {
        &self.inner
    }

    /// Applies the table's policy to a request.
    fn effective(&self, req: &Request) -> Request {
        self.table.effective(req)
    }
}

/// Positions the effective (possibly far-remapped) request, exactly as
/// `DegradedDevice` does. No `rest_key`: a remap changes positioning
/// without moving the inner device, so per-bucket winners cached under
/// the inner key could go stale.
impl<D: StorageDevice> PositionOracle for RemappedDevice<D> {
    fn position_time(&self, req: &Request, now: SimTime) -> f64 {
        self.inner.position_time(&self.effective(req), now)
    }

    fn position_bucket(&self, req: &Request) -> u64 {
        self.inner.position_bucket(&self.effective(req))
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

impl<D: StorageDevice> StorageDevice for RemappedDevice<D> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn capacity_lbns(&self) -> u64 {
        self.inner.capacity_lbns()
    }

    fn service(&mut self, req: &Request, now: SimTime) -> ServiceBreakdown {
        let eff = self.effective(req);
        self.inner.service(&eff, now)
    }

    fn reset(&mut self) {
        self.inner.reset();
    }

    fn phase_energy(&self, breakdown: &ServiceBreakdown) -> PhaseEnergy {
        self.inner.phase_energy(breakdown)
    }

    fn on_fault(&mut self, fault: &FaultKind, now: SimTime) {
        self.inner.on_fault(fault, now);
    }
}

/// The spare-tip provisioning trade-off (§6.1.1): on tip failure the OS
/// chooses between sacrificing capacity (converting regular tips to
/// spares) and sacrificing fault tolerance in that region (converting
/// spares to regular tips).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpareTipPolicy {
    /// Spare tips currently provisioned per 64-tip stripe group.
    pub spares_per_group: u32,
    /// Broken tips already absorbed per group (worst-case group).
    pub consumed: u32,
}

impl SpareTipPolicy {
    /// Creates a policy with `spares_per_group` spares and none consumed.
    pub fn new(spares_per_group: u32) -> Self {
        SpareTipPolicy {
            spares_per_group,
            consumed: 0,
        }
    }

    /// Remaining tip failures the worst-case group can absorb without
    /// losing data or capacity.
    pub fn remaining_tolerance(&self) -> u32 {
        self.spares_per_group.saturating_sub(self.consumed)
    }

    /// Absorbs a tip failure. Returns `false` if no spare was available
    /// (the OS must now choose a sacrifice).
    pub fn absorb_failure(&mut self) -> bool {
        if self.remaining_tolerance() > 0 {
            self.consumed += 1;
            true
        } else {
            false
        }
    }

    /// Sacrifices capacity: converts `n` regular tips into spares,
    /// shrinking usable capacity by `n / 64` of the affected stripes.
    pub fn sacrifice_capacity(&mut self, n: u32) {
        self.spares_per_group += n;
    }

    /// Usable-capacity fraction for a group provisioned this way, out of
    /// a 64-data-tip budget.
    pub fn capacity_fraction(&self) -> f64 {
        64.0 / (64.0 + f64::from(self.spares_per_group))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mems_device::{MemsDevice, MemsParams, SledState};
    use storage_sim::IoKind;

    fn mems() -> MemsDevice {
        MemsDevice::new(MemsParams::default())
    }

    fn req(lbn: u64) -> Request {
        Request::new(0, SimTime::ZERO, lbn, 8, IoKind::Read)
    }

    #[test]
    fn spare_tip_remap_has_zero_penalty() {
        let base = mems();
        let capacity = base.capacity_lbns();
        let mut plain = mems();
        let mut spare = RemappedDevice::new(mems(), RemapPolicy::SpareTip, capacity - 2700);
        spare.remap(1000);
        let b_plain = plain.service(&req(1000), SimTime::ZERO);
        let b_spare = spare.service(&req(1000), SimTime::ZERO);
        assert_eq!(b_plain.total(), b_spare.total(), "§6.1.1: no penalty");
    }

    #[test]
    fn far_spare_remap_changes_timing() {
        // LBN 1000 is in cylinder 0; its spare lives in the last cylinder.
        // From a sled parked at cylinder 0, the remapped access must seek.
        let capacity = mems().capacity_lbns();
        let park = |mut d: MemsDevice| {
            let x = d.mapper().x_of_cylinder(0);
            d.set_state(SledState { x, y: 0.0, vy: 0.0 });
            d
        };
        let mut plain = park(mems());
        let b_plain = plain.service(&req(1000), SimTime::ZERO);
        let mut far = RemappedDevice::new(park(mems()), RemapPolicy::FarSpare, capacity - 2700);
        far.remap(1000);
        let b_far = far.service(&req(1000), SimTime::ZERO);
        assert!(
            b_far.positioning > b_plain.positioning,
            "far remap must pay a seek: {} vs {}",
            b_far.positioning,
            b_plain.positioning
        );
    }

    #[test]
    fn unmapped_lbns_pass_through() {
        let base = mems();
        let capacity = base.capacity_lbns();
        let mut wrapped = RemappedDevice::new(mems(), RemapPolicy::FarSpare, capacity - 2700);
        wrapped.remap(5000);
        let mut plain = mems();
        let b_w = wrapped.service(&req(123), SimTime::ZERO);
        let b_p = plain.service(&req(123), SimTime::ZERO);
        assert_eq!(b_w.total(), b_p.total());
    }

    #[test]
    fn spare_policy_tradeoff() {
        let mut p = SpareTipPolicy::new(2);
        assert_eq!(p.remaining_tolerance(), 2);
        assert!(p.absorb_failure());
        assert!(p.absorb_failure());
        assert!(!p.absorb_failure(), "spares exhausted");
        // The OS sacrifices capacity to restore tolerance.
        p.sacrifice_capacity(1);
        assert_eq!(p.remaining_tolerance(), 1);
        assert!(p.capacity_fraction() < 1.0);
    }
}
