//! The rotating-disk service-time model.
//!
//! [`DiskDevice`] mirrors the granularity of DiskSim's validated disk
//! module for the purposes of the paper's experiments: seek time from a
//! calibrated distance curve, rotational latency from the absolute
//! simulated time (the platter spins regardless of what the host does —
//! the key contrast with the MEMS sled, §2.4.8), zoned transfer rates, and
//! head/cylinder switches with skewed layout during multi-track transfers.

use storage_sim::{
    IoKind, PhaseEnergy, PositionOracle, Request, ServiceBreakdown, SimTime, StorageDevice,
};

use crate::geometry::DiskMapper;
use crate::params::DiskParams;
use crate::power::DiskEnergyModel;
use crate::seek::SeekCurve;

/// A zoned, rotating disk drive behind the [`StorageDevice`] interface.
///
/// # Examples
///
/// ```
/// use atlas_disk::{DiskDevice, DiskParams};
/// use storage_sim::{IoKind, Request, SimTime, StorageDevice};
///
/// let mut disk = DiskDevice::new(DiskParams::quantum_atlas_10k());
/// let req = Request::new(0, SimTime::ZERO, 1_000_000, 8, IoKind::Read);
/// let b = disk.service(&req, SimTime::ZERO);
/// // A random 4 KB disk access costs several milliseconds.
/// assert!(b.total() > 2e-3 && b.total() < 20e-3);
/// ```
#[derive(Debug, Clone)]
pub struct DiskDevice {
    mapper: DiskMapper,
    curve: SeekCurve,
    /// Arm position.
    cylinder: u32,
    /// Active head.
    head: u32,
    energy_model: DiskEnergyModel,
}

impl DiskDevice {
    /// Builds a drive from parameters, arm parked at cylinder 0.
    pub fn new(params: DiskParams) -> Self {
        let curve = SeekCurve::calibrate(
            params.cylinders,
            params.seek_one,
            params.seek_avg,
            params.seek_full,
        );
        DiskDevice {
            mapper: DiskMapper::new(params),
            curve,
            cylinder: 0,
            head: 0,
            energy_model: DiskEnergyModel::atlas_10k(),
        }
    }

    /// The drive parameters.
    pub fn params(&self) -> &DiskParams {
        self.mapper.params()
    }

    /// Computes the positioning components for a request issued at `now`
    /// from the current arm position: (arm time, rotational latency).
    fn positioning(&self, req: &Request, now: SimTime) -> (f64, f64) {
        let addr = self.mapper.decompose(req.lbn);
        let distance = self.cylinder.abs_diff(addr.cylinder);
        let mut arm = if distance > 0 {
            let mut t = self.curve.time(distance);
            if req.kind == IoKind::Write {
                t += self.params().write_settle;
            }
            t
        } else if addr.head != self.head {
            self.params().head_switch
        } else {
            0.0
        };
        // A head switch overlaps a seek; it only costs time on its own.
        if distance > 0 && addr.head != self.head {
            arm = arm.max(self.params().head_switch);
        }
        let rev = self.params().revolution_time();
        let ready = now.as_secs() + self.params().overhead + arm;
        let pos = (ready / rev).rem_euclid(1.0);
        let target = self.mapper.angle_of(addr);
        let latency = (target - pos).rem_euclid(1.0) * rev;
        (arm, latency)
    }

    /// Media transfer time for the whole request, including intra-request
    /// head switches and single-cylinder seeks (whose rotational cost is
    /// absorbed by the track/cylinder skew). Returns the transfer time and
    /// the final (cylinder, head).
    fn transfer(&self, req: &Request) -> (f64, u32, u32) {
        let mut remaining = u64::from(req.sectors);
        let mut lbn = req.lbn;
        let mut time = 0.0;
        let mut end_cyl = self.cylinder;
        let mut end_head = self.head;
        let mut first = true;
        while remaining > 0 {
            let addr = self.mapper.decompose(lbn);
            if !first {
                if addr.cylinder != end_cyl {
                    time += self.params().seek_one;
                } else if addr.head != end_head {
                    time += self.params().head_switch;
                }
            }
            let track_left = u64::from(addr.sectors_per_track - addr.sector);
            let chunk = remaining.min(track_left);
            time += chunk as f64 * self.mapper.sector_time(addr);
            lbn += chunk;
            remaining -= chunk;
            end_cyl = addr.cylinder;
            end_head = addr.head;
            first = false;
        }
        (time, end_cyl, end_head)
    }
}

impl PositionOracle for DiskDevice {
    fn position_time(&self, req: &Request, now: SimTime) -> f64 {
        let (arm, latency) = self.positioning(req, now);
        arm + latency
    }

    fn position_bucket(&self, req: &Request) -> u64 {
        u64::from(self.mapper.decompose(req.lbn).cylinder)
    }

    fn current_bucket(&self) -> u64 {
        u64::from(self.cylinder)
    }

    fn min_position_time_at_bucket_distance(&self, distance: u64) -> f64 {
        // Positioning is seek + non-negative extras (rotational latency,
        // write settle, head switch), and the calibrated curve is
        // monotone in distance, so the bare seek time is a sound floor.
        let d = u32::try_from(distance).unwrap_or(u32::MAX);
        self.curve.time(d)
    }

    fn bucket_position_time_floor(&self, bucket: u64) -> f64 {
        let d = self
            .cylinder
            .abs_diff(u32::try_from(bucket).unwrap_or(u32::MAX));
        self.curve.time(d)
    }

    fn rest_key(&self, now: SimTime) -> Option<[u64; 3]> {
        // Disk positioning depends on the arm position AND on `now`
        // (rotational latency is phase-dependent), so the key includes the
        // exact query time: the cache only hits for repeated queries from
        // an unchanged state at the same instant.
        Some([
            (u64::from(self.cylinder) << 32) | u64::from(self.head),
            now.as_secs().to_bits(),
            0,
        ])
    }
}

impl StorageDevice for DiskDevice {
    fn name(&self) -> &str {
        &self.params().name
    }

    fn capacity_lbns(&self) -> u64 {
        self.params().total_sectors()
    }

    fn service(&mut self, req: &Request, now: SimTime) -> ServiceBreakdown {
        assert!(
            req.end_lbn() <= self.capacity_lbns(),
            "request beyond disk capacity"
        );
        let (arm, latency) = self.positioning(req, now);
        let (transfer, end_cyl, end_head) = self.transfer(req);
        self.cylinder = end_cyl;
        self.head = end_head;
        ServiceBreakdown {
            positioning: arm + latency,
            seek_x: arm,
            rotation: latency,
            transfer,
            overhead: self.params().overhead,
            ..ServiceBreakdown::default()
        }
    }

    /// Disks draw a single active power while servicing (§6.3), so the
    /// per-phase attribution is active power times each phase's duration
    /// (fault-recovery time bills as positioning — the arm is re-seeking).
    fn phase_energy(&self, b: &ServiceBreakdown) -> PhaseEnergy {
        let p = self.energy_model.active_power;
        PhaseEnergy {
            positioning_j: p * (b.positioning + b.fault_recovery),
            transfer_j: p * b.transfer,
            overhead_j: p * b.overhead,
        }
    }

    fn reset(&mut self) {
        self.cylinder = 0;
        self.head = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn disk() -> DiskDevice {
        DiskDevice::new(DiskParams::quantum_atlas_10k())
    }

    fn req(lbn: u64, sectors: u32, kind: IoKind) -> Request {
        Request::new(0, SimTime::ZERO, lbn, sectors, kind)
    }

    #[test]
    fn capacity_matches_params() {
        let d = disk();
        assert_eq!(d.capacity_lbns(), d.params().total_sectors());
    }

    #[test]
    fn same_track_read_has_no_arm_time() {
        let mut d = disk();
        let b = d.service(&req(0, 8, IoKind::Read), SimTime::ZERO);
        assert_eq!(b.seek_x, 0.0);
        assert!(b.rotation >= 0.0);
        // 8 sectors in the outer zone ≈ 0.14 ms (Table 2).
        assert!((b.transfer - 8.0 * 5.985e-3 / 334.0).abs() < 1e-9);
    }

    #[test]
    fn full_track_transfer_is_one_revolution() {
        // Table 2: 334 sectors ≈ 6.00 ms.
        let mut d = disk();
        let b = d.service(&req(0, 334, IoKind::Read), SimTime::ZERO);
        assert!(
            (b.transfer - 5.985e-3).abs() < 1e-6,
            "transfer {}",
            b.transfer
        );
    }

    #[test]
    fn long_seeks_cost_milliseconds() {
        let mut d = disk();
        let far = d.capacity_lbns() - 400;
        let b = d.service(&req(far, 8, IoKind::Read), SimTime::ZERO);
        assert!(b.seek_x > 9e-3, "full-stroke-ish seek {}", b.seek_x);
        assert_eq!(d.cylinder, d.params().cylinders - 1);
    }

    #[test]
    fn writes_pay_extra_settle() {
        let d = disk();
        let r_read = req(1_000_000, 8, IoKind::Read);
        let r_write = req(1_000_000, 8, IoKind::Write);
        let (arm_r, _) = d.positioning(&r_read, SimTime::ZERO);
        let (arm_w, _) = d.positioning(&r_write, SimTime::ZERO);
        assert!((arm_w - arm_r - d.params().write_settle).abs() < 1e-12);
    }

    #[test]
    fn rotational_latency_depends_on_issue_time() {
        let d = disk();
        let r = req(100, 1, IoKind::Read);
        let (_, lat0) = d.positioning(&r, SimTime::ZERO);
        let (_, lat1) = d.positioning(&r, SimTime::from_ms(1.0));
        // One millisecond later the platter has turned ~1/6 revolution, so
        // the latency to the same sector changes accordingly.
        let rev = d.params().revolution_time();
        let expected = (lat0 - 1e-3).rem_euclid(rev);
        assert!((lat1 - expected).abs() < 1e-9, "lat0 {lat0} lat1 {lat1}");
    }

    #[test]
    fn rotational_latency_is_bounded_by_a_revolution() {
        let d = disk();
        for lbn in [0u64, 12345, 999_999, 5_000_000] {
            for t_ms in [0.0, 0.7, 3.3, 17.9] {
                let (_, lat) = d.positioning(&req(lbn, 4, IoKind::Read), SimTime::from_ms(t_ms));
                assert!((0.0..d.params().revolution_time()).contains(&lat));
            }
        }
    }

    #[test]
    fn multi_track_transfer_charges_switches() {
        let mut d = disk();
        // 700 sectors span three tracks in the outer zone.
        let b = d.service(&req(0, 700, IoKind::Read), SimTime::ZERO);
        let pure_media = 700.0 * 5.985e-3 / 334.0;
        assert!(b.transfer > pure_media, "switches must add time");
        assert!(b.transfer < pure_media + 3.0 * d.params().head_switch + 1e-9);
    }

    #[test]
    fn read_modify_write_costs_a_full_rotation() {
        // §6.2 / Table 2: returning to the just-read sectors costs the
        // disk most of a revolution.
        let mut d = disk();
        let rev = d.params().revolution_time();
        let read = d.service(&req(0, 8, IoKind::Read), SimTime::ZERO);
        let end = SimTime::from_secs(read.total());
        let (_, reposition) = d.positioning(&req(0, 8, IoKind::Write), end);
        assert!(
            reposition > rev - read.transfer - d.params().overhead - 1e-6,
            "reposition {reposition} should be nearly a revolution"
        );
    }

    #[test]
    fn position_time_does_not_mutate() {
        let d = disk();
        let r = req(5_000_000, 8, IoKind::Read);
        let t1 = d.position_time(&r, SimTime::ZERO);
        let t2 = d.position_time(&r, SimTime::ZERO);
        assert_eq!(t1, t2);
        assert_eq!(d.cylinder, 0);
    }

    #[test]
    fn bucket_floors_are_sound_and_monotone() {
        // The scheduler prune contract: the distance floor never exceeds
        // the true positioning time of any request in a bucket at that
        // distance, and it never decreases with distance.
        let mut d = disk();
        let mut x = 9u64;
        let mut lcg = move || {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            x
        };
        for i in 0..400 {
            let lbn = lcg() % (d.capacity_lbns() - 8);
            let kind = if i % 3 == 0 {
                IoKind::Write
            } else {
                IoKind::Read
            };
            let r = req(lbn, 8, kind);
            let now = SimTime::from_secs(i as f64 * 3.3e-3);
            let true_time = d.position_time(&r, now);
            let bucket = d.position_bucket(&r);
            let dist = d.current_bucket().abs_diff(bucket);
            assert!(
                d.min_position_time_at_bucket_distance(dist) <= true_time + 1e-12,
                "distance floor exceeds true positioning time at distance {dist}"
            );
            assert!(
                d.bucket_position_time_floor(bucket) <= true_time + 1e-12,
                "bucket floor exceeds true positioning time for bucket {bucket}"
            );
            let _ = d.service(&r, now);
        }
        let mut prev = 0.0;
        for dist in 0..u64::from(d.params().cylinders) {
            let floor = d.min_position_time_at_bucket_distance(dist);
            assert!(floor >= prev, "floor not monotone at distance {dist}");
            prev = floor;
        }
    }

    #[test]
    fn phase_energy_is_active_power_by_phase() {
        let mut d = disk();
        let b = d.service(&req(2_000_000, 16, IoKind::Read), SimTime::ZERO);
        let pe = d.phase_energy(&b);
        let p = d.energy_model.active_power;
        assert!((pe.total() - p * b.total()).abs() < 1e-12);
        assert!((pe.positioning_j - p * b.positioning).abs() < 1e-15);
        assert!((pe.transfer_j - p * b.transfer).abs() < 1e-15);
    }

    #[test]
    fn reset_parks_the_arm() {
        let mut d = disk();
        let _ = d.service(&req(8_000_000, 8, IoKind::Read), SimTime::ZERO);
        assert_ne!(d.cylinder, 0);
        d.reset();
        assert_eq!(d.cylinder, 0);
    }

    #[test]
    #[should_panic(expected = "beyond disk capacity")]
    fn oversized_request_rejected() {
        let mut d = disk();
        let r = req(d.capacity_lbns() - 4, 8, IoKind::Read);
        let _ = d.service(&r, SimTime::ZERO);
    }
}
