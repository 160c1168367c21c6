//! Read-modify-write timing and the RAID-5 small-write engine (§6.2).
//!
//! Returning to a just-accessed sector costs a disk most of a platter
//! revolution (the platter spins on regardless), but costs a MEMS device
//! only a sled turnaround — Table 2's 19× gap for 4 KB transfers. That
//! gap is what makes code-based redundancy (RAID-5's
//! read-old/read-parity/write-new/write-parity cycle) so much cheaper on
//! MEMS arrays, obviating the parity-logging style optimizations the
//! paper cites [MC93, SGH93, Men95].

use storage_sim::{IoKind, Request, SimTime, StorageDevice};

/// Timing breakdown of one read-modify-write cycle, in seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RmwBreakdown {
    /// Reading the old data (including initial positioning).
    pub read: f64,
    /// Repositioning back to the start of the same sectors.
    pub reposition: f64,
    /// Writing the new data.
    pub write: f64,
}

impl RmwBreakdown {
    /// Total cycle time.
    pub fn total(&self) -> f64 {
        self.read + self.reposition + self.write
    }
}

/// Measures a read-modify-write cycle of `sectors` sectors at `lbn` on
/// any device, starting from the device's current state at time zero with
/// the initial positioning excluded from the read figure (Table 2 reports
/// the in-place cycle).
///
/// The turnaround cost depends on where the sectors sit in the sled's
/// travel (Table 2's caption: 0.036–1.11 ms depending on position and
/// spring factor), so mid-device sectors reproduce the table's headline
/// numbers while edge rows pay more.
///
/// # Examples
///
/// ```
/// use mems_device::{MemsDevice, MemsParams};
/// use mems_os::fault::read_modify_write;
///
/// let mut dev = MemsDevice::new(MemsParams::default());
/// // A 4 KB RMW on a mid-sled row of a center cylinder.
/// let lbn = ((1250 * 5 * 27) + 13) * 20;
/// let rmw = read_modify_write(&mut dev, lbn, 8);
/// // Table 2: ≈0.13 read + ≈0.07 reposition + ≈0.13 write ≈ 0.33 ms.
/// assert!(rmw.total() < 0.45e-3);
/// ```
pub fn read_modify_write<D: StorageDevice>(device: &mut D, lbn: u64, sectors: u32) -> RmwBreakdown {
    // The read: its initial positioning is excluded, matching Table 2,
    // which reports the in-place cycle (read / reposition / write).
    let read_req = Request::new(0, SimTime::ZERO, lbn, sectors, IoKind::Read);
    let read = device.service(&read_req, SimTime::ZERO);
    let t1 = SimTime::from_secs(read.total());

    let write_req = Request::new(1, t1, lbn, sectors, IoKind::Write);
    let write = device.service(&write_req, t1);

    RmwBreakdown {
        read: read.transfer,
        reposition: write.positioning,
        write: write.transfer,
    }
}

/// A RAID-5 array of identical devices with block-interleaved parity.
///
/// The array exposes the §6.2 small-write cost: a partial-stripe write
/// performs a read-modify-write on the data device and another on the
/// parity device; the two proceed in parallel, so the array's small-write
/// time is their maximum.
#[derive(Debug)]
pub struct Raid5Array<D> {
    devices: Vec<D>,
    stripe_unit: u32,
}

impl<D: StorageDevice> Raid5Array<D> {
    /// Creates an array over `devices` with `stripe_unit` sectors per
    /// strip.
    ///
    /// # Panics
    ///
    /// Panics with fewer than three devices (RAID-5 needs data + data +
    /// parity) or a zero stripe unit.
    pub fn new(devices: Vec<D>, stripe_unit: u32) -> Self {
        assert!(devices.len() >= 3, "RAID-5 needs at least three devices");
        assert!(stripe_unit > 0);
        Raid5Array {
            devices,
            stripe_unit,
        }
    }

    /// Maps an array-logical strip number to (data device, parity device,
    /// device-local LBN) with left-symmetric parity rotation, the layout
    /// every RAID-Z array uses.
    pub fn locate(&self, strip: u64) -> (usize, usize, u64) {
        crate::array::raidz_locate(strip, self.devices.len(), self.stripe_unit)
    }

    /// Time of a small (partial-strip) write of `sectors` sectors within
    /// strip `strip`: parallel read-modify-write cycles on the data and
    /// parity devices.
    ///
    /// # Panics
    ///
    /// Panics if `sectors` exceeds the stripe unit.
    pub fn small_write_time(&mut self, strip: u64, sectors: u32) -> f64 {
        assert!(sectors <= self.stripe_unit, "not a small write");
        let (data, parity, lbn) = self.locate(strip);
        let d = read_modify_write(&mut self.devices[data], lbn, sectors);
        let p = read_modify_write(&mut self.devices[parity], lbn, sectors);
        d.total().max(p.total())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atlas_disk::{DiskDevice, DiskParams};
    use mems_device::{MemsDevice, MemsParams};

    /// Mid-sled 4 KB location: cylinder 1250, track 0, row 13, slot 0.
    const CENTER_4K: u64 = ((1250 * 5 * 27) + 13) * 20;
    /// Mid-sled track-length location: row 5, so 17 rows fit in the track.
    const CENTER_TRACK: u64 = ((1250 * 5 * 27) + 5) * 20;

    #[test]
    fn mems_rmw_4kb_matches_table_2() {
        let mut dev = MemsDevice::new(MemsParams::default());
        let rmw = read_modify_write(&mut dev, CENTER_4K, 8);
        // Table 2 MEMS column: 0.13 / 0.07 / 0.13, total 0.33 ms.
        assert!((rmw.read - 0.13e-3).abs() < 0.01e-3, "read {}", rmw.read);
        assert!(
            (rmw.reposition - 0.07e-3).abs() < 0.02e-3,
            "reposition {}",
            rmw.reposition
        );
        assert!((rmw.write - 0.13e-3).abs() < 0.01e-3);
        assert!(
            (rmw.total() - 0.33e-3).abs() < 0.04e-3,
            "total {}",
            rmw.total()
        );
    }

    #[test]
    fn mems_rmw_track_length_matches_table_2() {
        let mut dev = MemsDevice::new(MemsParams::default());
        let rmw = read_modify_write(&mut dev, CENTER_TRACK, 334);
        // Table 2: 2.19 / 0.07 / 2.19, total 4.45 ms.
        assert!((rmw.read - 2.19e-3).abs() < 0.03e-3, "read {}", rmw.read);
        assert!(
            (rmw.total() - 4.45e-3).abs() < 0.1e-3,
            "total {}",
            rmw.total()
        );
    }

    #[test]
    fn disk_rmw_4kb_costs_a_rotation() {
        let mut dev = DiskDevice::new(DiskParams::quantum_atlas_10k());
        let rmw = read_modify_write(&mut dev, 0, 8);
        // Table 2 Atlas column: 0.14 / 5.98 / 0.14, total ≈6.26 ms.
        assert!((rmw.read - 0.14e-3).abs() < 0.01e-3, "read {}", rmw.read);
        assert!(
            rmw.reposition > 5.0e-3,
            "reposition {} must be most of a revolution",
            rmw.reposition
        );
        assert!(
            (5.5e-3..7.0e-3).contains(&rmw.total()),
            "total {}",
            rmw.total()
        );
    }

    #[test]
    fn mems_beats_disk_by_an_order_of_magnitude_at_4kb() {
        let mut mems = MemsDevice::new(MemsParams::default());
        let mut disk = DiskDevice::new(DiskParams::quantum_atlas_10k());
        let m = read_modify_write(&mut mems, CENTER_4K, 8).total();
        let d = read_modify_write(&mut disk, 0, 8).total();
        assert!(d / m > 10.0, "ratio {} should be ≈19x (Table 2)", d / m);
    }

    #[test]
    fn raid5_parity_rotates_and_avoids_data_device() {
        let devices: Vec<MemsDevice> = (0..5)
            .map(|_| MemsDevice::new(MemsParams::default()))
            .collect();
        let array = Raid5Array::new(devices, 8);
        let mut parities = std::collections::HashSet::new();
        for strip in 0..40 {
            let (data, parity, _) = array.locate(strip);
            assert_ne!(data, parity, "strip {strip}");
            assert!(data < 5 && parity < 5);
            parities.insert(parity);
        }
        assert_eq!(parities.len(), 5, "parity must rotate over all devices");
    }

    #[test]
    fn raid5_small_write_on_mems_is_sub_millisecond() {
        let devices: Vec<MemsDevice> = (0..4)
            .map(|_| MemsDevice::new(MemsParams::default()))
            .collect();
        let mut array = Raid5Array::new(devices, 8);
        let t = array.small_write_time(3, 8);
        assert!(t < 1.0e-3, "MEMS RAID-5 small write {t}");
    }

    #[test]
    #[should_panic(expected = "three devices")]
    fn tiny_array_rejected() {
        let devices: Vec<MemsDevice> = (0..2)
            .map(|_| MemsDevice::new(MemsParams::default()))
            .collect();
        let _ = Raid5Array::new(devices, 8);
    }
}
