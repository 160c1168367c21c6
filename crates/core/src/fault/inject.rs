//! Fault injection: tips, media defects, and transient read errors.
//!
//! Models the §6.1.1 fault menagerie against the device geometry so the
//! fault-report experiment can measure recoverability: broken probe tips
//! (the whole tip region is lost), grown media defects (a localized blob
//! of bits, which at MEMS densities wipes several adjacent tip sectors of
//! *one* tip region), and transient per-tip read errors. Because every
//! logical sector is striped across 64 distinct tips, all three fault
//! types surface as per-stripe erasure counts — exactly what the
//! horizontal code tolerates up to its parity width.

use std::collections::HashSet;

use mems_device::{Mapper, MemsGeometry};
use rand::rngs::SmallRng;
use storage_sim::rng;

/// A grown media defect: a contiguous blob of ruined tip-sector rows in
/// one tip's region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MediaDefect {
    /// The tip whose region is damaged.
    pub tip: u32,
    /// First ruined tip-sector row.
    pub row_start: u32,
    /// Last ruined tip-sector row (inclusive).
    pub row_end: u32,
}

/// The accumulated fault state of one device.
///
/// # Examples
///
/// ```
/// use mems_device::{Mapper, MemsParams};
/// use mems_os::fault::FaultState;
///
/// let params = MemsParams::default();
/// let mut faults = FaultState::new(&params);
/// faults.fail_tip(100);
/// // Tip 100 is one of the 64 tips (64..128) that stripe every sector in
/// // slot 1 of track 0, such as LBN 1: that sector now has one erasure,
/// // and LBN 0 in slot 0 none.
/// let mapper = Mapper::new(&params);
/// assert_eq!(faults.stripe_erasures_for_lbn(&mapper, 1), 1);
/// assert_eq!(faults.stripe_erasures_for_lbn(&mapper, 0), 0);
/// ```
#[derive(Debug, Clone)]
pub struct FaultState {
    geom: MemsGeometry,
    failed_tips: HashSet<u32>,
    defects: Vec<MediaDefect>,
    tips: u32,
}

impl FaultState {
    /// Creates a fault-free state for a device.
    pub fn new(params: &mems_device::MemsParams) -> Self {
        FaultState {
            geom: params.geometry(),
            failed_tips: HashSet::new(),
            defects: Vec::new(),
            tips: params.tips,
        }
    }

    /// Marks a probe tip as broken (tip crash, actuator failure, faulty
    /// per-tip logic).
    ///
    /// # Panics
    ///
    /// Panics if the tip id is out of range.
    pub fn fail_tip(&mut self, tip: u32) {
        assert!(tip < self.tips, "tip {tip} out of range");
        self.failed_tips.insert(tip);
    }

    /// Records a grown media defect.
    ///
    /// # Panics
    ///
    /// Panics if the tip or rows are out of range.
    pub fn add_defect(&mut self, defect: MediaDefect) {
        assert!(defect.tip < self.tips);
        assert!(defect.row_start <= defect.row_end);
        assert!(defect.row_end < self.geom.rows_per_track);
        self.defects.push(defect);
    }

    /// Injects `n` random tip failures.
    pub fn inject_random_tip_failures(&mut self, n: usize, rng_state: &mut SmallRng) {
        for _ in 0..n {
            let tip = rng::uniform_u64(rng_state, u64::from(self.tips)) as u32;
            self.failed_tips.insert(tip);
        }
    }

    /// Injects `n` random media defects of 1–3 rows each.
    pub fn inject_random_defects(&mut self, n: usize, rng_state: &mut SmallRng) {
        for _ in 0..n {
            let tip = rng::uniform_u64(rng_state, u64::from(self.tips)) as u32;
            let row = rng::uniform_u64(rng_state, u64::from(self.geom.rows_per_track)) as u32;
            let len = 1 + rng::uniform_u64(rng_state, 3) as u32;
            let row_end = (row + len - 1).min(self.geom.rows_per_track - 1);
            self.defects.push(MediaDefect {
                tip,
                row_start: row,
                row_end,
            });
        }
    }

    /// Number of broken tips.
    pub fn failed_tip_count(&self) -> usize {
        self.failed_tips.len()
    }

    /// Returns `true` if no faults have been recorded — the fast path the
    /// online degraded wrapper uses to skip per-request stripe scans on a
    /// healthy device.
    pub fn is_clean(&self) -> bool {
        self.failed_tips.is_empty() && self.defects.is_empty()
    }

    /// Returns `true` if the tip sector at (tip, row) is unreadable.
    pub fn tip_sector_lost(&self, tip: u32, row: u32) -> bool {
        self.failed_tips.contains(&tip)
            || self
                .defects
                .iter()
                .any(|d| d.tip == tip && (d.row_start..=d.row_end).contains(&row))
    }

    /// Erasure count for the stripe backing a logical sector, given the
    /// device mapper. Tips are assigned so that track `t` uses tips
    /// `t·active .. (t+1)·active`, and slot `s` of a row uses the 64-tip
    /// group starting at `s·64` within the track's tips.
    pub fn stripe_erasures_for_lbn(&self, mapper: &Mapper, lbn: u64) -> usize {
        let addr = mapper.decompose(lbn);
        let active = self.tips / self.geom.tracks_per_cylinder;
        let first = addr.track * active + addr.slot * 64;
        (first..first + 64)
            .filter(|&t| self.tip_sector_lost(t, addr.row))
            .count()
    }

    /// Fraction of all logical sectors whose stripes have more than
    /// `parity` erasures — i.e. data actually lost despite the ECC.
    pub fn unrecoverable_fraction(&self, mapper: &Mapper, parity: usize) -> f64 {
        // Loss depends only on (track, row, slot), not the cylinder, so
        // the scan is small.
        let mut lost = 0u64;
        let mut total = 0u64;
        for track in 0..self.geom.tracks_per_cylinder {
            for row in 0..self.geom.rows_per_track {
                for slot in 0..self.geom.sectors_per_row {
                    total += 1;
                    let lbn = mapper.compose(mems_device::PhysAddr {
                        cylinder: 0,
                        track,
                        row,
                        slot,
                    });
                    if self.stripe_erasures_for_lbn(mapper, lbn) > parity {
                        lost += 1;
                    }
                }
            }
        }
        lost as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mems_device::MemsParams;

    fn state() -> (FaultState, Mapper) {
        let p = MemsParams::default();
        (FaultState::new(&p), Mapper::new(&p))
    }

    #[test]
    fn fresh_device_has_no_loss() {
        let (f, m) = state();
        assert_eq!(f.stripe_erasures_for_lbn(&m, 0), 0);
        assert_eq!(f.unrecoverable_fraction(&m, 0), 0.0);
    }

    #[test]
    fn failed_tip_erases_exactly_its_stripes() {
        let (mut f, m) = state();
        f.fail_tip(0);
        // Tip 0 is slot 0 of track 0: sector 0 of every row of track 0.
        assert_eq!(f.stripe_erasures_for_lbn(&m, 0), 1);
        // Slot 1 of the same row uses tips 64..128: unaffected.
        assert_eq!(f.stripe_erasures_for_lbn(&m, 1), 0);
        // Track 1 uses tips 1280..: unaffected.
        assert_eq!(f.stripe_erasures_for_lbn(&m, 540), 0);
    }

    #[test]
    fn single_faults_are_recoverable_with_any_parity() {
        let (mut f, m) = state();
        f.fail_tip(7);
        f.add_defect(MediaDefect {
            tip: 70,
            row_start: 3,
            row_end: 5,
        });
        assert_eq!(f.unrecoverable_fraction(&m, 1), 0.0);
    }

    #[test]
    fn defect_only_affects_its_rows() {
        let (mut f, _) = state();
        f.add_defect(MediaDefect {
            tip: 5,
            row_start: 10,
            row_end: 12,
        });
        assert!(f.tip_sector_lost(5, 10));
        assert!(f.tip_sector_lost(5, 12));
        assert!(!f.tip_sector_lost(5, 9));
        assert!(!f.tip_sector_lost(5, 13));
        assert!(!f.tip_sector_lost(6, 11));
    }

    #[test]
    fn colocated_failures_can_exceed_parity() {
        let (mut f, m) = state();
        // Break 9 tips of the same 64-tip stripe group.
        for t in 0..9 {
            f.fail_tip(t);
        }
        assert_eq!(f.stripe_erasures_for_lbn(&m, 0), 9);
        assert!(f.unrecoverable_fraction(&m, 8) > 0.0);
        assert_eq!(f.unrecoverable_fraction(&m, 9), 0.0);
    }

    #[test]
    fn random_injection_is_deterministic_per_seed() {
        let p = MemsParams::default();
        let mut a = FaultState::new(&p);
        let mut b = FaultState::new(&p);
        let mut ra = rng::seeded(11);
        let mut rb = rng::seeded(11);
        a.inject_random_tip_failures(50, &mut ra);
        b.inject_random_tip_failures(50, &mut rb);
        assert_eq!(a.failed_tip_count(), b.failed_tip_count());
        let m = Mapper::new(&p);
        assert_eq!(
            a.unrecoverable_fraction(&m, 2),
            b.unrecoverable_fraction(&m, 2)
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn oversized_tip_rejected() {
        let (mut f, _) = state();
        f.fail_tip(10_000);
    }
}
