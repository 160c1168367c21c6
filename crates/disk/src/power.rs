//! Disk power states and energy model (§6.3, §7).
//!
//! Disks dissipate power in the spindle motor and electronics even when
//! idle; saving energy requires spinning down, and spinning back up costs
//! tens of milliseconds to tens of seconds plus a current surge. These are
//! exactly the properties the paper contrasts with MEMS storage's single
//! sub-millisecond idle mode.

/// Power/energy characteristics of a disk drive.
///
/// # Examples
///
/// ```
/// use atlas_disk::DiskEnergyModel;
///
/// let m = DiskEnergyModel::atlas_10k();
/// // Spinning up a high-end drive takes ~25 s (§6.3).
/// assert!((m.spinup_time - 25.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiskEnergyModel {
    /// Power while seeking/transferring, W.
    pub active_power: f64,
    /// Power while spinning idle, W.
    pub idle_power: f64,
    /// Power spun down (standby), W.
    pub standby_power: f64,
    /// Time to spin up from standby, seconds.
    pub spinup_time: f64,
    /// Power drawn during spin-up (the surge §6.3 mentions), W.
    pub spinup_power: f64,
}

impl DiskEnergyModel {
    /// High-end server drive in the Atlas 10K class: heavy spindle, 25 s
    /// spin-up \[Qua99].
    pub fn atlas_10k() -> Self {
        DiskEnergyModel {
            active_power: 13.5,
            idle_power: 7.9,
            standby_power: 2.5,
            spinup_time: 25.0,
            spinup_power: 21.0,
        }
    }

    /// Mobile 2.5" drive in the IBM Travelstar class [IBM99, IBM00].
    pub fn travelstar_class() -> Self {
        DiskEnergyModel {
            active_power: 2.1,
            idle_power: 0.85,
            standby_power: 0.25,
            spinup_time: 1.8,
            spinup_power: 4.7,
        }
    }

    /// Energy of one spin-up, J.
    pub fn spinup_energy(&self) -> f64 {
        self.spinup_power * self.spinup_time
    }

    /// The classic break-even idle duration: spinning down only saves
    /// energy if the idle period exceeds this many seconds.
    pub fn breakeven_idle(&self) -> f64 {
        // idle_power · T = standby_power · (T − spinup_time) + spinup_energy
        // (approximating the spin-down cost as zero).
        (self.spinup_energy() - self.standby_power * self.spinup_time)
            / (self.idle_power - self.standby_power)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn atlas_breakeven_is_minutes() {
        let m = DiskEnergyModel::atlas_10k();
        let t = m.breakeven_idle();
        assert!(
            (60.0..600.0).contains(&t),
            "high-end drive break-even {t} s should be minutes"
        );
    }

    #[test]
    fn travelstar_breakeven_is_seconds() {
        let m = DiskEnergyModel::travelstar_class();
        let t = m.breakeven_idle();
        assert!((5.0..60.0).contains(&t), "mobile break-even {t} s");
    }

    #[test]
    fn power_ordering_is_sane() {
        for m in [
            DiskEnergyModel::atlas_10k(),
            DiskEnergyModel::travelstar_class(),
        ] {
            assert!(m.active_power > m.idle_power);
            assert!(m.idle_power > m.standby_power);
            assert!(m.spinup_power > m.active_power);
        }
    }
}
