//! OS power management (§7).
//!
//! Disks force the OS into a reluctant bargain: multiple power modes with
//! restart penalties from 40 ms to tens of seconds, so spin-down policies
//! must predict long idle periods. A MEMS device has a single idle mode
//! (sled stopped, non-essential electronics off) with a ≈0.5 ms restart —
//! cheap enough to enter *whenever the I/O queue is empty*.
//!
//! [`PowerManagedDevice`] wraps any device with a timeout-to-sleep policy
//! and accounts energy and added wake-up latency; [`PowerProfile`]
//! captures the few numbers that matter. Since ~90% of MEMS device power
//! is per-tip sensing/recording, §7 also frames power as a near-linear
//! function of bits accessed; [`compressed_transfer_energy`] models the
//! compress-to-save-tips optimization the paper sketches.

mod managed;

pub use managed::{PowerManagedDevice, PowerStats};

use atlas_disk::DiskEnergyModel;
use mems_device::MemsEnergyModel;

/// The power numbers a timeout policy needs, in watts/seconds/joules.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerProfile {
    /// Power while servicing a request.
    pub active_power: f64,
    /// Power while up and ready but not servicing.
    pub idle_power: f64,
    /// Power in the low-power (sleep/standby) state.
    pub sleep_power: f64,
    /// Latency added to the first request after sleeping.
    pub restart_time: f64,
    /// Extra energy charged per wake-up.
    pub restart_energy: f64,
}

impl PowerProfile {
    /// Profile of a MEMS device with `active_tips` concurrently active
    /// tips: the single idle mode of §7.
    pub fn mems(model: &MemsEnergyModel, active_tips: u32) -> Self {
        PowerProfile {
            active_power: model.streaming_power(active_tips),
            idle_power: model.active_base_power,
            sleep_power: model.idle_power,
            restart_time: model.startup_time,
            restart_energy: model.startup_energy(),
        }
    }

    /// Profile of a disk using spin-down to standby as its sleep state.
    pub fn disk(model: &DiskEnergyModel) -> Self {
        PowerProfile {
            active_power: model.active_power,
            idle_power: model.idle_power,
            sleep_power: model.standby_power,
            restart_time: model.spinup_time,
            restart_energy: model.spinup_energy(),
        }
    }

    /// The classic break-even idle duration: sleeping saves energy only
    /// if the idle period exceeds this many seconds.
    pub fn breakeven_idle(&self) -> f64 {
        // idle_power · T = sleep_power · (T − restart_time) + restart_energy
        // (approximating the cost of going to sleep as zero).
        (self.restart_energy - self.sleep_power * self.restart_time)
            / (self.idle_power - self.sleep_power)
    }
}

/// Energy to transfer `bytes` with `active_tips` tips when the embedded
/// logic compresses data by `ratio` before it reaches the media (§7's
/// compress-to-save-tips optimization): the media time (and hence the
/// tip-seconds) shrinks by the compression ratio.
///
/// # Panics
///
/// Panics unless `ratio >= 1`.
///
/// # Examples
///
/// ```
/// use mems_device::MemsEnergyModel;
/// use mems_os::power::compressed_transfer_energy;
///
/// let model = MemsEnergyModel::default();
/// let plain = compressed_transfer_energy(&model, 1 << 20, 1280, 1.0);
/// let packed = compressed_transfer_energy(&model, 1 << 20, 1280, 2.0);
/// assert!((plain / packed - 2.0).abs() < 1e-9);
/// ```
pub fn compressed_transfer_energy(
    model: &MemsEnergyModel,
    bytes: u64,
    active_tips: u32,
    ratio: f64,
) -> f64 {
    assert!(ratio >= 1.0, "compression ratio must be >= 1");
    // 512 B move per 20-sector row slot; at full width the device moves
    // sectors_per_row · 512 B per row time. Per-byte media time:
    let bytes_per_second = 79.6e6; // streaming bandwidth of the default device
    let media_time = bytes as f64 / bytes_per_second / ratio;
    model.streaming_power(active_tips) * media_time
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mems_profile_has_sub_millisecond_restart() {
        let p = PowerProfile::mems(&MemsEnergyModel::default(), 1280);
        assert!(p.restart_time <= 0.5e-3);
        assert!(p.idle_power < p.active_power);
        assert!(p.sleep_power < p.idle_power);
    }

    #[test]
    fn mems_breakeven_is_milliseconds_disk_is_minutes() {
        let mems = PowerProfile::mems(&MemsEnergyModel::default(), 1280);
        let disk = PowerProfile::disk(&DiskEnergyModel::atlas_10k());
        assert!(
            mems.breakeven_idle() < 0.01,
            "MEMS break-even {} should be ~ms",
            mems.breakeven_idle()
        );
        assert!(
            disk.breakeven_idle() > 60.0,
            "disk break-even {} should be minutes",
            disk.breakeven_idle()
        );
    }

    #[test]
    fn atlas_breakeven_is_minutes() {
        let t = PowerProfile::disk(&DiskEnergyModel::atlas_10k()).breakeven_idle();
        assert!(
            (60.0..600.0).contains(&t),
            "high-end drive break-even {t} s should be minutes"
        );
    }

    #[test]
    fn travelstar_breakeven_is_seconds() {
        let t = PowerProfile::disk(&DiskEnergyModel::travelstar_class()).breakeven_idle();
        assert!((5.0..60.0).contains(&t), "mobile break-even {t} s");
    }

    #[test]
    fn compression_scales_energy_linearly() {
        let m = MemsEnergyModel::default();
        let e1 = compressed_transfer_energy(&m, 10 << 20, 1280, 1.0);
        let e4 = compressed_transfer_energy(&m, 10 << 20, 1280, 4.0);
        assert!((e1 / e4 - 4.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "compression ratio")]
    fn sub_unity_ratio_rejected() {
        let _ = compressed_transfer_energy(&MemsEnergyModel::default(), 1, 1280, 0.5);
    }
}
