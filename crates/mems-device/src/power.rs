//! Device-level power and energy model (§7).
//!
//! The paper's first-order power characterization: ~90% of a MEMS storage
//! device's power is spent on per-tip sensing/recording, so power is a
//! near-linear function of the number of bits accessed; the sled and the
//! electronics baseline make up the rest. With no rotating parts, a single
//! idle mode (sled stopped, non-essential electronics off) restarts in
//! under 0.5 ms, enabling the aggressive idle-whenever-empty policy the
//! `mems-os` power module implements.

use storage_sim::ServiceBreakdown;

/// Power parameters of a MEMS storage device, in watts and seconds.
///
/// The defaults are chosen so ~90% of steady-transfer power is tip
/// sensing/recording, matching §7's characterization.
///
/// # Examples
///
/// ```
/// use mems_device::MemsEnergyModel;
/// use storage_sim::ServiceBreakdown;
///
/// let model = MemsEnergyModel::default();
/// let b = ServiceBreakdown { positioning: 0.5e-3, transfer: 1.0e-3, ..Default::default() };
/// let e = model.request_energy(&b, 1280);
/// assert!(e > 0.0);
/// // Doubling the media time roughly doubles the energy: power is a
/// // near-linear function of the bits accessed (§7).
/// let b2 = ServiceBreakdown { positioning: 0.5e-3, transfer: 2.0e-3, ..Default::default() };
/// let e2 = model.request_energy(&b2, 1280);
/// assert!(e2 > 1.8 * e && e2 < 2.2 * e);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemsEnergyModel {
    /// Power per active probe tip while sensing/recording, W.
    pub tip_power: f64,
    /// Sled actuation power while the sled is in motion, W.
    pub sled_power: f64,
    /// Baseline electronics power while the device is active, W.
    pub active_base_power: f64,
    /// Power in the single idle mode (sled stopped, non-essential
    /// electronics off), W.
    pub idle_power: f64,
    /// Restart time from idle to active, seconds (≈0.5 ms; §6.3, §7).
    pub startup_time: f64,
}

impl Default for MemsEnergyModel {
    fn default() -> Self {
        MemsEnergyModel {
            tip_power: 1.0e-3,
            sled_power: 0.05,
            active_base_power: 0.1,
            idle_power: 0.01,
            startup_time: 0.5e-3,
        }
    }
}

impl MemsEnergyModel {
    /// Energy in joules consumed servicing a request with `active_tips`
    /// tips: tips draw power while media transfers (excluding turnaround
    /// portions), the sled while moving, and the baseline throughout.
    /// Fault-recovery time (retries, remaps, reconstruction seeks) keeps
    /// the sled in motion, so it bills at sled + baseline power.
    pub fn request_energy(&self, b: &ServiceBreakdown, active_tips: u32) -> f64 {
        let sensing_time = b.transfer - b.turnaround;
        let motion_time = b.positioning + b.fault_recovery + b.transfer;
        f64::from(active_tips) * self.tip_power * sensing_time
            + self.sled_power * motion_time
            + self.active_base_power * b.total()
    }

    /// Energy of one idle→active restart (baseline power over the 0.5 ms
    /// startup; there is no spin-up surge, §6.3).
    pub fn startup_energy(&self) -> f64 {
        self.active_base_power * self.startup_time
    }

    /// Steady-state power while streaming with `active_tips` tips, W.
    pub fn streaming_power(&self, active_tips: u32) -> f64 {
        f64::from(active_tips) * self.tip_power + self.sled_power + self.active_base_power
    }

    /// Fraction of streaming power spent on sensing/recording — the
    /// paper's "90%" figure for the default model.
    pub fn sensing_fraction(&self, active_tips: u32) -> f64 {
        f64::from(active_tips) * self.tip_power / self.streaming_power(active_tips)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sensing_dominates_streaming_power() {
        let m = MemsEnergyModel::default();
        let frac = m.sensing_fraction(1280);
        assert!(
            (0.85..0.95).contains(&frac),
            "sensing fraction {frac} should be ≈0.9 (§7)"
        );
    }

    #[test]
    fn energy_is_linear_in_bits_accessed() {
        let m = MemsEnergyModel::default();
        let one = ServiceBreakdown {
            transfer: 1.2857e-4,
            ..Default::default()
        };
        let ten = ServiceBreakdown {
            transfer: 10.0 * 1.2857e-4,
            ..Default::default()
        };
        let e1 = m.request_energy(&one, 1280);
        let e10 = m.request_energy(&ten, 1280);
        assert!((e10 / e1 - 10.0).abs() < 1e-9, "ratio {}", e10 / e1);
    }

    #[test]
    fn fewer_active_tips_use_less_power() {
        let m = MemsEnergyModel::default();
        let b = ServiceBreakdown {
            transfer: 1e-3,
            ..Default::default()
        };
        assert!(m.request_energy(&b, 640) < m.request_energy(&b, 1280));
    }

    #[test]
    fn idle_mode_is_an_order_of_magnitude_cheaper() {
        let m = MemsEnergyModel::default();
        // Per second, the idle mode against sitting active but idle
        // (baseline electronics only).
        assert!(5.0 * m.idle_power < m.active_base_power);
    }

    #[test]
    fn startup_energy_is_negligible() {
        let m = MemsEnergyModel::default();
        // Restarting must cost less than 1 ms of active-idle time, so the
        // idle-whenever-empty policy has effectively no energy downside.
        assert!(m.startup_energy() < m.active_base_power * 1e-3);
    }

    #[test]
    fn turnaround_time_draws_no_tip_power() {
        let m = MemsEnergyModel::default();
        let without = ServiceBreakdown {
            transfer: 1e-3,
            ..Default::default()
        };
        let with = ServiceBreakdown {
            transfer: 1e-3,
            turnaround: 0.5e-3,
            ..Default::default()
        };
        // Same media time, extra turnaround: only sled+base power added.
        let diff = m.request_energy(&with, 1280) - m.request_energy(&without, 1280);
        assert!(diff < 1280.0 * m.tip_power * 0.5e-3);
    }
}
