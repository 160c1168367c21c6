//! Device parameters (Table 1 of the paper) and derived geometry.
//!
//! The defaults reproduce the paper's Table 1 exactly:
//!
//! | parameter                  | value                  |
//! |----------------------------|------------------------|
//! | sled mobility in X and Y   | 100 µm                 |
//! | bit cell width             | 40 nm                  |
//! | number of tips             | 6400                   |
//! | simultaneously active tips | 1280                   |
//! | tip sector length          | 80 data bits + 10 servo|
//! | per-tip data rate          | 700 Kbit/s             |
//! | sled acceleration          | 803.6 m/s²             |
//! | settling time constants    | 1                      |
//! | sled resonant frequency    | 739 Hz                 |
//! | spring factor              | 75 %                   |
//!
//! All derived quantities the paper quotes fall out of these: 3.2 GB class
//! capacity per sled, 28 mm/s access velocity, 128.6 µs per tip-sector row,
//! 79.6 MB/s streaming bandwidth, and ≈0.215 ms per settling time constant.

/// Raw configuration of a MEMS-based storage device.
///
/// Use [`MemsParams::default`] for the paper's device, or the setters to
/// explore design alternatives (e.g. the zero / two settling-time-constant
/// devices of §4.4, or the spring-factor sensitivity of §5.1).
///
/// # Examples
///
/// ```
/// use mems_device::MemsParams;
///
/// let params = MemsParams::default();
/// let geom = params.geometry();
/// assert_eq!(geom.cylinders, 2500);
/// assert_eq!(geom.sectors_per_track, 540);
/// // The full device stores ~3.4 GB of user data (paper rounds to 3.2 GB).
/// assert!(geom.capacity_bytes() > 3_300_000_000);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MemsParams {
    /// Total sled travel in each of X and Y, in meters (100 µm).
    pub mobility: f64,
    /// Bit cell edge length in meters (40 nm; square cells, §2.1).
    pub bit_width: f64,
    /// Total number of probe tips.
    pub tips: u32,
    /// Number of tips that can be active simultaneously (power/heat bound).
    pub active_tips: u32,
    /// Data payload of one tip sector, in bytes (8).
    pub tip_sector_data_bytes: u32,
    /// Encoded data+ECC bits per tip sector (80 = 10 bits/byte encoding).
    pub tip_sector_data_bits: u32,
    /// Servo bits preceding each tip sector (10).
    pub tip_sector_servo_bits: u32,
    /// Bytes per logical (SCSI-style) sector (512).
    pub logical_sector_bytes: u32,
    /// Per-tip media transfer rate in bits/second (700 Kbit/s).
    pub per_tip_rate: f64,
    /// Sled actuator acceleration at zero displacement, m/s² (803.6).
    pub accel: f64,
    /// Sled/spring resonant frequency in Hz (739); sets the settling time
    /// constant τ = 1/(2π·f).
    pub resonant_freq: f64,
    /// Peak spring restoring force as a fraction of actuator force (0.75).
    pub spring_factor: f64,
    /// Number of settling time constants charged after any X movement
    /// (default 1; §4.4 studies 0 and 2).
    pub settle_constants: f64,
    /// Fixed per-request controller/bus overhead in seconds.
    pub overhead: f64,
}

impl Default for MemsParams {
    fn default() -> Self {
        MemsParams {
            mobility: 100e-6,
            bit_width: 40e-9,
            tips: 6400,
            active_tips: 1280,
            tip_sector_data_bytes: 8,
            tip_sector_data_bits: 80,
            tip_sector_servo_bits: 10,
            logical_sector_bytes: 512,
            per_tip_rate: 700e3,
            accel: 803.6,
            resonant_freq: 739.0,
            spring_factor: 0.75,
            settle_constants: 1.0,
            overhead: 0.0,
        }
    }
}

impl MemsParams {
    /// Returns a copy with the given number of settling time constants
    /// (§4.4 sensitivity study).
    pub fn with_settle_constants(mut self, n: f64) -> Self {
        self.settle_constants = n;
        self
    }

    /// Returns a copy with the given spring factor.
    pub fn with_spring_factor(mut self, sf: f64) -> Self {
        self.spring_factor = sf;
        self
    }

    /// Sled travel limit from center, in meters (±50 µm by default).
    pub fn half_mobility(&self) -> f64 {
        self.mobility / 2.0
    }

    /// Total bits (servo + data) occupied by one tip sector along Y.
    pub fn tip_sector_bits(&self) -> u32 {
        self.tip_sector_data_bits + self.tip_sector_servo_bits
    }

    /// Constant sled velocity during media access, in m/s.
    ///
    /// `per-tip rate × bit width` = 28 mm/s for the default device.
    pub fn access_velocity(&self) -> f64 {
        self.per_tip_rate * self.bit_width
    }

    /// Time for the sled to pass over one tip sector (one "row"), seconds.
    ///
    /// 90 bits at 700 Kbit/s = 128.57 µs for the default device.
    pub fn row_time(&self) -> f64 {
        f64::from(self.tip_sector_bits()) / self.per_tip_rate
    }

    /// One settling time constant τ = 1/(2π·resonant frequency), seconds
    /// (≈0.215 ms for 739 Hz, matching the paper's "0.2 ms" settle).
    pub fn settle_time_constant(&self) -> f64 {
        1.0 / (2.0 * std::f64::consts::PI * self.resonant_freq)
    }

    /// Settling time charged after any X-dimension sled movement, seconds.
    pub fn settle_time(&self) -> f64 {
        self.settle_constants * self.settle_time_constant()
    }

    /// Streaming media bandwidth in bytes/second with all active tips
    /// transferring user data (79.6 MB/s for the default device).
    pub fn streaming_bandwidth(&self) -> f64 {
        let geom = self.geometry();
        f64::from(geom.sectors_per_row) * f64::from(self.logical_sector_bytes) / self.row_time()
    }

    /// Computes and validates the derived geometry.
    ///
    /// # Panics
    ///
    /// Panics if the parameters are inconsistent (e.g. the logical sector
    /// does not stripe evenly over tip sectors, or the active tips do not
    /// divide the total tips).
    pub fn geometry(&self) -> MemsGeometry {
        assert!(self.mobility > 0.0 && self.bit_width > 0.0);
        assert!(self.per_tip_rate > 0.0 && self.accel > 0.0);
        assert!(
            self.spring_factor > 0.0 && self.spring_factor < 1.0,
            "spring factor must be in (0,1) so the actuator can always overcome the spring"
        );
        let bits_per_side = (self.mobility / self.bit_width).round() as u32;
        let stripe_width = self.logical_sector_bytes / self.tip_sector_data_bytes;
        assert_eq!(
            stripe_width * self.tip_sector_data_bytes,
            self.logical_sector_bytes,
            "logical sector must stripe evenly across tip sectors"
        );
        assert_eq!(
            self.active_tips % stripe_width,
            0,
            "active tips must be a multiple of the stripe width"
        );
        assert_eq!(
            self.tips % self.active_tips,
            0,
            "active tips must divide total tips evenly into tracks"
        );
        let rows_per_track = bits_per_side / self.tip_sector_bits();
        assert!(
            rows_per_track > 0,
            "tip region too short for one tip sector"
        );
        let sectors_per_row = self.active_tips / stripe_width;
        let tracks_per_cylinder = self.tips / self.active_tips;
        MemsGeometry {
            bits_per_side,
            cylinders: bits_per_side,
            tracks_per_cylinder,
            rows_per_track,
            sectors_per_row,
            sectors_per_track: sectors_per_row * rows_per_track,
            stripe_width,
            logical_sector_bytes: self.logical_sector_bytes,
        }
    }
}

/// Derived disk-metaphor geometry of a MEMS device (§2.2, Figures 3–4).
///
/// * A **cylinder** is all bits at one X offset (one per bit column: 2500).
/// * A **track** is the subset of a cylinder accessible by one group of
///   concurrently active tips (5 tracks per cylinder).
/// * A **row** is one tip-sector worth of Y travel; all logical sectors in
///   a row transfer simultaneously (20 sectors per row, 27 rows per track).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemsGeometry {
    /// Bits along each side of a tip region (N = M = 2500).
    pub bits_per_side: u32,
    /// Number of cylinders (equal to `bits_per_side`).
    pub cylinders: u32,
    /// Tracks per cylinder (total tips / active tips = 5).
    pub tracks_per_cylinder: u32,
    /// Tip-sector rows per track (27).
    pub rows_per_track: u32,
    /// Logical sectors transferred concurrently in one row (20).
    pub sectors_per_row: u32,
    /// Logical sectors per track (540).
    pub sectors_per_track: u32,
    /// Tip sectors (tips) per logical sector (64).
    pub stripe_width: u32,
    /// Bytes per logical sector (512).
    pub logical_sector_bytes: u32,
}

impl MemsGeometry {
    /// Total logical sectors on the device.
    pub fn total_sectors(&self) -> u64 {
        u64::from(self.cylinders)
            * u64::from(self.tracks_per_cylinder)
            * u64::from(self.sectors_per_track)
    }

    /// Total user-data capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.total_sectors() * u64::from(self.logical_sector_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kinematics::SpringSled;

    #[test]
    fn default_geometry_matches_paper() {
        let p = MemsParams::default();
        let g = p.geometry();
        assert_eq!(g.bits_per_side, 2500);
        assert_eq!(g.cylinders, 2500);
        assert_eq!(g.tracks_per_cylinder, 5);
        assert_eq!(g.rows_per_track, 27);
        assert_eq!(g.sectors_per_row, 20);
        assert_eq!(g.sectors_per_track, 540);
        assert_eq!(g.stripe_width, 64);
        assert_eq!(g.total_sectors(), 2500 * 5 * 540);
        // 3.456 GB of user data; paper rounds down to 3.2 GB for spares.
        assert_eq!(g.capacity_bytes(), 3_456_000_000);
    }

    #[test]
    fn access_velocity_is_28_mm_per_s() {
        let p = MemsParams::default();
        assert!((p.access_velocity() - 0.028).abs() < 1e-12);
    }

    #[test]
    fn row_time_is_128_6_us() {
        let p = MemsParams::default();
        assert!((p.row_time() - 90.0 / 700e3).abs() < 1e-15);
        assert!((p.row_time() * 1e6 - 128.571).abs() < 0.001);
    }

    #[test]
    fn settle_time_constant_is_about_0_2_ms() {
        let p = MemsParams::default();
        let tau = p.settle_time_constant();
        assert!((tau - 2.1536e-4).abs() < 1e-7, "tau = {tau}");
        assert_eq!(p.settle_time(), tau); // one constant by default
        assert_eq!(
            p.clone().with_settle_constants(2.0).settle_time(),
            2.0 * tau
        );
        assert_eq!(p.with_settle_constants(0.0).settle_time(), 0.0);
    }

    #[test]
    fn streaming_bandwidth_is_79_6_mb_per_s() {
        let p = MemsParams::default();
        let bw = p.streaming_bandwidth();
        assert!((bw / 1e6 - 79.6).abs() < 0.1, "bw = {bw}");
    }

    #[test]
    fn spring_omega_matches_formula() {
        // The sled every `MemsDevice` builds from its parameters.
        let p = MemsParams::default();
        let sled = SpringSled::from_spring_factor(p.accel, p.spring_factor, p.half_mobility());
        let omega = sled.omega();
        assert!((omega - (0.75f64 * 803.6 / 50e-6).sqrt()).abs() < 1e-9);
        // At full displacement the spring decelerates at 75% of actuator force.
        let spring_accel = omega * omega * p.half_mobility();
        assert!((spring_accel - 0.75 * p.accel).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "spring factor")]
    fn spring_factor_of_one_rejected() {
        let _ = MemsParams {
            spring_factor: 1.0,
            ..MemsParams::default()
        }
        .geometry();
    }

    #[test]
    #[should_panic(expected = "stripe evenly")]
    fn uneven_stripe_rejected() {
        let _ = MemsParams {
            logical_sector_bytes: 500,
            ..MemsParams::default()
        }
        .geometry();
    }
}
