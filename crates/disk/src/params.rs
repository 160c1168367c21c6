//! Disk drive parameters and presets.
//!
//! The primary preset models the Quantum Atlas 10K — the validated DiskSim
//! reference disk the paper uses for every disk-side comparison — from its
//! published product-manual characteristics: 10,025 RPM, 10,042 cylinders
//! over 6 surfaces, zoned recording from 334 down to 229 sectors per track
//! (the paper's "46% difference" and Table 2's "longest track" of 334
//! sectors), 1.245 ms single-cylinder through 10.828 ms full-stroke seeks,
//! and 25-second spin-up (§6.3).
//!
//! A second preset models a mobile 2.5" drive in the IBM Travelstar class
//! (the paper's §7 power-management references [IBM99, IBM00]) for the
//! power-policy experiments.

/// One banded-recording zone: a run of cylinders sharing a
/// sectors-per-track count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Zone {
    /// First cylinder of the zone.
    pub first_cylinder: u32,
    /// Number of cylinders in the zone.
    pub cylinders: u32,
    /// Sectors per track throughout the zone.
    pub sectors_per_track: u32,
    /// First LBN mapped into the zone.
    pub first_lbn: u64,
}

impl Zone {
    /// Logical sectors contained in the zone (`cylinders × heads × spt`).
    pub fn sectors(&self, heads: u32) -> u64 {
        u64::from(self.cylinders) * u64::from(heads) * u64::from(self.sectors_per_track)
    }
}

/// Parameters of a zoned, rotating disk drive.
#[derive(Debug, Clone, PartialEq)]
pub struct DiskParams {
    /// Human-readable model name.
    pub name: String,
    /// Spindle speed in revolutions per minute.
    pub rpm: f64,
    /// Number of cylinders.
    pub cylinders: u32,
    /// Number of read/write heads (surfaces).
    pub heads: u32,
    /// Recording zones, outermost (highest-capacity) first, covering all
    /// cylinders contiguously.
    pub zones: Vec<Zone>,
    /// Single-cylinder seek time, seconds.
    pub seek_one: f64,
    /// Full-stroke seek time, seconds.
    pub seek_full: f64,
    /// Average seek time (over uniformly random cylinder pairs), seconds;
    /// used to calibrate the middle of the seek curve.
    pub seek_avg: f64,
    /// Head-switch (track-switch within a cylinder) time, seconds.
    pub head_switch: f64,
    /// Additional settle time charged to writes, seconds.
    pub write_settle: f64,
    /// Fixed per-request controller/bus overhead, seconds.
    pub overhead: f64,
}

impl DiskParams {
    /// Builds the Quantum Atlas 10K (9.1 GB class) preset.
    ///
    /// # Examples
    ///
    /// ```
    /// use atlas_disk::DiskParams;
    ///
    /// let p = DiskParams::quantum_atlas_10k();
    /// assert_eq!(p.zones.first().unwrap().sectors_per_track, 334);
    /// assert_eq!(p.zones.last().unwrap().sectors_per_track, 229);
    /// // ~46% bandwidth difference between outer and inner bands (§2.4.12).
    /// assert!((334.0_f64 / 229.0 - 1.46).abs() < 0.01);
    /// ```
    pub fn quantum_atlas_10k() -> Self {
        // 15 zones stepping from 334 to 229 sectors per track in equal
        // 7.5-sector decrements over 10,042 cylinders.
        let num_zones = 15u32;
        let cylinders = 10_042u32;
        let heads = 6u32;
        let mut zones = Vec::with_capacity(num_zones as usize);
        let mut first_cylinder = 0u32;
        let mut first_lbn = 0u64;
        for z in 0..num_zones {
            let cyls = cylinders / num_zones + u32::from(z < cylinders % num_zones);
            let spt = 334 - (334 - 229) * z / (num_zones - 1);
            let zone = Zone {
                first_cylinder,
                cylinders: cyls,
                sectors_per_track: spt,
                first_lbn,
            };
            first_cylinder += cyls;
            first_lbn += zone.sectors(heads);
            zones.push(zone);
        }
        DiskParams {
            name: "Quantum Atlas 10K".to_string(),
            rpm: 10_025.0,
            cylinders,
            heads,
            zones,
            seek_one: 1.245e-3,
            seek_full: 10.828e-3,
            seek_avg: 5.0e-3,
            head_switch: 0.176e-3,
            write_settle: 0.2e-3,
            overhead: 0.2e-3,
        }
    }

    /// Builds a mobile 2.5" drive preset in the IBM Travelstar class, used
    /// by the §7 power-management comparisons.
    pub fn ibm_travelstar_class() -> Self {
        let num_zones = 8u32;
        let cylinders = 13_085u32;
        let heads = 4u32;
        let mut zones = Vec::with_capacity(num_zones as usize);
        let mut first_cylinder = 0u32;
        let mut first_lbn = 0u64;
        for z in 0..num_zones {
            let cyls = cylinders / num_zones + u32::from(z < cylinders % num_zones);
            let spt = 240 - (240 - 160) * z / (num_zones - 1);
            let zone = Zone {
                first_cylinder,
                cylinders: cyls,
                sectors_per_track: spt,
                first_lbn,
            };
            first_cylinder += cyls;
            first_lbn += zone.sectors(heads);
            zones.push(zone);
        }
        DiskParams {
            name: "IBM Travelstar class".to_string(),
            rpm: 4200.0,
            cylinders,
            heads,
            zones,
            seek_one: 2.5e-3,
            seek_full: 23.0e-3,
            seek_avg: 12.0e-3,
            head_switch: 0.5e-3,
            write_settle: 0.5e-3,
            overhead: 0.3e-3,
        }
    }

    /// One spindle revolution, in seconds (5.985 ms for the Atlas 10K).
    pub fn revolution_time(&self) -> f64 {
        60.0 / self.rpm
    }

    /// Total logical sectors on the drive.
    pub fn total_sectors(&self) -> u64 {
        self.zones.iter().map(|z| z.sectors(self.heads)).sum()
    }

    /// Total capacity in bytes (512-byte sectors).
    pub fn capacity_bytes(&self) -> u64 {
        self.total_sectors() * 512
    }

    /// The zone containing `lbn`.
    ///
    /// # Panics
    ///
    /// Panics if `lbn` is beyond the drive capacity.
    pub fn zone_of(&self, lbn: u64) -> &Zone {
        assert!(lbn < self.total_sectors(), "LBN {lbn} out of range");
        match self.zones.binary_search_by(|z| z.first_lbn.cmp(&lbn)) {
            Ok(i) => &self.zones[i],
            Err(i) => &self.zones[i - 1],
        }
    }

    /// The zone containing a cylinder.
    ///
    /// # Panics
    ///
    /// Panics if `cyl` is beyond the last cylinder.
    pub fn zone_of_cylinder(&self, cyl: u32) -> &Zone {
        assert!(cyl < self.cylinders, "cylinder {cyl} out of range");
        match self.zones.binary_search_by(|z| z.first_cylinder.cmp(&cyl)) {
            Ok(i) => &self.zones[i],
            Err(i) => &self.zones[i - 1],
        }
    }

    /// Validates internal consistency (zones tile the cylinders and LBN
    /// space contiguously).
    ///
    /// # Panics
    ///
    /// Panics on any inconsistency; returns `&self` otherwise so calls can
    /// be chained.
    pub fn validate(&self) -> &Self {
        assert!(self.rpm > 0.0 && self.cylinders > 0 && self.heads > 0);
        assert!(!self.zones.is_empty(), "at least one zone required");
        let mut cyl = 0u32;
        let mut lbn = 0u64;
        for z in &self.zones {
            assert_eq!(z.first_cylinder, cyl, "zones must tile cylinders");
            assert_eq!(z.first_lbn, lbn, "zones must tile the LBN space");
            assert!(z.sectors_per_track > 0 && z.cylinders > 0);
            cyl += z.cylinders;
            lbn += z.sectors(self.heads);
        }
        assert_eq!(cyl, self.cylinders, "zones must cover all cylinders");
        assert!(self.seek_one > 0.0 && self.seek_full >= self.seek_avg);
        assert!(self.seek_avg >= self.seek_one);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn atlas_preset_is_consistent() {
        let p = DiskParams::quantum_atlas_10k();
        p.validate();
        assert!((p.revolution_time() - 5.985e-3).abs() < 1e-6);
        // 9.1 GB class capacity.
        let gb = p.capacity_bytes() as f64 / 1e9;
        assert!((8.0..10.0).contains(&gb), "capacity {gb} GB");
    }

    #[test]
    fn travelstar_preset_is_consistent() {
        let p = DiskParams::ibm_travelstar_class();
        p.validate();
        let gb = p.capacity_bytes() as f64 / 1e9;
        assert!((4.0..7.0).contains(&gb), "capacity {gb} GB");
    }

    #[test]
    fn banded_recording_matches_paper_ratio() {
        // §2.4.12: "as much as a 46% difference between the maximum
        // bandwidth at the innermost and outermost tracks".
        let p = DiskParams::quantum_atlas_10k();
        // Media transfer rate in bytes/second in the zone holding `lbn`.
        let rate_at =
            |lbn| f64::from(p.zone_of(lbn).sectors_per_track) * 512.0 / p.revolution_time();
        let outer = rate_at(0);
        let inner = rate_at(p.total_sectors() - 1);
        let ratio = outer / inner;
        assert!((ratio - 1.46).abs() < 0.02, "ratio {ratio}");
        // §5.2: streaming rates 28.5 → 19.5 MB/s.
        assert!((outer / 1e6 - 28.6).abs() < 0.5, "outer {outer}");
        assert!((inner / 1e6 - 19.6).abs() < 0.5, "inner {inner}");
    }

    #[test]
    fn zone_lookup_finds_boundaries() {
        let p = DiskParams::quantum_atlas_10k();
        assert_eq!(p.zone_of(0).first_lbn, 0);
        let second = &p.zones[1];
        assert_eq!(p.zone_of(second.first_lbn).first_lbn, second.first_lbn);
        assert_eq!(p.zone_of(second.first_lbn - 1).first_lbn, 0);
        assert_eq!(
            p.zone_of(p.total_sectors() - 1).first_cylinder,
            p.zones.last().unwrap().first_cylinder
        );
        assert_eq!(p.zone_of_cylinder(0).first_cylinder, 0);
        assert_eq!(p.zone_of_cylinder(p.cylinders - 1).sectors_per_track, 229);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn zone_of_rejects_oversized_lbn() {
        let p = DiskParams::quantum_atlas_10k();
        let _ = p.zone_of(p.total_sectors());
    }
}
