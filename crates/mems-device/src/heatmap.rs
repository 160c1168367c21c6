//! Spatial media heatmaps: where on the sled do accesses land?
//!
//! §5 of the paper argues layout by *locality*: which cylinders the sled
//! dwells over, and which tips do the work. [`MediaHeatmap`] turns a
//! stream of serviced requests (LBN + length, straight out of the
//! tracer's `Service` events) into three deterministic spatial views:
//!
//! 1. a **region grid** over (cylinder, tip-sector row) — each tip-sector
//!    row pass ("stripe") of a request increments exactly one cell, so the
//!    grid total reconciles exactly with `requests × stripes touched`;
//! 2. **per-tip-group** sector counts — a tip group is one
//!    `(track, slot)` pair, the set of [`MemsParams::active_tips`]-wide
//!    concurrent tips that transfer one logical sector, so the group total
//!    reconciles exactly with the sum of request sector counts;
//! 3. **dwell-time occupancy** — transfer residency per region cell
//!    (stripes × the fixed per-row pass time), the sled X/Y occupancy
//!    view.
//!
//! Per-request energy (from the tracer's phase-energy attribution) is
//! spread uniformly over the request's stripes, giving an energy-per-
//! region view that sums back to the run's total exactly (up to float
//! addition order, which is fixed because replay order is fixed).
//!
//! Everything here derives from the LBN mapping alone — no device state —
//! so a heatmap rebuilt from a recorded trace is byte-stable and can be a
//! CI golden.
//!
//! [`MemsParams::active_tips`]: crate::MemsParams

use crate::params::{MemsGeometry, MemsParams};

/// Deterministic spatial access/energy/dwell accumulator for the MEMS
/// media.
///
/// # Examples
///
/// ```
/// use mems_device::{MediaHeatmap, MemsParams};
///
/// let mut map = MediaHeatmap::new(&MemsParams::default(), 10, 9);
/// map.record(0, 40, 1e-6); // two row passes in cylinder 0
/// assert_eq!(map.total_stripes(), 2);
/// assert_eq!(map.total_sectors(), 40);
/// assert_eq!(map.region_accesses(0, 0), 2);
/// ```
#[derive(Debug, Clone)]
pub struct MediaHeatmap {
    geom: MemsGeometry,
    row_time: f64,
    x_cells: usize,
    y_cells: usize,
    region_accesses: Vec<u64>,
    region_sectors: Vec<u64>,
    region_dwell_s: Vec<f64>,
    region_energy_j: Vec<f64>,
    /// Sector counts per `(track, slot)` concurrent-tip group.
    tip_sectors: Vec<u64>,
    requests: u64,
    stripes: u64,
    sectors: u64,
}

impl MediaHeatmap {
    /// Creates an empty heatmap with an `x_cells × y_cells` region grid:
    /// cylinders bucket into `x_cells` columns, tip-sector rows (within a
    /// track) into `y_cells` rows.
    ///
    /// # Panics
    ///
    /// Panics if either grid dimension is zero or exceeds the underlying
    /// geometry (a cell must cover at least one cylinder/row).
    pub fn new(params: &MemsParams, x_cells: usize, y_cells: usize) -> Self {
        let geom = params.geometry();
        assert!(
            x_cells > 0 && x_cells <= geom.cylinders as usize,
            "x_cells must be in 1..=cylinders"
        );
        assert!(
            y_cells > 0 && y_cells <= geom.rows_per_track as usize,
            "y_cells must be in 1..=rows_per_track"
        );
        let tip_groups = (geom.tracks_per_cylinder * geom.sectors_per_row) as usize;
        MediaHeatmap {
            geom,
            row_time: params.row_time(),
            x_cells,
            y_cells,
            region_accesses: vec![0; x_cells * y_cells],
            region_sectors: vec![0; x_cells * y_cells],
            region_dwell_s: vec![0.0; x_cells * y_cells],
            region_energy_j: vec![0.0; x_cells * y_cells],
            tip_sectors: vec![0; tip_groups],
            requests: 0,
            stripes: 0,
            sectors: 0,
        }
    }

    /// Convenience: rebuilds a heatmap by replaying `(lbn, sectors,
    /// energy_j)` service records (e.g. decoded from a trace).
    pub fn from_services<I>(
        params: &MemsParams,
        x_cells: usize,
        y_cells: usize,
        services: I,
    ) -> Self
    where
        I: IntoIterator<Item = (u64, u32, f64)>,
    {
        let mut map = MediaHeatmap::new(params, x_cells, y_cells);
        for (lbn, sectors, energy_j) in services {
            map.record(lbn, sectors, energy_j);
        }
        map
    }

    fn cell(&self, cylinder: u32, row: u32) -> usize {
        let xi = cylinder as usize * self.x_cells / self.geom.cylinders as usize;
        let yi = row as usize * self.y_cells / self.geom.rows_per_track as usize;
        xi * self.y_cells + yi
    }

    /// Accumulates one serviced request. Every tip-sector row ("stripe")
    /// the request touches increments one region cell; every sector
    /// increments one tip group; `energy_j` spreads uniformly over the
    /// stripes.
    ///
    /// # Panics
    ///
    /// Panics if the request is empty or runs beyond the device capacity
    /// (same contract as [`crate::Mapper::segment_iter`]).
    pub fn record(&mut self, lbn: u64, sectors: u32, energy_j: f64) {
        assert!(sectors > 0, "empty request");
        let end = lbn + u64::from(sectors);
        assert!(end <= self.geom.total_sectors(), "request beyond capacity");
        let spr = u64::from(self.geom.sectors_per_row);
        let rpt = u64::from(self.geom.rows_per_track);
        let tpc = u64::from(self.geom.tracks_per_cylinder);

        self.requests += 1;
        self.sectors += u64::from(sectors);

        let first_row = lbn / spr;
        let last_row = (end - 1) / spr;
        let stripes = last_row - first_row + 1;
        self.stripes += stripes;
        let energy_per_stripe = energy_j / stripes as f64;

        for global_row in first_row..=last_row {
            let row = (global_row % rpt) as u32;
            let global_track = global_row / rpt;
            let track = (global_track % tpc) as u32;
            let cylinder = (global_track / tpc) as u32;
            let cell = self.cell(cylinder, row);
            self.region_accesses[cell] += 1;
            self.region_dwell_s[cell] += self.row_time;
            self.region_energy_j[cell] += energy_per_stripe;

            // Sectors of the request inside this row, and their slots.
            let row_lo = global_row * spr;
            let slot_lo = lbn.max(row_lo) - row_lo;
            let slot_hi = end.min(row_lo + spr) - row_lo;
            self.region_sectors[cell] += slot_hi - slot_lo;
            for slot in slot_lo..slot_hi {
                self.tip_sectors[track as usize * spr as usize + slot as usize] += 1;
            }
        }
    }

    /// Folds another heatmap into this one, cell by cell — the pooled
    /// fleet view: per-station heatmaps recorded independently merge into
    /// one media-wide picture. Counts add exactly; dwell and energy add
    /// in argument order (deterministic for a fixed station order).
    ///
    /// # Panics
    ///
    /// Panics unless both heatmaps share the same geometry and grid
    /// (merging different devices' grids would silently misattribute
    /// cells).
    pub fn merge(&mut self, other: &MediaHeatmap) {
        assert!(
            self.x_cells == other.x_cells
                && self.y_cells == other.y_cells
                && self.geom.total_sectors() == other.geom.total_sectors()
                && self.geom.cylinders == other.geom.cylinders
                && self.geom.rows_per_track == other.geom.rows_per_track
                && self.geom.tracks_per_cylinder == other.geom.tracks_per_cylinder
                && self.geom.sectors_per_row == other.geom.sectors_per_row,
            "heatmap merge requires identical geometry and grid"
        );
        for (a, b) in self.region_accesses.iter_mut().zip(&other.region_accesses) {
            *a += b;
        }
        for (a, b) in self.region_sectors.iter_mut().zip(&other.region_sectors) {
            *a += b;
        }
        for (a, b) in self.region_dwell_s.iter_mut().zip(&other.region_dwell_s) {
            *a += b;
        }
        for (a, b) in self.region_energy_j.iter_mut().zip(&other.region_energy_j) {
            *a += b;
        }
        for (a, b) in self.tip_sectors.iter_mut().zip(&other.tip_sectors) {
            *a += b;
        }
        self.requests += other.requests;
        self.stripes += other.stripes;
        self.sectors += other.sectors;
    }

    /// Region grid width (cylinder buckets).
    pub fn x_cells(&self) -> usize {
        self.x_cells
    }

    /// Region grid height (row buckets).
    pub fn y_cells(&self) -> usize {
        self.y_cells
    }

    /// Stripe (row-pass) count in region cell `(xi, yi)`.
    pub fn region_accesses(&self, xi: usize, yi: usize) -> u64 {
        self.region_accesses[xi * self.y_cells + yi]
    }

    /// Sectors transferred in region cell `(xi, yi)`.
    pub fn region_sectors(&self, xi: usize, yi: usize) -> u64 {
        self.region_sectors[xi * self.y_cells + yi]
    }

    /// Transfer dwell time in region cell `(xi, yi)`, seconds.
    pub fn region_dwell_s(&self, xi: usize, yi: usize) -> f64 {
        self.region_dwell_s[xi * self.y_cells + yi]
    }

    /// Energy attributed to region cell `(xi, yi)`, joules.
    pub fn region_energy_j(&self, xi: usize, yi: usize) -> f64 {
        self.region_energy_j[xi * self.y_cells + yi]
    }

    /// Sectors transferred by tip group `(track, slot)`.
    pub fn tip_group_sectors(&self, track: u32, slot: u32) -> u64 {
        assert!(track < self.geom.tracks_per_cylinder);
        assert!(slot < self.geom.sectors_per_row);
        self.tip_sectors[(track * self.geom.sectors_per_row + slot) as usize]
    }

    /// Requests recorded.
    pub fn requests(&self) -> u64 {
        self.requests
    }

    /// Total stripes (row passes) — equals the region-grid access total by
    /// construction; the reconciliation tests assert it.
    pub fn total_stripes(&self) -> u64 {
        self.stripes
    }

    /// Total sectors recorded — equals the tip-group total.
    pub fn total_sectors(&self) -> u64 {
        self.sectors
    }

    /// Sum of all region-grid access counts (for reconciliation).
    pub fn region_access_total(&self) -> u64 {
        self.region_accesses.iter().sum()
    }

    /// Sum of all tip-group sector counts (for reconciliation).
    pub fn tip_sector_total(&self) -> u64 {
        self.tip_sectors.iter().sum()
    }

    /// The heatmap as CSV rows under the shared
    /// `cell,kind,i,j,accesses,sectors,dwell_s,energy_j` schema:
    /// `mems_region` rows (i = cylinder bucket, j = row bucket) followed by
    /// `mems_tip_group` rows (i = track, j = slot). Deterministic.
    pub fn csv_rows(&self, cell: &str) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(self.region_accesses.len() * 48);
        for xi in 0..self.x_cells {
            for yi in 0..self.y_cells {
                let _ = writeln!(
                    out,
                    "{cell},mems_region,{xi},{yi},{},{},{:.6},{:.6}",
                    self.region_accesses(xi, yi),
                    self.region_sectors(xi, yi),
                    self.region_dwell_s(xi, yi),
                    self.region_energy_j(xi, yi),
                );
            }
        }
        for track in 0..self.geom.tracks_per_cylinder {
            for slot in 0..self.geom.sectors_per_row {
                let _ = writeln!(
                    out,
                    "{cell},mems_tip_group,{track},{slot},0,{},0.000000,0.000000",
                    self.tip_group_sectors(track, slot),
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map() -> MediaHeatmap {
        MediaHeatmap::new(&MemsParams::default(), 10, 9)
    }

    #[test]
    fn single_row_request_hits_one_cell_and_its_slots() {
        let mut m = map();
        m.record(5, 8, 2e-6); // sectors 5..13 of row 0, track 0, cylinder 0
        assert_eq!(m.total_stripes(), 1);
        assert_eq!(m.region_accesses(0, 0), 1);
        assert_eq!(m.region_sectors(0, 0), 8);
        assert_eq!(m.tip_group_sectors(0, 5), 1);
        assert_eq!(m.tip_group_sectors(0, 12), 1);
        assert_eq!(m.tip_group_sectors(0, 4), 0);
        assert_eq!(m.tip_group_sectors(0, 13), 0);
        assert!((m.region_energy_j(0, 0) - 2e-6).abs() < 1e-18);
    }

    #[test]
    fn totals_reconcile_with_stripe_and_sector_sums() {
        let mut m = map();
        // A mix of row-straddling, track-crossing, and cylinder-crossing
        // requests.
        for (lbn, sectors) in [(15u64, 8u32), (530, 20), (2690, 20), (0, 334)] {
            m.record(lbn, sectors, 1e-6);
        }
        assert_eq!(m.region_access_total(), m.total_stripes());
        assert_eq!(m.tip_sector_total(), m.total_sectors());
        assert_eq!(m.total_sectors(), 8 + 20 + 20 + 334);
        assert_eq!(m.requests(), 4);
        // Energy is conserved across the grid.
        let grid_energy: f64 = (0..10)
            .flat_map(|x| (0..9).map(move |y| (x, y)))
            .map(|(x, y)| m.region_energy_j(x, y))
            .sum();
        assert!((grid_energy - 4e-6).abs() < 1e-15);
    }

    #[test]
    fn far_cylinder_lands_in_far_column() {
        let mut m = map();
        // Cylinder 2499 is the last column of a 10-wide grid.
        let lbn = 2499u64 * 2700; // first sector of the last cylinder
        m.record(lbn, 20, 0.0);
        assert_eq!(m.region_accesses(9, 0), 1);
        assert_eq!(m.region_access_total(), 1);
    }

    #[test]
    fn dwell_time_is_stripes_times_row_time() {
        let params = MemsParams::default();
        let mut m = MediaHeatmap::new(&params, 10, 9);
        m.record(0, 40, 0.0); // two stripes
        let dwell: f64 = (0..10)
            .flat_map(|x| (0..9).map(move |y| (x, y)))
            .map(|(x, y)| m.region_dwell_s(x, y))
            .sum();
        assert!((dwell - 2.0 * params.row_time()).abs() < 1e-15);
    }

    #[test]
    fn csv_rows_cover_grid_then_tip_groups() {
        let mut m = map();
        m.record(0, 8, 0.0);
        let rows = m.csv_rows("c");
        let lines: Vec<&str> = rows.lines().collect();
        assert_eq!(lines.len(), 10 * 9 + 5 * 20);
        assert!(lines[0].starts_with("c,mems_region,0,0,1,8,"));
        assert!(lines[90].starts_with("c,mems_tip_group,0,0,0,1,"));
        assert_eq!(rows, m.csv_rows("c"), "byte-stable");
    }

    #[test]
    #[should_panic(expected = "beyond capacity")]
    fn oversized_request_rejected() {
        map().record(6_749_999, 2, 0.0);
    }

    #[test]
    fn merge_pools_counts_exactly() {
        let mut a = map();
        let mut b = map();
        a.record(15, 8, 1e-6);
        b.record(15, 8, 1e-6);
        b.record(530, 20, 2e-6);
        let sum_before = a.total_sectors() + b.total_sectors();
        a.merge(&b);
        assert_eq!(a.total_sectors(), sum_before);
        assert_eq!(a.requests(), 3);
        assert_eq!(a.region_access_total(), a.total_stripes());
        assert_eq!(a.tip_sector_total(), a.total_sectors());
        // Cell (0,0): 8 + 8 from the two lbn-15 records, plus the 10
        // sectors of the lbn-530 request that spill into the next row
        // pass (row 9 = track 1, row 0 — same grid cell).
        assert_eq!(a.region_sectors(0, 0), 26);
        // Byte-stable merged CSV for a fixed merge order.
        assert_eq!(a.csv_rows("m"), a.clone().csv_rows("m"));
    }

    #[test]
    #[should_panic(expected = "identical geometry")]
    fn merge_rejects_grid_mismatch() {
        let mut a = map();
        let b = MediaHeatmap::new(&MemsParams::default(), 5, 9);
        a.merge(&b);
    }
}
