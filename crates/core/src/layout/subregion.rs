//! The subregioned layout (§5.3): a 5×5 grid over sled X and Y.
//!
//! The sled's travel is divided into a five-by-five grid of subregions
//! (Fig. 9). Unlike the columnar layout, subregions bound *both* sled
//! dimensions, so placing small data in the centermost subregion keeps
//! both the X and the Y excursions of hot accesses short — which is why
//! the subregioned layout wins once settle time is removed ("MEMS-nosettle"
//! in Fig. 11). Small data occupies the centermost subregion; large data
//! the ten leftmost and ten rightmost subregions (the two outer column
//! bands in full).

use std::ops::Range;

use mems_device::MemsGeometry;

use super::Layout;

/// 5×5-grid bipartite placement over a MEMS device.
///
/// # Examples
///
/// ```
/// use mems_device::MemsParams;
/// use mems_os::layout::{Layout, SubregionedLayout};
///
/// let geom = MemsParams::default().geometry();
/// let l = SubregionedLayout::new(&geom);
/// // The small region bounds Y as well as X, so it is made of many short
/// // per-track runs rather than one contiguous range.
/// assert!(l.small_ranges().len() > 100);
/// ```
#[derive(Debug, Clone)]
pub struct SubregionedLayout {
    small: Vec<Range<u64>>,
    large: Vec<Range<u64>>,
}

impl SubregionedLayout {
    /// Grid dimension, fixed at 5 per the paper.
    pub const GRID: u32 = 5;

    /// Builds the layout for a device geometry.
    ///
    /// # Panics
    ///
    /// Panics if the device has fewer cylinders or rows than the grid.
    pub fn new(geom: &MemsGeometry) -> Self {
        assert!(geom.cylinders >= Self::GRID && geom.rows_per_track >= Self::GRID);
        let g = Self::GRID;
        // Cylinder bands 0..5 and row bands 0..5. Rows don't divide by 5
        // evenly (27 = 5+5+7+5+5); give the center band the excess so the
        // "centermost" subregion is centered.
        let cyl_band = geom.cylinders / g;
        let row_band = geom.rows_per_track / g;
        let row_excess = geom.rows_per_track - row_band * g;
        let row_bounds = {
            let mut bounds = Vec::with_capacity(g as usize + 1);
            let mut r = 0u32;
            bounds.push(r);
            for band in 0..g {
                r += row_band + if band == g / 2 { row_excess } else { 0 };
                bounds.push(r);
            }
            bounds
        };

        // The centermost subregion: cylinder band 2 × row band 2.
        let center_cyls = (g / 2) * cyl_band..(g / 2 + 1) * cyl_band;
        let center_rows = row_bounds[(g / 2) as usize]..row_bounds[(g / 2 + 1) as usize];
        let spr = u64::from(geom.sectors_per_row);
        let rpt = u64::from(geom.rows_per_track);
        let tpc = u64::from(geom.tracks_per_cylinder);
        let mut small = Vec::new();
        for cyl in center_cyls {
            for track in 0..geom.tracks_per_cylinder {
                let base = (u64::from(cyl) * tpc + u64::from(track)) * rpt * spr;
                small.push(
                    base + u64::from(center_rows.start) * spr
                        ..base + u64::from(center_rows.end) * spr,
                );
            }
        }

        // The ten leftmost and ten rightmost subregions are the two outer
        // cylinder double-bands with all rows — contiguous LBN ranges.
        let spc = tpc * rpt * spr; // sectors per cylinder
        let left_end = u64::from(2 * cyl_band) * spc;
        let right_start = u64::from(3 * cyl_band) * spc;
        let total = geom.total_sectors();
        let large = vec![0..left_end, right_start..total];

        SubregionedLayout { small, large }
    }
}

impl Layout for SubregionedLayout {
    fn name(&self) -> &str {
        "subregioned"
    }

    fn small_ranges(&self) -> &[Range<u64>] {
        &self.small
    }

    fn large_ranges(&self) -> &[Range<u64>] {
        &self.large
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::tests::ranges_len;
    use mems_device::{Mapper, MemsParams};

    fn layout() -> SubregionedLayout {
        SubregionedLayout::new(&MemsParams::default().geometry())
    }

    #[test]
    fn small_region_bounds_both_dimensions() {
        let l = layout();
        let mapper = Mapper::new(&MemsParams::default());
        for r in l.small_ranges() {
            for lbn in [r.start, r.end - 1] {
                let a = mapper.decompose(lbn);
                assert!(
                    (1000..1500).contains(&a.cylinder),
                    "cylinder {} outside center band",
                    a.cylinder
                );
                // Row band 2 with the excess: rows 10..17.
                assert!(
                    (10..17).contains(&a.row),
                    "row {} outside center band",
                    a.row
                );
            }
        }
    }

    #[test]
    fn small_region_covers_center_band_fully() {
        let l = layout();
        // 500 cylinders × 5 tracks × 7 rows × 20 sectors.
        assert_eq!(ranges_len(l.small_ranges()), 500 * 5 * 7 * 20);
        assert_eq!(l.small_ranges().len(), 500 * 5);
    }

    #[test]
    fn large_region_is_the_outer_cylinder_bands() {
        let l = layout();
        let lr = l.large_ranges();
        assert_eq!(lr[0], 0..1000 * 2700);
        assert_eq!(lr[1], 1500 * 2700..2500 * 2700);
    }

    #[test]
    fn small_runs_fit_4_kb_requests() {
        let l = layout();
        for r in l.small_ranges() {
            assert!(r.end - r.start >= 8, "run too short for a 4 KB request");
        }
    }

    #[test]
    fn regions_do_not_overlap() {
        let l = layout();
        for s in l.small_ranges() {
            for g in l.large_ranges() {
                assert!(s.end <= g.start || g.end <= s.start, "overlap");
            }
        }
    }
}
