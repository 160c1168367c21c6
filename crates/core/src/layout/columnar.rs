//! The columnar layout (§5.3): 25 columns of 100 contiguous cylinders.
//!
//! A "simple columnar division of the LBN space into 25 columns": each
//! column is a contiguous run of cylinders, so each is one contiguous LBN
//! range. Small data goes in the centermost column; large data in the ten
//! leftmost and ten rightmost columns.

use std::ops::Range;

use mems_device::MemsGeometry;

use super::Layout;

/// 25-column bipartite placement over a MEMS device.
///
/// # Examples
///
/// ```
/// use mems_device::MemsParams;
/// use mems_os::layout::{ColumnarLayout, Layout};
///
/// let geom = MemsParams::default().geometry();
/// let l = ColumnarLayout::new(&geom);
/// // The small region is the single centermost column: one contiguous
/// // range of 100 cylinders × 2700 sectors.
/// assert_eq!(l.small_ranges().len(), 1);
/// assert_eq!(l.small_ranges()[0].end - l.small_ranges()[0].start, 100 * 2700);
/// ```
#[derive(Debug, Clone)]
pub struct ColumnarLayout {
    small: Vec<Range<u64>>,
    large: Vec<Range<u64>>,
}

impl ColumnarLayout {
    /// Number of columns, fixed at 25 per the paper.
    pub const COLUMNS: u32 = 25;

    /// Builds the layout for a device geometry.
    ///
    /// # Panics
    ///
    /// Panics if the device has fewer cylinders than columns.
    pub fn new(geom: &MemsGeometry) -> Self {
        assert!(
            geom.cylinders >= Self::COLUMNS,
            "need at least {} cylinders",
            Self::COLUMNS
        );
        let sectors_per_cylinder =
            u64::from(geom.tracks_per_cylinder) * u64::from(geom.sectors_per_track);
        let col_cyls = geom.cylinders / Self::COLUMNS;
        let column_range = |col: u32| -> Range<u64> {
            let first_cyl = u64::from(col * col_cyls);
            let end_cyl = if col == Self::COLUMNS - 1 {
                u64::from(geom.cylinders)
            } else {
                u64::from((col + 1) * col_cyls)
            };
            first_cyl * sectors_per_cylinder..end_cyl * sectors_per_cylinder
        };
        let center = Self::COLUMNS / 2; // column 12
        let small = vec![column_range(center)];
        // Ten leftmost columns are contiguous, as are the ten rightmost.
        let large = vec![
            column_range(0).start..column_range(9).end,
            column_range(15).start..column_range(24).end,
        ];
        ColumnarLayout { small, large }
    }
}

impl Layout for ColumnarLayout {
    fn name(&self) -> &str {
        "columnar"
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
    use mems_device::MemsParams;

    fn layout() -> ColumnarLayout {
        ColumnarLayout::new(&MemsParams::default().geometry())
    }

    #[test]
    fn small_region_is_the_center_column() {
        let l = layout();
        let r = &l.small_ranges()[0];
        // Column 12 of 25 → cylinders 1200..1300 → sectors 1200·2700 ...
        assert_eq!(r.start, 1200 * 2700);
        assert_eq!(r.end, 1300 * 2700);
    }

    #[test]
    fn large_region_is_the_outer_twenty_columns() {
        let l = layout();
        let lr = l.large_ranges();
        assert_eq!(lr.len(), 2);
        assert_eq!(lr[0].start, 0);
        assert_eq!(lr[0].end, 1000 * 2700);
        assert_eq!(lr[1].start, 1500 * 2700);
        assert_eq!(lr[1].end, 2500 * 2700);
        assert_eq!(ranges_len(lr), 2000 * 2700);
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

    #[test]
    fn large_regions_hold_400_kb_extents() {
        let l = layout();
        for r in l.large_ranges() {
            assert!(r.end - r.start >= 800);
        }
    }
}
