//! Logical-to-physical mapping and media coordinates.
//!
//! The lowest-level mapping of logical block numbers to physical locations
//! is sequentially optimized (§2.4.3): consecutive LBNs fill the logical
//! sectors of one tip-sector *row* (they transfer simultaneously), then
//! consecutive rows down a track, then the tracks of a cylinder, then the
//! next cylinder. Media coordinates place cylinder `c` at sled offset
//! `x = (c + ½)·bit_width − half_mobility` and tip-sector row `r` spanning
//! sled offsets `[r·90·bit_width − half, (r+1)·90·bit_width − half)`.

use crate::params::{MemsGeometry, MemsParams};

/// A fully decomposed physical sector address.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhysAddr {
    /// Cylinder (X bit column), `0..cylinders`.
    pub cylinder: u32,
    /// Track within the cylinder (active-tip group), `0..tracks_per_cylinder`.
    pub track: u32,
    /// Tip-sector row within the track, `0..rows_per_track`.
    pub row: u32,
    /// Concurrent-sector slot within the row, `0..sectors_per_row`.
    pub slot: u32,
}

/// Maps LBNs to physical addresses and physical addresses to sled
/// coordinates for one device geometry.
///
/// # Examples
///
/// ```
/// use mems_device::{MemsParams, Mapper};
///
/// let mapper = Mapper::new(&MemsParams::default());
/// let addr = mapper.decompose(0);
/// assert_eq!((addr.cylinder, addr.track, addr.row, addr.slot), (0, 0, 0, 0));
/// // LBN 20 is the first sector of the second row of the same track.
/// assert_eq!(mapper.decompose(20).row, 1);
/// // Round trip.
/// assert_eq!(mapper.compose(mapper.decompose(123_456)), 123_456);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Mapper {
    geom: MemsGeometry,
    bit_width: f64,
    half_mobility: f64,
    sector_bits: u32,
    /// `sectors_per_row`, `rows_per_track` and `tracks_per_cylinder` as
    /// multiply-shift divisors.
    spr: Divisor,
    rpt: Divisor,
    tpc: Divisor,
}

impl Mapper {
    /// Builds a mapper for the given parameters.
    pub fn new(params: &MemsParams) -> Self {
        let geom = params.geometry();
        Mapper {
            geom,
            bit_width: params.bit_width,
            half_mobility: params.half_mobility(),
            sector_bits: params.tip_sector_bits(),
            spr: Divisor::new(geom.sectors_per_row),
            rpt: Divisor::new(geom.rows_per_track),
            tpc: Divisor::new(geom.tracks_per_cylinder),
        }
    }

    /// The device geometry this mapper serves.
    pub fn geometry(&self) -> &MemsGeometry {
        &self.geom
    }

    /// Decomposes an LBN into its physical address.
    ///
    /// # Panics
    ///
    /// Panics if `lbn` is beyond the device capacity.
    #[inline]
    pub fn decompose(&self, lbn: u64) -> PhysAddr {
        assert!(lbn < self.geom.total_sectors(), "LBN {lbn} out of range");
        // Every shipping geometry's capacity fits u32, where the divisions
        // are multiply-shifts; keep a u64 fallback for synthetic geometries
        // that don't.
        if let Ok(lbn) = u32::try_from(lbn) {
            let (global_row, slot) = self.spr.div_rem(lbn);
            let (global_track, row) = self.rpt.div_rem(global_row);
            let (cylinder, track) = self.tpc.div_rem(global_track);
            return PhysAddr {
                cylinder,
                track,
                row,
                slot,
            };
        }
        let spr = u64::from(self.geom.sectors_per_row);
        let rpt = u64::from(self.geom.rows_per_track);
        let tpc = u64::from(self.geom.tracks_per_cylinder);
        let slot = (lbn % spr) as u32;
        let global_row = lbn / spr;
        let row = (global_row % rpt) as u32;
        let global_track = global_row / rpt;
        let track = (global_track % tpc) as u32;
        let cylinder = (global_track / tpc) as u32;
        PhysAddr {
            cylinder,
            track,
            row,
            slot,
        }
    }

    /// Composes a physical address back into an LBN.
    ///
    /// # Panics
    ///
    /// Panics if any component is out of range.
    pub fn compose(&self, addr: PhysAddr) -> u64 {
        assert!(addr.cylinder < self.geom.cylinders);
        assert!(addr.track < self.geom.tracks_per_cylinder);
        assert!(addr.row < self.geom.rows_per_track);
        assert!(addr.slot < self.geom.sectors_per_row);
        ((u64::from(addr.cylinder) * u64::from(self.geom.tracks_per_cylinder)
            + u64::from(addr.track))
            * u64::from(self.geom.rows_per_track)
            + u64::from(addr.row))
            * u64::from(self.geom.sectors_per_row)
            + u64::from(addr.slot)
    }

    /// Sled X offset (meters from center) at which the tips sit over
    /// cylinder `cyl`.
    #[inline]
    pub fn x_of_cylinder(&self, cyl: u32) -> f64 {
        (f64::from(cyl) + 0.5) * self.bit_width - self.half_mobility
    }

    /// Nearest cylinder to a sled X offset (inverse of
    /// [`Mapper::x_of_cylinder`], clamped to the device).
    pub fn cylinder_of_x(&self, x: f64) -> u32 {
        let c = ((x + self.half_mobility) / self.bit_width - 0.5).round();
        (c.max(0.0) as u32).min(self.geom.cylinders - 1)
    }

    /// Sled Y offset at the leading (servo) edge of tip-sector row `row`.
    #[inline]
    pub fn y_of_row_start(&self, row: u32) -> f64 {
        f64::from(row) * f64::from(self.sector_bits) * self.bit_width - self.half_mobility
    }

    /// Splits the LBN range `[lbn, lbn + sectors)` into track-contiguous
    /// row segments, in ascending order, produced one at a time without
    /// allocating — the form the service and positioning hot paths consume.
    ///
    /// Each segment covers rows `row_start..=row_end` of one
    /// `(cylinder, track)`; every row transfers in one sled pass.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the device capacity or is empty.
    #[inline]
    pub fn segment_iter(&self, lbn: u64, sectors: u32) -> SegmentIter<'_> {
        assert!(sectors > 0, "empty request");
        let end = lbn + u64::from(sectors);
        assert!(end <= self.geom.total_sectors(), "request beyond capacity");
        // u32 fast path and u64 fallback, as in `decompose`.
        let spr = u64::from(self.geom.sectors_per_row);
        let (row, last_row) = match u32::try_from(end - 1) {
            Ok(last) => (self.spr.div(lbn as u32).into(), self.spr.div(last).into()),
            Err(_) => (lbn / spr, (end - 1) / spr),
        };
        SegmentIter {
            mapper: self,
            row,
            last_row,
        }
    }

    /// First track-contiguous segment of the range — the only one
    /// positioning-time estimation needs — without allocating.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the device capacity or is empty.
    #[inline]
    pub fn first_segment(&self, lbn: u64, sectors: u32) -> Segment {
        self.segment_iter(lbn, sectors)
            .next()
            .expect("non-empty request has a first segment")
    }

    /// The segment covering rows `row..` of the track holding `row`,
    /// clipped to `last_row`; returns the segment and the first row after
    /// it.
    fn segment_from_row(&self, row: u64, last_row: u64) -> (Segment, u64) {
        // u32 fast path, as in `decompose`. The guard leaves
        // `rows_per_track` of headroom so the track end below cannot
        // overflow u32.
        let rpt = self.geom.rows_per_track;
        if last_row.saturating_add(u64::from(rpt)) <= u64::from(u32::MAX) {
            let (row, last_row) = (row as u32, last_row as u32);
            let (track_index, row_start) = self.rpt.div_rem(row); // global track number
            let track_first_row = row - row_start;
            let seg_last = (track_first_row + rpt - 1).min(last_row);
            let (cylinder, track) = self.tpc.div_rem(track_index);
            return (
                Segment {
                    cylinder,
                    track,
                    row_start,
                    row_end: seg_last - track_first_row,
                },
                u64::from(seg_last) + 1,
            );
        }
        let rpt = u64::from(self.geom.rows_per_track);
        let track_index = row / rpt; // global track number
        let track_last_row = (track_index + 1) * rpt - 1;
        let seg_last = track_last_row.min(last_row);
        let tpc = u64::from(self.geom.tracks_per_cylinder);
        (
            Segment {
                cylinder: (track_index / tpc) as u32,
                track: (track_index % tpc) as u32,
                row_start: (row % rpt) as u32,
                row_end: (seg_last % rpt) as u32,
            },
            seg_last + 1,
        )
    }
}

/// Exact division of any `u32` by a divisor `d` fixed when the mapper is
/// built, as a multiply and a shift: with `m = ⌊(2⁶⁴ − 1)/d⌋ + 1`,
/// `⌊m·n / 2⁶⁴⌋ = ⌊n/d⌋`, since `m·n/2⁶⁴` exceeds `n/d` by less than
/// `n/2⁶⁴ < 1/d`. `d = 1` would need `m = 2⁶⁴`; it stores `m = 0` and
/// divides as the identity.
#[derive(Debug, Clone, Copy)]
struct Divisor {
    d: u32,
    m: u64,
}

impl Divisor {
    fn new(d: u32) -> Self {
        Divisor {
            d,
            m: (u64::MAX / u64::from(d)).wrapping_add(1),
        }
    }

    /// `n / d`.
    #[inline]
    fn div(self, n: u32) -> u32 {
        if self.m == 0 {
            n
        } else {
            ((u128::from(self.m) * u128::from(n)) >> 64) as u32
        }
    }

    /// `(n / d, n % d)`.
    #[inline]
    fn div_rem(self, n: u32) -> (u32, u32) {
        let q = self.div(n);
        (q, n - q * self.d)
    }
}

/// Allocation-free iterator over the track-contiguous row segments of an
/// LBN range (see [`Mapper::segment_iter`]).
#[derive(Debug, Clone)]
pub struct SegmentIter<'a> {
    mapper: &'a Mapper,
    row: u64,
    last_row: u64,
}

impl Iterator for SegmentIter<'_> {
    type Item = Segment;

    #[inline]
    fn next(&mut self) -> Option<Segment> {
        if self.row > self.last_row {
            return None;
        }
        let (seg, next_row) = self.mapper.segment_from_row(self.row, self.last_row);
        self.row = next_row;
        Some(seg)
    }
}

/// A track-contiguous span of tip-sector rows, the unit of one positioning
/// + transfer pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Segment {
    /// Cylinder holding the span.
    pub cylinder: u32,
    /// Track within the cylinder.
    pub track: u32,
    /// First row of the span (inclusive).
    pub row_start: u32,
    /// Last row of the span (inclusive).
    pub row_end: u32,
}

impl Segment {
    /// Number of rows (sled passes) the span covers.
    pub fn rows(&self) -> u32 {
        self.row_end - self.row_start + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn mapper() -> Mapper {
        Mapper::new(&MemsParams::default())
    }

    #[test]
    fn lbn_zero_is_origin() {
        let m = mapper();
        let a = m.decompose(0);
        assert_eq!(
            a,
            PhysAddr {
                cylinder: 0,
                track: 0,
                row: 0,
                slot: 0
            }
        );
    }

    #[test]
    fn lbn_round_trips_at_boundaries() {
        let m = mapper();
        let total = m.geometry().total_sectors();
        for lbn in [0, 19, 20, 539, 540, 2699, 2700, total / 2, total - 1] {
            assert_eq!(m.compose(m.decompose(lbn)), lbn, "lbn {lbn}");
        }
    }

    #[test]
    fn sequential_lbns_fill_row_then_track_then_cylinder() {
        let m = mapper();
        // Sector 19 is the last slot of row 0; 20 starts row 1.
        assert_eq!(m.decompose(19).row, 0);
        assert_eq!(m.decompose(20).row, 1);
        // Sector 539 is the last of track 0; 540 starts track 1.
        assert_eq!(
            m.decompose(539),
            PhysAddr {
                cylinder: 0,
                track: 0,
                row: 26,
                slot: 19
            }
        );
        assert_eq!(
            m.decompose(540),
            PhysAddr {
                cylinder: 0,
                track: 1,
                row: 0,
                slot: 0
            }
        );
        // Sector 2700 starts cylinder 1.
        assert_eq!(
            m.decompose(2700),
            PhysAddr {
                cylinder: 1,
                track: 0,
                row: 0,
                slot: 0
            }
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn oversized_lbn_rejected() {
        let m = mapper();
        let _ = m.decompose(m.geometry().total_sectors());
    }

    #[test]
    fn cylinder_coordinates_span_the_sled() {
        let m = mapper();
        let x0 = m.x_of_cylinder(0);
        let x_last = m.x_of_cylinder(2499);
        assert!((x0 + 50e-6).abs() < 50e-9, "first cylinder near -50 µm");
        assert!((x_last - 50e-6).abs() < 50e-9, "last cylinder near +50 µm");
        // Center cylinder sits at the origin give or take half a bit.
        assert!(m.x_of_cylinder(1250).abs() < 40e-9);
    }

    #[test]
    fn cylinder_of_x_inverts_x_of_cylinder() {
        let m = mapper();
        for cyl in [0u32, 1, 100, 1250, 2498, 2499] {
            assert_eq!(m.cylinder_of_x(m.x_of_cylinder(cyl)), cyl);
        }
        // Clamping.
        assert_eq!(m.cylinder_of_x(-1.0), 0);
        assert_eq!(m.cylinder_of_x(1.0), 2499);
    }

    #[test]
    fn row_coordinates_are_3_6_um_apart() {
        let m = mapper();
        let pitch = m.y_of_row_start(1) - m.y_of_row_start(0);
        assert!((pitch - 3.6e-6).abs() < 1e-12);
        // 27 rows span 97.2 µm of the 100 µm mobility: row 26 ends where
        // a 28th row would start.
        let span = m.y_of_row_start(27) - m.y_of_row_start(0);
        assert!((span - 97.2e-6).abs() < 1e-12);
    }

    #[test]
    fn single_row_request_is_one_segment() {
        let m = mapper();
        let segs: Vec<Segment> = m.segment_iter(5, 8).collect();
        assert_eq!(segs.len(), 1);
        assert_eq!(segs[0].rows(), 1);
        assert_eq!(segs[0].cylinder, 0);
    }

    #[test]
    fn row_straddling_request_spans_two_rows() {
        let m = mapper();
        // Sectors 15..23 straddle rows 0 and 1.
        let segs: Vec<Segment> = m.segment_iter(15, 8).collect();
        assert_eq!(segs.len(), 1);
        assert_eq!((segs[0].row_start, segs[0].row_end), (0, 1));
        assert_eq!(segs[0].rows(), 2);
    }

    #[test]
    fn track_crossing_request_splits_segments() {
        let m = mapper();
        // Track 0 holds sectors 0..540; request 530..550 crosses into track 1.
        let segs: Vec<Segment> = m.segment_iter(530, 20).collect();
        assert_eq!(segs.len(), 2);
        assert_eq!(
            (segs[0].track, segs[0].row_start, segs[0].row_end),
            (0, 26, 26)
        );
        assert_eq!(
            (segs[1].track, segs[1].row_start, segs[1].row_end),
            (1, 0, 0)
        );
    }

    #[test]
    fn cylinder_crossing_request_changes_cylinder() {
        let m = mapper();
        // Sectors 2690..2710 cross from cylinder 0 track 4 to cylinder 1 track 0.
        let segs: Vec<Segment> = m.segment_iter(2690, 20).collect();
        assert_eq!(segs.len(), 2);
        assert_eq!(segs[0].cylinder, 0);
        assert_eq!(segs[0].track, 4);
        assert_eq!(segs[1].cylinder, 1);
        assert_eq!(segs[1].track, 0);
    }

    #[test]
    fn table2_track_length_request_covers_17_rows() {
        // Table 2 uses 334-sector transfers: ⌈334/20⌉ = 17 row passes.
        let m = mapper();
        let segs: Vec<Segment> = m.segment_iter(0, 334).collect();
        let rows: u32 = segs.iter().map(Segment::rows).sum();
        assert_eq!(rows, 17);
        assert_eq!(segs.len(), 1, "334 sectors fit in one 540-sector track");
    }

    #[test]
    fn large_request_rows_are_contiguous() {
        let m = mapper();
        let segs: Vec<Segment> = m.segment_iter(100, 5000).collect();
        // Segments tile the row range without gaps.
        let mut prev: Option<Segment> = None;
        for s in &segs {
            if let Some(p) = prev {
                let p_global =
                    (u64::from(p.cylinder) * 5 + u64::from(p.track)) * 27 + u64::from(p.row_end);
                let s_global =
                    (u64::from(s.cylinder) * 5 + u64::from(s.track)) * 27 + u64::from(s.row_start);
                assert_eq!(s_global, p_global + 1, "segments must be contiguous");
            }
            prev = Some(*s);
        }
    }

    /// [`Mapper::decompose`] by u64 `/` and `%`.
    fn decompose_by_division(g: &MemsGeometry, lbn: u64) -> PhysAddr {
        let (spr, rpt, tpc) = (
            u64::from(g.sectors_per_row),
            u64::from(g.rows_per_track),
            u64::from(g.tracks_per_cylinder),
        );
        let global_track = lbn / spr / rpt;
        PhysAddr {
            cylinder: (global_track / tpc) as u32,
            track: (global_track % tpc) as u32,
            row: (lbn / spr % rpt) as u32,
            slot: (lbn % spr) as u32,
        }
    }

    /// [`Mapper::segment_iter`] by u64 `/` and `%`: one segment per global
    /// track the range's rows touch.
    fn segments_by_division(g: &MemsGeometry, lbn: u64, sectors: u32) -> Vec<Segment> {
        let (spr, rpt, tpc) = (
            u64::from(g.sectors_per_row),
            u64::from(g.rows_per_track),
            u64::from(g.tracks_per_cylinder),
        );
        let last_row = (lbn + u64::from(sectors) - 1) / spr;
        let mut segments = Vec::new();
        let mut row = lbn / spr;
        while row <= last_row {
            let global_track = row / rpt;
            let seg_last = ((global_track + 1) * rpt - 1).min(last_row);
            segments.push(Segment {
                cylinder: (global_track / tpc) as u32,
                track: (global_track % tpc) as u32,
                row_start: (row % rpt) as u32,
                row_end: (seg_last % rpt) as u32,
            });
            row = seg_last + 1;
        }
        segments
    }

    #[test]
    fn multiply_shift_mapping_matches_division_on_every_lbn() {
        // Every LBN of the paper device, and every 7th of the
        // one-track-per-cylinder device, whose `tracks_per_cylinder`
        // divisor is 1.
        let all_active = MemsParams {
            active_tips: 6400,
            ..MemsParams::default()
        };
        for (m, stride) in [(mapper(), 1), (Mapper::new(&all_active), 7)] {
            let g = *m.geometry();
            let total = g.total_sectors();
            for lbn in (0..total).step_by(stride) {
                assert_eq!(
                    m.decompose(lbn),
                    decompose_by_division(&g, lbn),
                    "LBN {lbn}"
                );
                // Up to 1,200 sectors: ranges that cross track and
                // cylinder boundaries.
                let sectors = (lbn % 1200 + 1).min(total - lbn) as u32;
                assert_eq!(
                    m.segment_iter(lbn, sectors).collect::<Vec<_>>(),
                    segments_by_division(&g, lbn, sectors),
                    "LBN {lbn} + {sectors}"
                );
            }
        }
    }

    #[test]
    fn divisor_is_exact_at_the_edges() {
        for d in [1, 2, 3, 5, 20, 27, 1 << 31, u32::MAX - 1, u32::MAX] {
            let div = Divisor::new(d);
            for n in [0, 1, d - 1, d, d.saturating_add(1), u32::MAX - 1, u32::MAX] {
                assert_eq!(div.div_rem(n), (n / d, n % d), "{n} / {d}");
                assert_eq!(div.div(n), n / d, "{n} / {d}");
            }
        }
    }

    proptest! {
        /// Divisors spread over every magnitude: a random u32 shifted
        /// right by a random amount.
        #[test]
        fn divisor_matches_division(n in any::<u32>(), raw in any::<u32>(), shift in 0u32..32) {
            let d = (raw >> shift).max(1);
            prop_assert_eq!(Divisor::new(d).div_rem(n), (n / d, n % d));
        }
    }
}
