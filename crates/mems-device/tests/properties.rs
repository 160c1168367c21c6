//! Property-based tests for the MEMS device model's core invariants.

use std::sync::{Arc, OnceLock};

use mems_device::{Mapper, MemsDevice, MemsParams, PhysAddr, SeekSurface, SledState, SpringSled};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use storage_sim::{IoKind, PositionOracle, Request, SimTime, StorageDevice};

fn paper_sled() -> SpringSled {
    SpringSled::from_spring_factor(803.6, 0.75, 50e-6)
}

/// A geometrically valid but small device (200 cylinders, 2 rows per
/// track) so surface equivalence checks stay fast.
fn small_params() -> MemsParams {
    MemsParams {
        bit_width: 500e-9,
        per_tip_rate: 56e3, // keep the access velocity at 28 mm/s
        ..MemsParams::default()
    }
}

/// One shared surface for every proptest case (built once per process).
fn small_surface() -> Arc<SeekSurface> {
    static SURFACE: OnceLock<Arc<SeekSurface>> = OnceLock::new();
    Arc::clone(SURFACE.get_or_init(|| {
        Arc::new(SeekSurface::build(&small_params()).expect("small device fits the guard"))
    }))
}

proptest! {
    /// LBN → physical address → LBN is the identity everywhere.
    #[test]
    fn lbn_mapping_round_trips(lbn in 0u64..(2500 * 5 * 540)) {
        let m = Mapper::new(&MemsParams::default());
        prop_assert_eq!(m.compose(m.decompose(lbn)), lbn);
    }

    /// Rest-to-rest seek times are symmetric in direction and mirror-
    /// symmetric about the sled center.
    #[test]
    fn rest_seeks_are_symmetric(
        a in -49.0f64..49.0,
        b in -49.0f64..49.0,
    ) {
        let sled = paper_sled();
        let (p0, p1) = (a * 1e-6, b * 1e-6);
        let fwd = sled.rest_seek_time(p0, p1);
        let rev = sled.rest_seek_time(p1, p0);
        prop_assert!((fwd - rev).abs() < 1e-10, "fwd {} rev {}", fwd, rev);
        let mir = sled.rest_seek_time(-p0, -p1);
        prop_assert!((fwd - mir).abs() < 1e-10);
    }

    /// The optimal direct seek never loses to stopping at a waypoint
    /// (triangle inequality for rest-to-rest transfers).
    #[test]
    fn rest_seeks_satisfy_triangle_inequality(
        a in -49.0f64..49.0,
        b in -49.0f64..49.0,
        c in -49.0f64..49.0,
    ) {
        let sled = paper_sled();
        let (pa, pb, pc) = (a * 1e-6, b * 1e-6, c * 1e-6);
        let direct = sled.rest_seek_time(pa, pc);
        let via = sled.rest_seek_time(pa, pb) + sled.rest_seek_time(pb, pc);
        prop_assert!(direct <= via + 1e-10, "direct {} via {}", direct, via);
    }

    /// Turnarounds at access velocity stay within the paper's Table 2
    /// envelope (0.036–1.11 ms, average 0.063 ms) wherever they occur.
    #[test]
    fn turnaround_times_are_in_the_paper_envelope(
        p in -49.0f64..49.0,
        dir in prop::bool::ANY,
    ) {
        let sled = paper_sled();
        let v = if dir { 0.028 } else { -0.028 };
        let t = sled.turnaround_time(p * 1e-6, v);
        prop_assert!(t >= 0.030e-3, "turnaround {} too fast", t);
        prop_assert!(t <= 1.2e-3, "turnaround {} too slow", t);
    }

    /// Seeks from a moving state are never slower than stop-then-go.
    #[test]
    fn moving_seeks_beat_stop_and_go(
        p0 in -45.0f64..45.0,
        p1 in -45.0f64..45.0,
        v0_sign in prop::bool::ANY,
        v1_sign in prop::bool::ANY,
    ) {
        let sled = paper_sled();
        let v = 0.028;
        let (v0, v1) = (
            if v0_sign { v } else { -v },
            if v1_sign { v } else { -v },
        );
        let (a, b) = (p0 * 1e-6, p1 * 1e-6);
        let direct = sled.seek_time(a, v0, b, v1);
        let stop_go = sled.seek_time(a, v0, a, 0.0)
            + sled.rest_seek_time(a, b)
            + sled.seek_time(b, 0.0, b, v1);
        prop_assert!(direct <= stop_go + 1e-10, "direct {} stop-go {}", direct, stop_go);
    }

    /// Request segments tile the addressed rows exactly: the number of
    /// row passes equals the row span of the request.
    #[test]
    fn segments_cover_request_rows(
        lbn in 0u64..(2500 * 5 * 540 - 4096),
        sectors in 1u32..4096,
    ) {
        let m = Mapper::new(&MemsParams::default());
        let segs: Vec<_> = m.segment_iter(lbn, sectors).collect();
        let total_rows: u32 = segs.iter().map(|s| s.rows()).sum();
        let first_row = lbn / 20;
        let last_row = (lbn + u64::from(sectors) - 1) / 20;
        prop_assert_eq!(u64::from(total_rows), last_row - first_row + 1);
        // Segments never span a track boundary.
        for s in &segs {
            prop_assert!(s.row_end < 27);
            prop_assert!(s.track < 5);
            prop_assert!(s.cylinder < 2500);
        }
    }

    /// Servicing any in-range request produces a positive, finite total
    /// with a transfer at least one row long, and leaves the sled inside
    /// its travel range at access velocity.
    #[test]
    fn service_times_are_sane(
        lbn in 0u64..(2500 * 5 * 540 - 512),
        sectors in 1u32..512,
        start_cyl in 0u32..2500,
    ) {
        let d = MemsDevice::new(MemsParams::default());
        let m = d.mapper();
        let from = SledState {
            x: m.x_of_cylinder(start_cyl),
            y: 0.0,
            vy: 0.0,
        };
        let r = Request::new(0, SimTime::ZERO, lbn, sectors, IoKind::Read);
        let (b, end) = d.service_from(from, &r);
        prop_assert!(b.total().is_finite() && b.total() > 0.0);
        prop_assert!(b.transfer >= 1.2857e-4 - 1e-9, "at least one row pass");
        prop_assert!(b.positioning >= 0.0);
        prop_assert!(b.positioning >= b.seek_x + b.settle - 1e-12);
        prop_assert!(b.positioning >= b.seek_y - 1e-12);
        prop_assert!(end.x.abs() <= 50e-6 + 1e-9);
        prop_assert!(end.y.abs() <= 50e-6 + 1e-9);
        prop_assert!((end.vy.abs() - 0.028).abs() < 1e-12);
    }

    /// Transfer time grows monotonically with request size from a fixed
    /// starting state.
    #[test]
    fn transfer_grows_with_request_size(
        lbn in 0u64..(2500 * 5 * 540 - 2048),
        sectors in 1u32..1024,
    ) {
        let d = MemsDevice::new(MemsParams::default());
        let small = Request::new(0, SimTime::ZERO, lbn, sectors, IoKind::Read);
        let large = Request::new(0, SimTime::ZERO, lbn, sectors + 512, IoKind::Read);
        let (bs, _) = d.service_from(SledState::CENTERED, &small);
        let (bl, _) = d.service_from(SledState::CENTERED, &large);
        prop_assert!(bl.transfer >= bs.transfer - 1e-12);
    }

    /// A device on the materialized seek surface positions from arbitrary
    /// on-grid states exactly as the closed-form solver does: its X seek
    /// is the rest seek between the two cylinder centers, and its Y seek
    /// the cheaper of the solver's two approaches to the target row
    /// (forward into it at +v, backward past it at −v) — the property
    /// that lets the surface replace per-query solving without perturbing
    /// a single simulation float.
    #[test]
    fn surface_matches_direct_solver_on_grid(
        from_cyl in 0u32..200,
        to_cyl in 0u32..200,
        from_b in 0u32..3,
        from_dir_sel in 0u8..3,
        to_row in 0u32..2,
    ) {
        let params = small_params();
        let device = MemsDevice::new(params.clone()).with_seek_surface(small_surface());
        let mapper = Mapper::new(&params);
        let sled = SpringSled::from_spring_factor(
            params.accel,
            params.spring_factor,
            params.half_mobility(),
        );
        let v = params.access_velocity();
        let from_vy = f64::from(i32::from(from_dir_sel) - 1) * v;
        let from = SledState {
            x: mapper.x_of_cylinder(from_cyl),
            y: mapper.y_of_row_start(from_b),
            vy: from_vy,
        };
        let addr = PhysAddr { cylinder: to_cyl, track: 0, row: to_row, slot: 0 };
        let req = Request::new(0, SimTime::ZERO, mapper.compose(addr), 1, IoKind::Read);
        let (b, _) = device.service_from(from, &req);

        let x_direct = if from_cyl == to_cyl {
            0.0
        } else {
            sled.rest_seek_time(mapper.x_of_cylinder(from_cyl), mapper.x_of_cylinder(to_cyl))
        };
        prop_assert_eq!(b.seek_x.to_bits(), x_direct.to_bits());

        let y_from = mapper.y_of_row_start(from_b);
        let forward = sled.seek_time(y_from, from_vy, mapper.y_of_row_start(to_row), v);
        let backward = sled.seek_time(y_from, from_vy, mapper.y_of_row_start(to_row + 1), -v);
        let y_direct = if forward <= backward { forward } else { backward };
        prop_assert_eq!(b.seek_y.to_bits(), y_direct.to_bits());
    }

    /// Devices on an attached eager surface, on the lazily filled shared
    /// one, and on the direct solver track each other bit for bit over
    /// arbitrary request streams of 1 to 600 sectors (spanning tracks and
    /// cylinders), on the 200-cylinder device and on the paper's: the
    /// SPTF hooks before each request, positioning estimates, full service
    /// breakdowns, and the mechanical state all stay identical, including
    /// from the off-grid centered state all start from, which must bypass
    /// both surfaces.
    #[test]
    fn surfaced_device_tracks_direct_solver_device(
        raws in prop::collection::vec((any::<u64>(), 1u32..601), 1..40),
    ) {
        track_direct_solver(&small_params(), small_surface(), &raws)?;
        track_direct_solver(&MemsParams::default(), paper_surface(), &raws)?;
    }
}

/// The paper-device surface, built once per process.
fn paper_surface() -> Arc<SeekSurface> {
    static SURFACE: OnceLock<Arc<SeekSurface>> = OnceLock::new();
    Arc::clone(SURFACE.get_or_init(|| {
        Arc::new(SeekSurface::build(&MemsParams::default()).expect("paper device fits the guard"))
    }))
}

/// Replays `raws` (LBN seed, sectors) on a direct-solver device, one on
/// the attached `eager` surface and one on the process-wide surface,
/// comparing them before and after every request.
fn track_direct_solver(
    params: &MemsParams,
    eager: Arc<SeekSurface>,
    raws: &[(u64, u32)],
) -> Result<(), TestCaseError> {
    let mut devices = [
        MemsDevice::new(params.clone()).with_seek_table(false),
        MemsDevice::new(params.clone()).with_seek_surface(eager),
        MemsDevice::new(params.clone()),
    ];
    let capacity = devices[0].capacity_lbns();
    for (i, &(raw, sectors)) in raws.iter().enumerate() {
        let lbn = raw % (capacity - u64::from(sectors));
        let req = Request::new(i as u64, SimTime::ZERO, lbn, sectors, IoKind::Read);
        let hooks: Vec<[u64; 5]> = devices
            .iter()
            .map(|d| {
                let (bucket, current) = (d.position_bucket(&req), d.current_bucket());
                [
                    bucket,
                    current,
                    d.bucket_position_time_floor(bucket).to_bits(),
                    d.min_position_time_at_bucket_distance(current.abs_diff(bucket))
                        .to_bits(),
                    d.position_time(&req, SimTime::ZERO).to_bits(),
                ]
            })
            .collect();
        prop_assert!(
            hooks.iter().all(|h| *h == hooks[0]),
            "bucket, current bucket, bucket floor, distance floor and estimate {:?} for {:?}",
            hooks,
            req
        );
        let b: Vec<String> = devices
            .iter_mut()
            .map(|d| format!("{:?}", d.service(&req, SimTime::ZERO)))
            .collect();
        prop_assert!(b.iter().all(|x| *x == b[0]), "breakdowns {:?}", b);
        let states: Vec<String> = devices.iter().map(|d| format!("{:?}", d.state())).collect();
        prop_assert!(
            states.iter().all(|x| *x == states[0]),
            "states {:?}",
            states
        );
    }
    Ok(())
}
