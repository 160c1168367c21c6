//! Micro-benchmarks of the closed-form kinematics — the hot path of SPTF
//! scheduling, which calls the bang-bang solver for every pending request
//! on every dispatch decision.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use mems_device::{MemsDevice, MemsParams, SeekSurface, SledState, SpringSled};
use std::hint::black_box;
use std::sync::Arc;
use storage_sim::{IoKind, PositionOracle, Request, SimTime, StorageDevice, Workload};
use storage_trace::RandomWorkload;

fn bench_kinematics(c: &mut Criterion) {
    let sled = SpringSled::from_spring_factor(803.6, 0.75, 50e-6);
    c.bench_function("rest_seek_time", |b| {
        let mut x = 0u64;
        b.iter(|| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let p0 = ((x >> 16) % 1000) as f64 * 1e-7 - 50e-6;
            let p1 = ((x >> 40) % 1000) as f64 * 1e-7 - 50e-6;
            black_box(sled.rest_seek_time(black_box(p0), black_box(p1)))
        })
    });
    c.bench_function("turnaround_time", |b| {
        let mut x = 1u64;
        b.iter(|| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let p = ((x >> 16) % 1000) as f64 * 1e-7 - 50e-6;
            black_box(sled.turnaround_time(black_box(p), 0.028))
        })
    });
    c.bench_function("moving_state_seek", |b| {
        let mut x = 2u64;
        b.iter(|| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let p0 = ((x >> 16) % 1000) as f64 * 1e-7 - 50e-6;
            let p1 = ((x >> 40) % 1000) as f64 * 1e-7 - 50e-6;
            black_box(sled.seek_time(p0, 0.028, p1, -0.028))
        })
    });
    // The surface build is the solver core run over every on-grid pair; the
    // 200-cylinder device keeps one build to a few milliseconds.
    let small = MemsParams {
        bit_width: 500e-9,
        per_tip_rate: 56e3, // keep the access velocity at 28 mm/s
        ..MemsParams::default()
    };
    c.bench_function("surface_build_small", |b| {
        b.iter(|| black_box(SeekSurface::build(black_box(&small))))
    });
}

fn bench_device_service(c: &mut Criterion) {
    let dev = MemsDevice::new(MemsParams::default());
    c.bench_function("position_time_4kb", |b| {
        let mut x = 3u64;
        b.iter(|| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let lbn = x % (dev.capacity_lbns() - 8);
            let req = Request::new(0, SimTime::ZERO, lbn, 8, IoKind::Read);
            black_box(dev.positioning_only(SledState::CENTERED, &req))
        })
    });
    c.bench_function("service_4kb", |b| {
        let mut x = 4u64;
        b.iter_batched(
            || {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                Request::new(
                    0,
                    SimTime::ZERO,
                    x % (dev.capacity_lbns() - 8),
                    8,
                    IoKind::Read,
                )
            },
            |req| black_box(dev.service_from(SledState::CENTERED, &req)),
            BatchSize::SmallInput,
        )
    });
    c.bench_function("service_256kb", |b| {
        let req = Request::new(0, SimTime::ZERO, 1_000_000, 512, IoKind::Read);
        b.iter(|| black_box(dev.service_from(SledState::CENTERED, &req)))
    });
}

/// `service` chained on one parked device, the path every simulated
/// request takes: after the first request the sled rests on the grid, so
/// each call reads the seek surface from the indices the previous one left.
/// `service_4kb` and `service_256kb` above start every call off the grid,
/// from the centered sled, and so time only the direct solver.
fn bench_service_chain(c: &mut Criterion) {
    let params = MemsParams::default();
    let surface = Arc::new(SeekSurface::build(&params).expect("paper device fits the guard"));
    let mut dev = MemsDevice::new(params).with_seek_surface(surface);
    // `fifo_stream`'s request stream: the §3 random generator (uniform
    // LBNs, exponential sizes with a 4 KB mean), pre-generated so the
    // generator stays out of the timing.
    let mut workload = RandomWorkload::paper(dev.capacity_lbns(), 500.0, 1 << 16, 1);
    let stream: Vec<Request> = std::iter::from_fn(|| workload.next_request()).collect();
    let _ = dev.service(&stream[0], SimTime::ZERO);
    let mut group = c.benchmark_group("service_on_grid_chain");
    group.throughput(Throughput::Elements(1));
    group.bench_function("random_4kb_mean", |b| {
        let mut reqs = stream.iter().cycle();
        b.iter(|| black_box(dev.service(reqs.next().unwrap(), SimTime::ZERO)))
    });
    group.finish();
}

fn bench_seek_table(c: &mut Criterion) {
    // Park each device on-grid (sled exactly on a cylinder center / row
    // boundary, the post-service steady state) so the cached device reads
    // its surface; the direct device always re-solves.
    let park = |table: bool| {
        let mut d = MemsDevice::new(MemsParams::default()).with_seek_table(table);
        let r = Request::new(0, SimTime::ZERO, 1_000_000, 8, IoKind::Read);
        let _ = d.service(&r, SimTime::ZERO);
        d
    };
    let direct = park(false);
    let surface = park(true);
    for (name, dev) in [
        ("position_time_direct_solve", &direct),
        ("position_time_seek_surface", &surface),
    ] {
        c.bench_function(name, |b| {
            let mut x = 5u64;
            b.iter(|| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                let lbn = x % (dev.capacity_lbns() - 8);
                let req = Request::new(0, SimTime::ZERO, lbn, 8, IoKind::Read);
                black_box(dev.position_time(&req, SimTime::ZERO))
            })
        });
    }
}

criterion_group!(
    benches,
    bench_kinematics,
    bench_device_service,
    bench_service_chain,
    bench_seek_table
);
criterion_main!(benches);
