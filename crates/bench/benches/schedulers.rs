//! Scheduler decision cost versus queue depth.
//!
//! SPTF pays O(queue) positioning-time queries per dispatch; the
//! LBN-based algorithms dispatch from ordered maps. This bench quantifies
//! the §4 trade-off the paper alludes to: SPTF's gains come "with the
//! overhead of calculating the exact positioning times for each
//! outstanding request".

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mems_device::{MemsDevice, MemsParams};
use mems_os::sched::{Algorithm, ClookScheduler, NaiveSptfScheduler, SptfScheduler, SstfScheduler};
use std::hint::black_box;
use storage_sim::{IoKind, Request, Scheduler, SimTime};

fn requests(n: usize) -> Vec<Request> {
    (0..n as u64)
        .map(|i| {
            let lbn = (i * 2_654_435_761) % 6_000_000;
            Request::new(i, SimTime::ZERO, lbn, 8, IoKind::Read)
        })
        .collect()
}

fn bench_pick(c: &mut Criterion) {
    let dev = MemsDevice::new(MemsParams::default());
    let mut group = c.benchmark_group("enqueue_all_then_drain");
    for depth in [16usize, 128, 1024] {
        let reqs = requests(depth);
        group.bench_with_input(BenchmarkId::new("SPTF", depth), &reqs, |b, reqs| {
            b.iter(|| {
                let mut s = SptfScheduler::new();
                for r in reqs {
                    s.enqueue(*r);
                }
                while let Some(r) = s.pick(&dev, SimTime::ZERO) {
                    black_box(r);
                }
            })
        });
        // The pre-optimization reference: full O(queue) scan per pick.
        group.bench_with_input(BenchmarkId::new("SPTF-naive", depth), &reqs, |b, reqs| {
            b.iter(|| {
                let mut s = NaiveSptfScheduler::new();
                for r in reqs {
                    s.enqueue(*r);
                }
                while let Some(r) = s.pick(&dev, SimTime::ZERO) {
                    black_box(r);
                }
            })
        });
        group.bench_with_input(BenchmarkId::new("SSTF_LBN", depth), &reqs, |b, reqs| {
            b.iter(|| {
                let mut s = SstfScheduler::new();
                for r in reqs {
                    s.enqueue(*r);
                }
                while let Some(r) = s.pick(&dev, SimTime::ZERO) {
                    black_box(r);
                }
            })
        });
        group.bench_with_input(BenchmarkId::new("C-LOOK", depth), &reqs, |b, reqs| {
            b.iter(|| {
                let mut s = ClookScheduler::new();
                for r in reqs {
                    s.enqueue(*r);
                }
                while let Some(r) = s.pick(&dev, SimTime::ZERO) {
                    black_box(r);
                }
            })
        });
    }
    group.finish();

    // The devirtualization ladder: one SPTF drain, three dispatch tiers.
    // "naive" re-scans the whole queue per pick, "pruned" is the
    // incremental pruned walk with the per-bucket winner cache (the
    // drain never services the device, so the rest state is fixed and the
    // cache fires — the scenario the incremental maintenance targets), and
    // "dyn" is the same incremental scan behind the type-erased
    // `DynScheduler` box (one virtual hop per pick plus a
    // `&dyn PositionOracle` oracle).
    let mut group = c.benchmark_group("sptf_dispatch");
    for depth in [64usize, 256, 1024] {
        let reqs = requests(depth);
        group.bench_with_input(BenchmarkId::new("naive", depth), &reqs, |b, reqs| {
            b.iter(|| {
                let mut s = NaiveSptfScheduler::new();
                for r in reqs {
                    s.enqueue(*r);
                }
                while let Some(r) = s.pick(&dev, SimTime::ZERO) {
                    black_box(r);
                }
            })
        });
        group.bench_with_input(BenchmarkId::new("pruned", depth), &reqs, |b, reqs| {
            b.iter(|| {
                let mut s = SptfScheduler::new();
                for r in reqs {
                    s.enqueue(*r);
                }
                while let Some(r) = s.pick(&dev, SimTime::ZERO) {
                    black_box(r);
                }
            })
        });
        group.bench_with_input(BenchmarkId::new("dyn", depth), &reqs, |b, reqs| {
            b.iter(|| {
                let mut s: Box<dyn storage_sim::DynScheduler> = Box::new(SptfScheduler::new());
                for r in reqs {
                    s.enqueue(*r);
                }
                while let Some(r) = s.pick(&dev, SimTime::ZERO) {
                    black_box(r);
                }
            })
        });
    }
    group.finish();

    // Single-dispatch cost at a fixed depth, per algorithm.
    let mut group = c.benchmark_group("single_pick_depth_256");
    for alg in Algorithm::ALL {
        group.bench_function(alg.label(), |b| {
            b.iter_batched(
                || {
                    let mut s = alg.build();
                    for r in requests(256) {
                        s.enqueue(r);
                    }
                    s
                },
                |mut s| black_box(s.pick(&dev, SimTime::ZERO)),
                criterion::BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

criterion_group!(benches, bench_pick);
criterion_main!(benches);
