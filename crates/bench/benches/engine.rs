//! Simulation-engine primitives: LBN mapping and end-to-end simulated
//! requests per second.

use atlas_disk::{DiskMapper, DiskParams};
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use mems_device::{Mapper, MemsDevice, MemsParams};
use mems_os::sched::Algorithm;
use std::hint::black_box;
use storage_sim::Driver;
use storage_trace::RandomWorkload;

fn bench_mapping(c: &mut Criterion) {
    let mems = Mapper::new(&MemsParams::default());
    c.bench_function("mems_lbn_decompose", |b| {
        let mut x = 1u64;
        b.iter(|| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            black_box(mems.decompose(x % 6_750_000))
        })
    });
    c.bench_function("mems_segments_256kb", |b| {
        b.iter(|| black_box(mems.segments(black_box(1_000_000), 512)))
    });
    let disk = DiskMapper::new(DiskParams::quantum_atlas_10k());
    c.bench_function("disk_lbn_decompose", |b| {
        let mut x = 1u64;
        b.iter(|| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            black_box(disk.decompose(x % 16_000_000))
        })
    });
}

fn bench_end_to_end(c: &mut Criterion) {
    let mut group = c.benchmark_group("end_to_end_simulation");
    group.sample_size(10);
    group.throughput(Throughput::Elements(2_000));
    for alg in [Algorithm::Fcfs, Algorithm::Sptf] {
        group.bench_function(format!("mems_random_2k_requests_{}", alg.label()), |b| {
            b.iter(|| {
                let workload = RandomWorkload::paper(6_750_000, 1000.0, 2_000, 7);
                let mut driver = Driver::new(
                    workload,
                    alg.build(),
                    MemsDevice::new(MemsParams::default()),
                );
                black_box(driver.run().completed)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_mapping, bench_end_to_end);
criterion_main!(benches);
