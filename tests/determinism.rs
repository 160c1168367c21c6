//! Reproducibility: every simulation in the workspace is a pure function
//! of (seed, parameters). The figures in EXPERIMENTS.md are only
//! meaningful if reruns produce identical numbers.

use atlas_disk::{DiskDevice, DiskParams};
use mems_bench::run_one;
use mems_device::{MemsDevice, MemsParams};
use mems_os::layout::{BipartiteWorkload, SimpleLayout};
use mems_os::sched::Algorithm;
use storage_sim::{Driver, FifoScheduler};
use storage_trace::{CelloParams, CelloTrace, RandomWorkload, TpccParams, TpccTrace};

#[test]
fn sched_sweep_points_are_reproducible() {
    let run = || {
        let report = run_one(
            RandomWorkload::paper(6_750_000, 1200.0, 1500, 77),
            Algorithm::Sptf,
            MemsDevice::new(MemsParams::default()),
            100,
        );
        (
            report.response.mean(),
            report.response.sq_coeff_var(),
            report.makespan,
        )
    };
    assert_eq!(run(), run());
}

#[test]
fn different_seeds_differ() {
    let mean = |seed| {
        run_one(
            RandomWorkload::paper(6_750_000, 800.0, 800, seed),
            Algorithm::Clook,
            MemsDevice::new(MemsParams::default()),
            0,
        )
        .response
        .mean()
    };
    assert_ne!(mean(1), mean(2));
}

#[test]
fn disk_simulations_are_reproducible() {
    let capacity = DiskParams::quantum_atlas_10k().total_sectors();
    let run = || {
        run_one(
            RandomWorkload::paper(capacity, 100.0, 600, 31),
            Algorithm::SstfLbn,
            DiskDevice::new(DiskParams::quantum_atlas_10k()),
            0,
        )
        .response
        .mean()
    };
    assert_eq!(run(), run());
}

#[test]
fn trace_generators_are_pure_functions_of_seed() {
    let cello = |seed| CelloTrace::new(&CelloParams::default(), seed);
    let tpcc = |seed| TpccTrace::new(&TpccParams::default(), seed);
    assert!(cello(42).eq(cello(42)));
    assert!(tpcc(42).eq(tpcc(42)));
    assert!(cello(1).ne(cello(2)));
}

#[test]
fn layout_experiments_are_reproducible() {
    let layout = SimpleLayout::new(6_750_000);
    let run = || {
        let w = BipartiteWorkload::paper(&layout, 500, 9);
        Driver::new(
            w,
            FifoScheduler::new(),
            MemsDevice::new(MemsParams::default()),
        )
        .run()
        .mean_service_ms()
    };
    assert_eq!(run(), run());
}
