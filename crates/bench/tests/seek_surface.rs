//! Regression: two fast paths — the shared seek surface and the
//! devirtualized scheduler dispatch — change performance only. Full
//! simulations run through them must produce byte-identical
//! [`SimReport`]s (every statistic, every recorded completion) to the
//! reference paths.
//!
//! Reports are compared through their `Debug` rendering: Rust prints
//! `f64` as the shortest string that round-trips, so two reports render
//! identically iff every float in them is bitwise equal.

use atlas_disk::{DiskDevice, DiskParams};
use mems_device::{MemsDevice, MemsParams};
use mems_os::sched::SptfScheduler;
use storage_sim::{Driver, DynScheduler, SimReport, StorageDevice};
use storage_trace::RandomWorkload;

const REQUESTS: u64 = 1200;
const WARMUP: u64 = 100;

fn run_static<D: StorageDevice>(device: D, rate: f64, seed: u64) -> SimReport {
    let capacity = device.capacity_lbns();
    Driver::new(
        RandomWorkload::paper(capacity, rate, REQUESTS, seed),
        SptfScheduler::new(),
        device,
    )
    .warmup_requests(WARMUP)
    .record_completions(true)
    .run()
}

fn run_dyn<D: StorageDevice>(device: D, rate: f64, seed: u64) -> SimReport {
    let capacity = device.capacity_lbns();
    let scheduler: Box<dyn DynScheduler> = Box::new(SptfScheduler::new());
    Driver::new(
        RandomWorkload::paper(capacity, rate, REQUESTS, seed),
        scheduler,
        device,
    )
    .warmup_requests(WARMUP)
    .record_completions(true)
    .run()
}

fn assert_reports_identical(a: &SimReport, b: &SimReport, what: &str) {
    assert!(
        a.completions.as_ref().is_some_and(|c| !c.is_empty()),
        "regression run must record completions"
    );
    assert_eq!(format!("{a:?}"), format!("{b:?}"), "{what}");
}

#[test]
fn surface_backed_mems_sim_matches_direct_solver_byte_for_byte() {
    let direct = run_static(
        MemsDevice::new(MemsParams::default()).with_seek_table(false),
        2000.0,
        9,
    );
    let surfaced = run_static(MemsDevice::new(MemsParams::default()), 2000.0, 9);
    assert_reports_identical(
        &direct,
        &surfaced,
        "seek surface changed simulation results",
    );
}

#[test]
fn dyn_dispatch_matches_static_dispatch_on_mems() {
    let device = || MemsDevice::new(MemsParams::default());
    let fixed = run_static(device(), 1500.0, 4);
    let boxed = run_dyn(device(), 1500.0, 4);
    assert_reports_identical(&fixed, &boxed, "DynScheduler shim changed MEMS results");
}

#[test]
fn dyn_dispatch_matches_static_dispatch_on_disk() {
    let device = || DiskDevice::new(DiskParams::quantum_atlas_10k());
    let fixed = run_static(device(), 200.0, 11);
    let boxed = run_dyn(device(), 200.0, 11);
    assert_reports_identical(&fixed, &boxed, "DynScheduler shim changed disk results");
}
