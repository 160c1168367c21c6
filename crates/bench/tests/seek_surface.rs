//! Regression: two fast paths — the shared seek surface and the
//! scheduler chosen at run time — change performance only. Full
//! simulations run through them must produce byte-identical
//! [`SimReport`]s (every statistic, every recorded completion) to the
//! reference paths.

#[path = "../../../tests/support/report.rs"]
mod report;

use atlas_disk::{DiskDevice, DiskParams};
use mems_device::{MemsDevice, MemsParams};
use mems_os::sched::{Algorithm, SptfScheduler};
use report::assert_reports_identical;
use storage_sim::{Driver, Scheduler, SimReport, StorageDevice};
use storage_trace::RandomWorkload;

/// One random-workload cell: arrival rate (req/s), requests, seed and
/// warm-up requests.
type Cell = (f64, u64, u64, u64);

/// Fig. 6's anchor cell as `telemetry_report` runs it.
const ANCHOR: Cell = (1000.0, 2_000, 0x5EED_0006, 0);

fn run<S: Scheduler, D: StorageDevice>(scheduler: S, device: D, cell: Cell) -> SimReport {
    let (rate, requests, seed, warmup) = cell;
    let capacity = device.capacity_lbns();
    Driver::new(
        RandomWorkload::paper(capacity, rate, requests, seed),
        scheduler,
        device,
    )
    .warmup_requests(warmup)
    .record_completions(true)
    .run()
}

#[test]
fn surface_backed_mems_sim_matches_direct_solver_byte_for_byte() {
    let mems = || MemsDevice::new(MemsParams::default());
    for cell in [(2000.0, 1200, 9, 100), ANCHOR] {
        let direct = run(SptfScheduler::new(), mems().with_seek_table(false), cell);
        let surfaced = run(SptfScheduler::new(), mems(), cell);
        assert_reports_identical(
            &direct,
            &surfaced,
            &format!("seek surface changed the results of {cell:?}"),
        );
    }
}

/// The scheduler `Algorithm::build` picks at run time reports exactly
/// what the concrete scheduler does.
#[test]
fn dyn_dispatch_matches_static_dispatch_on_mems() {
    let cell = (1500.0, 1200, 4, 100);
    let device = || MemsDevice::new(MemsParams::default());
    let fixed = run(SptfScheduler::new(), device(), cell);
    let built = run(Algorithm::Sptf.build(), device(), cell);
    assert_reports_identical(&fixed, &built, "Algorithm::build changed MEMS results");
}

#[test]
fn dyn_dispatch_matches_static_dispatch_on_disk() {
    let cell = (200.0, 1200, 11, 100);
    let device = || DiskDevice::new(DiskParams::quantum_atlas_10k());
    let fixed = run(SptfScheduler::new(), device(), cell);
    let built = run(Algorithm::Sptf.build(), device(), cell);
    assert_reports_identical(&fixed, &built, "Algorithm::build changed disk results");
}
