//! End-to-end equivalence of the pruned SPTF scan and the naive full
//! scan: full simulation runs on `RandomWorkload::paper` must produce
//! identical `SimReport`s — same per-request service order, same
//! response-time statistics, same makespan — for every seed. This is the
//! system-level guarantee behind the perf work: the fast path changes how
//! quickly the pick is found, never which request is picked.

#[path = "../crates/core/src/sched/naive_sptf.rs"]
mod naive_sptf;
#[path = "support/report.rs"]
mod report;

use mems_bench::run_one;
use mems_device::{MemsDevice, MemsParams};
use mems_os::sched::{Algorithm, SptfScheduler};
use naive_sptf::NaiveSptfScheduler;
use report::assert_reports_identical;
use storage_sim::{Driver, Scheduler, SimReport, StorageDevice, Workload};
use storage_trace::RandomWorkload;

const CAPACITY: u64 = 6_750_000;

fn run<W: Workload, S: Scheduler>(workload: W, scheduler: S, seek_table: bool) -> SimReport {
    Driver::new(
        workload,
        scheduler,
        MemsDevice::new(MemsParams::default()).with_seek_table(seek_table),
    )
    .warmup_requests(200)
    .record_completions(true)
    .run()
}

/// Rates chosen around the Fig. 6 saturation knee where queues (and thus
/// pick decisions) are deepest.
const RATES: [f64; 2] = [1000.0, 2200.0];
const SEEDS: [u64; 3] = [0x5EED_0006, 17, 99];

#[test]
fn pruned_sptf_reports_match_naive_scan() {
    for seed in SEEDS {
        for rate in RATES {
            let wl = || RandomWorkload::paper(CAPACITY, rate, 1500, seed);
            let pruned = run(wl(), SptfScheduler::new(), true);
            let naive = run(wl(), NaiveSptfScheduler::new(), false);
            assert_reports_identical(&pruned, &naive, &format!("SPTF seed {seed} rate {rate}"));
        }
    }
}

/// Fig. 6's top rate, 2500 req/s, at 1,500 requests for seeds 1–6, where
/// queues run 129–166 deep on average. Pruned SPTF on the shared seek
/// surface must report exactly what the naive scan over direct solves
/// does. The recorded completions cover every request, warm-up included,
/// so the statistics under any warm-up agree too.
#[test]
fn fig6_top_rate_sptf_reports_match_naive_direct_solves() {
    for seed in 1..=6 {
        let wl = || RandomWorkload::paper(CAPACITY, 2500.0, 1500, seed);
        let pruned = run(wl(), SptfScheduler::new(), true);
        let naive = run(wl(), NaiveSptfScheduler::new(), false);
        assert_reports_identical(&pruned, &naive, &format!("Fig. 6 top rate seed {seed}"));
    }
}

#[test]
fn shallow_queue_sptf_reports_match_rescan() {
    // At 300 req/s a MEMS station runs mostly empty or one deep, so nearly
    // every pick takes the empty- or single-entry short-circuit; the naive
    // full-scan reference rescans every pick.
    for seed in SEEDS {
        let wl = || RandomWorkload::paper(CAPACITY, 300.0, 1500, seed);
        let fast = run(wl(), SptfScheduler::new(), true);
        let rescan = run(wl(), NaiveSptfScheduler::new(), true);
        assert!(fast.mean_queue_depth < 1.0, "cell is not shallow");
        assert_reports_identical(&fast, &rescan, &format!("shallow SPTF seed {seed}"));
    }
}

#[test]
fn pruned_sptf_reports_match_naive_scan_on_disk() {
    // The disk implements the bucket interface with cylinder buckets and
    // seek-curve floors; the pruned scan must stay pick-equivalent there
    // too (Fig. 5 runs SPTF against the Atlas 10K).
    use atlas_disk::{DiskDevice, DiskParams};
    let disk = || DiskDevice::new(DiskParams::quantum_atlas_10k());
    let disk_capacity = disk().capacity_lbns();
    for seed in [3u64, 0xD15C] {
        let wl = || RandomWorkload::paper(disk_capacity, 220.0, 1000, seed);
        let pruned = Driver::new(wl(), SptfScheduler::new(), disk())
            .warmup_requests(200)
            .record_completions(true)
            .run();
        let naive = Driver::new(wl(), NaiveSptfScheduler::new(), disk())
            .warmup_requests(200)
            .record_completions(true)
            .run();
        assert_reports_identical(&pruned, &naive, &format!("disk SPTF seed {seed}"));
    }
}

#[test]
fn algorithm_factory_sptf_matches_run_one_static_dispatch() {
    // `run_one` drives the scheduler `Algorithm::Sptf.build()` returns; it
    // must report what a driver over the concrete `SptfScheduler` does.
    let wl = || RandomWorkload::paper(CAPACITY, 1500.0, 800, 0xA11CE);
    let built = run_one(
        wl(),
        Algorithm::Sptf,
        MemsDevice::new(MemsParams::default()),
        200,
    );
    let fixed = Driver::new(
        wl(),
        SptfScheduler::new(),
        MemsDevice::new(MemsParams::default()),
    )
    .warmup_requests(200)
    .run();
    assert_eq!(built.makespan, fixed.makespan);
    assert_eq!(built.response.mean_ms(), fixed.response.mean_ms());
}
