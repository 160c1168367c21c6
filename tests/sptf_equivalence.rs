//! End-to-end equivalence of the pruned SPTF scan and the naive full
//! scan: full simulation runs on `RandomWorkload::paper` must produce
//! identical `SimReport`s — same per-request service order, same
//! response-time statistics, same makespan — for every seed. This is the
//! system-level guarantee behind the perf work: the fast path changes how
//! quickly the pick is found, never which request is picked.

use mems_bench::run_one;
use mems_device::{MemsDevice, MemsParams};
use mems_os::sched::{
    AgedSptfScheduler, Algorithm, NaiveAgedSptfScheduler, NaiveSptfScheduler,
    RescanAgedSptfScheduler, RescanSptfScheduler, SptfScheduler,
};
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

fn assert_reports_identical(a: &SimReport, b: &SimReport, what: &str) {
    assert_eq!(a.completed, b.completed, "{what}: completed");
    assert_eq!(a.makespan, b.makespan, "{what}: makespan");
    assert_eq!(a.response.mean_ms(), b.response.mean_ms(), "{what}: mean");
    assert_eq!(
        a.response.sq_coeff_var(),
        b.response.sq_coeff_var(),
        "{what}: cv2"
    );
    assert_eq!(a.busy_secs, b.busy_secs, "{what}: busy");
    assert_eq!(a.max_queue_depth, b.max_queue_depth, "{what}: max queue");
    let (ca, cb) = (
        a.completions.as_ref().expect("recorded"),
        b.completions.as_ref().expect("recorded"),
    );
    assert_eq!(ca.len(), cb.len(), "{what}: completion count");
    for (x, y) in ca.iter().zip(cb) {
        assert_eq!(x.request.id, y.request.id, "{what}: service order");
        assert_eq!(x.completion, y.completion, "{what}: completion time");
    }
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

#[test]
fn pruned_aged_sptf_reports_match_naive_scan() {
    for seed in SEEDS {
        let wl = || RandomWorkload::paper(CAPACITY, 1800.0, 1200, seed);
        let pruned = run(wl(), AgedSptfScheduler::new(2.0), true);
        let naive = run(wl(), NaiveAgedSptfScheduler::new(2.0), false);
        assert_reports_identical(&pruned, &naive, &format!("aged SPTF seed {seed}"));
    }
}

#[test]
fn shallow_queue_sptf_reports_match_rescan() {
    // At 300 req/s a MEMS station runs mostly empty or one deep, so nearly
    // every pick takes the empty- or single-entry short-circuit; the
    // rescan reference scores every pick.
    for seed in SEEDS {
        let wl = || RandomWorkload::paper(CAPACITY, 300.0, 1500, seed);
        let fast = run(wl(), SptfScheduler::new(), true);
        let rescan = run(wl(), RescanSptfScheduler::new(), true);
        assert!(fast.mean_queue_depth < 1.0, "cell is not shallow");
        assert_reports_identical(&fast, &rescan, &format!("shallow SPTF seed {seed}"));
        assert_eq!(fast.mean_queue_depth, rescan.mean_queue_depth);
        let fast = run(wl(), AgedSptfScheduler::new(2.0), true);
        let rescan = run(wl(), RescanAgedSptfScheduler::new(2.0), true);
        assert_reports_identical(&fast, &rescan, &format!("shallow aged SPTF seed {seed}"));
    }
}

#[test]
fn incremental_sptf_reports_match_rescan() {
    // The incremental per-bucket cache vs the B-tree rescan-every-pick
    // reference: same pruned-scan semantics, different candidate
    // maintenance — reports must stay bit-identical.
    for seed in SEEDS {
        for rate in RATES {
            let wl = || RandomWorkload::paper(CAPACITY, rate, 1500, seed);
            let incremental = run(wl(), SptfScheduler::new(), true);
            let rescan = run(wl(), RescanSptfScheduler::new(), true);
            assert_reports_identical(
                &incremental,
                &rescan,
                &format!("SPTF incremental seed {seed} rate {rate}"),
            );
        }
    }
}

#[test]
fn incremental_aged_sptf_reports_match_rescan() {
    for seed in SEEDS {
        let wl = || RandomWorkload::paper(CAPACITY, 1800.0, 1200, seed);
        let incremental = run(wl(), AgedSptfScheduler::new(2.0), true);
        let rescan = run(wl(), RescanAgedSptfScheduler::new(2.0), true);
        assert_reports_identical(
            &incremental,
            &rescan,
            &format!("aged SPTF incremental seed {seed}"),
        );
    }
}

#[test]
fn incremental_sptf_reports_match_rescan_on_disk() {
    // The disk oracle's rest key includes the query time (rotational
    // phase), so the cache turns over every pick — correctness must not
    // depend on hits.
    use atlas_disk::{DiskDevice, DiskParams};
    let disk = || DiskDevice::new(DiskParams::quantum_atlas_10k());
    let disk_capacity = disk().capacity_lbns();
    for seed in [3u64, 0xD15C] {
        let wl = || RandomWorkload::paper(disk_capacity, 220.0, 1000, seed);
        let incremental = Driver::new(wl(), SptfScheduler::new(), disk())
            .warmup_requests(200)
            .record_completions(true)
            .run();
        let rescan = Driver::new(wl(), RescanSptfScheduler::new(), disk())
            .warmup_requests(200)
            .record_completions(true)
            .run();
        assert_reports_identical(
            &incremental,
            &rescan,
            &format!("disk SPTF incremental seed {seed}"),
        );
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
    // `run_one` dispatches statically; the boxed Algorithm::build path
    // must still produce the same report.
    let wl = || RandomWorkload::paper(CAPACITY, 1500.0, 800, 0xA11CE);
    let static_report = run_one(
        wl(),
        Algorithm::Sptf,
        MemsDevice::new(MemsParams::default()),
        200,
    );
    let mut boxed = Driver::new(
        wl(),
        Algorithm::Sptf.build(),
        MemsDevice::new(MemsParams::default()),
    )
    .warmup_requests(200);
    let boxed_report = boxed.run();
    assert_eq!(static_report.makespan, boxed_report.makespan);
    assert_eq!(
        static_report.response.mean_ms(),
        boxed_report.response.mean_ms()
    );
}
