//! Tracer-equivalence and phase-accounting integration tests.
//!
//! The observability layer's core contract is that it is *free when off
//! and honest when on*: attaching a [`RingTracer`] must not perturb the
//! simulation in any way (bit-identical [`SimReport`]s), and the per-phase
//! numbers it records must account exactly for the response times the
//! report aggregates, whatever wrapper stack bills them.

#[path = "../../../tests/support/report.rs"]
mod report;

use std::collections::HashMap;

use atlas_disk::{DiskDevice, DiskParams};
use mems_device::{MemsDevice, MemsParams};
use mems_os::fault::DegradedDevice;
use mems_os::placement::{AdaptiveDevice, BLOCK_SECTORS};
use mems_os::sched::{ClookScheduler, SptfScheduler};
use report::assert_reports_identical;
use storage_sim::{
    Driver, FaultClock, PhaseEnergy, RingTracer, Scheduler, SimReport, SimTime, StorageDevice,
    TraceEvent, Workload,
};
use storage_trace::{RandomWorkload, ZipfWorkload};

/// Runs the same (workload, scheduler, device) cell untraced and traced
/// and asserts the reports agree exactly; returns the traced report and
/// the tracer for further checks.
fn run_both<W, S, D>(
    make_workload: impl Fn() -> W,
    make_scheduler: impl Fn() -> S,
    make_device: impl Fn() -> D,
    requests: u64,
) -> (SimReport, RingTracer)
where
    W: Workload,
    S: Scheduler,
    D: StorageDevice,
{
    let untraced = Driver::new(make_workload(), make_scheduler(), make_device())
        .warmup_requests(100)
        .record_completions(true)
        .run();
    let ring = usize::try_from(requests).unwrap() * 4 + 64;
    let mut driver = Driver::new(make_workload(), make_scheduler(), make_device())
        .warmup_requests(100)
        .record_completions(true)
        .with_tracer(RingTracer::new(ring));
    let traced = driver.run();
    assert_reports_identical(&untraced, &traced, "a tracer changed the report");
    (traced, driver.tracer().clone())
}

#[test]
fn mems_traced_runs_are_bit_identical_across_seeds() {
    let capacity = MemsParams::default().geometry().total_sectors();
    for seed in [1u64, 7, 0x5EED_0006] {
        let requests = 1_000;
        let (report, trace) = run_both(
            || RandomWorkload::paper(capacity, 1800.0, requests, seed),
            SptfScheduler::new,
            || MemsDevice::new(MemsParams::default()),
            requests,
        );
        // The tracer saw every request, warm-up included.
        let [arrivals, picks, completions] = lifecycle_counts(&trace);
        assert_eq!(arrivals, requests);
        assert_eq!(picks, requests);
        assert_eq!(completions, requests);
        assert_eq!(trace.dropped_events(), 0);
        let candidates: u64 = trace
            .events()
            .map(|e| match e {
                TraceEvent::Pick { candidates, .. } => *candidates,
                _ => 0,
            })
            .sum();
        assert!(candidates >= picks, "SPTF scores >= 1 per pick");
        assert!(report.completed > 0);
    }
}

#[test]
fn disk_traced_runs_are_bit_identical_across_seeds() {
    let capacity = DiskParams::quantum_atlas_10k().total_sectors();
    for seed in [2u64, 9, 0x5EED_0005] {
        let requests = 600;
        let (_, trace) = run_both(
            || RandomWorkload::paper(capacity, 100.0, requests, seed),
            ClookScheduler::new,
            || DiskDevice::new(DiskParams::quantum_atlas_10k()),
            requests,
        );
        let [arrivals, _, completions] = lifecycle_counts(&trace);
        assert_eq!(arrivals, requests);
        assert_eq!(completions, requests);
        assert_eq!(trace.dropped_events(), 0);
    }
}

/// The ring's arrival, pick and completion events, counted.
fn lifecycle_counts(trace: &RingTracer) -> [u64; 3] {
    let mut counts = [0u64; 3];
    for ev in trace.events() {
        match ev {
            TraceEvent::Arrival { .. } => counts[0] += 1,
            TraceEvent::Pick { .. } => counts[1] += 1,
            TraceEvent::Complete(_) => counts[2] += 1,
            TraceEvent::Service { .. } | TraceEvent::Fault { .. } => {}
        }
    }
    counts
}

/// The per-phase energy of every traced service event, summed.
fn traced_energy(trace: &RingTracer) -> PhaseEnergy {
    let mut sum = PhaseEnergy::default();
    for ev in trace.events() {
        if let TraceEvent::Service { energy, .. } = ev {
            sum.accumulate(energy);
        }
    }
    sum
}

/// For every completed request the traced phases must account for the
/// reported times: queue + breakdown.total() == response, to <= 1e-9 s.
/// With `parallel_seeks`, positioning must also be the overlap of the X
/// and Y seeks.
fn assert_phases_account_for_responses(trace: &RingTracer, parallel_seeks: bool) {
    assert_eq!(trace.dropped_events(), 0, "ring must hold the full run");
    let mut services = HashMap::new();
    let mut checked = 0u64;
    for ev in trace.events() {
        match ev {
            TraceEvent::Service { req, breakdown, .. } => {
                services.insert(req.id, *breakdown);
            }
            TraceEvent::Complete(c) => {
                let id = c.request.id;
                let b = &services[&id];
                let (queue, response) = (c.queue_time().as_secs(), c.response_time().as_secs());
                assert!(
                    (queue + b.total() - response).abs() <= 1e-9,
                    "req {id}: queue {queue} + phases {} != response {response}",
                    b.total()
                );
                if parallel_seeks {
                    // MEMS X and Y seeks overlap (§2.4.1).
                    let resolved = (b.seek_x + b.settle).max(b.seek_y);
                    assert!(
                        (b.positioning - resolved).abs() <= 1e-12,
                        "req {id}: positioning {} vs resolved {resolved}",
                        b.positioning
                    );
                }
                checked += 1;
            }
            _ => {}
        }
    }
    assert!(checked > 0, "no completions traced");
}

/// Two SPTF cells: the Fig. 6 knee, and Fig. 6's anchor cell as
/// `telemetry_report` runs it (1000 req/s, 2,000 requests, its seed).
#[test]
fn mems_phase_times_sum_to_response_times() {
    let capacity = MemsParams::default().geometry().total_sectors();
    for (rate, requests, seed) in [(2200.0, 800, 13), (1000.0, 2_000, 0x5EED_0006)] {
        let mut driver = Driver::new(
            RandomWorkload::paper(capacity, rate, requests, seed),
            SptfScheduler::new(),
            MemsDevice::new(MemsParams::default()),
        )
        .with_tracer(RingTracer::new(usize::try_from(requests).unwrap() * 4 + 64));
        driver.run();
        assert_phases_account_for_responses(driver.tracer(), true);
        // The device attributes energy to every phase; the sums must be
        // positive and dominated by positioning + transfer.
        let e = traced_energy(driver.tracer());
        assert!(e.positioning_j > 0.0);
        assert!(e.transfer_j > 0.0);
        assert!(e.total() > e.overhead_j);
    }
}

#[test]
fn disk_phase_times_sum_to_response_times() {
    let capacity = DiskParams::quantum_atlas_10k().total_sectors();
    let requests = 500;
    let mut driver = Driver::new(
        RandomWorkload::paper(capacity, 90.0, requests, 21),
        ClookScheduler::new(),
        DiskDevice::new(DiskParams::quantum_atlas_10k()),
    )
    .with_tracer(RingTracer::new(usize::try_from(requests).unwrap() * 4 + 64));
    driver.run();
    assert_phases_account_for_responses(driver.tracer(), false);
    let e = traced_energy(driver.tracer());
    assert!(
        e.positioning_j > 0.0,
        "disk energy model attributes seek+rotation energy"
    );
}

/// Wrappers bill time the mechanics do not: fault recovery behind a
/// `DegradedDevice` under a Poisson fault storm, and the wait behind an
/// in-flight migration chunk in a migrating `AdaptiveDevice`. The traced
/// breakdowns must carry both, so queue + phases still equals every
/// traced response.
#[test]
fn wrapped_phases_sum_to_response_times() {
    let params = MemsParams::default();
    let capacity = params.geometry().total_sectors();

    let requests = 1_500;
    let storm = FaultClock::poisson(
        0x5EED_0063,
        SimTime::from_secs(1.5),
        40.0,
        200.0,
        40.0,
        params.tips,
        27,
    );
    let mut driver = Driver::new(
        RandomWorkload::paper(capacity, 1000.0, requests, 17),
        SptfScheduler::new(),
        DegradedDevice::mems(MemsDevice::new(params.clone()), 3).with_spare_tips(4),
    )
    .with_faults(storm)
    .with_tracer(RingTracer::new(usize::try_from(requests).unwrap() * 5 + 64));
    let report = driver.run();
    assert!(report.fault_events > 100, "{} faults", report.fault_events);
    assert!(report.breakdown_sum.fault_recovery > 0.0);
    assert_phases_account_for_responses(driver.tracer(), false);

    let requests = 4_000;
    let mut driver = Driver::new(
        ZipfWorkload::new(capacity, BLOCK_SECTORS, 0.99, 500.0, requests, 42).bursty(50, 0.060),
        SptfScheduler::new(),
        AdaptiveDevice::new(MemsDevice::new(params), true),
    )
    .with_tracer(RingTracer::new(usize::try_from(requests).unwrap() * 4 + 64));
    let report = driver.run();
    assert!(driver.device().migration_stats().swaps > 0);
    assert!(
        report.breakdown_sum.background_wait > 0.0,
        "some request must wait behind a migration chunk"
    );
    assert_phases_account_for_responses(driver.tracer(), false);
}
