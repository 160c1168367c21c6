//! Tracer-equivalence and phase-accounting integration tests.
//!
//! The observability layer's core contract is that it is *free when off
//! and honest when on*: attaching a [`RingTracer`] must not perturb the
//! simulation in any way (bit-identical [`SimReport`]s), and the per-phase
//! numbers it records must account exactly for the response times the
//! report aggregates.

use atlas_disk::{DiskDevice, DiskParams};
use mems_device::{MemsDevice, MemsParams};
use mems_os::sched::{ClookScheduler, SptfScheduler};
use storage_sim::{Driver, RingTracer, Scheduler, SimReport, StorageDevice, TraceEvent, Workload};
use storage_trace::RandomWorkload;

/// Whole-report exact (`==`, not approximate) comparison: `f64`'s `Debug`
/// is round-trip exact.
fn assert_reports_bit_identical(untraced: &SimReport, traced: &SimReport) {
    assert_eq!(format!("{untraced:?}"), format!("{traced:?}"));
}

/// Runs the same (workload, scheduler, device) cell untraced and traced
/// and asserts the reports agree exactly; returns the traced driver's
/// tracer counters for further checks.
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
        .run();
    let ring = usize::try_from(requests).unwrap() * 4 + 64;
    let mut driver = Driver::new(make_workload(), make_scheduler(), make_device())
        .warmup_requests(100)
        .with_tracer(RingTracer::new(ring));
    let traced = driver.run();
    assert_reports_bit_identical(&untraced, &traced);
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
        let c = trace.counters();
        assert_eq!(c.arrivals, requests);
        assert_eq!(c.picks, requests);
        assert_eq!(c.completions, requests);
        assert_eq!(c.dropped_events, 0);
        assert!(
            c.candidates_examined >= c.picks,
            "SPTF scores >= 1 per pick"
        );
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
        let c = trace.counters();
        assert_eq!(c.arrivals, requests);
        assert_eq!(c.completions, requests);
        assert_eq!(c.dropped_events, 0);
    }
}

/// For every completed request the traced phases must account for the
/// reported times: positioning + transfer + overhead == service and
/// queue + service == response, to <= 1e-9 s.
fn assert_phases_account_for_responses(trace: &RingTracer, parallel_seeks: bool) {
    let mut services = std::collections::HashMap::new();
    let mut checked = 0u64;
    for ev in trace.events() {
        match *ev {
            TraceEvent::Service {
                id,
                positioning,
                seek_x,
                settle,
                seek_y,
                transfer,
                overhead,
                ..
            } => {
                services.insert(
                    id,
                    (positioning, seek_x, settle, seek_y, transfer, overhead),
                );
            }
            TraceEvent::Complete {
                id,
                queue,
                service,
                response,
                ..
            } => {
                let (positioning, seek_x, settle, seek_y, transfer, overhead) = services[&id];
                assert!(
                    (positioning + transfer + overhead - service).abs() <= 1e-9,
                    "req {id}: phases sum to {} but service is {service}",
                    positioning + transfer + overhead
                );
                assert!(
                    (queue + service - response).abs() <= 1e-9,
                    "req {id}: queue {queue} + service {service} != response {response}"
                );
                if parallel_seeks {
                    // MEMS X and Y seeks overlap (§2.4.1).
                    let resolved = (seek_x + settle).max(seek_y);
                    assert!(
                        (positioning - resolved).abs() <= 1e-12,
                        "req {id}: positioning {positioning} vs resolved {resolved}"
                    );
                }
                checked += 1;
            }
            _ => {}
        }
    }
    assert!(checked > 0, "no completions traced");
}

#[test]
fn mems_phase_times_sum_to_response_times() {
    let capacity = MemsParams::default().geometry().total_sectors();
    let requests = 800;
    let mut driver = Driver::new(
        RandomWorkload::paper(capacity, 2200.0, requests, 13),
        SptfScheduler::new(),
        MemsDevice::new(MemsParams::default()),
    )
    .with_tracer(RingTracer::new(usize::try_from(requests).unwrap() * 4 + 64));
    driver.run();
    assert_phases_account_for_responses(driver.tracer(), true);
    // The device attributes energy to every phase; the sums must be
    // positive and dominated by positioning + transfer.
    let e = driver.tracer().energy_sum();
    assert!(e.positioning_j > 0.0);
    assert!(e.transfer_j > 0.0);
    assert!(e.total() > e.overhead_j);
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
    let e = driver.tracer().energy_sum();
    assert!(
        e.positioning_j > 0.0,
        "disk energy model attributes seek+rotation energy"
    );
}
