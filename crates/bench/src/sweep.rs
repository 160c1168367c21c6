//! The scheduling-sweep runner behind Figs. 5–8.
//!
//! Every sweep cell (one algorithm at one arrival rate) owns a fresh
//! workload, scheduler, and device, so the cells are embarrassingly
//! parallel: they run on `std::thread::scope` workers pulling from a
//! shared atomic work index. Each worker collects its `(cell, result)`
//! pairs privately — no lock is taken per cell — and the pairs are merged
//! back into job order afterwards, so the output (and hence every
//! downstream table, CSV, and statistic) is identical to the serial
//! runner's.
//!
//! Cells that share MEMS parameters share one [`SeekSurface`]: every
//! `MemsDevice` resolves the process-wide surface for its parameters and
//! fills it lazily, so concurrent cells solve each on-grid seek once
//! between them. [`shared_seek_surface`] solves the whole surface up
//! front, in parallel, for callers that time the solve apart from the
//! simulation.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;

use mems_device::{MemsParams, SeekSurface};
use mems_os::sched::{Algorithm, ClookScheduler, SptfScheduler, SstfScheduler};
use storage_sim::{Driver, FifoScheduler, Scheduler, SimReport, StorageDevice, Workload};

/// One (algorithm, arrival-rate) measurement.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// Algorithm label (paper name).
    pub algorithm: &'static str,
    /// Arrival rate in requests/second (or scale factor for traces).
    pub rate: f64,
    /// Mean response time, milliseconds.
    pub mean_response_ms: f64,
    /// Squared coefficient of variation of response time.
    pub cv2: f64,
    /// Mean service time, milliseconds.
    pub mean_service_ms: f64,
    /// Largest queue depth observed.
    pub max_queue: usize,
}

/// Runs one workload through one scheduler and device.
pub fn run_one<W, D>(workload: W, algorithm: Algorithm, device: D, warmup: u64) -> SimReport
where
    W: Workload,
    D: StorageDevice,
{
    fn go<W: Workload, S: Scheduler, D: StorageDevice>(
        workload: W,
        scheduler: S,
        device: D,
        warmup: u64,
    ) -> SimReport {
        Driver::new(workload, scheduler, device)
            .warmup_requests(warmup)
            .run()
    }
    // Dispatch on the concrete scheduler type here, once, so the driver's
    // event loop runs monomorphized — no `Box<dyn Scheduler>` vtable hop
    // on every pick of the hottest path.
    match algorithm {
        Algorithm::Fcfs => go(workload, FifoScheduler::new(), device, warmup),
        Algorithm::SstfLbn => go(workload, SstfScheduler::new(), device, warmup),
        Algorithm::Clook => go(workload, ClookScheduler::new(), device, warmup),
        Algorithm::Sptf => go(workload, SptfScheduler::new(), device, warmup),
    }
}

/// Runs `n` independent jobs on scoped worker threads (one per available
/// core, capped by the job count) and returns their results in job order —
/// the scheduling of workers onto jobs can never affect the output.
fn run_cells<T, F>(n: usize, job: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    run_cells_on(threads, n, job)
}

/// [`run_cells`] with an explicit worker count (tested directly so the
/// threaded path is covered even on single-core machines).
fn run_cells_on<T, F>(threads: usize, n: usize, job: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = threads.min(n);
    if threads <= 1 {
        return (0..n).map(job).collect();
    }
    // Workers pull cells off a shared atomic index but accumulate their
    // (index, result) pairs privately, so result collection is lock-free:
    // the merge happens once, after the scope joins, by a stable sort on
    // the cell index.
    let next = AtomicUsize::new(0);
    let mut parts: Vec<Vec<(usize, T)>> = Vec::with_capacity(threads);
    thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut local: Vec<(usize, T)> = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        local.push((i, job(i)));
                    }
                    local
                })
            })
            .collect();
        for handle in handles {
            parts.push(handle.join().expect("no poisoned cell"));
        }
    });
    let mut merged: Vec<(usize, T)> = parts.into_iter().flatten().collect();
    merged.sort_by_key(|&(i, _)| i);
    assert_eq!(merged.len(), n, "every cell ran exactly once");
    merged.into_iter().map(|(_, result)| result).collect()
}

/// Returns the process-wide [`SeekSurface`] for `params` with every cell
/// solved, across all cores ([`SeekSurface::fill`]). Every
/// `MemsDevice::new(params)` resolves the same surface while the returned
/// [`Arc`] (or any device on it) is alive. Returns `None` when the surface
/// would exceed its size guard ([`SeekSurface::MAX_X_MATRIX_BYTES`]);
/// devices then solve every seek directly.
pub fn shared_seek_surface(params: &MemsParams) -> Option<Arc<SeekSurface>> {
    let surface = SeekSurface::shared(params)?;
    surface.fill();
    Some(surface)
}

/// Sweeps every algorithm over a set of rates, running the cells in
/// parallel. `make_workload(rate)` and `make_device()` produce a fresh
/// workload/device per cell so runs are independent and deterministic;
/// the returned points are in the serial order (algorithm-major).
pub fn sched_sweep<W, D>(
    rates: &[f64],
    algorithms: &[Algorithm],
    make_workload: impl Fn(f64) -> W + Sync,
    make_device: impl Fn() -> D + Sync,
    warmup: u64,
) -> Vec<SweepPoint>
where
    W: Workload,
    D: StorageDevice,
{
    let cells: Vec<(Algorithm, f64)> = algorithms
        .iter()
        .flat_map(|&alg| rates.iter().map(move |&rate| (alg, rate)))
        .collect();
    run_cells(cells.len(), |i| {
        let (alg, rate) = cells[i];
        let report = run_one(make_workload(rate), alg, make_device(), warmup);
        SweepPoint {
            algorithm: alg.label(),
            rate,
            mean_response_ms: report.response.mean_ms(),
            cv2: report.response.sq_coeff_var(),
            mean_service_ms: report.mean_service_ms(),
            max_queue: report.max_queue_depth,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mems_device::{MemsDevice, MemsParams};
    use storage_trace::RandomWorkload;

    #[test]
    fn sweep_produces_a_point_per_cell() {
        let rates = [100.0, 500.0];
        let points = sched_sweep(
            &rates,
            &Algorithm::ALL,
            |rate| RandomWorkload::paper(6_750_000, rate, 300, 42),
            || MemsDevice::new(MemsParams::default()),
            0,
        );
        assert_eq!(points.len(), 8);
        assert!(points.iter().all(|p| p.mean_response_ms > 0.0));
        // Output is algorithm-major regardless of worker scheduling.
        let labels: Vec<&str> = points.iter().map(|p| p.algorithm).collect();
        let expected: Vec<&str> = Algorithm::ALL
            .iter()
            .flat_map(|a| std::iter::repeat_n(a.label(), rates.len()))
            .collect();
        assert_eq!(labels, expected);
    }

    #[test]
    fn parallel_sweep_matches_serial_run_one() {
        // The parallel runner must produce the same numbers as composing
        // run_one cells by hand.
        let rates = [400.0, 1200.0];
        let points = sched_sweep(
            &rates,
            &[Algorithm::Sptf],
            |rate| RandomWorkload::paper(6_750_000, rate, 400, 11),
            || MemsDevice::new(MemsParams::default()),
            50,
        );
        for (i, &rate) in rates.iter().enumerate() {
            let report = run_one(
                RandomWorkload::paper(6_750_000, rate, 400, 11),
                Algorithm::Sptf,
                MemsDevice::new(MemsParams::default()),
                50,
            );
            assert_eq!(points[i].mean_response_ms, report.response.mean_ms());
            assert_eq!(points[i].max_queue, report.max_queue_depth);
        }
    }

    #[test]
    fn threaded_cells_return_in_job_order() {
        // Force the scoped-thread path regardless of host parallelism and
        // check results land in their slots in job order.
        let results = super::run_cells_on(4, 37, |i| i * i);
        let expected: Vec<usize> = (0..37).map(|i| i * i).collect();
        assert_eq!(results, expected);
    }

    #[test]
    fn threaded_sweep_cells_match_serial_cells() {
        let job = |i: usize| {
            let rate = 300.0 + 400.0 * i as f64;
            run_one(
                RandomWorkload::paper(6_750_000, rate, 250, 5),
                Algorithm::Sptf,
                MemsDevice::new(MemsParams::default()),
                25,
            )
            .response
            .mean_ms()
        };
        let serial = super::run_cells_on(1, 4, job);
        let threaded = super::run_cells_on(4, 4, job);
        assert_eq!(serial, threaded);
    }

    #[test]
    fn higher_load_increases_response_time() {
        let points = sched_sweep(
            &[200.0, 1800.0],
            &[Algorithm::Fcfs],
            |rate| RandomWorkload::paper(6_750_000, rate, 2000, 7),
            || MemsDevice::new(MemsParams::default()),
            0,
        );
        assert!(points[1].mean_response_ms > points[0].mean_response_ms);
    }
}
