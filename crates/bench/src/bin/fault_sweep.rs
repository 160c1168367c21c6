//! Degraded-mode sweep: what does operating through failures *cost*?
//!
//! Runs SPTF on the MEMS device under the paper's random workload while a
//! seeded [`FaultClock`] fails a growing fraction of probe tips (0–10%)
//! mid-run, plus one retry-storm cell with a high transient-seek-error
//! arrival rate. Reports mean response time, the σ²/µ² starvation metric,
//! and the recovery-time bill per request into the byte-gated
//! `results/fault_sweep.csv`. That a zero-fault wrapped device reproduces
//! the bare device bit for bit is held by `tests/degraded_equivalence.rs`.

use mems_bench::{write_csv, Table};
use mems_device::{MemsDevice, MemsParams};
use mems_os::fault::{DegradedCounters, DegradedDevice};
use mems_os::sched::SptfScheduler;
use storage_sim::{Driver, FaultClock, SimReport, SimTime};
use storage_trace::RandomWorkload;

const CAPACITY: u64 = 6_750_000;
const TIPS: u32 = 6400;
const RATE: f64 = 1000.0;
const REQUESTS: u64 = 2000;
const WARMUP: u64 = 200;
const WORKLOAD_SEED: u64 = 42;
const FAULT_SEED: u64 = 0x5EED_0063;
/// Tip failures land in the first half-second, so ~75% of the 2 s run
/// operates degraded.
const FAIL_WINDOW_S: f64 = 0.5;

/// One simulation cell: SPTF on a degraded MEMS device under `clock`.
fn run_cell(clock: FaultClock) -> (SimReport, DegradedCounters) {
    let device =
        DegradedDevice::mems(MemsDevice::new(MemsParams::default()), FAULT_SEED).with_spare_tips(8);
    let workload = RandomWorkload::paper(CAPACITY, RATE, REQUESTS, WORKLOAD_SEED);
    let mut driver = Driver::new(workload, SptfScheduler::new(), device)
        .with_faults(clock)
        .warmup_requests(WARMUP);
    let report = driver.run();
    let counters = driver.device().counters();
    (report, counters)
}

fn main() {
    let mut t = Table::new(vec![
        "scenario".into(),
        "failed".into(),
        "mean resp (ms)".into(),
        "sigma^2/mu^2".into(),
        "spare remaps".into(),
        "reconstructions".into(),
        "retries".into(),
        "recovery us/req".into(),
    ]);
    let mut csv = String::from(
        "scenario,failed_frac,failed_tips,mean_response_ms,cv2,\
         spare_remaps,reconstructions,retries,recovery_us_per_req\n",
    );

    let mut emit = |scenario: &str, frac: f64, report: &SimReport, c: &DegradedCounters| {
        let mean_ms = report.response.mean_ms();
        let cv2 = report.response.sq_coeff_var();
        // breakdown_sum accumulates over every serviced request (warm-up
        // included), so normalize by the full request count.
        let recovery_us = report.breakdown_sum.fault_recovery * 1e6 / REQUESTS as f64;
        t.row(vec![
            scenario.into(),
            format!("{:.0}%", frac * 100.0),
            format!("{mean_ms:.3}"),
            format!("{cv2:.3}"),
            format!("{}", c.spare_remaps),
            format!("{}", c.reconstructions),
            format!("{}", c.retry_attempts),
            format!("{recovery_us:.2}"),
        ]);
        csv.push_str(&format!(
            "{scenario},{frac:.2},{failed},{mean_ms:.6},{cv2:.6},{spare},{recon},{retries},{recovery_us:.4}\n",
            failed = c.tip_failures,
            spare = c.spare_remaps,
            recon = c.reconstructions,
            retries = c.retry_attempts,
        ));
    };

    // Tip-failure axis: 0–10% of all tips fail in the first half second.
    for &frac in &[0.0, 0.01, 0.02, 0.04, 0.06, 0.08, 0.10] {
        let n = (frac * f64::from(TIPS)).round() as usize;
        let clock =
            FaultClock::tip_failures(FAULT_SEED, n, TIPS, SimTime::from_secs(FAIL_WINDOW_S));
        let (report, counters) = run_cell(clock);
        emit("tip_failures", frac, &report, &counters);
    }

    // Retry storm: no tip damage, but transient seek errors arrive at
    // 200/s for the whole run — the device spends its time re-seeking.
    let horizon = SimTime::from_secs(REQUESTS as f64 / RATE);
    let storm = FaultClock::poisson(FAULT_SEED, horizon, 0.0, 200.0, 0.0, TIPS, 27);
    let (report, counters) = run_cell(storm);
    emit("retry_storm", 0.0, &report, &counters);

    println!("{}", t.render());
    write_csv("fault_sweep.csv", &csv);
}
