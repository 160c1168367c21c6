//! `overload_sweep` — open-loop overload and recovery cells.
//!
//! ROADMAP item 4: drive an open-loop arrival process past the device's
//! saturation rate and watch the queue grow, then bring the rate back
//! down and watch it drain. The arrival profile is [`RampWorkload`]'s
//! trapezoid (`low → high → low`, §3 request envelope); the request
//! budget is sized so the last arrival lands near the end of the
//! down-ramp, making `makespan − ramp_end` a direct measure of how long
//! the residual backlog takes to drain.
//!
//! Each overload intensity is run under four admission policies:
//!
//! * `none` — pure open loop: the queue absorbs the whole burst;
//! * `shed` — queue-depth watermarks with hysteresis (drop arrivals at
//!   `shed_high`, resume below `resume_low`);
//! * `shed+timeout` — watermarks plus a queue-residency deadline;
//! * `timeout` — the deadline alone.
//!
//! Every row bills explicitly: `completed + shed + timed_out` must equal
//! the request budget (asserted). That a policy whose watermarks can
//! never trigger is digest-identical to the plain open-loop run is held
//! by `tests/streaming_equivalence.rs`.
//!
//! The CSV (`results/overload_sweep.csv`) is byte-stable and golden-gated
//! in CI. Pass a request-budget scale factor to experiment; goldens are
//! only valid at the default.

use mems_bench::{count_arg, write_csv, Table};
use mems_device::{MemsDevice, MemsParams};
use storage_sim::{Driver, FifoScheduler, OverloadPolicy, SimReport, SimTime};
use storage_trace::RampWorkload;

const CAPACITY: u64 = 6_750_000;
const SEED: u64 = 0x5EED_0010;
const RATE_LOW: f64 = 200.0;
const RAMP_SECS: f64 = 2.0;
const HOLD_SECS: f64 = 4.0;
/// Watermarks: shed arrivals at 256 queued, readmit below 64.
const SHED_HIGH: usize = 256;
const RESUME_LOW: usize = 64;
/// Queue-residency deadline for the timeout policies — tight enough to
/// fire even under the watermark-capped queue (≈190 ms of FIFO backlog
/// at 256 deep), so `shed+timeout` differs visibly from `shed` alone.
const TIMEOUT_MS: f64 = 150.0;

/// Request budget matching the expected arrival count of one trapezoid,
/// so arrivals stop at the end of the down-ramp and the drain is visible.
fn budget(rate_high: f64) -> u64 {
    (RATE_LOW * HOLD_SECS + rate_high * HOLD_SECS + (RATE_LOW + rate_high) * RAMP_SECS) as u64
}

fn run_cell(rate_high: f64, scale: u64, policy: Option<OverloadPolicy>) -> SimReport {
    let workload = RampWorkload::new(
        CAPACITY,
        RATE_LOW,
        rate_high,
        RAMP_SECS,
        HOLD_SECS,
        budget(rate_high) * scale,
        SEED,
    );
    let mut driver = Driver::new(
        workload,
        FifoScheduler::new(),
        MemsDevice::new(MemsParams::default()),
    )
    .with_arrival_lookahead(1024);
    if let Some(p) = policy {
        driver = driver.with_overload(p);
    }
    driver.run()
}

fn main() {
    let scale = count_arg(env!("CARGO_BIN_NAME"), "SCALE", 1);

    let ramp_end = 2.0 * (HOLD_SECS + RAMP_SECS);
    println!(
        "overload_sweep: trapezoid {RATE_LOW} -> high -> {RATE_LOW} req/s, ramp {RAMP_SECS} s, hold {HOLD_SECS} s"
    );
    println!(
        "policies: shed@{SHED_HIGH}/resume@{RESUME_LOW}, timeout {TIMEOUT_MS} ms; FIFO on MEMS\n"
    );

    let mut table = Table::new(
        [
            "rate_high",
            "policy",
            "requests",
            "completed",
            "shed",
            "timed_out",
            "mean_ms",
            "p99_ms",
            "max_depth",
            "drain_s",
        ]
        .map(String::from)
        .to_vec(),
    );
    let timeout = SimTime::from_ms(TIMEOUT_MS);
    for rate_high in [2_000.0, 4_000.0] {
        let cells: [(&str, Option<OverloadPolicy>); 4] = [
            ("none", None),
            (
                "shed",
                Some(OverloadPolicy::watermarks(SHED_HIGH, RESUME_LOW)),
            ),
            (
                "shed+timeout",
                Some(OverloadPolicy::watermarks(SHED_HIGH, RESUME_LOW).with_queue_timeout(timeout)),
            ),
            ("timeout", Some(OverloadPolicy::timeout_only(timeout))),
        ];
        for (name, policy) in cells {
            let requests = budget(rate_high) * scale;
            let mut report = run_cell(rate_high, scale, policy);
            assert_eq!(
                report.completed + report.shed + report.timed_out,
                requests,
                "billing must conserve the request budget"
            );
            let drain = (report.makespan.as_secs() - ramp_end).max(0.0);
            table.row(vec![
                format!("{rate_high:.0}"),
                name.to_string(),
                format!("{requests}"),
                format!("{}", report.completed),
                format!("{}", report.shed),
                format!("{}", report.timed_out),
                format!("{:.3}", report.response.mean_ms()),
                format!("{:.3}", report.response.percentile(0.99) * 1e3),
                format!("{}", report.max_queue_depth),
                format!("{drain:.3}"),
            ]);
        }
    }
    println!("{}", table.render());
    if scale == 1 {
        write_csv("overload_sweep.csv", &table.to_csv());
    } else {
        println!("[scale {scale}: goldens untouched]");
    }
}
