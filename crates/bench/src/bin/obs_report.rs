//! Observability report: per-phase time and energy breakdown of one
//! Fig. 6-style cell (SPTF on the default MEMS device, random workload),
//! recorded with a [`RingTracer`] and cross-checked against the device's
//! closed-form kinematics.
//!
//! Three invariants are verified and the binary exits non-zero if any
//! fails, so CI can run it as a regression gate:
//!
//! 1. **Phase sums**: for every request, its queue time plus its
//!    breakdown's `total()` equals its response time, to ≤ 1e-9 s.
//! 2. **Parallel seeks**: `positioning == max(seek_x + settle, seek_y)` —
//!    the X and Y actuators move concurrently (§2.4.1).
//! 3. **Closed-form replay**: replaying the serviced request sequence on a
//!    fresh device with the seek cache *disabled* (every seek a direct
//!    closed-form solve) reproduces each per-phase breakdown to ≤ 1e-9 s —
//!    the traced numbers are the kinematics, not cache artifacts.
//!
//! Outputs: an aligned phase table on stdout (from the report's
//! `breakdown_sum`), `results/obs_phase_breakdown.csv` (committed; CI
//! diffs it against the golden), and the raw event stream as
//! `target/obs_trace.jsonl` (untracked). The migration ledger of an
//! adaptive-placement cell is `telemetry_report`'s
//! (`target/telemetry_summary.json`).

use std::collections::HashMap;
use std::process::ExitCode;

use mems_bench::{count_arg, write_csv, write_info, Table};
use mems_device::{MemsDevice, MemsParams};
use mems_os::sched::SptfScheduler;
use storage_sim::{
    Driver, PhaseEnergy, Request, RingTracer, ServiceBreakdown, SimTime, StorageDevice, TraceEvent,
};
use storage_trace::RandomWorkload;

const SEED: u64 = 0x5EED_0006;
const RATE: f64 = 1000.0;
/// Agreement tolerance between traced phases and recomputed/closed-form
/// values, seconds.
const TOL: f64 = 1e-9;
fn main() -> ExitCode {
    let requests = count_arg(env!("CARGO_BIN_NAME"), "REQUESTS", 2_000);
    let params = MemsParams::default();
    let capacity = params.geometry().total_sectors();

    println!("obs_report: SPTF / MEMS (default), {RATE:.0} req/s, {requests} requests, seed {SEED:#010x}\n");

    // Four lifecycle events per request; size the ring so nothing drops.
    let ring = usize::try_from(requests).expect("request count fits usize") * 4 + 64;
    let mut driver = Driver::new(
        RandomWorkload::paper(capacity, RATE, requests, SEED),
        SptfScheduler::new(),
        MemsDevice::new(params.clone()),
    )
    .record_completions(true)
    .with_tracer(RingTracer::new(ring));
    let report = driver.run();

    let trace = driver.tracer();
    let mut failures = 0u64;
    if trace.dropped_events() != 0 {
        eprintln!("FAIL: ring dropped {} events", trace.dropped_events());
        failures += 1;
    }

    // Index the service events by request id; total the picks and energy.
    let mut services: HashMap<u64, (Request, SimTime, ServiceBreakdown)> = HashMap::new();
    let mut service_order: Vec<u64> = Vec::new();
    let (mut picks, mut candidates, mut pick_depth) = (0u64, 0u64, 0usize);
    let mut energy = PhaseEnergy::default();
    let mut completes = 0u64;
    for ev in trace.events() {
        match ev {
            TraceEvent::Pick {
                queue_depth,
                candidates: examined,
                ..
            } => {
                picks += 1;
                candidates += examined;
                pick_depth += queue_depth;
            }
            TraceEvent::Service {
                req,
                start,
                breakdown,
                energy: e,
            } => {
                energy.accumulate(e);
                services.insert(req.id, (*req, *start, *breakdown));
                service_order.push(req.id);
            }
            TraceEvent::Complete(c) => {
                completes += 1;
                let id = c.request.id;
                let Some((_, _, b)) = services.get(&id) else {
                    eprintln!("FAIL: completion for request {id} with no service event");
                    failures += 1;
                    continue;
                };
                // (1) Queue time plus the traced phases reproduce the
                // reported response time.
                let (queue, response) = (c.queue_time().as_secs(), c.response_time().as_secs());
                if (queue + b.total() - response).abs() > TOL {
                    eprintln!(
                        "FAIL: req {id}: queue {queue} + phases {} != response {response}",
                        b.total()
                    );
                    failures += 1;
                }
                // (2) X and Y seeks proceed in parallel.
                let resolved = (b.seek_x + b.settle).max(b.seek_y);
                if (b.positioning - resolved).abs() > 1e-12 {
                    eprintln!(
                        "FAIL: req {id}: positioning {} != max(seek_x+settle, seek_y) {resolved}",
                        b.positioning
                    );
                    failures += 1;
                }
            }
            TraceEvent::Arrival { .. } | TraceEvent::Fault { .. } => {}
        }
    }
    if completes != report.completed {
        eprintln!(
            "FAIL: {completes} complete events vs {} reported completions",
            report.completed
        );
        failures += 1;
    }

    // (3) Replay the serviced sequence on a fresh device with the seek
    // cache off: every positioning number must come straight out of the
    // closed-form spring-mass solver.
    let mut oracle = MemsDevice::new(params).with_seek_table(false);
    let mut replay_worst = 0.0f64;
    for id in &service_order {
        let (req, start, recorded) = &services[id];
        let b = oracle.service(req, *start);
        for (phase, traced, direct) in [
            ("positioning", recorded.positioning, b.positioning),
            ("seek_x", recorded.seek_x, b.seek_x),
            ("settle", recorded.settle, b.settle),
            ("seek_y", recorded.seek_y, b.seek_y),
            ("transfer", recorded.transfer, b.transfer),
            ("turnaround", recorded.turnaround, b.turnaround),
            ("overhead", recorded.overhead, b.overhead),
        ] {
            let err = (traced - direct).abs();
            replay_worst = replay_worst.max(err);
            if err > TOL {
                eprintln!("FAIL: req {id} {phase}: traced {traced} vs closed-form {direct}");
                failures += 1;
            }
        }
    }

    // Phase table: where the mean request's time goes.
    let n = report.completed as f64;
    let p = &report.breakdown_sum;
    let service_total = p.positioning + p.transfer + p.overhead;
    let mut table = Table::new(vec![
        "phase".to_string(),
        "mean (ms/req)".to_string(),
        "share of service (%)".to_string(),
    ]);
    for (name, sum) in [
        ("seek_x", p.seek_x),
        ("settle", p.settle),
        ("seek_y", p.seek_y),
        ("positioning (resolved)", p.positioning),
        ("transfer", p.transfer),
        ("  of which turnaround", p.turnaround),
        ("overhead", p.overhead),
        ("service total", service_total),
    ] {
        table.row(vec![
            name.to_string(),
            format!("{:.4}", 1e3 * sum / n),
            format!("{:.1}", 100.0 * sum / service_total),
        ]);
    }
    println!("{}", table.render());
    write_csv("obs_phase_breakdown.csv", &table.to_csv());

    println!("mean response      {:8.3} ms", report.response.mean_ms());
    println!("mean service       {:8.3} ms", report.mean_service_ms());
    println!(
        "mean queue         {:8.3} ms",
        1e3 * report.queue_time.mean()
    );
    println!(
        "turnarounds        {:8.2} per request",
        f64::from(p.turnaround_count) / n
    );
    println!(
        "energy             {:8.3} mJ/req  (positioning {:.3}, transfer {:.3}, overhead {:.3})",
        1e3 * energy.total() / n,
        1e3 * energy.positioning_j / n,
        1e3 * energy.transfer_j / n,
        1e3 * energy.overhead_j / n
    );
    println!(
        "sched picks        {picks:8} ({:.1} candidates examined per pick, {:.1} mean depth)",
        candidates as f64 / picks.max(1) as f64,
        pick_depth as f64 / picks.max(1) as f64
    );
    println!("replay worst err   {replay_worst:8.2e} s vs closed-form kinematics");

    // Raw export (untracked; for ad-hoc analysis).
    write_info("obs_trace.jsonl", &trace.to_jsonl());

    if failures > 0 {
        eprintln!("\nobs_report: {failures} check(s) FAILED");
        return ExitCode::FAILURE;
    }
    println!("\nall phase-sum, parallel-seek, and closed-form replay checks passed");
    ExitCode::SUCCESS
}
