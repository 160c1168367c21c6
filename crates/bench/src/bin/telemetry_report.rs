//! Telemetry report: windowed time-series metrics and spatial media
//! heatmaps for four representative cells.
//!
//! Cells:
//!
//! 1. `mems_sptf` — the Fig. 6 SPTF/MEMS random cell (1000 req/s, seed
//!    `0x5EED_0006`): the healthy-device timeline and media heatmap, and
//!    where a request's service time goes, phase by phase.
//! 2. `mems_fault_ramp` — the same device behind `DegradedDevice` while 6%
//!    of tips fail in the first half second: the timeline shows the
//!    fault_recovery utilization and fault-rate ramp of §6.
//! 3. `disk_clook` — C-LOOK on the Atlas 10K baseline (100 req/s): the
//!    per-zone heatmap counterpart.
//! 4. `mems_adaptive` — the adaptive-placement wrapper on a skewed bursty
//!    stream: the timeline's `util_background_wait` column shows when
//!    migration traffic delays foreground arrivals, and the wrapper's
//!    migration ledger lands in `target/telemetry_summary.json`.
//!
//! Outputs `results/telemetry_timeline.csv`,
//! `results/telemetry_heatmap.csv` and `results/obs_phase_breakdown.csv`
//! (the `mems_sptf` phase table, from the report's `breakdown_sum`) — all
//! purely sim-time derived, so they are committed goldens byte-gated by
//! the CI `figures` job — plus two untracked files under `target/`:
//! `telemetry_summary.json` (the adaptive cell's migration ledger) and
//! `obs_trace.jsonl` (the `mems_sptf` event ring, one event per line).
//!
//! Two gates make the bin a regression check (exit non-zero on failure):
//! the telemetry window totals must reconcile with the driver's report,
//! and the heatmaps must reconcile exactly with the serviced request
//! stream (Σ region accesses == Σ stripes touched, Σ tip-group sectors ==
//! Σ request sectors).

use std::process::ExitCode;

use atlas_disk::{DiskDevice, DiskParams, ZoneHeatmap};
use mems_bench::{write_csv, write_info, Table};
use mems_device::{MediaHeatmap, MemsDevice, MemsParams};
use mems_os::fault::DegradedDevice;
use mems_os::placement::{AdaptiveDevice, BLOCK_SECTORS};
use mems_os::sched::{ClookScheduler, SptfScheduler};
use storage_sim::{
    Driver, FaultClock, RingTracer, SimReport, SimTime, Telemetry, TraceEvent, TracerPair,
};
use storage_trace::{RandomWorkload, ZipfWorkload};

const MEMS_SEED: u64 = 0x5EED_0006;
const MEMS_RATE: f64 = 1000.0;
const MEMS_REQUESTS: u64 = 2_000;
const FAULT_SEED: u64 = 0x5EED_0063;
const FAULT_WORKLOAD_SEED: u64 = 42;
const FAILED_TIP_FRAC: f64 = 0.06;
const FAIL_WINDOW_S: f64 = 0.5;
const DISK_SEED: u64 = 0x5EED_0005;
const DISK_RATE: f64 = 100.0;
const DISK_REQUESTS: u64 = 600;
/// Telemetry window width, seconds: 100 ms buckets over the ~2 s cells.
const WINDOW_S: f64 = 0.1;
const MAX_WINDOWS: usize = 256;
/// MEMS region grid: 10 cylinder buckets × 9 row buckets.
const GRID_X: usize = 10;
const GRID_Y: usize = 9;
/// Adaptive cell: Zipf(0.99) over the placement blocks in ON/OFF
/// bursts — the idle-window regime migration is built for.
const ADAPTIVE_SEED: u64 = 42;
const ADAPTIVE_RATE: f64 = 500.0;
const ADAPTIVE_REQUESTS: u64 = 20_000;
const ADAPTIVE_BURST_LEN: u64 = 50;
const ADAPTIVE_BURST_IDLE: f64 = 0.060;

fn mems_workload(seed: u64) -> RandomWorkload {
    let capacity = MemsParams::default().geometry().total_sectors();
    RandomWorkload::paper(capacity, MEMS_RATE, MEMS_REQUESTS, seed)
}

type Recorder = TracerPair<RingTracer, Telemetry>;

fn recorder(requests: u64) -> Recorder {
    let ring = usize::try_from(requests).expect("request count fits usize") * 4 + 64;
    TracerPair::new(RingTracer::new(ring), Telemetry::new(WINDOW_S, MAX_WINDOWS))
}

/// Replays the ring's `Service` events into a MEMS heatmap.
fn mems_heatmap(ring: &RingTracer) -> MediaHeatmap {
    MediaHeatmap::from_services(
        &MemsParams::default(),
        GRID_X,
        GRID_Y,
        ring.events().filter_map(|ev| match ev {
            TraceEvent::Service { req, energy, .. } => Some((req.lbn, req.sectors, energy.total())),
            _ => None,
        }),
    )
}

/// Where the mean request's service time goes: each phase's mean and
/// share of service, from the report's `breakdown_sum`.
fn phase_table(report: &SimReport) -> Table {
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
    table
}

fn check(ok: bool, failures: &mut u64, what: &str) {
    if !ok {
        eprintln!("FAIL: {what}");
        *failures += 1;
    }
}

/// Telemetry window totals must reconcile with the driver's own report.
fn check_timeline(cell: &str, tel: &Telemetry, report: &SimReport, failures: &mut u64) {
    let completions: u64 = tel.windows().iter().map(|w| w.completions).sum();
    let arrivals: u64 = tel.windows().iter().map(|w| w.arrivals).sum();
    let faults: u64 = tel.windows().iter().map(|w| w.faults).sum();
    check(
        completions == report.completed,
        failures,
        &format!(
            "{cell}: telemetry completions {completions} != report {}",
            report.completed
        ),
    );
    check(
        arrivals == report.completed,
        failures,
        &format!(
            "{cell}: telemetry arrivals {arrivals} != {}",
            report.completed
        ),
    );
    check(
        faults == report.fault_events,
        failures,
        &format!(
            "{cell}: telemetry faults {faults} != report {}",
            report.fault_events
        ),
    );
    let busy: f64 = tel.windows().iter().map(|w| w.phase.total()).sum();
    check(
        (busy - report.busy_secs).abs() < 1e-9,
        failures,
        &format!(
            "{cell}: telemetry phase total {busy} != busy {}",
            report.busy_secs
        ),
    );
}

fn main() -> ExitCode {
    let mut failures = 0u64;
    let mut timeline = String::from(Telemetry::csv_header());
    timeline.push('\n');
    let mut heatmap_csv = String::from("cell,kind,i,j,accesses,sectors,dwell_s,energy_j\n");

    // Cell 1: healthy SPTF/MEMS (the Fig. 6 anchor cell).
    let mut driver = Driver::new(
        mems_workload(MEMS_SEED),
        SptfScheduler::new(),
        MemsDevice::new(MemsParams::default()),
    )
    .with_tracer(recorder(MEMS_REQUESTS));
    let sptf_report = driver.run();
    let pair = driver.tracer();
    check_timeline("mems_sptf", &pair.second, &sptf_report, &mut failures);
    timeline.push_str(&pair.second.csv_rows("mems_sptf"));

    let map = mems_heatmap(&pair.first);
    check(
        map.region_access_total() == map.total_stripes(),
        &mut failures,
        "mems_sptf: region accesses do not reconcile with stripes",
    );
    check(
        map.tip_sector_total() == map.total_sectors(),
        &mut failures,
        "mems_sptf: tip-group sectors do not reconcile with request sectors",
    );
    check(
        map.requests() == sptf_report.completed,
        &mut failures,
        "mems_sptf: heatmap requests != completions",
    );
    heatmap_csv.push_str(&map.csv_rows("mems_sptf"));
    println!(
        "mems_sptf:       {} windows ({} coarsenings), {} stripes over {} requests",
        pair.second.windows().len(),
        pair.second.coarsenings(),
        map.total_stripes(),
        map.requests()
    );
    let phases = phase_table(&sptf_report);
    println!("{}", phases.render());
    write_csv("obs_phase_breakdown.csv", &phases.to_csv());
    write_info("obs_trace.jsonl", &pair.first.to_jsonl());

    // Cell 2: 6% of tips fail in the first 0.5 s behind DegradedDevice.
    let tips = MemsParams::default().tips;
    let n_failed = (FAILED_TIP_FRAC * f64::from(tips)).round() as usize;
    let clock = FaultClock::tip_failures(
        FAULT_SEED,
        n_failed,
        tips,
        SimTime::from_secs(FAIL_WINDOW_S),
    );
    let device =
        DegradedDevice::mems(MemsDevice::new(MemsParams::default()), FAULT_SEED).with_spare_tips(8);
    let mut driver = Driver::new(
        mems_workload(FAULT_WORKLOAD_SEED),
        SptfScheduler::new(),
        device,
    )
    .with_faults(clock)
    .with_tracer(recorder(MEMS_REQUESTS));
    let ramp_report = driver.run();
    let pair = driver.tracer();
    check_timeline("mems_fault_ramp", &pair.second, &ramp_report, &mut failures);
    check(
        ramp_report.fault_events == n_failed as u64,
        &mut failures,
        "mems_fault_ramp: not every scheduled tip failure was delivered",
    );
    let recovery: f64 = pair
        .second
        .windows()
        .iter()
        .map(|w| w.phase.fault_recovery)
        .sum();
    check(
        recovery > 0.0,
        &mut failures,
        "mems_fault_ramp: no fault_recovery time in any window",
    );
    timeline.push_str(&pair.second.csv_rows("mems_fault_ramp"));
    println!(
        "mems_fault_ramp: {} tip failures, {:.1} ms recovery billed, {} windows",
        ramp_report.fault_events,
        recovery * 1e3,
        pair.second.windows().len()
    );

    // Cell 3: C-LOOK on the Atlas 10K baseline, for the zone heatmap.
    let params = DiskParams::quantum_atlas_10k();
    let capacity = params.total_sectors();
    let mut driver = Driver::new(
        RandomWorkload::paper(capacity, DISK_RATE, DISK_REQUESTS, DISK_SEED),
        ClookScheduler::new(),
        DiskDevice::new(params.clone()),
    )
    .with_tracer(recorder(DISK_REQUESTS));
    let disk_report = driver.run();
    let pair = driver.tracer();
    check_timeline("disk_clook", &pair.second, &disk_report, &mut failures);
    timeline.push_str(&pair.second.csv_rows("disk_clook"));

    let mut zones = ZoneHeatmap::new(&params);
    for ev in pair.first.events() {
        if let TraceEvent::Service { req, .. } = ev {
            zones.record(req.lbn, req.sectors);
        }
    }
    check(
        zones.requests() == disk_report.completed,
        &mut failures,
        "disk_clook: heatmap requests != completions",
    );
    check(
        zones.zone_sector_total() == zones.total_sectors(),
        &mut failures,
        "disk_clook: zone sectors do not reconcile",
    );
    heatmap_csv.push_str(&zones.csv_rows("disk_clook"));
    println!(
        "disk_clook:      {} requests over {} zones",
        zones.requests(),
        zones.zones()
    );

    // Cell 4: adaptive placement under a skewed bursty stream. Migration
    // chunk I/O is billed to foreground arrivals as background_wait, so
    // the timeline's util_background_wait column lights up exactly when
    // the placement layer is moving blocks.
    let capacity = MemsParams::default().geometry().total_sectors();
    let mut driver = Driver::new(
        ZipfWorkload::new(
            capacity,
            BLOCK_SECTORS,
            0.99,
            ADAPTIVE_RATE,
            ADAPTIVE_REQUESTS,
            ADAPTIVE_SEED,
        )
        .bursty(ADAPTIVE_BURST_LEN, ADAPTIVE_BURST_IDLE),
        SptfScheduler::new(),
        AdaptiveDevice::new(MemsDevice::new(MemsParams::default()), true),
    )
    .with_tracer(recorder(ADAPTIVE_REQUESTS));
    let adaptive_report = driver.run();
    let pair = driver.tracer();
    check_timeline(
        "mems_adaptive",
        &pair.second,
        &adaptive_report,
        &mut failures,
    );
    let migration = driver.device().migration_stats().clone();
    check(
        migration.swaps > 0,
        &mut failures,
        "mems_adaptive: no migrations on a skewed bursty stream",
    );
    let bg_wait: f64 = pair
        .second
        .windows()
        .iter()
        .map(|w| w.phase.background_wait)
        .sum();
    check(
        (bg_wait - adaptive_report.breakdown_sum.background_wait).abs() < 1e-9,
        &mut failures,
        "mems_adaptive: telemetry background_wait does not reconcile with the report",
    );
    timeline.push_str(&pair.second.csv_rows("mems_adaptive"));
    println!(
        "mems_adaptive:   {} swaps ({} chunk I/Os), {:.1} ms foreground wait, {} windows",
        migration.swaps,
        migration.chunk_ios,
        migration.foreground_wait_secs * 1e3,
        pair.second.windows().len()
    );

    write_csv("telemetry_timeline.csv", &timeline);
    write_csv("telemetry_heatmap.csv", &heatmap_csv);

    let summary = format!(
        "{{\n  \"cell\": \"mems_adaptive\",\n  \"completed\": {},\n  \
         \"mean_response_ms\": {:.4},\n  \"background_wait_s\": {:.6},\n  \
         \"migration\": {}\n}}\n",
        adaptive_report.completed,
        adaptive_report.response.mean_ms(),
        adaptive_report.breakdown_sum.background_wait,
        migration.summary_json()
    );
    write_info("telemetry_summary.json", &summary);
    if failures > 0 {
        eprintln!("\ntelemetry_report: {failures} check(s) FAILED");
        return ExitCode::FAILURE;
    }
    println!("\nall telemetry reconciliation checks passed");
    ExitCode::SUCCESS
}
