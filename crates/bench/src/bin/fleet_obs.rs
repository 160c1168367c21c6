//! Fleet-scale observability: deterministic fleet timelines, per-station
//! health, straggler detection, rebuild progress, pooled media heat, and
//! the engine's own wall-clock profile.
//!
//! Cells:
//!
//! * `fleet16` — 16 striped MEMS stations where station 5 loses tips
//!   early with **zero** spares, so it keeps paying Reed–Solomon
//!   reconstruction for the whole run: the windowed straggler detector
//!   must flag exactly that station. Per-station [`Telemetry`] merges
//!   into a [`FleetTimeline`] that reconciles integer-exactly with the
//!   [`mems_fleet::FleetReport`], per-station health rows quantify the
//!   utilization/tail skew, and the per-station completion streams pool
//!   into one fleet [`MediaHeatmap`] via the exact grid merge.
//! * `rebuild8` — the RAID-10 rebuild-under-load scenario with telemetry
//!   attached: the timeline shows the rebuild window, and a
//!   [`ProgressSeries`] over station 0's background writes tracks copied
//!   sectors per window (total must equal the rebuild span exactly).
//! * `adaptive4` — a 4-station fleet of adaptive-placement wrappers on a
//!   skewed bursty stream: per-station migration ledgers pool by exact
//!   accumulation into one fleet migration summary.
//!
//! Each check above, and the straggler detector flagging station 5 and
//! only station 5, exits non-zero on failure before any CSV is written.
//! That observers never steer (a telemetry-attached run is
//! digest-identical to the untraced one at every shard/thread split,
//! faulted stations included) is held by `tests/fleet_observability.rs`.
//!
//! Outputs: byte-stable goldens `results/fleet_obs_timeline.csv`,
//! `fleet_obs_health.csv`, `fleet_obs_rebuild.csv`, and
//! `fleet_obs_heatmap.csv` (all sim-time derived; CI diffs them), plus
//! `target/fleet_obs_summary.json`, which also carries the wall-clock
//! [`mems_fleet::FleetProfile`] (batch wait, merge time, shard
//! imbalance) of the `fleet16` run and is therefore untracked. Pass
//! `--long` for the informational 10× horizon (CSVs under
//! `target/long/`).
//!
//! The pooled heatmap is built from recorded completion streams, which
//! carry no energy numbers — its `energy_j` column is structurally zero
//! (per-station energy lives in the timeline's `energy_w` series).

use mems_bench::{emit_csv, long_flag, write_info};
use mems_device::{MediaHeatmap, MemsDevice, MemsParams};
use mems_fleet::{
    detect_stragglers, tail_skew, utilization_skew, FleetConfig, FleetEngine, FleetTimeline,
    ProgressSeries, RebuildPlan, StationHealth, VolumeSpec,
};
use mems_os::fault::DegradedDevice;
use mems_os::placement::{AdaptiveDevice, MigrationStats, BLOCK_SECTORS};
use mems_os::sched::SptfScheduler;
use storage_sim::{FaultClock, IoKind, NoopTracer, SimReport, SimTime, Telemetry};
use storage_trace::{RandomWorkload, ZipfWorkload};

const MEMS_CAPACITY: u64 = 6_750_000;
const TIPS: u32 = 6400;
const STRIPE_UNIT: u32 = 64;
const WORKLOAD_SEED: u64 = 42;
const FAULT_SEED: u64 = 0x5EED_0077;
const RATE_PER_DEV: f64 = 500.0;
/// Telemetry windows: 100 ms buckets, coarsening past 256 windows.
const WINDOW_S: f64 = 0.1;
const MAX_WINDOWS: usize = 256;
/// MEMS region grid for the pooled heatmap (matches `telemetry_report`).
const GRID_X: usize = 10;
const GRID_Y: usize = 9;

/// The straggler cell: 16 stations, station 5 degraded.
const FLEET16_DEVICES: usize = 16;
const FLEET16_REQS_PER_DEV: u64 = 2_000;
const STRAGGLER_STATION: usize = 5;
/// Tips station 5 loses in the first 0.2 s. With zero spares every
/// access over a lost tip pays reconstruction for the rest of the run;
/// the parity budget covers the worst stripe, so the damage is always
/// reconstructable (never an unrecoverable far-remap) and the penalty is
/// pure service time.
const STRAGGLER_FAILED_TIPS: usize = 640;

/// The adaptive cell: Zipf(0.99) over the placement blocks in ON/OFF
/// bursts. The stripe unit equals the block size, so each hot fleet
/// block lands whole on one station and stays hot in that station's
/// local LBN space.
const ADAPTIVE_DEVICES: usize = 4;
const ADAPTIVE_REQUESTS: u64 = 20_000;
/// Fleet-level bursts: `50 × stations` requests per ON phase, so each
/// station sees the same ~50-request bursts and ~60 ms idle gaps the
/// single-device placement sweep tunes its idle-window migration for.
const ADAPTIVE_BURST_LEN: u64 = 50 * ADAPTIVE_DEVICES as u64;
const ADAPTIVE_BURST_IDLE: f64 = 0.060;

fn telemetry() -> Telemetry {
    Telemetry::new(WINDOW_S, MAX_WINDOWS)
}

/// Builds the `fleet16` engine: a striped fleet of degraded-capable MEMS
/// stations with tip failures (and no spares) on the straggler station.
fn fleet16_engine(
    scale: u64,
) -> FleetEngine<SptfScheduler, DegradedDevice<MemsDevice>, NoopTracer, RandomWorkload> {
    let params = MemsParams::default();
    let volume = VolumeSpec::flat(FLEET16_DEVICES, STRIPE_UNIT);
    let reqs = FLEET16_REQS_PER_DEV * FLEET16_DEVICES as u64 * scale;
    let workload = RandomWorkload::paper(
        volume.capacity(MEMS_CAPACITY),
        RATE_PER_DEV * FLEET16_DEVICES as f64,
        reqs,
        WORKLOAD_SEED,
    );
    let mut engine = FleetEngine::streaming(
        (0..FLEET16_DEVICES)
            .map(|i| {
                DegradedDevice::mems(MemsDevice::new(params.clone()), FAULT_SEED + i as u64)
                    .with_spare_tips(0)
                    .with_parity(TIPS as usize)
            })
            .collect(),
        |_| SptfScheduler::new(),
        volume,
        workload,
        FleetConfig {
            shards: 4,
            threads: 4,
            warmup_requests: 0,
            ..FleetConfig::default()
        },
    );
    engine.set_station_faults(
        STRAGGLER_STATION,
        FaultClock::tip_failures(
            FAULT_SEED,
            STRAGGLER_FAILED_TIPS,
            TIPS,
            SimTime::from_secs(0.2),
        ),
    );
    engine
}

/// Builds the pooled fleet heatmap: one per-station map from each
/// recorded completion stream, merged by the exact grid merge. Completion
/// streams carry no energy, so energy pools as zero by construction.
fn pooled_heatmap(params: &MemsParams, stations: &[SimReport]) -> MediaHeatmap {
    let mut fleet_map: Option<MediaHeatmap> = None;
    for s in stations {
        let completions = s.completions.as_ref().expect("fleet records completions");
        let map = MediaHeatmap::from_services(
            params,
            GRID_X,
            GRID_Y,
            completions
                .iter()
                .map(|c| (c.request.lbn, c.request.sectors, 0.0)),
        );
        match &mut fleet_map {
            Some(m) => m.merge(&map),
            None => fleet_map = Some(map),
        }
    }
    fleet_map.expect("fleet has stations")
}

struct StragglerSummary {
    window_secs: f64,
    enter_window: usize,
    utilization_skew: f64,
    tail_skew: f64,
    engine_profile: String,
}

/// The `fleet16` cell: timeline + health + straggler check + pooled heat.
fn straggler_cell(
    scale: u64,
    timeline_csv: &mut String,
    health_csv: &mut String,
    heatmap_csv: &mut String,
) -> StragglerSummary {
    let run = fleet16_engine(scale)
        .with_station_tracers(|_| telemetry())
        .run_instrumented();
    let report = &run.report;

    let timeline = FleetTimeline::merge(&run.tracers);
    if let Err(e) = timeline.reconcile(report) {
        eprintln!("FAIL: fleet16 timeline does not reconcile: {e}");
        std::process::exit(1);
    }
    timeline_csv.push_str(&timeline.csv_rows("fleet16"));

    let health = StationHealth::from_report(report);
    for h in &health {
        health_csv.push_str(&h.csv_row("fleet16"));
    }
    let uskew = utilization_skew(&health);
    let tskew = tail_skew(&health);

    // Exactly station 5 is a straggler, and it stays flagged —
    // zero spares means the slowdown never heals.
    let stragglers = detect_stragglers(&run.tracers);
    if stragglers.stragglers() != vec![STRAGGLER_STATION] {
        eprintln!(
            "FAIL: straggler detector flagged {:?}, expected [{STRAGGLER_STATION}]",
            stragglers.stragglers()
        );
        eprintln!("  events: {:?}", stragglers.events);
        std::process::exit(1);
    }
    let spurious = stragglers
        .events
        .iter()
        .any(|e| e.station != STRAGGLER_STATION);
    if spurious {
        eprintln!(
            "FAIL: straggler transitions on healthy stations: {:?}",
            stragglers.events
        );
        std::process::exit(1);
    }
    let enter_window = stragglers
        .events
        .iter()
        .find(|e| e.entered)
        .map(|e| e.window)
        .expect("an enter event exists for the flagged station");

    let map = pooled_heatmap(&MemsParams::default(), &report.stations);
    if map.requests() != report.subs_completed {
        eprintln!(
            "FAIL: pooled heatmap requests {} != fleet sub-I/Os {}",
            map.requests(),
            report.subs_completed
        );
        std::process::exit(1);
    }
    if map.region_access_total() != map.total_stripes()
        || map.tip_sector_total() != map.total_sectors()
    {
        eprintln!("FAIL: pooled heatmap does not reconcile with its own totals");
        std::process::exit(1);
    }
    heatmap_csv.push_str(&map.csv_rows("fleet16"));

    println!(
        "fleet16:  {} sub-I/Os, {} windows at {:.1} ms; station {STRAGGLER_STATION} \
         flagged at detector window {enter_window} of {:.1} ms ({} faults); \
         util skew {uskew:.3}, tail skew {tskew:.3}",
        report.subs_completed,
        timeline.windows().len(),
        timeline.window_secs() * 1e3,
        stragglers.window_secs * 1e3,
        report.fault_events,
    );
    println!(
        "profile:  {} barriers, shard imbalance {:.3} (wall-clock, informational)",
        run.profile.barriers,
        run.profile.imbalance(),
    );
    StragglerSummary {
        window_secs: stragglers.window_secs,
        enter_window,
        utilization_skew: uskew,
        tail_skew: tskew,
        engine_profile: run.profile.summary_json(),
    }
}

/// The `rebuild8` cell: RAID-10 rebuild under load with telemetry; the
/// progress series over station 0's background writes must account for
/// every copied sector.
fn rebuild_cell(
    scale: u64,
    timeline_csv: &mut String,
    health_csv: &mut String,
    rebuild_csv: &mut String,
) {
    const PAIRS: usize = 4;
    let reqs: u64 = 4000 * scale;
    const RATE: f64 = 2000.0;
    const SPAN_LBNS: u64 = 512 * 1024;
    const CHUNK_SECTORS: u32 = 512;
    let params = MemsParams::default();
    let pair =
        |a: usize, b: usize| VolumeSpec::mirror(vec![VolumeSpec::leaf(a), VolumeSpec::leaf(b)]);
    let volume = VolumeSpec::stripe(
        (0..PAIRS).map(|p| pair(2 * p, 2 * p + 1)).collect(),
        STRIPE_UNIT,
    );
    let workload = RandomWorkload::paper(volume.capacity(MEMS_CAPACITY), RATE, reqs, WORKLOAD_SEED);
    let mut engine = FleetEngine::streaming(
        (0..2 * PAIRS)
            .map(|i| {
                DegradedDevice::mems(MemsDevice::new(params.clone()), FAULT_SEED + i as u64)
                    .with_spare_tips(8)
            })
            .collect(),
        |_| SptfScheduler::new(),
        volume,
        workload,
        FleetConfig {
            shards: 4,
            threads: 4,
            warmup_requests: 0,
            ..FleetConfig::default()
        },
    );
    engine.set_station_faults(
        0,
        FaultClock::tip_failures(FAULT_SEED, 64, TIPS, SimTime::from_secs(0.5)),
    );
    RebuildPlan {
        source: 1,
        target: 0,
        start: SimTime::from_secs(0.5),
        pace: SimTime::from_ms(2.0),
        span_lbns: SPAN_LBNS,
        chunk_sectors: CHUNK_SECTORS,
    }
    .inject(&mut engine);
    let run = engine
        .with_station_tracers(|_| telemetry())
        .run_instrumented();
    let report = &run.report;

    let timeline = FleetTimeline::merge(&run.tracers);
    if let Err(e) = timeline.reconcile(report) {
        eprintln!("FAIL: rebuild8 timeline does not reconcile: {e}");
        std::process::exit(1);
    }
    timeline_csv.push_str(&timeline.csv_rows("rebuild8"));
    for h in &StationHealth::from_report(report) {
        health_csv.push_str(&h.csv_row("rebuild8"));
    }

    // Rebuild progress: background writes landing on the rebuild target.
    // Background ids follow the dense foreground block, so `reqs` is the
    // exact id floor.
    let target_completions = report.stations[0]
        .completions
        .as_ref()
        .expect("fleet records completions");
    let progress =
        ProgressSeries::from_completions(target_completions, reqs, Some(IoKind::Write), WINDOW_S);
    if progress.total() != SPAN_LBNS {
        eprintln!(
            "FAIL: rebuild progress accounts for {} sectors, span is {SPAN_LBNS}",
            progress.total()
        );
        std::process::exit(1);
    }
    rebuild_csv.push_str(&progress.csv_rows("rebuild8"));
    println!(
        "rebuild8: {} rebuild chunks over {} windows; {} copied sectors reconcile with the span",
        report.background_completed,
        progress.sectors.len(),
        progress.total(),
    );
}

/// The `adaptive4` cell: pooled migration ledger across a fleet of
/// adaptive-placement stations.
fn adaptive_cell(scale: u64) -> MigrationStats {
    let params = MemsParams::default();
    let volume = VolumeSpec::flat(ADAPTIVE_DEVICES, BLOCK_SECTORS);
    let workload = ZipfWorkload::new(
        volume.capacity(MEMS_CAPACITY),
        BLOCK_SECTORS,
        0.99,
        RATE_PER_DEV * ADAPTIVE_DEVICES as f64,
        ADAPTIVE_REQUESTS * scale,
        WORKLOAD_SEED,
    )
    .bursty(ADAPTIVE_BURST_LEN, ADAPTIVE_BURST_IDLE);
    let run = FleetEngine::streaming(
        (0..ADAPTIVE_DEVICES)
            .map(|_| AdaptiveDevice::new(MemsDevice::new(params.clone()), true))
            .collect(),
        |_| SptfScheduler::new(),
        volume,
        workload,
        FleetConfig {
            shards: ADAPTIVE_DEVICES,
            threads: ADAPTIVE_DEVICES,
            warmup_requests: 0,
            ..FleetConfig::default()
        },
    )
    .run_instrumented();

    let mut pooled = MigrationStats::default();
    let mut migrating_stations = 0usize;
    for device in &run.devices {
        let stats = device.migration_stats();
        if stats.swaps > 0 {
            migrating_stations += 1;
        }
        pooled.accumulate(stats);
    }
    if pooled.swaps == 0 {
        eprintln!("FAIL: no station migrated on a skewed bursty fleet stream");
        std::process::exit(1);
    }
    println!(
        "adaptive4: {} swaps pooled over {migrating_stations}/{ADAPTIVE_DEVICES} migrating \
         stations ({} chunk I/Os, {:.3} ms mean chunk)",
        pooled.swaps,
        pooled.chunk_ios,
        pooled.chunk_time.mean() * 1e3,
    );
    pooled
}

fn main() {
    let long = long_flag(env!("CARGO_BIN_NAME"));

    let scale = if long { 10 } else { 1 };

    let mut timeline_csv = String::from(FleetTimeline::csv_header());
    timeline_csv.push('\n');
    let mut health_csv = String::from(StationHealth::csv_header());
    health_csv.push('\n');
    let mut rebuild_csv = String::from(ProgressSeries::csv_header());
    rebuild_csv.push('\n');
    let mut heatmap_csv = String::from("cell,kind,i,j,accesses,sectors,dwell_s,energy_j\n");

    let straggler = straggler_cell(scale, &mut timeline_csv, &mut health_csv, &mut heatmap_csv);
    rebuild_cell(scale, &mut timeline_csv, &mut health_csv, &mut rebuild_csv);
    let migration = adaptive_cell(scale);

    emit_csv(long, "fleet_obs_timeline.csv", &timeline_csv);
    emit_csv(long, "fleet_obs_health.csv", &health_csv);
    emit_csv(long, "fleet_obs_rebuild.csv", &rebuild_csv);
    emit_csv(long, "fleet_obs_heatmap.csv", &heatmap_csv);

    let summary = format!(
        "{{\n  \"fleet16\": {{\n    \"straggler_station\": {STRAGGLER_STATION},\n    \
         \"straggler_window\": {},\n    \"detector_window_s\": {:.3},\n    \
         \"utilization_skew\": {:.4},\n    \"tail_skew\": {:.4}\n  }},\n  \
         \"migration\": {},\n  \"engine_profile\": {}\n}}\n",
        straggler.enter_window,
        straggler.window_secs,
        straggler.utilization_skew,
        straggler.tail_skew,
        migration.summary_json(),
        straggler.engine_profile,
    );
    write_info("fleet_obs_summary.json", &summary);
    println!("\nall fleet observability checks passed");
}
