//! Adaptive vs static placement on skewed workloads.
//!
//! Three series per workload, all under SPTF on the MEMS device:
//!
//! * `bare` — no placement layer (the device's native layout);
//! * `organ_static` — the strongest static baseline: an offline
//!   organ-pipe permutation built from a *complete frequency census of
//!   the exact request stream*, served through the same wrapper with
//!   migrations off;
//! * `adaptive` — the online policy: identity start, decayed frequency
//!   tracking, idle-window migration toward the center.
//!
//! Workloads: classical Zipf(0.99) block popularity (spatially
//! scattered — good for any frequency-aware layout, static or online)
//! and a shifting hotspot (the span relocates every epoch — a static
//! layout can only average over epochs, an online one chases the drift).
//!
//! Every row is split into a `foreground` phase (driver-visible response
//! stats) and a `migration` phase (the wrapper's separately-accounted
//! migration traffic: chunk I/O tails, busy time, energy, and the wait
//! it imposed on foreground arrivals), so migration cost is visible,
//! not amortized away. Output: byte-stable `results/placement_sweep.csv`.
//!
//! The bin closes with the headline gate: adaptive must beat the static
//! organ pipe's foreground mean on the shifting-hotspot workload, or the
//! process exits non-zero. That a migrations-off wrap at the identity
//! placement reproduces the bare device bit for bit, on MEMS and disk, is
//! held by `crates/bench/tests/placement.rs`. Pass `--long` for the
//! informational 10× horizon (CSV under `target/long/`, goldens
//! untouched).
//!
//! Each series replays a fresh copy of its workload's generator stream,
//! and the census takes one more pass, so no request list is ever held.

use mems_bench::{emit_csv, long_flag, Table};
use mems_device::{MemsDevice, MemsParams};
use mems_os::layout::OrganPipeMap;
use mems_os::placement::{AdaptiveDevice, MigrationStats, BLOCK_SECTORS};
use mems_os::sched::SptfScheduler;
use storage_sim::{Driver, SimReport, Workload};
use storage_trace::{ShiftingHotspotWorkload, ZipfWorkload};

const MEMS_CAPACITY: u64 = 6_750_000;
const WORKLOAD_SEED: u64 = 42;
const RATE: f64 = 500.0;
const REQUESTS: u64 = 900_000;
const WARMUP: u64 = 2_000;
/// Hot working set: 0.5% of the device (~33.7k sectors, 64 scattered
/// fragments of ~527 sectors, ~100 placement blocks). Compact enough
/// that each gathered block repays its 2 MB swap many times over within
/// one epoch, and that idle-window bandwidth re-centers the whole set
/// in the first third of an epoch. The *union* of all 60 epochs still
/// covers over half the device, which is what starves the static
/// baseline: it can only organ-pipe that diluted union, while the
/// online policy re-gathers each epoch's compact set.
const HOT_SECTORS: u64 = MEMS_CAPACITY / 200;
/// The working set relocates every 15 s — 120 epochs over the 1800 s run.
const EPOCH_SECS: f64 = 15.0;
const HOT_FRACTION: f64 = 0.9;
/// ON/OFF arrivals: bursts of 50 requests (a 100 ms mean cycle at the
/// 500 req/s long-run rate) separated by ~60 ms idle gaps — the regime
/// idle-window migration is designed for. Pure Poisson gaps are
/// memoryless, so every idle-triggered swap would overrun the next
/// arrival and the wait bill would drown the placement benefit.
const BURST_LEN: u64 = 50;
const BURST_IDLE: f64 = 0.060;

/// One series: runs a fresh `make()` stream and returns the report plus
/// the wrapper's migration stats (`None` for the bare series).
fn run_series<W: Workload>(
    make: impl Fn() -> W,
    series: &str,
) -> (SimReport, Option<MigrationStats>) {
    let params = MemsParams::default();
    let workload = make();
    match series {
        "bare" => {
            let mut driver = Driver::new(
                workload,
                SptfScheduler::new(),
                MemsDevice::new(params.clone()),
            )
            .warmup_requests(WARMUP);
            (driver.run(), None)
        }
        "organ_static" => {
            let dev = AdaptiveDevice::new(MemsDevice::new(params.clone()), false);
            let map = OrganPipeMap::build(&dev.census(make()));
            let dev = dev.with_initial_placement(&map);
            let mut driver =
                Driver::new(workload, SptfScheduler::new(), dev).warmup_requests(WARMUP);
            let report = driver.run();
            let stats = driver.device().migration_stats().clone();
            (report, Some(stats))
        }
        "adaptive" => {
            let dev = AdaptiveDevice::new(MemsDevice::new(params.clone()), true);
            let mut driver =
                Driver::new(workload, SptfScheduler::new(), dev).warmup_requests(WARMUP);
            let report = driver.run();
            let stats = driver.device().migration_stats().clone();
            (report, Some(stats))
        }
        _ => unreachable!("unknown series"),
    }
}

struct Cell {
    workload: &'static str,
    series: &'static str,
    report: SimReport,
    migration: Option<MigrationStats>,
}

fn run_workload<W: Workload>(workload: &'static str, make: impl Fn() -> W, cells: &mut Vec<Cell>) {
    for series in ["bare", "organ_static", "adaptive"] {
        let (report, migration) = run_series(&make, series);
        cells.push(Cell {
            workload,
            series,
            report,
            migration,
        });
    }
}

fn main() {
    let long = long_flag(env!("CARGO_BIN_NAME"));
    let scale = if long { 10 } else { 1 };
    println!(
        "\nplacement sweep: {} requests/cell at {RATE:.0} req/s, {BLOCK_SECTORS}-sector blocks\n",
        REQUESTS * scale
    );

    let mut cells = Vec::new();
    let requests = REQUESTS * scale;
    let zipf = || {
        ZipfWorkload::new(
            MEMS_CAPACITY,
            BLOCK_SECTORS,
            0.99,
            RATE,
            requests,
            WORKLOAD_SEED,
        )
        .bursty(BURST_LEN, BURST_IDLE)
    };
    let hotspot = || {
        ShiftingHotspotWorkload::new(
            MEMS_CAPACITY,
            HOT_SECTORS,
            EPOCH_SECS,
            HOT_FRACTION,
            RATE,
            requests,
            WORKLOAD_SEED,
        )
        .bursty(BURST_LEN, BURST_IDLE)
    };
    run_workload("zipf", zipf, &mut cells);
    run_workload("hotspot", hotspot, &mut cells);

    let mut table = Table::new(
        [
            "workload", "series", "phase", "requests", "mean_ms", "p50_ms", "p95_ms", "p99_ms",
            "max_ms", "busy_s", "util", "energy_j", "swaps", "wait_ms",
        ]
        .map(String::from)
        .to_vec(),
    );
    for cell in &mut cells {
        let makespan = cell.report.makespan.as_secs();
        let resp = &mut cell.report.response;
        table.row(vec![
            cell.workload.into(),
            cell.series.into(),
            "foreground".into(),
            cell.report.completed.to_string(),
            format!("{:.3}", resp.mean_ms()),
            format!("{:.3}", resp.percentile(0.50) * 1e3),
            format!("{:.3}", resp.percentile(0.95) * 1e3),
            format!("{:.3}", resp.percentile(0.99) * 1e3),
            format!("{:.3}", resp.max() * 1e3),
            format!("{:.3}", cell.report.busy_secs),
            format!("{:.4}", cell.report.busy_secs / makespan),
            "0.000".into(),
            "0".into(),
            format!("{:.3}", cell.report.breakdown_sum.background_wait * 1e3),
        ]);
        // The bare series has no placement layer; its migration row is
        // all zeros.
        let m = cell.migration.clone().unwrap_or_default();
        table.row(vec![
            cell.workload.into(),
            cell.series.into(),
            "migration".into(),
            m.chunk_ios.to_string(),
            format!("{:.3}", m.chunk_time.mean() * 1e3),
            format!("{:.3}", m.chunk_tail.quantile(0.50) * 1e3),
            format!("{:.3}", m.chunk_tail.quantile(0.95) * 1e3),
            format!("{:.3}", m.chunk_tail.quantile(0.99) * 1e3),
            format!("{:.3}", m.chunk_time.max().max(0.0) * 1e3),
            format!("{:.3}", m.busy_secs),
            format!("{:.4}", m.busy_secs / makespan),
            format!("{:.3}", m.energy_j),
            m.swaps.to_string(),
            format!("{:.3}", m.foreground_wait_secs * 1e3),
        ]);
    }
    println!("{}", table.render());

    emit_csv(long, "placement_sweep.csv", &table.to_csv());

    // Headline gate: on the shifting hotspot, the online policy must
    // beat the offline-census organ pipe on foreground mean response.
    let mean_of = |cells: &[Cell], series: &str| {
        cells
            .iter()
            .find(|c| c.workload == "hotspot" && c.series == series)
            .expect("cell exists")
            .report
            .response
            .mean_ms()
    };
    let static_mean = mean_of(&cells, "organ_static");
    let adaptive_mean = mean_of(&cells, "adaptive");
    println!(
        "hotspot foreground mean: organ_static {static_mean:.3} ms, \
         adaptive {adaptive_mean:.3} ms"
    );
    if adaptive_mean >= static_mean {
        eprintln!("FAIL: adaptive placement did not beat the static organ pipe");
        std::process::exit(1);
    }
}
