//! Fleet-scale experiments: scaling curves, tail latency, and
//! rebuild-under-load on the sharded multi-device engine.
//!
//! Three experiments, each emitting a byte-stable golden CSV:
//!
//! * `fleet_scale.csv` — capacity/throughput scaling from 1 to 1024
//!   striped MEMS devices at constant per-device load;
//! * `fleet_tail.csv` — fleet-wide response-time percentiles (p50–p99.9,
//!   the latter from the log-spaced tail histogram) on a 64-device fleet
//!   across load points;
//! * `fleet_rebuild.csv` — a RAID-10 fleet before/after injected tip
//!   failures, with and without a paced rebuild stream copying the
//!   surviving mirror back.
//!
//! The engine's determinism contract (identical digests at every
//! shard/thread split, and a one-station fleet equal to the single-loop
//! driver) is held by `crates/fleet/tests/determinism.rs`. Pass `--long`
//! for the informational 10× horizon: CSVs land under `target/long/` and
//! the byte-gated goldens in `results/` are never touched.

use mems_bench::{emit_csv, long_flag, Table};
use mems_device::{MemsDevice, MemsParams};
use mems_fleet::{FleetConfig, FleetEngine, FleetReport, RebuildPlan, VolumeSpec};
use mems_os::fault::DegradedDevice;
use mems_os::sched::SptfScheduler;
use storage_sim::{FaultClock, SimTime};
use storage_trace::RandomWorkload;

const MEMS_CAPACITY: u64 = 6_750_000;
const TIPS: u32 = 6400;
const STRIPE_UNIT: u32 = 64;
const WORKLOAD_SEED: u64 = 42;
const FAULT_SEED: u64 = 0x5EED_0077;
/// Per-device arrival rate for the scaling curve: moderate load, well
/// under a single device's saturation point.
const SCALE_RATE_PER_DEV: f64 = 500.0;
const SCALE_REQS_PER_DEV: u64 = 100;

/// Builds and runs a striped fleet of `devices` MEMS stations with
/// `scale ×` the baseline request count.
fn scale_cell(devices: usize, shards: usize, threads: usize, scale: u64) -> FleetReport {
    let params = MemsParams::default();
    let volume = VolumeSpec::flat(devices, STRIPE_UNIT);
    let reqs = SCALE_REQS_PER_DEV * devices as u64 * scale;
    let workload = RandomWorkload::paper(
        volume.capacity(MEMS_CAPACITY),
        SCALE_RATE_PER_DEV * devices as f64,
        reqs,
        WORKLOAD_SEED,
    );
    FleetEngine::streaming(
        (0..devices)
            .map(|_| MemsDevice::new(params.clone()))
            .collect(),
        |_| SptfScheduler::new(),
        volume,
        workload,
        FleetConfig {
            shards,
            threads,
            warmup_requests: reqs / 20,
            ..FleetConfig::default()
        },
    )
    .run()
}

fn scaling_experiment(t: &mut Vec<String>, scale: u64, long: bool) {
    let mut table = Table::new(vec![
        "devices".into(),
        "requests".into(),
        "throughput (req/s)".into(),
        "mean resp (ms)".into(),
        "p99.9 (ms)".into(),
        "utilization".into(),
    ]);
    let mut csv = String::from(
        "devices,requests,capacity_lbns,throughput_rps,mean_response_ms,p99_ms,p999_ms,\
         utilization,max_queue_depth\n",
    );
    for devices in [1usize, 4, 16, 64, 256, 1024] {
        let shards = devices.min(16);
        let threads = shards.min(8);
        let r = scale_cell(devices, shards, threads, scale);
        assert_eq!(
            r.station_restructures, 0,
            "station event stores never restructure"
        );
        let capacity = VolumeSpec::flat(devices, STRIPE_UNIT).capacity(MEMS_CAPACITY);
        table.row(vec![
            format!("{devices}"),
            format!("{}", r.completed),
            format!("{:.0}", r.throughput()),
            format!("{:.3}", r.response.mean() * 1e3),
            format!("{:.3}", r.tail_quantile(0.999) * 1e3),
            format!("{:.3}", r.utilization()),
        ]);
        csv.push_str(&format!(
            "{devices},{completed},{capacity},{tput:.3},{mean:.6},{p99:.6},{p999:.6},\
             {util:.6},{depth}\n",
            completed = r.completed,
            tput = r.throughput(),
            mean = r.response.mean() * 1e3,
            p99 = r.tail_quantile(0.99) * 1e3,
            p999 = r.tail_quantile(0.999) * 1e3,
            util = r.utilization(),
            depth = r.max_station_queue_depth,
        ));
    }
    println!(
        "fleet scaling (constant per-device load):\n{}",
        table.render()
    );
    emit_csv(long, "fleet_scale.csv", &csv);
    t.push("fleet_scale.csv".into());
}

fn tail_experiment(t: &mut Vec<String>, scale: u64, long: bool) {
    const DEVICES: usize = 64;
    let reqs: u64 = 200 * DEVICES as u64 * scale;
    let params = MemsParams::default();
    let volume = VolumeSpec::flat(DEVICES, STRIPE_UNIT);
    let mut table = Table::new(vec![
        "rate/dev (req/s)".into(),
        "p50 (ms)".into(),
        "p95 (ms)".into(),
        "p99 (ms)".into(),
        "p99.9 (ms)".into(),
        "max (ms)".into(),
    ]);
    let mut csv = String::from(
        "rate_per_dev,completed,mean_ms,p50_ms,p95_ms,p99_ms,p999_ms,max_ms,utilization\n",
    );
    for rate_per_dev in [400.0f64, 800.0, 1200.0] {
        let workload = RandomWorkload::paper(
            volume.capacity(MEMS_CAPACITY),
            rate_per_dev * DEVICES as f64,
            reqs,
            WORKLOAD_SEED,
        );
        let mut r = FleetEngine::streaming(
            (0..DEVICES)
                .map(|_| MemsDevice::new(params.clone()))
                .collect(),
            |_| SptfScheduler::new(),
            volume.clone(),
            workload,
            FleetConfig {
                shards: 16,
                threads: 8,
                warmup_requests: reqs / 20,
                ..FleetConfig::default()
            },
        )
        .run();
        let (p50, p95) = (r.response.percentile(0.50), r.response.percentile(0.95));
        table.row(vec![
            format!("{rate_per_dev:.0}"),
            format!("{:.3}", p50 * 1e3),
            format!("{:.3}", p95 * 1e3),
            format!("{:.3}", r.tail_quantile(0.99) * 1e3),
            format!("{:.3}", r.tail_quantile(0.999) * 1e3),
            format!("{:.3}", r.response.max() * 1e3),
        ]);
        csv.push_str(&format!(
            "{rate_per_dev:.0},{completed},{mean:.6},{p50:.6},{p95:.6},{p99:.6},{p999:.6},\
             {max:.6},{util:.6}\n",
            completed = r.completed,
            mean = r.response.mean() * 1e3,
            p50 = p50 * 1e3,
            p95 = p95 * 1e3,
            p99 = r.tail_quantile(0.99) * 1e3,
            p999 = r.tail_quantile(0.999) * 1e3,
            max = r.response.max() * 1e3,
            util = r.utilization(),
        ));
    }
    println!("fleet tail latency (64 devices):\n{}", table.render());
    emit_csv(long, "fleet_tail.csv", &csv);
    t.push("fleet_tail.csv".into());
}

fn rebuild_experiment(t: &mut Vec<String>, scale: u64, long: bool) {
    // RAID-10: a stripe of four mirror pairs over eight degraded-capable
    // MEMS devices. Station 0 loses tips at t = 0.5 s; the rebuild
    // stream copies its mirror peer (station 1) back, paced at 2 ms.
    const PAIRS: usize = 4;
    let reqs: u64 = 4000 * scale;
    const RATE: f64 = 2000.0;
    let params = MemsParams::default();
    let pair =
        |a: usize, b: usize| VolumeSpec::mirror(vec![VolumeSpec::leaf(a), VolumeSpec::leaf(b)]);
    let volume = VolumeSpec::stripe(
        (0..PAIRS).map(|p| pair(2 * p, 2 * p + 1)).collect(),
        STRIPE_UNIT,
    );
    let build = || {
        FleetEngine::streaming(
            (0..2 * PAIRS)
                .map(|i| {
                    DegradedDevice::mems(MemsDevice::new(params.clone()), FAULT_SEED + i as u64)
                        .with_spare_tips(8)
                })
                .collect(),
            |_| SptfScheduler::new(),
            volume.clone(),
            RandomWorkload::paper(volume.capacity(MEMS_CAPACITY), RATE, reqs, WORKLOAD_SEED),
            FleetConfig {
                shards: 4,
                threads: 4,
                warmup_requests: reqs / 20,
                ..FleetConfig::default()
            },
        )
    };
    let fault_clock = || FaultClock::tip_failures(FAULT_SEED, 64, TIPS, SimTime::from_secs(0.5));
    let rebuild = RebuildPlan {
        source: 1,
        target: 0,
        start: SimTime::from_secs(0.5),
        pace: SimTime::from_ms(2.0),
        span_lbns: 512 * 1024,
        chunk_sectors: 512,
    };

    let baseline = build().run();
    let mut faulted_engine = build();
    faulted_engine.set_station_faults(0, fault_clock());
    let faulted = faulted_engine.run();
    let mut rebuilding_engine = build();
    rebuilding_engine.set_station_faults(0, fault_clock());
    rebuild.inject(&mut rebuilding_engine);
    let rebuilding = rebuilding_engine.run();

    let mut table = Table::new(vec![
        "scenario".into(),
        "mean resp (ms)".into(),
        "p99 (ms)".into(),
        "p99.9 (ms)".into(),
        "faults".into(),
        "rebuild I/Os".into(),
    ]);
    let mut csv = String::from(
        "scenario,completed,background_completed,fault_events,mean_response_ms,p99_ms,p999_ms,\
         bg_mean_ms,makespan_s,utilization\n",
    );
    for (scenario, r) in [
        ("baseline", &baseline),
        ("tip_failures", &faulted),
        ("rebuild_under_load", &rebuilding),
    ] {
        table.row(vec![
            scenario.into(),
            format!("{:.3}", r.response.mean() * 1e3),
            format!("{:.3}", r.tail_quantile(0.99) * 1e3),
            format!("{:.3}", r.tail_quantile(0.999) * 1e3),
            format!("{}", r.fault_events),
            format!("{}", r.background_completed),
        ]);
        csv.push_str(&format!(
            "{scenario},{completed},{bg},{faults},{mean:.6},{p99:.6},{p999:.6},{bg_mean:.6},\
             {mk:.6},{util:.6}\n",
            completed = r.completed,
            bg = r.background_completed,
            faults = r.fault_events,
            mean = r.response.mean() * 1e3,
            p99 = r.tail_quantile(0.99) * 1e3,
            p999 = r.tail_quantile(0.999) * 1e3,
            bg_mean = r.background_response.mean() * 1e3,
            mk = r.makespan.as_secs(),
            util = r.utilization(),
        ));
    }
    assert!(faulted.fault_events > 0, "fault clock must deliver");
    assert_eq!(
        rebuilding.background_completed,
        2 * (512 * 1024 / 512),
        "every rebuild chunk must complete"
    );
    println!(
        "rebuild under load (RAID-10, 8 devices):\n{}",
        table.render()
    );
    emit_csv(long, "fleet_rebuild.csv", &csv);
    t.push("fleet_rebuild.csv".into());
}

fn main() {
    let long = long_flag(env!("CARGO_BIN_NAME"));
    let scale = if long { 10 } else { 1 };
    let mut written = Vec::new();
    scaling_experiment(&mut written, scale, long);
    tail_experiment(&mut written, scale, long);
    rebuild_experiment(&mut written, scale, long);
    println!("wrote {}", written.join(", "));
}
