//! Observers never steer: a fleet run with per-station telemetry
//! attached produces a [`FleetReport`] digest bit-identical to the
//! untraced run, for every shard/thread split, on MEMS, on the disk
//! baseline and on degraded MEMS stations taking tip failures — and the
//! merged [`FleetTimeline`] reconciles integer-exactly with the report it
//! shipped with. The engine's own wall-clock profile is recorded on every
//! run, traced or not.

use atlas_disk::{DiskDevice, DiskParams};
use mems_device::{MemsDevice, MemsParams};
use mems_os::fault::DegradedDevice;
use mems_os::sched::SptfScheduler;
use storage_sim::{FaultClock, NoopTracer, SimTime, StorageDevice, Telemetry};
use storage_trace::RandomWorkload;

use mems_fleet::{FleetConfig, FleetEngine, FleetTimeline, VolumeSpec};

const STATIONS: usize = 16;
const STRIPE_UNIT: u32 = 64;
const REQUESTS: u64 = 600;
const SEED: u64 = 42;
/// The station a faulted cell fails tips on.
const FAULTED_STATION: usize = 5;
/// Telemetry window width: narrow enough that the short cells span
/// multiple windows.
const WINDOW_S: f64 = 0.01;

fn engine<D: StorageDevice>(
    make_device: impl FnMut(usize) -> D,
    capacity: u64,
    rate: f64,
    shards: usize,
    threads: usize,
) -> FleetEngine<SptfScheduler, D, NoopTracer, RandomWorkload> {
    let volume = VolumeSpec::flat(STATIONS, STRIPE_UNIT);
    let workload = RandomWorkload::paper(volume.capacity(capacity), rate, REQUESTS, SEED);
    FleetEngine::streaming(
        (0..STATIONS).map(make_device).collect(),
        |_| SptfScheduler::new(),
        volume,
        workload,
        FleetConfig {
            shards,
            threads,
            epoch: SimTime::from_ms(10.0),
            warmup_requests: 0,
            ..FleetConfig::default()
        },
    )
}

/// Instrumented runs must be bit-identical to untraced runs at every
/// shard/thread split, and the merged timeline must reconcile with the
/// report, with a small (coarsening) and a large window budget. Station
/// `FAULTED_STATION` runs under `faults`, which every split must deliver.
fn assert_observers_invisible<D: StorageDevice + Send>(
    mut make_device: impl FnMut(usize) -> D,
    capacity: u64,
    rate: f64,
    faults: FaultClock,
) {
    let mut build = |shards, threads| {
        let mut fleet = engine(&mut make_device, capacity, rate, shards, threads);
        fleet.set_station_faults(FAULTED_STATION, faults.clone());
        fleet
    };
    let baseline = build(1, 1).run();
    for (shards, threads) in [(1, 1), (4, 4), (16, 8)] {
        let untraced = build(shards, threads).run();
        assert_eq!(
            untraced.digest(),
            baseline.digest(),
            "untraced run diverged at shards={shards} threads={threads}"
        );
        assert_eq!(
            untraced.fault_events > 0,
            faults.remaining() > 0,
            "fault delivery at shards={shards} threads={threads}"
        );
        for max_windows in [4usize, 4096] {
            let traced = build(shards, threads)
                .with_station_tracers(|_| Telemetry::new(WINDOW_S, max_windows))
                .run_instrumented();
            assert_eq!(
                traced.report.digest(),
                baseline.digest(),
                "telemetry (budget {max_windows}) perturbed the run at \
                 shards={shards} threads={threads}"
            );
            let timeline = FleetTimeline::merge(&traced.tracers);
            timeline
                .reconcile(&traced.report)
                .expect("timeline reconciles with the report");
            assert!(traced.profile.barriers > 0, "profile counted no barriers");
        }
    }
}

/// An untraced fleet still records the engine's wall-clock profile: every
/// batch wait and merge, and each shard's advance time, at every
/// shard/thread split (shards beyond the station count fold away).
#[test]
fn untraced_fleet_records_its_engine_profile() {
    let params = MemsParams::default();
    let capacity = params.geometry().total_sectors();
    for (shards, threads) in [(1, 1), (3, 2), (4, 4), (32, 8)] {
        let run = engine(
            |_| MemsDevice::new(params.clone()),
            capacity,
            4000.0,
            shards,
            threads,
        )
        .run_instrumented();
        let profile = &run.profile;
        let at = format!("shards={shards} threads={threads}");
        assert!(profile.barriers > 0, "{at}: no batches counted");
        assert_eq!(profile.shard_nanos.len(), shards.min(STATIONS), "{at}");
        assert!(
            profile.shard_nanos.iter().sum::<u64>() > 0,
            "{at}: no advance time"
        );
        assert!(profile.batch_wait.calls > 0, "{at}: no batch waits");
        assert!(profile.merge.calls > 0, "{at}: no merges");
    }
}

#[test]
fn telemetry_is_invisible_on_mems() {
    let params = MemsParams::default();
    let capacity = params.geometry().total_sectors();
    assert_observers_invisible(
        |_| MemsDevice::new(params.clone()),
        capacity,
        4000.0,
        FaultClock::empty(),
    );
}

#[test]
fn telemetry_is_invisible_on_disk() {
    let params = DiskParams::quantum_atlas_10k();
    let capacity = params.total_sectors();
    assert_observers_invisible(
        |_| DiskDevice::new(params.clone()),
        capacity,
        800.0,
        FaultClock::empty(),
    );
}

/// Degraded stations with no spare tips, one of which loses 64 tips in
/// the first 50 ms and pays reconstruction for the rest of the run: the
/// fault chain and the recovery phase telemetry bills must not steer
/// either.
#[test]
fn telemetry_is_invisible_on_degraded_mems() {
    let params = MemsParams::default();
    let capacity = params.geometry().total_sectors();
    assert_observers_invisible(
        |i| {
            DegradedDevice::mems(MemsDevice::new(params.clone()), SEED + i as u64)
                .with_spare_tips(0)
                .with_parity(6400)
        },
        capacity,
        4000.0,
        FaultClock::tip_failures(SEED, 64, 6400, SimTime::from_ms(50.0)),
    );
}
