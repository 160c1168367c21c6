//! Observers never steer: a fleet run with per-station telemetry
//! attached produces a [`FleetReport`] digest bit-identical to the
//! untraced run, for every shard/thread split, on MEMS and on the disk
//! baseline — and the merged [`FleetTimeline`] reconciles integer-exactly
//! with the report it shipped with. The engine's own wall-clock profile
//! is recorded on every run, traced or not.

use atlas_disk::{DiskDevice, DiskParams};
use mems_device::{MemsDevice, MemsParams};
use mems_os::sched::SptfScheduler;
use storage_sim::{NoopTracer, SimTime, StorageDevice, Telemetry};
use storage_trace::RandomWorkload;

use mems_fleet::{FleetConfig, FleetEngine, FleetTimeline, VolumeSpec};

const STATIONS: usize = 16;
const STRIPE_UNIT: u32 = 64;
const REQUESTS: u64 = 600;
const SEED: u64 = 42;
/// Telemetry window width: narrow enough that the short cells span
/// multiple windows.
const WINDOW_S: f64 = 0.01;

fn engine<D: StorageDevice>(
    mut make_device: impl FnMut() -> D,
    capacity: u64,
    rate: f64,
    shards: usize,
    threads: usize,
) -> FleetEngine<SptfScheduler, D, NoopTracer, RandomWorkload> {
    let volume = VolumeSpec::flat(STATIONS, STRIPE_UNIT);
    let workload = RandomWorkload::paper(volume.capacity(capacity), rate, REQUESTS, SEED);
    FleetEngine::streaming(
        (0..STATIONS).map(|_| make_device()).collect(),
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
/// report, with a small (coarsening) and a large window budget.
fn assert_observers_invisible<D: StorageDevice + Send>(
    mut make_device: impl FnMut() -> D,
    capacity: u64,
    rate: f64,
) {
    let baseline = engine(&mut make_device, capacity, rate, 1, 1).run();
    for (shards, threads) in [(1, 1), (4, 4), (16, 8)] {
        let untraced = engine(&mut make_device, capacity, rate, shards, threads).run();
        assert_eq!(
            untraced.digest(),
            baseline.digest(),
            "untraced run diverged at shards={shards} threads={threads}"
        );
        for max_windows in [4usize, 4096] {
            let traced = engine(&mut make_device, capacity, rate, shards, threads)
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
            || MemsDevice::new(params.clone()),
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
    assert_observers_invisible(|| MemsDevice::new(params.clone()), capacity, 4000.0);
}

#[test]
fn telemetry_is_invisible_on_disk() {
    let params = DiskParams::quantum_atlas_10k();
    let capacity = params.total_sectors();
    assert_observers_invisible(|| DiskDevice::new(params.clone()), capacity, 800.0);
}
