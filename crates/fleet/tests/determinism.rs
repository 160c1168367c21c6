//! The fleet determinism contract: bit-identical reports for any shard
//! count, worker-thread count, and batch width — including faulted and
//! rebuild-under-load runs, idle stations, and more workers than
//! stations — plus zero event-store restructures and panic propagation
//! out of worker threads.

use mems_device::{MemsDevice, MemsParams};
use mems_os::fault::DegradedDevice;
use mems_os::sched::SptfScheduler;
use storage_sim::{
    ConstantDevice, Driver, FaultClock, FifoScheduler, IoKind, Request, Scheduler, SimTime,
    StorageDevice, VecWorkload, Workload,
};
use storage_trace::RandomWorkload;

use mems_fleet::{FleetConfig, FleetEngine, FleetReport, RebuildPlan, VolumeSpec};

const MEMS_CAPACITY: u64 = 6_750_000;

/// Worker-thread counts the contract is checked at: serial, an even
/// split, an uneven one, and more workers than the small cells have
/// stations.
const THREADS: [usize; 4] = [1, 2, 3, 8];
/// Batch widths in milliseconds: far below, near, and far above the
/// mean inter-arrival gap of a station.
const EPOCHS_MS: [f64; 3] = [1.0, 37.0, 1000.0];

/// A striped MEMS fleet of `stations` devices, of which the volume routes
/// to the first `routed` only, run with the given knobs.
fn fleet_cell(stations: usize, routed: usize, requests: u64, config: FleetConfig) -> FleetReport {
    let volume = VolumeSpec::flat(routed, 64);
    let workload = RandomWorkload::paper(
        volume.capacity(MEMS_CAPACITY),
        125.0 * routed as f64,
        requests,
        42,
    );
    FleetEngine::streaming(
        (0..stations)
            .map(|_| MemsDevice::new(MemsParams::default()))
            .collect(),
        |_| SptfScheduler::new(),
        volume,
        workload,
        config,
    )
    .run()
}

/// The 16-station striped MEMS fleet cell, run with the given knobs.
fn striped_cell(shards: usize, threads: usize, epoch_ms: f64) -> FleetReport {
    fleet_cell(
        16,
        16,
        600,
        FleetConfig {
            shards,
            threads,
            epoch: SimTime::from_ms(epoch_ms),
            warmup_requests: 50,
            ..FleetConfig::default()
        },
    )
}

#[test]
fn digest_is_invariant_across_shards_and_threads() {
    let baseline = striped_cell(1, 1, 10.0);
    assert!(baseline.completed > 0);
    assert_eq!(
        baseline.station_restructures, 0,
        "station event stores never restructure"
    );
    for (shards, threads) in [(4, 1), (4, 2), (5, 3), (4, 4), (16, 8), (16, 16), (1, 32)] {
        let run = striped_cell(shards, threads, 10.0);
        assert_eq!(
            baseline.digest(),
            run.digest(),
            "shards={shards} threads={threads} diverged"
        );
    }
}

#[test]
fn digest_is_invariant_across_epoch_widths() {
    let baseline = striped_cell(1, 1, 10.0).digest();
    for threads in THREADS {
        for epoch in EPOCHS_MS {
            assert_eq!(
                baseline,
                striped_cell(4, threads, epoch).digest(),
                "threads={threads} epoch={epoch} ms diverged"
            );
        }
    }
}

#[test]
fn idle_station_worker_finishes_at_once() {
    // Station 3 is routed nothing; with 4+ threads it gets a worker of
    // its own, which finishes before its first batch and closes its
    // channel while the others are still running.
    let cell = |threads| {
        fleet_cell(
            4,
            3,
            300,
            FleetConfig {
                threads,
                ..FleetConfig::default()
            },
        )
    };
    let baseline = cell(1);
    assert_eq!(baseline.completed, 300);
    assert_eq!(baseline.stations[3].completed, 0);
    for threads in THREADS {
        assert_eq!(
            baseline.digest(),
            cell(threads).digest(),
            "threads={threads} diverged"
        );
    }
}

#[test]
#[should_panic(expected = "dense")]
fn worker_panic_propagates_instead_of_a_partial_report() {
    // Ids skip one value late in the stream, so a worker thread (not the
    // set-up, which routes only the first few hundred) hits the check.
    let volume = VolumeSpec::flat(4, 64);
    let mut workload = RandomWorkload::paper(volume.capacity(MEMS_CAPACITY), 2000.0, 2000, 9);
    let mut requests: Vec<Request> = std::iter::from_fn(|| workload.next_request()).collect();
    for r in &mut requests[1500..] {
        r.id += 1;
    }
    let report = FleetEngine::streaming(
        (0..4)
            .map(|_| MemsDevice::new(MemsParams::default()))
            .collect(),
        |_| SptfScheduler::new(),
        volume,
        VecWorkload::new(requests),
        FleetConfig {
            threads: 2,
            ..FleetConfig::default()
        },
    )
    .run();
    unreachable!(
        "a run with skipped ids returned a report: {}",
        report.digest()
    );
}

/// A one-station fleet over a leaf volume must reproduce the single-loop
/// driver bit for bit: the station's report and completion stream, and
/// the fleet-level stats.
fn assert_single_station_reproduces_driver<S, D, W>(
    make_workload: impl Fn() -> W,
    make_scheduler: impl Fn() -> S,
    make_device: impl Fn() -> D,
) where
    S: Scheduler + Send,
    D: StorageDevice + Send,
    W: Workload + Send,
{
    let solo_report = Driver::new(make_workload(), make_scheduler(), make_device())
        .record_completions(true)
        .run();
    let fleet = FleetEngine::streaming(
        vec![make_device()],
        |_| make_scheduler(),
        VolumeSpec::leaf(0),
        make_workload(),
        FleetConfig::default(),
    )
    .run();

    let station = &fleet.stations[0];
    assert_eq!(station.completed, solo_report.completed);
    assert_eq!(station.makespan, solo_report.makespan);
    assert_eq!(
        station.response.mean().to_bits(),
        solo_report.response.mean().to_bits()
    );
    assert_eq!(station.busy_secs.to_bits(), solo_report.busy_secs.to_bits());
    assert_eq!(
        station.mean_queue_depth.to_bits(),
        solo_report.mean_queue_depth.to_bits()
    );
    let (a, b) = (
        station.completions.as_ref().unwrap(),
        solo_report.completions.as_ref().unwrap(),
    );
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.request.id, y.request.id);
        assert_eq!(x.start_service, y.start_service);
        assert_eq!(x.completion, y.completion);
    }
    // Fleet-level stats over a leaf volume are the station's own stream.
    assert_eq!(fleet.completed, solo_report.completed);
    assert_eq!(fleet.makespan, solo_report.makespan);
    assert_eq!(
        fleet.response.mean().to_bits(),
        solo_report.response.mean().to_bits()
    );
}

#[test]
fn single_station_fleet_reproduces_the_single_loop_driver() {
    // A fixed-cost device under FIFO, over an explicit list with writes.
    let reqs: Vec<Request> = (0..200)
        .map(|i| {
            Request::new(
                i,
                SimTime::from_ms(i as f64 * 0.37),
                (i * 8) % 4096,
                8,
                if i % 3 == 0 {
                    IoKind::Write
                } else {
                    IoKind::Read
                },
            )
        })
        .collect();
    assert_single_station_reproduces_driver(
        || VecWorkload::new(reqs.clone()),
        FifoScheduler::new,
        || ConstantDevice::new(10_000, 1e-3),
    );
    // The bare MEMS device under SPTF on the paper's random workload.
    assert_single_station_reproduces_driver(
        || RandomWorkload::paper(MEMS_CAPACITY, 500.0, 100, 42),
        SptfScheduler::new,
        || MemsDevice::new(MemsParams::default()),
    );
}

/// A mirrored pair with a tip failure on one replica and a paced rebuild
/// stream copying the survivor back — the rebuild-under-load scenario.
fn rebuild_cell(shards: usize, threads: usize, epoch_ms: f64) -> FleetReport {
    let volume = VolumeSpec::mirror(vec![VolumeSpec::leaf(0), VolumeSpec::leaf(1)]);
    let workload = RandomWorkload::paper(volume.capacity(MEMS_CAPACITY), 400.0, 400, 7);
    let mut engine = FleetEngine::streaming(
        (0..2)
            .map(|i| {
                DegradedDevice::mems(MemsDevice::new(MemsParams::default()), 90 + i)
                    .with_spare_tips(8)
            })
            .collect(),
        |_| SptfScheduler::new(),
        volume,
        workload,
        FleetConfig {
            shards,
            threads,
            epoch: SimTime::from_ms(epoch_ms),
            warmup_requests: 0,
            ..FleetConfig::default()
        },
    );
    engine.set_station_faults(
        0,
        FaultClock::tip_failures(11, 4, 6400, SimTime::from_secs(0.5)),
    );
    let queued = RebuildPlan {
        source: 1,
        target: 0,
        start: SimTime::from_secs(0.5),
        pace: SimTime::from_ms(2.0),
        span_lbns: 64 * 128,
        chunk_sectors: 128,
    }
    .inject(&mut engine);
    assert_eq!(queued, 2 * 64);
    engine.run()
}

#[test]
fn faulted_rebuild_runs_stay_deterministic() {
    let a = rebuild_cell(1, 1, 20.0);
    for threads in THREADS {
        for epoch in EPOCHS_MS {
            assert_eq!(
                a.digest(),
                rebuild_cell(2, threads, epoch).digest(),
                "threads={threads} epoch={epoch} ms diverged"
            );
        }
    }
    assert!(a.fault_events > 0, "tip failures must be delivered");
    assert_eq!(
        a.background_completed,
        2 * 64,
        "every rebuild chunk must complete"
    );
    assert_eq!(a.station_restructures, 0);
}

#[test]
fn background_ids_do_not_disturb_foreground_stats() {
    // The same foreground workload with and without an idle-period
    // background stream: foreground stats may shift only through queue
    // contention; with a rebuild starting after the workload drains,
    // foreground stats must be bit-identical.
    let volume = VolumeSpec::leaf(0);
    let requests: Vec<Request> = (0..50)
        .map(|i| Request::new(i, SimTime::from_ms(i as f64), i * 64, 8, IoKind::Read))
        .collect();
    let plain = FleetEngine::streaming(
        vec![ConstantDevice::new(100_000, 1e-3)],
        |_| FifoScheduler::new(),
        volume.clone(),
        VecWorkload::new(requests.clone()),
        FleetConfig::default(),
    )
    .run();
    let mut with_bg = FleetEngine::streaming(
        vec![ConstantDevice::new(100_000, 1e-3)],
        |_| FifoScheduler::new(),
        volume,
        VecWorkload::new(requests),
        FleetConfig::default(),
    );
    // Foreground drains by ~51 ms; the background stream starts at 1 s.
    for i in 0..10u64 {
        with_bg.add_background(
            0,
            SimTime::from_secs(1.0 + i as f64 * 0.01),
            i * 128,
            64,
            IoKind::Write,
        );
    }
    let with_bg = with_bg.run();
    assert_eq!(with_bg.background_completed, 10);
    assert_eq!(plain.completed, with_bg.completed);
    assert_eq!(
        plain.response.mean().to_bits(),
        with_bg.response.mean().to_bits()
    );
    assert!(with_bg.makespan > plain.makespan);
}
