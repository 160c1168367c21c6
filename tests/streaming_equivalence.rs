//! Streamed vs materialized equivalence across the whole stack.
//!
//! The streaming conversion's contract is bit-identity: pulling arrivals
//! incrementally from a generator (through the driver's look-ahead
//! buffer, or through the fleet engine's on-demand splitter) must produce
//! exactly the simulation that materializing the trace up front produces.
//! These tests hold that contract for every generator, on both device
//! models, at several look-ahead depths and shard/thread splits, and for
//! the overload machinery's zero-trigger invariant.

use atlas_disk::{DiskDevice, DiskParams};
use mems_device::{MemsDevice, MemsParams};
use mems_fleet::{FleetConfig, FleetEngine, VolumeSpec};
use mems_os::sched::SptfScheduler;
use proptest::prelude::*;
use storage_sim::{
    Driver, FifoScheduler, IoKind, OverloadPolicy, Request, Scheduler, SimReport, SimTime,
    StorageDevice, Tracer, VecWorkload, Workload,
};
use storage_trace::{
    CelloParams, CelloWorkload, RampWorkload, RandomWorkload, ShiftingHotspotWorkload,
    StreamingParams, StreamingWorkload, TpccParams, TpccWorkload, ZipfWorkload,
};

const MEMS_CAPACITY: u64 = 6_750_000;
/// Shared generator footprint that fits both device models.
const CAPACITY: u64 = 4_000_000;
const N: u64 = 3_000;
const SEED: u64 = 0x5EED_0011;

fn collect(mut w: impl Workload) -> Vec<Request> {
    let mut out = Vec::new();
    while let Some(r) = w.next_request() {
        out.push(r);
    }
    out
}

/// Bit-exact digest of a driver run: counts, billing, and every
/// Welford-derived aggregate as raw f64 bits.
fn digest(r: &SimReport) -> (u64, u64, u64, u64, u64, u64, u64, u64, usize, u64) {
    (
        r.completed,
        r.shed,
        r.timed_out,
        r.makespan.as_secs().to_bits(),
        r.response.mean().to_bits(),
        r.response.std_dev().to_bits(),
        r.queue_time.mean().to_bits(),
        r.busy_secs.to_bits(),
        r.max_queue_depth,
        r.event_queue_restructures,
    )
}

/// Runs `make()` materialized (collected into a `VecWorkload`) and
/// streamed (pulled through the look-ahead buffer with constant-memory
/// stats) on `device`, and asserts identical digests at several
/// look-ahead depths.
fn assert_streamed_identical<W, D, S>(
    name: &str,
    make: impl Fn() -> W,
    device: impl Fn() -> D,
    scheduler: impl Fn() -> S,
) where
    W: Workload,
    D: StorageDevice,
    S: Scheduler,
{
    let materialized = Driver::new(VecWorkload::new(collect(make())), scheduler(), device())
        .warmup_requests(100)
        .run();
    assert_eq!(
        materialized.event_queue_restructures, 0,
        "{name}: materialized run restructured its event store"
    );
    for lookahead in [1, 7, 4096] {
        let streamed = Driver::new(make(), scheduler(), device())
            .with_arrival_lookahead(lookahead)
            .streaming_stats(true)
            .warmup_requests(100)
            .run();
        assert_eq!(
            digest(&materialized),
            digest(&streamed),
            "{name}: streamed (lookahead {lookahead}) diverged from materialized"
        );
    }
}

/// Every generator, on MEMS (SPTF) and on the disk model (FIFO).
fn per_generator<W: Workload>(name: &str, make: impl Fn() -> W + Copy) {
    assert_streamed_identical(
        &format!("{name}/mems"),
        make,
        || MemsDevice::new(MemsParams::default()),
        SptfScheduler::new,
    );
    assert_streamed_identical(
        &format!("{name}/disk"),
        make,
        || DiskDevice::new(DiskParams::quantum_atlas_10k()),
        FifoScheduler::new,
    );
}

#[test]
fn random_streamed_identical() {
    per_generator("random", || RandomWorkload::paper(CAPACITY, 800.0, N, SEED));
}

#[test]
fn zipf_streamed_identical() {
    per_generator("zipf", || {
        ZipfWorkload::new(CAPACITY, 8, 0.99, 800.0, N, SEED)
    });
}

#[test]
fn hotspot_streamed_identical() {
    per_generator("hotspot", || {
        ShiftingHotspotWorkload::new(CAPACITY, 65_536, 5.0, 0.9, 800.0, N, SEED)
    });
}

#[test]
fn streaming_media_streamed_identical() {
    per_generator("streaming", || {
        StreamingWorkload::new(
            &StreamingParams {
                capacity: CAPACITY,
                requests: N,
                ..StreamingParams::default()
            },
            SEED,
        )
    });
}

#[test]
fn cello_streamed_identical() {
    per_generator("cello", || {
        CelloWorkload::new(
            &CelloParams {
                capacity: CAPACITY,
                requests: N,
                ..CelloParams::default()
            },
            SEED,
        )
    });
}

#[test]
fn tpcc_streamed_identical() {
    per_generator("tpcc", || {
        TpccWorkload::new(
            &TpccParams {
                capacity: CAPACITY,
                requests: N,
                database_sectors: CAPACITY * 3 / 10,
                ..TpccParams::default()
            },
            SEED,
        )
    });
}

#[test]
fn ramp_streamed_identical() {
    per_generator("ramp", || {
        RampWorkload::new(CAPACITY, 200.0, 2_000.0, 2.0, 2.0, N, SEED)
    });
}

/// A fleet pulling from the generator must reproduce one over the collected
/// request slice bit for bit at every shard/thread split, with background
/// traffic in flight and the per-station event queues never restructuring.
#[test]
fn fleet_streamed_identical_across_splits() {
    let stations = 16;
    let volume = VolumeSpec::flat(stations, 64);
    let rate = 400.0 * stations as f64;
    let n = 12_000u64;
    let fleet_workload = || RandomWorkload::paper(volume.capacity(MEMS_CAPACITY), rate, n, SEED);
    let requests = collect(fleet_workload());

    fn add_bg<S, D, T, W>(engine: &mut FleetEngine<S, D, T, W>, stations: usize)
    where
        S: Scheduler,
        D: StorageDevice,
        T: Tracer,
        W: Workload,
    {
        for i in 0..40u64 {
            engine.add_background(
                (i % stations as u64) as usize,
                SimTime::from_secs(0.5 + i as f64 * 0.2),
                i * 9_001,
                64,
                IoKind::Read,
            );
        }
    }

    let config = |shards: usize, threads: usize| FleetConfig {
        shards,
        threads,
        warmup_requests: 200,
        keep_station_completions: false,
        ..FleetConfig::default()
    };

    let mut baseline_engine = FleetEngine::new(
        (0..stations)
            .map(|_| MemsDevice::new(MemsParams::default()))
            .collect(),
        |_| SptfScheduler::new(),
        &volume,
        &requests,
        config(1, 1),
    );
    add_bg(&mut baseline_engine, stations);
    let baseline = baseline_engine.run();
    assert_eq!(baseline.station_restructures, 0);
    assert_eq!(baseline.background_completed, 40);

    for (shards, threads) in [(1, 1), (4, 2), (16, 4)] {
        let mut streamed_engine = FleetEngine::streaming(
            (0..stations)
                .map(|_| MemsDevice::new(MemsParams::default()))
                .collect(),
            |_| SptfScheduler::new(),
            volume.clone(),
            fleet_workload(),
            FleetConfig {
                streaming_stats: true,
                ..config(shards, threads)
            },
        );
        add_bg(&mut streamed_engine, stations);
        let streamed = streamed_engine.run();
        assert_eq!(
            baseline.digest(),
            streamed.digest(),
            "streaming fleet diverged at shards={shards} threads={threads}"
        );
    }
}

/// An overload policy whose watermarks can never trigger must be
/// invisible: digest-identical to the plain open-loop run, zero billed.
#[test]
fn zero_shed_overload_is_identical_to_open_loop() {
    let make = || RampWorkload::new(CAPACITY, 200.0, 1_500.0, 1.0, 2.0, 4_000, SEED);
    let plain = Driver::new(
        make(),
        FifoScheduler::new(),
        MemsDevice::new(MemsParams::default()),
    )
    .run();
    let policed = Driver::new(
        make(),
        FifoScheduler::new(),
        MemsDevice::new(MemsParams::default()),
    )
    .with_overload(OverloadPolicy::watermarks(1_000_000, 1))
    .run();
    assert_eq!(policed.shed, 0);
    assert_eq!(policed.timed_out, 0);
    assert_eq!(digest(&plain), digest(&policed));
}

/// A triggered policy bills every request exactly once.
#[test]
fn overload_billing_conserves_requests() {
    let n = 6_000u64;
    let report = Driver::new(
        RampWorkload::new(CAPACITY, 200.0, 3_000.0, 1.0, 2.0, n, SEED),
        FifoScheduler::new(),
        MemsDevice::new(MemsParams::default()),
    )
    .with_overload(OverloadPolicy::watermarks(128, 32).with_queue_timeout(SimTime::from_ms(120.0)))
    .run();
    assert!(report.shed > 0, "watermarks must trigger in deep overload");
    assert_eq!(report.completed + report.shed + report.timed_out, n);
}

proptest! {
    /// Digest identity holds for arbitrary seeds, rates, and look-ahead
    /// depths, not just the hand-picked cells above.
    #[test]
    fn streamed_identity_holds_for_arbitrary_cells(
        seed in 0u64..64,
        rate_step in 1u32..5,
        lookahead in 1usize..64,
    ) {
        let rate = 400.0 * f64::from(rate_step);
        let n = 400;
        let make = || RandomWorkload::paper(CAPACITY, rate, n, seed);
        let materialized = Driver::new(
            VecWorkload::new(collect(make())),
            SptfScheduler::new(),
            MemsDevice::new(MemsParams::default()),
        )
        .run();
        let streamed = Driver::new(
            make(),
            SptfScheduler::new(),
            MemsDevice::new(MemsParams::default()),
        )
        .with_arrival_lookahead(lookahead)
        .streaming_stats(true)
        .run();
        prop_assert_eq!(digest(&materialized), digest(&streamed));
    }
}
