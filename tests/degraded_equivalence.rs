//! Tentpole contracts for online failure management.
//!
//! 1. A zero-fault [`DegradedDevice`] run is *bit-identical* to the bare
//!    device — on MEMS and on disk — so the wrapper is free until a fault
//!    actually fires.
//! 2. The seek cache and the reference closed-form path agree on degraded
//!    runs with far-remapped LBNs (the remap translates the request
//!    *before* the device positions for it, so cached physical timings
//!    stay exact).
//! 3. Every sector the timing layer reconstructs is byte-identical to
//!    the original when the same damage is replayed through the
//!    byte-accurate [`ReliableStore`].

use atlas_disk::{DiskDevice, DiskParams};
use mems_device::{MemsDevice, MemsParams};
use mems_os::fault::{DegradedDevice, FaultState, ReliableStore};
use mems_os::sched::SptfScheduler;
use storage_sim::{rng, Driver, FaultClock, SimReport, SimTime, StorageDevice};
use storage_trace::RandomWorkload;

const MEMS_CAPACITY: u64 = 6_750_000;

fn mems_workload(requests: u64, seed: u64) -> RandomWorkload {
    RandomWorkload::paper(MEMS_CAPACITY, 800.0, requests, seed)
}

/// Whole-report bitwise comparison (no tolerances: `f64`'s `Debug` is
/// round-trip exact).
fn assert_reports_identical(a: &SimReport, b: &SimReport) {
    assert_eq!(format!("{a:?}"), format!("{b:?}"));
}

#[test]
fn zero_fault_mems_run_is_bit_identical_to_bare_device() {
    let bare = Driver::new(
        mems_workload(600, 9),
        SptfScheduler::new(),
        MemsDevice::new(MemsParams::default()),
    )
    .warmup_requests(50)
    .run();
    let wrapped = Driver::new(
        mems_workload(600, 9),
        SptfScheduler::new(),
        DegradedDevice::mems(MemsDevice::new(MemsParams::default()), 1).with_spare_tips(4),
    )
    .warmup_requests(50)
    .run();
    assert_reports_identical(&bare, &wrapped);
    assert_eq!(wrapped.fault_events, 0);
    assert_eq!(wrapped.breakdown_sum.fault_recovery, 0.0);
}

#[test]
fn zero_fault_disk_run_is_bit_identical_to_bare_device() {
    let params = DiskParams::quantum_atlas_10k();
    let capacity = DiskDevice::new(params.clone()).capacity_lbns();
    let workload = |seed| RandomWorkload::paper(capacity, 150.0, 400, seed);
    let bare = Driver::new(
        workload(5),
        SptfScheduler::new(),
        DiskDevice::new(params.clone()),
    )
    .warmup_requests(40)
    .run();
    let wrapped = Driver::new(
        workload(5),
        SptfScheduler::new(),
        DegradedDevice::disk(DiskDevice::new(params), 1),
    )
    .warmup_requests(40)
    .run();
    assert_reports_identical(&bare, &wrapped);
    assert_eq!(wrapped.breakdown_sum.fault_recovery, 0.0);
}

/// Regression for the seek-cache bugfix: far-remapped LBNs must hit the
/// seek cache with their *remapped* physical coordinates. With parity 0
/// every touched damaged stripe far-remaps, so the run exercises
/// redirected requests heavily; the cached and closed-form devices must
/// agree bit for bit.
#[test]
fn degraded_runs_agree_with_and_without_seek_cache() {
    let run = |cached: bool| {
        let inner = MemsDevice::new(MemsParams::default()).with_seek_table(cached);
        let device = DegradedDevice::mems(inner, 3).with_parity(0);
        let clock = FaultClock::tip_failures(77, 40, 6400, SimTime::from_ms(200.0));
        let mut driver = Driver::new(mems_workload(600, 21), SptfScheduler::new(), device)
            .with_faults(clock)
            .warmup_requests(50);
        let report = driver.run();
        let remapped = driver.device().remap_table().len();
        (report, remapped)
    };
    let (cached, remapped_a) = run(true);
    let (direct, remapped_b) = run(false);
    assert!(remapped_a > 0, "the run must actually far-remap LBNs");
    assert_eq!(remapped_a, remapped_b);
    assert_reports_identical(&cached, &direct);
    assert!(cached.fault_events > 0);
    assert!(cached.breakdown_sum.fault_recovery > 0.0);
}

/// Reconstruction correctness: replay the exact damage a degraded run
/// accumulated through the byte-accurate store — every sector the timing
/// layer billed as "reconstructed" (erasures within parity) must read
/// back byte-identical to what was written before the failures.
#[test]
fn reconstructed_sectors_are_byte_identical_to_originals() {
    let params = MemsParams::default();
    let mut device = DegradedDevice::mems(MemsDevice::new(params.clone()), 5).with_parity(8);

    // Write known bytes to a spread of sectors while healthy.
    let mut store = ReliableStore::new(&params, 8);
    let mut r = rng::seeded(123);
    let lbns: Vec<u64> = (0..64)
        .map(|_| rng::uniform_u64(&mut r, MEMS_CAPACITY))
        .collect();
    let mut originals = Vec::new();
    for &lbn in &lbns {
        let mut data = [0u8; 512];
        for b in data.iter_mut() {
            *b = rng::uniform_u64(&mut r, 256) as u8;
        }
        store.write_sector(lbn, &data);
        originals.push((lbn, data));
    }

    // Fail tips online (no spares: all damage goes degraded).
    for ev in [3u32, 64, 65, 700, 1281, 4000, 6399] {
        device.on_fault(
            &storage_sim::FaultKind::TipFailure { tip: ev },
            SimTime::ZERO,
        );
    }
    let faults: FaultState = device.fault_state().unwrap().clone();
    assert!(!faults.is_clean());
    store.set_faults(faults);

    // Every stored sector is within the parity budget here, so each one
    // must decode to exactly the original bytes.
    for (lbn, data) in &originals {
        assert_eq!(
            store.read_sector(*lbn).as_ref(),
            Some(data),
            "lbn {lbn} must reconstruct byte-identically"
        );
    }
}

/// Sanity: a fault-laden run is measurably slower than the healthy one
/// and bills its recovery time explicitly.
#[test]
fn degraded_run_is_slower_and_bills_recovery_time() {
    let healthy = Driver::new(
        mems_workload(500, 13),
        SptfScheduler::new(),
        DegradedDevice::mems(MemsDevice::new(MemsParams::default()), 2),
    )
    .warmup_requests(50)
    .run();
    let storm = FaultClock::poisson(99, SimTime::from_secs(1.0), 0.0, 300.0, 0.0, 6400, 27);
    let mut driver = Driver::new(
        mems_workload(500, 13),
        SptfScheduler::new(),
        DegradedDevice::mems(MemsDevice::new(MemsParams::default()), 2),
    )
    .with_faults(storm)
    .warmup_requests(50);
    let stormy = driver.run();
    assert!(stormy.fault_events > 100);
    assert!(stormy.breakdown_sum.fault_recovery > 0.0);
    assert!(
        stormy.response.mean() > healthy.response.mean(),
        "retry storm must cost response time: {} vs {}",
        stormy.response.mean(),
        healthy.response.mean()
    );
    let c = driver.device().counters();
    assert!(c.transients > 100);
    // Transients armed after the final service are never charged, so the
    // attempt count tracks the *serviced* portion of the storm.
    assert!(c.retry_attempts > 0);
}
