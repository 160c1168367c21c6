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
//!    byte-accurate [`ReliableStore`], defined and tested below.

#[path = "support/report.rs"]
mod report;

use std::collections::HashMap;

use atlas_disk::{DiskDevice, DiskParams};
use mems_device::{Mapper, MemsDevice, MemsParams, PhysAddr};
use mems_os::fault::{DegradedDevice, FaultState, MediaDefect, StripeCodec, TipSector};
use mems_os::sched::SptfScheduler;
use report::assert_reports_identical;
use storage_sim::{rng, Driver, FaultClock, SimTime, StorageDevice};
use storage_trace::RandomWorkload;

const MEMS_CAPACITY: u64 = 6_750_000;

fn mems_workload(requests: u64, seed: u64) -> RandomWorkload {
    RandomWorkload::paper(MEMS_CAPACITY, 800.0, requests, seed)
}

#[test]
fn zero_fault_mems_run_is_bit_identical_to_bare_device() {
    let bare = Driver::new(
        mems_workload(600, 9),
        SptfScheduler::new(),
        MemsDevice::new(MemsParams::default()),
    )
    .warmup_requests(50)
    .record_completions(true)
    .run();
    let wrapped = Driver::new(
        mems_workload(600, 9),
        SptfScheduler::new(),
        DegradedDevice::mems(MemsDevice::new(MemsParams::default()), 1).with_spare_tips(4),
    )
    .warmup_requests(50)
    .record_completions(true)
    .run();
    assert_reports_identical(&bare, &wrapped, "zero-fault MEMS wrap");
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
    .record_completions(true)
    .run();
    let wrapped = Driver::new(
        workload(5),
        SptfScheduler::new(),
        DegradedDevice::disk(DiskDevice::new(params), 1),
    )
    .warmup_requests(40)
    .record_completions(true)
    .run();
    assert_reports_identical(&bare, &wrapped, "zero-fault disk wrap");
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
            .warmup_requests(50)
            .record_completions(true);
        let report = driver.run();
        let remapped = driver.device().remap_table().len();
        (report, remapped)
    };
    let (cached, remapped_a) = run(true);
    let (direct, remapped_b) = run(false);
    assert!(remapped_a > 0, "the run must actually far-remap LBNs");
    assert_eq!(remapped_a, remapped_b);
    assert_reports_identical(
        &cached,
        &direct,
        "degraded run with and without the seek cache",
    );
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

/// An end-to-end reliable sector store: real bytes through the real ECC.
///
/// The fault module reasons about *timing* and *erasure counts*; this is
/// the data path itself. Each logical sector is stored as its 72 encoded
/// tip sectors (64 data + 8 ECC by default), keyed by the physical (tip,
/// cylinder, row) locations the device geometry assigns. Reads consult
/// the injected [`FaultState`]: tip sectors on broken tips or grown
/// defects come back unreadable, and the vertical/horizontal codes repair
/// what the parity budget covers — so "data written before the tips broke
/// is still there afterward" is a property tested with actual bytes, not
/// an argument.
struct ReliableStore {
    codec: StripeCodec,
    mapper: Mapper,
    faults: FaultState,
    tips: u32,
    active_per_track: u32,
    /// (first_tip_of_stripe, cylinder, row) → encoded stripe.
    media: HashMap<(u32, u32, u32), Vec<TipSector>>,
}

impl ReliableStore {
    /// Creates an empty store for a device with `parity_tips` horizontal
    /// ECC tips per logical sector.
    fn new(params: &MemsParams, parity_tips: usize) -> Self {
        ReliableStore {
            codec: StripeCodec::new(parity_tips),
            mapper: Mapper::new(params),
            faults: FaultState::new(params),
            tips: params.tips,
            active_per_track: params.active_tips,
            media: HashMap::new(),
        }
    }

    /// Installs (replaces) the fault state applied to subsequent reads.
    fn set_faults(&mut self, faults: FaultState) {
        self.faults = faults;
    }

    /// First tip of the stripe serving a physical address: track `t`
    /// owns tips `t·active .. (t+1)·active`, and slot `s` the 64-tip
    /// group at `s·64` within them. Parity tips follow conceptually as
    /// extra ECC tips switched on for the access (§6.1.2).
    fn stripe_tip(&self, addr: PhysAddr) -> u32 {
        addr.track * self.active_per_track + addr.slot * 64
    }

    /// Writes a 512-byte sector.
    fn write_sector(&mut self, lbn: u64, data: &[u8; 512]) {
        let addr = self.mapper.decompose(lbn);
        let stripe = self.codec.encode(data);
        self.media
            .insert((self.stripe_tip(addr), addr.cylinder, addr.row), stripe);
    }

    /// Reads a sector back, applying injected faults; `None` if the
    /// sector was never written or has more erasures than the parity
    /// covers.
    fn read_sector(&self, lbn: u64) -> Option<[u8; 512]> {
        let addr = self.mapper.decompose(lbn);
        let first_tip = self.stripe_tip(addr);
        let stripe = self.media.get(&(first_tip, addr.cylinder, addr.row))?;
        // Apply faults: a lost tip sector reads back as garbage, which
        // the vertical check converts to an erasure. Parity tips are
        // modeled as the tips directly after the 64 data tips (wrapping
        // within the device).
        let damaged: Vec<TipSector> = stripe
            .iter()
            .enumerate()
            .map(|(i, ts)| {
                let tip = (first_tip + i as u32) % self.tips;
                if self.faults.tip_sector_lost(tip, addr.row) {
                    TipSector {
                        data: [0x00; 8],
                        check: !ts.check, // guaranteed-failing vertical check
                    }
                } else {
                    *ts
                }
            })
            .collect();
        self.codec.decode(&damaged)
    }

    /// Number of sectors currently stored.
    fn stored_sectors(&self) -> usize {
        self.media.len()
    }
}

fn pattern(seed: u8) -> [u8; 512] {
    let mut d = [0u8; 512];
    for (i, b) in d.iter_mut().enumerate() {
        *b = (i as u8).wrapping_mul(13).wrapping_add(seed);
    }
    d
}

#[test]
fn data_written_before_tips_break_reads_back_exactly() {
    let params = MemsParams::default();
    let mut store = ReliableStore::new(&params, 8);
    let data = [7u8; 512];
    store.write_sector(12345, &data);
    // Break a handful of tips after the write...
    let mut faults = FaultState::new(&params);
    for t in 0..5 {
        faults.fail_tip(t * 64);
    }
    store.set_faults(faults);
    // ...and the data is still exactly recoverable.
    assert_eq!(store.read_sector(12345), Some(data));
}

#[test]
fn clean_write_read_round_trip() {
    let mut store = ReliableStore::new(&MemsParams::default(), 8);
    for lbn in [0u64, 19, 20, 539, 540, 1_000_000, 6_749_999] {
        store.write_sector(lbn, &pattern(lbn as u8));
    }
    for lbn in [0u64, 19, 20, 539, 540, 1_000_000, 6_749_999] {
        assert_eq!(
            store.read_sector(lbn),
            Some(pattern(lbn as u8)),
            "lbn {lbn}"
        );
    }
    assert_eq!(store.stored_sectors(), 7);
}

#[test]
fn unwritten_sectors_read_none() {
    let store = ReliableStore::new(&MemsParams::default(), 8);
    assert_eq!(store.read_sector(42), None);
}

#[test]
fn data_survives_tip_failures_up_to_parity() {
    let p = MemsParams::default();
    let mut store = ReliableStore::new(&p, 8);
    let data = pattern(9);
    store.write_sector(0, &data);
    // Break 8 of the sector's own 64 data tips.
    let mut faults = FaultState::new(&p);
    for t in 0..8 {
        faults.fail_tip(t * 7); // tips 0,7,...,49 all serve slot 0
    }
    store.set_faults(faults);
    assert_eq!(store.read_sector(0), Some(data));
}

#[test]
fn too_many_failures_lose_data_cleanly() {
    let p = MemsParams::default();
    let mut store = ReliableStore::new(&p, 4);
    store.write_sector(0, &pattern(1));
    let mut faults = FaultState::new(&p);
    for t in 0..5 {
        faults.fail_tip(t);
    }
    store.set_faults(faults);
    assert_eq!(store.read_sector(0), None, "5 losses exceed 4 parity tips");
}

#[test]
fn media_defects_only_affect_their_rows() {
    let p = MemsParams::default();
    let mut store = ReliableStore::new(&p, 2);
    // Two sectors on the same tips, different rows.
    let a = pattern(3);
    let b = pattern(4);
    store.write_sector(0, &a); // row 0
    store.write_sector(20, &b); // row 1
    let mut faults = FaultState::new(&p);
    // Wipe rows 0..1 of five of the stripe's tips: three more than
    // the 2-tip parity can absorb in row 0.
    for t in 0..5 {
        faults.add_defect(MediaDefect {
            tip: t,
            row_start: 0,
            row_end: 0,
        });
    }
    store.set_faults(faults);
    assert_eq!(store.read_sector(0), None, "row 0 exceeded parity");
    assert_eq!(store.read_sector(20), Some(b), "row 1 untouched");
}

#[test]
fn overwrite_replaces_contents() {
    let mut store = ReliableStore::new(&MemsParams::default(), 8);
    store.write_sector(777, &pattern(1));
    store.write_sector(777, &pattern(2));
    assert_eq!(store.read_sector(777), Some(pattern(2)));
    assert_eq!(store.stored_sectors(), 1);
}

#[test]
fn random_fault_campaign_never_returns_wrong_data() {
    // The crucial integrity property: reads either return exactly
    // what was written or fail — never silently corrupt data.
    let p = MemsParams::default();
    let mut store = ReliableStore::new(&p, 4);
    let lbns: Vec<u64> = (0..50).map(|i| i * 131_071 % 6_750_000).collect();
    for &lbn in &lbns {
        store.write_sector(lbn, &pattern(lbn as u8));
    }
    let mut r = rng::seeded(0xDA7A);
    let mut faults = FaultState::new(&p);
    faults.inject_random_tip_failures(120, &mut r);
    faults.inject_random_defects(60, &mut r);
    store.set_faults(faults);
    let mut lost = 0;
    for &lbn in &lbns {
        match store.read_sector(lbn) {
            Some(data) => assert_eq!(data, pattern(lbn as u8), "silent corruption at {lbn}"),
            None => lost += 1,
        }
    }
    // With only 4 parity tips and 120 broken tips some loss is
    // expected — but it must be *detected* loss.
    assert!(lost < lbns.len(), "not everything should be lost");
}
