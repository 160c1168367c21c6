//! Placement-layer integration tests.
//!
//! 1. **Billing conservation**: every I/O the adaptive wrapper issues —
//!    foreground or migration — reaches the wrapped device exactly once
//!    and is billed exactly once. A counting recorder between the
//!    wrapper and the MEMS device must reconcile with the driver's
//!    foreground report plus the wrapper's [`MigrationStats`], and a
//!    [`MediaHeatmap`] fed from the recorded stream must account for
//!    every sector.
//! 2. **Zero-migration identity**: with migrations disabled at the
//!    identity placement, the wrapper is a pure pass-through — full runs
//!    must produce byte-identical reports to the bare device, on MEMS
//!    and on the disk baseline.
//! 3. **Pinned migration policy**: a short `mems_adaptive` cell (the
//!    Zipf stream `telemetry_report` migrates on) reproduces a recorded
//!    report digest and migration ledger, so a change to which swaps
//!    the policy picks, or when, fails here and not only in the figure
//!    goldens.

#[path = "../../../tests/support/report.rs"]
mod report;

use atlas_disk::{DiskDevice, DiskParams};
use mems_device::{MediaHeatmap, MemsDevice, MemsParams};
use mems_os::placement::{AdaptiveDevice, MigrationStats, BLOCK_SECTORS};
use mems_os::sched::SptfScheduler;
use report::{assert_reports_identical, report_digest};
use storage_sim::{
    Driver, FaultKind, PhaseEnergy, PositionOracle, Request, ServiceBreakdown, SimReport, SimTime,
    StorageDevice, VecWorkload, Workload,
};
use storage_trace::{RandomWorkload, ShiftingHotspotWorkload, ZipfWorkload};

const MEMS_CAPACITY: u64 = 6_750_000;

/// Pass-through device that logs every service call it sees.
#[derive(Debug, Clone)]
struct Recorder<D> {
    inner: D,
    ios: u64,
    sectors: u64,
    busy_secs: f64,
    log: Vec<(u64, u32)>,
}

impl<D> Recorder<D> {
    fn new(inner: D) -> Self {
        Recorder {
            inner,
            ios: 0,
            sectors: 0,
            busy_secs: 0.0,
            log: Vec::new(),
        }
    }
}

impl<D: StorageDevice> PositionOracle for Recorder<D> {
    fn position_time(&self, req: &Request, now: SimTime) -> f64 {
        self.inner.position_time(req, now)
    }
    fn position_bucket(&self, req: &Request) -> u64 {
        self.inner.position_bucket(req)
    }
    fn current_bucket(&self) -> u64 {
        self.inner.current_bucket()
    }
    fn min_position_time_at_bucket_distance(&self, distance: u64) -> f64 {
        self.inner.min_position_time_at_bucket_distance(distance)
    }
    fn bucket_position_time_floor(&self, bucket: u64) -> f64 {
        self.inner.bucket_position_time_floor(bucket)
    }
    fn rest_key(&self, now: SimTime) -> Option<[u64; 3]> {
        self.inner.rest_key(now)
    }
}

impl<D: StorageDevice> StorageDevice for Recorder<D> {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn capacity_lbns(&self) -> u64 {
        self.inner.capacity_lbns()
    }
    fn service(&mut self, req: &Request, now: SimTime) -> ServiceBreakdown {
        let b = self.inner.service(req, now);
        self.ios += 1;
        self.sectors += u64::from(req.sectors);
        self.busy_secs += b.total();
        self.log.push((req.lbn, req.sectors));
        b
    }
    fn reset(&mut self) {
        self.inner.reset();
    }
    fn phase_energy(&self, breakdown: &ServiceBreakdown) -> PhaseEnergy {
        self.inner.phase_energy(breakdown)
    }
    fn on_fault(&mut self, fault: &FaultKind, now: SimTime) {
        self.inner.on_fault(fault, now);
    }
}

#[test]
fn migration_billing_conserves_totals() {
    let workload = ShiftingHotspotWorkload::new(
        MEMS_CAPACITY,
        MEMS_CAPACITY / 200,
        15.0,
        0.9,
        500.0,
        30_000,
        42,
    )
    .bursty(50, 0.060);
    let mut requests = Vec::new();
    let mut w = workload;
    while let Some(r) = w.next_request() {
        requests.push(r);
    }
    let foreground_sectors: u64 = requests.iter().map(|r| u64::from(r.sectors)).sum();

    let recorder = Recorder::new(MemsDevice::new(MemsParams::default()));
    let dev = AdaptiveDevice::new(recorder, true);
    let mut driver = Driver::new(
        VecWorkload::new(requests.clone()),
        SptfScheduler::new(),
        dev,
    );
    let report = driver.run();
    let dev = driver.device();
    let stats: &MigrationStats = dev.migration_stats();
    let recorder = dev.inner();

    assert_eq!(
        report.completed,
        requests.len() as u64,
        "all foreground done"
    );
    assert!(stats.swaps > 0, "this workload must trigger migration");
    assert!(stats.windows > 0, "swaps only run inside idle windows");
    assert!(
        stats.chunk_ios >= 4 * stats.swaps && stats.chunk_ios <= 4 * stats.swaps + 3,
        "4 chunk I/Os per committed swap plus at most one in-flight swap: {} vs {}",
        stats.chunk_ios,
        stats.swaps
    );

    // Every I/O reaching the device is either a foreground request or an
    // accounted migration chunk — nothing double-billed, nothing hidden.
    assert_eq!(
        recorder.ios,
        requests.len() as u64 + stats.chunk_ios,
        "I/O count conservation"
    );
    assert_eq!(
        recorder.sectors,
        foreground_sectors + stats.sectors,
        "sector conservation"
    );

    // Busy-time conservation: the report's busy time includes the
    // background_wait the wrapper bills on top of real device time, so
    // real inner busy = foreground busy - waits + migration busy.
    let expect_busy = report.busy_secs - report.breakdown_sum.background_wait + stats.busy_secs;
    assert!(
        (recorder.busy_secs - expect_busy).abs() < 1e-6,
        "busy-time conservation: inner {} vs foreground+migration {}",
        recorder.busy_secs,
        expect_busy
    );
    // The wrapper's wait ledger is the same sum the driver saw.
    assert!(
        (stats.foreground_wait_secs - report.breakdown_sum.background_wait).abs() < 1e-9,
        "wait ledger mismatch"
    );

    // A heatmap fed from the recorded stream accounts for every sector,
    // foreground and migration alike.
    let mut map = MediaHeatmap::new(&MemsParams::default(), 10, 9);
    for &(lbn, sectors) in &recorder.log {
        map.record(lbn, sectors, 0.0);
    }
    assert_eq!(
        map.total_sectors(),
        foreground_sectors + stats.sectors,
        "heatmap sector reconciliation"
    );
}

fn run_cell<D: StorageDevice>(device: D) -> SimReport {
    let capacity = device.capacity_lbns();
    Driver::new(
        RandomWorkload::paper(capacity, 500.0, 4_000, 7),
        SptfScheduler::new(),
        device,
    )
    .warmup_requests(200)
    .record_completions(true)
    .run()
}

fn assert_identity<D: StorageDevice + Clone>(device: D, label: &str) {
    let bare = run_cell(device.clone());
    let wrapped = run_cell(AdaptiveDevice::new(device, false));
    assert_reports_identical(
        &bare,
        &wrapped,
        &format!("{label}: migrations-off wrap must be bit-identical to the bare device"),
    );
}

#[test]
fn zero_migration_wrap_is_bit_identical_on_mems() {
    assert_identity(MemsDevice::new(MemsParams::default()), "mems");
}

#[test]
fn zero_migration_wrap_is_bit_identical_on_disk() {
    assert_identity(DiskDevice::new(DiskParams::quantum_atlas_10k()), "disk");
}

#[test]
fn migration_policy_matches_recorded_pins() {
    // `telemetry_report`'s `mems_adaptive` stream, cut to 4,000 requests.
    let workload =
        ZipfWorkload::new(MEMS_CAPACITY, BLOCK_SECTORS, 0.99, 500.0, 4_000, 42).bursty(50, 0.060);
    let dev = AdaptiveDevice::new(MemsDevice::new(MemsParams::default()), true);
    let mut driver = Driver::new(workload, SptfScheduler::new(), dev).record_completions(true);
    let report = driver.run();
    let m = driver.device().migration_stats();
    assert_eq!(
        report_digest(&report),
        0x37a3_a265_c914_313c,
        "report digest"
    );
    assert_eq!(
        [m.swaps, m.windows, m.chunk_ios, m.sectors, m.waits],
        [38, 40, 152, 155_648, 18],
        "swaps, windows, chunk I/Os, sectors, foreground waits"
    );
    assert_eq!(
        [
            m.busy_secs,
            m.energy_j,
            m.foreground_wait_secs,
            m.chunk_time.mean(),
            m.chunk_time.max(),
            m.chunk_tail.quantile(0.99),
            m.breakdown_sum.total(),
        ]
        .map(f64::to_bits),
        [
            0x3ff2_1400_625f_d225,
            0x3ff7_862a_2851_e2c1,
            0x3fb0_dcbf_0524_9bdc,
            0x3f7e_7287_6250_8a55,
            0x3f80_e722_67cc_828f,
            0x3f81_3b55_714f_733f,
            0x3ff2_1400_625f_d226,
        ],
        "busy, energy, foreground wait, chunk mean, max and p99, phase total"
    );
}
