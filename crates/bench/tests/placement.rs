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

use atlas_disk::{DiskDevice, DiskParams};
use mems_device::{MediaHeatmap, MemsDevice, MemsParams};
use mems_os::placement::{AdaptiveDevice, MigrationStats, PlacementConfig};
use mems_os::sched::SptfScheduler;
use storage_sim::{
    Driver, FaultKind, PhaseEnergy, PositionOracle, Request, ServiceBreakdown, SimReport, SimTime,
    StorageDevice, VecWorkload, Workload,
};
use storage_trace::{RandomWorkload, ShiftingHotspotWorkload};

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

fn migrating_config() -> PlacementConfig {
    PlacementConfig {
        block_sectors: 1024,
        half_life: 1.0,
        idle_window: 4e-3,
        max_swaps_per_window: 4,
        hysteresis: 1.5,
        min_rank_gain: 64,
        min_heat: 4.0,
        migrate: true,
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
    let dev = AdaptiveDevice::new(recorder, migrating_config());
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
    let cfg = PlacementConfig {
        migrate: false,
        ..migrating_config()
    };
    let wrapped = run_cell(AdaptiveDevice::new(device, cfg));
    assert!(
        bare.completions.as_ref().is_some_and(|c| !c.is_empty()),
        "identity runs must record completions"
    );
    // Debug renders every f64 as its shortest round-trip string, so equal
    // renderings mean bitwise-equal reports, completions included.
    assert_eq!(
        format!("{bare:?}"),
        format!("{wrapped:?}"),
        "{label}: migrations-off wrap must be bit-identical to the bare device"
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
