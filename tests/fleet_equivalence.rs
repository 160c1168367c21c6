//! The single-loop driver and the fleet engine are the same machine for
//! arrays: a [`Vdev`] served by the [`Driver`] and a one-station
//! [`FleetEngine`] whose station device is the same tree produce
//! the same [`SimReport`] digest, on MEMS and on disk. Each driver run
//! also reproduces a recorded digest. Its results were first pinned on
//! the flat RAID-0/1/5 array devices that the depth-1 trees replaced.

#[path = "support/report.rs"]
mod report;

use atlas_disk::{DiskDevice, DiskParams};
use mems_device::{MemsDevice, MemsParams};
use mems_fleet::{FleetConfig, FleetEngine, VolumeSpec};
use mems_os::array::Vdev;
use mems_os::sched::SptfScheduler;
use report::report_digest;
use storage_sim::{Driver, SimReport, StorageDevice};
use storage_trace::RandomWorkload;

const STRIPE_UNIT: u32 = 64;
const REQUESTS: u64 = 600;

/// Serve `workload` through the single-loop driver.
fn solo_run<D: StorageDevice>(device: D, workload: RandomWorkload) -> SimReport {
    Driver::new(workload, SptfScheduler::new(), device)
        .record_completions(true)
        .run()
}

/// Serve `workload` through a one-station fleet whose station device is
/// the vdev tree, returning that station's report.
fn fleet_run<D: StorageDevice + Send>(device: Vdev<D>, workload: RandomWorkload) -> SimReport {
    let mut fleet = FleetEngine::streaming(
        vec![device],
        |_| SptfScheduler::new(),
        VolumeSpec::leaf(0),
        workload,
        FleetConfig::default(),
    )
    .run();
    fleet.stations.remove(0)
}

/// Runs the paper's random workload over a driver and a one-station
/// fleet, each on a fresh tree from `build`, and checks both against the
/// `recorded` digest.
fn check<D>(build: impl Fn() -> Vdev<D>, rate: f64, recorded: u64)
where
    D: StorageDevice + Send,
{
    let workload = || RandomWorkload::paper(build().capacity_lbns(), rate, REQUESTS, 0xF1EE7);
    let solo = report_digest(&solo_run(build(), workload()));
    assert_eq!(solo, report_digest(&fleet_run(build(), workload())));
    assert_eq!(solo, recorded);
}

fn mems() -> MemsDevice {
    MemsDevice::new(MemsParams::default())
}

fn disk() -> DiskDevice {
    DiskDevice::new(DiskParams::quantum_atlas_10k())
}

fn leaves<D: StorageDevice>(n: usize, device: fn() -> D) -> Vec<Vdev<D>> {
    (0..n).map(|_| Vdev::leaf(device())).collect()
}

#[test]
fn raid0_wrapper_matches_one_station_fleet_vdev_on_mems() {
    check(
        || Vdev::stripe(leaves(4, mems), STRIPE_UNIT),
        2000.0,
        0x7f25_1915_bbf2_7d15,
    );
}

#[test]
fn raid1_wrapper_matches_one_station_fleet_vdev_on_mems() {
    check(
        || Vdev::mirror(leaves(2, mems)),
        1200.0,
        0xbbfb_ab09_1339_43b2,
    );
}

#[test]
fn raid5_wrapper_matches_one_station_fleet_vdev_on_mems() {
    check(
        || Vdev::raidz(leaves(5, mems), STRIPE_UNIT),
        1600.0,
        0x1ea2_0e08_f209_61f3,
    );
}

#[test]
fn raid0_wrapper_matches_one_station_fleet_vdev_on_disk() {
    check(
        || Vdev::stripe(leaves(4, disk), STRIPE_UNIT),
        600.0,
        0x2f84_cad9_e7b3_8087,
    );
}

#[test]
fn raid1_wrapper_matches_one_station_fleet_vdev_on_disk() {
    check(
        || Vdev::mirror(leaves(2, disk)),
        400.0,
        0x0f0b_4ba8_605e_fb0e,
    );
}

#[test]
fn raid5_wrapper_matches_one_station_fleet_vdev_on_disk() {
    check(
        || Vdev::raidz(leaves(5, disk), STRIPE_UNIT),
        500.0,
        0xc49f_d2af_512d_f068,
    );
}
