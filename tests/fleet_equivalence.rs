//! The single-loop driver and the fleet engine are the same machine for
//! arrays: a [`Vdev`] served by the [`Driver`] and a one-station
//! [`FleetEngine`] whose station device is the same tree produce
//! byte-identical [`SimReport`]s, on MEMS and on disk. Each driver run
//! also reproduces the report digest recorded from the flat
//! RAID-0/1/5 array devices that the depth-1 trees replaced.

use atlas_disk::{DiskDevice, DiskParams};
use mems_device::{MemsDevice, MemsParams};
use mems_os::array::Vdev;
use mems_os::sched::SptfScheduler;
use storage_sim::{Driver, SimReport, StorageDevice};
use storage_trace::RandomWorkload;

use mems_fleet::{FleetConfig, FleetEngine, VolumeSpec};

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

/// FNV-1a over every field the driver fills in, floats by bit pattern,
/// completions one by one.
fn report_digest(r: &SimReport) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut put = |v: u64| h = (h ^ v).wrapping_mul(0x100_0000_01b3);
    put(r.completed);
    put(r.makespan.as_secs().to_bits());
    put(r.response.mean().to_bits());
    put(r.service_time.mean().to_bits());
    put(r.busy_secs.to_bits());
    put(r.mean_queue_depth.to_bits());
    for c in r.completions.as_ref().expect("recorded") {
        put(c.request.id);
        put(c.start_service.as_secs().to_bits());
        put(c.completion.as_secs().to_bits());
    }
    h
}

/// Runs the paper's random workload over a driver and a one-station
/// fleet, each on a fresh tree from `build`, and checks both against the
/// digest `recorded` from the equivalent flat array device.
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
        0x29a0_3ea5_4a9f_4423,
    );
}

#[test]
fn raid1_wrapper_matches_one_station_fleet_vdev_on_mems() {
    check(
        || Vdev::mirror(leaves(2, mems)),
        1200.0,
        0xdb05_7ab1_30ee_83c7,
    );
}

#[test]
fn raid5_wrapper_matches_one_station_fleet_vdev_on_mems() {
    check(
        || Vdev::raidz(leaves(5, mems), STRIPE_UNIT),
        1600.0,
        0x64f9_3938_56aa_2838,
    );
}

#[test]
fn raid0_wrapper_matches_one_station_fleet_vdev_on_disk() {
    check(
        || Vdev::stripe(leaves(4, disk), STRIPE_UNIT),
        600.0,
        0x811b_09ff_471a_0a22,
    );
}

#[test]
fn raid1_wrapper_matches_one_station_fleet_vdev_on_disk() {
    check(
        || Vdev::mirror(leaves(2, disk)),
        400.0,
        0xecdb_6592_f586_f22b,
    );
}

#[test]
fn raid5_wrapper_matches_one_station_fleet_vdev_on_disk() {
    check(
        || Vdev::raidz(leaves(5, disk), STRIPE_UNIT),
        500.0,
        0xb9bb_1cdd_2406_1e4c,
    );
}
