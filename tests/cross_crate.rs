//! Cross-crate integration: the full simulation stack holds its
//! invariants for every device, scheduler, and wrapper combination.

use atlas_disk::{DiskDevice, DiskParams};
use mems_device::{MemsDevice, MemsEnergyModel, MemsParams};
use mems_os::fault::{RemapPolicy, RemappedDevice};
use mems_os::power::{PowerManagedDevice, PowerProfile};
use mems_os::sched::Algorithm;
use std::collections::HashSet;
use storage_sim::{Driver, StorageDevice, Workload};
use storage_trace::{cello_for_capacity, RandomWorkload, Replay, TpccParams, TpccTrace};

/// Every request completes exactly once, responses dominate service
/// times, and the timeline is causally consistent.
fn check_conservation<D: StorageDevice>(device: D, alg: Algorithm, requests: u64) {
    let capacity = device.capacity_lbns();
    let workload = RandomWorkload::paper(capacity, 800.0, requests, 0xC0C0);
    let mut driver = Driver::new(workload, alg.build(), device).record_completions(true);
    let report = driver.run();
    assert_eq!(report.completed, requests);
    let completions = report.completions.as_ref().expect("recording enabled");
    assert_eq!(completions.len() as u64, requests);
    let ids: HashSet<u64> = completions.iter().map(|c| c.request.id).collect();
    assert_eq!(ids.len() as u64, requests, "every id exactly once");
    for c in completions {
        assert!(c.start_service >= c.request.arrival, "no time travel");
        assert!(c.completion > c.start_service, "service takes time");
        assert!(c.response_time() >= c.service_time());
    }
    assert!(report.busy_secs <= report.makespan.as_secs() + 1e-9);
}

#[test]
fn conservation_mems_all_algorithms() {
    for alg in Algorithm::ALL {
        check_conservation(MemsDevice::new(MemsParams::default()), alg, 1500);
    }
}

#[test]
fn conservation_disk_all_algorithms() {
    for alg in Algorithm::ALL {
        check_conservation(DiskDevice::new(DiskParams::quantum_atlas_10k()), alg, 400);
    }
}

#[test]
fn remapped_device_serves_full_workloads() {
    let inner = MemsDevice::new(MemsParams::default());
    let capacity = inner.capacity_lbns();
    let mut dev = RemappedDevice::new(inner, RemapPolicy::FarSpare, capacity - 2700);
    for lbn in (0..capacity - 2700).step_by(97_013) {
        dev.remap(lbn);
    }
    check_conservation(dev, Algorithm::Sptf, 800);
}

#[test]
fn power_managed_device_serves_full_workloads() {
    let profile = PowerProfile::mems(&MemsEnergyModel::default(), 1280);
    let dev = PowerManagedDevice::new(MemsDevice::new(MemsParams::default()), profile, 0.0);
    check_conservation(dev, Algorithm::Clook, 1000);
}

#[test]
fn arrays_serve_full_workloads() {
    use mems_os::array::Vdev;
    let leaves = |n| {
        (0..n)
            .map(|_| Vdev::leaf(MemsDevice::new(MemsParams::default())))
            .collect::<Vec<_>>()
    };
    check_conservation(Vdev::stripe(leaves(4), 64), Algorithm::Sptf, 800);
    check_conservation(Vdev::mirror(leaves(2)), Algorithm::Clook, 800);
    check_conservation(Vdev::raidz(leaves(5), 64), Algorithm::SstfLbn, 800);
}

#[test]
fn cached_device_serves_full_workloads() {
    let dev =
        mems_os::cache::CachedDevice::new(MemsDevice::new(MemsParams::default()), 8192, 256, 20e-6);
    check_conservation(dev, Algorithm::Sptf, 1000);
}

#[test]
fn trace_generators_drive_both_devices() {
    let mems = MemsDevice::new(MemsParams::default());
    let capacity = mems.capacity_lbns();
    let cello = cello_for_capacity(capacity, 1200, 5);
    let report = Driver::new(Replay::new(cello, 4.0), Algorithm::Sptf.build(), mems).run();
    assert_eq!(report.completed, 1200);

    let disk = DiskDevice::new(DiskParams::quantum_atlas_10k());
    let tpcc = TpccTrace::new(
        &TpccParams {
            capacity: disk.capacity_lbns(),
            database_sectors: 2_000_000,
            requests: 600,
            ..TpccParams::default()
        },
        5,
    );
    let report = Driver::new(Replay::new(tpcc, 0.25), Algorithm::Clook.build(), disk).run();
    assert_eq!(report.completed, 600);
}

#[test]
fn breakdown_components_are_consistent() {
    // The per-request decomposition sums match the totals accumulated by
    // the driver, for both device families.
    let mems = MemsDevice::new(MemsParams::default());
    let capacity = mems.capacity_lbns();
    let mut driver = Driver::new(
        RandomWorkload::paper(capacity, 200.0, 500, 21),
        Algorithm::Fcfs.build(),
        mems,
    );
    let report = driver.run();
    let b = &report.breakdown_sum;
    let component_total = b.positioning + b.transfer + b.overhead;
    assert!(
        (component_total - report.busy_secs).abs() < 1e-9,
        "components {component_total} vs busy {}",
        report.busy_secs
    );
    assert!(b.turnaround <= b.transfer + 1e-12, "turnaround ⊆ transfer");
    assert!(b.seek_x + b.settle <= b.positioning + 1e-9);
}

#[test]
fn workload_arrival_monotonicity_holds_for_all_generators() {
    let capacity = 6_750_000;
    let mut sources: Vec<Box<dyn Workload>> = vec![
        Box::new(RandomWorkload::paper(capacity, 1000.0, 500, 1)),
        Box::new(Replay::new(cello_for_capacity(capacity, 500, 1), 2.0)),
        Box::new(Replay::new(
            storage_trace::tpcc_for_capacity(capacity, 500, 1),
            2.0,
        )),
    ];
    for w in sources.iter_mut() {
        let mut last = storage_sim::SimTime::ZERO;
        let mut count = 0;
        while let Some(r) = w.next_request() {
            assert!(r.arrival >= last);
            assert!(r.end_lbn() <= capacity);
            last = r.arrival;
            count += 1;
        }
        assert_eq!(count, 500);
    }
}
