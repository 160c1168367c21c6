//! Wrappers that position exactly as their inner device must not cost
//! SPTF its pruning: draining a deep queue through each one picks the
//! same requests in the same order, with the same scheduler counters, as
//! the bare device. Every wrapper also hands scheduled faults and the
//! energy of a breakdown to the device it wraps, and each one that
//! forwards the pruning hooks forwards seek hints too.

use std::cell::RefCell;
use std::rc::Rc;

use mems_device::{MemsDevice, MemsEnergyModel, MemsParams};
use mems_os::array::Vdev;
use mems_os::cache::CachedDevice;
use mems_os::fault::{DegradedDevice, RemapPolicy, RemappedDevice};
use mems_os::placement::AdaptiveDevice;
use mems_os::power::{PowerManagedDevice, PowerProfile};
use mems_os::sched::SptfScheduler;
use storage_sim::{
    FaultKind, IoKind, PositionOracle, Request, SchedCounters, Scheduler, ServiceBreakdown,
    SimTime, StorageDevice,
};

const DEPTH: u64 = 256;

/// Enqueues `DEPTH` requests at scattered LBNs, then drains them. With
/// `serve`, each pick is served at the previous completion time, so the
/// device keeps moving; without, the device rests and the per-bucket
/// cache can answer. Returns the pick order and the scheduler's counters.
fn drain<D: StorageDevice>(mut device: D, serve: bool) -> (Vec<u64>, SchedCounters) {
    let capacity = device.capacity_lbns();
    let mut sched = SptfScheduler::new();
    let mut x = 0x5EED_u64;
    for id in 0..DEPTH {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let lbn = (x >> 11) % (capacity - 8);
        sched.enqueue(Request::new(id, SimTime::ZERO, lbn, 8, IoKind::Read));
    }
    let mut now = SimTime::ZERO;
    let mut order = Vec::new();
    while let Some(req) = sched.pick(&device, now) {
        if serve {
            now = now + SimTime::from_secs(device.service(&req, now).total());
        }
        order.push(req.id);
    }
    (order, sched.counters())
}

fn mems() -> MemsDevice {
    MemsDevice::new(MemsParams::default())
}

fn profile() -> PowerProfile {
    PowerProfile::mems(&MemsEnergyModel::default(), 1280)
}

#[test]
fn identity_wrappers_keep_the_pruned_sptf_pick() {
    for serve in [false, true] {
        let (order, bare) = drain(mems(), serve);
        assert_eq!(order.len() as u64, DEPTH);
        assert!(
            bare.candidates_examined < DEPTH * (DEPTH + 1) / 4,
            "the bare device prunes: {bare:?}"
        );
        assert_eq!(bare.cached_best_hits > 0, !serve, "{bare:?}");

        // Back-to-back service never idles, so the power wrapper never
        // sleeps and serves exactly as the bare device.
        let wrapped = [
            (
                "power-managed",
                drain(PowerManagedDevice::new(mems(), profile(), 0.01), serve),
            ),
            ("vdev leaf", drain(Vdev::leaf(mems()), serve)),
        ];
        for (name, (o, c)) in wrapped {
            assert_eq!(o, order, "{name} (serve {serve}): pick order");
            assert_eq!(c, bare, "{name} (serve {serve}): scheduler counters");
        }
    }
}

#[test]
fn remapped_device_prunes_like_the_bare_device() {
    // An empty far-spare table changes no request. Without a rest key
    // the per-bucket cache stays cold, but the picks match and the
    // buckets still prune.
    let spare_base = mems().capacity_lbns() - 2700;
    for serve in [false, true] {
        let (order, bare) = drain(mems(), serve);
        let (o, c) = drain(
            RemappedDevice::new(mems(), RemapPolicy::FarSpare, spare_base),
            serve,
        );
        assert_eq!(o, order);
        assert_eq!(c.picks, bare.picks);
        assert_eq!(c.cached_best_hits, 0);
        assert!(
            c.candidates_examined < DEPTH * (DEPTH + 1) / 4,
            "the wrapper prunes: {c:?}"
        );
    }
}

/// A tip failure sent to the wrapper must reach the `DegradedDevice`
/// inside it, which bills its spare-remap charge to the next request,
/// and the wrapper must price a breakdown as the MEMS device does.
#[test]
fn wrappers_forward_faults_and_phase_energy() {
    fn check<D: StorageDevice>(name: &str, mut device: D) {
        device.on_fault(&FaultKind::TipFailure { tip: 7 }, SimTime::ZERO);
        let req = Request::new(0, SimTime::ZERO, 0, 8, IoKind::Read);
        let b = device.service(&req, SimTime::ZERO);
        assert!(
            b.fault_recovery > 0.0,
            "{name}: the fault was not delivered"
        );
        let energy = mems().phase_energy(&b);
        assert!(energy.total() > 0.0);
        assert_eq!(device.phase_energy(&b), energy, "{name}: phase energy");
    }
    let degraded = || DegradedDevice::mems(mems(), 42).with_spare_tips(2);
    let spare_base = mems().capacity_lbns() - 2700;
    check(
        "power-managed",
        PowerManagedDevice::new(degraded(), profile(), 0.01),
    );
    check(
        "remapped",
        RemappedDevice::new(degraded(), RemapPolicy::FarSpare, spare_base),
    );
    check("cached", CachedDevice::new(degraded(), 8192, 512, 20e-6));
    check("vdev leaf", Vdev::leaf(degraded()));
}

/// Seek hints a [`Recorder`] was given, as `(from_bucket, to_bucket)`.
type Hints = Rc<RefCell<Vec<(u64, u64)>>>;

/// A MEMS device that records every seek hint it is given.
struct Recorder {
    inner: MemsDevice,
    hints: Hints,
}

fn recorder() -> (Recorder, Hints) {
    let hints = Hints::default();
    let recorder = Recorder {
        inner: mems(),
        hints: Rc::clone(&hints),
    };
    (recorder, hints)
}

impl PositionOracle for Recorder {
    fn position_time(&self, req: &Request, now: SimTime) -> f64 {
        self.inner.position_time(req, now)
    }

    fn prefetch_seek(&self, from_bucket: u64, to_bucket: u64) {
        self.hints.borrow_mut().push((from_bucket, to_bucket));
    }
}

impl StorageDevice for Recorder {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn capacity_lbns(&self) -> u64 {
        self.inner.capacity_lbns()
    }

    fn service(&mut self, req: &Request, now: SimTime) -> ServiceBreakdown {
        self.inner.service(req, now)
    }

    fn reset(&mut self) {
        self.inner.reset();
    }
}

/// Every wrapper that forwards `bucket_position_time_floor` hands seek
/// hints to the device it wraps with the buckets unchanged, off-device
/// ones included; the cache and an interior `Vdev` node drop them.
/// `DegradedDevice` wraps only MEMS devices and disks, so its module
/// checks its own forward.
#[test]
fn pruning_wrappers_forward_seek_hints_unchanged() {
    fn check(name: &str, oracle: &impl PositionOracle, hints: &Hints, forwards: bool) {
        let sent = [(3, 2499), (2499, 0), (u64::MAX, 7)];
        for (from, to) in sent {
            oracle.prefetch_seek(from, to);
        }
        let want = if forwards { sent.to_vec() } else { Vec::new() };
        assert_eq!(*hints.borrow(), want, "{name}");
    }
    let spare_base = mems().capacity_lbns() - 2700;

    let (bare, hints) = recorder();
    check("bare", &bare, &hints, true);
    let (r, hints) = recorder();
    check(
        "power-managed",
        &PowerManagedDevice::new(r, profile(), 0.01),
        &hints,
        true,
    );
    let (r, hints) = recorder();
    check("adaptive", &AdaptiveDevice::new(r, true), &hints, true);
    let (r, hints) = recorder();
    check(
        "remapped",
        &RemappedDevice::new(r, RemapPolicy::FarSpare, spare_base),
        &hints,
        true,
    );
    let (r, hints) = recorder();
    check("vdev leaf", &Vdev::leaf(r), &hints, true);

    let (r, hints) = recorder();
    check(
        "cached",
        &CachedDevice::new(r, 8192, 512, 20e-6),
        &hints,
        false,
    );
    let ((a, hints_a), (b, hints_b)) = (recorder(), recorder());
    let mirror = Vdev::mirror(vec![Vdev::leaf(a), Vdev::leaf(b)]);
    check("vdev mirror", &mirror, &hints_a, false);
    assert!(hints_b.borrow().is_empty(), "vdev mirror");
}
