//! Bit-identity of the driver's fast paths against their references.
//!
//! The scheduler axis runs one Fig. 6-style cell under the pruned SPTF
//! pick and under the naive full scan: the `SimReport`s must match field
//! for field — same completions in the same order at the same times, same
//! accumulated statistics.
//!
//! The engine axis replays 16 driver cells — MEMS and the Atlas 10K disk;
//! FIFO and SPTF; with and without a degraded device under a Poisson fault
//! storm; with and without an overload policy that both sheds and times
//! out — and checks each report digest against the value recorded from
//! the calendar-queue and slab engine that the three-slot event loop
//! replaced. Any drift here means the event loop changed *what* is
//! simulated, not just how fast. Each cell also pins the scheduler's final
//! work counters, recorded from the dense per-cylinder SPTF index that the
//! queue-sized one replaced, so a change that keeps the picks but silently
//! stops pruning or caching fails too.

#[path = "../crates/core/src/sched/naive_sptf.rs"]
mod naive_sptf;
#[path = "support/report.rs"]
mod report;

use atlas_disk::{DiskDevice, DiskParams};
use mems_device::{MemsDevice, MemsParams};
use mems_os::fault::DegradedDevice;
use mems_os::sched::{Algorithm, PaperScheduler, SptfScheduler};
use naive_sptf::NaiveSptfScheduler;
use report::{assert_reports_identical, report_digest};
use std::rc::Rc;

use storage_sim::{
    Driver, FaultClock, OverloadPolicy, PositionOracle, Request, SchedCounters, Scheduler,
    SimReport, SimTime, StorageDevice,
};
use storage_trace::RandomWorkload;

const CAPACITY: u64 = 6_750_000;
/// The Fig. 6 saturation knee: deep queues, dense event traffic.
const RATE: f64 = 2200.0;
const REQUESTS: u64 = 1500;
const SEED: u64 = 0x5EED_0006;

fn mems_workload() -> RandomWorkload {
    RandomWorkload::paper(CAPACITY, RATE, REQUESTS, SEED)
}

/// Runs one Fig. 6-style cell on the MEMS device.
fn run_mems_cell<S: Scheduler>(scheduler: S) -> SimReport {
    Driver::new(
        mems_workload(),
        scheduler,
        MemsDevice::new(MemsParams::default()),
    )
    .warmup_requests(200)
    .record_completions(true)
    .run()
}

#[test]
fn full_fast_stack_matches_full_reference_stack() {
    // Pruned, cached SPTF against the naive scan over every candidate.
    let fast = run_mems_cell(SptfScheduler::new());
    let reference = run_mems_cell(NaiveSptfScheduler::new());
    assert_reports_identical(&fast, &reference, "pruned vs naive");
}

/// Requests per engine-axis cell, and the completions excluded as warm-up.
const CELL_REQUESTS: u64 = 800;
const CELL_WARMUP: u64 = 100;
const CELL_SEED: u64 = 0x00D1_6E57;
const FAULT_SEED: u64 = 0x00FA_0175;

#[derive(Clone, Copy, Debug)]
enum Sched {
    Fifo,
    Sptf,
}

/// One engine-axis cell: the scheduler, whether the device is degraded
/// under a fault storm, whether the overload policy is attached, the
/// report digest recorded for the cell, and the scheduler's final
/// `[picks, candidates_examined, buckets_pruned, cached_best_hits]`.
type Cell = (Sched, bool, bool, u64, [u64; 4]);

/// Forwards every call to the wrapped scheduler and publishes its counters
/// after each pick, so a cell can read them after the driver, which owns
/// the scheduler, has run.
struct Counted {
    inner: PaperScheduler,
    counters: Rc<std::cell::Cell<SchedCounters>>,
}

impl Scheduler for Counted {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn enqueue(&mut self, req: Request) {
        self.inner.enqueue(req);
    }

    fn pick<O: PositionOracle + ?Sized>(&mut self, device: &O, now: SimTime) -> Option<Request> {
        let picked = self.inner.pick(device, now);
        self.counters.set(self.inner.counters());
        picked
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn counters(&self) -> SchedCounters {
        self.inner.counters()
    }
}

/// Runs `cell` on `device` at `rate` under `policy` (attached only when
/// the cell asks for overload control) and `faults`, and checks the
/// digest and the scheduler's work counters. Every cell must complete
/// requests past warm-up, and an overload cell must both shed and time
/// out.
fn check_cell<D: StorageDevice>(
    cell: Cell,
    device: D,
    rate: f64,
    faults: FaultClock,
    policy: OverloadPolicy,
) {
    let (sched, faulted, overload, digest, work) = cell;
    let workload = RandomWorkload::paper(device.capacity_lbns(), rate, CELL_REQUESTS, CELL_SEED);
    let counters = Rc::new(std::cell::Cell::new(SchedCounters::default()));
    let scheduler = Counted {
        inner: match sched {
            Sched::Fifo => Algorithm::Fcfs,
            Sched::Sptf => Algorithm::Sptf,
        }
        .build(),
        counters: Rc::clone(&counters),
    };
    let mut driver = Driver::new(workload, scheduler, device)
        .with_faults(faults)
        .warmup_requests(CELL_WARMUP)
        .record_completions(true);
    if overload {
        driver = driver.with_overload(policy);
    }
    let report = driver.run();
    assert!(report.completed > 0, "{cell:?}: nothing completed");
    assert_eq!(report.fault_events > 0, faulted, "{cell:?}: faults");
    if overload {
        assert!(
            report.shed > 0 && report.timed_out > 0,
            "{cell:?}: overload"
        );
    }
    assert_eq!(report_digest(&report), digest, "{cell:?}: digest");
    let c = counters.get();
    assert_eq!(
        [
            c.picks,
            c.candidates_examined,
            c.buckets_pruned,
            c.cached_best_hits
        ],
        work,
        "{cell:?}: scheduler work"
    );
}

/// A Poisson storm over the cell's arrival window, scaled to the arrival
/// rate: a transient seek error per ten arrivals, a media defect per 40
/// and a tip failure per 80.
fn storm(rate: f64, tips: u32) -> FaultClock {
    let horizon = SimTime::from_secs(CELL_REQUESTS as f64 / rate);
    FaultClock::poisson(
        FAULT_SEED,
        horizon,
        rate / 80.0,
        rate / 10.0,
        rate / 40.0,
        tips,
        27,
    )
}

#[test]
fn driver_matches_recorded_digests_on_mems() {
    const RATE: f64 = 3000.0;
    let policy = OverloadPolicy::watermarks(64, 16).with_queue_timeout(SimTime::from_ms(40.0));
    let tips = MemsParams::default().tips;
    #[rustfmt::skip]
    let cells: [Cell; 8] = [
        (Sched::Fifo, false, false, 0x5219_66ce_b9fb_bb00, [800, 800, 0, 0]),
        (Sched::Fifo, false, true, 0x7216_1b46_e450_5607, [417, 417, 0, 0]),
        (Sched::Fifo, true, false, 0xf7d2_36df_ee83_7373, [800, 800, 0, 0]),
        (Sched::Fifo, true, true, 0x618c_3382_7d28_f291, [394, 394, 0, 0]),
        (Sched::Sptf, false, false, 0x1856_f1ce_eaef_4036, [800, 1761, 2301, 0]),
        (Sched::Sptf, false, true, 0x48a3_ba67_c032_3c33, [592, 913, 1283, 61]),
        (Sched::Sptf, true, false, 0xf33c_d158_c1a4_ec39, [800, 1897, 2472, 0]),
        (Sched::Sptf, true, true, 0xad1d_9465_08a6_05f0, [472, 831, 1069, 0]),
    ];
    for cell @ (_, faulted, ..) in cells {
        let mems = MemsDevice::new(MemsParams::default());
        if faulted {
            let device = DegradedDevice::mems(mems, FAULT_SEED).with_spare_tips(1);
            check_cell(cell, device, RATE, storm(RATE, tips), policy);
        } else {
            check_cell(cell, mems, RATE, FaultClock::empty(), policy);
        }
    }
}

#[test]
fn driver_matches_recorded_digests_on_disk() {
    const RATE: f64 = 300.0;
    let policy = OverloadPolicy::watermarks(16, 4).with_queue_timeout(SimTime::from_ms(80.0));
    #[rustfmt::skip]
    let cells: [Cell; 8] = [
        (Sched::Fifo, false, false, 0x62b8_379c_7be7_c11e, [800, 800, 0, 0]),
        (Sched::Fifo, false, true, 0xdb32_4397_2d91_e571, [428, 428, 0, 0]),
        (Sched::Fifo, true, false, 0x2e69_ef49_70bd_6670, [800, 800, 0, 0]),
        (Sched::Fifo, true, true, 0x7d31_a7ab_935c_a677, [413, 413, 0, 0]),
        (Sched::Sptf, false, false, 0xa59e_3617_d424_86ea, [800, 8382, 0, 0]),
        (Sched::Sptf, false, true, 0x51d6_cbcb_7ca9_4959, [616, 2415, 0, 337]),
        (Sched::Sptf, true, false, 0xe0c2_1cd5_e7f2_a7b0, [800, 10224, 0, 0]),
        (Sched::Sptf, true, true, 0x535a_d22e_42fe_7c36, [521, 2368, 0, 0]),
    ];
    for cell @ (_, faulted, ..) in cells {
        let disk = DiskDevice::new(DiskParams::quantum_atlas_10k());
        if faulted {
            let device = DegradedDevice::disk(disk, FAULT_SEED);
            check_cell(cell, device, RATE, storm(RATE, 1), policy);
        } else {
            check_cell(cell, disk, RATE, FaultClock::empty(), policy);
        }
    }
}
