//! The benchmark's own checks: tracing never changes the simulated
//! output, traced counts repeat exactly, the layers reconcile with the
//! round total, and the shipped digests still hold.

use std::sync::Arc;

use mems_bench::shared_seek_surface;
use mems_device::{MemsDevice, MemsParams, SeekSurface};
use mems_os::sched::SptfScheduler;
use perfbench::layers::{remainder_ns, traced_round, TracedRound};
use perfbench::timed::{StationProbes, TimedDevice, TimedScheduler};
use perfbench::workloads::{
    recorded_digest, reference_mismatch, route_pass, run_round, Inputs, Kind, DEFAULT_SEED,
    HELD_OUT_SEED,
};
use storage_sim::{IoKind, PositionOracle, Request, SchedCounters, Scheduler, SimTime};

/// Requests per round in the quick tests.
const SMALL: u64 = 20_000;

fn surface() -> Arc<SeekSurface> {
    shared_seek_surface(&MemsParams::default()).expect("paper surface fits its guard")
}

fn traced(kind: Kind, seed: u64) -> TracedRound {
    traced_round(Inputs::new(kind, seed, SMALL, &surface()))
}

#[test]
fn traced_digest_equals_untraced_on_every_workload() {
    for kind in Kind::ALL {
        let plain = run_round(Inputs::new(kind, 3, SMALL, &surface()), None);
        let t = traced(kind, 3);
        assert!(
            plain.violations.is_empty(),
            "{kind:?}: {:?}",
            plain.violations
        );
        assert_eq!(plain.digest, t.round.digest, "{kind:?}");
    }
}

#[test]
fn traced_counts_repeat_exactly() {
    for kind in Kind::ALL {
        let a = traced(kind, 4);
        let b = traced(kind, 4);
        assert_eq!(a.counts, b.counts, "{kind:?}");
        assert!(a.counts.service > 0 && a.counts.picks > 0, "{kind:?}");
        // Every request is pulled once, plus the end-of-stream probes.
        assert!(a.counts.next_request > SMALL, "{kind:?}");
    }
}

#[test]
fn layers_reconcile_with_the_round_total() {
    for kind in Kind::ALL {
        let t = traced(kind, 5);
        if kind.is_fleet() {
            // CPU time comes in 10 ms ticks, too coarse for one short
            // round: check against what the threads could have run.
            let capacity = t.round.wall_ns * kind.threads() as u64;
            assert!(
                t.nanos.children() <= capacity,
                "{kind:?}: children {} ns over {capacity} ns",
                t.nanos.children()
            );
        } else {
            assert!(
                remainder_ns(kind, std::slice::from_ref(&t), 0) >= 0,
                "{kind:?}"
            );
        }
        // The oracle runs inside the scheduler's pick.
        assert!(t.nanos.oracle <= t.nanos.pick, "{kind:?}");
    }
}

#[test]
fn bypassed_layers_report_zero_calls() {
    let fifo = traced(Kind::FifoStream, 6);
    assert_eq!(fifo.counts.oracle, 0, "FCFS never consults the oracle");
    assert_eq!(fifo.counts.barriers, 0);
    let sptf = traced(Kind::SptfDeep, 6);
    assert!(sptf.counts.oracle >= sptf.counts.picks);
    assert_eq!(sptf.counts.barriers, 0);
    let fleet = traced(Kind::FleetRaid10, 6);
    assert!(fleet.counts.barriers > 0);
    // Writes fan out to both replicas, so there are more sub-I/Os than
    // requests, and every one of them is serviced exactly once.
    assert!(fleet.counts.subs > SMALL);
    assert_eq!(fleet.counts.service, fleet.counts.subs);
    let (routed, _) = route_pass(6, SMALL, &surface());
    assert_eq!(routed, fleet.counts.subs);
}

#[test]
fn reference_configurations_agree() {
    for kind in Kind::ALL {
        let round = run_round(Inputs::new(kind, 8, SMALL, &surface()), None);
        assert_eq!(
            reference_mismatch(kind, 8, SMALL, &surface(), &round),
            None,
            "{kind:?}"
        );
    }
}

#[test]
fn recorded_digests_match_full_rounds() {
    for kind in Kind::ALL {
        for seed in [DEFAULT_SEED, HELD_OUT_SEED] {
            let recorded = recorded_digest(kind, seed).expect("shipped digest");
            let round = run_round(Inputs::new(kind, seed, kind.requests(), &surface()), None);
            assert!(
                round.violations.is_empty(),
                "{kind:?}: {:?}",
                round.violations
            );
            assert_eq!(round.digest, recorded, "{kind:?} seed {seed}");
        }
    }
}

/// Drains a queue without servicing (the sled never moves, so the rest
/// key holds and the pick cache must fire) and returns the pick order and
/// the scheduler's work counters.
fn drain<O: PositionOracle>(device: &O, sched: &mut impl Scheduler) -> (Vec<u64>, SchedCounters) {
    let mut lbn = 12_345u64;
    for id in 0..600 {
        lbn = (lbn * 1_103_515_245 + 12_345) % 6_000_000;
        sched.enqueue(Request::new(id, SimTime::ZERO, lbn, 8, IoKind::Read));
    }
    let order = (0..300)
        .map(|_| sched.pick(device, SimTime::ZERO).expect("queued").id)
        .collect();
    (order, sched.counters())
}

#[test]
fn wrappers_keep_pruning_and_the_pick_cache() {
    // Dropping a defaulted oracle method (rest key, bucket floors) leaves
    // the picks unchanged but turns off pruning or caching, so compare the
    // work counters, not just the pick order.
    let s = surface();
    let device = MemsDevice::new(MemsParams::default()).with_seek_surface(Arc::clone(&s));
    let probes = Arc::new(StationProbes::default());
    let wrapped = TimedDevice::new(device.clone(), Arc::clone(&probes));
    let plain = drain(&device, &mut SptfScheduler::new());
    let timed = drain(
        &wrapped,
        &mut TimedScheduler::new(SptfScheduler::new(), Arc::clone(&probes)),
    );
    assert_eq!(plain.1, timed.1, "work counters");
    assert_eq!(plain.0, timed.0, "pick order");
    assert!(plain.1.cached_best_hits > 0 && plain.1.buckets_pruned > 0);
    assert_eq!(probes.sched(), plain.1);
    assert_eq!(probes.pick.calls(), 300);
}
