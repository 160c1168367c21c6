//! The traced run: per-layer counts and busy times, and their
//! reconciliation with the run's wall (or CPU) time.
//!
//! Layer busy times come from the [`crate::timed`] wrappers. The driver
//! (one station) or the fleet engine keeps the remainder: its self time is
//! the round's wall time (one station) or process CPU time (fleet) minus
//! every child layer, so the layers account for the whole round by
//! construction and a negative remainder means the spans over-count.

use crate::timed::Span;
use crate::workloads::{run_round, Inputs, Kind, Probes, Round};
use crate::{median, Metric};

/// Call and work counts of one traced round. A deterministic simulator
/// repeats these exactly from round to round.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerCounts {
    /// `position_time` calls.
    pub oracle: u64,
    /// `service` calls.
    pub service: u64,
    /// `pick` calls, including those that found the queue empty.
    pub pick_calls: u64,
    /// `enqueue` calls.
    pub enqueue: u64,
    /// `next_request` calls.
    pub next_request: u64,
    /// Successful picks (`SchedCounters::picks`).
    pub picks: u64,
    /// Candidates examined (`SchedCounters::candidates_examined`).
    pub candidates: u64,
    /// Buckets pruned (`SchedCounters::buckets_pruned`).
    pub buckets_pruned: u64,
    /// Pick-cache hits (`SchedCounters::cached_best_hits`).
    pub cache_hits: u64,
    /// Fleet barriers.
    pub barriers: u64,
    /// Sub-I/Os completed.
    pub subs: u64,
}

/// Host nanoseconds each timed boundary spent in one traced round.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerNanos {
    /// `position_time`.
    pub oracle: u64,
    /// `service`.
    pub service: u64,
    /// `pick`, including the nested `position_time` calls.
    pub pick: u64,
    /// `enqueue`.
    pub enqueue: u64,
    /// `next_request`.
    pub next_request: u64,
}

impl LayerNanos {
    /// Every child layer of the driver loop, each counted once (the oracle
    /// runs inside `pick`).
    pub fn children(&self) -> u64 {
        self.pick + self.enqueue + self.service + self.next_request
    }
}

/// One traced round: its simulated result and its layer readings.
#[derive(Debug, Clone)]
pub struct TracedRound {
    /// The simulated result, comparable with an untraced round.
    pub round: Round,
    /// Call and work counts.
    pub counts: LayerCounts,
    /// Busy nanoseconds per boundary.
    pub nanos: LayerNanos,
}

fn sum_spans<'a>(spans: impl Iterator<Item = &'a Span>) -> (u64, u64) {
    spans.fold((0, 0), |(c, n), s| (c + s.calls(), n + s.nanos()))
}

/// Runs one round through the timing wrappers.
pub fn traced_round(inputs: Inputs) -> TracedRound {
    let probes = Probes::new(inputs.kind());
    let round = run_round(inputs, Some(&probes));
    let st = &probes.stations;
    let (oracle_calls, oracle) = sum_spans(st.iter().map(|s| &s.oracle));
    let (service_calls, service) = sum_spans(st.iter().map(|s| &s.service));
    let (pick_calls, pick) = sum_spans(st.iter().map(|s| &s.pick));
    let (enqueue_calls, enqueue) = sum_spans(st.iter().map(|s| &s.enqueue));
    let counts = LayerCounts {
        oracle: oracle_calls,
        service: service_calls,
        pick_calls,
        enqueue: enqueue_calls,
        next_request: probes.next_request.calls(),
        picks: round.sched.picks,
        candidates: round.sched.candidates_examined,
        buckets_pruned: round.sched.buckets_pruned,
        cache_hits: round.sched.cached_best_hits,
        barriers: round.barriers,
        subs: round.subs,
    };
    let nanos = LayerNanos {
        oracle,
        service,
        pick,
        enqueue,
        next_request: probes.next_request.nanos(),
    };
    TracedRound {
        round,
        counts,
        nanos,
    }
}

/// What the driver (one station) or the engine (fleet) keeps of the
/// traced rounds' total once every child layer is taken out. The total is
/// wall time on one station and process CPU time on the fleet, whose
/// layers run on several threads at once; it is summed over all rounds
/// because CPU time comes in 10 ms ticks. `route_ns` is the separately
/// timed routing cost of one round.
pub fn remainder_ns(kind: Kind, traced: &[TracedRound], route_ns: u64) -> i64 {
    let total: u64 = traced
        .iter()
        .map(|t| {
            if kind.is_fleet() {
                t.round.cpu_ns
            } else {
                t.round.wall_ns
            }
        })
        .sum();
    let children: u64 = traced.iter().map(|t| t.nanos.children() + route_ns).sum();
    total as i64 - children as i64
}

/// Everything the per-layer report is computed from.
pub struct LayerInputs<'a> {
    /// The workload.
    pub kind: Kind,
    /// Requests per round.
    pub requests: u64,
    /// Traced rounds (at least one).
    pub traced: &'a [TracedRound],
    /// Median wall nanoseconds of the untraced rounds of the same run.
    pub untraced_wall_ns: f64,
    /// Sub-I/Os and nanoseconds of the `VolumeSpec::route` pass (fleet
    /// only; zeros on one station).
    pub route: (u64, u64),
    /// Seconds the shared seek surface took to build.
    pub surface_build_s: f64,
    /// Bytes the seek surface occupies.
    pub surface_bytes: u64,
    /// Cost of one empty timing span, nanoseconds.
    pub span_ns: f64,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The per-layer metrics of a traced run. Counts and busy times are per
/// round (one round simulates `requests` requests); times are also given
/// per simulated request and per sub-I/O, so a fleet row and a
/// single-station row compare like with like.
pub fn layer_metrics(inp: &LayerInputs) -> Vec<Metric> {
    let rounds = inp.traced.len().max(1) as f64;
    let c = inp.traced[0].counts;
    let sum = |f: fn(&TracedRound) -> u64| inp.traced.iter().map(f).sum::<u64>() as f64 / rounds;
    let oracle = sum(|t| t.nanos.oracle);
    let service = sum(|t| t.nanos.service);
    let pick = sum(|t| t.nanos.pick);
    let enqueue = sum(|t| t.nanos.enqueue);
    let next = sum(|t| t.nanos.next_request);
    let wall = sum(|t| t.round.wall_ns);
    let cpu = sum(|t| t.round.cpu_ns);
    let requests = inp.requests as f64;
    let subs = c.subs as f64;
    let (route_subs, route_ns) = (inp.route.0 as f64, inp.route.1 as f64);
    let children = pick + enqueue + service + next;
    let pick_self = pick - oracle;

    let mut m = Vec::new();
    let timed_layer = |m: &mut Vec<Metric>, prefix: &str, ns: f64| {
        m.push(Metric::new(format!("{prefix}.busy_s"), ns / 1e9, "s"));
        m.push(Metric::new(
            format!("{prefix}.ns_per_request"),
            ratio(ns, requests),
            "ns",
        ));
        m.push(Metric::new(
            format!("{prefix}.ns_per_sub"),
            ratio(ns, subs),
            "ns",
        ));
    };

    m.push(Metric::new(
        "mems-device.oracle.calls",
        c.oracle as f64,
        "count",
    ));
    m.push(Metric::new(
        "mems-device.oracle.ns_per_call",
        ratio(oracle, c.oracle as f64),
        "ns",
    ));
    timed_layer(&mut m, "mems-device.oracle", oracle);

    m.push(Metric::new("mems-os.sched.picks", c.picks as f64, "count"));
    m.push(Metric::new(
        "mems-os.sched.pick_self_ns",
        ratio(pick_self, c.picks as f64),
        "ns",
    ));
    m.push(Metric::new(
        "mems-os.sched.enqueue_ns",
        ratio(enqueue, c.enqueue as f64),
        "ns",
    ));
    m.push(Metric::new(
        "mems-os.sched.candidates_per_pick",
        ratio(c.candidates as f64, c.picks as f64),
        "count",
    ));
    m.push(Metric::new(
        "mems-os.sched.cache_hits_per_pick",
        ratio(c.cache_hits as f64, c.picks as f64),
        "count",
    ));
    m.push(Metric::new(
        "mems-os.sched.buckets_pruned_per_pick",
        ratio(c.buckets_pruned as f64, c.picks as f64),
        "count",
    ));
    timed_layer(&mut m, "mems-os.sched", pick_self + enqueue);

    m.push(Metric::new(
        "mems-device.service.calls",
        c.service as f64,
        "count",
    ));
    m.push(Metric::new(
        "mems-device.service.ns_per_call",
        ratio(service, c.service as f64),
        "ns",
    ));
    timed_layer(&mut m, "mems-device.service", service);

    m.push(Metric::new(
        "storage-trace.next_request.calls",
        c.next_request as f64,
        "count",
    ));
    m.push(Metric::new(
        "storage-trace.next_request.ns_per_call",
        ratio(next, c.next_request as f64),
        "ns",
    ));
    timed_layer(&mut m, "storage-trace.next_request", next);

    // On one station the driver loop owns the wall-time remainder; on the
    // fleet the station drivers run inside the engine's workers, so their
    // loop time is part of the engine's CPU remainder instead.
    let driver_self = if inp.kind.is_fleet() {
        0.0
    } else {
        wall - children
    };
    m.push(Metric::new(
        "storage-sim.driver.self_ns_per_request",
        ratio(driver_self, requests),
        "ns",
    ));
    m.push(Metric::new(
        "storage-sim.driver.self_ns_per_sub",
        ratio(driver_self, subs),
        "ns",
    ));
    m.push(Metric::new(
        "storage-sim.driver.self_s",
        driver_self / 1e9,
        "s",
    ));
    let r = &inp.traced[0].round;
    m.push(Metric::new(
        "storage-sim.driver.mean_queue_depth",
        r.mean_queue_depth,
        "count",
    ));
    m.push(Metric::new(
        "storage-sim.driver.max_queue_depth",
        r.max_queue_depth as f64,
        "count",
    ));
    m.push(Metric::new(
        "storage-sim.driver.queue_restructures",
        r.restructures as f64,
        "count",
    ));

    m.push(Metric::new(
        "mems-fleet.route.ns_per_request",
        ratio(route_ns, requests),
        "ns",
    ));
    m.push(Metric::new(
        "mems-fleet.route.ns_per_sub",
        ratio(route_ns, route_subs),
        "ns",
    ));
    m.push(Metric::new(
        "mems-fleet.route.subs_per_request",
        ratio(subs, requests),
        "count",
    ));
    m.push(Metric::new("mems-fleet.route.busy_s", route_ns / 1e9, "s"));

    let (engine_self, cpu_util) = if inp.kind.is_fleet() {
        (
            cpu - children - route_ns,
            ratio(cpu, wall * inp.kind.threads() as f64),
        )
    } else {
        (0.0, 0.0)
    };
    m.push(Metric::new(
        "mems-fleet.engine.self_s",
        engine_self / 1e9,
        "s",
    ));
    m.push(Metric::new(
        "mems-fleet.engine.ns_per_request",
        ratio(engine_self, requests),
        "ns",
    ));
    m.push(Metric::new(
        "mems-fleet.engine.ns_per_sub",
        ratio(engine_self, subs),
        "ns",
    ));
    m.push(Metric::new("mems-fleet.engine.cpu_util", cpu_util, "ratio"));
    m.push(Metric::new(
        "mems-fleet.engine.barriers",
        c.barriers as f64,
        "count",
    ));

    m.push(Metric::new(
        "mems-bench.surface.build_s",
        inp.surface_build_s,
        "s",
    ));
    m.push(Metric::new(
        "mems-bench.surface.bytes",
        inp.surface_bytes as f64,
        "bytes",
    ));

    m.push(Metric::new("run.traced_wall_s", wall / 1e9, "s"));
    m.push(Metric::new("run.traced_cpu_s", cpu / 1e9, "s"));
    let traced_walls: Vec<f64> = inp.traced.iter().map(|t| t.round.wall_ns as f64).collect();
    m.push(Metric::new(
        "tracing_overhead_s",
        (median(&traced_walls) - inp.untraced_wall_ns) / 1e9,
        "s",
    ));
    m.push(Metric::new("tracing.span_ns", inp.span_ns, "ns"));
    m
}
