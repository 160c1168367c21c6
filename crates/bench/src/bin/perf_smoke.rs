//! Performance smoke test: before/after numbers for the positioning fast
//! path, written to `BENCH_sched.json` so the perf trajectory is tracked
//! in-repo from PR to PR.
//!
//! Seven sections:
//!
//! 1. **seek_table** — `position_time` cost from an on-grid sled state,
//!    direct solve vs memo table (the SPTF oracle's unit of work);
//! 2. **seek_surface** — the fully materialized immutable surface: build
//!    cost, footprint, and ns/query against both the direct solver and
//!    the memo table;
//! 3. **sptf_pick** — draining a deep queue, naive full scan vs pruned
//!    bucket scan (same picks, different work);
//! 4. **devirt_pick** — the same pruned drain through the type-erased
//!    `DynScheduler` box vs the monomorphized static path;
//! 5. **fig6_sptf** — the acceptance measurement: the Fig. 6 SPTF cell at
//!    the highest arrival rate over several seeds, naive scan + direct
//!    solves + serial seed loop vs pruned pick + seek table + parallel
//!    sweep vs the shared-surface devices. All three configurations must
//!    report identical mean response times (the fast paths are
//!    pick-equivalent); only the wall clock moves.
//! 6. **events_per_sec** — the engine-throughput headline: two whole
//!    cells measured serially on one thread so the number is per-core by
//!    construction — the Fig. 6 SPTF cell on the shared surface, and a
//!    high-rate FCFS cell that stresses the raw event loop. Both report
//!    `simulated requests per core second` (the gated CI metric) and
//!    confirm the event store never restructured mid-run.
//! 7. **streaming_scale** — the constant-memory headline: a 10⁷-request
//!    open-loop FIFO cell pulled incrementally from the generator
//!    (arrival look-ahead + log-histogram stats, nothing materialized)
//!    and a 10⁶-request 64-station streaming fleet cell, both reporting
//!    requests per core-second and the peak-RSS delta over the
//!    post-surface baseline (the shared seek surface is excluded by
//!    construction). An in-process gate first proves the streamed paths
//!    digest-identical to the materialized ones; CI greps
//!    `"streamed_identical": true` and holds the RSS delta under a fixed
//!    ceiling.
//!
//! Run from the workspace root: `cargo run --release -p mems-bench --bin
//! perf_smoke` (pass a request count to override the default 4000; pass
//! `--streaming-requests N` to resize the streaming cells — the weekly
//! long-horizon job passes 100000000).

use std::fmt::Write as _;
use std::time::Instant;

use mems_bench::{replicated_point, shared_seek_surface, surfaced_mems_device};
use mems_device::{MemsDevice, MemsParams};
use mems_fleet::{FleetConfig, FleetEngine, VolumeSpec};
use mems_os::sched::{Algorithm, NaiveSptfScheduler, SptfScheduler};
use storage_sim::{
    Driver, DynScheduler, FifoScheduler, IoKind, PositionOracle, Request, Scheduler, SimReport,
    SimTime, StorageDevice, VecWorkload, Workload,
};
use storage_trace::RandomWorkload;

const CAPACITY: u64 = 6_750_000;
/// The highest arrival rate of the Fig. 6 sweep.
const RATE: f64 = 2500.0;
const SEEDS: [u64; 6] = [1, 2, 3, 4, 5, 6];
const WARMUP: u64 = 500;

fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let r = f();
    (r, start.elapsed().as_secs_f64())
}

/// Best-of-`reps` wall clock for a deterministic measurement: every
/// repetition computes the identical result (the simulator is
/// deterministic), so the minimum is the least-noisy estimate of the real
/// cost on a shared host.
fn timed_best<R>(reps: usize, mut f: impl FnMut() -> R) -> (R, f64) {
    let (mut best_r, mut best_secs) = timed(&mut f);
    for _ in 1..reps {
        let (r, secs) = timed(&mut f);
        if secs < best_secs {
            best_secs = secs;
            best_r = r;
        }
    }
    (best_r, best_secs)
}

/// Parks a device on-grid (one request serviced), as in steady state.
fn park(mut d: MemsDevice) -> MemsDevice {
    let r = Request::new(0, SimTime::ZERO, 1_000_000, 8, IoKind::Read);
    let _ = d.service(&r, SimTime::ZERO);
    d
}

/// A parked device with or without the memoizing seek table.
fn parked(table: bool) -> MemsDevice {
    park(MemsDevice::new(MemsParams::default()).with_seek_table(table))
}

fn lcg(x: &mut u64) -> u64 {
    *x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
    *x
}

/// ns per `position_time` query over a deterministic LBN stream.
fn time_queries(dev: &MemsDevice, n: u64) -> f64 {
    let mut x = 7u64;
    let mut sink = 0.0;
    let (_, secs) = timed(|| {
        for _ in 0..n {
            let lbn = lcg(&mut x) % (CAPACITY - 8);
            let req = Request::new(0, SimTime::ZERO, lbn, 8, IoKind::Read);
            sink += dev.position_time(&req, SimTime::ZERO);
        }
    });
    assert!(sink > 0.0);
    secs * 1e9 / n as f64
}

/// µs per pick draining a `depth`-deep queue with scheduler `make()`.
fn time_drain<S: Scheduler>(make: impl Fn() -> S, dev: &MemsDevice, depth: usize) -> f64 {
    let reqs: Vec<Request> = (0..depth as u64)
        .map(|i| {
            let lbn = (i * 2_654_435_761) % CAPACITY;
            Request::new(i, SimTime::ZERO, lbn, 8, IoKind::Read)
        })
        .collect();
    let rounds = 5;
    let (_, secs) = timed(|| {
        for _ in 0..rounds {
            let mut s = make();
            for r in &reqs {
                s.enqueue(*r);
            }
            while let Some(r) = s.pick(dev, SimTime::ZERO) {
                std::hint::black_box(r);
            }
        }
    });
    secs * 1e6 / (rounds * depth) as f64
}

/// One serially-measured whole-cell throughput sample.
struct CellThroughput {
    requests: u64,
    events: u64,
    wall_secs: f64,
    requests_per_core_sec: f64,
    events_per_core_sec: f64,
    restructures: u64,
}

/// Runs `seeds` simulation cells serially on the calling thread and
/// reports simulated requests (and events) per core-second. Serial
/// single-threaded measurement makes the number per-core by construction
/// — no division by a parallel speedup that varies with the host.
fn time_cell<S: Scheduler>(
    seeds: &[u64],
    rate: f64,
    requests: u64,
    warmup: u64,
    make_sched: impl Fn() -> S,
) -> CellThroughput {
    let (reports, wall_secs) = timed_best(3, || {
        seeds
            .iter()
            .map(|&seed| {
                Driver::new(
                    RandomWorkload::paper(CAPACITY, rate, requests, seed),
                    make_sched(),
                    surfaced_mems_device(&MemsParams::default()),
                )
                .warmup_requests(warmup)
                .run()
            })
            .collect::<Vec<_>>()
    });
    let completed: u64 = reports.iter().map(|r| r.completed).sum();
    let restructures: u64 = reports.iter().map(|r| r.event_queue_restructures).sum();
    // Every request is one arrival event plus one completion event.
    let events = 2 * completed;
    CellThroughput {
        requests: completed,
        events,
        wall_secs,
        requests_per_core_sec: completed as f64 / wall_secs,
        events_per_core_sec: events as f64 / wall_secs,
        restructures,
    }
}

/// Peak resident-set size (`VmHWM`) of this process in kB, from
/// `/proc/self/status`. `None` off Linux — the streaming section then
/// reports throughput only.
fn peak_rss_kb() -> Option<u64> {
    let text = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = text.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Bit-exact digest of a driver run: every Welford-derived aggregate as
/// raw f64 bits plus the explicit overload billing, so a streamed run can
/// be asserted identical to its materialized twin.
fn sim_digest(r: &SimReport) -> String {
    format!(
        "n={} shed={} to={} mk={:016x} rn={} rm={:016x} rsd={:016x} rmax={:016x} \
         qm={:016x} sm={:016x} busy={:016x} depth={} restr={}",
        r.completed,
        r.shed,
        r.timed_out,
        r.makespan.as_secs().to_bits(),
        r.response.count(),
        r.response.mean().to_bits(),
        r.response.std_dev().to_bits(),
        r.response.max().to_bits(),
        r.queue_time.mean().to_bits(),
        r.service_time.mean().to_bits(),
        r.busy_secs.to_bits(),
        r.max_queue_depth,
        r.event_queue_restructures,
    )
}

fn collect_requests(mut w: impl Workload) -> Vec<Request> {
    let mut out = Vec::new();
    while let Some(r) = w.next_request() {
        out.push(r);
    }
    out
}

/// The streamed-vs-materialized identity gate, run in-process before the
/// big streaming cells: a buffered-arrival constant-memory driver run must
/// be digest-identical to its fully materialized twin, and a fleet pulling
/// from the generator (`FleetEngine::streaming`) to one over the collected
/// request slice (`FleetEngine::new`). CI greps the resulting
/// `"streamed_identical"`.
fn streaming_identity_gate() -> bool {
    let params = MemsParams::default();
    const N: u64 = 50_000;
    let materialized = Driver::new(
        VecWorkload::new(collect_requests(RandomWorkload::paper(
            CAPACITY, 500.0, N, 11,
        ))),
        FifoScheduler::new(),
        surfaced_mems_device(&params),
    )
    .warmup_requests(WARMUP)
    .run();
    let streamed = Driver::new(
        RandomWorkload::paper(CAPACITY, 500.0, N, 11),
        FifoScheduler::new(),
        surfaced_mems_device(&params),
    )
    .with_arrival_lookahead(4096)
    .streaming_stats(true)
    .warmup_requests(WARMUP)
    .run();
    let driver_ok = sim_digest(&materialized) == sim_digest(&streamed);
    if !driver_ok {
        eprintln!("warning: streamed driver diverged from materialized run");
        eprintln!("  materialized: {}", sim_digest(&materialized));
        eprintln!("  streamed:     {}", sim_digest(&streamed));
    }

    let stations = 16;
    let volume = VolumeSpec::flat(stations, 64);
    let fleet_n = 20_000u64;
    let rate = 500.0 * stations as f64;
    let cfg = FleetConfig {
        shards: stations,
        warmup_requests: WARMUP,
        keep_station_completions: false,
        ..FleetConfig::default()
    };
    let fleet_requests = collect_requests(RandomWorkload::paper(
        volume.capacity(CAPACITY),
        rate,
        fleet_n,
        12,
    ));
    let fleet_materialized = FleetEngine::new(
        (0..stations)
            .map(|_| surfaced_mems_device(&params))
            .collect(),
        |_| SptfScheduler::new(),
        &volume,
        &fleet_requests,
        cfg,
    )
    .run();
    let fleet_streamed = FleetEngine::streaming(
        (0..stations)
            .map(|_| surfaced_mems_device(&params))
            .collect(),
        |_| SptfScheduler::new(),
        volume.clone(),
        RandomWorkload::paper(volume.capacity(CAPACITY), rate, fleet_n, 12),
        FleetConfig {
            streaming_stats: true,
            ..cfg
        },
    )
    .run();
    let fleet_ok = fleet_materialized.digest() == fleet_streamed.digest();
    if !fleet_ok {
        eprintln!("warning: streaming fleet diverged from materialized fleet");
        eprintln!("  materialized: {}", fleet_materialized.digest());
        eprintln!("  streamed:     {}", fleet_streamed.digest());
    }
    driver_ok && fleet_ok
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let requests: u64 = args
        .first()
        .filter(|a| !a.starts_with("--"))
        .and_then(|s| s.parse().ok())
        .unwrap_or(4000);
    let stream_requests: u64 = args
        .iter()
        .position(|a| a == "--streaming-requests")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(10_000_000);
    // Keep some measured requests even for tiny runs, or the reported
    // means are silently computed over zero completions.
    let warmup = WARMUP.min(requests / 2);
    let threads = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);

    println!("perf_smoke: positioning fast path, before/after\n");

    // 1. Seek-table micro.
    let direct_dev = parked(false);
    let memo_dev = parked(true);
    let n_queries = 200_000u64;
    let direct_ns = time_queries(&direct_dev, n_queries);
    let memo_ns = time_queries(&memo_dev, n_queries);
    let stats = memo_dev.seek_table_stats();
    println!("seek_table:  direct {direct_ns:8.1} ns/query   memo {memo_ns:8.1} ns/query   ({:.1}x, hit rate {:.3})",
        direct_ns / memo_ns, stats.hit_rate());

    // 2. Seek-surface micro: the fully materialized immutable surface,
    // built once and shared process-wide through the sweep registry.
    let (surface, build_secs) = timed(|| {
        shared_seek_surface(&MemsParams::default()).expect("paper surface within size guard")
    });
    let surface_bytes = surface.bytes();
    let surface_dev = park(surfaced_mems_device(&MemsParams::default()));
    let surface_ns = time_queries(&surface_dev, n_queries);
    println!(
        "seek_surface: built in {build_secs:.2} s ({:.1} MB)   surface {surface_ns:6.1} ns/query  ({:.1}x vs direct, {:.1}x vs memo)",
        surface_bytes as f64 / (1 << 20) as f64,
        direct_ns / surface_ns,
        memo_ns / surface_ns
    );

    // 3. Pick micro.
    let depth = 1024;
    let naive_us = time_drain(NaiveSptfScheduler::new, &direct_dev, depth);
    let pruned_us = time_drain(SptfScheduler::new, &memo_dev, depth);
    println!(
        "sptf_pick:   naive {naive_us:9.2} us/pick    pruned {pruned_us:7.2} us/pick    ({:.1}x at depth {depth})",
        naive_us / pruned_us
    );

    // 4. Devirtualization micro: the identical pruned drain, dispatched
    // through the type-erased box (one virtual pick_dyn hop plus a dyn
    // positioning oracle) vs the fully monomorphized path.
    let dyn_us = time_drain(
        || -> Box<dyn DynScheduler> { Box::new(SptfScheduler::new()) },
        &memo_dev,
        depth,
    );
    let static_us = time_drain(SptfScheduler::new, &memo_dev, depth);
    println!(
        "devirt_pick: dyn {dyn_us:11.2} us/pick    static {static_us:7.2} us/pick    ({:.2}x at depth {depth})",
        dyn_us / static_us
    );

    // 5. Fig. 6 SPTF cell at the highest rate: serial+naive+direct vs
    // parallel+pruned+table vs parallel+pruned+shared-surface.
    let (baseline_means, baseline_secs) = timed(|| {
        SEEDS
            .iter()
            .map(|&seed| {
                Driver::new(
                    RandomWorkload::paper(CAPACITY, RATE, requests, seed),
                    NaiveSptfScheduler::new(),
                    MemsDevice::new(MemsParams::default()).with_seek_table(false),
                )
                .warmup_requests(warmup)
                .run()
                .response
                .mean_ms()
            })
            .collect::<Vec<f64>>()
    });
    let baseline_mean = baseline_means.iter().sum::<f64>() / SEEDS.len() as f64;

    let (fast_point, fast_secs) = timed_best(3, || {
        replicated_point(
            RATE,
            Algorithm::Sptf,
            &SEEDS,
            |rate, seed| RandomWorkload::paper(CAPACITY, rate, requests, seed),
            || MemsDevice::new(MemsParams::default()),
            warmup,
        )
    });
    let (surface_point, surface_secs) = timed_best(3, || {
        replicated_point(
            RATE,
            Algorithm::Sptf,
            &SEEDS,
            |rate, seed| RandomWorkload::paper(CAPACITY, rate, requests, seed),
            || surfaced_mems_device(&MemsParams::default()),
            warmup,
        )
    });
    let speedup = baseline_secs / fast_secs;
    let surface_speedup = baseline_secs / surface_secs;
    let means_match =
        baseline_mean == fast_point.mean_ms && fast_point.mean_ms == surface_point.mean_ms;
    println!(
        "fig6_sptf:   baseline {baseline_secs:6.2} s      fast {fast_secs:6.2} s      surface {surface_secs:6.2} s  ({speedup:.1}x / {surface_speedup:.1}x, {} seeds x {requests} reqs @ {RATE} req/s, {threads} threads)",
        SEEDS.len()
    );
    println!(
        "             mean response {baseline_mean:.4} ms vs {:.4} ms vs {:.4} ms  (identical: {means_match})",
        fast_point.mean_ms, surface_point.mean_ms
    );
    if !means_match {
        eprintln!("warning: fast path changed the simulation result — pick equivalence broken");
    }

    // 6. events/sec: whole cells measured serially on this thread so the
    // requests/sec figure is per-core. The gated headline is the Fig. 6
    // SPTF cell on the shared surface.
    let fig6_cell = time_cell(&SEEDS, RATE, requests, warmup, SptfScheduler::new);
    // A high-rate open-loop cell with an O(1) scheduler: deep queues and
    // dense event traffic with the pick cost out of the picture, so the
    // number tracks the raw event engine.
    const HIGH_RATE: f64 = 10_000.0;
    let high_cell = time_cell(
        &SEEDS,
        HIGH_RATE,
        requests.saturating_mul(2),
        warmup,
        FifoScheduler::new,
    );
    let realloc_free = fig6_cell.restructures == 0 && high_cell.restructures == 0;
    println!(
        "events/sec:  fig6 cell {:9.0} req/core-s ({:.0} events/core-s, {:.3} s wall)",
        fig6_cell.requests_per_core_sec, fig6_cell.events_per_core_sec, fig6_cell.wall_secs
    );
    println!(
        "             high-rate cell {:9.0} req/core-s ({:.0} events/core-s, {:.3} s wall)   realloc-free: {realloc_free}",
        high_cell.requests_per_core_sec, high_cell.events_per_core_sec, high_cell.wall_secs
    );
    if !realloc_free {
        eprintln!(
            "warning: event store restructured mid-run (fig6 {}, high-rate {})",
            fig6_cell.restructures, high_cell.restructures
        );
    }

    // 7. streaming_scale: the constant-memory headline. Identity gate
    // first, then the two big cells, measuring wall clock and the
    // peak-RSS growth over the post-surface baseline.
    let streamed_identical = streaming_identity_gate();
    let baseline_rss_kb = peak_rss_kb();
    let rss_supported = baseline_rss_kb.is_some();
    let baseline_kb = baseline_rss_kb.unwrap_or(0);

    const STREAM_RATE: f64 = 500.0;
    const STREAM_LOOKAHEAD: usize = 4096;
    let (open_loop, open_loop_secs) = timed(|| {
        Driver::new(
            RandomWorkload::paper(CAPACITY, STREAM_RATE, stream_requests, 21),
            FifoScheduler::new(),
            surfaced_mems_device(&MemsParams::default()),
        )
        .with_arrival_lookahead(STREAM_LOOKAHEAD)
        .streaming_stats(true)
        .warmup_requests(warmup)
        .run()
    });
    let open_loop_rps = open_loop.completed as f64 / open_loop_secs;
    let open_loop_rss_kb = peak_rss_kb().unwrap_or(0).saturating_sub(baseline_kb);
    println!(
        "streaming:   identity gate {}   open-loop {} reqs  {:9.0} req/core-s ({:.3} s wall, ΔRSS {} kB, restructures {})",
        if streamed_identical { "ok" } else { "FAILED" },
        stream_requests,
        open_loop_rps,
        open_loop_secs,
        open_loop_rss_kb,
        open_loop.event_queue_restructures
    );

    const FLEET_STATIONS: usize = 64;
    let fleet_requests = (stream_requests / 10).max(1);
    let fleet_volume = VolumeSpec::flat(FLEET_STATIONS, 64);
    let fleet_rate = STREAM_RATE * FLEET_STATIONS as f64;
    let (fleet_report, fleet_secs) = timed(|| {
        FleetEngine::streaming(
            (0..FLEET_STATIONS)
                .map(|_| surfaced_mems_device(&MemsParams::default()))
                .collect(),
            |_| SptfScheduler::new(),
            fleet_volume.clone(),
            RandomWorkload::paper(
                fleet_volume.capacity(CAPACITY),
                fleet_rate,
                fleet_requests,
                22,
            ),
            FleetConfig {
                shards: FLEET_STATIONS,
                threads: 1,
                warmup_requests: warmup,
                keep_station_completions: false,
                streaming_stats: true,
                ..FleetConfig::default()
            },
        )
        .run()
    });
    let fleet_rps = fleet_report.completed as f64 / fleet_secs;
    let fleet_rss_kb = peak_rss_kb().unwrap_or(0).saturating_sub(baseline_kb);
    println!(
        "             fleet {} reqs x {FLEET_STATIONS} stations  {:9.0} req/core-s ({:.3} s wall, ΔRSS {} kB, restructures {})",
        fleet_requests,
        fleet_rps,
        fleet_secs,
        fleet_rss_kb,
        fleet_report.station_restructures
    );
    if !streamed_identical {
        eprintln!("warning: streaming paths diverged from materialized runs — identity broken");
    }

    let mut json = String::new();
    let _ = write!(
        json,
        concat!(
            "{{\n",
            "  \"host_threads\": {},\n",
            "  \"seek_table\": {{\n",
            "    \"queries\": {},\n",
            "    \"direct_ns_per_query\": {:.2},\n",
            "    \"memo_ns_per_query\": {:.2},\n",
            "    \"speedup\": {:.2},\n",
            "    \"hit_rate\": {:.4}\n",
            "  }},\n",
            "  \"seek_surface\": {{\n",
            "    \"build_secs\": {:.3},\n",
            "    \"bytes\": {},\n",
            "    \"surface_ns_per_query\": {:.2},\n",
            "    \"speedup_vs_direct\": {:.2},\n",
            "    \"speedup_vs_memo\": {:.2}\n",
            "  }},\n",
            "  \"sptf_pick\": {{\n",
            "    \"queue_depth\": {},\n",
            "    \"naive_us_per_pick\": {:.3},\n",
            "    \"pruned_us_per_pick\": {:.3},\n",
            "    \"speedup\": {:.2}\n",
            "  }},\n",
            "  \"devirt_pick\": {{\n",
            "    \"queue_depth\": {},\n",
            "    \"dyn_us_per_pick\": {:.3},\n",
            "    \"static_us_per_pick\": {:.3},\n",
            "    \"speedup\": {:.2}\n",
            "  }},\n",
            "  \"fig6_sptf\": {{\n",
            "    \"rate_req_per_s\": {},\n",
            "    \"requests_per_seed\": {},\n",
            "    \"warmup\": {},\n",
            "    \"seeds\": {},\n",
            "    \"baseline_naive_serial_secs\": {:.3},\n",
            "    \"fast_pruned_parallel_secs\": {:.3},\n",
            "    \"surface_shared_secs\": {:.3},\n",
            "    \"speedup\": {:.2},\n",
            "    \"surface_speedup\": {:.2},\n",
            "    \"baseline_mean_response_ms\": {:.6},\n",
            "    \"fast_mean_response_ms\": {:.6},\n",
            "    \"surface_mean_response_ms\": {:.6},\n",
            "    \"means_identical\": {}\n",
            "  }},\n",
            "  \"events_per_sec\": {{\n",
            "    \"realloc_free\": {},\n",
            "    \"fig6_cell\": {{\n",
            "      \"seeds\": {},\n",
            "      \"requests\": {},\n",
            "      \"events\": {},\n",
            "      \"wall_secs\": {:.4},\n",
            "      \"requests_per_core_sec\": {:.1},\n",
            "      \"events_per_core_sec\": {:.1},\n",
            "      \"queue_restructures\": {}\n",
            "    }},\n",
            "    \"high_rate_cell\": {{\n",
            "      \"rate_req_per_s\": {},\n",
            "      \"seeds\": {},\n",
            "      \"requests\": {},\n",
            "      \"events\": {},\n",
            "      \"wall_secs\": {:.4},\n",
            "      \"requests_per_core_sec\": {:.1},\n",
            "      \"events_per_core_sec\": {:.1},\n",
            "      \"queue_restructures\": {}\n",
            "    }}\n",
            "  }},\n",
            "  \"streaming_scale\": {{\n",
            "    \"streamed_identical\": {},\n",
            "    \"rss_supported\": {},\n",
            "    \"baseline_rss_kb\": {},\n",
            "    \"open_loop_fifo\": {{\n",
            "      \"requests\": {},\n",
            "      \"rate_req_per_s\": {},\n",
            "      \"arrival_lookahead\": {},\n",
            "      \"completed\": {},\n",
            "      \"wall_secs\": {:.4},\n",
            "      \"requests_per_core_sec\": {:.1},\n",
            "      \"queue_restructures\": {},\n",
            "      \"peak_rss_delta_kb\": {}\n",
            "    }},\n",
            "    \"fleet_streaming\": {{\n",
            "      \"stations\": {},\n",
            "      \"requests\": {},\n",
            "      \"rate_req_per_s\": {},\n",
            "      \"completed\": {},\n",
            "      \"wall_secs\": {:.4},\n",
            "      \"requests_per_core_sec\": {:.1},\n",
            "      \"station_restructures\": {},\n",
            "      \"peak_rss_delta_kb\": {}\n",
            "    }}\n",
            "  }}\n",
            "}}\n"
        ),
        threads,
        n_queries,
        direct_ns,
        memo_ns,
        direct_ns / memo_ns,
        stats.hit_rate(),
        build_secs,
        surface_bytes,
        surface_ns,
        direct_ns / surface_ns,
        memo_ns / surface_ns,
        depth,
        naive_us,
        pruned_us,
        naive_us / pruned_us,
        depth,
        dyn_us,
        static_us,
        dyn_us / static_us,
        RATE,
        requests,
        warmup,
        SEEDS.len(),
        baseline_secs,
        fast_secs,
        surface_secs,
        speedup,
        surface_speedup,
        baseline_mean,
        fast_point.mean_ms,
        surface_point.mean_ms,
        means_match,
        realloc_free,
        SEEDS.len(),
        fig6_cell.requests,
        fig6_cell.events,
        fig6_cell.wall_secs,
        fig6_cell.requests_per_core_sec,
        fig6_cell.events_per_core_sec,
        fig6_cell.restructures,
        HIGH_RATE,
        SEEDS.len(),
        high_cell.requests,
        high_cell.events,
        high_cell.wall_secs,
        high_cell.requests_per_core_sec,
        high_cell.events_per_core_sec,
        high_cell.restructures,
        streamed_identical,
        rss_supported,
        baseline_kb,
        stream_requests,
        STREAM_RATE,
        STREAM_LOOKAHEAD,
        open_loop.completed,
        open_loop_secs,
        open_loop_rps,
        open_loop.event_queue_restructures,
        open_loop_rss_kb,
        FLEET_STATIONS,
        fleet_requests,
        fleet_rate,
        fleet_report.completed,
        fleet_secs,
        fleet_rps,
        fleet_report.station_restructures,
        fleet_rss_kb,
    );
    match std::fs::write("BENCH_sched.json", &json) {
        Ok(()) => println!("\n[wrote BENCH_sched.json]"),
        Err(e) => eprintln!("warning: cannot write BENCH_sched.json: {e}"),
    }
    // The wall-clock timestamp lives in a separate, untracked stamp file so
    // regenerating the committed JSON never churns its diff.
    let unix = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let stamp = format!("{{\"generated_unix\": {unix}}}\n");
    if let Err(e) = std::fs::write("BENCH_sched.stamp", stamp) {
        eprintln!("warning: cannot write BENCH_sched.stamp: {e}");
    }
}
