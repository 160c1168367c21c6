//! The three benchmark workloads, one simulation round each, and the
//! checks every round must pass.
//!
//! A round simulates a fixed number of requests from the §3 random
//! generator (open-loop Poisson arrivals, 67% reads, exponential 4 KB
//! sizes, uniform LBNs) seeded by the benchmark's `--seed`. Every round of
//! one run replays the same inputs, so every round must produce the same
//! simulated digest; the benchmark times as many rounds as fit its window.

use std::sync::Arc;
use std::time::Instant;

use mems_bench::run_one;
use mems_device::{MemsDevice, MemsParams, SeekSurface};
use mems_fleet::{FleetConfig, FleetEngine, FleetReport, SubIo, VolumeSpec};
use mems_os::sched::{Algorithm, SptfScheduler};
use storage_sim::{
    Driver, FifoScheduler, Request, SchedCounters, Scheduler, SimReport, StorageDevice, Workload,
};
use storage_trace::RandomWorkload;

use crate::timed::{Span, StationProbes, TimedDevice, TimedScheduler, TimedWorkload};

/// Leading requests excluded from the simulated statistics.
pub const WARMUP: u64 = 500;
/// Requests pulled from the generator per driver look-ahead refill.
pub const LOOKAHEAD: usize = 4096;
/// Stations of the fleet workload: 32 two-way mirrors.
pub const FLEET_STATIONS: usize = 64;
/// Worker threads of the fleet workload.
pub const FLEET_THREADS: usize = 2;
/// Fleet stripe unit in sectors.
pub const FLEET_STRIPE_UNIT: u32 = 64;

/// The seed the benchmark was tuned on.
pub const DEFAULT_SEED: u64 = 1;
/// A seed never used while tuning, for checking a claim on fresh inputs.
pub const HELD_OUT_SEED: u64 = 7;

/// Recorded digests of one full-size round ([`Kind::requests`]), per
/// workload and seed.
const RECORDED: &[(Kind, u64, &str)] = &[
    (
        Kind::SptfDeep,
        DEFAULT_SEED,
        "n=29500 mk=402e2aab2d590260 rm=3fa2c66320b6ee96 rmax=3fe2fc37d53b03c8 \
         busy=402e2a3dc7f04cbf p99=3fc81c5761d32f82",
    ),
    (
        Kind::SptfDeep,
        HELD_OUT_SEED,
        "n=29500 mk=402ded3915706ed4 rm=3fa38fad084c5f52 rmax=3fdfcd1ca2a29100 \
         busy=402dec4292e6d4c8 p99=3fc57d1ae1b62430",
    ),
    (
        Kind::FifoStream,
        DEFAULT_SEED,
        "n=49500 mk=4059018954a93ff3 rm=3f5041af5728226c rmax=3f7529bf20418000 \
         busy=4042df91b220c81d p99=3f65cbf1e3b20a87",
    ),
    (
        Kind::FifoStream,
        HELD_OUT_SEED,
        "n=49500 mk=4058da48a3e8bab4 rm=3f503f8853991da0 rmax=3f7780cb2c364000 \
         busy=4042de450130eb94 p99=3f65cbf1e3b20a87",
    ),
    (
        Kind::FleetRaid10,
        DEFAULT_SEED,
        "fg=19500 bg=0 subs=29795 mk=3fe3ffff7b5338c0 rn=19500 rm=3f549da0911a14a6 \
         rsd=3f4a24c559a9891c rmax=3f860ceb8d48f3e0 qm=3f342362716a56ae qmax=3f83984b4b34b670 \
         sm=3f4f298fe97efdb3 smax=3f860ceb8d48f3e0 bgn=0 bgm=0000000000000000 \
         bgmax=fff0000000000000 tn=19500 ts=4038895b0ab2ba51 p999=3f7eb735f0ba116c \
         busy=4035d21452c5b9b6 faults=0 depth=9 restr=0 st=148ffbd5da4a6ce6",
    ),
    (
        Kind::FleetRaid10,
        HELD_OUT_SEED,
        "fg=19500 bg=0 subs=29771 mk=3fe400b8be61e29d rn=19500 rm=3f54d37ffbcb7317 \
         rsd=3f4a64fae506a092 rmax=3f84df9eb78dba18 qm=3f34b0e1540276f6 qmax=3f803b2e20196fd0 \
         sm=3f4f4e8f4d95aabf smax=3f83bdf6e5b4f5c8 bgn=0 bgm=0000000000000000 \
         bgmax=fff0000000000000 tn=19500 ts=4038c97962feb458 p999=3f7eb735f0ba116c \
         busy=4035d228bd46ce9c faults=0 depth=8 restr=0 st=bffbf2e07a9b621e",
    ),
];

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// One station, SPTF, 2000 req/s: a deep queue, pick and oracle bound.
    SptfDeep,
    /// One station, FCFS, 500 req/s: a shallow queue, device-service bound.
    FifoStream,
    /// 64 stations as a stripe of 32 mirrors, per-station SPTF, 32,000 req/s.
    FleetRaid10,
}

impl Kind {
    /// Every workload, in documentation order.
    pub const ALL: [Kind; 3] = [Kind::SptfDeep, Kind::FifoStream, Kind::FleetRaid10];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::SptfDeep => "sptf_deep",
            Kind::FifoStream => "fifo_stream",
            Kind::FleetRaid10 => "fleet_raid10",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Fleet-wide arrival rate, requests per simulated second.
    pub fn rate(self) -> f64 {
        match self {
            Kind::SptfDeep => 2000.0,
            Kind::FifoStream => 500.0,
            Kind::FleetRaid10 => 32_000.0,
        }
    }

    /// Requests the benchmark simulates per round.
    pub fn requests(self) -> u64 {
        match self {
            Kind::SptfDeep => 30_000,
            Kind::FifoStream => 50_000,
            Kind::FleetRaid10 => 20_000,
        }
    }

    /// Whether the workload runs on the fleet engine.
    pub fn is_fleet(self) -> bool {
        self == Kind::FleetRaid10
    }

    /// Worker threads the workload simulates on.
    pub fn threads(self) -> usize {
        if self.is_fleet() {
            FLEET_THREADS
        } else {
            1
        }
    }
}

/// The RAID-10 volume: a 64-sector stripe over 32 two-way mirrors.
pub fn raid10() -> VolumeSpec {
    let mirrors = (0..FLEET_STATIONS / 2)
        .map(|m| VolumeSpec::mirror(vec![VolumeSpec::leaf(2 * m), VolumeSpec::leaf(2 * m + 1)]))
        .collect();
    VolumeSpec::stripe(mirrors, FLEET_STRIPE_UNIT)
}

/// A MEMS device on `surface`, exactly as `mems_bench::surfaced_mems_device`
/// builds one.
fn surfaced(params: &MemsParams, surface: &Arc<SeekSurface>) -> MemsDevice {
    MemsDevice::new(params.clone())
        .with_seek_table(true)
        .with_seek_surface(Arc::clone(surface))
}

/// Everything one round consumes: the generator and the device(s).
pub struct Inputs {
    kind: Kind,
    requests: u64,
    workload: RandomWorkload,
    devices: Vec<MemsDevice>,
}

impl Inputs {
    /// Builds the generator of `requests` requests and the devices of a
    /// round over `surface`.
    pub fn new(kind: Kind, seed: u64, requests: u64, surface: &Arc<SeekSurface>) -> Self {
        let params = surface.params();
        let stations = if kind.is_fleet() { FLEET_STATIONS } else { 1 };
        let devices: Vec<MemsDevice> = (0..stations).map(|_| surfaced(params, surface)).collect();
        Inputs {
            kind,
            requests,
            workload: generator(kind, seed, requests, devices[0].capacity_lbns()),
            devices,
        }
    }

    /// The workload these inputs are for.
    pub fn kind(&self) -> Kind {
        self.kind
    }
}

/// The request generator of `kind`, addressed over its volume.
fn generator(kind: Kind, seed: u64, requests: u64, device_capacity: u64) -> RandomWorkload {
    let capacity = if kind.is_fleet() {
        raid10().capacity(device_capacity)
    } else {
        device_capacity
    };
    RandomWorkload::paper(capacity, kind.rate(), requests, seed)
}

/// Per-round timing probes, one set per station plus the generator.
pub struct Probes {
    /// One entry per station, in station order.
    pub stations: Vec<Arc<StationProbes>>,
    /// The generator's `next_request`.
    pub next_request: Arc<Span>,
}

impl Probes {
    /// Fresh probes for `kind`.
    pub fn new(kind: Kind) -> Self {
        let stations = if kind.is_fleet() { FLEET_STATIONS } else { 1 };
        Probes {
            stations: (0..stations).map(|_| Arc::default()).collect(),
            next_request: Arc::default(),
        }
    }
}

/// What one round produced.
#[derive(Debug, Clone)]
pub struct Round {
    /// Bit-exact fingerprint of the simulated statistics.
    pub digest: String,
    /// Invariant violations (empty when the round is correct).
    pub violations: Vec<String>,
    /// Host wall nanoseconds from the first simulated request to the end.
    pub wall_ns: u64,
    /// Process CPU nanoseconds over the same interval.
    pub cpu_ns: u64,
    /// Sub-I/Os completed (equals the requests on one station).
    pub subs: u64,
    /// Time-averaged scheduler queue depth (mean over stations).
    pub mean_queue_depth: f64,
    /// Largest scheduler queue depth at any station.
    pub max_queue_depth: u64,
    /// Event-queue restructures summed over stations.
    pub restructures: u64,
    /// Fleet barriers (zero on one station).
    pub barriers: u64,
    /// Scheduler work counters summed over stations (traced rounds only).
    pub sched: SchedCounters,
}

/// Process CPU time (user + system) in nanoseconds, from `/proc/self/stat`
/// (Linux clock ticks of 10 ms); zero where it is unavailable.
fn process_cpu_ns() -> u64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0;
    };
    // Fields after the parenthesised command name start at field 3;
    // utime and stime are fields 14 and 15.
    let Some((_, rest)) = stat.rsplit_once(')') else {
        return 0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (ticks(11) + ticks(12)) * 10_000_000
}

/// Times `f` in host wall and process CPU nanoseconds.
fn timed<R>(f: impl FnOnce() -> R) -> (R, u64, u64) {
    let cpu0 = process_cpu_ns();
    let t0 = Instant::now();
    let r = f();
    let wall = t0.elapsed().as_nanos() as u64;
    (r, wall, process_cpu_ns().saturating_sub(cpu0))
}

/// Simulates one round, untraced when `probes` is `None`.
pub fn run_round(inputs: Inputs, probes: Option<&Probes>) -> Round {
    match inputs.kind {
        Kind::SptfDeep => station_round(inputs, SptfScheduler::new(), probes),
        Kind::FifoStream => station_round(inputs, FifoScheduler::new(), probes),
        Kind::FleetRaid10 => fleet_round(inputs, probes),
    }
}

fn drive<W: Workload, S: Scheduler, D: StorageDevice>(w: W, s: S, d: D) -> SimReport {
    Driver::new(w, s, d)
        .with_arrival_lookahead(LOOKAHEAD)
        .streaming_stats(true)
        .warmup_requests(WARMUP)
        .run()
}

fn station_round<S: Scheduler>(inputs: Inputs, sched: S, probes: Option<&Probes>) -> Round {
    let requests = inputs.requests;
    let workload = inputs.workload;
    let device = inputs.devices.into_iter().next().expect("one station");
    let (mut report, wall_ns, cpu_ns) = match probes {
        None => timed(|| drive(workload, sched, device)),
        Some(p) => {
            let station = &p.stations[0];
            timed(|| {
                drive(
                    TimedWorkload::new(workload, Arc::clone(&p.next_request)),
                    TimedScheduler::new(sched, Arc::clone(station)),
                    TimedDevice::new(device, Arc::clone(station)),
                )
            })
        }
    };
    let mut violations =
        common_violations(requests, report.completed, report.shed, report.timed_out);
    if report.event_queue_restructures != 0 {
        violations.push(format!(
            "{} event-queue restructures",
            report.event_queue_restructures
        ));
    }
    Round {
        digest: station_digest(&mut report),
        violations,
        wall_ns,
        cpu_ns,
        subs: requests,
        mean_queue_depth: report.mean_queue_depth,
        max_queue_depth: report.max_queue_depth as u64,
        restructures: report.event_queue_restructures,
        barriers: 0,
        sched: probes.map_or_else(SchedCounters::default, |p| p.stations[0].sched()),
    }
}

fn fleet_config(threads: usize, shards: usize) -> FleetConfig {
    FleetConfig {
        shards,
        threads,
        warmup_requests: WARMUP,
        keep_station_completions: false,
        streaming_stats: true,
        ..FleetConfig::default()
    }
}

/// Runs a streaming fleet and returns its report and barrier count.
fn drive_fleet<S, D, W>(
    devices: Vec<D>,
    make_scheduler: impl FnMut(usize) -> S,
    workload: W,
    config: FleetConfig,
) -> (FleetReport, u64)
where
    S: Scheduler + Send,
    D: StorageDevice + Send,
    W: Workload + Send,
{
    let run = FleetEngine::streaming(devices, make_scheduler, raid10(), workload, config)
        .run_instrumented();
    (run.report, run.profile.barriers)
}

fn fleet_round(inputs: Inputs, probes: Option<&Probes>) -> Round {
    let requests = inputs.requests;
    let config = fleet_config(FLEET_THREADS, FLEET_STATIONS);
    let ((report, barriers), wall_ns, cpu_ns) = match probes {
        None => timed(|| {
            drive_fleet(
                inputs.devices,
                |_| SptfScheduler::new(),
                inputs.workload,
                config,
            )
        }),
        Some(p) => {
            let devices = inputs
                .devices
                .into_iter()
                .zip(&p.stations)
                .map(|(d, probe)| TimedDevice::new(d, Arc::clone(probe)))
                .collect();
            timed(|| {
                drive_fleet(
                    devices,
                    |i| TimedScheduler::new(SptfScheduler::new(), Arc::clone(&p.stations[i])),
                    TimedWorkload::new(inputs.workload, Arc::clone(&p.next_request)),
                    config,
                )
            })
        }
    };
    let shed = report.stations.iter().map(|s| s.shed).sum();
    let timed_out = report.stations.iter().map(|s| s.timed_out).sum();
    let mut violations = common_violations(requests, report.completed, shed, timed_out);
    if report.station_restructures != 0 {
        violations.push(format!(
            "{} station event-queue restructures",
            report.station_restructures
        ));
    }
    let stations = report.stations.len().max(1) as f64;
    Round {
        digest: report.digest(),
        violations,
        wall_ns,
        cpu_ns,
        subs: report.subs_completed,
        mean_queue_depth: report
            .stations
            .iter()
            .map(|s| s.mean_queue_depth)
            .sum::<f64>()
            / stations,
        max_queue_depth: report.max_station_queue_depth as u64,
        restructures: report.station_restructures,
        barriers,
        sched: probes.map_or_else(SchedCounters::default, |p| {
            p.stations
                .iter()
                .map(|s| s.sched())
                .fold(SchedCounters::default(), add_counters)
        }),
    }
}

fn add_counters(a: SchedCounters, b: SchedCounters) -> SchedCounters {
    SchedCounters {
        picks: a.picks + b.picks,
        candidates_examined: a.candidates_examined + b.candidates_examined,
        buckets_pruned: a.buckets_pruned + b.buckets_pruned,
        cached_best_hits: a.cached_best_hits + b.cached_best_hits,
    }
}

/// Checks that hold for any seed: every request past the warm-up
/// completes, and nothing is shed or abandoned.
fn common_violations(requests: u64, completed: u64, shed: u64, timed_out: u64) -> Vec<String> {
    let mut v = Vec::new();
    let expected = requests - WARMUP;
    if completed != expected {
        v.push(format!("completed {completed}, expected {expected}"));
    }
    if shed != 0 || timed_out != 0 {
        v.push(format!("shed {shed}, timed out {timed_out}"));
    }
    v
}

/// The seed-independent part of a single-station digest: count,
/// makespan, mean and max response, and busy time, as IEEE-754 bits.
fn station_core_digest(r: &SimReport) -> String {
    format!(
        "n={} mk={:016x} rm={:016x} rmax={:016x} busy={:016x}",
        r.completed,
        r.makespan.as_secs().to_bits(),
        r.response.mean().to_bits(),
        r.response.max().to_bits(),
        r.busy_secs.to_bits(),
    )
}

/// The full single-station digest: the core plus the p99 response bits.
fn station_digest(r: &mut SimReport) -> String {
    let p99 = r.response.percentile(0.99).to_bits();
    format!("{} p99={p99:016x}", station_core_digest(r))
}

/// The digest recorded for `kind` at `seed`, if one was shipped.
pub fn recorded_digest(kind: Kind, seed: u64) -> Option<&'static str> {
    RECORDED
        .iter()
        .find(|(k, s, _)| *k == kind && *s == seed)
        .map(|&(_, _, d)| d)
}

/// Re-simulates a round through a reference configuration and compares
/// it with `round`: one station through `mems_bench::run_one` (materialised
/// statistics, no look-ahead), the fleet on one shard and one thread.
/// Returns a description of the mismatch, if any.
pub fn reference_mismatch(
    kind: Kind,
    seed: u64,
    requests: u64,
    surface: &Arc<SeekSurface>,
    round: &Round,
) -> Option<String> {
    let inputs = Inputs::new(kind, seed, requests, surface);
    let device = || inputs.devices[0].clone();
    let (expected, got) = match kind {
        Kind::SptfDeep | Kind::FifoStream => {
            let algorithm = if kind == Kind::SptfDeep {
                Algorithm::Sptf
            } else {
                Algorithm::Fcfs
            };
            let report = run_one(inputs.workload, algorithm, device(), WARMUP);
            let core = station_core_digest(&report);
            let prefix = round.digest.split(" p99=").next().unwrap_or("");
            (core, prefix.to_string())
        }
        Kind::FleetRaid10 => {
            let (report, _) = drive_fleet(
                inputs.devices,
                |_| SptfScheduler::new(),
                inputs.workload,
                fleet_config(1, 1),
            );
            (report.digest(), round.digest.clone())
        }
    };
    (expected != got).then(|| format!("reference {expected}\n  benchmark {got}"))
}

/// Sub-I/Os the RAID-10 volume routes the round's requests into, and
/// the host nanoseconds `VolumeSpec::route` spent on them (timed as one
/// span over a pre-generated request stream, so the timer costs nothing
/// per call).
pub fn route_pass(seed: u64, requests: u64, surface: &Arc<SeekSurface>) -> (u64, u64) {
    let capacity = surfaced(surface.params(), surface).capacity_lbns();
    let mut workload = generator(Kind::FleetRaid10, seed, requests, capacity);
    let requests: Vec<Request> = std::iter::from_fn(|| workload.next_request()).collect();
    let volume = raid10();
    let mut out: Vec<SubIo> = Vec::with_capacity(8);
    let mut subs = 0u64;
    let t0 = Instant::now();
    for req in &requests {
        out.clear();
        volume.route(std::hint::black_box(req), &mut out);
        subs += out.len() as u64;
    }
    (subs, t0.elapsed().as_nanos() as u64)
}
