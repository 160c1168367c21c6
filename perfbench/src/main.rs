//! Benchmark entry point.
//!
//! ```text
//! perfbench --workload <sptf_deep|fifo_stream|fleet_raid10> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it prints the end-to-end metrics (`sim_req_per_s`,
//! `setup_s`, `peak_rss_mb`); with `--trace 1` the per-layer metrics. The
//! last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`.

use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mems_bench::shared_seek_surface;
use mems_device::{MemsParams, SeekSurface};
use perfbench::layers::{layer_metrics, remainder_ns, traced_round, LayerInputs, TracedRound};
use perfbench::timed::empty_span_ns;
use perfbench::workloads::{
    recorded_digest, reference_mismatch, route_pass, run_round, Inputs, Kind, Round,
};
use perfbench::{median, peak_rss_mb, result_json, Metric};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 5;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let i = args
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        args.get(i + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let kind = value("--workload")?;
    let kind = Kind::parse(kind).ok_or(format!("unknown workload {kind:?}"))?;
    let number = |flag: &str| -> Result<u64, String> {
        value(flag)?
            .parse()
            .map_err(|_| format!("{flag} must be a whole number"))
    };
    let seconds = number("--seconds")?;
    if !(1..=120).contains(&seconds) {
        return Err("--seconds must be between 1 and 120".into());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    Ok(Args {
        kind,
        seed: number("--seed")?,
        seconds,
        trace,
    })
}

/// Everything the output checks found wrong.
#[derive(Default)]
struct Checks {
    /// Rounds that failed on their own (invariants, digest drift).
    failed_rounds: u64,
    /// Failures that condemn the whole run (reference, recorded digest).
    run_failures: Vec<String>,
}

impl Checks {
    fn round(&mut self, i: usize, round: &Round, first: &Round) {
        let mut problems = round.violations.clone();
        if round.digest != first.digest {
            problems.push(format!("digest {} differs from round 0", round.digest));
        }
        if !problems.is_empty() {
            self.failed_rounds += 1;
            eprintln!("round {i} failed: {}", problems.join("; "));
        }
    }

    /// The checks shared by both modes, run after the timed window.
    fn whole_run(&mut self, args: &Args, surface: &Arc<SeekSurface>, first: &Round) {
        let requests = args.kind.requests();
        if let Some(m) = reference_mismatch(args.kind, args.seed, requests, surface, first) {
            self.run_failures
                .push(format!("reference run differs:\n  {m}"));
        }
        if let Some(d) = recorded_digest(args.kind, args.seed) {
            if d != first.digest {
                self.run_failures.push(format!(
                    "digest differs from the recorded one:\n  recorded {d}\n  got      {}",
                    first.digest
                ));
            }
        }
    }

    /// Prints the failures and returns `(correct, failed requests)`.
    fn finish(&self, rounds: u64, requests: u64) -> (bool, u64) {
        for f in &self.run_failures {
            eprintln!("check failed: {f}");
        }
        let failed = if self.run_failures.is_empty() {
            self.failed_rounds
        } else {
            rounds
        };
        (failed == 0, failed * requests)
    }
}

/// Checks the fleet's completed sub-I/O count against a routing pass over
/// the same request stream, and returns that pass's `(subs, nanos)`.
fn check_routing(
    args: &Args,
    surface: &Arc<SeekSurface>,
    first: &Round,
    checks: &mut Checks,
) -> (u64, u64) {
    if !args.kind.is_fleet() {
        return (0, 0);
    }
    let (subs, nanos) = route_pass(args.seed, args.kind.requests(), surface);
    if subs != first.subs {
        checks.run_failures.push(format!(
            "fleet completed {} sub-I/Os, routing produced {subs}",
            first.subs
        ));
    }
    (subs, nanos)
}

fn untraced(args: &Args, start: Instant) -> String {
    let kind = args.kind;
    let params = MemsParams::default();
    let requests = kind.requests();
    // Set up several times and report the median. The throwaway set-ups
    // come first and are dropped, so the resident set never holds two
    // surfaces; the last one goes through the shared registry and is the
    // one the rounds use.
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut t0 = start;
    for _ in 1..SETUPS {
        let surface = Arc::new(SeekSurface::build(&params).expect("paper surface fits its guard"));
        drop(std::hint::black_box(Inputs::new(
            kind, args.seed, requests, &surface,
        )));
        setup_s.push(t0.elapsed().as_secs_f64());
        t0 = Instant::now();
    }
    let surface = shared_seek_surface(&params).expect("paper surface fits its guard");
    let mut next = Some(Inputs::new(kind, args.seed, requests, &surface));
    setup_s.push(t0.elapsed().as_secs_f64());

    let window = Duration::from_secs(args.seconds);
    let began = Instant::now();
    let mut rounds: Vec<Round> = Vec::new();
    // The peak resident set is read after the first round: how many
    // rounds fit the window depends on the host's speed, and allocator
    // churn over extra rounds must not read as memory growth.
    let mut peak = 0.0;
    while rounds.is_empty() || began.elapsed() < window {
        let inputs = next
            .take()
            .unwrap_or_else(|| Inputs::new(kind, args.seed, requests, &surface));
        rounds.push(run_round(inputs, None));
        if rounds.len() == 1 {
            peak = peak_rss_mb();
        }
    }

    let mut checks = Checks::default();
    for (i, r) in rounds.iter().enumerate() {
        checks.round(i, r, &rounds[0]);
    }
    checks.whole_run(args, &surface, &rounds[0]);
    check_routing(args, &surface, &rounds[0], &mut checks);

    let rates: Vec<f64> = rounds
        .iter()
        .map(|r| requests as f64 / (r.wall_ns as f64 / 1e9))
        .collect();
    let metrics = vec![
        Metric::new("sim_req_per_s", median(&rates), "1/s"),
        Metric::new("setup_s", median(&setup_s), "s"),
        Metric::new("peak_rss_mb", peak, "MiB"),
    ];
    println!(
        "{}: {} rounds of {requests} requests, seed {}",
        kind.name(),
        rounds.len(),
        args.seed,
    );
    println!("digest {}", rounds[0].digest);
    for m in &metrics {
        println!("  {:<14} {:>16.4} {}", m.name, m.value, m.unit);
    }
    let (correct, failed) = checks.finish(rounds.len() as u64, requests);
    result_json(correct, rounds.len() as u64 * requests, failed, &metrics)
}

fn traced(args: &Args) -> String {
    let kind = args.kind;
    let requests = kind.requests();
    let params = MemsParams::default();
    let t0 = Instant::now();
    let surface = shared_seek_surface(&params).expect("paper surface fits its guard");
    let surface_build_s = t0.elapsed().as_secs_f64();
    let span_ns = empty_span_ns();

    // Alternate untraced and traced rounds so both see the same host
    // conditions; their wall difference is the tracing overhead.
    let window = Duration::from_secs(args.seconds);
    let began = Instant::now();
    let mut plain: Vec<Round> = Vec::new();
    let mut traced: Vec<TracedRound> = Vec::new();
    while traced.is_empty() || began.elapsed() < window {
        plain.push(run_round(
            Inputs::new(kind, args.seed, requests, &surface),
            None,
        ));
        traced.push(traced_round(Inputs::new(
            kind, args.seed, requests, &surface,
        )));
    }

    let mut checks = Checks::default();
    let first = &plain[0];
    for (i, r) in plain
        .iter()
        .chain(traced.iter().map(|t| &t.round))
        .enumerate()
    {
        checks.round(i, r, first);
    }
    for (i, t) in traced.iter().enumerate() {
        if t.counts != traced[0].counts {
            checks.failed_rounds += 1;
            eprintln!(
                "traced round {i} counts {:?} differ from {:?}",
                t.counts, traced[0].counts
            );
        }
    }
    checks.whole_run(args, &surface, first);
    let route = check_routing(args, &surface, first, &mut checks);
    let rest = remainder_ns(kind, &traced, route.1);
    if rest < 0 {
        eprintln!(
            "warning: layer spans exceed the rounds' total by {} ns",
            -rest
        );
    }

    let untraced_walls: Vec<f64> = plain.iter().map(|r| r.wall_ns as f64).collect();
    let metrics = layer_metrics(&LayerInputs {
        kind,
        requests,
        traced: &traced,
        untraced_wall_ns: median(&untraced_walls),
        route,
        surface_build_s,
        surface_bytes: surface.bytes(),
        span_ns,
    });
    println!(
        "{} traced: {} traced + {} untraced rounds of {requests} requests, seed {}",
        kind.name(),
        traced.len(),
        plain.len(),
        args.seed
    );
    for m in &metrics {
        println!("  {:<44} {:>16.3} {}", m.name, m.value, m.unit);
    }
    let rounds = (plain.len() + traced.len()) as u64;
    let (correct, failed) = checks.finish(rounds, requests);
    result_json(correct, rounds * requests, failed, &metrics)
}

fn main() -> ExitCode {
    let start = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <sptf_deep|fifo_stream|fleet_raid10> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let line = if args.trace {
        traced(&args)
    } else {
        untraced(&args, start)
    };
    println!("{line}");
    ExitCode::SUCCESS
}
