//! `storagesim` — command-line driver for the memsstore simulation stack.
//!
//! Composes any device (including arrays, caches, and power wrappers),
//! any scheduler, and any workload from the command line and prints the
//! full report.
//!
//! ```text
//! storagesim [--device mems|mems-nosettle|atlas|travelstar|raid0|raid5]
//!                                     (raid0: stripe of 4 MEMS devices;
//!                                      raid5: RAID-Z over 5; 64-sector strips)
//!            [--scheduler fcfs|sstf|clook|sptf]
//!            [--workload random|cello|tpcc|streaming]
//!            [--rate REQS_PER_SEC]        (random workload; default 1000)
//!            [--scale FACTOR]             (trace workloads; default 1)
//!            [--requests N]               (positive; default 10000)
//!            [--seed SEED]                (default 42)
//!            [--warmup N]                 (below --requests; default 500)
//!            [--cache]                    (add a 4 MB readahead buffer)
//!            [--idle-timeout SECONDS]     (add power management)
//! ```
//!
//! The schedulers are the four the paper's §4 compares. An unknown
//! device, scheduler or workload name, like a bad numeric flag, prints the
//! flag and the usage text and exits with status 2.
//!
//! `completed`, the response-time statistics and the histogram leave out
//! the first `--warmup` completions; throughput, utilization and the mean
//! service decomposition cover every request serviced.

use std::process::exit;
use std::str::FromStr;

use atlas_disk::{DiskDevice, DiskEnergyModel, DiskParams};
use mems_device::{MemsDevice, MemsEnergyModel, MemsParams};
use mems_os::array::Vdev;
use mems_os::cache::CachedDevice;
use mems_os::power::{PowerManagedDevice, PowerProfile};
use mems_os::sched::Algorithm;
use storage_sim::{Driver, SimReport, StorageDevice, Welford, Workload};
use storage_trace::{
    cello_for_capacity, tpcc_for_capacity, RandomWorkload, Replay, StreamingParams, StreamingTrace,
};

#[derive(Debug)]
struct Args {
    device: String,
    scheduler: String,
    workload: String,
    rate: f64,
    scale: f64,
    requests: u64,
    seed: u64,
    warmup: u64,
    cache: bool,
    idle_timeout: Option<f64>,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            device: "mems".into(),
            scheduler: "sptf".into(),
            workload: "random".into(),
            rate: 1000.0,
            scale: 1.0,
            requests: 10_000,
            seed: 42,
            warmup: 500,
            cache: false,
            idle_timeout: None,
        }
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: storagesim [--device mems|mems-nosettle|atlas|travelstar|raid0|raid5]\n\
         \x20                 (raid0: stripe of 4 MEMS devices; raid5: RAID-Z over 5;\n\
         \x20                  64-sector strips)\n\
         \x20                 [--scheduler fcfs|sstf|clook|sptf]\n\
         \x20                 [--workload random|cello|tpcc|streaming] [--rate R] [--scale S]\n\
         \x20                 [--requests N] [--seed S] [--warmup N]\n\
         \x20                 [--cache] [--idle-timeout SECS]"
    );
    exit(2);
}

fn parse_args() -> Args {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> String {
            it.next().unwrap_or_else(|| {
                eprintln!("missing value for {name}");
                usage()
            })
        };
        match flag.as_str() {
            "--device" => args.device = value("--device"),
            "--scheduler" => args.scheduler = value("--scheduler"),
            "--workload" => args.workload = value("--workload"),
            "--rate" => args.rate = number("--rate", &value("--rate"), POSITIVE),
            "--scale" => args.scale = number("--scale", &value("--scale"), POSITIVE),
            "--requests" => args.requests = number("--requests", &value("--requests"), COUNT),
            "--seed" => args.seed = number("--seed", &value("--seed"), INTEGER),
            "--warmup" => args.warmup = number("--warmup", &value("--warmup"), INTEGER),
            "--cache" => args.cache = true,
            "--idle-timeout" => {
                let text = value("--idle-timeout");
                args.idle_timeout = Some(number("--idle-timeout", &text, NON_NEGATIVE));
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other}");
                usage();
            }
        }
    }
    // The warm-up requests are left out of every statistic, so a run
    // without more requests than that would report nothing.
    if args.warmup >= args.requests {
        eprintln!(
            "--warmup ({}) must be below --requests ({})",
            args.warmup, args.requests
        );
        usage();
    }
    args
}

/// What a numeric flag must be, and the test for it.
type Domain<T> = (&'static str, fn(T) -> bool);

/// Rates and scale factors.
const POSITIVE: Domain<f64> = ("a finite positive number", |v| v.is_finite() && v > 0.0);
/// Idle timeouts: anything `PowerManagedDevice::new` accepts, including
/// `inf` (never sleep).
const NON_NEGATIVE: Domain<f64> = ("a non-negative number", |v| v >= 0.0);
/// Request counts: every workload generator needs at least one request.
const COUNT: Domain<u64> = ("a positive integer", |n| n > 0);
/// Seeds and warm-up counts.
const INTEGER: Domain<u64> = ("a non-negative integer", |_| true);

/// Parses the value of `flag` as a number in `domain`. Anything else
/// prints the flag's name and the usage text and exits with status 2.
fn number<T: FromStr + Copy>(flag: &str, text: &str, (what, ok): Domain<T>) -> T {
    match text.parse::<T>() {
        Ok(v) if ok(v) => v,
        _ => {
            eprintln!("{flag} must be {what}, got {text}");
            usage()
        }
    }
}

fn algorithm(name: &str) -> Algorithm {
    match name {
        "fcfs" => Algorithm::Fcfs,
        "sstf" => Algorithm::SstfLbn,
        "clook" => Algorithm::Clook,
        "sptf" => Algorithm::Sptf,
        other => {
            eprintln!("unknown --scheduler {other}");
            usage();
        }
    }
}

fn run<D: StorageDevice>(device: D, args: &Args) -> (SimReport, String) {
    let name = device.name().to_string();
    let capacity = device.capacity_lbns();
    let workload: Box<dyn Workload> = match args.workload.as_str() {
        "random" => Box::new(RandomWorkload::paper(
            capacity,
            args.rate,
            args.requests,
            args.seed,
        )),
        "cello" => Box::new(Replay::new(
            cello_for_capacity(capacity, args.requests, args.seed),
            args.scale,
        )),
        "tpcc" => Box::new(Replay::new(
            tpcc_for_capacity(capacity, args.requests, args.seed),
            args.scale,
        )),
        "streaming" => Box::new(Replay::new(
            StreamingTrace::new(
                &StreamingParams {
                    capacity,
                    requests: args.requests,
                    ..StreamingParams::default()
                },
                args.seed,
            ),
            args.scale,
        )),
        other => {
            eprintln!("unknown --workload {other}");
            usage();
        }
    };
    let mut driver = Driver::new(workload, algorithm(&args.scheduler).build(), device)
        .warmup_requests(args.warmup)
        .record_completions(true);
    (driver.run(), name)
}

/// `n` default MEMS devices as array leaves.
fn mems_leaves(n: usize) -> Vec<Vdev<MemsDevice>> {
    (0..n)
        .map(|_| Vdev::leaf(MemsDevice::new(MemsParams::default())))
        .collect()
}

fn dispatch(args: &Args) -> (SimReport, String) {
    // Compose wrappers inside-out: base device, then cache, then power.
    macro_rules! finish {
        ($dev:expr, $profile:expr) => {{
            let dev = $dev;
            match (args.cache, args.idle_timeout) {
                (false, None) => run(dev, args),
                (true, None) => run(CachedDevice::new(dev, 8192, 512, 20e-6), args),
                (false, Some(t)) => run(PowerManagedDevice::new(dev, $profile, t), args),
                (true, Some(t)) => run(
                    PowerManagedDevice::new(CachedDevice::new(dev, 8192, 512, 20e-6), $profile, t),
                    args,
                ),
            }
        }};
    }
    let mems_profile = PowerProfile::mems(&MemsEnergyModel::default(), 1280);
    let atlas_profile = PowerProfile::disk(&DiskEnergyModel::atlas_10k());
    let mobile_profile = PowerProfile::disk(&DiskEnergyModel::travelstar_class());
    match args.device.as_str() {
        "mems" => finish!(MemsDevice::new(MemsParams::default()), mems_profile),
        "mems-nosettle" => finish!(
            MemsDevice::new(MemsParams::default().with_settle_constants(0.0)),
            mems_profile
        ),
        "atlas" => finish!(
            DiskDevice::new(DiskParams::quantum_atlas_10k()),
            atlas_profile
        ),
        "travelstar" => finish!(
            DiskDevice::new(DiskParams::ibm_travelstar_class()),
            mobile_profile
        ),
        "raid0" => finish!(Vdev::stripe(mems_leaves(4), 64), mems_profile),
        "raid5" => finish!(Vdev::raidz(mems_leaves(5), 64), mems_profile),
        other => {
            eprintln!("unknown --device {other}");
            usage();
        }
    }
}

fn main() {
    let args = parse_args();
    let (report, device_name) = dispatch(&args);
    // The makespan, the busy time and `breakdown_sum` cover every request
    // serviced, so the figures drawn from them divide by that count.
    // `completions` holds every request in completion order, the order in
    // which the driver counts off the warm-up.
    let completions = report.completions.as_deref().unwrap_or_default();
    let serviced = completions.len();
    let measured = &completions[serviced.min(args.warmup as usize)..];

    println!("device        {device_name}");
    println!("scheduler     {}", args.scheduler);
    println!(
        "workload      {} ({} requests, seed {})",
        args.workload, args.requests, args.seed
    );
    println!();
    println!("completed     {}", report.completed);
    println!("makespan      {:.3} s", report.makespan.as_secs());
    println!(
        "throughput    {:.1} req/s",
        serviced as f64 / report.makespan.as_secs().max(1e-12)
    );
    println!("utilization   {:.1}%", report.utilization() * 100.0);
    println!();
    println!("response time mean    {:.3} ms", report.response.mean_ms());
    println!(
        "response time sigma2/mu2 {:.3}",
        report.response.sq_coeff_var()
    );
    let mut resp = report.response.clone();
    println!("response time p50     {:.3} ms", resp.percentile(0.5) * 1e3);
    println!(
        "response time p95     {:.3} ms",
        resp.percentile(0.95) * 1e3
    );
    println!(
        "response time p99     {:.3} ms",
        resp.percentile(0.99) * 1e3
    );
    println!("response time max     {:.3} ms", resp.max() * 1e3);
    println!();
    // ASCII response-time histogram of the measured requests over [0, p99].
    let p99 = resp.percentile(0.99).max(1e-6);
    let mut h = storage_sim::Histogram::new(0.0, p99, 12);
    for c in measured {
        h.push(c.response_time().as_secs());
    }
    println!("response-time histogram (to p99):");
    let peak = (0..h.num_bins())
        .map(|i| h.bin_count(i))
        .max()
        .unwrap_or(1)
        .max(1);
    for i in 0..h.num_bins() {
        let (lo, hi) = h.bin_bounds(i);
        let count = h.bin_count(i);
        let bar = "#".repeat((count * 48 / peak) as usize);
        println!("  {:>8.3}-{:<8.3} ms {count:>7} |{bar}", lo * 1e3, hi * 1e3);
    }
    println!("  (+{} above p99)", h.overflow());
    println!();
    let n = serviced.max(1) as f64;
    let b = &report.breakdown_sum;
    let mut queue = Welford::new();
    for c in completions {
        queue.push(c.queue_time().as_secs());
    }
    println!("mean service decomposition, all {serviced} requests serviced:");
    println!("  positioning {:.3} ms", b.positioning / n * 1e3);
    println!("  transfer    {:.3} ms", b.transfer / n * 1e3);
    println!("  overhead    {:.3} ms", b.overhead / n * 1e3);
    println!("  queue       {:.3} ms", queue.mean() * 1e3);
    println!();
    println!(
        "mean queue depth {:.1}, max {}",
        report.mean_queue_depth, report.max_queue_depth
    );
}
