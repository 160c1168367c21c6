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
//!            [--scheduler fcfs|sstf|clook|sptf|look|fscan|aged-sptf|vr]
//!            [--workload random|cello|tpcc|streaming]
//!            [--rate REQS_PER_SEC]        (random workload; default 1000)
//!            [--scale FACTOR]             (trace workloads; default 1)
//!            [--requests N]               (default 10000)
//!            [--seed SEED]                (default 42)
//!            [--warmup N]                 (default 500)
//!            [--cache]                    (add a 4 MB readahead buffer)
//!            [--idle-timeout SECONDS]     (add power management)
//! ```

use std::process::exit;

use atlas_disk::{DiskDevice, DiskEnergyModel, DiskParams};
use mems_device::{MemsDevice, MemsEnergyModel, MemsParams};
use mems_os::array::Vdev;
use mems_os::cache::CachedDevice;
use mems_os::power::{PowerManagedDevice, PowerProfile};
use mems_os::sched::{
    AgedSptfScheduler, ClookScheduler, FscanScheduler, LookScheduler, SptfScheduler, SstfScheduler,
    VrScheduler,
};
use storage_sim::{Driver, DynScheduler, FifoScheduler, SimReport, StorageDevice, Workload};
use storage_trace::{
    cello_for_capacity, generate_streaming, tpcc_for_capacity, RandomWorkload, StreamingParams,
    TraceWorkload,
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
         \x20                 [--scheduler fcfs|sstf|clook|sptf|look|fscan|aged-sptf|vr]\n\
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
            "--rate" => args.rate = positive("--rate", &value("--rate")),
            "--scale" => args.scale = positive("--scale", &value("--scale")),
            "--requests" => args.requests = value("--requests").parse().unwrap_or_else(|_| usage()),
            "--seed" => args.seed = value("--seed").parse().unwrap_or_else(|_| usage()),
            "--warmup" => args.warmup = value("--warmup").parse().unwrap_or_else(|_| usage()),
            "--cache" => args.cache = true,
            "--idle-timeout" => {
                args.idle_timeout =
                    Some(value("--idle-timeout").parse().unwrap_or_else(|_| usage()))
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other}");
                usage();
            }
        }
    }
    args
}

/// Parses the value of `flag` as a finite, positive number. Anything else
/// prints the flag's name and the usage text and exits with status 2.
fn positive(flag: &str, text: &str) -> f64 {
    match text.parse::<f64>() {
        Ok(v) if v.is_finite() && v > 0.0 => v,
        _ => {
            eprintln!("{flag} must be a finite positive number, got {text}");
            usage()
        }
    }
}

fn build_scheduler(name: &str) -> Box<dyn DynScheduler> {
    match name {
        "fcfs" => Box::new(FifoScheduler::new()),
        "sstf" => Box::new(SstfScheduler::new()),
        "clook" => Box::new(ClookScheduler::new()),
        "sptf" => Box::new(SptfScheduler::new()),
        "look" => Box::new(LookScheduler::new()),
        "fscan" => Box::new(FscanScheduler::new()),
        "aged-sptf" => Box::new(AgedSptfScheduler::new(2.0)),
        "vr" => Box::new(VrScheduler::new(0.2, 16_000_000)),
        other => {
            eprintln!("unknown scheduler {other}");
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
        "cello" => Box::new(TraceWorkload::new(
            cello_for_capacity(capacity, args.requests, args.seed),
            args.scale,
        )),
        "tpcc" => Box::new(TraceWorkload::new(
            tpcc_for_capacity(capacity, args.requests, args.seed),
            args.scale,
        )),
        "streaming" => Box::new(TraceWorkload::new(
            generate_streaming(
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
            eprintln!("unknown workload {other}");
            usage();
        }
    };
    struct W(Box<dyn Workload>);
    impl Workload for W {
        fn next_request(&mut self) -> Option<storage_sim::Request> {
            self.0.next_request()
        }
    }
    let mut driver = Driver::new(W(workload), build_scheduler(&args.scheduler), device)
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
            eprintln!("unknown device {other}");
            usage();
        }
    }
}

fn main() {
    let args = parse_args();
    let (report, device_name) = dispatch(&args);

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
        report.completed as f64 / report.makespan.as_secs().max(1e-12)
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
    // ASCII response-time histogram over [0, p99].
    let mut resp = report.response.clone();
    let p99 = resp.percentile(0.99).max(1e-6);
    if let Some(completions) = report.completions.as_ref() {
        let mut h = storage_sim::Histogram::new(0.0, p99, 12);
        for c in completions {
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
            let bar = "#".repeat((h.bin_count(i) * 48 / peak) as usize);
            println!("  {:>8.3}-{:<8.3} ms |{bar}", lo * 1e3, hi * 1e3);
        }
        println!("  (+{} above p99)", h.overflow());
        println!();
    }
    let n = report.completed.max(1) as f64;
    let b = &report.breakdown_sum;
    println!("mean service decomposition:");
    println!("  positioning {:.3} ms", b.positioning / n * 1e3);
    println!("  transfer    {:.3} ms", b.transfer / n * 1e3);
    println!("  overhead    {:.3} ms", b.overhead / n * 1e3);
    println!("  queue       {:.3} ms", report.queue_time.mean() * 1e3);
    println!();
    println!(
        "mean queue depth {:.1}, max {}",
        report.mean_queue_depth, report.max_queue_depth
    );
}
