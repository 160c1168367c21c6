//! Figure 6: scheduling algorithms on the MEMS device, random workload.
//!
//! Reproduces both panels: (a) average response time and (b) the squared
//! coefficient of variation (starvation resistance) versus request arrival
//! rate, for FCFS, SSTF_LBN, C-LOOK, and SPTF.
//!
//! Paper shape to check: all algorithms finish in the same order as on
//! disks — SPTF best and FCFS worst on response time, C-LOOK best on
//! σ²/µ²; the FCFS-vs-LBN gap is *larger* than on disk (seek time is a
//! larger fraction of service time), while the C-LOOK-vs-SSTF_LBN gap is
//! smaller (both drive X seeks down to where Y seeks matter, which
//! neither can see).

use mems_bench::{count_arg, sched_sweep, write_csv, Table};
use mems_device::{MemsDevice, MemsParams};
use mems_os::sched::Algorithm;
use storage_trace::RandomWorkload;

fn main() {
    let requests = count_arg(env!("CARGO_BIN_NAME"), "REQUESTS", 10_000);
    let rates: Vec<f64> = vec![
        100.0, 250.0, 500.0, 750.0, 1000.0, 1250.0, 1500.0, 1750.0, 2000.0, 2250.0, 2500.0,
    ];
    let capacity = MemsParams::default().geometry().total_sectors();

    println!("Figure 6: scheduling algorithms, MEMS device, random workload");
    println!("({requests} requests per point, 500-request warm-up)\n");

    let points = sched_sweep(
        &rates,
        &Algorithm::ALL,
        |rate| RandomWorkload::paper(capacity, rate, requests, 0x5EED_0006),
        || MemsDevice::new(MemsParams::default()),
        500,
    );

    for (panel, metric, unit) in [
        ("(a) average response time", "resp", "ms"),
        ("(b) squared coefficient of variation", "cv2", ""),
    ] {
        println!("{panel}");
        let mut headers = vec![format!("rate (req/s)")];
        headers.extend(Algorithm::ALL.iter().map(|a| {
            if unit.is_empty() {
                a.label().to_string()
            } else {
                format!("{} ({unit})", a.label())
            }
        }));
        let mut table = Table::new(headers);
        for &rate in &rates {
            let mut row = vec![format!("{rate:.0}")];
            for alg in Algorithm::ALL {
                let p = points
                    .iter()
                    .find(|p| p.algorithm == alg.label() && p.rate == rate)
                    .expect("point exists");
                let v = if metric == "resp" {
                    p.mean_response_ms
                } else {
                    p.cv2
                };
                row.push(format!("{v:.3}"));
            }
            table.row(row);
        }
        println!("{}", table.render());
        write_csv(
            &format!(
                "fig06_{}.csv",
                if metric == "resp" {
                    "a_response"
                } else {
                    "b_cv2"
                }
            ),
            &table.to_csv(),
        );
    }
}
