//! Figure 5: scheduling algorithms on the Quantum Atlas 10K, random
//! workload — the disk reference point for Figure 6.
//!
//! Paper shape to check: FCFS saturates well before the others;
//! SSTF_LBN outperforms C-LOOK; SPTF outperforms everything (it sees
//! rotational latency); C-LOOK has the best starvation resistance.

use atlas_disk::{DiskDevice, DiskParams};
use mems_bench::{count_arg, sched_sweep, write_csv, Table};
use mems_os::sched::Algorithm;
use storage_trace::RandomWorkload;

fn main() {
    let requests = count_arg(env!("CARGO_BIN_NAME"), "REQUESTS", 10_000);
    let rates: Vec<f64> = vec![
        20.0, 40.0, 60.0, 80.0, 100.0, 120.0, 140.0, 160.0, 180.0, 200.0, 220.0,
    ];
    let capacity = DiskParams::quantum_atlas_10k().total_sectors();

    println!("Figure 5: scheduling algorithms, Atlas 10K disk, random workload");
    println!("({requests} requests per point, 500-request warm-up)\n");

    let points = sched_sweep(
        &rates,
        &Algorithm::ALL,
        |rate| RandomWorkload::paper(capacity, rate, requests, 0x5EED_0005),
        || DiskDevice::new(DiskParams::quantum_atlas_10k()),
        500,
    );

    for (panel, metric) in [
        ("(a) average response time (ms)", "resp"),
        ("(b) squared coefficient of variation", "cv2"),
    ] {
        println!("{panel}");
        let mut headers = vec!["rate (req/s)".to_string()];
        headers.extend(Algorithm::ALL.iter().map(|a| a.label().to_string()));
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
                "fig05_{}.csv",
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
