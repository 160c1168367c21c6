//! OLTP database scenario: the workload the paper's §4.3 TPC-C study and
//! §6.2 RAID-5 discussion motivate.
//!
//! 1. Replays a TPC-C-like trace (hot tables, 8 KB pages, log appends)
//!    against the MEMS device under each scheduler, scaling the arrival
//!    rate up as §4.3 does, and shows SPTF's outsized win.
//! 2. Compares RAID-5 small-write (read-modify-write) latency between a
//!    MEMS array and an Atlas 10K array — the §6.2 argument that MEMS
//!    makes code-based redundancy cheap for OLTP.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example oltp_database
//! ```

use atlas_disk::{DiskDevice, DiskParams};
use mems_device::{MemsDevice, MemsParams};
use mems_os::fault::Raid5Array;
use mems_os::sched::Algorithm;
use storage_sim::Driver;
use storage_trace::{tpcc_for_capacity, Replay};

fn main() {
    let params = MemsParams::default();
    let capacity = params.geometry().total_sectors();
    let trace = tpcc_for_capacity(capacity, 6_000, 0xDB);

    println!("== TPC-C-like page traffic on the MEMS device ==\n");
    println!(
        "{:>6}  {:>10}  {:>10}  {:>10}  {:>10}",
        "scale", "FCFS", "SSTF_LBN", "C-LOOK", "SPTF"
    );
    for scale in [2.0, 4.0, 8.0] {
        print!("{scale:>6}");
        for alg in Algorithm::ALL {
            let workload = Replay::new(trace.clone(), scale);
            let mut driver = Driver::new(workload, alg.build(), MemsDevice::new(params.clone()))
                .warmup_requests(200);
            let report = driver.run();
            print!("  {:>10.3}", report.response.mean_ms());
        }
        println!();
    }
    println!("\n(mean response time, ms — SPTF pulls away as load rises because");
    println!("the hot tables put many pending requests at tiny LBN distances)");

    println!("\n== RAID-5 small writes: MEMS array vs disk array (§6.2) ==\n");
    let mut mems_array = Raid5Array::new(
        (0..5)
            .map(|_| MemsDevice::new(params.clone()))
            .collect::<Vec<_>>(),
        16,
    );
    let mut disk_array = Raid5Array::new(
        (0..5)
            .map(|_| DiskDevice::new(DiskParams::quantum_atlas_10k()))
            .collect::<Vec<_>>(),
        16,
    );
    let strips = 100;
    let mut mems_total = 0.0;
    let mut disk_total = 0.0;
    for s in 0..strips {
        let strip = 80_000 + s * 41;
        mems_total += mems_array.small_write_time(strip, 16);
        disk_total += disk_array.small_write_time(strip, 16);
    }
    println!("8 KB partial-stripe writes over a 5-device array:");
    println!(
        "  MEMS array mean:  {:.3} ms",
        mems_total / strips as f64 * 1e3
    );
    println!(
        "  Atlas array mean: {:.3} ms",
        disk_total / strips as f64 * 1e3
    );
    println!("  advantage:        {:.1}x", disk_total / mems_total);
    println!("\n(the sled just turns around instead of waiting a rotation, so the");
    println!("parity read-modify-write that plagues disk RAID-5 nearly vanishes)");
}
