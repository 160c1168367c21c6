//! File-server data placement scenario (§5).
//!
//! A file server stores two kinds of data: small hot metadata/small files
//! and large media streams. This example places that bipartite mix with
//! each of the paper's layout schemes and measures the mix's mean access
//! time on the MEMS device — then replays a bursty Cello-like trace to
//! show the scheduling behaviour on a realistic file-server request
//! stream.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example fileserver_layout
//! ```

use mems_device::{MemsDevice, MemsParams};
use mems_os::layout::{
    BipartiteWorkload, ColumnarLayout, Layout, OrganPipeLayout, SimpleLayout, SubregionedLayout,
};
use mems_os::sched::Algorithm;
use storage_sim::{Driver, FifoScheduler};
use storage_trace::{cello_for_capacity, Replay};

fn main() {
    let params = MemsParams::default();
    let geom = params.geometry();
    let capacity = geom.total_sectors();

    println!("== placing a bipartite file mix (89% small / 11% large reads) ==\n");
    let simple = SimpleLayout::new(capacity);
    let organ = OrganPipeLayout::paper(capacity);
    let subregioned = SubregionedLayout::new(&geom);
    let columnar = ColumnarLayout::new(&geom);
    let layouts: [&dyn Layout; 4] = [&simple, &organ, &subregioned, &columnar];

    let mut baseline = 0.0;
    for (i, layout) in layouts.iter().enumerate() {
        let workload = BipartiteWorkload::paper(*layout, 4_000, 0xF11E);
        let mut driver = Driver::new(
            workload,
            FifoScheduler::new(),
            MemsDevice::new(params.clone()),
        );
        let report = driver.run();
        let ms = report.mean_service_ms();
        if i == 0 {
            baseline = ms;
        }
        println!(
            "  {:<12} {:.3} ms mean access   ({:+.1}% vs simple)",
            layout.name(),
            ms,
            (1.0 - ms / baseline) * 100.0
        );
    }
    println!("\n(small data belongs in the centermost subregion, where spring");
    println!("forces are lowest; large streams barely care where they live)\n");

    println!("== a bursty Cello-like day on the file server ==\n");
    let trace = cello_for_capacity(capacity, 6_000, 0xF11E);
    println!(
        "{:>10}  {:>14}  {:>10}",
        "algorithm", "mean resp (ms)", "sigma2/mu2"
    );
    for alg in Algorithm::ALL {
        let workload = Replay::new(trace.clone(), 8.0);
        let mut driver = Driver::new(workload, alg.build(), MemsDevice::new(params.clone()))
            .warmup_requests(200);
        let report = driver.run();
        println!(
            "{:>10}  {:>14.3}  {:>10.3}",
            alg.label(),
            report.response.mean_ms(),
            report.response.sq_coeff_var()
        );
    }
    println!("\n(the algorithms rank exactly as under the synthetic random");
    println!("workload — the paper's Fig. 7(a) observation)");
}
