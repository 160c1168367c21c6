//! Ablation: simultaneously active tips (power/heat budget).
//!
//! §2.2 fixes the default at 1280 of 6400 tips for power and heat; §7
//! notes the OS can trade bandwidth for power by bounding active tips.
//! This sweep shows what the budget buys: streaming bandwidth and
//! transfer parallelism scale with it, small-access latency barely moves
//! (one row pass is one row pass), and streaming power scales linearly.

use mems_bench::{no_args, write_csv, Table};
use mems_device::{MemsDevice, MemsEnergyModel, MemsParams, SledState};
use storage_sim::{IoKind, Request, SimTime};

fn main() {
    no_args("ablation_active_tips");
    println!("Ablation: simultaneously active tips (paper default 1280)\n");
    let energy = MemsEnergyModel::default();
    let mut table = Table::new(vec![
        "active tips".into(),
        "tracks/cyl".into(),
        "sectors/row".into(),
        "bandwidth (MB/s)".into(),
        "4KB svc (ms)".into(),
        "256KB svc (ms)".into(),
        "streaming power (W)".into(),
    ]);
    let mut csv = String::from("active_tips,bandwidth_mbs,svc4k_ms,svc256k_ms,power_w\n");
    for active in [320u32, 640, 1280, 3200, 6400] {
        let params = MemsParams {
            active_tips: active,
            ..MemsParams::default()
        };
        let geom = params.geometry();
        let dev = MemsDevice::new(params.clone());
        let center = SledState::CENTERED;
        // 4 KB at a center-cylinder LBN of this geometry.
        let lbn4k = u64::from(geom.cylinders / 2)
            * u64::from(geom.tracks_per_cylinder)
            * u64::from(geom.sectors_per_track);
        let req4k = Request::new(0, SimTime::ZERO, lbn4k, 8, IoKind::Read);
        let (b4, _) = dev.service_from(center, &req4k);
        let req256k = Request::new(1, SimTime::ZERO, lbn4k, 512, IoKind::Read);
        let (b256, _) = dev.service_from(center, &req256k);
        let bw = params.streaming_bandwidth() / 1e6;
        let p = energy.streaming_power(active);
        table.row(vec![
            format!("{active}"),
            format!("{}", geom.tracks_per_cylinder),
            format!("{}", geom.sectors_per_row),
            format!("{bw:.1}"),
            format!("{:.3}", b4.total() * 1e3),
            format!("{:.3}", b256.total() * 1e3),
            format!("{p:.2}"),
        ]);
        csv.push_str(&format!(
            "{active},{bw:.2},{:.4},{:.4},{p:.3}\n",
            b4.total() * 1e3,
            b256.total() * 1e3
        ));
    }
    println!("{}", table.render());
    write_csv("ablation_active_tips.csv", &csv);
    println!("reading the table: bandwidth and power scale with the tip budget;");
    println!("small random accesses don't (their time is positioning + one row");
    println!("pass) — so a power-constrained OS should shrink the budget for");
    println!("random workloads and spend it on streaming ones (§7).");
}
