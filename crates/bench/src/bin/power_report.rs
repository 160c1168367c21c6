//! §7 quantitative report: power profiles, idle-mode policies, the
//! energy-per-bit law, and the compress-to-save-tips optimization.

use atlas_disk::DiskEnergyModel;
use mems_bench::{no_args, write_csv, Table};
use mems_device::{MemsDevice, MemsEnergyModel, MemsParams};
use mems_os::power::{compressed_transfer_energy, PowerManagedDevice, PowerProfile};
use storage_sim::rng;
use storage_sim::{IoKind, Request, SimTime, StorageDevice};

fn main() {
    no_args("power_report");
    // --- profiles ---------------------------------------------------------
    println!("== power profiles ==\n");
    let mems_profile = PowerProfile::mems(&MemsEnergyModel::default(), 1280);
    let disk_profile = PowerProfile::disk(&DiskEnergyModel::atlas_10k());
    let mobile_profile = PowerProfile::disk(&DiskEnergyModel::travelstar_class());
    let mut t = Table::new(vec![
        "device".into(),
        "active (W)".into(),
        "idle (W)".into(),
        "sleep (W)".into(),
        "restart".into(),
        "break-even idle".into(),
    ]);
    for (name, p) in [
        ("MEMS", &mems_profile),
        ("Atlas 10K", &disk_profile),
        ("Travelstar-class", &mobile_profile),
    ] {
        t.row(vec![
            name.into(),
            format!("{:.2}", p.active_power),
            format!("{:.2}", p.idle_power),
            format!("{:.3}", p.sleep_power),
            if p.restart_time < 1.0 {
                format!("{:.1} ms", p.restart_time * 1e3)
            } else {
                format!("{:.1} s", p.restart_time)
            },
            if p.breakeven_idle() < 1.0 {
                format!("{:.1} ms", p.breakeven_idle() * 1e3)
            } else {
                format!("{:.0} s", p.breakeven_idle())
            },
        ]);
    }
    println!("{}", t.render());

    // --- timeout-policy sweep ----------------------------------------------
    println!("== idle-policy sweep: bursty workload with idle gaps ==\n");
    println!("1000 random 4 KB requests in bursts of 10, exponential 2 s gaps");
    println!("between bursts; energy and mean added wake-latency per policy:\n");

    let run = |timeout: f64| -> (f64, f64) {
        let mut dev = PowerManagedDevice::new(
            MemsDevice::new(MemsParams::default()),
            mems_profile,
            timeout,
        );
        let capacity = dev.capacity_lbns();
        let mut r = rng::seeded(0x5EED_0071);
        let mut t = 0.0f64;
        for i in 0..1000u64 {
            if i % 10 == 0 {
                t += rng::exponential(&mut r, 2.0);
            }
            let lbn = rng::uniform_u64(&mut r, capacity - 8);
            let req = Request::new(i, SimTime::from_secs(t), lbn, 8, IoKind::Read);
            let b = dev.service(&req, SimTime::from_secs(t));
            t += b.total();
        }
        dev.finish(SimTime::from_secs(t));
        (dev.energy(), dev.stats().mean_added_latency())
    };

    let mut t = Table::new(vec![
        "policy (sleep timeout)".into(),
        "energy (J)".into(),
        "mean added latency".into(),
    ]);
    let mut csv = String::from("timeout_s,energy_j,added_latency_s\n");
    for (label, timeout) in [
        ("immediate (MEMS policy)", 0.0),
        ("100 ms", 0.1),
        ("1 s", 1.0),
        ("10 s", 10.0),
        ("never sleep", f64::INFINITY),
    ] {
        let (e, lat) = run(timeout);
        t.row(vec![
            label.into(),
            format!("{e:.2}"),
            format!("{:.3} ms", lat * 1e3),
        ]);
        csv.push_str(&format!("{timeout},{e:.4},{lat:.6}\n"));
    }
    println!("{}", t.render());
    write_csv("power_policy_sweep.csv", &csv);
    println!("paper check: the immediate policy wins outright because the 0.5 ms");
    println!("restart is imperceptible — no trade-off curve as with disks.\n");

    // --- the same sweep on a mobile disk ------------------------------------
    println!("== the disk trade-off the MEMS device escapes ==\n");
    println!("same workload on a Travelstar-class mobile disk (spin-down =");
    println!("1.8 s restart), showing the latency/energy bargain:\n");
    let run_disk = |timeout: f64| -> (f64, f64) {
        let mut dev = PowerManagedDevice::new(
            atlas_disk::DiskDevice::new(atlas_disk::DiskParams::ibm_travelstar_class()),
            mobile_profile,
            timeout,
        );
        let capacity = dev.capacity_lbns();
        let mut r = rng::seeded(0x5EED_0071);
        let mut t = 0.0f64;
        for i in 0..1000u64 {
            if i % 10 == 0 {
                t += rng::exponential(&mut r, 2.0);
            }
            let lbn = rng::uniform_u64(&mut r, capacity - 8);
            let req = Request::new(i, SimTime::from_secs(t), lbn, 8, IoKind::Read);
            let b = dev.service(&req, SimTime::from_secs(t));
            t += b.total();
        }
        dev.finish(SimTime::from_secs(t));
        (dev.energy(), dev.stats().mean_added_latency())
    };
    let mut t = Table::new(vec![
        "policy (spin-down timeout)".into(),
        "energy (J)".into(),
        "mean added latency".into(),
    ]);
    for (label, timeout) in [
        ("immediate", 0.0),
        ("1 s", 1.0),
        ("10 s", 10.0),
        ("never spin down", f64::INFINITY),
    ] {
        let (e, lat) = run_disk(timeout);
        t.row(vec![
            label.into(),
            format!("{e:.2}"),
            format!("{:.1} ms", lat * 1e3),
        ]);
    }
    println!("{}", t.render());

    // --- energy is linear in bits accessed ----------------------------------
    println!("== energy vs bits accessed (§7: power ∝ bits) ==\n");
    let model = MemsEnergyModel::default();
    let mut dev = MemsDevice::new(MemsParams::default());
    let mut t = Table::new(vec![
        "request size".into(),
        "energy (mJ)".into(),
        "energy/KB (uJ)".into(),
    ]);
    let mut csv = String::from("kb,energy_mj,energy_per_kb_uj\n");
    for sectors in [8u32, 32, 128, 512, 2048] {
        let lbn = 1250 * 2700;
        let req = Request::new(0, SimTime::ZERO, lbn, sectors, IoKind::Read);
        let b = dev.service(&req, SimTime::ZERO);
        let e = model.request_energy(&b, 1280);
        let kb = f64::from(sectors) / 2.0;
        t.row(vec![
            format!("{:.0} KB", kb),
            format!("{:.3}", e * 1e3),
            format!("{:.2}", e / kb * 1e6),
        ]);
        csv.push_str(&format!("{kb},{:.6},{:.4}\n", e * 1e3, e / kb * 1e6));
    }
    println!("{}", t.render());
    write_csv("power_energy_per_bit.csv", &csv);
    println!("(per-KB energy flattens to a constant as transfers grow — the");
    println!("positioning energy amortizes away and power is ∝ bits accessed)\n");

    // --- compression saves tip-seconds --------------------------------------
    println!("== §7 compress-to-save-tips optimization ==\n");
    let mut t = Table::new(vec![
        "compression ratio".into(),
        "energy per 1 MB transfer (mJ)".into(),
    ]);
    for ratio in [1.0, 1.5, 2.0, 3.0, 4.0] {
        let e = compressed_transfer_energy(&model, 1 << 20, 1280, ratio);
        t.row(vec![format!("{ratio}"), format!("{:.2}", e * 1e3)]);
    }
    println!("{}", t.render());
}
