//! Figure 10: service time of large (256 KB) requests vs X seek distance
//! (§5.2).
//!
//! A 256 KB read streams for ~26 tip-sector rows, so even a full-device
//! X seek adds little: the paper reports only a ~12% penalty at 1000
//! cylinders. For contrast, the same sweep is run on the Atlas 10K,
//! where a long seek more than doubles the 256 KB service time.

use atlas_disk::{DiskDevice, DiskParams};
use mems_bench::{no_args, write_csv, Table};
use mems_device::{MemsDevice, MemsParams, SledState};
use storage_sim::{IoKind, Request, SimTime, StorageDevice};

fn main() {
    no_args("fig10_large_transfers");
    let sectors = 512u32; // 256 KB
    let distances: Vec<u32> = vec![0, 50, 100, 200, 400, 600, 800, 1000, 1400, 1800, 2200, 2400];

    println!("Figure 10: 256 KB read service time vs X seek distance\n");

    let mems = MemsDevice::new(MemsParams::default());
    let mapper = mems.mapper();
    let start_cyl = 20u32;
    let parked = SledState {
        x: mapper.x_of_cylinder(start_cyl),
        y: 0.0,
        vy: 0.0,
    };

    let mut table = Table::new(vec![
        "distance (cyl)".into(),
        "MEMS (ms)".into(),
        "MEMS penalty".into(),
        "Atlas 10K (ms)".into(),
        "Atlas penalty".into(),
    ]);
    let mut mems_base = 0.0;
    let mut disk_base = 0.0;
    let mut csv = String::from("distance_cyl,mems_ms,disk_ms\n");
    for &d in &distances {
        // MEMS: request begins at the start of the target cylinder.
        let target_cyl = start_cyl + d;
        let lbn = u64::from(target_cyl) * 2700;
        let req = Request::new(0, SimTime::ZERO, lbn, sectors, IoKind::Read);
        let (b, _) = mems.service_from(parked, &req);
        let mems_ms = b.total() * 1e3;

        // Disk: park the arm at a reference cylinder, then read at a
        // cylinder `d` away (the paper's x-axis is cylinders of each
        // device). Average over rotational phases so the rotational
        // latency contributes its mean of half a revolution.
        let spc: u64 = 334 * 6; // sectors per cylinder in the outer zone
        let target = u64::from(d) * spc;
        let rev_ms = DiskParams::quantum_atlas_10k().revolution_time() * 1e3;
        let phases = 24;
        let mut disk_sum = 0.0;
        for k in 0..phases {
            let mut disk = DiskDevice::new(DiskParams::quantum_atlas_10k());
            let _ = disk.service(
                &Request::new(0, SimTime::ZERO, 0, 1, IoKind::Read),
                SimTime::ZERO,
            );
            let at = SimTime::from_ms(50.0 + rev_ms * f64::from(k) / f64::from(phases));
            let breq = Request::new(1, at, target, sectors, IoKind::Read);
            disk_sum += disk.service(&breq, at).total() * 1e3;
        }
        let disk_ms = disk_sum / f64::from(phases);

        if d == 0 {
            mems_base = mems_ms;
            disk_base = disk_ms;
        }
        table.row(vec![
            format!("{d}"),
            format!("{mems_ms:.3}"),
            format!("{:+.1}%", (mems_ms / mems_base - 1.0) * 100.0),
            format!("{disk_ms:.3}"),
            format!("{:+.1}%", (disk_ms / disk_base - 1.0) * 100.0),
        ]);
        csv.push_str(&format!("{d},{mems_ms:.4},{disk_ms:.4}\n"));
    }
    println!("{}", table.render());
    write_csv("fig10_large_transfers.csv", &csv);
    println!(
        "paper check: MEMS penalty at 1000 cylinders ~10-12%; disk long seeks \
         add milliseconds to a ~15 ms transfer"
    );
}
