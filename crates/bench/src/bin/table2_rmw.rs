//! Table 2: read-modify-write times for 4 KB (8-sector) and track-length
//! (334-sector) transfers on the Atlas 10K and the MEMS device (§6.2).
//!
//! The disk must wait most of a platter rotation to return to the
//! just-read sectors; the MEMS device only turns the sled around. The
//! table also reports the turnaround-time distribution from the caption
//! (0.036–1.11 ms in the paper; position- and direction-dependent here).

use atlas_disk::{DiskDevice, DiskParams};
use mems_bench::{no_args, write_csv, Table};
use mems_device::{MemsDevice, MemsParams, SpringSled};
use mems_os::fault::read_modify_write;

fn main() {
    no_args("table2_rmw");
    // Mid-sled locations so the MEMS numbers reflect Table 2's nominal
    // (center) turnaround; see EXPERIMENTS.md for the positional spread.
    let mems_4k_lbn = ((1250 * 5 * 27) + 13) * 20;
    let mems_track_lbn = ((1250 * 5 * 27) + 5) * 20;

    println!("Table 2: read-modify-write times (ms)\n");
    let mut t = Table::new(vec![
        "".into(),
        "Atlas 10K, 8".into(),
        "Atlas 10K, 334".into(),
        "MEMS, 8".into(),
        "MEMS, 334".into(),
    ]);

    // Zero controller overhead, matching Table 2's idealized in-place
    // cycle (with overhead the platter drifts past the ideal full-track
    // alignment and the 334-sector reposition is no longer zero).
    let ideal_disk = || {
        let mut p = DiskParams::quantum_atlas_10k();
        p.overhead = 0.0;
        DiskDevice::new(p)
    };
    let mut disk8 = ideal_disk();
    let mut disk334 = ideal_disk();
    let mut mems8 = MemsDevice::new(MemsParams::default());
    let mut mems334 = MemsDevice::new(MemsParams::default());
    let results = [
        read_modify_write(&mut disk8, 0, 8),
        read_modify_write(&mut disk334, 0, 334),
        read_modify_write(&mut mems8, mems_4k_lbn, 8),
        read_modify_write(&mut mems334, mems_track_lbn, 334),
    ];

    let mut csv = String::from("row,atlas_8,atlas_334,mems_8,mems_334\n");
    for (label, f) in [
        (
            "read",
            Box::new(|r: &mems_os::fault::RmwBreakdown| r.read) as Box<dyn Fn(_) -> f64>,
        ),
        (
            "reposition",
            Box::new(|r: &mems_os::fault::RmwBreakdown| r.reposition),
        ),
        (
            "write",
            Box::new(|r: &mems_os::fault::RmwBreakdown| r.write),
        ),
        (
            "total",
            Box::new(|r: &mems_os::fault::RmwBreakdown| r.total()),
        ),
    ] {
        let cells: Vec<String> = results
            .iter()
            .map(|r| format!("{:.2}", f(r) * 1e3))
            .collect();
        csv.push_str(&format!("{label},{}\n", cells.join(",")));
        let mut row = vec![label.to_string()];
        row.extend(cells);
        t.row(row);
    }
    println!("{}", t.render());
    write_csv("table2_rmw.csv", &csv);

    println!("paper: Atlas 6.26 / 12.00 ms; MEMS 0.33 / 4.45 ms (8 / 334 sectors)\n");

    // Caption: turnaround time distribution over sled position/direction.
    let p = MemsParams::default();
    let sled = SpringSled::from_spring_factor(p.accel, p.spring_factor, p.half_mobility());
    let v = p.access_velocity();
    let (mut min, mut max, mut sum, mut n) = (f64::INFINITY, 0.0f64, 0.0, 0u32);
    for i in 0..=200 {
        let pos = (i as f64 / 200.0 - 0.5) * p.mobility * 0.98;
        for dir in [v, -v] {
            let t = sled.turnaround_time(pos, dir);
            min = min.min(t);
            max = max.max(t);
            sum += t;
            n += 1;
        }
    }
    println!(
        "turnaround time over position/direction: min {:.3} ms, mean {:.3} ms, max {:.3} ms",
        min * 1e3,
        sum / f64::from(n) * 1e3,
        max * 1e3
    );
    println!("paper caption: 0.036 ms - 1.11 ms, average 0.063 ms");
}
