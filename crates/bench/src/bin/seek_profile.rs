//! Supplementary: the sled seek-time profile (§2.4.4).
//!
//! Disk seek time is a function of distance alone; the MEMS sled's is
//! not — the spring makes it depend on the *start position and
//! direction* too. This harness prints X-seek time versus distance from
//! three start positions (left edge, center, right edge), the settle
//! constant that sits on top, and the Y-seek/turnaround costs, making
//! §2.4.4's "seek-reducing algorithms may not achieve their best
//! performance if they look only at distances" concrete.

use mems_bench::{no_args, write_csv, Table};
use mems_device::{MemsParams, SpringSled};

fn main() {
    no_args("seek_profile");
    let p = MemsParams::default();
    let sled = SpringSled::from_spring_factor(p.accel, p.spring_factor, p.half_mobility());
    let half = p.half_mobility();
    let bit = p.bit_width;

    println!("X-dimension seek time (ms) vs distance, by start position");
    println!(
        "(add {:.3} ms settle to every nonzero X seek)\n",
        p.settle_time() * 1e3
    );
    let mut table = Table::new(vec![
        "distance (cylinders)".into(),
        "from left edge, rightward".into(),
        "from center, rightward".into(),
        "from right edge, leftward".into(),
    ]);
    let mut csv = String::from("distance_cyl,from_left_ms,from_center_ms,from_right_ms\n");
    for d_cyl in [1u32, 10, 50, 100, 250, 500, 1000, 1500, 2000, 2400] {
        let d = f64::from(d_cyl) * bit;
        let from_left = sled.rest_seek_time(-half + bit, (-half + bit + d).min(half - bit));
        let from_center = if d / 2.0 < half - bit {
            sled.rest_seek_time(-d / 2.0, d / 2.0)
        } else {
            sled.rest_seek_time(-half + bit, (-half + bit + d).min(half - bit))
        };
        let from_right = sled.rest_seek_time(half - bit, (half - bit - d).max(-half + bit));
        table.row(vec![
            format!("{d_cyl}"),
            format!("{:.4}", from_left * 1e3),
            format!("{:.4}", from_center * 1e3),
            format!("{:.4}", from_right * 1e3),
        ]);
        csv.push_str(&format!(
            "{d_cyl},{:.5},{:.5},{:.5}\n",
            from_left * 1e3,
            from_center * 1e3,
            from_right * 1e3
        ));
    }
    println!("{}", table.render());
    write_csv("seek_profile.csv", &csv);

    println!(
        "Y-dimension costs at access velocity ({:.1} mm/s):\n",
        p.access_velocity() * 1e3
    );
    let v = p.access_velocity();
    let mut t = Table::new(vec!["maneuver".into(), "time (ms)".into()]);
    for (label, time) in [
        ("turnaround at center", sled.turnaround_time(0.0, v)),
        (
            "turnaround at edge, moving outward",
            sled.turnaround_time(half * 0.98, v),
        ),
        (
            "turnaround at edge, moving inward",
            sled.turnaround_time(half * 0.98, -v),
        ),
        (
            "full-travel Y reposition (rest->moving)",
            sled.seek_time(-half + bit, 0.0, half - bit, v),
        ),
        (
            "stop from access velocity at center",
            sled.seek_time(0.0, v, 2.0e-6, 0.0),
        ),
    ] {
        t.row(vec![label.into(), format!("{:.4}", time * 1e3)]);
    }
    println!("{}", t.render());
    println!("paper check: short seeks near the edges take longer than near the");
    println!("center, and turnarounds are direction-dependent (§2.4.4, Table 2).");
}
