//! Model validation: closed-form kinematics vs direct numerical
//! integration.
//!
//! The scheduling and layout results all rest on the sled seek model, so
//! this harness sweeps a grid of seeks across the whole travel range and
//! reports the disagreement between the O(1) phase-plane closed forms
//! the simulator uses and a brute-force time-stepped integration of the
//! same equations of motion. It also checks the physical sanity
//! identities the model must satisfy.

use mems_bench::{no_args, write_csv, Table};
use mems_device::{MemsParams, SpringSled};

fn main() {
    no_args("validate_kinematics");
    let p = MemsParams::default();
    let sled = SpringSled::from_spring_factor(p.accel, p.spring_factor, p.half_mobility());
    let half = p.half_mobility();

    println!("closed-form vs numeric rest-to-rest seeks (dt = 10 ns)\n");
    let grid = 13;
    let mut max_rel: f64 = 0.0;
    let mut sum_rel = 0.0;
    let mut count = 0u32;
    let mut worst = (0.0f64, 0.0f64);
    let mut csv = String::from("p0_um,p1_um,closed_us,numeric_us,rel_err\n");
    for i in 0..grid {
        for j in 0..grid {
            if i == j {
                continue;
            }
            let p0 = (i as f64 / (grid - 1) as f64 - 0.5) * 2.0 * half * 0.98;
            let p1 = (j as f64 / (grid - 1) as f64 - 0.5) * 2.0 * half * 0.98;
            let closed = sled.rest_seek_time(p0, p1);
            let numeric = sled.rest_seek_time_numeric(p0, p1, 1e-8);
            let rel = (closed - numeric).abs() / numeric;
            if rel > max_rel {
                max_rel = rel;
                worst = (p0, p1);
            }
            sum_rel += rel;
            count += 1;
            csv.push_str(&format!(
                "{:.1},{:.1},{:.3},{:.3},{:.6}\n",
                p0 * 1e6,
                p1 * 1e6,
                closed * 1e6,
                numeric * 1e6,
                rel
            ));
        }
    }
    println!("seeks compared       {count}");
    println!(
        "mean relative error  {:.4}%",
        sum_rel / f64::from(count) * 100.0
    );
    println!(
        "max relative error   {:.4}%  (at {:.1} um -> {:.1} um)",
        max_rel * 100.0,
        worst.0 * 1e6,
        worst.1 * 1e6
    );
    write_csv("validate_kinematics.csv", &csv);

    println!("\nphysical sanity identities:\n");
    let mut t = Table::new(vec!["identity".into(), "status".into()]);
    let check = |name: &str, ok: bool| -> Vec<String> {
        vec![
            name.into(),
            if ok { "ok".into() } else { "VIOLATED".into() },
        ]
    };
    // Symmetry and mirror symmetry.
    let sym =
        (sled.rest_seek_time(-30e-6, 40e-6) - sled.rest_seek_time(40e-6, -30e-6)).abs() < 1e-12;
    t.row(check("t(a->b) = t(b->a) for rest seeks", sym));
    let mirror =
        (sled.rest_seek_time(-30e-6, 40e-6) - sled.rest_seek_time(30e-6, -40e-6)).abs() < 1e-12;
    t.row(check("t(a->b) = t(-a->-b)", mirror));
    // Monotonicity in distance from center.
    let mut mono = true;
    let mut last = 0.0;
    for d in 1..=48 {
        let tt = sled.rest_seek_time(0.0, d as f64 * 1e-6);
        if tt <= last {
            mono = false;
        }
        last = tt;
    }
    t.row(check("seek time grows with distance (from center)", mono));
    // Triangle inequality on a coarse grid.
    let mut triangle = true;
    for a in [-40e-6, 0.0, 35e-6] {
        for b in [-20e-6, 10e-6, 45e-6] {
            for c in [-45e-6, 5e-6, 30e-6] {
                let direct = sled.rest_seek_time(a, c);
                let via = sled.rest_seek_time(a, b) + sled.rest_seek_time(b, c);
                if direct > via + 1e-12 {
                    triangle = false;
                }
            }
        }
    }
    t.row(check("direct seek <= any stop-at-waypoint seek", triangle));
    // Turnaround direction-dependence (§2.4.4).
    let v = p.access_velocity();
    let dir_dep = sled.turnaround_time(45e-6, v) < sled.turnaround_time(45e-6, -v);
    t.row(check("edge turnarounds are direction-dependent", dir_dep));
    println!("{}", t.render());
}
