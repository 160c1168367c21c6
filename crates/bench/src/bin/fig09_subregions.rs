//! Figure 9: request service time inside 5×5 sled subregions (§5.1).
//!
//! Divides the area accessible by a probe tip into 25 subregions of
//! 400×400 bits centered at bit offsets (±800, ±400, 0) from the sled
//! center, and reports the average service time of 10,000 random 4 KB
//! requests that start and end inside each subregion — once with the X
//! settle time and once without.
//!
//! Paper shape: the centermost subregion is fastest and the corners
//! slowest (spring forces grow with displacement), with a 10–20% spread;
//! removing settle shrinks every number by roughly the settling constant.
//! The model reproduces the shape along X: in every row the time grows
//! with the distance from the center column, and the slowest subregion is
//! a corner, with and without settle (`tests/paper_claims.rs` asserts
//! both on the golden). Along Y it does not: at cx = 0 the subregions at
//! cy = ±400 are slightly faster than the center one.

use mems_bench::{count_arg, write_csv, Table};
use mems_device::{MemsDevice, MemsParams, SledState};
use storage_sim::rng;
use storage_sim::{IoKind, Request, SimTime};

/// Mean service time of `n` random 4 KB requests confined to the
/// subregion centered at bit offsets (cx, cy).
fn subregion_mean(device: &MemsDevice, cx: i64, cy: i64, n: u64, seed: u64) -> f64 {
    let mapper = device.mapper();
    let geom = device.geometry();
    let center_cyl = i64::from(geom.cylinders) / 2;
    let cyl_lo = (center_cyl + cx - 200) as u32;
    let cyl_hi = (center_cyl + cx + 200) as u32;
    // Y band: bits [center+cy-200, center+cy+200) → tip-sector rows.
    let bits_per_row = 90i64;
    let center_bit = i64::from(geom.bits_per_side) / 2;
    let row_lo = ((center_bit + cy - 200) / bits_per_row) as u32;
    let row_hi = (((center_bit + cy + 200) / bits_per_row) as u32).min(geom.rows_per_track - 1);

    let mut rng_state = rng::seeded(seed);
    // Start the sled at rest in the middle of the subregion.
    let mid_cyl = (cyl_lo + cyl_hi) / 2;
    let mut state = SledState {
        x: mapper.x_of_cylinder(mid_cyl),
        y: mapper.y_of_row_start((row_lo + row_hi) / 2),
        vy: 0.0,
    };
    let mut total = 0.0;
    for i in 0..n {
        let cyl = cyl_lo + rng::uniform_u64(&mut rng_state, u64::from(cyl_hi - cyl_lo)) as u32;
        let track = rng::uniform_u64(&mut rng_state, 5) as u32;
        let row = row_lo + rng::uniform_u64(&mut rng_state, u64::from(row_hi - row_lo + 1)) as u32;
        // Slot ≤ 12 keeps the 8-sector request within the row.
        let slot = rng::uniform_u64(&mut rng_state, 13) as u32;
        let lbn = mapper.compose(mems_device::PhysAddr {
            cylinder: cyl,
            track,
            row,
            slot,
        });
        let req = Request::new(i, SimTime::ZERO, lbn, 8, IoKind::Read);
        let (b, end) = device.service_from(state, &req);
        total += b.total();
        state = end;
    }
    total / n as f64
}

fn main() {
    let n = count_arg(env!("CARGO_BIN_NAME"), "REQUESTS", 10_000);
    let offsets: [i64; 5] = [-800, -400, 0, 400, 800];

    println!("Figure 9: average 4 KB service time (ms) per 400x400-bit subregion");
    println!("({n} requests per cell; upper = with X settle, lower = zero settle)\n");

    let with_settle = MemsDevice::new(MemsParams::default());
    let no_settle = MemsDevice::new(MemsParams::default().with_settle_constants(0.0));

    let mut csv = String::from("cy,cx,with_settle_ms,no_settle_ms\n");
    // Render top row (cy = +800) first like the paper's figure.
    for &cy in offsets.iter().rev() {
        let mut table = Table::new(
            offsets
                .iter()
                .map(|cx| format!("({cx},{cy})"))
                .collect::<Vec<_>>(),
        );
        let mut upper = Vec::new();
        let mut lower = Vec::new();
        for &cx in &offsets {
            let seed = 0x5EED_0009 ^ ((cx + 1000) as u64) << 16 ^ (cy + 1000) as u64;
            let a = subregion_mean(&with_settle, cx, cy, n, seed) * 1e3;
            let b = subregion_mean(&no_settle, cx, cy, n, seed) * 1e3;
            upper.push(format!("{a:.3}"));
            lower.push(format!("{b:.3}"));
            csv.push_str(&format!("{cy},{cx},{a:.4},{b:.4}\n"));
        }
        table.row(upper);
        table.row(lower);
        println!("{}", table.render());
    }
    write_csv("fig09_subregions.csv", &csv);

    // The §5.1 headline: center-to-corner spread.
    let center = subregion_mean(&with_settle, 0, 0, n, 0xC0FFEE);
    let corner = subregion_mean(&with_settle, 800, 800, n, 0xC0FFEE);
    println!(
        "corner/center service-time ratio: {:.3} (paper: 10-20% spread)",
        corner / center
    );
}
