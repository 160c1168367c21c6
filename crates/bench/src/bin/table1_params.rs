//! Table 1: device parameters and every derived quantity the paper
//! quotes for them.

use mems_bench::{no_args, write_csv, Table};
use mems_device::{MemsEnergyModel, MemsParams};

fn main() {
    no_args("table1_params");
    let p = MemsParams::default();
    let g = p.geometry();
    let e = MemsEnergyModel::default();

    println!("Table 1: device parameters used in the experiments\n");
    let mut t = Table::new(vec!["parameter".into(), "value".into()]);
    let rows: Vec<(&str, String)> = vec![
        (
            "sled mobility in X and Y",
            format!("{:.0} um", p.mobility * 1e6),
        ),
        (
            "bit cell width (area)",
            format!(
                "{:.0} nm ({:.4} um^2)",
                p.bit_width * 1e9,
                p.bit_width * p.bit_width * 1e12
            ),
        ),
        ("number of tips", format!("{}", p.tips)),
        ("simultaneously active tips", format!("{}", p.active_tips)),
        (
            "tip sector length",
            format!(
                "{} bits ({} data bytes)",
                p.tip_sector_data_bits, p.tip_sector_data_bytes
            ),
        ),
        (
            "servo overhead",
            format!("{} bits per tip sector", p.tip_sector_servo_bits),
        ),
        (
            "device capacity (per sled)",
            format!("{:.2} GB", g.capacity_bytes() as f64 / 1e9),
        ),
        (
            "per-tip data rate",
            format!("{:.0} Kbit/s", p.per_tip_rate / 1e3),
        ),
        ("sled acceleration", format!("{} m/s^2", p.accel)),
        ("settling time constants", format!("{}", p.settle_constants)),
        (
            "sled resonant frequency",
            format!("{:.0} Hz", p.resonant_freq),
        ),
        ("spring factor", format!("{:.0}%", p.spring_factor * 100.0)),
    ];
    for (k, v) in &rows {
        t.row(vec![(*k).into(), v.clone()]);
    }
    println!("{}", t.render());

    println!("derived quantities (values the paper quotes in the text):\n");
    let mut d = Table::new(vec!["quantity".into(), "value".into(), "paper".into()]);
    let derived: Vec<(&str, String, &str)> = vec![
        ("cylinders", format!("{}", g.cylinders), "N = 2500"),
        (
            "tracks per cylinder",
            format!("{}", g.tracks_per_cylinder),
            "5",
        ),
        (
            "tip-sector rows per track",
            format!("{}", g.rows_per_track),
            "27",
        ),
        (
            "logical sectors per track",
            format!("{}", g.sectors_per_track),
            "540",
        ),
        (
            "tips per logical sector",
            format!("{}", g.stripe_width),
            "64",
        ),
        (
            "access velocity",
            format!("{:.1} mm/s", p.access_velocity() * 1e3),
            "28 mm/s",
        ),
        (
            "tip-sector row time",
            format!("{:.1} us", p.row_time() * 1e6),
            "128.6 us",
        ),
        (
            "streaming bandwidth",
            format!("{:.1} MB/s", p.streaming_bandwidth() / 1e6),
            "79.6 MB/s",
        ),
        (
            "settling time constant",
            format!("{:.3} ms", p.settle_time_constant() * 1e3),
            "~0.2 ms",
        ),
        (
            "startup / restart time",
            format!("{:.1} ms", e.startup_time * 1e3),
            "0.5 ms",
        ),
        (
            "sensing share of streaming power",
            format!("{:.0}%", e.sensing_fraction(p.active_tips) * 100.0),
            "~90%",
        ),
    ];
    let mut csv = String::from("quantity,value,paper\n");
    for (k, v, paper) in &derived {
        d.row(vec![(*k).into(), v.clone(), (*paper).into()]);
        csv.push_str(&format!("{k},{v},{paper}\n"));
    }
    println!("{}", d.render());
    write_csv("table1_params.csv", &csv);
}
