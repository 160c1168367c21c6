//! §6 quantitative report: internal faults, ECC recoverability, remapping
//! policies, seek errors, RAID-5 small writes, and crash recovery.

use atlas_disk::{DiskDevice, DiskParams};
use mems_bench::{write_csv, Table};
use mems_device::Mapper;
use mems_device::{MemsDevice, MemsParams};
use mems_os::fault::{
    array_ready_time, disk_seek_error_penalty, mems_seek_error_penalty, read_modify_write,
    sync_write_burst_mean, FaultState, Raid5Array, RemapPolicy, RemappedDevice, StripeCodec,
};
use storage_sim::rng;
use storage_sim::{IoKind, Request, SimTime, StorageDevice};

fn main() {
    let params = MemsParams::default();
    let mapper = Mapper::new(&params);

    // --- §6.1.1: tip failures vs ECC parity ------------------------------
    println!("== §6.1.1 tip/media failures vs striping + ECC ==\n");
    println!("fraction of logical sectors unrecoverable after N random tip");
    println!("failures + N/2 grown media defects, by horizontal parity width:\n");
    let mut t = Table::new(vec![
        "failed tips".into(),
        "parity 0 (disk-like)".into(),
        "parity 2".into(),
        "parity 4".into(),
        "parity 8".into(),
    ]);
    let mut csv = String::from("failed_tips,parity0,parity2,parity4,parity8\n");
    for &n in &[1usize, 5, 10, 20, 50, 100, 200, 400] {
        let mut faults = FaultState::new(&params);
        let mut r = rng::seeded(0x5EED_0061 + n as u64);
        faults.inject_random_tip_failures(n, &mut r);
        faults.inject_random_defects(n / 2, &mut r);
        let mut row = vec![format!("{n}")];
        let mut line = format!("{n}");
        for parity in [0usize, 2, 4, 8] {
            let frac = faults.unrecoverable_fraction(&mapper, parity);
            row.push(format!("{:.4}%", frac * 100.0));
            line.push_str(&format!(",{:.6}", frac));
        }
        t.row(row);
        csv.push_str(&line);
        csv.push('\n');
    }
    println!("{}", t.render());
    write_csv("fault_tip_failures.csv", &csv);

    // --- §6.1.2: end-to-end stripe codec ---------------------------------
    println!("== §6.1.2 horizontal + vertical ECC (512 B sector over 64+8 tips) ==\n");
    let codec = StripeCodec::new(8);
    let mut r = rng::seeded(0x5EED_0062);
    let mut t = Table::new(vec![
        "corrupted tip sectors".into(),
        "trials".into(),
        "recovered".into(),
    ]);
    let mut csv = String::from("corrupted_tip_sectors,trials,recovered\n");
    for erasures in [0usize, 1, 4, 8, 9, 12] {
        let trials = 200;
        let mut recovered = 0;
        for _ in 0..trials {
            let mut sector = [0u8; 512];
            for b in sector.iter_mut() {
                *b = rng::uniform_u64(&mut r, 256) as u8;
            }
            let mut stripe = codec.encode(&sector);
            // Corrupt `erasures` distinct tips.
            let mut hit = std::collections::HashSet::new();
            while hit.len() < erasures {
                hit.insert(rng::uniform_u64(&mut r, 72) as usize);
            }
            for &i in &hit {
                stripe[i].data[rng::uniform_u64(&mut r, 8) as usize] ^= 0xa5;
            }
            if codec.decode(&stripe) == Some(sector) {
                recovered += 1;
            }
        }
        t.row(vec![
            format!("{erasures}"),
            format!("{trials}"),
            format!("{recovered}"),
        ]);
        csv.push_str(&format!("{erasures},{trials},{recovered}\n"));
    }
    println!("{}", t.render());
    println!("(8 parity tips: everything up to 8 lost tip sectors recovers; 9+ does not)\n");
    write_csv("fault_ecc.csv", &csv);

    // --- §6.1.1: remapping policies --------------------------------------
    println!("== §6.1.1 defective-sector remapping policies ==\n");
    println!("a sequential 4 KB read stream crosses one remapped sector:");
    println!("spare-tip remapping keeps streaming (the spare reads in the");
    println!("same sled pass); disk-style far remapping breaks sequentiality");
    println!("with an out-and-back excursion to the spare region:\n");
    let capacity = MemsDevice::new(params.clone()).capacity_lbns();
    let stream_start = 1250u64 * 2700; // a center cylinder
    let measure = |policy: RemapPolicy| -> f64 {
        let mut dev = RemappedDevice::new(
            MemsDevice::new(params.clone()),
            policy,
            capacity - 2700, // last cylinder holds the spares
        );
        // The 25th 4 KB block of the stream is defective.
        dev.remap(stream_start + 24 * 8);
        let mut t = SimTime::ZERO;
        let mut total = 0.0;
        for i in 0..50u64 {
            let req = Request::new(i, t, stream_start + i * 8, 8, IoKind::Read);
            let b = dev.service(&req, t);
            total += b.total();
            t += SimTime::from_secs(b.total());
        }
        total
    };
    let spare = measure(RemapPolicy::SpareTip);
    let far = measure(RemapPolicy::FarSpare);
    println!(
        "  total stream time, spare-tip remap: {:.3} ms",
        spare * 1e3
    );
    println!("  total stream time, far remap:       {:.3} ms", far * 1e3);
    println!(
        "  sequentiality penalty avoided:      {:.1}%\n",
        (far / spare - 1.0) * 100.0
    );

    // --- §6.1.3: seek errors ----------------------------------------------
    println!("== §6.1.3 seek-error recovery penalty ==\n");
    let d = disk_seek_error_penalty(&DiskParams::quantum_atlas_10k(), 1.5e-3);
    let m = mems_seek_error_penalty(&params);
    let mut t = Table::new(vec![
        "device".into(),
        "min (ms)".into(),
        "mean (ms)".into(),
        "max (ms)".into(),
    ]);
    t.row(vec![
        "Atlas 10K".into(),
        format!("{:.3}", d.min * 1e3),
        format!("{:.3}", d.mean * 1e3),
        format!("{:.3}", d.max * 1e3),
    ]);
    t.row(vec![
        "MEMS".into(),
        format!("{:.3}", m.min * 1e3),
        format!("{:.3}", m.mean * 1e3),
        format!("{:.3}", m.max * 1e3),
    ]);
    println!("{}", t.render());

    // --- §6.2: RAID-5 small writes ----------------------------------------
    println!("== §6.2 RAID-5 small-write (read-modify-write) latency ==\n");
    let mems_devices: Vec<MemsDevice> = (0..5).map(|_| MemsDevice::new(params.clone())).collect();
    let mut mems_array = Raid5Array::new(mems_devices, 8);
    let disk_devices: Vec<DiskDevice> = (0..5)
        .map(|_| DiskDevice::new(DiskParams::quantum_atlas_10k()))
        .collect();
    let mut disk_array = Raid5Array::new(disk_devices, 8);
    let mut mems_sum = 0.0;
    let mut disk_sum = 0.0;
    let strips = 50;
    for s in 0..strips {
        // Spread strips around mid-device.
        let strip = 100_000 + s * 37;
        mems_sum += mems_array.small_write_time(strip, 8);
        disk_sum += disk_array.small_write_time(strip, 8);
    }
    let mems_avg = mems_sum / strips as f64;
    let disk_avg = disk_sum / strips as f64;
    println!("5-device array, 4 KB small writes, mean over {strips} strips:");
    println!("  MEMS array:  {:.3} ms", mems_avg * 1e3);
    println!("  Atlas array: {:.3} ms", disk_avg * 1e3);
    println!("  speedup:     {:.1}x\n", disk_avg / mems_avg);

    // Single-device RMW reference (Table 2 check).
    let mut mems = MemsDevice::new(params.clone());
    let rmw = read_modify_write(&mut mems, ((1250 * 5 * 27) + 13) * 20, 8);
    println!(
        "single-device 4 KB RMW on MEMS: {:.2} ms (Table 2: 0.33 ms)\n",
        rmw.total() * 1e3
    );

    // --- §6.3: crash recovery ----------------------------------------------
    println!("== §6.3 crash recovery and startup ==\n");
    let mut t = Table::new(vec!["scenario".into(), "ready time".into()]);
    t.row(vec![
        "1 Atlas 10K spin-up".into(),
        format!("{:.1} s", array_ready_time(1, 25.0, true)),
    ]);
    t.row(vec![
        "8-disk array, serialized spin-up".into(),
        format!("{:.1} s", array_ready_time(8, 25.0, true)),
    ]);
    t.row(vec![
        "1 MEMS device init".into(),
        format!("{:.1} ms", array_ready_time(1, 0.5e-3, false) * 1e3),
    ]);
    t.row(vec![
        "8-MEMS array, concurrent init".into(),
        format!("{:.1} ms", array_ready_time(8, 0.5e-3, false) * 1e3),
    ]);
    println!("{}", t.render());

    let mut mems = MemsDevice::new(params.clone());
    let mut disk = DiskDevice::new(DiskParams::quantum_atlas_10k());
    let m = sync_write_burst_mean(&mut mems, 500, 2);
    let d = sync_write_burst_mean(&mut disk, 500, 2);
    println!("synchronous 1 KB metadata writes (mean of 500, random locations):");
    println!("  MEMS:  {:.3} ms", m * 1e3);
    println!("  Atlas: {:.3} ms", d * 1e3);
    println!("  penalty reduction: {:.1}x", d / m);
}
