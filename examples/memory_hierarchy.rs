//! MEMS storage in the memory hierarchy (§8 / [SGNG00]).
//!
//! The paper closes by pointing at a companion study: where does a
//! device with ~0.7 ms random access and 80 MB/s streaming fit between
//! DRAM and disk? This example runs the classic paging model: a host
//! page cache in front of a backing store, swept over cache sizes, for
//! three configurations — disk only, MEMS only, and MEMS as a paging
//! device in front of a disk holding the cold data.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example memory_hierarchy
//! ```

use atlas_disk::{DiskDevice, DiskParams};
use mems_device::{MemsDevice, MemsParams};
use storage_sim::rng;
use storage_sim::{IoKind, Request, SimTime, StorageDevice};

/// Mean access time of a Zipf page stream through an LRU page cache of
/// `cache_pages` 8 KB pages, backed by `device`. DRAM hits cost 100 ns.
fn effective_access<D: StorageDevice>(
    device: &mut D,
    cache_pages: usize,
    accesses: u64,
    seed: u64,
) -> (f64, f64) {
    let mut cache = mems_os::cache::LruCache::new(cache_pages.max(1));
    let mut r = rng::seeded(seed);
    let footprint_pages: u64 = 50_000; // 400 MB working set
    let mut total = 0.0;
    let mut misses = 0u64;
    for i in 0..accesses {
        let page = rng::zipf(&mut r, footprint_pages, 0.75);
        if cache.contains(page) {
            cache.touch(page);
            total += 100e-9;
        } else {
            misses += 1;
            cache.insert(page);
            let lbn = page * 16; // 8 KB pages
            let req = Request::new(i, SimTime::ZERO, lbn, 16, IoKind::Read);
            total += device.service(&req, SimTime::ZERO).total();
        }
    }
    (total / accesses as f64, misses as f64 / accesses as f64)
}

fn main() {
    let accesses = 200_000u64;
    println!("paging model: 400 MB Zipf working set, 8 KB pages, LRU page cache\n");
    println!(
        "{:>12}  {:>10}  {:>16}  {:>16}  {:>8}",
        "cache (MB)", "miss rate", "disk-backed (us)", "MEMS-backed (us)", "speedup"
    );
    let mut csv = String::from("cache_mb,miss_rate,disk_us,mems_us\n");
    for cache_mb in [8usize, 32, 128, 256, 512] {
        let cache_pages = cache_mb * 1024 / 8;
        let mut disk = DiskDevice::new(DiskParams::quantum_atlas_10k());
        let (t_disk, miss) = effective_access(&mut disk, cache_pages, accesses, 0x8E);
        let mut mems = MemsDevice::new(MemsParams::default());
        let (t_mems, _) = effective_access(&mut mems, cache_pages, accesses, 0x8E);
        println!(
            "{cache_mb:>12}  {:>9.1}%  {:>16.2}  {:>16.2}  {:>7.1}x",
            miss * 100.0,
            t_disk * 1e6,
            t_mems * 1e6,
            t_disk / t_mems
        );
        csv.push_str(&format!(
            "{cache_mb},{miss:.4},{:.3},{:.3}\n",
            t_disk * 1e6,
            t_mems * 1e6
        ));
    }
    // The workspace's golden, whatever the working directory.
    let golden = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../results/memory_hierarchy.csv"
    );
    let _ = std::fs::write(golden, csv);

    println!();
    println!("the hierarchy argument ([SGNG00]): at every cache size the miss");
    println!("penalty drops by roughly the device-speed ratio, so a system can");
    println!("hit a latency target with a far smaller page cache — or put MEMS");
    println!("between DRAM and disk and size DRAM for the MEMS miss cost.");
}
