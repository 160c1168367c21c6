//! Device-side caching and prefetching (§2.4.11).
//!
//! "Since this rate rarely matches that of the external interface,
//! speed-matching buffers are important. Further, since sequential
//! request streams are important aspects of many real systems, these
//! speed-matching buffers will play an important role in prefetching of
//! sequential LBNs. Also, as with disks, most block reuse will be
//! captured by larger host memory caches instead of in the device cache."
//!
//! [`CachedDevice`] wraps any [`storage_sim::StorageDevice`] with a small
//! LRU sector buffer and a sequential-stream readahead policy: exactly
//! the firmware a MEMS device would ship. The cache is deliberately
//! small (device buffers are megabytes, not gigabytes) — its job is to
//! capture sequential readahead, not working-set reuse.

mod lru;
mod prefetch;

pub use lru::LruCache;
pub use prefetch::SequentialDetector;

use storage_sim::{
    FaultKind, IoKind, PhaseEnergy, PositionOracle, Request, ServiceBreakdown, SimTime,
    StorageDevice,
};

/// Statistics accumulated by a [`CachedDevice`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Read requests fully satisfied from the buffer.
    pub read_hits: u64,
    /// Read requests that went to the media.
    pub read_misses: u64,
    /// Write requests (always go to the media; write-through).
    pub writes: u64,
    /// Sectors fetched beyond the request by readahead.
    pub prefetched_sectors: u64,
}

impl CacheStats {
    /// Read hit rate in `[0, 1]`; zero when no reads occurred.
    pub fn hit_rate(&self) -> f64 {
        let total = self.read_hits + self.read_misses;
        if total == 0 {
            0.0
        } else {
            self.read_hits as f64 / total as f64
        }
    }
}

/// A device wrapped with an LRU sector buffer and sequential readahead.
///
/// Reads that hit entirely in the buffer cost only the (electronic)
/// `hit_time`. Misses go to the media; when the miss extends a detected
/// sequential stream, the device fetches ahead by a window that doubles
/// with each sequential hit up to `max_readahead` sectors, amortizing
/// positioning over long transfers — cheap on a MEMS device because
/// sequential rows stream at full media rate.
///
/// # Examples
///
/// ```
/// use mems_device::{MemsDevice, MemsParams};
/// use mems_os::cache::CachedDevice;
/// use storage_sim::{IoKind, Request, SimTime, StorageDevice};
///
/// let mut dev = CachedDevice::new(MemsDevice::new(MemsParams::default()), 4096, 256, 50e-6);
/// // Two sequential misses open the readahead window...
/// let a = dev.service(&Request::new(0, SimTime::ZERO, 1000, 8, IoKind::Read), SimTime::ZERO);
/// let b = dev.service(&Request::new(1, SimTime::ZERO, 1008, 8, IoKind::Read), SimTime::ZERO);
/// // ...and the third sequential read rides the prefetched extent.
/// let c = dev.service(&Request::new(2, SimTime::ZERO, 1016, 8, IoKind::Read), SimTime::ZERO);
/// assert!(c.total() < a.total() && c.total() < b.total());
/// assert_eq!(dev.stats().read_hits, 1);
/// ```
#[derive(Debug)]
pub struct CachedDevice<D> {
    inner: D,
    cache: LruCache,
    detector: SequentialDetector,
    max_readahead: u32,
    hit_time: f64,
    stats: CacheStats,
}

impl<D: StorageDevice> CachedDevice<D> {
    /// Wraps `inner` with a buffer of `capacity_sectors` sectors, up to
    /// `max_readahead` sectors of prefetch, and `hit_time` seconds per
    /// buffer hit.
    ///
    /// # Panics
    ///
    /// Panics if `capacity_sectors` is zero or `hit_time` is negative.
    pub fn new(inner: D, capacity_sectors: usize, max_readahead: u32, hit_time: f64) -> Self {
        assert!(hit_time >= 0.0, "hit time must be non-negative");
        CachedDevice {
            inner,
            cache: LruCache::new(capacity_sectors),
            detector: SequentialDetector::new(),
            max_readahead,
            hit_time,
            stats: CacheStats::default(),
        }
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// The wrapped device.
    pub fn inner(&self) -> &D {
        &self.inner
    }

    fn all_cached(&self, req: &Request) -> bool {
        (req.lbn..req.end_lbn()).all(|s| self.cache.contains(s))
    }

    fn insert_range(&mut self, lbn: u64, sectors: u64) {
        for s in lbn..lbn + sectors {
            self.cache.insert(s);
        }
    }
}

/// Only `position_time` is answered; the bucket, floor and rest-key
/// methods keep the trait defaults (one bucket, zero floors, no cache).
/// A cached read positions in 0 s, below any floor the inner device
/// could report, so forwarding those would prune unsoundly.
impl<D: StorageDevice> PositionOracle for CachedDevice<D> {
    fn position_time(&self, req: &Request, now: SimTime) -> f64 {
        if req.kind == IoKind::Read && self.all_cached(req) {
            0.0
        } else {
            self.inner.position_time(req, now)
        }
    }
}

impl<D: StorageDevice> StorageDevice for CachedDevice<D> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn capacity_lbns(&self) -> u64 {
        self.inner.capacity_lbns()
    }

    fn service(&mut self, req: &Request, now: SimTime) -> ServiceBreakdown {
        if req.kind == IoKind::Write {
            // Write-through: media write, buffer updated so subsequent
            // reads of the same sectors hit.
            self.stats.writes += 1;
            let b = self.inner.service(req, now);
            self.insert_range(req.lbn, u64::from(req.sectors));
            return b;
        }
        // Touch for LRU recency even on a hit. The detector only sees
        // misses: its stream positions track fetched extents, and hits
        // are by definition inside an extent it already fetched.
        if self.all_cached(req) {
            for s in req.lbn..req.end_lbn() {
                self.cache.touch(s);
            }
            self.stats.read_hits += 1;
            return ServiceBreakdown {
                overhead: self.hit_time,
                ..ServiceBreakdown::default()
            };
        }
        self.stats.read_misses += 1;
        let window = self.detector.observe(req.lbn, req.sectors);
        let readahead = window.min(self.max_readahead);
        let available = self.capacity_lbns() - req.end_lbn();
        let extra = u64::from(readahead).min(available) as u32;
        let fetch = Request::new(req.id, req.arrival, req.lbn, req.sectors + extra, req.kind);
        self.stats.prefetched_sectors += u64::from(extra);
        let b = self.inner.service(&fetch, now);
        self.insert_range(fetch.lbn, u64::from(fetch.sectors));
        b
    }

    fn reset(&mut self) {
        self.inner.reset();
        self.cache.clear();
        self.detector = SequentialDetector::new();
        self.stats = CacheStats::default();
    }

    fn phase_energy(&self, breakdown: &ServiceBreakdown) -> PhaseEnergy {
        self.inner.phase_energy(breakdown)
    }

    fn on_fault(&mut self, fault: &FaultKind, now: SimTime) {
        self.inner.on_fault(fault, now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mems_device::{MemsDevice, MemsParams};

    fn cached() -> CachedDevice<MemsDevice> {
        CachedDevice::new(MemsDevice::new(MemsParams::default()), 8192, 512, 20e-6)
    }

    fn read(id: u64, lbn: u64, sectors: u32) -> Request {
        Request::new(id, SimTime::ZERO, lbn, sectors, IoKind::Read)
    }

    #[test]
    fn repeated_read_hits_the_buffer() {
        let mut d = cached();
        let miss = d.service(&read(0, 5000, 8), SimTime::ZERO);
        let hit = d.service(&read(1, 5000, 8), SimTime::ZERO);
        assert!(miss.total() > 1e-4);
        assert_eq!(hit.total(), 20e-6);
        assert_eq!(d.stats().read_hits, 1);
        assert_eq!(d.stats().read_misses, 1);
    }

    #[test]
    fn sequential_stream_gets_prefetched() {
        let mut d = cached();
        let mut hits = 0;
        for i in 0..40u64 {
            let b = d.service(&read(i, 10_000 + i * 8, 8), SimTime::ZERO);
            if b.total() <= 20e-6 {
                hits += 1;
            }
        }
        assert!(
            hits >= 30,
            "readahead should satisfy most of a sequential stream, got {hits}"
        );
        assert!(d.stats().prefetched_sectors > 0);
        assert!(d.stats().hit_rate() > 0.7);
    }

    #[test]
    fn random_reads_do_not_benefit() {
        let mut d = cached();
        let mut lbn = 999u64;
        let mut hits = 0;
        for i in 0..40u64 {
            lbn = (lbn.wrapping_mul(6364136223846793005).wrapping_add(7)) % 6_000_000;
            let b = d.service(&read(i, lbn, 8), SimTime::ZERO);
            if b.total() <= 20e-6 {
                hits += 1;
            }
        }
        assert!(hits <= 2, "random reads should mostly miss, hits {hits}");
    }

    #[test]
    fn writes_populate_the_buffer() {
        let mut d = cached();
        let w = Request::new(0, SimTime::ZERO, 777, 8, IoKind::Write);
        let bw = d.service(&w, SimTime::ZERO);
        assert!(bw.total() > 1e-4, "write-through goes to media");
        let br = d.service(&read(1, 777, 8), SimTime::ZERO);
        assert_eq!(br.total(), 20e-6, "read-after-write hits");
    }

    #[test]
    fn lru_evicts_old_sectors() {
        let mut d = CachedDevice::new(MemsDevice::new(MemsParams::default()), 16, 0, 20e-6);
        let _ = d.service(&read(0, 100, 8), SimTime::ZERO);
        let _ = d.service(&read(1, 300, 8), SimTime::ZERO);
        // Capacity 16 sectors holds both; a third range evicts the first.
        let _ = d.service(&read(2, 500, 8), SimTime::ZERO);
        let again = d.service(&read(3, 100, 8), SimTime::ZERO);
        assert!(again.total() > 20e-6, "oldest range must have been evicted");
    }

    #[test]
    fn position_time_is_zero_for_hits() {
        let mut d = cached();
        let _ = d.service(&read(0, 4242, 8), SimTime::ZERO);
        assert_eq!(d.position_time(&read(1, 4242, 8), SimTime::ZERO), 0.0);
        assert!(d.position_time(&read(2, 4_000_000, 8), SimTime::ZERO) > 0.0);
    }

    #[test]
    fn readahead_respects_device_capacity() {
        let mut d = cached();
        let capacity = d.capacity_lbns();
        // Establish a sequential stream right at the end of the device.
        let b = d.service(&read(0, capacity - 24, 8), SimTime::ZERO);
        assert!(b.total().is_finite());
        let b = d.service(&read(1, capacity - 16, 8), SimTime::ZERO);
        assert!(b.total().is_finite());
        let b = d.service(&read(2, capacity - 8, 8), SimTime::ZERO);
        assert!(b.total().is_finite());
    }

    #[test]
    fn reset_clears_everything() {
        let mut d = cached();
        let _ = d.service(&read(0, 123, 8), SimTime::ZERO);
        d.reset();
        assert_eq!(d.stats(), CacheStats::default());
        let again = d.service(&read(1, 123, 8), SimTime::ZERO);
        assert!(again.total() > 20e-6);
    }
}
