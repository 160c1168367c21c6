//! The scheduler abstraction and a baseline FIFO implementation.
//!
//! The interesting schedulers (SSTF_LBN, C-LOOK, SPTF — §4) live in the
//! `mems-os` crate; this module defines the trait the driver speaks and a
//! first-come-first-served queue used both as the paper's FCFS baseline and
//! for engine tests.

use std::collections::VecDeque;

use crate::device::PositionOracle;
use crate::request::Request;
use crate::time::SimTime;

/// Monotonic work counters a scheduler accumulates across picks.
///
/// The observability layer reads these by delta around each pick to
/// attribute per-pick work (candidates examined vs. queue depth — the
/// pruned-SPTF efficiency metric). Counting must not change which request
/// a scheduler picks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedCounters {
    /// Successful picks (calls to `pick` that returned a request).
    pub picks: u64,
    /// Candidates whose exact positioning time (or score) was evaluated.
    pub candidates_examined: u64,
    /// Whole buckets skipped by a lower-bound prune (pruned SPTF only).
    pub buckets_pruned: u64,
    /// Buckets answered from the incremental per-bucket best cache instead
    /// of a rescan (incremental SPTF only).
    pub cached_best_hits: u64,
}

/// A request scheduler: holds pending requests and picks the next one to
/// service whenever the device goes idle.
///
/// `pick` is generic over the positioning oracle so the driver's event loop
/// monomorphizes the whole pick — every candidate `position_time` query
/// inlines into the concrete device model instead of hopping a vtable. The
/// trait is therefore not object-safe: a scheduler chosen at run time is an
/// enum that matches on itself (`mems_os::sched::PaperScheduler`), never a
/// boxed trait object.
pub trait Scheduler {
    /// Short algorithm name, e.g. `"SPTF"`.
    fn name(&self) -> &str;

    /// Adds a request to the pending set.
    fn enqueue(&mut self, req: Request);

    /// Removes and returns the next request to service, given the device
    /// state at `now`. Returns `None` iff no requests are pending.
    fn pick<O: PositionOracle + ?Sized>(&mut self, device: &O, now: SimTime) -> Option<Request>;

    /// Number of pending requests.
    fn len(&self) -> usize;

    /// Returns `true` if no requests are pending.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Monotonic work counters since construction. The default (all
    /// zeros) is for schedulers that do not instrument their picks.
    fn counters(&self) -> SchedCounters {
        SchedCounters::default()
    }
}

/// First-come-first-served scheduling (the paper's FCFS reference point).
///
/// # Examples
///
/// ```
/// use storage_sim::{ConstantDevice, FifoScheduler, IoKind, Request, Scheduler, SimTime};
///
/// let mut s = FifoScheduler::new();
/// let d = ConstantDevice::new(100, 1e-3);
/// s.enqueue(Request::new(0, SimTime::ZERO, 50, 1, IoKind::Read));
/// s.enqueue(Request::new(1, SimTime::ZERO, 10, 1, IoKind::Read));
/// assert_eq!(s.pick(&d, SimTime::ZERO).unwrap().id, 0);
/// assert_eq!(s.pick(&d, SimTime::ZERO).unwrap().id, 1);
/// ```
#[derive(Debug, Default)]
pub struct FifoScheduler {
    queue: VecDeque<Request>,
    counters: SchedCounters,
}

impl FifoScheduler {
    /// Creates an empty FCFS queue.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Scheduler for FifoScheduler {
    fn name(&self) -> &str {
        "FCFS"
    }

    #[inline]
    fn enqueue(&mut self, req: Request) {
        self.queue.push_back(req);
    }

    #[inline]
    fn pick<O: PositionOracle + ?Sized>(&mut self, _device: &O, _now: SimTime) -> Option<Request> {
        let req = self.queue.pop_front();
        if req.is_some() {
            // FCFS considers exactly the head of the queue.
            self.counters.picks += 1;
            self.counters.candidates_examined += 1;
        }
        req
    }

    #[inline]
    fn len(&self) -> usize {
        self.queue.len()
    }

    fn counters(&self) -> SchedCounters {
        self.counters
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::ConstantDevice;
    use crate::request::IoKind;

    #[test]
    fn fifo_preserves_arrival_order() {
        let mut s = FifoScheduler::new();
        let d = ConstantDevice::new(100, 1e-3);
        for i in 0..10 {
            s.enqueue(Request::new(i, SimTime::ZERO, 99 - i, 1, IoKind::Read));
        }
        assert_eq!(s.len(), 10);
        for i in 0..10 {
            assert_eq!(s.pick(&d, SimTime::ZERO).unwrap().id, i);
        }
        assert!(s.is_empty());
        assert!(s.pick(&d, SimTime::ZERO).is_none());
    }
}
