//! The exact full-scan SPTF that `SptfScheduler`'s pruned, cached pick
//! must match pick for pick: scan every pending request in enqueue order
//! and keep the strict minimum.
//!
//! Test code only. The `sched::sptf` unit tests reach it as
//! `sched::naive_sptf`, and the integration tests that compare against it
//! include this file by `#[path]`, so it names nothing but `storage_sim`.

#![cfg(test)]

use storage_sim::{PositionOracle, Request, SchedCounters, Scheduler, SimTime};

/// Full-scan SPTF: one [`PositionOracle::position_time`] per pending
/// request per pick, earliest enqueue winning ties.
#[derive(Debug, Default)]
pub struct NaiveSptfScheduler {
    pending: Vec<Request>,
    counters: SchedCounters,
}

impl NaiveSptfScheduler {
    /// Creates an empty scheduler.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Scheduler for NaiveSptfScheduler {
    fn name(&self) -> &str {
        "SPTF"
    }

    fn enqueue(&mut self, req: Request) {
        self.pending.push(req);
    }

    fn pick<O: PositionOracle + ?Sized>(&mut self, device: &O, now: SimTime) -> Option<Request> {
        if self.pending.is_empty() {
            return None;
        }
        self.counters.picks += 1;
        self.counters.candidates_examined += self.pending.len() as u64;
        let mut best = 0usize;
        let mut best_time = f64::INFINITY;
        for (i, req) in self.pending.iter().enumerate() {
            let t = device.position_time(req, now);
            if t < best_time {
                best_time = t;
                best = i;
            }
        }
        // Order-preserving removal keeps the scan's tie-break (earliest
        // enqueue wins) stable across picks.
        Some(self.pending.remove(best))
    }

    fn len(&self) -> usize {
        self.pending.len()
    }

    fn counters(&self) -> SchedCounters {
        self.counters
    }
}
