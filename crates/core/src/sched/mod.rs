//! Request scheduling algorithms (§4).
//!
//! The paper compares four classic disk schedulers on MEMS-based storage:
//!
//! * **FCFS** — first-come-first-served, the reference point (provided by
//!   [`storage_sim::FifoScheduler`], re-exported here);
//! * **SSTF_LBN** — greedy shortest "seek" first, approximating seek time
//!   by LBN distance as real hosts must [`SstfScheduler`];
//! * **C-LOOK** — cyclical ascending-LBN sweeps, the starvation-resistant
//!   choice [`ClookScheduler`];
//! * **SPTF** — shortest positioning time first, which consults the
//!   device's actual mechanical state [`SptfScheduler`].

mod clook;
mod sptf;
mod sstf;

pub use clook::ClookScheduler;
pub use sptf::SptfScheduler;
pub use sstf::SstfScheduler;

pub use storage_sim::FifoScheduler;

use storage_sim::{PositionOracle, Request, SchedCounters, Scheduler, SimTime};

/// The scheduling algorithms evaluated in the paper's figures, in the
/// order the figures list them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// First come, first served.
    Fcfs,
    /// Shortest seek (LBN distance) first.
    SstfLbn,
    /// Cyclical LOOK over ascending LBNs.
    Clook,
    /// Shortest positioning time first.
    Sptf,
}

impl Algorithm {
    /// All four algorithms, figure order.
    pub const ALL: [Algorithm; 4] = [
        Algorithm::Fcfs,
        Algorithm::SstfLbn,
        Algorithm::Clook,
        Algorithm::Sptf,
    ];

    /// The paper's label for the algorithm.
    pub fn label(self) -> &'static str {
        match self {
            Algorithm::Fcfs => "FCFS",
            Algorithm::SstfLbn => "SSTF_LBN",
            Algorithm::Clook => "C-LOOK",
            Algorithm::Sptf => "SPTF",
        }
    }

    /// Instantiates a fresh scheduler for the algorithm.
    pub fn build(self) -> PaperScheduler {
        match self {
            Algorithm::Fcfs => PaperScheduler::Fcfs(FifoScheduler::new()),
            Algorithm::SstfLbn => PaperScheduler::SstfLbn(SstfScheduler::new()),
            Algorithm::Clook => PaperScheduler::Clook(ClookScheduler::new()),
            Algorithm::Sptf => PaperScheduler::Sptf(SptfScheduler::new()),
        }
    }
}

/// One of the paper's four schedulers, chosen at run time by
/// [`Algorithm::build`]. It implements [`Scheduler`] by matching on
/// itself, so a driver over it dispatches statically and every pick stays
/// monomorphized over the device.
#[derive(Debug)]
pub enum PaperScheduler {
    /// First come, first served.
    Fcfs(FifoScheduler),
    /// Shortest seek (LBN distance) first.
    SstfLbn(SstfScheduler),
    /// Cyclical LOOK over ascending LBNs.
    Clook(ClookScheduler),
    /// Shortest positioning time first.
    Sptf(SptfScheduler),
}

/// Evaluates `$body` with `$s` bound to the scheduler inside `$this`.
macro_rules! each {
    ($this:expr, $s:ident => $body:expr) => {
        match $this {
            PaperScheduler::Fcfs($s) => $body,
            PaperScheduler::SstfLbn($s) => $body,
            PaperScheduler::Clook($s) => $body,
            PaperScheduler::Sptf($s) => $body,
        }
    };
}

impl Scheduler for PaperScheduler {
    fn name(&self) -> &str {
        each!(self, s => s.name())
    }

    fn enqueue(&mut self, req: Request) {
        each!(self, s => s.enqueue(req));
    }

    fn pick<O: PositionOracle + ?Sized>(&mut self, device: &O, now: SimTime) -> Option<Request> {
        each!(self, s => s.pick(device, now))
    }

    fn len(&self) -> usize {
        each!(self, s => s.len())
    }

    fn counters(&self) -> SchedCounters {
        each!(self, s => s.counters())
    }
}

#[cfg(test)]
mod naive_sptf;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_the_paper() {
        assert_eq!(Algorithm::Fcfs.label(), "FCFS");
        assert_eq!(Algorithm::SstfLbn.label(), "SSTF_LBN");
        assert_eq!(Algorithm::Clook.label(), "C-LOOK");
        assert_eq!(Algorithm::Sptf.label(), "SPTF");
    }

    #[test]
    fn build_produces_matching_names() {
        for alg in Algorithm::ALL {
            assert_eq!(alg.build().name(), alg.label());
        }
    }
}
