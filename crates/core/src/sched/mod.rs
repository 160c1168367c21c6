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

use storage_sim::DynScheduler;

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

    /// Instantiates a fresh scheduler for the algorithm, type-erased
    /// behind the [`DynScheduler`] shim (the box itself implements
    /// `Scheduler`, so it drops into any generic driver).
    pub fn build(self) -> Box<dyn DynScheduler> {
        match self {
            Algorithm::Fcfs => Box::new(FifoScheduler::new()),
            Algorithm::SstfLbn => Box::new(SstfScheduler::new()),
            Algorithm::Clook => Box::new(ClookScheduler::new()),
            Algorithm::Sptf => Box::new(SptfScheduler::new()),
        }
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
