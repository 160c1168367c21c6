//! Shared machinery for the experiment harnesses.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the
//! paper; this library holds what they share: the scheduling-sweep runner,
//! aligned-table printing, CSV emission into `results/`, and the checks of
//! their one optional argument.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cli;
pub mod report;
pub mod sweep;

pub use cli::{count_arg, long_flag};
pub use report::{write_csv, Table};
pub use sweep::{run_one, sched_sweep, shared_seek_surface, SweepPoint};
