//! Workload generators and trace replay for the memsstore experiments.
//!
//! Provides the three workloads of the paper's evaluation:
//!
//! * [`RandomWorkload`] — the §3 *random* workload: Poisson arrivals, 67%
//!   reads, exponential 4 KB sizes, uniform locations;
//! * [`CelloTrace`] — a Cello-like bursty file-server trace (the 1992 HP
//!   trace is not redistributable; see the crate docs of [`cello`] for
//!   the substitution rationale);
//! * [`TpccTrace`] — a TPC-C-like OLTP trace with the high concurrency
//!   and tiny inter-LBN distances §4.3 credits for SPTF's outsized win.
//!
//! Plus a plain-text trace format ([`TraceRecord`], [`format_trace`])
//! with a streaming, validating reader ([`TraceReader`], typed
//! [`TraceError`]s, [`parse_trace`] to collect one), and two skewed
//! workloads for the adaptive-placement experiments: [`ZipfWorkload`]
//! (classical Zipf(0.99) block popularity, spatially scattered) and
//! [`ShiftingHotspotWorkload`] (a contiguous hot span that relocates
//! every epoch).
//!
//! Every source is a **constant-memory stream**. The trace generators
//! ([`CelloTrace`], [`TpccTrace`], [`StreamingTrace`]) and
//! [`TraceReader`] yield [`TraceRecord`]s, and [`Replay`] is the one path
//! from records to requests: it applies the §4.3 arrival-rate scaling to
//! any record stream without materializing it. [`RampWorkload`] adds the
//! open-loop arrival-rate ramp used by the overload experiments.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cello;
pub mod ramp;
pub mod random;
pub mod record;
pub mod streaming;
pub mod summary;
pub mod tpcc;
pub mod zipf;

pub use cello::{cello_for_capacity, CelloParams, CelloTrace};
pub use ramp::RampWorkload;
pub use random::RandomWorkload;
pub use record::{
    format_trace, parse_trace, Replay, TraceError, TraceErrorKind, TraceReader, TraceRecord,
};
pub use streaming::{StreamingParams, StreamingTrace};
pub use summary::TraceSummary;
pub use tpcc::{tpcc_for_capacity, TpccParams, TpccTrace};
pub use zipf::{ShiftingHotspotWorkload, ZipfWorkload, FRAGMENTS};
