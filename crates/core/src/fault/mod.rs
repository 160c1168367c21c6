//! Failure management (§6): internal faults, device failures, and
//! crash recovery.
//!
//! The module's organizing insight from the paper: because every logical
//! sector is striped across 64 probe tips, a MEMS device can spend its
//! massive internal parallelism on redundancy. Concretely:
//!
//! * [`Gf256`] / [`ReedSolomon`] / [`StripeCodec`] — the *horizontal* ECC
//!   across tips plus the *vertical* per-tip check ([`crc8`],
//!   [`TipSector`]) that converts errors into erasures (§6.1.2). Faults
//!   that lose whole tip regions become recoverable.
//! * [`FaultState`] — tip/media fault injection against the device
//!   geometry, measuring how many stripes exceed the parity (§6.1.1).
//! * [`RemappedDevice`] / [`SpareTipPolicy`] — spare-tip remapping with
//!   zero service-time penalty vs disk-style far remapping, and the
//!   capacity-vs-tolerance trade-off (§6.1.1).
//! * [`read_modify_write`] / [`Raid5Array`] — Table 2's RMW comparison
//!   and the RAID-5 small-write engine it accelerates (§6.2).
//! * [`disk_seek_error_penalty`] / [`mems_seek_error_penalty`] — §6.1.3,
//!   plus the bounded-backoff retry of transient errors that
//!   [`DegradedDevice`] runs.
//! * [`DegradedDevice`] — the *online* composition: a device wrapper that
//!   reacts to mid-run fault events (retry, spare-tip remap, RS
//!   reconstruction reads) and bills recovery as real service time.
//! * [`array_ready_time`] / [`sync_write_burst_mean`] — §6.3 restart and
//!   crash-recovery costs.

mod crash;
mod degraded;
mod gf256;
mod inject;
mod remap;
mod rmw;
mod rs;
mod seek_error;
mod stripe;
mod vertical;

pub use crash::{array_ready_time, sync_write_burst_mean};
pub use degraded::{DegradedCounters, DegradedDevice};
pub use gf256::Gf256;
pub use inject::{FaultState, MediaDefect};
pub use remap::{RemapPolicy, RemapTable, RemappedDevice, SpareTipPolicy};
pub use rmw::{read_modify_write, Raid5Array, RmwBreakdown};
pub use rs::ReedSolomon;
pub use seek_error::{disk_seek_error_penalty, mems_seek_error_penalty, SeekErrorPenalty};
pub use stripe::{StripeCodec, DATA_TIPS, TIP_BYTES};
pub use vertical::{crc8, TipSector};
