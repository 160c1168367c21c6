//! Fleet-scale multi-device simulation.
//!
//! The paper evaluates one MEMS device at a time; serving real traffic
//! takes a **fleet**. This crate runs hundreds to thousands of devices
//! as a storage cluster:
//!
//! * [`VolumeSpec`] — a stripe/mirror/RAID-Z composition tree that
//!   routes fleet-level requests into per-station sub-I/Os using the
//!   same span and parity math as the `mems_os::array` wrappers;
//! * [`FleetEngine`] — per-station event loops (each a
//!   [`storage_sim::Driver`] stepped through its session API) on
//!   persistent worker threads, stitched by a deterministic streaming
//!   merge of their sim-time batches;
//! * [`RebuildPlan`] — paced background copy streams for
//!   rebuild-under-load experiments, layered on the per-station
//!   [`storage_sim::FaultClock`] fault machinery;
//! * [`FleetTimeline`] — the fleet-wide observability merge: per-station
//!   [`storage_sim::Telemetry`] windows coarsened to a common width and
//!   folded (in station order — deterministic) into fleet p50/p95/p99/
//!   p99.9, queue-depth, utilization, and energy-rate time series that
//!   reconcile *exactly* with the [`FleetReport`] counts;
//! * [`health`] — fleet health analytics over those series: utilization
//!   and tail skew across stations, a hysteresis straggler detector,
//!   rebuild progress tracking, and shard-balance metrics from the
//!   engine's [`FleetProfile`].
//!
//! Results are bit-identical for any shard count, thread count, and
//! batch width (see the [`engine`] module docs for the argument), so
//! every fleet experiment stays replayable byte for byte — the same
//! contract the single-device figures honor.

#![warn(missing_docs)]

pub mod engine;
pub mod health;
pub mod rebuild;
pub mod timeline;
pub mod volume;

pub use engine::{FleetConfig, FleetEngine, FleetProfile, FleetReport, FleetRun};
pub use health::{
    detect_stragglers, tail_skew, utilization_skew, ProgressSeries, StationHealth, StragglerEvent,
    StragglerPolicy, StragglerReport,
};
pub use rebuild::RebuildPlan;
pub use timeline::FleetTimeline;
pub use volume::{SubIo, VolumeSpec};
