//! Fleet-scale multi-device simulation.
//!
//! The paper evaluates one MEMS device at a time; serving real traffic
//! takes a **fleet**. This crate runs hundreds to thousands of devices
//! as a storage cluster:
//!
//! * [`VolumeSpec`] — a stripe/mirror/RAID-Z composition tree that
//!   routes fleet-level requests into per-station sub-I/Os with the
//!   same per-node plan (`mems_os::array::Layout`) that the inline
//!   `Vdev` arrays service;
//! * [`FleetEngine`] — per-station event loops (each a
//!   [`storage_sim::Driver`] stepped through its session API) on
//!   persistent worker threads, stitched by a deterministic streaming
//!   merge of their sim-time batches. Its one constructor,
//!   [`FleetEngine::streaming`], pulls fleet requests from any
//!   [`storage_sim::Workload`]; an explicit list goes in as a
//!   [`storage_sim::VecWorkload`];
//! * [`RebuildPlan`] — paced background copy streams for
//!   rebuild-under-load experiments, layered on the per-station
//!   [`storage_sim::FaultClock`] fault machinery;
//! * [`FleetTimeline`] — the fleet-wide observability merge: per-station
//!   [`storage_sim::Telemetry`] windows coarsened to a common width and
//!   folded (in station order — deterministic) into fleet p50/p95/p99/
//!   p99.9, queue-depth, utilization, and energy-rate time series that
//!   reconcile *exactly* with the [`FleetReport`] counts;
//! * [`health`] — fleet health analytics over those series: utilization
//!   and tail skew across stations, a hysteresis straggler detector, and
//!   rebuild progress tracking.
//!
//! Every run also records the engine's own wall-clock [`FleetProfile`]
//! (batch wait, merge, per-shard advance time), whatever the station
//! tracer; it never feeds back into the simulation.
//!
//! Results are bit-identical for any shard count, thread count, and
//! batch width (see the [`engine`] module docs for the argument), so
//! every fleet experiment stays replayable byte for byte — the same
//! contract the single-device figures honor.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod health;
pub mod rebuild;
pub mod timeline;
pub mod volume;

pub use engine::{FleetConfig, FleetEngine, FleetProfile, FleetReport, FleetRun, ScopeStats};
pub use health::{
    detect_stragglers, tail_skew, utilization_skew, ProgressSeries, StationHealth, StragglerEvent,
    StragglerReport,
};
pub use rebuild::RebuildPlan;
pub use timeline::FleetTimeline;
pub use volume::{SubIo, VolumeSpec};
