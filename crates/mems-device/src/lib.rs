//! Performance model of a MEMS-based storage device.
//!
//! This crate implements the analytic device model the paper builds on
//! (\[GSGN00]: a spring-mounted magnetic media sled seeking in X and Y over
//! a fixed two-dimensional array of probe tips), exposed through the
//! disk-like [`storage_sim::StorageDevice`] interface so the scheduling,
//! layout, fault, and power studies in `mems-os` can drive it.
//!
//! The model reproduces every concrete figure the paper quotes for the
//! default device of Table 1:
//!
//! * 2500 cylinders × 5 tracks × 540 sectors = 3.4 GB class capacity;
//! * 28 mm/s access velocity, 128.6 µs per tip-sector row;
//! * 79.6 MB/s streaming bandwidth;
//! * ≈0.215 ms settling time constant, charged after X movement;
//! * turnarounds from 0.036 ms (spring-assisted, at the edges) through
//!   ≈0.07 ms at the center, position- and direction-dependent;
//! * ≈0.5 ms average random 4 KB access time.
//!
//! # Examples
//!
//! ```
//! use mems_device::{MemsDevice, MemsParams};
//! use storage_sim::{IoKind, Request, SimTime, StorageDevice};
//!
//! let mut dev = MemsDevice::new(MemsParams::default());
//! let req = Request::new(0, SimTime::ZERO, 1_000_000, 8, IoKind::Read);
//! let breakdown = dev.service(&req, SimTime::ZERO);
//! println!(
//!     "4 KB access: {:.0} µs seek + {:.0} µs transfer",
//!     breakdown.positioning * 1e6,
//!     breakdown.transfer * 1e6,
//! );
//! ```

#![warn(missing_docs)]
#![warn(clippy::undocumented_unsafe_blocks)]

pub mod device;
pub mod geometry;
pub mod heatmap;
pub mod kinematics;
pub mod params;
pub mod power;
pub mod surface;

pub use device::{MemsDevice, SledState};
pub use geometry::{Mapper, PhysAddr, Segment};
pub use heatmap::MediaHeatmap;
pub use kinematics::SpringSled;
pub use params::{MemsGeometry, MemsParams};
pub use power::MemsEnergyModel;
pub use surface::SeekSurface;
