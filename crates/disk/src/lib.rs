//! Parametric rotating-disk model calibrated to the Quantum Atlas 10K.
//!
//! The paper compares every MEMS result against DiskSim's validated Atlas
//! 10K module. This crate stands in for that module with a parametric
//! model at the same abstraction level: zoned geometry with track and
//! cylinder skew, a calibrated seek curve, wall-clock rotational position
//! (the platter spins whether or not the host is accessing it — the key
//! mechanical contrast with the MEMS sled, §2.4.8), and disk power states
//! with spin-up costs for the §6.3/§7 comparisons.
//!
//! # Examples
//!
//! ```
//! use atlas_disk::{DiskDevice, DiskParams};
//! use storage_sim::{IoKind, Request, SimTime, StorageDevice};
//!
//! let mut disk = DiskDevice::new(DiskParams::quantum_atlas_10k());
//! let b = disk.service(
//!     &Request::new(0, SimTime::ZERO, 4_000_000, 8, IoKind::Read),
//!     SimTime::ZERO,
//! );
//! println!(
//!     "seek {:.2} ms + rotate {:.2} ms + transfer {:.2} ms",
//!     b.seek_x * 1e3, b.rotation * 1e3, b.transfer * 1e3,
//! );
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod device;
pub mod geometry;
pub mod heatmap;
pub mod params;
pub mod power;
pub mod seek;

pub use device::DiskDevice;
pub use geometry::{DiskAddr, DiskMapper};
pub use heatmap::ZoneHeatmap;
pub use params::{DiskParams, Zone};
pub use power::DiskEnergyModel;
pub use seek::SeekCurve;
