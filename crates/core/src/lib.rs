//! Operating system management policies for MEMS-based storage devices.
//!
//! This crate is the paper's primary contribution: how four aspects of OS
//! storage management change when the device behind the block interface
//! is a MEMS media sled rather than a rotating disk.
//!
//! * [`sched`] — request scheduling (§4): FCFS, SSTF_LBN, C-LOOK, and
//!   SPTF, plus an aged-SPTF extension. The headline result: the
//!   algorithms keep their disk ranking, but the *gaps* change — LBN
//!   schedulers only minimize X sled movement, so SPTF's advantage is
//!   governed by how much settle time lets X seeks dominate Y seeks.
//! * [`layout`] — data placement (§5): the spring-aware bipartite layouts
//!   (subregioned 5×5 grid and columnar) that beat the disk-optimal organ
//!   pipe arrangement on MEMS devices.
//! * [`fault`] — failure management (§6): striping + horizontal/vertical
//!   ECC across tips, spare-tip remapping with zero service-time penalty,
//!   the capacity-vs-tolerance trade, seek-error recovery, Table 2's
//!   read-modify-write advantage, and the RAID-5 small-write engine.
//! * [`power`] — power management (§7): a single aggressive idle mode
//!   (0.5 ms restart) instead of the disk's reluctant spin-down bargain,
//!   and power as a near-linear function of bits accessed.
//! * [`array`](mod@array) — stripe/mirror/RAID-Z arrays as composable
//!   devices (§6.2): one `Layout` plan per node, positioning-aware mirror
//!   read steering, and the small-write RMW path.
//! * [`placement`] — adaptive hot/cold placement: decayed per-block
//!   frequency tracking and idle-window migration of hot blocks toward
//!   the cheap center cylinders, as a composable device wrapper.
//! * [`cache`] — the §2.4.11 speed-matching buffer: LRU sector cache with
//!   multi-stream sequential readahead, composed as a device wrapper.
//!
//! # Examples
//!
//! Run the paper's random workload against the default MEMS device under
//! SPTF scheduling:
//!
//! ```
//! use mems_device::{MemsDevice, MemsParams};
//! use mems_os::sched::SptfScheduler;
//! use storage_sim::{Driver, IoKind, Request, SimTime, VecWorkload};
//!
//! let requests: Vec<Request> = (0..100)
//!     .map(|i| {
//!         let lbn = (i * 2_654_435_761u64) % 6_000_000;
//!         Request::new(i, SimTime::from_ms(i as f64), lbn, 8, IoKind::Read)
//!     })
//!     .collect();
//! let mut driver = Driver::new(
//!     VecWorkload::new(requests),
//!     SptfScheduler::new(),
//!     MemsDevice::new(MemsParams::default()),
//! );
//! let report = driver.run();
//! assert_eq!(report.completed, 100);
//! println!("mean response: {:.2} ms", report.response.mean_ms());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Layouts represent LBN *regions* as collections of `Range<u64>`; a
// one-element collection is meaningful (one region), not a typo for a
// range of values, so this lint misfires throughout the crate.
#![allow(clippy::single_range_in_vec_init)]

pub mod array;
pub mod cache;
pub mod fault;
pub mod layout;
pub mod placement;
pub mod power;
pub mod sched;
