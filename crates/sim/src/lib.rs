//! Discrete-event storage simulation engine.
//!
//! `storage-sim` provides the substrate that the memsstore project uses in
//! place of DiskSim \[GWP98]: a simulation clock, the request/workload/
//! scheduler/device abstractions, a driver that couples them into an
//! open-arrival queueing simulation, and the statistics the paper reports
//! (mean response time and the squared coefficient of variation used as a
//! starvation metric).
//!
//! The engine is deliberately single-threaded and deterministic: a fixed
//! workload seed always produces the same simulated timeline, so every
//! figure in the paper reproduction is replayable bit-for-bit.
//!
//! # Examples
//!
//! ```
//! use storage_sim::{
//!     ConstantDevice, Driver, FifoScheduler, Request, IoKind, SimTime, VecWorkload,
//! };
//!
//! // Three back-to-back 4 KB reads against a device with a constant 1 ms
//! // service time, scheduled FIFO.
//! let reqs = vec![
//!     Request::new(0, SimTime::from_ms(0.0), 0, 8, IoKind::Read),
//!     Request::new(1, SimTime::from_ms(0.1), 800, 8, IoKind::Read),
//!     Request::new(2, SimTime::from_ms(0.2), 1600, 8, IoKind::Write),
//! ];
//! let mut driver = Driver::new(
//!     VecWorkload::new(reqs),
//!     FifoScheduler::new(),
//!     ConstantDevice::new(10_000, 0.001),
//! );
//! let report = driver.run();
//! assert_eq!(report.completed, 3);
//! assert!(report.response.mean() >= 0.001);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod closed;
pub mod device;
pub mod driver;
mod event;
pub mod fault;
pub mod overload;
pub mod request;
pub mod rng;
pub mod sched;
pub mod stats;
pub mod telemetry;
pub mod time;
pub mod tracer;
pub mod workload;

pub use closed::{closed_loop, ClosedReport, RequestSource};
pub use device::{
    ConstantDevice, PhaseEnergy, PositionOracle, PowerState, ServiceBreakdown, StorageDevice,
};
pub use driver::{Driver, RunState, SimReport};
pub use fault::{FaultClock, FaultEvent, FaultKind};
pub use overload::OverloadPolicy;
pub use request::{Completion, IoKind, Request, RequestId};
pub use sched::{FifoScheduler, SchedCounters, Scheduler};
pub use stats::{Histogram, LogHistogram, ResponseStats, Welford};
pub use telemetry::{Telemetry, TracerPair, Window};
pub use time::SimTime;
pub use tracer::{NoopTracer, RingTracer, TraceEvent, Tracer};
pub use workload::{VecWorkload, Workload};
