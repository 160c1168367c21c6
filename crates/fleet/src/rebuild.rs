//! Rebuild traffic planning: paced background copy streams.
//!
//! After a device failure, redundancy is restored by copying surviving
//! data onto a replacement: reads on the surviving peer, writes on the
//! rebuilt station, paced so foreground traffic is not starved. The
//! plan is computed entirely at setup time (the fault schedule is a
//! precomputed [`storage_sim::FaultClock`]), so injecting it preserves
//! the fleet's determinism guarantee.

use storage_sim::{IoKind, Scheduler, SimTime, StorageDevice, Tracer, Workload};

use crate::engine::FleetEngine;

/// A paced mirror-rebuild stream: chunked reads on a surviving replica
/// and matching writes on the rebuilt station.
#[derive(Debug, Clone, Copy)]
pub struct RebuildPlan {
    /// Station read from (the surviving mirror peer).
    pub source: usize,
    /// Station written to (the failed/replaced device).
    pub target: usize,
    /// When the rebuild starts (typically at or just after the fault).
    pub start: SimTime,
    /// Spacing between successive chunks; the pacing knob trading
    /// rebuild duration against foreground interference.
    pub pace: SimTime,
    /// LBNs to copy, from the start of the device.
    pub span_lbns: u64,
    /// Sectors per copy chunk.
    pub chunk_sectors: u32,
}

impl RebuildPlan {
    /// Number of chunks the plan copies.
    pub fn chunks(&self) -> u64 {
        self.span_lbns.div_ceil(u64::from(self.chunk_sectors))
    }

    /// Queues the plan's background sub-I/Os on the engine: chunk `i`
    /// issues a peer read and a target write at `start + i * pace`.
    /// Returns the number of background requests queued.
    pub fn inject<S, D, T, W>(&self, engine: &mut FleetEngine<S, D, T, W>) -> u64
    where
        S: Scheduler,
        D: StorageDevice,
        T: Tracer,
        W: Workload,
    {
        assert!(self.chunk_sectors > 0);
        assert!(self.span_lbns > 0);
        assert!(self.pace > SimTime::ZERO);
        let mut queued = 0;
        let mut lbn = 0u64;
        let mut i = 0u64;
        while lbn < self.span_lbns {
            let sectors = (self.span_lbns - lbn).min(u64::from(self.chunk_sectors)) as u32;
            let at = self.start + SimTime::from_secs(self.pace.as_secs() * i as f64);
            engine.add_background(self.source, at, lbn, sectors, IoKind::Read);
            engine.add_background(self.target, at, lbn, sectors, IoKind::Write);
            queued += 2;
            lbn += u64::from(sectors);
            i += 1;
        }
        queued
    }
}
