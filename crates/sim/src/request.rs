//! I/O requests.
//!
//! Requests are expressed against the device's logical block (LBN) space in
//! 512-byte sectors, matching the SCSI-like interface the paper assumes for
//! MEMS-based storage devices (§2.2).

use crate::time::SimTime;

/// Unique identifier for a request within one simulation run.
pub type RequestId = u64;

/// Whether a request reads or writes the media.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IoKind {
    /// Transfer from media to host.
    Read,
    /// Transfer from host to media.
    Write,
}

impl IoKind {
    /// Returns `true` for [`IoKind::Read`].
    pub fn is_read(self) -> bool {
        matches!(self, IoKind::Read)
    }
}

/// A block-level I/O request.
///
/// # Examples
///
/// ```
/// use storage_sim::{IoKind, Request, SimTime};
///
/// // An 8-sector (4 KB) read arriving at t = 1 ms at LBN 1000.
/// let r = Request::new(0, SimTime::from_ms(1.0), 1000, 8, IoKind::Read);
/// assert_eq!(r.bytes(), 4096);
/// assert_eq!(r.end_lbn(), 1008);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Request {
    /// Simulation-unique identifier.
    pub id: RequestId,
    /// Arrival time at the device driver queue.
    pub arrival: SimTime,
    /// First logical block (512-byte sector) addressed.
    pub lbn: u64,
    /// Number of 512-byte sectors transferred; always at least one.
    pub sectors: u32,
    /// Read or write.
    pub kind: IoKind,
}

impl Request {
    /// Bytes per logical sector, fixed at 512 across the workspace.
    pub const SECTOR_BYTES: u32 = 512;

    /// Creates a request.
    ///
    /// # Panics
    ///
    /// Panics if `sectors` is zero.
    #[inline]
    pub fn new(id: RequestId, arrival: SimTime, lbn: u64, sectors: u32, kind: IoKind) -> Self {
        assert!(sectors > 0, "request must transfer at least one sector");
        Request {
            id,
            arrival,
            lbn,
            sectors,
            kind,
        }
    }

    /// Returns the first LBN past the end of the request.
    pub fn end_lbn(&self) -> u64 {
        self.lbn + u64::from(self.sectors)
    }

    /// Returns the transfer size in bytes.
    pub fn bytes(&self) -> u64 {
        u64::from(self.sectors) * u64::from(Self::SECTOR_BYTES)
    }
}

/// A request together with its simulated execution record.
#[derive(Debug, Clone, Copy)]
pub struct Completion {
    /// The request as issued.
    pub request: Request,
    /// When the device began servicing it.
    pub start_service: SimTime,
    /// When the device finished it.
    pub completion: SimTime,
}

impl Completion {
    /// Queue time plus service time — the paper's response-time metric.
    pub fn response_time(&self) -> SimTime {
        self.completion - self.request.arrival
    }

    /// Time spent waiting in the scheduler queue.
    pub fn queue_time(&self) -> SimTime {
        self.start_service - self.request.arrival
    }

    /// Time spent at the device.
    pub fn service_time(&self) -> SimTime {
        self.completion - self.start_service
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_geometry() {
        let r = Request::new(7, SimTime::ZERO, 100, 16, IoKind::Write);
        assert_eq!(r.end_lbn(), 116);
        assert_eq!(r.bytes(), 8192);
        assert!(!r.kind.is_read());
    }

    #[test]
    #[should_panic(expected = "at least one sector")]
    fn zero_sector_request_rejected() {
        let _ = Request::new(0, SimTime::ZERO, 0, 0, IoKind::Read);
    }

    #[test]
    fn completion_metrics() {
        let r = Request::new(1, SimTime::from_ms(1.0), 0, 1, IoKind::Read);
        let c = Completion {
            request: r,
            start_service: SimTime::from_ms(3.0),
            completion: SimTime::from_ms(4.5),
        };
        assert!((c.response_time().as_secs() * 1e3 - 3.5).abs() < 1e-12);
        assert!((c.queue_time().as_secs() * 1e3 - 2.0).abs() < 1e-12);
        assert!((c.service_time().as_secs() * 1e3 - 1.5).abs() < 1e-12);
    }
}
