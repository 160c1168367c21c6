//! Closed-loop simulation: a fixed multiprogramming level.
//!
//! The paper's experiments use open arrivals, but real systems often
//! behave closed: a fixed population of processes each keeps one request
//! outstanding, thinks for a while after completion, and issues the next.
//! [`closed_loop`] runs that model — useful for the classic
//! response-time-versus-MPL view of a device, and for stress tests where
//! an open queue would grow without bound.

use crate::device::{ServiceBreakdown, StorageDevice};
use crate::event::BinaryHeapEventQueue;
use crate::request::{Completion, IoKind, Request};
use crate::sched::Scheduler;
use crate::stats::ResponseStats;
use crate::time::SimTime;

/// Produces each thinker's next request body and think time.
pub trait RequestSource {
    /// The next request body (LBN, sectors, kind) for `thinker`; called
    /// once per issue.
    fn request(&mut self, thinker: u32) -> (u64, u32, IoKind);

    /// Seconds `thinker` thinks after a completion before issuing again;
    /// called once per completion. Defaults to zero (saturating loop).
    fn think_time(&mut self, _thinker: u32) -> f64 {
        0.0
    }
}

/// Closures `FnMut(u32) -> (lbn, sectors, kind, think)` act as sources.
impl<F: FnMut(u32) -> (u64, u32, IoKind, f64)> RequestSource for F {
    fn request(&mut self, thinker: u32) -> (u64, u32, IoKind) {
        let (lbn, sectors, kind, _) = self(thinker);
        (lbn, sectors, kind)
    }

    fn think_time(&mut self, thinker: u32) -> f64 {
        // Closure sources bundle think time with the body; sample a fresh
        // tuple for it. Deterministic sources are unaffected; stochastic
        // ones draw an extra (independent) variate, which is fine.
        self(thinker).3
    }
}

/// Results of a closed-loop run.
#[derive(Debug, Clone)]
pub struct ClosedReport {
    /// Requests completed (excluding warm-up).
    pub completed: u64,
    /// Response-time statistics, seconds.
    pub response: ResponseStats,
    /// Completion time of the run.
    pub makespan: SimTime,
    /// Device throughput over the run, requests/second.
    pub throughput: f64,
}

enum Ev {
    Issue(u32),
    Complete(Completion),
}

/// Runs `thinkers` concurrent request loops against one device until
/// `total_requests` requests complete.
///
/// # Panics
///
/// Panics if `thinkers` or `total_requests` is zero.
///
/// # Examples
///
/// ```
/// use storage_sim::{closed_loop, ConstantDevice, FifoScheduler, IoKind};
///
/// // Four thinkers with no think time saturate a 1 ms device: ~1000 req/s.
/// let report = closed_loop(
///     4,
///     1000,
///     |_thinker| (0u64, 8u32, IoKind::Read, 0.0),
///     FifoScheduler::new(),
///     ConstantDevice::new(1000, 1e-3),
///     100,
/// );
/// assert!((report.throughput - 1000.0).abs() < 50.0);
/// ```
pub fn closed_loop<Src, S, D>(
    thinkers: u32,
    total_requests: u64,
    mut source: Src,
    mut scheduler: S,
    mut device: D,
    warmup: u64,
) -> ClosedReport
where
    Src: RequestSource,
    S: Scheduler,
    D: StorageDevice,
{
    assert!(thinkers > 0, "need at least one thinker");
    assert!(total_requests > 0, "need at least one request");
    let mut events = BinaryHeapEventQueue::new();
    for t in 0..thinkers {
        events.push(SimTime::ZERO, Ev::Issue(t));
    }
    let mut response = ResponseStats::new();
    let mut completed = 0u64;
    let mut issued = 0u64;
    let mut device_busy = false;
    let mut makespan = SimTime::ZERO;
    let mut next_id = 0u64;
    // Remember which thinker issued each request id.
    let mut owner: Vec<u32> = Vec::new();

    while let Some((now, event)) = events.pop() {
        match event {
            Ev::Issue(thinker) => {
                if issued >= total_requests {
                    continue; // population drains at the end of the run
                }
                issued += 1;
                let (lbn, sectors, kind) = source.request(thinker);
                let req = Request::new(next_id, now, lbn, sectors, kind);
                owner.push(thinker);
                next_id += 1;
                scheduler.enqueue(req);
                if !device_busy {
                    device_busy = start_next(&mut scheduler, &mut device, now, &mut events);
                }
            }
            Ev::Complete(completion) => {
                completed += 1;
                if completed > warmup {
                    response.push(completion.response_time().as_secs());
                }
                makespan = makespan.max(completion.completion);
                // The owning thinker thinks, then issues again.
                let thinker = owner[completion.request.id as usize];
                let think = source.think_time(thinker);
                events.push(now + SimTime::from_secs(think.max(0.0)), Ev::Issue(thinker));
                device_busy = start_next(&mut scheduler, &mut device, now, &mut events);
            }
        }
    }
    let span = makespan.as_secs();
    ClosedReport {
        completed: completed.saturating_sub(warmup),
        response,
        makespan,
        throughput: if span > 0.0 {
            completed as f64 / span
        } else {
            0.0
        },
    }
}

fn start_next<S: Scheduler, D: StorageDevice>(
    scheduler: &mut S,
    device: &mut D,
    now: SimTime,
    events: &mut BinaryHeapEventQueue<Ev>,
) -> bool {
    match scheduler.pick(device, now) {
        Some(req) => {
            let breakdown: ServiceBreakdown = device.service(&req, now);
            let completion = Completion {
                request: req,
                start_service: now,
                completion: now + breakdown.total_time(),
            };
            events.push(completion.completion, Ev::Complete(completion));
            true
        }
        None => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::ConstantDevice;
    use crate::sched::FifoScheduler;

    #[test]
    fn single_thinker_serializes() {
        // One thinker, zero think time, 1 ms service: throughput 1000/s
        // and response exactly 1 ms.
        let report = closed_loop(
            1,
            500,
            |_| (0u64, 1u32, IoKind::Read, 0.0),
            FifoScheduler::new(),
            ConstantDevice::new(100, 1e-3),
            0,
        );
        assert_eq!(report.completed, 500);
        assert!((report.response.mean_ms() - 1.0).abs() < 1e-9);
        assert!((report.throughput - 1000.0).abs() < 5.0);
    }

    #[test]
    fn response_grows_with_multiprogramming_level() {
        let run = |mpl: u32| {
            closed_loop(
                mpl,
                800,
                |_| (0u64, 1u32, IoKind::Read, 0.0),
                FifoScheduler::new(),
                ConstantDevice::new(100, 1e-3),
                50,
            )
            .response
            .mean_ms()
        };
        let r1 = run(1);
        let r8 = run(8);
        // With 8 outstanding against a serial device, each waits ~8x.
        assert!(r8 > 6.0 * r1, "mpl=8 response {r8} vs mpl=1 {r1}");
    }

    #[test]
    fn think_time_caps_throughput() {
        // One thinker alternating 1 ms service + 9 ms think: 100 req/s.
        let report = closed_loop(
            1,
            300,
            |_| (0u64, 1u32, IoKind::Read, 9e-3),
            FifoScheduler::new(),
            ConstantDevice::new(100, 1e-3),
            0,
        );
        assert!(
            (report.throughput - 100.0).abs() < 5.0,
            "throughput {}",
            report.throughput
        );
    }

    #[test]
    fn drains_cleanly_at_request_limit() {
        let report = closed_loop(
            16,
            100,
            |_| (0u64, 1u32, IoKind::Read, 0.0),
            FifoScheduler::new(),
            ConstantDevice::new(100, 1e-3),
            0,
        );
        assert_eq!(report.completed, 100);
    }

    #[test]
    #[should_panic(expected = "thinker")]
    fn zero_thinkers_rejected() {
        let _ = closed_loop(
            0,
            10,
            |_| (0u64, 1u32, IoKind::Read, 0.0),
            FifoScheduler::new(),
            ConstantDevice::new(100, 1e-3),
            0,
        );
    }
}
