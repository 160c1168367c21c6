//! Workload sources.
//!
//! A [`Workload`] streams requests with non-decreasing arrival times into
//! the driver (an *open* arrival process, as in the paper's experiments).
//! Generators for the paper's workloads — the *random* workload (§3) and
//! the Cello-like / TPC-C-like trace replays (§4.3) — live in the
//! `storage-trace` crate; this module defines the trait and a
//! vector-backed source for explicit request lists.

use crate::request::Request;

/// An ordered stream of requests (an open arrival process).
///
/// Implementations must yield requests with non-decreasing arrival times;
/// the driver asserts this invariant.
pub trait Workload {
    /// Returns the next request, or `None` when the workload is exhausted.
    fn next_request(&mut self) -> Option<Request>;

    /// Number of requests still to come, if the source knows it. The
    /// streaming fleet engine needs an exact count to size its foreground
    /// id block; the driver never reads it. `None` (the default) means
    /// unknown.
    fn len_hint(&self) -> Option<u64> {
        None
    }
}

/// A workload backed by a pre-generated vector of requests.
///
/// # Examples
///
/// ```
/// use storage_sim::{IoKind, Request, SimTime, VecWorkload, Workload};
///
/// let mut w = VecWorkload::new(vec![
///     Request::new(0, SimTime::ZERO, 0, 1, IoKind::Read),
/// ]);
/// assert!(w.next_request().is_some());
/// assert!(w.next_request().is_none());
/// ```
#[derive(Debug, Clone)]
pub struct VecWorkload {
    requests: std::vec::IntoIter<Request>,
}

impl VecWorkload {
    /// Creates a workload from `requests`.
    ///
    /// # Panics
    ///
    /// Panics if arrival times are not non-decreasing.
    pub fn new(requests: Vec<Request>) -> Self {
        for pair in requests.windows(2) {
            assert!(
                pair[0].arrival <= pair[1].arrival,
                "VecWorkload requires non-decreasing arrival times"
            );
        }
        VecWorkload {
            requests: requests.into_iter(),
        }
    }
}

impl Workload for VecWorkload {
    fn next_request(&mut self) -> Option<Request> {
        self.requests.next()
    }

    fn len_hint(&self) -> Option<u64> {
        Some(self.requests.len() as u64)
    }
}

/// A boxed workload is a workload, so a source chosen at run time
/// (`Box<dyn Workload>`) drives the same generic `Driver`.
impl<W: Workload + ?Sized> Workload for Box<W> {
    fn next_request(&mut self) -> Option<Request> {
        (**self).next_request()
    }

    fn len_hint(&self) -> Option<u64> {
        (**self).len_hint()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::IoKind;
    use crate::time::SimTime;

    #[test]
    fn vec_workload_streams_in_order() {
        let reqs: Vec<Request> = (0..5)
            .map(|i| Request::new(i, SimTime::from_ms(i as f64), i * 10, 1, IoKind::Read))
            .collect();
        let mut w = VecWorkload::new(reqs);
        for i in 0..5 {
            assert_eq!(w.next_request().unwrap().id, i);
        }
        assert!(w.next_request().is_none());
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn vec_workload_rejects_unsorted() {
        let _ = VecWorkload::new(vec![
            Request::new(0, SimTime::from_ms(2.0), 0, 1, IoKind::Read),
            Request::new(1, SimTime::from_ms(1.0), 0, 1, IoKind::Read),
        ]);
    }

    #[test]
    fn boxed_workload_forwards_both_methods() {
        let reqs: Vec<Request> = (0..3)
            .map(|i| Request::new(i, SimTime::from_ms(i as f64), 0, 1, IoKind::Read))
            .collect();
        let mut w: Box<dyn Workload> = Box::new(VecWorkload::new(reqs));
        assert_eq!(w.len_hint(), Some(3));
        assert_eq!(w.next_request().unwrap().id, 0);
        assert_eq!(w.len_hint(), Some(2));
    }
}
