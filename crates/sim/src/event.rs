//! A stable priority queue of timed events for the closed loop.
//!
//! The queue orders events by simulation time, breaking ties by insertion
//! order (FIFO). Stability matters: simultaneous events would otherwise make
//! runs depend on queue internals rather than on the workload seed. The
//! open-loop driver keeps at most one event per chain and does not need a
//! queue; its three-slot store pops in this same `(time, seq)` order, which
//! its tests check against this queue.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

#[derive(Debug)]
struct HeapEntry<T> {
    at: SimTime,
    seq: u64,
    payload: T,
}

impl<T> PartialEq for HeapEntry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}

impl<T> Eq for HeapEntry<T> {}

impl<T> PartialOrd for HeapEntry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for HeapEntry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, seq) wins.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A binary-heap min-queue of timestamped events with FIFO tie-breaking.
#[derive(Debug)]
pub(crate) struct BinaryHeapEventQueue<T> {
    heap: BinaryHeap<HeapEntry<T>>,
    seq: u64,
}

impl<T> BinaryHeapEventQueue<T> {
    /// Creates an empty queue.
    pub(crate) fn new() -> Self {
        BinaryHeapEventQueue {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }

    /// Schedules `payload` to fire at `at`.
    pub(crate) fn push(&mut self, at: SimTime, payload: T) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(HeapEntry { at, seq, payload });
    }

    /// Removes and returns the earliest event, if any.
    pub(crate) fn pop(&mut self) -> Option<(SimTime, T)> {
        self.heap.pop().map(|e| (e.at, e.payload))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn drain<T>(q: &mut BinaryHeapEventQueue<T>) -> Vec<T> {
        std::iter::from_fn(|| q.pop().map(|(_, payload)| payload)).collect()
    }

    proptest! {
        /// The queue dequeues in exactly sorted-stable order.
        #[test]
        fn event_queue_matches_stable_sort(times in prop::collection::vec(0u32..1000, 0..200)) {
            let mut q = BinaryHeapEventQueue::new();
            for (i, &t) in times.iter().enumerate() {
                q.push(SimTime::from_us(f64::from(t)), i);
            }
            let mut expected: Vec<usize> = (0..times.len()).collect();
            expected.sort_by_key(|&i| times[i]);
            prop_assert_eq!(drain(&mut q), expected);
        }
    }

    #[test]
    fn orders_by_time() {
        let mut q = BinaryHeapEventQueue::new();
        q.push(SimTime::from_ms(3.0), 3);
        q.push(SimTime::from_ms(1.0), 1);
        q.push(SimTime::from_ms(2.0), 2);
        assert_eq!(drain(&mut q), vec![1, 2, 3]);
    }

    #[test]
    fn heap_queue_keeps_fifo_ties() {
        let mut q = BinaryHeapEventQueue::new();
        for i in 0..100 {
            q.push(SimTime::from_ms(1.0), i);
        }
        assert_eq!(drain(&mut q), (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        let mut q = BinaryHeapEventQueue::new();
        q.push(SimTime::from_ms(5.0), 5);
        q.push(SimTime::from_ms(1.0), 1);
        assert_eq!(q.pop(), Some((SimTime::from_ms(1.0), 1)));
        q.push(SimTime::from_ms(2.0), 2);
        q.push(SimTime::from_ms(7.0), 7);
        assert_eq!(drain(&mut q), vec![2, 5, 7]);
    }
}
