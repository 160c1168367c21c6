//! Media-server-like streaming trace generator.
//!
//! The workload class the paper's bipartite layout (§5.3) serves on its
//! "large" side: several concurrent sequential streams (video/audio
//! delivery, backup, scientific scans) each issuing large reads at a
//! steady consumption rate, plus a trickle of small metadata accesses.
//! Useful for exercising layouts, readahead, and striped arrays under
//! bandwidth-bound conditions.

use rand::rngs::SmallRng;
use storage_sim::rng;
use storage_sim::IoKind;

use crate::record::TraceRecord;

/// Parameters of the streaming generator.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamingParams {
    /// Device capacity in sectors.
    pub capacity: u64,
    /// Number of requests to generate.
    pub requests: u64,
    /// Number of concurrent streams.
    pub streams: u32,
    /// Sectors per streaming read (e.g. 512 = 256 KB).
    pub chunk_sectors: u32,
    /// Per-stream consumption rate in chunks/second (a 4 Mbit/s video
    /// stream consuming 256 KB chunks reads ~2 chunks/s).
    pub chunks_per_second: f64,
    /// Fraction of requests that are small metadata accesses.
    pub metadata_fraction: f64,
}

impl Default for StreamingParams {
    fn default() -> Self {
        StreamingParams {
            capacity: 6_750_000,
            requests: 10_000,
            streams: 8,
            chunk_sectors: 512,
            chunks_per_second: 2.0,
            metadata_fraction: 0.1,
        }
    }
}

/// ~50 MB files at 256 KB chunks.
const FILE_CHUNKS: u64 = 200;

/// Constant-memory media-server trace: an iterator of [`TraceRecord`]s,
/// sorted by arrival time and a pure function of `(params, seed)`.
///
/// Each stream starts at a random extent and reads forward; when it
/// reaches the end of its extent it seeks to a new random location (a
/// new file). Streams progress concurrently, so the interleaved request
/// sequence alternates between them — the pattern that defeats naive
/// single-stream readahead but rewards per-stream detection.
///
/// State is O(streams): each pull scans for the stream with the earliest
/// deadline, and the optional metadata record that precedes a chunk is
/// held in a one-record pending slot. Deadlines only move forward, so
/// the records come out sorted. The request budget cuts the stream off
/// after exactly `params.requests` records, and `size_hint` is exact.
/// Replay it with [`crate::Replay`].
///
/// # Examples
///
/// ```
/// use storage_sim::Workload;
/// use storage_trace::{Replay, StreamingParams, StreamingTrace};
///
/// let trace = StreamingTrace::new(&StreamingParams::default(), 3);
/// assert_eq!(trace.len(), 10_000);
/// // Dominated by large sequential chunks.
/// assert!(trace.clone().filter(|r| r.sectors == 512).count() > 8_000);
/// let mut w = Replay::new(trace, 1.0);
/// assert_eq!(w.len_hint(), Some(10_000));
/// assert!(w.next_request().is_some());
/// ```
#[derive(Debug, Clone)]
pub struct StreamingTrace {
    params: StreamingParams,
    rng: SmallRng,
    /// Per-stream state: (next arrival time, current position, chunks
    /// left in the current file).
    streams: Vec<(f64, u64, u64)>,
    /// Chunk record deferred behind a same-arrival metadata record.
    pending: Option<TraceRecord>,
    remaining: u64,
}

impl StreamingTrace {
    /// Creates the generator; the initial per-stream positions are drawn
    /// eagerly so the stream is a pure function of `(params, seed)`.
    ///
    /// # Panics
    ///
    /// Panics on zero streams/requests, a non-positive consumption rate,
    /// a metadata fraction outside `[0, 1)`, or a device smaller than 100
    /// chunks.
    pub fn new(params: &StreamingParams, seed: u64) -> Self {
        assert!(params.streams > 0 && params.requests > 0);
        assert!(params.chunks_per_second > 0.0);
        assert!((0.0..1.0).contains(&params.metadata_fraction));
        let chunk = u64::from(params.chunk_sectors);
        assert!(
            params.capacity > chunk * 100,
            "device too small for streaming"
        );
        let mut r = rng::seeded(seed);
        let streams: Vec<(f64, u64, u64)> = (0..params.streams)
            .map(|i| {
                let pos = rng::uniform_u64(&mut r, params.capacity - chunk * FILE_CHUNKS);
                (
                    f64::from(i) / (params.chunks_per_second * f64::from(params.streams)),
                    pos,
                    FILE_CHUNKS,
                )
            })
            .collect();
        StreamingTrace {
            params: params.clone(),
            rng: r,
            streams,
            pending: None,
            remaining: params.requests,
        }
    }
}

impl Iterator for StreamingTrace {
    type Item = TraceRecord;

    fn next(&mut self) -> Option<TraceRecord> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        if let Some(rec) = self.pending.take() {
            return Some(rec);
        }
        let params = &self.params;
        let r = &mut self.rng;
        let chunk = u64::from(params.chunk_sectors);
        // The next event is the stream with the earliest deadline.
        let (idx, _) = self
            .streams
            .iter()
            .enumerate()
            .min_by(|a, b| a.1 .0.partial_cmp(&b.1 .0).expect("times are finite"))
            .expect("streams is non-empty");
        let (t, pos, left) = self.streams[idx];
        let metadata = if rng::bernoulli(r, params.metadata_fraction) {
            // Metadata access near the front of the device.
            let lbn = rng::uniform_u64(r, params.capacity / 100);
            Some(TraceRecord {
                arrival: t,
                lbn,
                sectors: 8,
                kind: IoKind::Read,
            })
        } else {
            None
        };
        let chunk_rec = TraceRecord {
            arrival: t,
            lbn: pos,
            sectors: params.chunk_sectors,
            kind: IoKind::Read,
        };
        // Advance the stream.
        let (new_pos, new_left) = if left > 1 {
            (pos + chunk, left - 1)
        } else {
            (
                rng::uniform_u64(r, params.capacity - chunk * FILE_CHUNKS),
                FILE_CHUNKS,
            )
        };
        // Slight jitter around the consumption period.
        let period = 1.0 / params.chunks_per_second;
        let jitter = rng::exponential(r, period * 0.05);
        self.streams[idx] = (t + period + jitter - period * 0.05, new_pos, new_left);
        match metadata {
            Some(meta) => {
                // Metadata precedes the chunk at the same arrival; the
                // chunk waits in the pending slot (and is dropped if the
                // request budget runs out first).
                self.pending = Some(chunk_rec);
                Some(meta)
            }
            None => Some(chunk_rec),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.remaining as usize;
        (n, Some(n))
    }
}

impl ExactSizeIterator for StreamingTrace {}

#[cfg(test)]
mod tests {
    use super::*;

    fn generate(params: &StreamingParams, seed: u64) -> Vec<TraceRecord> {
        StreamingTrace::new(params, seed).collect()
    }

    fn trace() -> Vec<TraceRecord> {
        generate(&StreamingParams::default(), 1)
    }

    #[test]
    fn arrivals_are_sorted() {
        let t = trace();
        assert!(t.windows(2).all(|p| p[0].arrival <= p[1].arrival));
        assert_eq!(t.len(), 10_000);
    }

    #[test]
    fn streams_are_individually_sequential() {
        // Group chunk reads by stream (recoverable by position chains):
        // each chunk should usually be followed eventually by pos+512.
        let t = trace();
        let chunks: Vec<&TraceRecord> = t.iter().filter(|r| r.sectors == 512).collect();
        let continuations = chunks
            .iter()
            .filter(|c| {
                chunks
                    .iter()
                    .any(|d| d.lbn == c.lbn + 512 && d.arrival > c.arrival)
            })
            .count();
        assert!(
            continuations as f64 / chunks.len() as f64 > 0.8,
            "most chunks should have a sequential continuation"
        );
    }

    #[test]
    fn mix_is_mostly_large_reads() {
        let t = trace();
        let large = t.iter().filter(|r| r.sectors == 512).count();
        assert!(large as f64 / t.len() as f64 > 0.85);
        assert!(t.iter().all(|r| r.kind == IoKind::Read));
    }

    #[test]
    fn aggregate_rate_matches_streams_times_consumption() {
        let p = StreamingParams::default();
        let t = generate(&p, 2);
        let chunks: Vec<&TraceRecord> = t.iter().filter(|r| r.sectors == 512).collect();
        let span = chunks.last().unwrap().arrival - chunks[0].arrival;
        let rate = (chunks.len() - 1) as f64 / span;
        let expected = f64::from(p.streams) * p.chunks_per_second;
        assert!(
            (rate - expected).abs() / expected < 0.1,
            "rate {rate} vs expected {expected}"
        );
    }

    #[test]
    fn requests_stay_in_bounds() {
        let p = StreamingParams::default();
        for r in generate(&p, 3) {
            assert!(r.lbn + u64::from(r.sectors) <= p.capacity);
        }
    }

    #[test]
    fn deterministic_per_seed() {
        assert_eq!(
            generate(&StreamingParams::default(), 7),
            generate(&StreamingParams::default(), 7)
        );
    }

    #[test]
    fn streaming_workload_matches_materialized_replay() {
        // Replaying the live stream must equal replaying its collected
        // records, request for request, with an exact length hint at
        // every step (a streaming fleet sizes its id block from it).
        use crate::Replay;
        use storage_sim::Workload;
        let p = StreamingParams::default();
        for seed in [1u64, 3, 0x57E4] {
            let mut streamed = Replay::new(StreamingTrace::new(&p, seed), 1.0);
            let records: Vec<TraceRecord> = StreamingTrace::new(&p, seed).collect();
            let mut materialized = Replay::new(records, 1.0);
            loop {
                assert_eq!(streamed.len_hint(), materialized.len_hint(), "seed {seed}");
                let want = materialized.next_request();
                assert_eq!(streamed.next_request(), want, "seed {seed}");
                if want.is_none() {
                    break;
                }
            }
        }
    }
}
