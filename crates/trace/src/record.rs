//! Trace records: a plain-text format, a streaming reader, and replay
//! with arrival-rate scaling.
//!
//! The format is one request per line, whitespace-separated:
//!
//! ```text
//! # arrival_seconds  lbn  sectors  R|W
//! 0.001250 123456 8 R
//! 0.001980 8192 16 W
//! ```
//!
//! [`TraceReader`] streams a file of this format line by line and rejects
//! any record a device could not replay, with a typed [`TraceError`] that
//! names the line. Replay follows the paper's §4.3 methodology for driving
//! faster devices with old traces: a *scale factor* divides the traced
//! interarrival times (scale 2 doubles the average arrival rate).

use std::fmt;
use std::fmt::Write as _;
use std::io::BufRead;
use std::str::FromStr;

use storage_sim::{IoKind, Request, SimTime, Workload};

/// One traced request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceRecord {
    /// Arrival time in seconds from trace start.
    pub arrival: f64,
    /// Start LBN.
    pub lbn: u64,
    /// Sectors transferred.
    pub sectors: u32,
    /// Read or write.
    pub kind: IoKind,
}

impl TraceRecord {
    /// Formats the record as one trace line (no newline).
    pub fn to_line(&self) -> String {
        let mut s = String::new();
        let k = if self.kind.is_read() { 'R' } else { 'W' };
        write!(s, "{:.6} {} {} {}", self.arrival, self.lbn, self.sectors, k)
            .expect("writing to String cannot fail");
        s
    }
}

/// What is wrong with a trace line.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceErrorKind {
    /// The line could not be read (an I/O error or invalid UTF-8).
    Read(String),
    /// The line ends before the named field.
    Missing(&'static str),
    /// The named field does not parse; carries the field's text.
    Malformed(&'static str, String),
    /// More than four fields.
    TrailingFields,
    /// A request of zero sectors.
    ZeroSectors,
    /// An arrival time that is negative or not finite.
    BadArrival(f64),
    /// An arrival time earlier than the previous record's.
    Decreasing {
        /// The previous record's arrival, seconds.
        previous: f64,
        /// This record's arrival, seconds.
        arrival: f64,
    },
    /// `lbn + sectors` runs past the device capacity.
    BeyondCapacity {
        /// Start LBN.
        lbn: u64,
        /// Sectors requested.
        sectors: u32,
        /// Device capacity, sectors.
        capacity: u64,
    },
}

impl fmt::Display for TraceErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceErrorKind::Read(e) => write!(f, "cannot read line: {e}"),
            TraceErrorKind::Missing(field) => write!(f, "missing {field}"),
            TraceErrorKind::Malformed(field, text) => write!(f, "bad {field}: {text:?}"),
            TraceErrorKind::TrailingFields => write!(f, "trailing fields"),
            TraceErrorKind::ZeroSectors => write!(f, "zero-sector request"),
            TraceErrorKind::BadArrival(t) => {
                write!(f, "arrival time {t} must be finite and non-negative")
            }
            TraceErrorKind::Decreasing { previous, arrival } => write!(
                f,
                "arrival time {arrival} is earlier than the previous record's {previous}"
            ),
            TraceErrorKind::BeyondCapacity {
                lbn,
                sectors,
                capacity,
            } => write!(
                f,
                "lbn {lbn} + {sectors} sectors runs past the device capacity of {capacity} sectors"
            ),
        }
    }
}

/// A rejected trace line: its 1-based line number and what is wrong.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceError {
    /// Line number in the trace text, counting from 1.
    pub line: u64,
    /// What is wrong with the line.
    pub kind: TraceErrorKind,
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.kind)
    }
}

impl std::error::Error for TraceError {}

impl FromStr for TraceRecord {
    type Err = TraceErrorKind;

    fn from_str(line: &str) -> Result<Self, Self::Err> {
        fn field<T: FromStr>(part: Option<&str>, name: &'static str) -> Result<T, TraceErrorKind> {
            let text = part.ok_or(TraceErrorKind::Missing(name))?;
            text.parse()
                .map_err(|_| TraceErrorKind::Malformed(name, text.to_string()))
        }
        let mut parts = line.split_whitespace();
        let arrival: f64 = field(parts.next(), "arrival time")?;
        let lbn: u64 = field(parts.next(), "lbn")?;
        let sectors: u32 = field(parts.next(), "sector count")?;
        let kind = match parts.next().ok_or(TraceErrorKind::Missing("R|W flag"))? {
            "R" | "r" => IoKind::Read,
            "W" | "w" => IoKind::Write,
            other => return Err(TraceErrorKind::Malformed("R|W flag", other.to_string())),
        };
        if parts.next().is_some() {
            return Err(TraceErrorKind::TrailingFields);
        }
        if sectors == 0 {
            return Err(TraceErrorKind::ZeroSectors);
        }
        if !arrival.is_finite() || arrival < 0.0 {
            return Err(TraceErrorKind::BadArrival(arrival));
        }
        Ok(TraceRecord {
            arrival,
            lbn,
            sectors,
            kind,
        })
    }
}

/// Streams the records of a trace text for a device of `capacity`
/// sectors, one line at a time, in constant memory.
///
/// `#` comments and blank lines are skipped. Every record is checked
/// before it is yielded: it must parse, arrive no earlier than the
/// record before it, and end within the capacity. The first bad line
/// yields its [`TraceError`] and ends the stream. Feed the records to
/// [`Replay`] to drive a simulation.
///
/// # Examples
///
/// ```
/// use storage_trace::{TraceErrorKind, TraceReader};
///
/// let text = "0.0 100 8 R\n0.5 200 16 W\n0.25 300 8 R\n";
/// let mut reader = TraceReader::new(text.as_bytes(), 1_000);
/// assert_eq!(reader.next().unwrap().unwrap().lbn, 100);
/// assert_eq!(reader.next().unwrap().unwrap().sectors, 16);
/// let err = reader.next().unwrap().unwrap_err();
/// assert_eq!(err.line, 3);
/// assert!(matches!(err.kind, TraceErrorKind::Decreasing { .. }));
/// assert!(reader.next().is_none());
/// ```
#[derive(Debug)]
pub struct TraceReader<R> {
    reader: R,
    capacity: u64,
    buf: String,
    line: u64,
    last_arrival: f64,
    failed: bool,
}

impl<R: BufRead> TraceReader<R> {
    /// Creates a reader over `reader` for a device of `capacity` sectors.
    pub fn new(reader: R, capacity: u64) -> Self {
        TraceReader {
            reader,
            capacity,
            buf: String::new(),
            line: 0,
            last_arrival: 0.0,
            failed: false,
        }
    }

    /// Parses and checks the line in `buf`; `None` for a blank or comment
    /// line.
    fn record(&self) -> Result<Option<TraceRecord>, TraceErrorKind> {
        let text = self.buf.trim();
        if text.is_empty() || text.starts_with('#') {
            return Ok(None);
        }
        let rec: TraceRecord = text.parse()?;
        if rec.arrival < self.last_arrival {
            return Err(TraceErrorKind::Decreasing {
                previous: self.last_arrival,
                arrival: rec.arrival,
            });
        }
        let end = rec.lbn.checked_add(u64::from(rec.sectors));
        if end.is_none_or(|end| end > self.capacity) {
            return Err(TraceErrorKind::BeyondCapacity {
                lbn: rec.lbn,
                sectors: rec.sectors,
                capacity: self.capacity,
            });
        }
        Ok(Some(rec))
    }
}

impl<R: BufRead> Iterator for TraceReader<R> {
    type Item = Result<TraceRecord, TraceError>;

    fn next(&mut self) -> Option<Self::Item> {
        while !self.failed {
            self.buf.clear();
            self.line += 1;
            let checked = match self.reader.read_line(&mut self.buf) {
                Ok(0) => return None,
                Ok(_) => self.record(),
                Err(e) => Err(TraceErrorKind::Read(e.to_string())),
            };
            match checked {
                Ok(None) => {}
                Ok(Some(rec)) => {
                    self.last_arrival = rec.arrival;
                    return Some(Ok(rec));
                }
                Err(kind) => {
                    self.failed = true;
                    return Some(Err(TraceError {
                        line: self.line,
                        kind,
                    }));
                }
            }
        }
        None
    }
}

/// Parses a whole trace for a device of `capacity` sectors: a collect
/// over [`TraceReader`], so it rejects what the reader rejects.
///
/// # Examples
///
/// ```
/// use storage_trace::parse_trace;
///
/// let text = "# demo\n0.0 100 8 R\n0.5 200 16 W\n";
/// let records = parse_trace(text, 1_000).unwrap();
/// assert_eq!(records.len(), 2);
/// assert_eq!(records[1].sectors, 16);
/// assert_eq!(parse_trace(text, 200).unwrap_err().line, 3);
/// ```
pub fn parse_trace(text: &str, capacity: u64) -> Result<Vec<TraceRecord>, TraceError> {
    TraceReader::new(text.as_bytes(), capacity).collect()
}

/// Serializes records to the text format.
pub fn format_trace(records: &[TraceRecord]) -> String {
    let mut out = String::from("# arrival_seconds lbn sectors R|W\n");
    for r in records {
        out.push_str(&r.to_line());
        out.push('\n');
    }
    out
}

/// Replays a stream of [`TraceRecord`]s as a workload, dividing
/// interarrival times by `scale` (§4.3: scale 1 = as traced, scale 2 =
/// twice the arrival rate). Requests get dense ids from 0.
///
/// The source is any record iterator: a `Vec`, a generator
/// ([`crate::CelloTrace`], [`crate::TpccTrace`],
/// [`crate::StreamingTrace`]), or a [`TraceReader`] over a file. Nothing
/// is materialized. `len_hint` is exact when the source's `size_hint`
/// is (a `Vec` or a generator), so such a replay can feed a streaming
/// fleet; a file reader's length is unknown.
///
/// # Examples
///
/// ```
/// use storage_sim::Workload;
/// use storage_trace::{CelloParams, CelloTrace, Replay};
///
/// let source = CelloTrace::new(&CelloParams::default(), 7);
/// let mut workload = Replay::new(source, 2.0);
/// assert_eq!(workload.len_hint(), Some(10_000));
/// assert_eq!(workload.next_request().unwrap().id, 0);
/// ```
#[derive(Debug)]
pub struct Replay<I> {
    records: I,
    scale: f64,
    next_id: u64,
    last_arrival: f64,
}

impl<I: Iterator<Item = TraceRecord>> Replay<I> {
    /// Creates a replay of `records` at the given scale factor.
    /// Arrival-time ordering is asserted as records stream through.
    ///
    /// # Panics
    ///
    /// Panics if `scale` is not positive.
    pub fn new(records: impl IntoIterator<IntoIter = I>, scale: f64) -> Self {
        assert!(scale > 0.0, "scale factor must be positive");
        Replay {
            records: records.into_iter(),
            scale,
            next_id: 0,
            last_arrival: 0.0,
        }
    }
}

impl<I: Iterator<Item = TraceRecord>> Workload for Replay<I> {
    fn next_request(&mut self) -> Option<Request> {
        let rec = self.records.next()?;
        assert!(
            rec.arrival >= self.last_arrival,
            "trace must be sorted by arrival time"
        );
        self.last_arrival = rec.arrival;
        let req = Request::new(
            self.next_id,
            SimTime::from_secs(rec.arrival / self.scale),
            rec.lbn,
            rec.sectors,
            rec.kind,
        );
        self.next_id += 1;
        Some(req)
    }

    fn len_hint(&self) -> Option<u64> {
        match self.records.size_hint() {
            (lo, Some(hi)) if lo == hi => Some(lo as u64),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(arrival: f64, lbn: u64, sectors: u32, kind: IoKind) -> TraceRecord {
        TraceRecord {
            arrival,
            lbn,
            sectors,
            kind,
        }
    }

    /// The line number and kind of the error `text` stops at.
    fn error(text: &str, capacity: u64) -> (u64, TraceErrorKind) {
        let e = parse_trace(text, capacity).unwrap_err();
        (e.line, e.kind)
    }

    #[test]
    fn record_round_trips_through_text() {
        let r = rec(1.25, 424242, 7, IoKind::Write);
        let parsed: TraceRecord = r.to_line().parse().unwrap();
        assert_eq!(parsed, r);
    }

    #[test]
    fn trace_round_trips_through_text() {
        let records = vec![
            rec(0.0, 1, 8, IoKind::Read),
            rec(0.5, 100, 2, IoKind::Write),
        ];
        let text = format_trace(&records);
        assert_eq!(parse_trace(&text, 1_000).unwrap(), records);
    }

    #[test]
    fn parser_rejects_malformed_lines() {
        assert!(parse_trace("nonsense", 100).is_err());
        assert!(parse_trace("0.0 1 8", 100).is_err());
        assert!(parse_trace("0.0 1 8 X", 100).is_err());
        assert!(parse_trace("0.0 1 0 R", 100).is_err());
        assert!(parse_trace("-1.0 1 8 R", 100).is_err());
        assert!(parse_trace("0.0 1 8 R extra", 100).is_err());
    }

    #[test]
    fn parser_skips_comments_and_blanks() {
        let text = "\n# header\n\n0.0 5 8 R\n  \n";
        assert_eq!(parse_trace(text, 100).unwrap().len(), 1);
    }

    #[test]
    fn missing_field_names_the_field_and_line() {
        assert_eq!(
            error("0.0 1 8 R\n# note\n0.1 1 8\n", 100),
            (3, TraceErrorKind::Missing("R|W flag"))
        );
        assert_eq!(error("0.0\n", 100), (1, TraceErrorKind::Missing("lbn")));
    }

    #[test]
    fn malformed_field_quotes_its_text() {
        assert_eq!(
            error("0.0 1 8 R\n0.1 x1 8 R\n", 100),
            (2, TraceErrorKind::Malformed("lbn", "x1".into()))
        );
        assert_eq!(
            error("0.0 1 8 Q\n", 100),
            (1, TraceErrorKind::Malformed("R|W flag", "Q".into()))
        );
    }

    #[test]
    fn trailing_fields_are_rejected() {
        assert_eq!(
            error("\n0.0 1 8 R extra\n", 100),
            (2, TraceErrorKind::TrailingFields)
        );
    }

    #[test]
    fn zero_sector_request_is_rejected() {
        assert_eq!(error("0.0 1 0 W\n", 100), (1, TraceErrorKind::ZeroSectors));
    }

    #[test]
    fn negative_or_infinite_arrival_is_rejected() {
        assert_eq!(
            error("0.0 1 8 R\n-1.0 1 8 R\n", 100),
            (2, TraceErrorKind::BadArrival(-1.0))
        );
        assert_eq!(
            error("inf 1 8 R\n", 100),
            (1, TraceErrorKind::BadArrival(f64::INFINITY))
        );
    }

    #[test]
    fn decreasing_arrival_is_rejected() {
        assert_eq!(
            error("0.1 1 8 R\n0.5 1 8 R\n0.2 1 8 R\n", 100),
            (
                3,
                TraceErrorKind::Decreasing {
                    previous: 0.5,
                    arrival: 0.2
                }
            )
        );
    }

    #[test]
    fn record_past_capacity_is_rejected() {
        // Ends exactly at the capacity: accepted.
        assert_eq!(parse_trace("0.0 92 8 R\n", 100).unwrap().len(), 1);
        assert_eq!(
            error("0.0 92 8 R\n0.1 93 8 R\n", 100),
            (
                2,
                TraceErrorKind::BeyondCapacity {
                    lbn: 93,
                    sectors: 8,
                    capacity: 100
                }
            )
        );
        // An end that overflows u64 is past any capacity.
        let text = format!("0.0 {} 8 R\n", u64::MAX);
        assert!(matches!(
            error(&text, u64::MAX),
            (1, TraceErrorKind::BeyondCapacity { .. })
        ));
    }

    #[test]
    fn unreadable_line_is_rejected() {
        let bytes: &[u8] = b"0.0 1 8 R\n0.1 \xff 8 R\n";
        let e = TraceReader::new(bytes, 100)
            .find_map(Result::err)
            .expect("invalid UTF-8 is an error");
        assert_eq!(e.line, 2);
        assert!(matches!(e.kind, TraceErrorKind::Read(_)), "{e}");
    }

    #[test]
    fn reader_stops_after_the_first_error() {
        let text = "0.0 1 8 R\nbad\n0.2 1 8 R\n";
        let items: Vec<_> = TraceReader::new(text.as_bytes(), 100).collect();
        assert_eq!(items.len(), 2);
        assert!(items[0].is_ok());
        assert_eq!(items[1].as_ref().unwrap_err().line, 2);
    }

    #[test]
    fn error_display_leads_with_the_line() {
        let e = parse_trace("0.0 1 8 R\n0.1 1 0 R\n", 100).unwrap_err();
        assert_eq!(e.to_string(), "line 2: zero-sector request");
    }

    #[test]
    fn reader_feeds_replay() {
        let text = "0.0 1 8 R\n1.0 9 8 W\n";
        let mut w = Replay::new(
            TraceReader::new(text.as_bytes(), 100).map(|r| r.expect("valid trace")),
            2.0,
        );
        assert_eq!(w.len_hint(), None, "a file's length is unknown");
        assert_eq!(w.next_request().unwrap().arrival, SimTime::ZERO);
        let second = w.next_request().unwrap();
        assert_eq!((second.id, second.lbn), (1, 9));
        assert_eq!(second.arrival, SimTime::from_secs(0.5));
        assert!(w.next_request().is_none());
    }

    #[test]
    fn scaling_divides_arrival_times() {
        let records = vec![rec(0.0, 0, 1, IoKind::Read), rec(2.0, 0, 1, IoKind::Read)];
        let mut w = Replay::new(records, 2.0);
        assert_eq!(w.len_hint(), Some(2));
        assert_eq!(w.next_request().unwrap().arrival, SimTime::ZERO);
        assert_eq!(w.next_request().unwrap().arrival, SimTime::from_secs(1.0));
        assert!(w.next_request().is_none());
    }

    #[test]
    #[should_panic(expected = "sorted")]
    fn unsorted_trace_rejected() {
        let records = vec![rec(2.0, 0, 1, IoKind::Read), rec(1.0, 0, 1, IoKind::Read)];
        let mut w = Replay::new(records, 1.0);
        while w.next_request().is_some() {}
    }
}
