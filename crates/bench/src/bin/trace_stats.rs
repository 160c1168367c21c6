//! `trace_stats` — characterize a workload.
//!
//! With no arguments, prints the summaries of the three built-in
//! workloads (random / Cello-like / TPC-C-like) side by side, against
//! the published characteristics each generator was calibrated to.
//! With a file argument, streams the trace-format file through
//! [`TraceReader`] and summarizes it. A record that does not parse,
//! arrives before its predecessor, or runs past `--capacity` stops the
//! run with `line N: …` and exit status 1.
//!
//! Every summary is computed with [`TraceSummary::from_stream`] in one
//! pass over the record stream — no `Vec<TraceRecord>` is ever built, so
//! `--requests 10000000` (or a file of any length) is characterized in
//! constant memory.
//!
//! ```text
//! trace_stats [FILE] [--capacity SECTORS] [--requests N]
//! ```
//!
//! Both flags take positive integers, and without a FILE the capacity
//! must exceed [`MIN_GENERATOR_CAPACITY`]. A bad value prints the flag
//! and the usage text and exits with status 2.

use std::fs::File;
use std::io::BufReader;

use mems_device::MemsParams;
use storage_sim::Workload;
use storage_trace::{
    CelloParams, CelloTrace, RandomWorkload, TpccParams, TpccTrace, TraceError, TraceReader,
    TraceRecord, TraceSummary,
};

/// Adapts any [`Workload`] into the record stream
/// [`TraceSummary::from_stream`] consumes, one request at a time.
struct RecordStream<W>(W);

impl<W: Workload> Iterator for RecordStream<W> {
    type Item = TraceRecord;

    fn next(&mut self) -> Option<TraceRecord> {
        self.0.next_request().map(|r| TraceRecord {
            arrival: r.arrival.as_secs(),
            lbn: r.lbn,
            sectors: r.sectors,
            kind: r.kind,
        })
    }
}

/// Summarizes the trace file at `path` in one streaming pass; the error
/// is the message to print.
fn summarize_file(path: &str, capacity: u64) -> Result<TraceSummary, String> {
    let file = File::open(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let bad = |e: TraceError| format!("cannot parse {path}: {e}");
    let mut records = TraceReader::new(BufReader::new(file), capacity);
    let first = match records.next() {
        None => return Err(format!("{path} holds no records")),
        Some(first) => first.map_err(bad)?,
    };
    let mut error = None;
    let rest = records.map_while(|r| r.map_err(|e| error = Some(e)).ok());
    let summary = TraceSummary::from_stream(std::iter::once(first).chain(rest), capacity);
    error.map_or(Ok(summary), |e| Err(bad(e)))
}

/// The built-in generators' smallest device: the Cello-like generator
/// asserts a capacity above this many sectors.
const MIN_GENERATOR_CAPACITY: u64 = 1024;

fn usage() -> ! {
    eprintln!("usage: trace_stats [FILE] [--capacity SECTORS] [--requests N]");
    std::process::exit(2);
}

/// Parses the value of `flag` as an integer above `floor`. Anything else
/// prints the flag's name and the usage text and exits with status 2.
fn count_above(flag: &str, text: Option<String>, floor: u64) -> u64 {
    let text = text.unwrap_or_default();
    match text.parse::<u64>() {
        Ok(n) if n > floor => n,
        _ => {
            eprintln!("{flag} must be an integer above {floor}, got {text:?}");
            usage()
        }
    }
}

fn main() {
    let mut path = None;
    let mut capacity = None;
    let mut n = 10_000;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--capacity" => capacity = Some(args.next()),
            "--requests" => n = count_above("--requests", args.next(), 0),
            _ if path.is_none() && !arg.starts_with('-') => path = Some(arg),
            other => {
                eprintln!("unexpected argument {other}");
                usage()
            }
        }
    }

    let floor = if path.is_some() {
        0
    } else {
        MIN_GENERATOR_CAPACITY
    };
    let capacity = match capacity {
        Some(text) => count_above("--capacity", text, floor),
        None => MemsParams::default().geometry().total_sectors(),
    };

    if let Some(path) = path {
        let summary = summarize_file(&path, capacity).unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(1);
        });
        println!("{path} ({} records):\n", summary.requests);
        println!("{}", summary.render());
        return;
    }

    let summaries: [(&str, TraceSummary, &str); 3] = [
        (
            "random (the paper's synthetic workload, §3)",
            TraceSummary::from_stream(
                RecordStream(RandomWorkload::paper(capacity, 500.0, n, 7)),
                capacity,
            ),
            "Poisson arrivals (cv²≈1), 67% reads, ~8.5-sector mean, uniform",
        ),
        (
            "Cello-like (substituting the 1992 HP trace, §4.3)",
            TraceSummary::from_stream(
                CelloTrace::new(
                    &CelloParams {
                        capacity,
                        requests: n,
                        ..CelloParams::default()
                    },
                    7,
                ),
                capacity,
            ),
            "bursty (cv²≫1), write-majority, hot regions, sequential runs",
        ),
        (
            "TPC-C-like (substituting the OLTP trace, §4.3)",
            TraceSummary::from_stream(
                TpccTrace::new(
                    &TpccParams {
                        capacity,
                        requests: n,
                        database_sectors: capacity * 3 / 10,
                        ..TpccParams::default()
                    },
                    7,
                ),
                capacity,
            ),
            "8 KB pages, hot extents (high top-decile), partial footprint",
        ),
    ];
    for (name, summary, expectation) in summaries {
        println!("== {name} ==");
        println!("   expected: {expectation}\n");
        println!("{}\n", summary.render());
    }
}
