//! Telemetry-layer integration tests: the windowed and heatmap
//! observability built on the request tracer keeps the same core
//! contract — *free when off, honest when on*.
//!
//! - Attaching [`Telemetry`] (alone or paired with a [`RingTracer`]) must
//!   leave the simulated report bit-identical to the untraced run, on both
//!   the MEMS device and the disk baseline.
//! - The JSONL export must round-trip: parsing it back yields one
//!   arrival, pick, service and completion per request, and the report's
//!   completion and fault counts.
//! - Heatmaps rebuilt from the trace must reconcile exactly with the
//!   request stream: Σ region accesses == Σ stripes touched and
//!   Σ tip-group sectors == Σ request sectors.

#[path = "../../../tests/support/report.rs"]
mod report;

use atlas_disk::{DiskDevice, DiskParams, ZoneHeatmap};
use mems_device::{Mapper, MediaHeatmap, MemsDevice, MemsParams, Segment};
use mems_os::sched::{ClookScheduler, SptfScheduler};
use report::assert_reports_identical;
use storage_sim::{
    Driver, RingTracer, Scheduler, SimReport, StorageDevice, Telemetry, TraceEvent, Tracer,
    TracerPair, Workload,
};
use storage_trace::RandomWorkload;

/// Runs one cell untraced, then once per supplied tracer, asserting every
/// variant reproduces the untraced report exactly.
fn assert_tracer_free<W, S, D, T>(
    make_workload: impl Fn() -> W,
    make_scheduler: impl Fn() -> S,
    make_device: impl Fn() -> D,
    tracer: T,
    label: &str,
) -> SimReport
where
    W: Workload,
    S: Scheduler,
    D: StorageDevice,
    T: Tracer,
{
    let untraced = Driver::new(make_workload(), make_scheduler(), make_device())
        .record_completions(true)
        .run();
    let traced = Driver::new(make_workload(), make_scheduler(), make_device())
        .record_completions(true)
        .with_tracer(tracer)
        .run();
    assert_reports_identical(&untraced, &traced, label);
    untraced
}

#[test]
fn telemetry_and_profiler_do_not_perturb_mems_runs() {
    let capacity = MemsParams::default().geometry().total_sectors();
    for seed in [1u64, 0x5EED_0006] {
        let wl = || RandomWorkload::paper(capacity, 1800.0, 1_000, seed);
        let dev = || MemsDevice::new(MemsParams::default());
        assert_tracer_free(
            wl,
            SptfScheduler::new,
            dev,
            Telemetry::new(0.1, 64),
            "mems telemetry",
        );
        assert_tracer_free(
            wl,
            SptfScheduler::new,
            dev,
            TracerPair::new(RingTracer::new(4096), Telemetry::new(0.1, 64)),
            "mems pair",
        );
    }
}

#[test]
fn telemetry_and_profiler_do_not_perturb_disk_runs() {
    let capacity = DiskParams::quantum_atlas_10k().total_sectors();
    for seed in [2u64, 0x5EED_0005] {
        let wl = || RandomWorkload::paper(capacity, 100.0, 600, seed);
        let dev = || DiskDevice::new(DiskParams::quantum_atlas_10k());
        assert_tracer_free(
            wl,
            ClookScheduler::new,
            dev,
            Telemetry::new(0.1, 64),
            "disk telemetry",
        );
    }
}

#[test]
fn telemetry_windows_reconcile_with_the_report() {
    let capacity = MemsParams::default().geometry().total_sectors();
    let mut driver = Driver::new(
        RandomWorkload::paper(capacity, 1500.0, 1_200, 99),
        SptfScheduler::new(),
        MemsDevice::new(MemsParams::default()),
    )
    // A deliberately tiny window budget forces coarsening mid-run.
    .with_tracer(Telemetry::new(0.01, 8));
    let report = driver.run();
    let tel = driver.tracer();
    assert!(tel.windows().len() <= 8);
    assert!(
        tel.coarsenings() > 0,
        "the budget must have forced coarsening"
    );
    let completions: u64 = tel.windows().iter().map(|w| w.completions).sum();
    let arrivals: u64 = tel.windows().iter().map(|w| w.arrivals).sum();
    assert_eq!(completions, report.completed);
    assert_eq!(arrivals, report.completed);
    let busy: f64 = tel.windows().iter().map(|w| w.phase.total()).sum();
    assert!((busy - report.busy_secs).abs() < 1e-9);
    // Mean response survives coarsening exactly (sums are merged, not
    // re-binned).
    let (sum, n): (f64, u64) = tel.windows().iter().fold((0.0, 0), |(s, n), w| {
        (s + w.responses.sum(), n + w.responses.count())
    });
    assert_eq!(n, report.completed);
    assert!((sum / n as f64 - report.response.mean()).abs() < 1e-12);
}

/// Minimal JSONL field extraction (the export uses no nesting in the
/// fields we read and no string escapes).
fn json_str_field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let tag = format!("\"{key}\":\"");
    let start = line.find(&tag)? + tag.len();
    let end = start + line[start..].find('"')?;
    Some(&line[start..end])
}

fn json_u64_field(line: &str, key: &str) -> Option<u64> {
    let tag = format!("\"{key}\":");
    let start = line.find(&tag)? + tag.len();
    let digits: String = line[start..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

#[test]
fn jsonl_round_trips_to_the_monotonic_counters() {
    let capacity = MemsParams::default().geometry().total_sectors();
    let requests = 500u64;
    let mut driver = Driver::new(
        RandomWorkload::paper(capacity, 1800.0, requests, 7),
        SptfScheduler::new(),
        MemsDevice::new(MemsParams::default()),
    )
    .with_tracer(RingTracer::new(usize::try_from(requests).unwrap() * 4 + 64));
    let report = driver.run();
    let trace = driver.tracer();
    assert_eq!(trace.dropped_events(), 0, "ring must hold the full run");

    let jsonl = trace.to_jsonl();
    let (mut arrivals, mut picks, mut services, mut completes, mut faults) = (0u64, 0, 0, 0, 0);
    let mut sectors_by_service = 0u64;
    for line in jsonl.lines() {
        assert!(
            line.starts_with('{') && line.ends_with('}'),
            "malformed: {line}"
        );
        match json_str_field(line, "ev").expect("every event has an ev field") {
            "arrival" => {
                arrivals += 1;
                assert!(json_u64_field(line, "id").is_some());
                assert!(json_u64_field(line, "queue_depth").is_some());
            }
            "pick" => picks += 1,
            "service" => {
                services += 1;
                sectors_by_service += json_u64_field(line, "sectors").expect("sectors field");
            }
            "complete" => completes += 1,
            "fault" => faults += 1,
            other => panic!("unknown event kind {other:?}"),
        }
    }
    assert_eq!(arrivals, requests, "arrival lines vs requests");
    assert_eq!(picks, requests, "pick lines vs requests");
    assert_eq!(services, picks, "one service event per pick");
    assert_eq!(completes, report.completed, "complete lines vs report");
    assert_eq!(faults, report.fault_events, "fault lines vs report");
    assert!(sectors_by_service > 0);
}

#[test]
fn mems_heatmap_reconciles_with_the_request_stream() {
    let params = MemsParams::default();
    let capacity = params.geometry().total_sectors();
    let requests = 800u64;
    let mut driver = Driver::new(
        RandomWorkload::paper(capacity, 2000.0, requests, 0x5EED_0006),
        SptfScheduler::new(),
        MemsDevice::new(params.clone()),
    )
    .with_tracer(RingTracer::new(usize::try_from(requests).unwrap() * 4 + 64));
    let report = driver.run();

    let mapper = Mapper::new(&params);
    let services: Vec<(u64, u32, f64)> = driver
        .tracer()
        .events()
        .filter_map(|ev| match *ev {
            TraceEvent::Service { req, .. } => Some((req.lbn, req.sectors, 0.0)),
            _ => None,
        })
        .collect();
    assert_eq!(services.len() as u64, report.completed);

    let map = MediaHeatmap::from_services(&params, 10, 9, services.iter().copied());

    // The acceptance invariant: sum of per-region accesses equals serviced
    // requests × stripes touched, where stripes are counted independently
    // through the geometry mapper.
    let independent_stripes: u64 = services
        .iter()
        .map(|&(lbn, sectors, _)| {
            mapper
                .segment_iter(lbn, sectors)
                .map(|s: Segment| u64::from(s.rows()))
                .sum::<u64>()
        })
        .sum();
    assert_eq!(map.region_access_total(), independent_stripes);
    assert_eq!(map.total_stripes(), independent_stripes);
    assert_eq!(map.requests(), report.completed);

    // Sector conservation through the tip groups.
    let request_sectors: u64 = services.iter().map(|&(_, s, _)| u64::from(s)).sum();
    assert_eq!(map.tip_sector_total(), request_sectors);
    assert_eq!(map.total_sectors(), request_sectors);

    // Region sector counts conserve too (each sector lands in one cell).
    let region_sectors: u64 = (0..10)
        .flat_map(|x| (0..9).map(move |y| (x, y)))
        .map(|(x, y)| map.region_sectors(x, y))
        .sum();
    assert_eq!(region_sectors, request_sectors);
}

#[test]
fn disk_zone_heatmap_reconciles_with_the_request_stream() {
    let params = DiskParams::quantum_atlas_10k();
    let requests = 400u64;
    let mut driver = Driver::new(
        RandomWorkload::paper(params.total_sectors(), 100.0, requests, 11),
        ClookScheduler::new(),
        DiskDevice::new(params.clone()),
    )
    .with_tracer(RingTracer::new(usize::try_from(requests).unwrap() * 4 + 64));
    let report = driver.run();

    let mut zones = ZoneHeatmap::new(&params);
    let mut request_sectors = 0u64;
    for ev in driver.tracer().events() {
        if let TraceEvent::Service { req, .. } = ev {
            zones.record(req.lbn, req.sectors);
            request_sectors += u64::from(req.sectors);
        }
    }
    assert_eq!(zones.requests(), report.completed);
    assert_eq!(zones.zone_sector_total(), request_sectors);
    assert_eq!(zones.total_sectors(), request_sectors);
}
