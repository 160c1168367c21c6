//! Whole-report checks shared by the integration tests: one digest that
//! pins a run against a recorded value, and one bit-for-bit identity
//! assertion between two runs. Tests include this file by `#[path]` and
//! use what they need.

#![allow(dead_code)]

use storage_sim::SimReport;

/// FNV-1a over the completion stream and every report field, floats by
/// bit pattern. The run must record completions.
pub fn report_digest(r: &SimReport) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut put = |v: u64| h = (h ^ v).wrapping_mul(0x100_0000_01b3);
    for c in r.completions.as_ref().expect("recorded") {
        put(c.request.id);
        put(c.start_service.as_secs().to_bits());
        put(c.completion.as_secs().to_bits());
    }
    let b = &r.breakdown_sum;
    for x in [
        r.makespan.as_secs(),
        r.response.mean(),
        r.response.sq_coeff_var(),
        r.response.max(),
        r.queue_time.mean(),
        r.service_time.mean(),
        r.busy_secs,
        r.mean_queue_depth,
        b.positioning,
        b.seek_x,
        b.settle,
        b.seek_y,
        b.rotation,
        b.transfer,
        b.turnaround,
        b.overhead,
        b.fault_recovery,
        b.background_wait,
    ] {
        put(x.to_bits());
    }
    for n in [
        r.completed,
        u64::from(b.turnaround_count),
        r.max_queue_depth as u64,
        r.fault_events,
        r.shed,
        r.timed_out,
        r.event_queue_restructures,
    ] {
        put(n);
    }
    h
}

/// Whole-report identity: every field bit for bit (`f64`'s `Debug` is
/// round-trip exact), the completion stream included. The first run
/// must record completions, so the streams are never vacuously equal.
pub fn assert_reports_identical(a: &SimReport, b: &SimReport, what: &str) {
    assert!(
        a.completions.as_ref().is_some_and(|c| !c.is_empty()),
        "{what}: run must record completions"
    );
    assert_eq!(format!("{a:?}"), format!("{b:?}"), "{what}");
}
