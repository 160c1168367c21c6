//! Fleet-wide telemetry timelines: the deterministic cross-station merge
//! of per-station [`Telemetry`] windows.
//!
//! The fleet engine's [`crate::FleetReport`] is end-of-run scalars; the
//! fleet questions the roadmap cares about — when did the p99.9 blow up,
//! which phase ate the capacity during the rebuild, is throughput still
//! ramping — are time-series questions. [`FleetTimeline`] answers them by
//! folding every station's windowed telemetry into one fleet series,
//! under the same discipline as the engine's completion merge:
//!
//! * **alignment**: stations coarsen independently (each sees a different
//!   event density), so each per-station series is first coarsened to the
//!   *widest* station width — a power-of-two multiple of the shared base
//!   width, reached by the same exact pairwise merge the memory bound
//!   uses;
//! * **order**: windows fold in (window index, station index) order, a
//!   total order independent of shard/thread/epoch configuration, so
//!   the merged series is bit-identical across engine configs;
//! * **exactness**: counts, sums, and histogram bins merge losslessly, so
//!   fleet window totals reconcile *exactly* (integer-equal, not
//!   approximately) with the [`crate::FleetReport`] counters — asserted
//!   by [`FleetTimeline::reconcile`] and proptested under forced
//!   coarsening.
//!
//! [`Telemetry`]: storage_sim::Telemetry

use storage_sim::{Telemetry, Window};

use crate::engine::FleetReport;

/// A fleet-wide windowed time series, merged from per-station telemetry.
///
/// Stations record *sub-I/O* level activity (that is what their drivers
/// see), so fleet completions here count sub-I/Os and reconcile against
/// [`FleetReport::subs_completed`], not the assembled request count.
#[derive(Debug, Clone)]
pub struct FleetTimeline {
    window_secs: f64,
    stations: usize,
    windows: Vec<Window>,
}

impl FleetTimeline {
    /// Merges per-station series (station order = slice order) into one
    /// fleet series. Inputs are cloned and coarsened to the widest
    /// station's window width; the originals are untouched.
    ///
    /// # Panics
    ///
    /// Panics if `stations` is empty, or if any station's width cannot
    /// reach the common width by power-of-two coarsening (stations must
    /// be configured with the same base window width).
    pub fn merge(stations: &[Telemetry]) -> Self {
        assert!(!stations.is_empty(), "fleet timeline needs >= 1 station");
        let common = stations
            .iter()
            .map(Telemetry::window_secs)
            .fold(0.0f64, f64::max);
        let mut windows: Vec<Window> = Vec::new();
        for station in stations {
            let mut aligned = station.clone();
            aligned.coarsen_to(common);
            for (i, w) in aligned.windows().iter().enumerate() {
                if i >= windows.len() {
                    windows.push(w.clone());
                } else {
                    windows[i].merge(w);
                }
            }
        }
        FleetTimeline {
            window_secs: common,
            stations: stations.len(),
            windows,
        }
    }

    /// Window width of the merged series, seconds.
    pub fn window_secs(&self) -> f64 {
        self.window_secs
    }

    /// Number of stations that fed the merge.
    pub fn stations(&self) -> usize {
        self.stations
    }

    /// The merged windows, oldest first, gap-free.
    pub fn windows(&self) -> &[Window] {
        &self.windows
    }

    /// `[start, end)` bounds of window `i`, seconds.
    pub fn window_bounds(&self, i: usize) -> (f64, f64) {
        (
            self.window_secs * i as f64,
            self.window_secs * (i + 1) as f64,
        )
    }

    /// Total sub-I/O arrivals across all windows.
    pub fn total_arrivals(&self) -> u64 {
        self.windows.iter().map(|w| w.arrivals).sum()
    }

    /// Total sub-I/O completions across all windows.
    pub fn total_completions(&self) -> u64 {
        self.windows.iter().map(|w| w.completions).sum()
    }

    /// Total fault events across all windows.
    pub fn total_faults(&self) -> u64 {
        self.windows.iter().map(|w| w.faults).sum()
    }

    /// Checks the exact-count invariants against a fleet report:
    /// merged completions, merged arrivals, and merged response samples
    /// must each equal [`FleetReport::subs_completed`], and merged faults
    /// must equal [`FleetReport::fault_events`]. Returns a description of
    /// the first violated invariant.
    ///
    /// These are integer equalities — coarsening and merging are exact —
    /// so any drift is a bug, not noise.
    pub fn reconcile(&self, report: &FleetReport) -> Result<(), String> {
        let checks: [(&str, u64, u64); 4] = [
            (
                "completions",
                self.total_completions(),
                report.subs_completed,
            ),
            ("arrivals", self.total_arrivals(), report.subs_completed),
            (
                "response samples",
                self.windows.iter().map(|w| w.responses.count()).sum(),
                report.subs_completed,
            ),
            ("faults", self.total_faults(), report.fault_events),
        ];
        for (what, got, want) in checks {
            if got != want {
                return Err(format!(
                    "fleet timeline {what} = {got} but FleetReport says {want}"
                ));
            }
        }
        Ok(())
    }

    /// CSV header matching [`FleetTimeline::csv_rows`]. `utilization` is
    /// fleet-mean device utilization in the window (phase-seconds over
    /// window width x stations); quantiles come from the merged log
    /// histogram (p99.9 included — tails are the point of a fleet).
    pub fn csv_header() -> &'static str {
        "cell,window,start_s,end_s,arrivals,completions,throughput_rps,\
         resp_mean_ms,resp_p50_ms,resp_p95_ms,resp_p99_ms,resp_p999_ms,\
         queue_avg,queue_max,utilization,energy_w,faults"
    }

    /// The merged series as CSV rows (no header), one line per window,
    /// prefixed with `cell`. Purely sim-time derived: byte-stable.
    pub fn csv_rows(&self, cell: &str) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(self.windows.len() * 140);
        let width = self.window_secs;
        for (i, w) in self.windows.iter().enumerate() {
            let (start, end) = self.window_bounds(i);
            let _ = writeln!(
                out,
                "{cell},{i},{start:.3},{end:.3},{},{},{:.2},{:.3},{:.3},{:.3},{:.3},{:.3},{:.3},{},{:.4},{:.4},{}",
                w.arrivals,
                w.completions,
                w.completions as f64 / width,
                w.responses.mean() * 1e3,
                w.responses.quantile(0.50) * 1e3,
                w.responses.quantile(0.95) * 1e3,
                w.responses.quantile(0.99) * 1e3,
                w.responses.quantile(0.999) * 1e3,
                w.queue_avg(),
                w.depth_max,
                w.phase.total() / (width * self.stations as f64),
                w.energy.total() / width,
                w.faults,
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use storage_sim::{Completion, IoKind, Request, SimTime, Tracer};

    fn complete_at(tel: &mut Telemetry, id: u64, t_ms: f64, response_ms: f64) {
        let start = SimTime::from_ms(t_ms - response_ms);
        let c = Completion {
            request: Request::new(id, start, 0, 8, IoKind::Read),
            start_service: start,
            completion: SimTime::from_ms(t_ms),
        };
        tel.on_arrival(&c.request, start, 1);
        tel.on_complete(&c);
    }

    #[test]
    fn merge_aligns_mixed_widths_and_preserves_totals() {
        // Station 0 coarsens (tiny budget), station 1 does not.
        let mut a = Telemetry::new(0.001, 4);
        let mut b = Telemetry::new(0.001, 4096);
        for i in 0..64 {
            complete_at(&mut a, i, 1.0 + i as f64, 0.4);
        }
        complete_at(&mut b, 64, 2.0, 0.8);
        assert!(a.coarsenings() > 0);
        let stations = [a, b];
        let tl = FleetTimeline::merge(&stations);
        assert_eq!(tl.stations(), 2);
        assert_eq!(tl.total_completions(), 65);
        assert_eq!(tl.total_arrivals(), 65);
        assert_eq!(tl.window_secs(), stations[0].window_secs());
        // Merge order is deterministic: same inputs, same bytes.
        assert_eq!(
            tl.csv_rows("fleet"),
            FleetTimeline::merge(&stations).csv_rows("fleet")
        );
        let header_cols = FleetTimeline::csv_header().split(',').count();
        let first = tl.csv_rows("fleet");
        let first = first.lines().next().unwrap();
        assert_eq!(first.split(',').count(), header_cols);
    }

    #[test]
    #[should_panic(expected = ">= 1 station")]
    fn empty_fleet_rejected() {
        let _ = FleetTimeline::merge(&[]);
    }
}
