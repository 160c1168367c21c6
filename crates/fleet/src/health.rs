//! Fleet health analytics: which station is the straggler, how skewed is
//! the load, how far along is the rebuild?
//!
//! Everything in this module derives from *simulated* time — per-station
//! [`SimReport`]s, per-station [`Telemetry`] windows, and recorded
//! completion streams — so every output is deterministic and can be
//! byte-gated as a golden. The only wall-clock health signal (shard
//! balance) lives in [`crate::FleetProfile`], which every fleet run
//! records, and stays informational.
//!
//! The straggler detector follows the classic windowed-comparison shape:
//! a station is a straggler when its windowed p99 response time reaches
//! 2× the fleet's *median* station p99 (the median is robust to the
//! straggler itself dragging the baseline). Hysteresis keeps a station
//! from flapping in and out of the flagged set on single noisy windows:
//! it recovers only at 1.25× the median or below, and either change
//! takes two consecutive qualifying windows. A window's p99 is evidence
//! only when the window holds enough completions to estimate it (two
//! samples past the quantile, 200 for p99): the detector coarsens its
//! common grid until the median active window holds that many, and a
//! window still short of it is neutral.
//!
//! [`SimReport`]: storage_sim::SimReport
//! [`Telemetry`]: storage_sim::Telemetry

use storage_sim::{Completion, IoKind, SimReport, Telemetry};

use crate::engine::FleetReport;

/// One station's end-of-run health summary.
#[derive(Debug, Clone)]
pub struct StationHealth {
    /// Station index.
    pub station: usize,
    /// Sub-I/Os the station completed.
    pub completed: u64,
    /// Device busy time, seconds.
    pub busy_secs: f64,
    /// Busy time over the *fleet* makespan (so stations are comparable).
    pub utilization: f64,
    /// Mean sub-I/O response time at this station, milliseconds.
    pub mean_ms: f64,
    /// p99 sub-I/O response time at this station, milliseconds.
    pub p99_ms: f64,
    /// Fault events delivered to this station.
    pub faults: u64,
}

impl StationHealth {
    /// Builds per-station summaries from a fleet report's station
    /// reports, in station order.
    pub fn from_report(report: &FleetReport) -> Vec<StationHealth> {
        let span = report.makespan.as_secs();
        report
            .stations
            .iter()
            .enumerate()
            .map(|(i, s)| StationHealth {
                station: i,
                completed: s.completed,
                busy_secs: s.busy_secs,
                utilization: if span > 0.0 { s.busy_secs / span } else { 0.0 },
                mean_ms: s.response.mean() * 1e3,
                p99_ms: station_p99_ms(s),
                faults: s.fault_events,
            })
            .collect()
    }

    /// CSV header matching [`StationHealth::csv_row`].
    pub fn csv_header() -> &'static str {
        "cell,station,completed,busy_s,utilization,resp_mean_ms,resp_p99_ms,faults"
    }

    /// One CSV line (no newline handling needed by callers; ends in \n).
    pub fn csv_row(&self, cell: &str) -> String {
        format!(
            "{cell},{},{},{:.4},{:.4},{:.3},{:.3},{}\n",
            self.station,
            self.completed,
            self.busy_secs,
            self.utilization,
            self.mean_ms,
            self.p99_ms,
            self.faults
        )
    }
}

fn station_p99_ms(s: &SimReport) -> f64 {
    // SimReport keeps moments, not a histogram; approximate the per-
    // station p99 from the recorded completion stream when present
    // (exact nearest-rank), else fall back to mean + 2.33 sigma.
    if let Some(completions) = &s.completions {
        if !completions.is_empty() {
            let mut resp: Vec<f64> = completions
                .iter()
                .map(|c| c.response_time().as_secs())
                .collect();
            resp.sort_by(f64::total_cmp);
            let rank = ((resp.len() as f64 * 0.99).ceil() as usize).clamp(1, resp.len());
            return resp[rank - 1] * 1e3;
        }
    }
    (s.response.mean() + 2.33 * s.response.std_dev()) * 1e3
}

/// Load skew across stations: the maximum utilization over the mean
/// (1.0 = perfectly balanced; 0.0 for an idle fleet).
pub fn utilization_skew(health: &[StationHealth]) -> f64 {
    let mean: f64 = health.iter().map(|h| h.utilization).sum::<f64>() / health.len().max(1) as f64;
    if mean <= 0.0 {
        return 0.0;
    }
    health.iter().map(|h| h.utilization).fold(0.0, f64::max) / mean
}

/// Tail skew across stations: the maximum per-station p99 over the
/// median per-station p99 (1.0 = uniform tails).
pub fn tail_skew(health: &[StationHealth]) -> f64 {
    let med = median(health.iter().map(|h| h.p99_ms));
    if med <= 0.0 {
        return 0.0;
    }
    health.iter().map(|h| h.p99_ms).fold(0.0, f64::max) / med
}

fn median(values: impl Iterator<Item = f64>) -> f64 {
    let mut v: Vec<f64> = values.filter(|x| x.is_finite()).collect();
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

// Straggler-detector thresholds, each against the fleet *median* station
// p99 within the same telemetry window. Twice the median is a station
// clearly out of line with its peers; recovering only at 1.25× leaves a
// hysteresis band between the two, and a streak of two windows outlasts
// one noisy window. A window where a station completed too few requests
// to estimate its p99 is neutral: no evidence either way, so streaks hold
// but don't grow.

/// The tail quantile the detector compares.
const QUANTILE: f64 = 0.99;
/// Samples a window must hold past [`QUANTILE`] for its estimate to be
/// more than the window's largest response or two.
const TAIL_SAMPLES: f64 = 2.0;

/// A station's windowed p99 must reach this multiple of the median to
/// count toward flagging.
const ENTER_RATIO: f64 = 2.0;
/// A flagged station's windowed p99 must fall to this multiple of the
/// median, or below, to count toward unflagging.
const EXIT_RATIO: f64 = 1.25;
/// Consecutive qualifying windows required to change state.
const STREAK: u32 = 2;

/// A straggler state transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StragglerEvent {
    /// Station that changed state.
    pub station: usize,
    /// Window index (at the common width) where the streak completed.
    pub window: usize,
    /// `true` = became a straggler, `false` = recovered.
    pub entered: bool,
}

/// Output of [`detect_stragglers`]: per-window medians, per-station
/// per-window p99s and flags, and the transition list.
#[derive(Debug, Clone)]
pub struct StragglerReport {
    /// Window width all stations were aligned to, seconds: the widest
    /// station width, doubled until the median active window holds
    /// enough completions to estimate its p99.
    pub window_secs: f64,
    /// Fleet median station p99 per window, ms (0 when no station's
    /// window held enough completions).
    pub median_p99_ms: Vec<f64>,
    /// Per-station windowed p99, ms; `[station][window]`, 0 when the
    /// window held too few completions to estimate it.
    pub station_p99_ms: Vec<Vec<f64>>,
    /// Straggler state after each window; `[station][window]`.
    pub flagged: Vec<Vec<bool>>,
    /// Enter/exit transitions in (window, station) order.
    pub events: Vec<StragglerEvent>,
}

impl StragglerReport {
    /// Stations flagged at end of run.
    pub fn stragglers(&self) -> Vec<usize> {
        self.flagged
            .iter()
            .enumerate()
            .filter(|(_, f)| f.last().copied().unwrap_or(false))
            .map(|(s, _)| s)
            .collect()
    }
}

/// Runs the windowed straggler detector over per-station telemetry.
///
/// Deterministic: inputs are sim-time derived, stations align to a
/// common window width by exact coarsening, and ties break by station
/// index. See the module docs for the thresholds, their hysteresis and
/// the sample rule that sets the window width.
pub fn detect_stragglers(stations: &[Telemetry]) -> StragglerReport {
    assert!(!stations.is_empty(), "straggler detection needs stations");
    let min_samples = (TAIL_SAMPLES / (1.0 - QUANTILE)).round() as u64;
    let mut common = stations
        .iter()
        .map(Telemetry::window_secs)
        .fold(0.0f64, f64::max);
    let mut aligned: Vec<Telemetry> = stations.to_vec();
    loop {
        for t in &mut aligned {
            t.coarsen_to(common);
        }
        let active = aligned
            .iter()
            .flat_map(Telemetry::windows)
            .filter(|w| w.completions > 0)
            .map(|w| w.completions as f64);
        let longest = aligned.iter().map(|t| t.windows().len()).max();
        if median(active) >= min_samples as f64 || longest.unwrap_or(0) <= 1 {
            break;
        }
        common *= 2.0;
    }
    let nwin = aligned.iter().map(|t| t.windows().len()).max().unwrap_or(0);
    let nsta = aligned.len();

    let mut station_p99_ms = vec![vec![0.0f64; nwin]; nsta];
    let mut median_p99_ms = vec![0.0f64; nwin];
    let mut flagged = vec![vec![false; nwin]; nsta];
    let mut events = Vec::new();
    let mut state = vec![false; nsta];
    let mut up_streak = vec![0u32; nsta];
    let mut down_streak = vec![0u32; nsta];

    for w in 0..nwin {
        let mut active = Vec::with_capacity(nsta);
        for (s, t) in aligned.iter().enumerate() {
            if let Some(win) = t.windows().get(w) {
                if win.completions >= min_samples {
                    let p99 = win.responses.quantile(QUANTILE) * 1e3;
                    station_p99_ms[s][w] = p99;
                    active.push(p99);
                }
            }
        }
        let med = median(active.into_iter());
        median_p99_ms[w] = med;

        for s in 0..nsta {
            let p99 = station_p99_ms[s][w];
            if p99 <= 0.0 || med <= 0.0 {
                // Neutral window: no evidence, streaks hold.
                flagged[s][w] = state[s];
                continue;
            }
            let ratio = p99 / med;
            if !state[s] {
                if ratio >= ENTER_RATIO {
                    up_streak[s] += 1;
                    if up_streak[s] >= STREAK {
                        state[s] = true;
                        up_streak[s] = 0;
                        events.push(StragglerEvent {
                            station: s,
                            window: w,
                            entered: true,
                        });
                    }
                } else {
                    up_streak[s] = 0;
                }
            } else if ratio <= EXIT_RATIO {
                down_streak[s] += 1;
                if down_streak[s] >= STREAK {
                    state[s] = false;
                    down_streak[s] = 0;
                    events.push(StragglerEvent {
                        station: s,
                        window: w,
                        entered: false,
                    });
                }
            } else {
                down_streak[s] = 0;
            }
            flagged[s][w] = state[s];
        }
    }

    StragglerReport {
        window_secs: common,
        median_p99_ms,
        station_p99_ms,
        flagged,
        events,
    }
}

/// Copied-work-over-time from a recorded completion stream: buckets the
/// sectors of matching completions into fixed sim-time windows. Used for
/// rebuild progress (background writes on the rebuild target) and any
/// other background stream with dense ids above the foreground block.
#[derive(Debug, Clone)]
pub struct ProgressSeries {
    /// Window width, seconds.
    pub window_secs: f64,
    /// Sectors completed per window.
    pub sectors: Vec<u64>,
}

impl ProgressSeries {
    /// Buckets completions with `request.id >= min_id` (and, when
    /// `kind` is given, matching I/O kind) by completion time.
    pub fn from_completions(
        completions: &[Completion],
        min_id: u64,
        kind: Option<IoKind>,
        window_secs: f64,
    ) -> Self {
        assert!(window_secs > 0.0, "window width must be positive");
        let mut sectors: Vec<u64> = Vec::new();
        for c in completions {
            if c.request.id < min_id {
                continue;
            }
            if let Some(k) = kind {
                if c.request.kind != k {
                    continue;
                }
            }
            let w = (c.completion.as_secs() / window_secs) as usize;
            if w >= sectors.len() {
                sectors.resize(w + 1, 0);
            }
            sectors[w] += c.request.sectors as u64;
        }
        ProgressSeries {
            window_secs,
            sectors,
        }
    }

    /// Total sectors across every window.
    pub fn total(&self) -> u64 {
        self.sectors.iter().sum()
    }

    /// CSV header matching [`ProgressSeries::csv_rows`].
    pub fn csv_header() -> &'static str {
        "cell,window,start_s,end_s,sectors,cumulative_sectors,fraction"
    }

    /// CSV rows (no header): per-window and cumulative copied sectors,
    /// plus the fraction of the final total reached by each window.
    pub fn csv_rows(&self, cell: &str) -> String {
        use std::fmt::Write as _;
        let total = self.total().max(1);
        let mut out = String::with_capacity(self.sectors.len() * 48);
        let mut cum = 0u64;
        for (i, s) in self.sectors.iter().enumerate() {
            cum += s;
            let _ = writeln!(
                out,
                "{cell},{i},{:.3},{:.3},{s},{cum},{:.4}",
                self.window_secs * i as f64,
                self.window_secs * (i + 1) as f64,
                cum as f64 / total as f64,
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use storage_sim::{Request, SimTime, Tracer};

    /// A station's telemetry on `fleet_obs`'s grid (100 ms windows, at
    /// most 256 of them): `per_window` completions spread evenly over each
    /// of `windows` base windows, the `i`-th of window `w` taking
    /// `resp_ms(w, i)`.
    fn station(
        windows: usize,
        per_window: usize,
        resp_ms: impl Fn(usize, usize) -> f64,
    ) -> Telemetry {
        let mut t = Telemetry::new(0.1, 256);
        for w in 0..windows {
            for i in 0..per_window {
                let at = 100.0 * (w as f64 + (i as f64 + 0.5) / per_window as f64);
                let start = SimTime::from_ms(at - resp_ms(w, i));
                t.on_complete(&Completion {
                    request: Request::new((w * per_window + i) as u64, start, 0, 8, IoKind::Read),
                    start_service: start,
                    completion: SimTime::from_ms(at),
                });
            }
        }
        t
    }

    #[test]
    fn straggler_enters_after_streak_and_exits_with_hysteresis() {
        // Station 2 is 4x slower for windows 0..=3, then recovers. Each
        // window holds the 200 completions a p99 needs.
        let fast = station(6, 200, |_, _| 1.0);
        let slow = station(6, 200, |w, _| if w <= 3 { 4.0 } else { 1.0 });
        let stations = [fast.clone(), fast, slow];
        let report = detect_stragglers(&stations);
        // Streak of 2: flagged from window 1.
        assert!(!report.flagged[2][0]);
        assert!(report.flagged[2][1]);
        assert!(report.flagged[2][3]);
        // Recovery windows 4,5 complete the exit streak at window 5.
        assert!(!report.flagged[2][5]);
        assert_eq!(
            report.events,
            vec![
                StragglerEvent {
                    station: 2,
                    window: 1,
                    entered: true
                },
                StragglerEvent {
                    station: 2,
                    window: 5,
                    entered: false
                },
            ]
        );
        assert!(report.stragglers().is_empty());
        // Healthy stations never flag.
        assert!(report.flagged[0].iter().all(|f| !f));
        assert!(report.flagged[1].iter().all(|f| !f));
    }

    #[test]
    fn sparse_windows_cannot_flag_a_healthy_station() {
        // `fleet_obs`'s 10x horizon: 16 stations each completing 56
        // sub-I/Os per 100 ms over 30 s, which the 256-window cap coarsens
        // to 200 ms windows of 112. Station 5 is four times slower
        // throughout. Healthy station 12 meets two slow responses in each
        // of two consecutive 200 ms windows; with 112 samples a window's
        // p99 is its second largest response, so those two windows alone
        // would flag it.
        let healthy = |_: usize, i: usize| 0.5 + 0.25 * (i % 5) as f64;
        let stations: Vec<Telemetry> = (0..16)
            .map(|s| match s {
                5 => station(300, 56, |w, i| 4.0 * healthy(w, i)),
                12 => station(300, 56, |w, i| {
                    if (w == 203 || w == 204) && (i == 7 || i == 40) {
                        4.0
                    } else {
                        healthy(w, i)
                    }
                }),
                _ => station(300, 56, healthy),
            })
            .collect();
        let report = detect_stragglers(&stations);
        assert_eq!(report.stragglers(), vec![5]);
        assert!(
            report.events.iter().all(|e| e.station == 5),
            "transitions on healthy stations: {:?}",
            report.events
        );
    }

    #[test]
    fn progress_series_buckets_and_accumulates() {
        let mk = |id: u64, at_ms: f64, kind: IoKind| Completion {
            request: Request::new(id, SimTime::from_ms(at_ms - 1.0), 0, 64, kind),
            start_service: SimTime::from_ms(at_ms - 1.0),
            completion: SimTime::from_ms(at_ms),
        };
        let completions = vec![
            mk(0, 5.0, IoKind::Read),   // foreground: excluded by min_id
            mk(10, 5.0, IoKind::Write), // window 0
            mk(11, 15.0, IoKind::Write),
            mk(12, 15.5, IoKind::Read), // excluded by kind
            mk(13, 35.0, IoKind::Write),
        ];
        let p = ProgressSeries::from_completions(&completions, 10, Some(IoKind::Write), 0.010);
        assert_eq!(p.sectors, vec![64, 64, 0, 64]);
        assert_eq!(p.total(), 192);
        let rows = p.csv_rows("rebuild");
        assert_eq!(rows.lines().count(), 4);
        assert!(rows.lines().last().unwrap().ends_with("64,192,1.0000"));
        let header_cols = ProgressSeries::csv_header().split(',').count();
        assert_eq!(rows.lines().next().unwrap().split(',').count(), header_cols);
    }

    #[test]
    fn skew_metrics_are_sane() {
        let h = |u: f64, p99: f64| StationHealth {
            station: 0,
            completed: 10,
            busy_secs: u,
            utilization: u,
            mean_ms: p99 / 2.0,
            p99_ms: p99,
            faults: 0,
        };
        let fleet = vec![h(0.5, 10.0), h(0.5, 10.0), h(1.0, 40.0)];
        assert!((utilization_skew(&fleet) - 1.0 / (2.0 / 3.0)).abs() < 1e-12);
        assert!((tail_skew(&fleet) - 4.0).abs() < 1e-12);
        assert_eq!(utilization_skew(&[]), 0.0);
    }
}
