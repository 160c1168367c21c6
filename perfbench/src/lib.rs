//! Host-time benchmark of the memsstore simulator.
//!
//! Three workloads ([`workloads::Kind`]) run through the public APIs of
//! `storage-trace`, `storage-sim`, `mems-os::sched`, `mems-device`,
//! `mems-fleet` and `mems-bench::sweep`. An untraced run reports the
//! end-to-end metrics; a traced run wraps each layer's trait in the timing
//! wrappers of [`timed`] and reports the per-layer breakdown of
//! [`layers`]. See `README.md` beside this crate for the metric table.

pub mod layers;
pub mod timed;
pub mod workloads;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, `<crate>.<layer>.<quantity>` for layer metrics.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit, e.g. `ns`, `s`, `count`.
    pub unit: &'static str,
}

impl Metric {
    /// A metric named `name`.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// The benchmark's result line: one JSON object with `correct`,
/// `attempted`, `failed` and `metrics`. Non-finite values are written as 0
/// so the line always parses.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Median of `values` (the mean of the middle pair for an even count);
/// zero when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Peak resident set (`VmHWM`) of this process in MiB, from
/// `/proc/self/status`; zero where it is unavailable.
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summaries() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn result_line_is_one_json_object() {
        let line = result_json(
            true,
            10,
            0,
            &[
                Metric::new("setup_s", 1.25, "s"),
                Metric::new("x", f64::NAN, "ns"),
            ],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 1.25, \"unit\": \"s\"}, \
             \"x\": {\"value\": 0.0, \"unit\": \"ns\"}}}"
        );
    }
}
