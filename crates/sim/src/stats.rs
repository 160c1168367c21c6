//! Simulation statistics.
//!
//! The paper evaluates scheduling policies with two metrics (§4.1): the
//! average response time (queue + service) and the squared coefficient of
//! variation σ²/µ² of response time, used as a starvation-resistance
//! ("fairness") measure following [TP72, WGP94]. [`ResponseStats`] computes
//! both, plus percentiles for the extended analyses.

/// Streaming mean/variance accumulator (Welford's algorithm).
///
/// # Examples
///
/// ```
/// use storage_sim::Welford;
///
/// let mut w = Welford::new();
/// for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     w.push(x);
/// }
/// assert!((w.mean() - 5.0).abs() < 1e-12);
/// assert!((w.population_variance() - 4.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct Welford {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Welford {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Welford {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds a sample.
    #[inline]
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of samples seen.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean; zero when empty.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Population variance (divides by n); zero for fewer than two samples.
    pub fn population_variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.population_variance().sqrt()
    }

    /// σ²/µ² — the paper's starvation-resistance metric. Zero when the
    /// mean is zero.
    pub fn sq_coeff_var(&self) -> f64 {
        let mu = self.mean();
        if mu == 0.0 {
            0.0
        } else {
            self.population_variance() / (mu * mu)
        }
    }

    /// Smallest sample; `+inf` when empty.
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest sample; `-inf` when empty.
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Merges another accumulator into this one (parallel Welford).
    pub fn merge(&mut self, other: &Welford) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n_total = self.n + other.n;
        let delta = other.mean - self.mean;
        self.mean += delta * other.n as f64 / n_total as f64;
        self.m2 += other.m2 + delta * delta * self.n as f64 * other.n as f64 / n_total as f64;
        self.n = n_total;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Response-time statistics retaining the full sample for percentiles.
///
/// Values are stored in seconds (matching [`crate::SimTime::as_secs`]).
///
/// The default mode keeps every sample, so [`ResponseStats::percentile`]
/// is exact — the right trade for figure cells of ~10⁵ requests. For
/// streaming-scale runs (10⁷ requests and up) the retained vector is the
/// dominant memory term; [`ResponseStats::streaming`] swaps it for a
/// [`LogHistogram`] so memory stays O(bins) and percentiles come back as
/// histogram quantiles (within ~12% of exact). The Welford moments —
/// mean, variance, min/max, count — are bit-identical in both modes.
#[derive(Debug, Clone, Default)]
pub struct ResponseStats {
    welford: Welford,
    samples: Vec<f64>,
    sorted: bool,
    histogram: Option<LogHistogram>,
}

impl ResponseStats {
    /// Creates an empty collection retaining every sample (exact
    /// percentiles).
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty collection in constant-memory streaming mode:
    /// samples feed a [`LogHistogram::response_times`] instead of a
    /// retained vector, and [`ResponseStats::percentile`] answers from the
    /// histogram.
    pub fn streaming() -> Self {
        ResponseStats {
            histogram: Some(LogHistogram::response_times()),
            ..Self::default()
        }
    }

    /// Records one response time in seconds.
    #[inline]
    pub fn push(&mut self, secs: f64) {
        self.welford.push(secs);
        match self.histogram.as_mut() {
            Some(h) => h.push(secs),
            None => {
                self.samples.push(secs);
                self.sorted = false;
            }
        }
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.welford.count()
    }

    /// Mean in seconds.
    pub fn mean(&self) -> f64 {
        self.welford.mean()
    }

    /// Mean in milliseconds — the unit the paper's figures use.
    pub fn mean_ms(&self) -> f64 {
        self.mean() * 1e3
    }

    /// Population standard deviation in seconds.
    pub fn std_dev(&self) -> f64 {
        self.welford.std_dev()
    }

    /// σ²/µ² starvation-resistance metric.
    pub fn sq_coeff_var(&self) -> f64 {
        self.welford.sq_coeff_var()
    }

    /// Largest sample in seconds.
    pub fn max(&self) -> f64 {
        self.welford.max()
    }

    /// Returns the `p`-quantile (0 ≤ p ≤ 1) by nearest-rank on the sorted
    /// sample; zero when empty. In streaming mode the answer is the
    /// [`LogHistogram`] quantile under the same nearest-rank convention,
    /// good to within one log-spaced bin (~12%).
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn percentile(&mut self, p: f64) -> f64 {
        assert!((0.0..=1.0).contains(&p), "percentile must be in [0,1]");
        if let Some(h) = self.histogram.as_ref() {
            return h.quantile(p);
        }
        if self.samples.is_empty() {
            return 0.0;
        }
        if !self.sorted {
            self.samples
                .sort_by(|a, b| a.partial_cmp(b).expect("response times are not NaN"));
            self.sorted = true;
        }
        let rank = ((self.samples.len() as f64 - 1.0) * p).round() as usize;
        self.samples[rank]
    }
}

/// A fixed-width histogram over `[lo, hi)` with overflow/underflow bins,
/// used by the fault/turnaround distribution reports.
///
/// # Examples
///
/// ```
/// use storage_sim::Histogram;
///
/// let mut h = Histogram::new(0.0, 10.0, 10);
/// h.push(0.5);
/// h.push(3.7);
/// h.push(42.0); // overflow
/// assert_eq!(h.bin_count(0), 1);
/// assert_eq!(h.bin_count(3), 1);
/// assert_eq!(h.overflow(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    bins: Vec<u64>,
    underflow: u64,
    overflow: u64,
}

impl Histogram {
    /// Creates a histogram with `bins` equal-width buckets over `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `hi <= lo` or `bins == 0`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(hi > lo, "histogram range must be non-empty");
        assert!(bins > 0, "histogram needs at least one bin");
        Histogram {
            lo,
            hi,
            bins: vec![0; bins],
            underflow: 0,
            overflow: 0,
        }
    }

    /// Adds a sample.
    pub fn push(&mut self, x: f64) {
        if x < self.lo {
            self.underflow += 1;
        } else if x >= self.hi {
            self.overflow += 1;
        } else {
            let w = (self.hi - self.lo) / self.bins.len() as f64;
            let idx = ((x - self.lo) / w) as usize;
            let idx = idx.min(self.bins.len() - 1);
            self.bins[idx] += 1;
        }
    }

    /// Count in bin `i`.
    pub fn bin_count(&self, i: usize) -> u64 {
        self.bins[i]
    }

    /// Inclusive-exclusive bounds of bin `i`.
    pub fn bin_bounds(&self, i: usize) -> (f64, f64) {
        let w = (self.hi - self.lo) / self.bins.len() as f64;
        (self.lo + w * i as f64, self.lo + w * (i + 1) as f64)
    }

    /// Number of bins.
    pub fn num_bins(&self) -> usize {
        self.bins.len()
    }

    /// Samples at or above the range top.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Total samples recorded, including out-of-range ones.
    pub fn total(&self) -> u64 {
        self.bins.iter().sum::<u64>() + self.underflow + self.overflow
    }
}

/// A mergeable log-spaced streaming histogram for latency-style samples.
///
/// Bin `i` covers `[lo·r^i, lo·r^(i+1))` where `r = 10^(1/bins_per_decade)`,
/// so relative resolution is constant across the full dynamic range — the
/// right shape for response times that span 0.1 ms to seconds under load.
/// Unlike [`ResponseStats`] it keeps no per-sample state, so a telemetry
/// window costs O(bins) regardless of how many requests land in it, and two
/// histograms with the same `(lo, bins_per_decade)` law merge by adding
/// counts — the operation the telemetry coarsening step relies on.
///
/// Samples below `lo` (including zero) are counted in an underflow bin that
/// quantile queries treat as the value `lo`.
///
/// # Examples
///
/// ```
/// use storage_sim::LogHistogram;
///
/// let mut h = LogHistogram::response_times();
/// for x in [0.4e-3, 0.5e-3, 0.6e-3, 12e-3] {
///     h.push(x);
/// }
/// assert_eq!(h.count(), 4);
/// // The p50 estimate lands within one log-spaced bin of 0.5 ms.
/// let p50 = h.quantile(0.5);
/// assert!(p50 > 0.4e-3 && p50 < 0.7e-3);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LogHistogram {
    lo: f64,
    bins_per_decade: u32,
    /// `ln` of the bin-width ratio `r`, precomputed for indexing.
    ln_ratio: f64,
    bins: Vec<u64>,
    underflow: u64,
    count: u64,
    sum: f64,
}

impl LogHistogram {
    /// Creates an empty histogram whose first bin starts at `lo` with
    /// `bins_per_decade` bins per factor of ten.
    ///
    /// # Panics
    ///
    /// Panics if `lo` is not positive and finite or `bins_per_decade` is 0.
    pub fn new(lo: f64, bins_per_decade: u32) -> Self {
        assert!(
            lo > 0.0 && lo.is_finite(),
            "histogram origin must be positive and finite"
        );
        assert!(bins_per_decade > 0, "need at least one bin per decade");
        LogHistogram {
            lo,
            bins_per_decade,
            ln_ratio: std::f64::consts::LN_10 / f64::from(bins_per_decade),
            bins: Vec::new(),
            underflow: 0,
            count: 0,
            sum: 0.0,
        }
    }

    /// The standard response-time law used by the telemetry layer: 10 µs
    /// origin, 20 bins per decade (bin-width ratio ≈ 1.12, i.e. estimates
    /// within ~12% of exact percentiles).
    pub fn response_times() -> Self {
        LogHistogram::new(10e-6, 20)
    }

    /// Whether `other` uses the same binning law (and may be merged).
    pub fn same_law(&self, other: &LogHistogram) -> bool {
        self.lo == other.lo && self.bins_per_decade == other.bins_per_decade
    }

    /// Adds a sample. Non-finite samples count into the underflow bin
    /// (and contribute nothing to the sum) rather than poisoning the
    /// histogram.
    #[inline]
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        self.sum += if x.is_finite() { x } else { 0.0 };
        if !x.is_finite() || x < self.lo {
            self.underflow += 1;
            return;
        }
        let idx = ((x / self.lo).ln() / self.ln_ratio).floor() as usize;
        if idx >= self.bins.len() {
            self.bins.resize(idx + 1, 0);
        }
        self.bins[idx] += 1;
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all finite samples (for windowed means).
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Mean of the recorded samples; zero when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Lower edge of bin `i`.
    pub fn bin_lo(&self, i: usize) -> f64 {
        self.lo * (self.ln_ratio * i as f64).exp()
    }

    /// The `q`-quantile (0 ≤ q ≤ 1) by nearest rank over the bin counts,
    /// reported as the geometric midpoint of the containing bin; zero when
    /// empty. Guaranteed within one bin width of the exact sample quantile.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0,1]");
        if self.count == 0 {
            return 0.0;
        }
        // Same nearest-rank convention as `ResponseStats::percentile`.
        let rank = ((self.count as f64 - 1.0) * q).round() as u64;
        let mut seen = self.underflow;
        if rank < seen {
            return self.lo;
        }
        for (i, &c) in self.bins.iter().enumerate() {
            seen += c;
            if rank < seen {
                // Geometric midpoint of [bin_lo, bin_lo·r).
                return self.bin_lo(i) * (self.ln_ratio * 0.5).exp();
            }
        }
        // Unreachable when counts are consistent; fall back to the top edge.
        self.bin_lo(self.bins.len())
    }

    /// Merges `other` into this histogram by adding counts; exact (no
    /// re-binning error) and associative on the counts.
    ///
    /// # Panics
    ///
    /// Panics if the two histograms use different binning laws.
    pub fn merge(&mut self, other: &LogHistogram) {
        assert!(
            self.same_law(other),
            "cannot merge histograms with different binning laws"
        );
        if self.bins.len() < other.bins.len() {
            self.bins.resize(other.bins.len(), 0);
        }
        for (dst, src) in self.bins.iter_mut().zip(&other.bins) {
            *dst += src;
        }
        self.underflow += other.underflow;
        self.count += other.count;
        self.sum += other.sum;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_matches_naive() {
        let xs: Vec<f64> = (0..1000)
            .map(|i| (i as f64 * 0.37).sin() * 5.0 + 10.0)
            .collect();
        let mut w = Welford::new();
        for &x in &xs {
            w.push(x);
        }
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / xs.len() as f64;
        assert!((w.mean() - mean).abs() < 1e-10);
        assert!((w.population_variance() - var).abs() < 1e-10);
        assert!(w.min() <= w.mean() && w.mean() <= w.max());
    }

    #[test]
    fn welford_merge_equals_sequential() {
        let xs: Vec<f64> = (0..500).map(|i| i as f64 * 0.1).collect();
        let mut all = Welford::new();
        let mut a = Welford::new();
        let mut b = Welford::new();
        for (i, &x) in xs.iter().enumerate() {
            all.push(x);
            if i % 2 == 0 {
                a.push(x);
            } else {
                b.push(x);
            }
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert!((a.mean() - all.mean()).abs() < 1e-10);
        assert!((a.population_variance() - all.population_variance()).abs() < 1e-8);
    }

    #[test]
    fn sq_coeff_var_of_constant_is_zero() {
        let mut w = Welford::new();
        for _ in 0..10 {
            w.push(3.0);
        }
        assert_eq!(w.sq_coeff_var(), 0.0);
    }

    #[test]
    fn empty_welford_is_benign() {
        let w = Welford::new();
        assert_eq!(w.count(), 0);
        assert_eq!(w.mean(), 0.0);
        assert_eq!(w.population_variance(), 0.0);
        assert_eq!(w.sq_coeff_var(), 0.0);
    }

    #[test]
    fn percentiles() {
        let mut r = ResponseStats::new();
        for i in 1..=100 {
            r.push(i as f64);
        }
        assert_eq!(r.percentile(0.0), 1.0);
        assert_eq!(r.percentile(1.0), 100.0);
        let p50 = r.percentile(0.5);
        assert!((49.0..=51.0).contains(&p50));
        assert!((r.mean() - 50.5).abs() < 1e-12);
        assert!((r.mean_ms() - 50500.0).abs() < 1e-9);
    }

    #[test]
    fn percentile_empty_is_zero() {
        let mut r = ResponseStats::new();
        assert_eq!(r.percentile(0.5), 0.0);
        let mut s = ResponseStats::streaming();
        assert_eq!(s.percentile(0.5), 0.0);
    }

    #[test]
    fn streaming_response_stats_match_welford_exactly() {
        let xs = seeded_samples(0xABCD, 4000);
        let mut exact = ResponseStats::new();
        let mut streamed = ResponseStats::streaming();
        for &x in &xs {
            exact.push(x);
            streamed.push(x);
        }
        assert!(streamed.histogram.is_some() && exact.histogram.is_none());
        // Moments are Welford-derived in both modes: identical bits.
        assert_eq!(exact.count(), streamed.count());
        assert_eq!(exact.mean().to_bits(), streamed.mean().to_bits());
        assert_eq!(exact.std_dev().to_bits(), streamed.std_dev().to_bits());
        assert_eq!(exact.max().to_bits(), streamed.max().to_bits());
        // Percentiles agree to within one log-spaced bin.
        let ratio = LogHistogram::response_times().ln_ratio.exp();
        for q in [0.5, 0.95, 0.99] {
            let est = streamed.percentile(q);
            let truth = exact.percentile(q);
            assert!(
                est / truth <= ratio * (1.0 + 1e-12) && truth / est <= ratio * (1.0 + 1e-12),
                "q {q}: streaming {est} vs exact {truth}"
            );
        }
    }

    /// Deterministic pseudo-random response-time-like samples (seconds).
    fn seeded_samples(seed: u64, n: usize) -> Vec<f64> {
        let mut x = seed;
        (0..n)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                // Spread over ~3 decades: 0.1 ms .. 100 ms.
                let u = (x >> 11) as f64 / (1u64 << 53) as f64;
                1e-4 * 10f64.powf(3.0 * u)
            })
            .collect()
    }

    #[test]
    fn log_histogram_percentiles_within_one_bin_of_exact() {
        for seed in [3u64, 17, 0x5EED] {
            let xs = seeded_samples(seed, 4000);
            let mut h = LogHistogram::response_times();
            let mut exact = ResponseStats::new();
            for &x in &xs {
                h.push(x);
                exact.push(x);
            }
            let ratio = h.ln_ratio.exp();
            for q in [0.5, 0.95, 0.99] {
                let est = h.quantile(q);
                let truth = exact.percentile(q);
                // Same nearest-rank convention, so the estimate's bin
                // contains the exact order statistic: the two values agree
                // to within one bin width (a factor of `ratio`).
                assert!(
                    est / truth <= ratio * (1.0 + 1e-12) && truth / est <= ratio * (1.0 + 1e-12),
                    "seed {seed} q {q}: estimate {est} vs exact {truth} (ratio {ratio})"
                );
            }
            assert_eq!(h.count(), exact.count());
            assert!((h.mean() - exact.mean()).abs() <= 1e-12 * exact.mean());
        }
    }

    #[test]
    fn log_histogram_merge_is_associative_and_exact() {
        let xs = seeded_samples(99, 3000);
        let thirds: Vec<LogHistogram> = xs
            .chunks(1000)
            .map(|chunk| {
                let mut h = LogHistogram::response_times();
                for &x in chunk {
                    h.push(x);
                }
                h
            })
            .collect();
        let [a, b, c] = [&thirds[0], &thirds[1], &thirds[2]];
        // (a ⊕ b) ⊕ c
        let mut left = a.clone();
        left.merge(b);
        left.merge(c);
        // a ⊕ (b ⊕ c)
        let mut bc = b.clone();
        bc.merge(c);
        let mut right = a.clone();
        right.merge(&bc);
        assert_eq!(left.bins, right.bins, "bin counts must merge associatively");
        assert_eq!(left.count(), right.count());
        assert_eq!(left.underflow, right.underflow);
        for q in [0.1, 0.5, 0.9, 0.99] {
            assert_eq!(left.quantile(q), right.quantile(q));
        }
        // The merged histogram equals the sequentially-filled one bin for bin.
        let mut all = LogHistogram::response_times();
        for &x in &xs {
            all.push(x);
        }
        assert_eq!(left.bins, all.bins);
        assert_eq!(left.count(), all.count());
    }

    #[test]
    fn log_histogram_underflow_and_degenerate_inputs() {
        let mut h = LogHistogram::new(1e-5, 10);
        h.push(0.0);
        h.push(f64::NAN);
        h.push(f64::INFINITY);
        assert_eq!(h.count(), 3);
        assert_eq!(h.underflow, 3);
        // All mass below the origin: quantiles report the origin.
        assert_eq!(h.quantile(0.5), 1e-5);
        assert_eq!(h.sum(), 0.0, "non-finite samples add nothing to the sum");
        let empty = LogHistogram::response_times();
        assert_eq!(empty.quantile(0.99), 0.0);
        assert_eq!(empty.mean(), 0.0);
    }

    #[test]
    #[should_panic(expected = "different binning laws")]
    fn log_histogram_rejects_mismatched_merge() {
        let mut a = LogHistogram::new(1e-5, 10);
        let b = LogHistogram::new(1e-5, 20);
        a.merge(&b);
    }

    #[test]
    fn histogram_bins_and_overflow() {
        let mut h = Histogram::new(0.0, 1.0, 4);
        for x in [0.1, 0.3, 0.6, 0.9, -0.1, 1.0, 2.0] {
            h.push(x);
        }
        assert_eq!(h.bin_count(0), 1);
        assert_eq!(h.bin_count(1), 1);
        assert_eq!(h.bin_count(2), 1);
        assert_eq!(h.bin_count(3), 1);
        assert_eq!(h.underflow, 1);
        assert_eq!(h.overflow(), 2);
        assert_eq!(h.total(), 7);
        assert_eq!(h.bin_bounds(1), (0.25, 0.5));
        assert_eq!(h.num_bins(), 4);
    }
}
