//! Statistics helpers: histograms (used for the Fig 18 relocation-interval
//! CDF), and aggregate summaries (geometric means, speedup ranges) used by
//! the experiment harness.

use std::fmt;

/// Geometric mean of a non-empty set of positive values.
///
/// Returns `None` for an empty input or if any value is non-positive.
///
/// # Examples
///
/// ```
/// use ziv_common::stats::geomean;
/// let g = geomean([2.0, 8.0]).unwrap();
/// assert!((g - 4.0).abs() < 1e-12);
/// ```
pub fn geomean<I: IntoIterator<Item = f64>>(values: I) -> Option<f64> {
    let mut log_sum = 0.0;
    let mut n = 0usize;
    for v in values {
        if v <= 0.0 || !v.is_finite() {
            return None;
        }
        log_sum += v.ln();
        n += 1;
    }
    if n == 0 {
        None
    } else {
        Some((log_sum / n as f64).exp())
    }
}

/// Arithmetic mean; `None` for empty input or if any value is
/// non-finite (mirroring [`geomean`]'s guard — a NaN/Inf sample would
/// otherwise silently poison the whole summary).
pub fn mean<I: IntoIterator<Item = f64>>(values: I) -> Option<f64> {
    let mut sum = 0.0;
    let mut n = 0usize;
    for v in values {
        if !v.is_finite() {
            return None;
        }
        sum += v;
        n += 1;
    }
    if n == 0 {
        None
    } else {
        Some(sum / n as f64)
    }
}

/// Summary of a set of per-workload results: mean, min, max — the paper's
/// figures annotate bars with the observed range.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Geometric mean over workloads.
    pub gmean: f64,
    /// Minimum observed value.
    pub min: f64,
    /// Maximum observed value.
    pub max: f64,
    /// Number of workloads aggregated.
    pub count: usize,
}

impl Summary {
    /// Builds a summary; returns `None` if `values` is empty or any value
    /// is non-positive (speedups are always positive).
    pub fn of(values: &[f64]) -> Option<Summary> {
        if values.is_empty() {
            return None;
        }
        let gmean = geomean(values.iter().copied())?;
        let min = values.iter().copied().fold(f64::INFINITY, f64::min);
        let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        Some(Summary {
            gmean,
            min,
            max,
            count: values.len(),
        })
    }
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:.3} [{:.3}..{:.3}] (n={})",
            self.gmean, self.min, self.max, self.count
        )
    }
}

/// A power-of-two-bucketed histogram of u64 samples.
///
/// Bucket `i` counts samples `v` with `floor(log2(max(v,1))) == i`;
/// matches the log-scaled x-axis of the paper's Fig 18.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Log2Histogram {
    buckets: Vec<u64>,
    total: u64,
}

impl Default for Log2Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Log2Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Log2Histogram {
            buckets: vec![0; 64],
            total: 0,
        }
    }

    /// Records a sample.
    ///
    /// # Examples
    ///
    /// ```
    /// use ziv_common::stats::Log2Histogram;
    /// let mut h = Log2Histogram::new();
    /// h.record(5); // bucket 2 (4..8)
    /// assert_eq!(h.count_in_bucket(2), 1);
    /// ```
    #[inline]
    pub fn record(&mut self, value: u64) {
        let b = 63 - value.max(1).leading_zeros() as usize;
        self.buckets[b] += 1;
        self.total += 1;
    }

    /// Number of samples recorded.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Count in bucket `log2`.
    pub fn count_in_bucket(&self, log2: usize) -> u64 {
        self.buckets.get(log2).copied().unwrap_or(0)
    }

    /// Cumulative fraction of samples with `log2(value) <= log2`.
    /// Returns 0.0 when the histogram is empty.
    pub fn cdf_at(&self, log2: usize) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let c: u64 = self.buckets.iter().take(log2 + 1).sum();
        c as f64 / self.total as f64
    }

    /// Fraction of samples strictly below `2^threshold_log2`.
    /// (Used for the paper's "fraction of relocation intervals < 5
    /// cycles" observation.) Because bucket `i` holds exactly the values
    /// in `[2^i, 2^(i+1))`, a power-of-two threshold lands on a bucket
    /// boundary and the result is **exact**: every sample in buckets
    /// `0..threshold_log2` is strictly below the threshold, and no
    /// sample in later buckets is.
    pub fn fraction_below_pow2(&self, threshold_log2: usize) -> f64 {
        if threshold_log2 == 0 {
            return 0.0;
        }
        self.cdf_at(threshold_log2 - 1)
    }

    /// The largest non-empty bucket index, or `None` when empty.
    pub fn max_bucket(&self) -> Option<usize> {
        self.buckets.iter().rposition(|&c| c > 0)
    }

    /// The raw per-bucket counts (index = log2 bucket), for
    /// serialization.
    pub fn buckets(&self) -> &[u64] {
        &self.buckets
    }

    /// Rebuilds a histogram from raw bucket counts (the inverse of
    /// [`Log2Histogram::buckets`]); missing trailing buckets are zero.
    ///
    /// # Panics
    ///
    /// Panics if more than 64 buckets are provided.
    pub fn from_buckets(counts: &[u64]) -> Self {
        assert!(counts.len() <= 64, "at most 64 log2 buckets");
        let mut h = Log2Histogram::new();
        h.buckets[..counts.len()].copy_from_slice(counts);
        h.total = counts.iter().sum();
        h
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Log2Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.total += other.total;
    }

    /// The value below which a fraction `q` (in `0.0..=1.0`) of the
    /// recorded samples fall, linearly interpolated within the
    /// containing power-of-two bucket. `None` when the histogram is
    /// empty; `q` outside `[0, 1]` is clamped.
    ///
    /// Bucket `i` holds values in `[2^i, 2^(i+1))` (bucket 0 holds
    /// `0..2`), so the estimate is exact at bucket boundaries and never
    /// overshoots the bucket's upper edge: for any `k` with
    /// `q = fraction_below_pow2(k) > 0`, `percentile(q) <= 2^k`.
    /// `percentile(0.0)` is the infimum of the recorded value range —
    /// the lower edge of the lowest non-empty bucket. So when no sample
    /// lies below `2^k`, `q` is 0 and `percentile(q)` is that edge,
    /// which is at least `2^k`.
    ///
    /// # Examples
    ///
    /// ```
    /// use ziv_common::stats::Log2Histogram;
    /// let mut h = Log2Histogram::new();
    /// for _ in 0..100 { h.record(4); } // all in bucket 2 ([4, 8))
    /// let p50 = h.percentile(0.50).unwrap();
    /// assert!((4.0..=8.0).contains(&p50));
    /// assert!(Log2Histogram::new().percentile(0.5).is_none());
    /// ```
    pub fn percentile(&self, q: f64) -> Option<f64> {
        if self.total == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let target = q * self.total as f64;
        if target <= 0.0 {
            // q == 0 (or a fraction so small it rounds to zero mass):
            // the infimum of the value range, i.e. the lower edge of the
            // lowest non-empty bucket — not an unconditional 0.
            let lowest = self
                .buckets
                .iter()
                .position(|&c| c > 0)
                .expect("total > 0 implies a non-empty bucket");
            let lo = if lowest == 0 {
                0.0
            } else {
                (1u64 << lowest) as f64
            };
            return Some(lo);
        }
        let mut cum = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let cum_before = cum;
            cum += c;
            if cum as f64 >= target {
                let lo = if i == 0 { 0.0 } else { (1u64 << i) as f64 };
                let hi = (1u128 << (i + 1)) as f64;
                let within = ((target - cum_before as f64) / c as f64).clamp(0.0, 1.0);
                return Some(lo + within * (hi - lo));
            }
        }
        // Float rounding pushed `target` past the final cumulative
        // count: report the upper edge of the highest non-empty bucket.
        let top = self.max_bucket().unwrap_or(0);
        Some((1u128 << (top + 1)) as f64)
    }
}

/// Confidence levels supported by the hardcoded Student-t quantile
/// table (the build is dependency-free, so the quantiles are tabulated
/// rather than computed from the incomplete beta function).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Confidence {
    /// 90% two-sided confidence.
    P90,
    /// 95% two-sided confidence.
    P95,
    /// 99% two-sided confidence.
    P99,
}

impl Confidence {
    /// The level as an integer percentage (90, 95, 99).
    pub fn percent(self) -> u8 {
        match self {
            Confidence::P90 => 90,
            Confidence::P95 => 95,
            Confidence::P99 => 99,
        }
    }

    /// Parses an integer percentage; only the tabulated levels are
    /// accepted.
    pub fn from_percent(p: u8) -> Option<Confidence> {
        match p {
            90 => Some(Confidence::P90),
            95 => Some(Confidence::P95),
            99 => Some(Confidence::P99),
            _ => None,
        }
    }
}

impl fmt::Display for Confidence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}%", self.percent())
    }
}

/// Two-sided Student-t critical values for 1..=30 degrees of freedom,
/// then the 40 / 60 / 120 / normal-asymptote rows. Columns: 90%, 95%,
/// 99%.
const STUDENT_T_TWO_SIDED: [[f64; 3]; 30] = [
    [6.314, 12.706, 63.657],
    [2.920, 4.303, 9.925],
    [2.353, 3.182, 5.841],
    [2.132, 2.776, 4.604],
    [2.015, 2.571, 4.032],
    [1.943, 2.447, 3.707],
    [1.895, 2.365, 3.499],
    [1.860, 2.306, 3.355],
    [1.833, 2.262, 3.250],
    [1.812, 2.228, 3.169],
    [1.796, 2.201, 3.106],
    [1.782, 2.179, 3.055],
    [1.771, 2.160, 3.012],
    [1.761, 2.145, 2.977],
    [1.753, 2.131, 2.947],
    [1.746, 2.120, 2.921],
    [1.740, 2.110, 2.898],
    [1.734, 2.101, 2.878],
    [1.729, 2.093, 2.861],
    [1.725, 2.086, 2.845],
    [1.721, 2.080, 2.831],
    [1.717, 2.074, 2.819],
    [1.714, 2.069, 2.807],
    [1.711, 2.064, 2.797],
    [1.708, 2.060, 2.787],
    [1.706, 2.056, 2.779],
    [1.703, 2.052, 2.771],
    [1.701, 2.048, 2.763],
    [1.699, 2.045, 2.756],
    [1.697, 2.042, 2.750],
];
const STUDENT_T_40: [f64; 3] = [1.684, 2.021, 2.704];
const STUDENT_T_60: [f64; 3] = [1.671, 2.000, 2.660];
const STUDENT_T_120: [f64; 3] = [1.658, 1.980, 2.617];
const STUDENT_T_INF: [f64; 3] = [1.645, 1.960, 2.576];

/// The two-sided Student-t critical value `t*` such that a
/// `confidence`-level interval is `mean ± t* · s/√n` with `df = n − 1`
/// degrees of freedom.
///
/// Between tabulated rows (df 31..=120) the value from the *lower* df
/// band is used — conservative: the interval is at worst slightly
/// wider than nominal, never narrower.
///
/// # Panics
///
/// Panics if `df == 0` (a single sample has no dispersion estimate).
pub fn student_t_two_sided(confidence: Confidence, df: usize) -> f64 {
    assert!(df > 0, "Student-t requires at least 1 degree of freedom");
    let col = match confidence {
        Confidence::P90 => 0,
        Confidence::P95 => 1,
        Confidence::P99 => 2,
    };
    if df <= 30 {
        STUDENT_T_TWO_SIDED[df - 1][col]
    } else if df < 40 {
        STUDENT_T_TWO_SIDED[29][col]
    } else if df < 60 {
        STUDENT_T_40[col]
    } else if df < 120 {
        STUDENT_T_60[col]
    } else if df < 1000 {
        STUDENT_T_120[col]
    } else {
        STUDENT_T_INF[col]
    }
}

/// A two-sided confidence interval `mean ± half_width` at a stated
/// confidence level.
///
/// # Examples
///
/// ```
/// use ziv_common::stats::{Confidence, ConfidenceInterval};
/// let ci = ConfidenceInterval { mean: 1.5, half_width: 0.2, confidence: Confidence::P95 };
/// assert!(ci.contains(1.4));
/// assert!(ci.excludes_zero());
/// assert_eq!(ci.low(), 1.3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConfidenceInterval {
    /// Point estimate (the sample mean).
    pub mean: f64,
    /// Half-width of the interval (`t* · s/√n`); always ≥ 0.
    pub half_width: f64,
    /// The confidence level the half-width was computed for.
    pub confidence: Confidence,
}

impl ConfidenceInterval {
    /// Lower bound of the interval.
    pub fn low(&self) -> f64 {
        self.mean - self.half_width
    }

    /// Upper bound of the interval.
    pub fn high(&self) -> f64 {
        self.mean + self.half_width
    }

    /// Whether `value` lies inside the closed interval.
    pub fn contains(&self, value: f64) -> bool {
        value >= self.low() && value <= self.high()
    }

    /// Whether the interval excludes zero — the auto-stop criterion for
    /// "the ZIV-vs-inclusive delta is statistically resolved".
    pub fn excludes_zero(&self) -> bool {
        !self.contains(0.0)
    }

    /// Half-width as a fraction of the (absolute) mean; `None` when the
    /// mean is zero.
    pub fn relative_half_width(&self) -> Option<f64> {
        if self.mean == 0.0 {
            None
        } else {
            Some(self.half_width / self.mean.abs())
        }
    }
}

impl fmt::Display for ConfidenceInterval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:.4} ± {:.4} ({})",
            self.mean, self.half_width, self.confidence
        )
    }
}

/// Welford's online algorithm for running mean and variance — the
/// per-interval estimator accumulator of the sampling engine. Single
/// pass, O(1) state, numerically stable (no catastrophic cancellation
/// of large sums of squares).
///
/// # Examples
///
/// ```
/// use ziv_common::stats::{Confidence, RunningMoments};
/// let mut m = RunningMoments::new();
/// for v in [1.0, 2.0, 3.0, 4.0] { m.push(v); }
/// assert_eq!(m.count(), 4);
/// assert_eq!(m.mean(), Some(2.5));
/// let ci = m.confidence_interval(Confidence::P95).unwrap();
/// assert!(ci.contains(2.5));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RunningMoments {
    n: u64,
    mean: f64,
    m2: f64,
}

impl RunningMoments {
    /// An empty accumulator.
    pub fn new() -> Self {
        RunningMoments::default()
    }

    /// Adds a sample. Non-finite samples are ignored (consistent with
    /// [`mean`]'s refusal to aggregate them — here the stream must keep
    /// flowing, so the poisoned sample is dropped instead).
    pub fn push(&mut self, value: f64) {
        if !value.is_finite() {
            return;
        }
        self.n += 1;
        let delta = value - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (value - self.mean);
    }

    /// Number of (finite) samples accumulated.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean; `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        if self.n == 0 {
            None
        } else {
            Some(self.mean)
        }
    }

    /// Unbiased sample variance (`m2 / (n − 1)`); `None` when fewer
    /// than two samples.
    pub fn sample_variance(&self) -> Option<f64> {
        if self.n < 2 {
            None
        } else {
            Some(self.m2 / (self.n - 1) as f64)
        }
    }

    /// Sample standard deviation; `None` when fewer than two samples.
    pub fn sample_stddev(&self) -> Option<f64> {
        self.sample_variance().map(f64::sqrt)
    }

    /// Standard error of the mean (`s/√n`); `None` when fewer than two
    /// samples.
    pub fn standard_error(&self) -> Option<f64> {
        self.sample_stddev().map(|s| s / (self.n as f64).sqrt())
    }

    /// The Student-t confidence interval on the mean at the given
    /// level; `None` when fewer than two samples (no dispersion
    /// estimate exists).
    pub fn confidence_interval(&self, confidence: Confidence) -> Option<ConfidenceInterval> {
        let se = self.standard_error()?;
        let t = student_t_two_sided(confidence, (self.n - 1) as usize);
        Some(ConfidenceInterval {
            mean: self.mean,
            half_width: t * se,
            confidence,
        })
    }

    /// Merges another accumulator into this one (Chan's parallel
    /// update), so per-interval moments can be combined across cores.
    pub fn merge(&mut self, other: &RunningMoments) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n = self.n + other.n;
        let delta = other.mean - self.mean;
        self.mean += delta * other.n as f64 / n as f64;
        self.m2 += other.m2 + delta * delta * (self.n as f64 * other.n as f64) / n as f64;
        self.n = n;
    }
}

/// A dense 2-D grid of `u64` counters, indexed `(row, col)` — the
/// backing store for the observability heatmaps (bank × set access,
/// eviction, and relocation counts).
///
/// # Examples
///
/// ```
/// use ziv_common::stats::CountGrid;
/// let mut g = CountGrid::new(2, 4);
/// g.inc(1, 3);
/// g.inc(1, 3);
/// assert_eq!(g.get(1, 3), 2);
/// assert_eq!(g.total(), 2);
/// assert_eq!(g.row(0), &[0, 0, 0, 0]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CountGrid {
    rows: usize,
    cols: usize,
    data: Vec<u64>,
}

impl CountGrid {
    /// Creates a zeroed `rows × cols` grid.
    pub fn new(rows: usize, cols: usize) -> Self {
        CountGrid {
            rows,
            cols,
            data: vec![0; rows * cols],
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Increments cell `(row, col)` by one.
    ///
    /// # Panics
    ///
    /// Panics if the cell is out of bounds.
    #[inline]
    pub fn inc(&mut self, row: usize, col: usize) {
        self.add(row, col, 1);
    }

    /// Adds `n` to cell `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if the cell is out of bounds.
    #[inline]
    pub fn add(&mut self, row: usize, col: usize, n: u64) {
        assert!(
            row < self.rows && col < self.cols,
            "CountGrid index out of bounds"
        );
        self.data[row * self.cols + col] += n;
    }

    /// Reads cell `(row, col)`; out-of-bounds cells read as zero.
    pub fn get(&self, row: usize, col: usize) -> u64 {
        if row < self.rows && col < self.cols {
            self.data[row * self.cols + col]
        } else {
            0
        }
    }

    /// One full row as a slice (length [`CountGrid::cols`]).
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of bounds.
    pub fn row(&self, row: usize) -> &[u64] {
        assert!(row < self.rows, "CountGrid row out of bounds");
        &self.data[row * self.cols..(row + 1) * self.cols]
    }

    /// Sum of every cell.
    pub fn total(&self) -> u64 {
        self.data.iter().sum()
    }

    /// The largest single cell value (zero for an empty grid).
    pub fn max(&self) -> u64 {
        self.data.iter().copied().max().unwrap_or(0)
    }
}

/// Renders a simple aligned text table; used by the figure benches so
/// their output reads like the paper's data series.
///
/// # Examples
///
/// ```
/// use ziv_common::stats::render_table;
/// let t = render_table(
///     &["config", "speedup"],
///     &[vec!["I-LRU".into(), "1.000".into()]],
/// );
/// assert!(t.contains("I-LRU"));
/// ```
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let cols = headers.len();
    if cols == 0 {
        // No columns: nothing to align (and the separator-width
        // arithmetic below would underflow `cols - 1`).
        return String::new();
    }
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(cols) {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        let mut line = String::new();
        for (i, cell) in cells.iter().enumerate() {
            if i > 0 {
                line.push_str("  ");
            }
            line.push_str(&format!("{:<width$}", cell, width = widths[i]));
        }
        line.trim_end().to_string()
    };
    let header_cells: Vec<String> = headers.iter().map(|s| s.to_string()).collect();
    out.push_str(&fmt_row(&header_cells, &widths));
    out.push('\n');
    let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
    out.push_str(&"-".repeat(total));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_basics() {
        assert!(geomean([]).is_none());
        assert!(geomean([1.0, -1.0]).is_none());
        assert!((geomean([4.0]).unwrap() - 4.0).abs() < 1e-12);
        assert!((geomean([1.0, 4.0, 16.0]).unwrap() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn mean_basics() {
        assert!(mean([]).is_none());
        assert!((mean([1.0, 2.0, 3.0]).unwrap() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn mean_rejects_non_finite_like_geomean() {
        // Regression: a NaN/Inf sample used to propagate silently into
        // summaries; the guard now mirrors geomean's.
        assert!(mean([1.0, f64::NAN]).is_none());
        assert!(mean([f64::INFINITY]).is_none());
        assert!(mean([1.0, f64::NEG_INFINITY, 2.0]).is_none());
        assert!(mean([-1.0, 1.0]).is_some(), "negatives are still fine");
    }

    #[test]
    fn summary_tracks_range() {
        let s = Summary::of(&[0.5, 1.0, 2.0]).unwrap();
        assert!((s.gmean - 1.0).abs() < 1e-12);
        assert_eq!(s.min, 0.5);
        assert_eq!(s.max, 2.0);
        assert_eq!(s.count, 3);
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn summary_displays() {
        let s = Summary::of(&[1.0]).unwrap();
        assert!(s.to_string().contains("n=1"));
    }

    #[test]
    fn histogram_buckets_by_log2() {
        let mut h = Log2Histogram::new();
        h.record(0); // clamps to bucket 0
        h.record(1);
        h.record(2);
        h.record(3);
        h.record(1024);
        assert_eq!(h.count_in_bucket(0), 2);
        assert_eq!(h.count_in_bucket(1), 2);
        assert_eq!(h.count_in_bucket(10), 1);
        assert_eq!(h.total(), 5);
        assert_eq!(h.max_bucket(), Some(10));
    }

    #[test]
    fn histogram_cdf_is_monotone_and_reaches_one() {
        let mut h = Log2Histogram::new();
        for v in [1u64, 5, 9, 100, 5000] {
            h.record(v);
        }
        let mut prev = 0.0;
        for b in 0..64 {
            let c = h.cdf_at(b);
            assert!(c >= prev);
            prev = c;
        }
        assert!((h.cdf_at(63) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_fraction_below() {
        let mut h = Log2Histogram::new();
        h.record(2);
        h.record(3);
        h.record(100);
        // values < 4 (2^2): both bucket-1 entries.
        assert!((h.fraction_below_pow2(2) - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(h.fraction_below_pow2(0), 0.0);
    }

    #[test]
    fn fraction_below_pow2_is_exact_at_pow2_thresholds() {
        // Samples straddling the 2^3 = 8 boundary: 7 (bucket 2) is
        // strictly below, 8 and 9 (bucket 3) are not. A pow2 threshold
        // aligns with the bucket boundary, so the count is exact, not a
        // conservative approximation.
        let mut h = Log2Histogram::new();
        for v in [1u64, 7, 8, 9, 64] {
            h.record(v);
        }
        let exact = [1u64, 7, 8, 9, 64].iter().filter(|&&v| v < 8).count();
        assert_eq!(h.fraction_below_pow2(3), exact as f64 / 5.0);
        // Exactness holds at every pow2 threshold for pow2 samples too:
        // 2^k itself is never counted as "below 2^k".
        let mut p = Log2Histogram::new();
        p.record(16);
        assert_eq!(p.fraction_below_pow2(4), 0.0);
        assert_eq!(p.fraction_below_pow2(5), 1.0);
    }

    #[test]
    fn percentile_empty_histogram_is_none() {
        assert!(Log2Histogram::new().percentile(0.5).is_none());
        assert!(Log2Histogram::new().percentile(0.0).is_none());
        assert!(Log2Histogram::new().percentile(1.0).is_none());
    }

    #[test]
    fn percentile_single_bucket_interpolates_linearly() {
        // All mass in bucket 3 ([8, 16)): percentiles sweep the bucket.
        let mut h = Log2Histogram::new();
        for _ in 0..100 {
            h.record(10);
        }
        // p0 is the infimum of the recorded range: bucket 3's lower
        // edge, not 0.
        assert_eq!(h.percentile(0.0), Some(8.0));
        let p25 = h.percentile(0.25).unwrap();
        let p50 = h.percentile(0.50).unwrap();
        let p100 = h.percentile(1.0).unwrap();
        assert!((p25 - 10.0).abs() < 1e-9, "p25 = {p25}");
        assert!((p50 - 12.0).abs() < 1e-9, "p50 = {p50}");
        assert_eq!(p100, 16.0, "p100 is the bucket's upper edge");
        assert!(p25 <= p50 && p50 <= p100);
    }

    #[test]
    fn percentile_p0_and_p100_edges() {
        let mut h = Log2Histogram::new();
        h.record(3); // bucket 1
        h.record(100); // bucket 6
        assert_eq!(h.percentile(0.0), Some(2.0), "lower edge of bucket 1");
        assert_eq!(h.percentile(1.0), Some(128.0), "upper edge of bucket 6");
        // A histogram whose lowest non-empty bucket is bucket 0 still
        // reports a zero infimum.
        let mut z = Log2Histogram::new();
        z.record(1);
        assert_eq!(z.percentile(0.0), Some(0.0));
        // Out-of-range q clamps rather than extrapolating.
        assert_eq!(h.percentile(-1.0), h.percentile(0.0));
        assert_eq!(h.percentile(2.0), h.percentile(1.0));
    }

    #[test]
    fn percentile_saturating_top_bucket() {
        // u64::MAX lands in bucket 63; its upper edge 2^64 does not fit
        // in u64, so the interpolation must widen internally.
        let mut h = Log2Histogram::new();
        h.record(u64::MAX);
        let p100 = h.percentile(1.0).unwrap();
        assert_eq!(p100, (1u128 << 64) as f64);
        let p50 = h.percentile(0.5).unwrap();
        assert!(p50 >= (1u64 << 63) as f64 && p50 <= p100);
    }

    #[test]
    fn percentile_is_monotone_and_bounded_by_pow2_fractions() {
        let mut h = Log2Histogram::new();
        for v in [1u64, 2, 3, 7, 8, 9, 100, 5000, 70_000] {
            h.record(v);
        }
        let mut prev = 0.0;
        for i in 0..=100 {
            let p = h.percentile(i as f64 / 100.0).unwrap();
            assert!(p >= prev, "percentile must be monotone in q");
            prev = p;
        }
        // The bucket-boundary guarantee stated in the docs.
        for k in 1..20usize {
            let q = h.fraction_below_pow2(k);
            let p = h.percentile(q).unwrap();
            assert!(
                p <= (1u64 << k) as f64 * (1.0 + 1e-9),
                "percentile({q}) = {p} overshoots 2^{k}"
            );
        }
    }

    #[test]
    fn histogram_merge_adds() {
        let mut a = Log2Histogram::new();
        let mut b = Log2Histogram::new();
        a.record(4);
        b.record(4);
        b.record(1000);
        a.merge(&b);
        assert_eq!(a.total(), 3);
        assert_eq!(a.count_in_bucket(2), 2);
    }

    #[test]
    fn empty_histogram_cdf_is_zero() {
        let h = Log2Histogram::new();
        assert_eq!(h.cdf_at(63), 0.0);
        assert_eq!(h.max_bucket(), None);
    }

    #[test]
    fn count_grid_indexes_row_major() {
        let mut g = CountGrid::new(3, 2);
        g.inc(0, 0);
        g.inc(2, 1);
        g.add(2, 1, 4);
        assert_eq!(g.get(0, 0), 1);
        assert_eq!(g.get(2, 1), 5);
        assert_eq!(g.get(9, 9), 0, "out-of-bounds reads are zero");
        assert_eq!(g.row(2), &[0, 5]);
        assert_eq!(g.total(), 6);
        assert_eq!(g.max(), 5);
        assert_eq!(g.rows(), 3);
        assert_eq!(g.cols(), 2);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn count_grid_write_out_of_bounds_panics() {
        let mut g = CountGrid::new(1, 1);
        g.inc(1, 0);
    }

    #[test]
    fn student_t_table_is_sane() {
        // Spot checks against the standard table.
        assert_eq!(student_t_two_sided(Confidence::P95, 1), 12.706);
        assert_eq!(student_t_two_sided(Confidence::P95, 10), 2.228);
        assert_eq!(student_t_two_sided(Confidence::P99, 30), 2.750);
        assert_eq!(student_t_two_sided(Confidence::P90, 10_000), 1.645);
        // Monotone non-increasing in df, for every level.
        for conf in [Confidence::P90, Confidence::P95, Confidence::P99] {
            let mut prev = f64::INFINITY;
            for df in 1..200 {
                let t = student_t_two_sided(conf, df);
                assert!(t <= prev, "t({conf:?}, {df}) = {t} rose above {prev}");
                assert!(t >= 1.0);
                prev = t;
            }
        }
        // Wider confidence => wider quantile.
        for df in [1, 5, 30, 100] {
            assert!(
                student_t_two_sided(Confidence::P90, df) < student_t_two_sided(Confidence::P95, df)
            );
            assert!(
                student_t_two_sided(Confidence::P95, df) < student_t_two_sided(Confidence::P99, df)
            );
        }
    }

    #[test]
    #[should_panic(expected = "at least 1 degree of freedom")]
    fn student_t_zero_df_panics() {
        student_t_two_sided(Confidence::P95, 0);
    }

    #[test]
    fn running_moments_match_direct_computation() {
        let samples = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut m = RunningMoments::new();
        for &s in &samples {
            m.push(s);
        }
        assert_eq!(m.count(), 8);
        assert!((m.mean().unwrap() - 5.0).abs() < 1e-12);
        // Direct unbiased variance: sum((x-5)^2) / 7 = 32/7.
        assert!((m.sample_variance().unwrap() - 32.0 / 7.0).abs() < 1e-12);
        assert!(m.sample_stddev().unwrap() > 0.0);
        let se = m.standard_error().unwrap();
        assert!((se - (32.0f64 / 7.0).sqrt() / 8.0f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn running_moments_empty_and_singleton() {
        let mut m = RunningMoments::new();
        assert_eq!(m.count(), 0);
        assert!(m.mean().is_none());
        assert!(m.sample_variance().is_none());
        assert!(m.confidence_interval(Confidence::P95).is_none());
        m.push(3.5);
        assert_eq!(m.mean(), Some(3.5));
        assert!(
            m.confidence_interval(Confidence::P95).is_none(),
            "one sample has no dispersion estimate"
        );
    }

    #[test]
    fn running_moments_ignore_non_finite() {
        let mut m = RunningMoments::new();
        m.push(1.0);
        m.push(f64::NAN);
        m.push(f64::INFINITY);
        m.push(3.0);
        assert_eq!(m.count(), 2);
        assert_eq!(m.mean(), Some(2.0));
    }

    #[test]
    fn running_moments_merge_matches_single_stream() {
        let (left, right) = ([1.0, 2.0, 3.0], [10.0, 11.0, 12.0, 13.0]);
        let mut a = RunningMoments::new();
        let mut b = RunningMoments::new();
        let mut whole = RunningMoments::new();
        for &v in &left {
            a.push(v);
            whole.push(v);
        }
        for &v in &right {
            b.push(v);
            whole.push(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean().unwrap() - whole.mean().unwrap()).abs() < 1e-12);
        assert!(
            (a.sample_variance().unwrap() - whole.sample_variance().unwrap()).abs() < 1e-9,
            "merged variance diverged"
        );
        // Merging into/from empty is the identity.
        let mut empty = RunningMoments::new();
        empty.merge(&a);
        assert_eq!(empty, a);
        let before = a;
        a.merge(&RunningMoments::new());
        assert_eq!(a, before);
    }

    #[test]
    fn confidence_interval_geometry() {
        let ci = ConfidenceInterval {
            mean: 2.0,
            half_width: 0.5,
            confidence: Confidence::P95,
        };
        assert_eq!(ci.low(), 1.5);
        assert_eq!(ci.high(), 2.5);
        assert!(ci.contains(1.5) && ci.contains(2.5) && ci.contains(2.0));
        assert!(!ci.contains(1.49) && !ci.contains(2.51));
        assert!(ci.excludes_zero());
        assert_eq!(ci.relative_half_width(), Some(0.25));
        let straddling = ConfidenceInterval {
            mean: 0.1,
            half_width: 0.2,
            confidence: Confidence::P95,
        };
        assert!(!straddling.excludes_zero());
        let degenerate = ConfidenceInterval {
            mean: 0.0,
            half_width: 0.0,
            confidence: Confidence::P90,
        };
        assert!(degenerate.relative_half_width().is_none());
        assert!(!degenerate.excludes_zero(), "closed interval contains 0");
        assert!(ci.to_string().contains("95%"));
    }

    #[test]
    fn confidence_interval_from_moments_covers_known_mean() {
        // Samples symmetric around 10: the CI must contain 10 and be
        // wider at 99% than at 90%.
        let mut m = RunningMoments::new();
        for v in [8.0, 9.0, 10.0, 11.0, 12.0] {
            m.push(v);
        }
        let c90 = m.confidence_interval(Confidence::P90).unwrap();
        let c95 = m.confidence_interval(Confidence::P95).unwrap();
        let c99 = m.confidence_interval(Confidence::P99).unwrap();
        for ci in [&c90, &c95, &c99] {
            assert!(ci.contains(10.0));
        }
        assert!(c90.half_width < c95.half_width);
        assert!(c95.half_width < c99.half_width);
        // Exact: t(95, df=4) = 2.776, s = sqrt(2.5), se = sqrt(0.5).
        let expected = 2.776 * 0.5f64.sqrt();
        assert!((c95.half_width - expected).abs() < 1e-9);
    }

    #[test]
    fn confidence_parsing_round_trips() {
        for conf in [Confidence::P90, Confidence::P95, Confidence::P99] {
            assert_eq!(Confidence::from_percent(conf.percent()), Some(conf));
        }
        assert_eq!(Confidence::from_percent(80), None);
        assert_eq!(Confidence::from_percent(0), None);
    }

    #[test]
    fn table_with_no_headers_is_empty() {
        // Regression: `2 * (cols - 1)` underflowed usize for an empty
        // header slice and panicked.
        assert_eq!(render_table(&[], &[]), "");
        assert_eq!(render_table(&[], &[vec!["orphan".into()]]), "");
    }

    #[test]
    fn table_renders_aligned() {
        let t = render_table(
            &["a", "bee"],
            &[
                vec!["x".into(), "1".into()],
                vec!["longer".into(), "2".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("a"));
        assert!(lines[2].starts_with("x"));
    }
}
