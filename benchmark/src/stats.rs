//! Sample summaries: a reported value, quartiles and count.

use ziv_common::SimRng;

/// The value a metric reports, the first and third quartile that show
/// how far it can be trusted, and the sample count behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// The reported value: the samples' median ([`Summary::of`]) or a
    /// statistic over repetitions ([`Summary::bootstrap`]).
    pub value: f64,
    /// The first quartile.
    pub q1: f64,
    /// The third quartile.
    pub q3: f64,
    /// Number of samples summarized.
    pub n: usize,
}

impl Summary {
    /// A single measurement (value = quartiles, `n` = 1).
    pub fn single(value: f64) -> Summary {
        Summary::counted(value, 1)
    }

    /// One value standing for `n` samples (a percentile of `n` timings,
    /// a count over `n` cells).
    pub fn counted(value: f64, n: usize) -> Summary {
        Summary {
            value,
            q1: value,
            q3: value,
            n,
        }
    }

    /// `stat` over every repetition in `reps` as the value, with the
    /// quartiles of `stat` over 256 bootstrap resamples of the
    /// repetitions (drawn with a fixed seed, so the same repetitions give
    /// the same summary): the spread of the statistic itself, not of the
    /// samples it is computed from.
    ///
    /// # Panics
    ///
    /// Panics if `reps` is empty.
    pub fn bootstrap<T: Clone>(reps: &[T], stat: impl Fn(&[T]) -> f64) -> Summary {
        assert!(!reps.is_empty(), "cannot summarize an empty sample");
        let mut rng = SimRng::seed_from_u64(reps.len() as u64);
        let resampled: Vec<f64> = (0..256)
            .map(|_| {
                let draw: Vec<T> = reps
                    .iter()
                    .map(|_| reps[rng.below(reps.len() as u64) as usize].clone())
                    .collect();
                stat(&draw)
            })
            .collect();
        let spread = Summary::of(&resampled);
        Summary {
            value: stat(reps),
            q1: spread.q1,
            q3: spread.q3,
            n: reps.len(),
        }
    }

    /// Summarizes `values` with the quartiles Python's
    /// `statistics.quantiles(values, n=4)` computes (the "exclusive"
    /// method), so spreads read the same here as in any script checking
    /// them. A single value is its own median and quartiles.
    ///
    /// # Panics
    ///
    /// Panics if `values` is empty.
    pub fn of(values: &[f64]) -> Summary {
        assert!(!values.is_empty(), "cannot summarize an empty sample");
        let mut data = values.to_vec();
        data.sort_by(f64::total_cmp);
        let n = data.len();
        if n == 1 {
            return Summary::single(data[0]);
        }
        // Python's loop, including its clamp of `j` to 1..=n-1, which
        // turns `delta` negative (extrapolation) for tiny samples.
        let quartile = |i: usize| {
            let m = n + 1;
            let j = (i * m / 4).clamp(1, n - 1);
            let delta = (i * m) as f64 - (j * 4) as f64;
            (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
        };
        Summary {
            value: quartile(2),
            q1: quartile(1),
            q3: quartile(3),
            n,
        }
    }

    /// The quartile spread as a share of the value.
    pub fn spread(&self) -> f64 {
        if self.value == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.value.abs()
        }
    }
}

/// The `q`-quantile (0..=1) of `values` by nearest rank, reordering the
/// slice. Used for per-access timing percentiles, where the sample is
/// large and interpolation adds nothing.
///
/// # Panics
///
/// Panics if `values` is empty.
pub fn nearest_rank(values: &mut [u32], q: f64) -> u32 {
    assert!(!values.is_empty(), "no samples");
    let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
    *values.select_nth_unstable(rank - 1).1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_python_exclusive_quantiles() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        // == [2.75, 5.5, 8.25]
        let s = Summary::of(&[10.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0]);
        assert_eq!((s.q1, s.value, s.q3, s.n), (2.75, 5.5, 8.25, 10));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = Summary::of(&[2.0, 1.0]);
        assert_eq!((s.q1, s.value, s.q3), (0.75, 1.5, 2.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        let s = Summary::of(&[5.0, 4.0, 3.0, 2.0, 1.0]);
        assert_eq!((s.q1, s.value, s.q3), (1.5, 3.0, 4.5));
        assert_eq!(Summary::of(&[7.0]), Summary::single(7.0));
    }

    #[test]
    fn bootstrap_reports_the_statistic_and_its_own_spread() {
        let median = |v: &[f64]| Summary::of(v).value;
        let reps = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0];
        let s = Summary::bootstrap(&reps, median);
        assert_eq!((s.value, s.n), (3.5, 8));
        assert!(
            1.0 < s.q1 && s.q1 < s.value && s.value < s.q3 && s.q3 < 9.0,
            "{s:?}"
        );
        // Spread of the median, not of the samples (quartiles 1.25, 5.75).
        assert!(s.q3 - s.q1 < 4.5, "{s:?}");
        assert_eq!(s, Summary::bootstrap(&reps, median));
        let steady = Summary::bootstrap(&[2.0; 5], median);
        assert_eq!(steady, Summary::counted(2.0, 5));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let mut v: Vec<u32> = (1..=100).rev().collect();
        assert_eq!(nearest_rank(&mut v, 0.5), 50);
        assert_eq!(nearest_rank(&mut v, 0.99), 99);
        assert_eq!(nearest_rank(&mut v, 1.0), 100);
        assert_eq!(nearest_rank(&mut [3], 0.5), 3);
    }
}
