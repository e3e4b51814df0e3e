//! Properties of `ziv-common`'s statistics and seqlock:
//!
//! - Welford/Chan moments agree with the naive two-pass formulas,
//!   Student-t critical values are monotone in both arguments, and
//!   every confidence interval is internally consistent;
//! - `Log2Histogram::percentile` agrees with the histogram's own CDF
//!   and stays monotone and within the recorded value range;
//! - a seqlock reader returns a payload written entirely by one write
//!   section, or refuses, and never a mix of two.

mod support;

use std::sync::atomic::{AtomicU64, Ordering};
use support::{property, NO_OPS};
use ziv::common::seqlock;
use ziv::common::stats::{student_t_two_sided, Confidence, Log2Histogram, RunningMoments};
use ziv::common::SimRng;

/// `lo..hi` values (the count drawn uniformly), uniform in
/// `[-bound, bound)`.
fn values(rng: &mut SimRng, bound: f64, lo: u64, hi: u64) -> Vec<f64> {
    (0..rng.range(lo, hi))
        .map(|_| (rng.next_f64() * 2.0 - 1.0) * bound)
        .collect()
}

fn moments(values: impl IntoIterator<Item = f64>) -> RunningMoments {
    let mut m = RunningMoments::new();
    for v in values {
        m.push(v);
    }
    m
}

/// Welford's streaming update matches the naive two-pass mean and
/// unbiased variance.
#[test]
fn running_moments_match_the_two_pass_formulas() {
    property(
        "running_moments_match_the_two_pass_formulas",
        256,
        |rng| ((), values(rng, 1e6, 2, 100)),
        |_, values| {
            if values.len() < 2 {
                return; // no sample variance to compare
            }
            let m = moments(values.iter().copied());
            let n = values.len() as f64;
            let mean = values.iter().sum::<f64>() / n;
            let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (n - 1.0);
            assert_eq!(m.count(), values.len() as u64);
            let got_mean = m.mean().expect("non-empty");
            assert!(
                (got_mean - mean).abs() <= 1e-6 * (1.0 + mean.abs()),
                "mean {got_mean} vs naive {mean}"
            );
            let got_var = m.sample_variance().expect("n >= 2");
            assert!(
                (got_var - var).abs() <= 1e-5 * (1.0 + var.abs()),
                "variance {got_var} vs naive {var}"
            );
        },
    );
}

/// Chan's parallel merge equals pushing the concatenated sample, the
/// law that makes per-interval moments combinable. Each value carries
/// the side it is pushed on.
#[test]
fn merging_moments_equals_pushing_the_concatenation() {
    property(
        "merging_moments_equals_pushing_the_concatenation",
        256,
        |rng| {
            let mut sample: Vec<(f64, bool)> = values(rng, 1e6, 0, 50)
                .into_iter()
                .map(|v| (v, false))
                .collect();
            sample.extend(values(rng, 1e6, 0, 50).into_iter().map(|v| (v, true)));
            ((), sample)
        },
        |_, sample| {
            let side = |right: bool| sample.iter().filter(move |s| s.1 == right).map(|s| s.0);
            let mut left = moments(side(false));
            left.merge(&moments(side(true)));
            let whole = moments(side(false).chain(side(true)));
            assert_eq!(left.count(), whole.count());
            if let (Some(x), Some(y)) = (left.mean(), whole.mean()) {
                assert!((x - y).abs() <= 1e-6 * (1.0 + y.abs()), "mean {x} vs {y}");
            }
            if let (Some(x), Some(y)) = (left.sample_variance(), whole.sample_variance()) {
                assert!(
                    (x - y).abs() <= 1e-4 * (1.0 + y.abs()),
                    "variance {x} vs {y}"
                );
            }
        },
    );
}

/// Intervals bracket their mean, nest by confidence level, and
/// `excludes_zero` is exactly "both bounds on one side of zero".
#[test]
fn confidence_intervals_are_nested_and_consistent() {
    property(
        "confidence_intervals_are_nested_and_consistent",
        256,
        |rng| ((), values(rng, 1e3, 2, 60)),
        |_, values| {
            if values.len() < 2 {
                return; // no interval without a sample variance
            }
            let m = moments(values.iter().copied());
            let c90 = m.confidence_interval(Confidence::P90).expect("n >= 2");
            let c95 = m.confidence_interval(Confidence::P95).expect("n >= 2");
            let c99 = m.confidence_interval(Confidence::P99).expect("n >= 2");
            assert!(c90.half_width <= c95.half_width);
            assert!(c95.half_width <= c99.half_width);
            for ci in [c90, c95, c99] {
                assert!(ci.half_width >= 0.0);
                assert!(ci.low() <= ci.mean && ci.mean <= ci.high());
                assert!(ci.contains(ci.mean));
                assert_eq!(
                    ci.excludes_zero(),
                    ci.low() > 0.0 || ci.high() < 0.0,
                    "excludes_zero disagrees with bounds [{}, {}]",
                    ci.low(),
                    ci.high()
                );
            }
        },
    );
}

/// Non-finite samples are dropped without perturbing the moments: the
/// streaming counterpart of `mean`'s NaN/Inf rejection.
#[test]
fn non_finite_samples_never_perturb_the_moments() {
    property(
        "non_finite_samples_never_perturb_the_moments",
        256,
        |rng| (rng.below_usize(50), values(rng, 1e6, 1, 50)),
        |&poison_at, values| {
            let mut clean = RunningMoments::new();
            let mut poisoned = RunningMoments::new();
            for (i, &v) in values.iter().enumerate() {
                clean.push(v);
                poisoned.push(v);
                if i == poison_at % values.len() {
                    poisoned.push(f64::NAN);
                    poisoned.push(f64::INFINITY);
                    poisoned.push(f64::NEG_INFINITY);
                }
            }
            assert_eq!(clean, poisoned);
        },
    );
}

/// The critical-value table: non-increasing in degrees of freedom (the
/// band selection for untabulated df is conservative, never narrower),
/// strictly ordered across confidence levels, and approaching the
/// normal quantiles asymptotically.
#[test]
fn student_t_critical_values_are_monotone() {
    for conf in [Confidence::P90, Confidence::P95, Confidence::P99] {
        let mut prev = f64::INFINITY;
        for df in 1..=2000 {
            let t = student_t_two_sided(conf, df);
            assert!(t <= prev, "{conf:?} df={df}: {t} > {prev}");
            prev = t;
        }
    }
    for df in [1, 5, 30, 100, 5000] {
        let t90 = student_t_two_sided(Confidence::P90, df);
        let t95 = student_t_two_sided(Confidence::P95, df);
        let t99 = student_t_two_sided(Confidence::P99, df);
        assert!(t90 < t95 && t95 < t99, "df={df}");
    }
    assert_eq!(student_t_two_sided(Confidence::P95, 10_000), 1.960);
}

/// 1 to 199 samples below one million, the count drawn uniformly.
fn samples(rng: &mut SimRng) -> Vec<u64> {
    (0..rng.range(1, 200))
        .map(|_| rng.below(1_000_000))
        .collect()
}

/// A quantile in `[0, 1]`, both ends included.
fn quantile(rng: &mut SimRng) -> f64 {
    match rng.below(8) {
        0 => 0.0,
        1 => 1.0,
        _ => rng.next_f64(),
    }
}

fn histogram_of(values: &[u64]) -> Log2Histogram {
    let mut h = Log2Histogram::new();
    for &v in values {
        h.record(v);
    }
    h
}

/// The lower edge of the lowest non-empty bucket.
fn lowest_edge(h: &Log2Histogram) -> f64 {
    let lowest = (0..64)
        .find(|&k| h.count_in_bucket(k) > 0)
        .expect("non-empty histogram has a non-empty bucket");
    if lowest == 0 {
        0.0
    } else {
        (1u64 << lowest) as f64
    }
}

/// The CDF round-trip. `q = fraction_below_pow2(k)` is the exact share
/// of samples strictly below `2^k`. When some sample lies below, the
/// percentile at `q` is at most `2^k` (up to float slack). When none
/// does, `q` is 0 and the percentile is the lowest bucket's lower edge,
/// which is at least `2^k`.
#[test]
fn percentile_of_cdf_fraction_respects_the_threshold() {
    property(
        "percentile_of_cdf_fraction_respects_the_threshold",
        256,
        |rng| (rng.range(1, 20) as usize, samples(rng)),
        |&k, values| {
            let h = histogram_of(values);
            let q = h.fraction_below_pow2(k);
            let p = h.percentile(q).expect("non-empty histogram");
            let threshold = (1u128 << k) as f64;
            if q > 0.0 {
                assert!(
                    p <= threshold * (1.0 + 1e-9),
                    "percentile({q}) = {p} exceeds 2^{k} = {threshold}"
                );
            } else {
                assert_eq!(p, lowest_edge(&h), "percentile(0.0) is not the lowest edge");
                assert!(
                    p >= threshold,
                    "no sample below 2^{k}, yet {p} < {threshold}"
                );
            }
        },
    );
}

/// Percentiles never move down as the quantile moves up.
#[test]
fn percentile_is_monotone_in_the_quantile() {
    property(
        "percentile_is_monotone_in_the_quantile",
        256,
        |rng| ((quantile(rng), quantile(rng)), samples(rng)),
        |&(qa, qb), values| {
            let h = histogram_of(values);
            let (lo, hi) = if qa <= qb { (qa, qb) } else { (qb, qa) };
            let plo = h.percentile(lo).expect("non-empty");
            let phi = h.percentile(hi).expect("non-empty");
            assert!(
                plo <= phi,
                "percentile({lo}) = {plo} > percentile({hi}) = {phi}"
            );
        },
    );
}

/// `percentile(0.0)` is the infimum of the recorded value range (the
/// lower edge of the lowest non-empty bucket, never a bare 0) and
/// lower-bounds every other quantile.
#[test]
fn percentile_zero_is_the_lower_edge_of_the_lowest_bucket() {
    property(
        "percentile_zero_is_the_lower_edge_of_the_lowest_bucket",
        256,
        |rng| (quantile(rng), samples(rng)),
        |&q, values| {
            let h = histogram_of(values);
            let p0 = h.percentile(0.0).expect("non-empty");
            assert_eq!(p0, lowest_edge(&h));
            assert!(p0 <= h.percentile(q).expect("non-empty"));
        },
    );
}

/// Every percentile stays inside the recorded buckets' value range: at
/// most one bucket above the largest sample, never below zero.
#[test]
fn percentile_is_bounded_by_the_bucket_holding_the_max() {
    property(
        "percentile_is_bounded_by_the_bucket_holding_the_max",
        256,
        |rng| (quantile(rng), samples(rng)),
        |&q, values| {
            let h = histogram_of(values);
            let p = h.percentile(q).expect("non-empty");
            let top = h.max_bucket().expect("non-empty");
            let ceiling = (1u128 << (top + 1)) as f64;
            assert!(p >= 0.0);
            assert!(
                p <= ceiling,
                "percentile({q}) = {p} above bucket ceiling {ceiling}"
            );
        },
    );
}

const WORDS: usize = 6;

/// The payload written by section `g`: every word a distinct affine
/// function of `g`, so any torn mix fails validation.
fn payload_for(g: u64) -> [u64; WORDS] {
    let mut p = [0u64; WORDS];
    for (i, w) in p.iter_mut().enumerate() {
        *w = g.wrapping_mul(1_000_003).wrapping_add(i as u64 * 97 + 1);
    }
    p
}

fn segment() -> (AtomicU64, Vec<AtomicU64>) {
    (
        AtomicU64::new(0),
        (0..WORDS).map(|_| AtomicU64::new(0)).collect(),
    )
}

/// Sequential write/read round-trips: after N sections, a read returns
/// section N's payload and an even sequence of 2N.
#[test]
fn read_after_writes_returns_the_last_section() {
    property(
        "read_after_writes_returns_the_last_section",
        256,
        |rng| (rng.range(1, 200), NO_OPS),
        |&sections, _| {
            let (seq, data) = segment();
            for g in 1..=sections {
                seqlock::write_words(&seq, &data, &payload_for(g));
            }
            let mut out = [0u64; WORDS];
            let got = seqlock::read_words(&seq, &data, &mut out).expect("no writer in flight");
            assert_eq!(got, 2 * sections);
            assert_eq!(out, payload_for(sections));
        },
    );
}

/// A reader that starts while a write section is open refuses rather
/// than returning the half-written payload, however many words the
/// writer has stored so far.
#[test]
fn mid_section_reads_refuse() {
    property(
        "mid_section_reads_refuse",
        256,
        |rng| ((rng.below_usize(WORDS + 1), rng.below(50)), NO_OPS),
        |&(words_written, prior), _| {
            let (seq, data) = segment();
            for g in 1..=prior {
                seqlock::write_words(&seq, &data, &payload_for(g));
            }
            // Open a section by hand and store a prefix of the next payload.
            let odd = seqlock::begin_write(&seq);
            let next = payload_for(prior + 1);
            for (d, &w) in data.iter().zip(&next).take(words_written) {
                d.store(w, Ordering::Relaxed);
            }
            let mut out = [0u64; WORDS];
            assert_eq!(seqlock::read_words(&seq, &data, &mut out), None);
            // Closing the section makes the payload readable again.
            for (d, &w) in data.iter().zip(&next).skip(words_written) {
                d.store(w, Ordering::Relaxed);
            }
            seqlock::end_write(&seq, odd);
            let got = seqlock::read_words(&seq, &data, &mut out).expect("section closed");
            assert_eq!(got, 2 * (prior + 1));
            assert_eq!(out, next);
        },
    );
}

/// A schedule of whole write sections between single-shot read
/// attempts: every read succeeds, its sequence identifies the last
/// section, and its payload is exactly that section's.
#[test]
fn interleaved_sections_never_leak_a_mix() {
    property(
        "interleaved_sections_never_leak_a_mix",
        256,
        |rng| {
            (
                (),
                (0..rng.range(1, 120)).map(|_| rng.chance(0.5)).collect(),
            )
        },
        |_, schedule| {
            let (seq, data) = segment();
            let mut g = 1u64;
            seqlock::write_words(&seq, &data, &payload_for(g));
            for (i, &write) in schedule.iter().enumerate() {
                if write {
                    g += 1;
                    seqlock::write_words(&seq, &data, &payload_for(g));
                } else {
                    let mut out = [0u64; WORDS];
                    let s = seqlock::read_words(&seq, &data, &mut out)
                        .unwrap_or_else(|| panic!("step {i}: no writer in flight, yet refused"));
                    assert_eq!(s, 2 * g, "step {i}: sequence identifies the section");
                    assert_eq!(out, payload_for(g), "step {i}: payload mixes sections");
                }
            }
        },
    );
}

/// `read` with a closure keeps the same refuse-or-consistent contract,
/// and its bounded retry budget means a wedged writer (a section never
/// closed) cannot hang the reader.
#[test]
fn wedged_writer_cannot_hang_a_reader() {
    property(
        "wedged_writer_cannot_hang_a_reader",
        256,
        |rng| (rng.below(20), NO_OPS),
        |&prior, _| {
            let seq = AtomicU64::new(0);
            let data = AtomicU64::new(0);
            for g in 1..=prior {
                seqlock::write_with(&seq, || data.store(g, Ordering::Relaxed));
            }
            let _odd = seqlock::begin_write(&seq); // never closed
            let r = seqlock::read(&seq, seqlock::MAX_READ_RETRIES, || {
                data.load(Ordering::Relaxed)
            });
            assert_eq!(r, None, "bounded retries must give up on a wedged writer");
        },
    );
}
