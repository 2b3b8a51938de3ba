//! Order statistics for timings and run-to-run spreads.

/// The tail percentile printed next to the median. Each workload runs at
/// least [`MIN_TAIL_SAMPLES`] ops, so at least ten samples lie beyond it.
pub const TAIL_PERCENTILE: f64 = 80.0;

/// The op count at which [`TAIL_PERCENTILE`] has ten samples beyond it.
pub const MIN_TAIL_SAMPLES: usize = 50;

/// Consecutive groups a run's ops are split into for the throughput median.
pub const THROUGHPUT_GROUPS: usize = 5;

/// The median over `groups` consecutive, equal-count groups of
/// `(seconds, items)` samples of each group's items per second. A slow
/// stretch of the host that covers fewer than half the groups leaves it
/// unchanged.
///
/// # Panics
///
/// Panics on no samples or zero groups.
pub fn median_group_rate(samples: &[(f64, f64)], groups: usize) -> f64 {
    assert!(!samples.is_empty() && groups > 0, "rate of no samples");
    let size = samples.len().div_ceil(groups);
    let rates: Vec<f64> = samples
        .chunks(size)
        .map(|group| {
            let (seconds, items) = group
                .iter()
                .fold((0.0, 0.0), |(s, n), &(ds, dn)| (s + ds, n + dn));
            items / seconds
        })
        .collect();
    median(&rates)
}

/// Nearest-rank percentile of an ascending slice: the smallest sample with
/// at least `p` percent of the samples at or below it.
///
/// # Panics
///
/// Panics on an empty slice or `p` outside `(0, 100]`.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    sorted[percentile_rank(sorted.len(), p) - 1]
}

/// The 1-based rank [`percentile`] reports for `n` samples.
///
/// # Panics
///
/// Panics when `n` is zero or `p` is outside `(0, 100]`.
pub fn percentile_rank(n: usize, p: f64) -> usize {
    assert!(n > 0, "percentile of no samples");
    assert!(p > 0.0 && p <= 100.0, "percentile {p} out of range");
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// How many samples rank after the reported percentile.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - percentile_rank(n, p)
}

/// The median (mean of the middle pair for even counts).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let sorted = sorted(values);
    let n = sorted.len();
    assert!(n > 0, "median of no values");
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// First and third quartiles exactly as Python's
/// `statistics.quantiles(values, n=4)` computes them (the default
/// "exclusive" method), so spreads here match the acceptance check's.
///
/// # Panics
///
/// Panics with fewer than two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let data = sorted(values);
    let ld = data.len();
    assert!(ld >= 2, "quartiles need at least two values");
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// The ascending copy of `values`.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut out = values.to_vec();
    out.sort_by(f64::total_cmp);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_leaves_ten_samples_beyond_at_the_op_floor() {
        for n in MIN_TAIL_SAMPLES..2_000 {
            assert!(
                samples_beyond(n, TAIL_PERCENTILE) >= 10,
                "{n} samples leave only {} beyond p{TAIL_PERCENTILE}",
                samples_beyond(n, TAIL_PERCENTILE)
            );
        }
        assert!(samples_beyond(MIN_TAIL_SAMPLES - 1, TAIL_PERCENTILE) < 10);
    }

    #[test]
    fn group_rate_ignores_a_slow_stretch() {
        // 50 ops of 0.1 s delivering 8 items each, the last tenth twice as
        // slow: one of five groups is slow, the median group is not.
        let samples: Vec<(f64, f64)> = (0..50)
            .map(|i| (if i >= 45 { 0.2 } else { 0.1 }, 8.0))
            .collect();
        for n in [50, 3] {
            let rate = median_group_rate(&samples[..n], THROUGHPUT_GROUPS);
            assert!((rate - 80.0).abs() < 1e-9, "{n} samples: {rate}");
        }
    }

    #[test]
    fn nearest_rank_percentiles() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&values, 50.0), 50.0);
        assert_eq!(percentile(&values, 80.0), 80.0);
        assert_eq!(percentile(&values, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 80.0), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&values), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
