//! Order statistics the ledger reports: medians, percentiles that the
//! sample supports, and the quartile spread the acceptance run uses.

/// Sorts ascending. Samples are times and counts, never NaN.
pub fn sort(values: &mut [f64]) {
    values.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
}

/// Median of a sorted, non-empty sample.
pub fn median(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Sorts and takes the median.
pub fn median_of(mut values: Vec<f64>) -> f64 {
    sort(&mut values);
    median(&values)
}

/// The `p`-th percentile (nearest rank) of a sorted sample, or `None` when
/// fewer than ten samples lie beyond it — a tail read off fewer points is
/// one slow request, not a percentile.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    let n = sorted.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    (rank >= 1 && n - rank.min(n) >= 10).then(|| sorted[rank - 1])
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// computes them (the exclusive method) — the acceptance run's definition.
pub fn quartiles(sorted: &[f64]) -> Option<(f64, f64)> {
    let ld = sorted.len();
    if ld < 2 {
        return None;
    }
    let cut = |i: usize| {
        let j = (i * (ld + 1) / 4).clamp(1, ld - 1);
        let delta = (i * (ld + 1)) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Distance between the quartiles as a share of the median.
pub fn quartile_spread(sorted: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(sorted)?;
    let m = median(sorted);
    (m != 0.0).then(|| (q3 - q1) / m.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|x| x as f64).collect()
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[1.0, 2.0, 9.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 4.0, 9.0]), 3.0);
        assert_eq!(median_of(vec![9.0, 1.0, 4.0, 2.0]), 3.0);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        // p95 of 200 is rank 190: exactly ten samples lie beyond.
        assert_eq!(percentile(&ramp(200), 95.0), Some(190.0));
        assert_eq!(percentile(&ramp(199), 95.0), None, "rank 190 of 199 leaves nine");
        // p99 needs a thousand.
        assert_eq!(percentile(&ramp(1000), 99.0), Some(990.0));
        assert_eq!(percentile(&ramp(999), 99.0), None);
        assert_eq!(percentile(&ramp(20), 50.0), Some(10.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&ramp(10)), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[1.0, 2.0, 4.0, 8.0, 16.0]), Some((1.5, 12.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(quartile_spread(&ramp(10)), Some(1.0));
    }
}
