//! Order statistics for latency rows and for `compare`.

/// Quartiles by the exclusive method — the numbers Python's
/// `statistics.quantiles(values, n=4)` returns, so `compare` and whoever
/// checks the benchmark from outside agree on a spread to the last digit.
/// A single sample is its own quartiles.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(!values.is_empty(), "quartiles of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 1 {
        return [v[0]; 3];
    }
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    [cut(1), cut(2), cut(3)]
}

/// The median; of no samples, NaN — which makes the run that reports it
/// incorrect instead of aborting it.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    quartiles(values)[1]
}

/// The interquartile mean: the mean of what is left when the lowest and the
/// highest quarter of the samples (rounded down) are dropped. A stray slow op
/// moves it as little as it moves the median, yet where the samples come
/// from two levels it moves with their shares and does not jump from one
/// level to the other. Of no samples, NaN, as for `median`.
pub fn midmean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let middle = &v[v.len() / 4..v.len() - v.len() / 4];
    middle.iter().sum::<f64>() / middle.len() as f64
}

/// Distance between the quartiles as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// The highest of the usual tail percentiles that still has at least ten
/// samples beyond it; `None` when not even the median does. At the ~30
/// samples a run collects per op type this is 50, which is why only the
/// median gates.
pub fn tail_percentile(n: usize) -> Option<f64> {
    // In per mille, so that "ten beyond" is decided in whole numbers.
    [999, 990, 950, 900, 750, 500]
        .into_iter()
        .find(|per_mille| n * (1_000 - per_mille) >= 10_000)
        .map(|per_mille| per_mille as f64 / 10.0)
}

/// Nearest-rank percentile (`p` in 0..=100) of a non-empty sample.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        // statistics.quantiles([10, 20, 30, 40], n=4) == [12.5, 25.0, 37.5]
        assert_eq!(quartiles(&[40.0, 10.0, 30.0, 20.0]), [12.5, 25.0, 37.5]);
        assert_eq!(quartiles(&[7.0]), [7.0; 3]);
    }

    #[test]
    fn midmean_drops_a_quarter_at_each_end() {
        // Twelve samples: three go at each end, six stay.
        let mut v: Vec<f64> = (1..=12).map(f64::from).collect();
        assert_eq!(midmean(&v), 6.5);
        // A stray slow op is among the dropped.
        v[11] = 1_000.0;
        assert_eq!(midmean(&v), 6.5);
        // Two levels: the value follows their shares, where the median jumps.
        let levels = |slow: usize| -> Vec<f64> {
            (0..12)
                .map(|i| if i < slow { 125.0 } else { 100.0 })
                .collect()
        };
        assert_eq!(midmean(&levels(3)), 100.0);
        assert_eq!(midmean(&levels(5)), 100.0 + 25.0 * 2.0 / 6.0);
        assert_eq!(midmean(&levels(6)), 112.5);
        assert_eq!(midmean(&levels(9)), 125.0);
        // Fewer than four samples: nothing to drop.
        assert_eq!(midmean(&[1.0, 2.0, 6.0]), 3.0);
        assert!(midmean(&[]).is_nan());
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(spread(&v), 5.5 / 5.5);
        assert_eq!(spread(&[4.0, 4.0, 4.0]), 0.0);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(30), Some(50.0));
        assert_eq!(tail_percentile(39), Some(50.0));
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 5.0);
        assert_eq!(percentile(&v, 90.0), 9.0);
        assert_eq!(percentile(&v, 100.0), 10.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
    }
}
