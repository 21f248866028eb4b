//! Order statistics shared by the passes and `compare`.

/// The median of `values` (the mean of the middle pair for an even
/// count), or `None` when there are none.
pub fn median(values: &[f64]) -> Option<f64> {
    let sorted = sorted(values);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// First and third quartile by the "exclusive" method of Python's
/// `statistics.quantiles(values, n=4)`, so spreads read the same as the
/// ones an external harness computes. `None` below two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let data = sorted(values);
    let len = data.len();
    if len < 2 {
        return None;
    }
    let m = len + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Interquartile range as a share of the median: the run-to-run spread a
/// bound is compared against.
pub fn relative_spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let mid = median(values)?;
    (mid != 0.0).then(|| (q3 - q1) / mid.abs())
}

/// Percentiles a tail may be reported at, in per mille, highest first.
const TAIL_PER_MILLE: [usize; 5] = [999, 990, 950, 900, 750];

/// The highest percentile in [`TAIL_PER_MILLE`] that has at least ten
/// samples beyond its nearest-rank value, as `(percent, value)`; `None`
/// when even the 75th percentile has fewer than ten samples above it.
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    let data = sorted(values);
    let n = data.len();
    let rank = |per_mille: usize| (per_mille * n).div_ceil(1000);
    let per_mille = TAIL_PER_MILLE.into_iter().find(|&pm| n - rank(pm) >= 10)?;
    Some((per_mille as f64 / 10.0, data[rank(per_mille) - 1]))
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    data
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&values), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
        let spread = relative_spread(&values).unwrap();
        assert!((spread - 5.5 / 5.5).abs() < 1e-12);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        let samples = |n: usize| -> Vec<f64> { (1..=n).map(|i| i as f64).collect() };
        // 600 samples: p99 leaves 6 beyond, p95 leaves 30.
        assert_eq!(tail(&samples(600)), Some((95.0, 570.0)));
        // 10 000 samples: p99.9 leaves exactly 10 beyond.
        assert_eq!(tail(&samples(10_000)), Some((99.9, 9990.0)));
        // 100 samples: p90 leaves exactly 10; p95 only 5.
        assert_eq!(tail(&samples(100)), Some((90.0, 90.0)));
        // 40 samples: p75 leaves 10.
        assert_eq!(tail(&samples(40)), Some((75.0, 30.0)));
        // 39 samples: nothing qualifies, so no tail is claimed.
        assert_eq!(tail(&samples(39)), None);
    }
}
