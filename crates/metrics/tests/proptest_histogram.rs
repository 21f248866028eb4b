//! Property-based tests of histogram bucketing and quantile estimation
//! against a straightforward reference implementation.

use proptest::prelude::*;

use momsynth_metrics::{HistogramSample, Registry};

/// Ascending, strictly increasing bucket bounds.
fn bounds() -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(1u32..100_000, 1..10).prop_map(|mut raw| {
        raw.sort_unstable();
        raw.dedup();
        raw.into_iter().map(|b| f64::from(b) / 100.0).collect()
    })
}

/// Observations spread across (and beyond) the bucket range.
fn observations() -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(0.0f64..2000.0, 0..200)
}

/// Reference bucketing: first bucket whose upper bound holds the value,
/// overflow past the last finite bound.
fn reference_counts(bounds: &[f64], obs: &[f64]) -> Vec<u64> {
    let mut counts = vec![0u64; bounds.len() + 1];
    for &v in obs {
        let idx = bounds.iter().position(|&b| v <= b).unwrap_or(bounds.len());
        counts[idx] += 1;
    }
    counts
}

/// The bucket `[lower, upper]` a `q`-quantile estimate must fall into:
/// the one containing the target cumulative rank.
fn reference_quantile_bucket(sample: &HistogramSample, q: f64) -> (f64, f64) {
    let target = q * sample.count as f64;
    let mut cumulative = 0u64;
    for (i, &c) in sample.counts.iter().enumerate() {
        cumulative += c;
        if (cumulative as f64) < target || c == 0 {
            continue;
        }
        let last = sample.bounds.last().copied().unwrap_or(0.0);
        let upper = sample.bounds.get(i).copied().unwrap_or(last);
        let lower = if i == 0 { 0.0 } else { sample.bounds[i - 1].min(upper) };
        return (lower, upper);
    }
    (0.0, sample.bounds.last().copied().unwrap_or(0.0))
}

fn observed_sample(bounds: &[f64], obs: &[f64]) -> HistogramSample {
    let registry = Registry::new();
    let histogram = registry.histogram("momsynth_test_seconds", "test", bounds, &[]);
    for &v in obs {
        histogram.observe(v);
    }
    registry
        .snapshot()
        .histogram_sample("momsynth_test_seconds", &[])
        .expect("registered family")
        .clone()
}

proptest! {
    #[test]
    fn bucketing_matches_the_reference(bounds in bounds(), obs in observations()) {
        let sample = observed_sample(&bounds, &obs);
        prop_assert_eq!(&sample.counts, &reference_counts(&bounds, &obs));
        prop_assert_eq!(sample.count, obs.len() as u64);
        let expected_sum: f64 = obs.iter().sum();
        prop_assert!((sample.sum - expected_sum).abs() <= 1e-9 * expected_sum.abs().max(1.0));
    }

    #[test]
    fn quantiles_land_in_the_rank_bucket_and_are_monotone(
        bounds in bounds(),
        obs in observations(),
        qs in proptest::collection::vec(0.0f64..=1.0, 1..6),
    ) {
        let sample = observed_sample(&bounds, &obs);
        for &q in &qs {
            let estimate = sample.quantile(q);
            if sample.count == 0 {
                prop_assert_eq!(estimate, 0.0);
                continue;
            }
            let (lower, upper) = reference_quantile_bucket(&sample, q);
            prop_assert!(
                estimate >= lower - 1e-12 && estimate <= upper + 1e-12,
                "q={q}: estimate {estimate} outside rank bucket [{lower}, {upper}]"
            );
        }
        let mut sorted = qs.clone();
        sorted.sort_by(f64::total_cmp);
        for pair in sorted.windows(2) {
            prop_assert!(
                sample.quantile(pair[0]) <= sample.quantile(pair[1]) + 1e-12,
                "quantile must be monotone in q"
            );
        }
        // Derived summary percentiles are the estimator at 0.50/0.95/0.99.
        prop_assert_eq!(sample.p50, sample.quantile(0.50));
        prop_assert_eq!(sample.p95, sample.quantile(0.95));
        prop_assert_eq!(sample.p99, sample.quantile(0.99));
    }
}
