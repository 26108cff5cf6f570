//! Order statistics over measured samples.

/// The `q`-quantile (`q` in `[0, 1]`) of `sorted` by the nearest-rank
/// rule: the smallest sample with at least `q` of the samples at or
/// below it. `NaN` for an empty slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Number of samples strictly above the `q`-quantile: a percentile is
/// only worth reporting while at least ten samples lie beyond it.
pub fn beyond(sorted: &[f64], q: f64) -> usize {
    let cut = quantile(sorted, q);
    sorted.len() - sorted.partition_point(|&x| x <= cut)
}

/// Sorts a copy of `samples` ascending.
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of unsorted samples (mean of the middle two for even counts).
pub fn median(samples: &[f64]) -> f64 {
    let v = sorted(samples);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Geometric mean of positive samples.
pub fn geomean(samples: &[f64]) -> f64 {
    let logs: f64 = samples.iter().map(|x| x.ln()).sum();
    (logs / samples.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&[7.0], 0.99), 7.0);
        assert!(quantile(&[], 0.5).is_nan());
    }

    #[test]
    fn samples_beyond_a_percentile() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(beyond(&v, 0.99), 10);
        assert_eq!(beyond(&v, 0.999), 1);
        // Ties at the cut do not count as beyond it.
        assert_eq!(beyond(&[1.0, 2.0, 2.0, 2.0], 0.5), 0);
    }

    #[test]
    fn medians_and_means() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
    }
}
