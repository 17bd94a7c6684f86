//! Medians and percentiles with an honest sample-count rule, and a
//! correlation.

/// Why a percentile was refused.
#[derive(Debug, Clone, PartialEq)]
pub enum PercentileError {
    /// No samples at all.
    Empty,
    /// Fewer than [`MIN_TAIL_SAMPLES`] samples lie beyond the requested
    /// percentile, so the value would be set by a handful of outliers.
    TooFewBeyond {
        /// Samples at or beyond the percentile.
        beyond: usize,
    },
}

/// A tail percentile is reported only when at least this many samples
/// lie beyond it (p95 needs 200 samples, p99 needs 1000).
pub const MIN_TAIL_SAMPLES: usize = 10;

/// Sorts in place, ascending. Samples are wall-clock durations and
/// measured latencies, never NaN; a NaN would be a harness bug.
pub fn sort(samples: &mut [f64]) {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
}

/// The `p`-quantile (0 < p < 1) of ascending `sorted` (`dss-metrics`'
/// linear interpolation between closest ranks). The median and anything
/// below it are always available; any percentile above it is refused
/// unless [`MIN_TAIL_SAMPLES`] samples lie beyond it.
pub fn percentile(sorted: &[f64], p: f64) -> Result<f64, PercentileError> {
    assert!(p > 0.0 && p < 1.0, "percentile must be inside (0, 1)");
    if sorted.is_empty() {
        return Err(PercentileError::Empty);
    }
    if p > 0.5 {
        let beyond = (sorted.len() as f64 * (1.0 - p)).floor() as usize;
        if beyond < MIN_TAIL_SAMPLES {
            return Err(PercentileError::TooFewBeyond { beyond });
        }
    }
    Ok(dss_metrics::stats::percentile_sorted(sorted, p * 100.0))
}

fn of_unsorted(samples: &[f64], p: f64) -> Option<f64> {
    let mut v = samples.to_vec();
    sort(&mut v);
    percentile(&v, p).ok()
}

/// Median of unsorted samples (`None` when empty).
pub fn median(samples: &[f64]) -> Option<f64> {
    of_unsorted(samples, 0.5)
}

/// p95 of unsorted samples; `None` when fewer than 200 samples back it.
pub fn p95(samples: &[f64]) -> Option<f64> {
    of_unsorted(samples, 0.95)
}

/// Pearson correlation of two equally long series (NaN when either is
/// constant or empty).
pub fn pearson(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "series of different lengths");
    let n = x.len() as f64;
    let (mx, my) = (x.iter().sum::<f64>() / n, y.iter().sum::<f64>() / n);
    let (mut sxy, mut sxx, mut syy) = (0.0, 0.0, 0.0);
    for (x, y) in x.iter().zip(y) {
        sxy += (x - mx) * (y - my);
        sxx += (x - mx) * (x - mx);
        syy += (y - my) * (y - my);
    }
    sxy / (sxx * syy).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_interpolates() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn pearson_of_known_series() {
        let x = [1.0, 2.0, 3.0, 4.0];
        assert!((pearson(&x, &[2.0, 4.0, 6.0, 8.0]) - 1.0).abs() < 1e-12);
        assert!((pearson(&x, &[4.0, 3.0, 2.0, 1.0]) + 1.0).abs() < 1e-12);
        assert!(pearson(&x, &[1.0, -1.0, -1.0, 1.0]).abs() < 1e-12);
        assert!(pearson(&x, &[5.0; 4]).is_nan());
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        let mut v: Vec<f64> = (0..199).map(f64::from).collect();
        assert_eq!(
            percentile(&v, 0.95),
            Err(PercentileError::TooFewBeyond { beyond: 9 })
        );
        assert_eq!(p95(&v), None);
        v.push(199.0);
        let got = percentile(&v, 0.95).unwrap();
        assert!((got - 189.05).abs() < 1e-9, "{got}");
        // p99 needs a thousand.
        assert!(percentile(&v, 0.99).is_err());
        assert_eq!(percentile(&[], 0.5), Err(PercentileError::Empty));
    }
}
