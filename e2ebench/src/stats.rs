//! Order statistics for the benchmark's timings.
//!
//! A tail percentile is only reported when at least [`MIN_BEYOND`] samples
//! lie beyond it; with fewer, one outlier would set the number.

/// Samples that must lie strictly above a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Why a percentile was refused.
#[derive(Debug, Clone, PartialEq)]
pub enum StatError {
    /// Fewer than [`MIN_BEYOND`] samples beyond the requested percentile.
    TooFewSamples {
        /// Requested percentile (0 < p < 100).
        p: f64,
        /// Samples supplied.
        n: usize,
    },
    /// The percentile is outside (0, 100) or a sample is not finite.
    Invalid,
}

impl std::fmt::Display for StatError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StatError::TooFewSamples { p, n } => write!(
                f,
                "p{p} of {n} samples has fewer than {MIN_BEYOND} samples beyond it"
            ),
            StatError::Invalid => write!(f, "invalid percentile request"),
        }
    }
}

/// Nearest-rank percentile `p` of `samples` (any order). Refuses when
/// fewer than [`MIN_BEYOND`] samples rank above the returned one.
pub fn percentile(samples: &[f64], p: f64) -> Result<f64, StatError> {
    if !(p > 0.0 && p < 100.0) || samples.iter().any(|v| !v.is_finite()) {
        return Err(StatError::Invalid);
    }
    let n = samples.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    if rank == 0 || n - rank < MIN_BEYOND {
        return Err(StatError::TooFewSamples { p, n });
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(sorted[rank - 1])
}

/// Median of a non-empty sample (mean of the middle pair for even counts).
/// Used for repeated set-up times, where a handful of samples is all
/// there is.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let m = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[m]
    } else {
        0.5 * (sorted[m - 1] + sorted[m])
    }
}

/// Arithmetic mean; 0 for an empty sample.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_refuses_fewer_than_ten_beyond() {
        // p99 of 999 samples: rank 990, only 9 beyond.
        let v: Vec<f64> = (0..999).map(f64::from).collect();
        assert_eq!(
            percentile(&v, 99.0),
            Err(StatError::TooFewSamples { p: 99.0, n: 999 })
        );
        // 1000 samples: rank 990, exactly 10 beyond.
        let v: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 99.0), Ok(989.0));
        // A median also needs ten samples above it.
        assert!(percentile(&[1.0; 19], 50.0).is_err());
        assert_eq!(percentile(&[1.0; 20], 50.0), Ok(1.0));
    }

    #[test]
    fn percentile_is_order_free_and_checks_input() {
        let v = [5.0, 1.0, 4.0, 2.0, 3.0].repeat(10);
        assert_eq!(percentile(&v, 50.0), Ok(3.0));
        assert_eq!(percentile(&v, 0.0), Err(StatError::Invalid));
        assert_eq!(percentile(&[f64::NAN; 40], 50.0), Err(StatError::Invalid));
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
