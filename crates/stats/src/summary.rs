//! Compact summaries of trial batches.
//!
//! A [`Summary`] is the unit of reporting used by the simulation runner and
//! the experiment harness: for a batch of trials of one (algorithm, n)
//! configuration it records the moments and quantiles of the measured
//! interaction counts, ready to be rendered into a table row.

use crate::descriptive::Descriptive;

/// Summary of a batch of numeric observations.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Number of observations.
    pub count: usize,
    /// Sample mean.
    pub mean: f64,
    /// Sample standard deviation.
    pub std_dev: f64,
    /// Minimum.
    pub min: f64,
    /// Median.
    pub median: f64,
    /// 95th percentile.
    pub p95: f64,
    /// Maximum.
    pub max: f64,
}

impl Summary {
    /// Builds a summary from raw observations. Returns `None` for an empty
    /// or non-finite sample.
    pub fn from_values(values: &[f64]) -> Option<Self> {
        let d = Descriptive::from_slice(values)?;
        Some(Summary {
            count: d.len(),
            mean: d.mean(),
            std_dev: d.std_dev(),
            min: d.min(),
            median: d.median(),
            p95: d.quantile(0.95),
            max: d.max(),
        })
    }
}

impl std::fmt::Display for Summary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "n={:5}  mean={:12.1}  sd={:10.1}  median={:12.1}  p95={:12.1}  max={:12.1}",
            self.count, self.mean, self.std_dev, self.median, self.p95, self.max
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_from_values() {
        let s = Summary::from_values(&[1.0, 2.0, 3.0, 4.0, 5.0]).unwrap();
        assert_eq!(s.count, 5);
        assert_eq!(s.mean, 3.0);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 5.0);
        assert_eq!(s.median, 3.0);
        assert!(s.p95 >= 4.0);
    }

    #[test]
    fn empty_sample_rejected() {
        assert!(Summary::from_values(&[]).is_none());
    }

    #[test]
    fn display_contains_mean() {
        let s = Summary::from_values(&[2.0, 4.0]).unwrap();
        let text = s.to_string();
        assert!(text.contains("mean="));
        assert!(text.contains("3.0"));
    }
}
