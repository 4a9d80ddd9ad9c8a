//! Descriptive statistics over a finite sample.

/// Summary statistics of a sample of `f64` observations.
///
/// Construction computes everything eagerly; accessors are free.
///
/// # Example
///
/// ```
/// use doda_stats::Descriptive;
///
/// let d = Descriptive::from_slice(&[1.0, 2.0, 3.0, 4.0]).unwrap();
/// assert_eq!(d.mean(), 2.5);
/// assert_eq!(d.min(), 1.0);
/// assert_eq!(d.median(), 2.5);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Descriptive {
    sorted: Vec<f64>,
    mean: f64,
    variance: f64,
}

impl Descriptive {
    /// Builds the summary from a slice of observations.
    ///
    /// Returns `None` if the slice is empty or contains non-finite values.
    pub fn from_slice(values: &[f64]) -> Option<Self> {
        if values.is_empty() || values.iter().any(|v| !v.is_finite()) {
            return None;
        }
        let mut sorted = values.to_vec();
        // `total_cmp` instead of `partial_cmp(..).expect(..)`: the
        // finiteness check above makes the two equivalent today, but a
        // sort used on measurement data must stay panic-free even if
        // that guard ever loosens.
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len() as f64;
        let mean = sorted.iter().sum::<f64>() / n;
        let variance = if sorted.len() > 1 {
            sorted.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (n - 1.0)
        } else {
            0.0
        };
        Some(Descriptive {
            sorted,
            mean,
            variance,
        })
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Returns `true` if there are no observations (never true for a
    /// constructed value, kept for API completeness).
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Sample mean.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Unbiased sample variance (0 for a single observation).
    pub fn variance(&self) -> f64 {
        self.variance
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance.sqrt()
    }

    /// Minimum observation.
    pub fn min(&self) -> f64 {
        self.sorted[0]
    }

    /// Maximum observation.
    pub fn max(&self) -> f64 {
        *self.sorted.last().expect("non-empty by construction")
    }

    /// Median (linear interpolation between the two middle elements for an
    /// even sample size).
    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// Quantile by linear interpolation, `q` in `[0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile q={q} outside [0, 1]");
        let n = self.sorted.len();
        if n == 1 {
            return self.sorted[0];
        }
        let pos = q * (n - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        let frac = pos - lo as f64;
        self.sorted[lo] * (1.0 - frac) + self.sorted[hi] * frac
    }

    /// Fraction of observations `<= bound`, used for "with high probability
    /// the algorithm terminates within the bound" checks.
    pub fn fraction_within(&self, bound: f64) -> f64 {
        let count = self.sorted.partition_point(|&v| v <= bound);
        count as f64 / self.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_moments() {
        let d = Descriptive::from_slice(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]).unwrap();
        assert!((d.mean() - 5.0).abs() < 1e-12);
        assert!((d.variance() - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(d.len(), 8);
        assert!(!d.is_empty());
    }

    #[test]
    fn empty_and_nonfinite_are_rejected() {
        assert!(Descriptive::from_slice(&[]).is_none());
        assert!(Descriptive::from_slice(&[1.0, f64::NAN]).is_none());
        assert!(Descriptive::from_slice(&[f64::INFINITY]).is_none());
    }

    #[test]
    fn single_observation() {
        let d = Descriptive::from_slice(&[3.5]).unwrap();
        assert_eq!(d.mean(), 3.5);
        assert_eq!(d.variance(), 0.0);
        assert_eq!(d.median(), 3.5);
        assert_eq!(d.quantile(0.9), 3.5);
        assert_eq!(d.min(), 3.5);
        assert_eq!(d.max(), 3.5);
    }

    #[test]
    fn quantiles_interpolate() {
        let d = Descriptive::from_slice(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(d.quantile(0.0), 1.0);
        assert_eq!(d.quantile(1.0), 4.0);
        assert!((d.median() - 2.5).abs() < 1e-12);
        assert!((d.quantile(0.25) - 1.75).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn quantile_rejects_out_of_range() {
        let d = Descriptive::from_slice(&[1.0, 2.0]).unwrap();
        let _ = d.quantile(1.5);
    }

    #[test]
    fn fraction_within_bound() {
        let d = Descriptive::from_slice(&[1.0, 2.0, 3.0, 4.0, 5.0]).unwrap();
        assert_eq!(d.fraction_within(3.0), 0.6);
        assert_eq!(d.fraction_within(0.5), 0.0);
        assert_eq!(d.fraction_within(10.0), 1.0);
    }

    #[test]
    fn median_of_odd_sample() {
        let d = Descriptive::from_slice(&[5.0, 1.0, 3.0]).unwrap();
        assert_eq!(d.median(), 3.0);
    }
}
