//! Bootstrap confidence intervals.
//!
//! Empirical ratios between algorithms (e.g. "Gathering needs ~`n/log n`
//! times more interactions than the offline optimum") are reported with a
//! percentile-bootstrap confidence interval, which makes the shape claims
//! in EXPERIMENTS.md quantitative without distributional assumptions.

use rand::Rng;

use crate::rng::DodaRng;

/// A percentile bootstrap confidence interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BootstrapCi {
    /// Point estimate (the statistic on the full sample).
    pub estimate: f64,
    /// Lower bound of the interval.
    pub lower: f64,
    /// Upper bound of the interval.
    pub upper: f64,
    /// Confidence level, e.g. 0.95.
    pub level: f64,
}

/// Computes a percentile-bootstrap confidence interval for an arbitrary
/// statistic of a sample.
///
/// Returns `None` if the sample is empty, `resamples == 0`, or `level` is
/// outside `(0, 1)`.
pub fn bootstrap_ci<F>(
    sample: &[f64],
    statistic: F,
    resamples: usize,
    level: f64,
    rng: &mut DodaRng,
) -> Option<BootstrapCi>
where
    F: Fn(&[f64]) -> f64,
{
    if sample.is_empty() || resamples == 0 || !(0.0 < level && level < 1.0) {
        return None;
    }
    let estimate = statistic(sample);
    let mut stats = Vec::with_capacity(resamples);
    let mut buffer = vec![0.0; sample.len()];
    for _ in 0..resamples {
        for slot in buffer.iter_mut() {
            *slot = sample[rng.gen_range(0..sample.len())];
        }
        stats.push(statistic(&buffer));
    }
    // Total order, not `partial_cmp(..).expect(..)`: the caller's
    // statistic may return NaN (0/0 on a degenerate resample), and a
    // percentile routine must not panic on it. `total_cmp` places NaN
    // by sign bit — negative NaN below every number, positive NaN
    // above — so the sort stays total, deterministic, and panic-free;
    // a NaN percentile is reported as NaN rather than aborting the run.
    stats.sort_by(f64::total_cmp);
    let alpha = (1.0 - level) / 2.0;
    let lo_idx = ((stats.len() as f64 - 1.0) * alpha).round() as usize;
    let hi_idx = ((stats.len() as f64 - 1.0) * (1.0 - alpha)).round() as usize;
    Some(BootstrapCi {
        estimate,
        lower: stats[lo_idx],
        upper: stats[hi_idx.min(stats.len() - 1)],
        level,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::seeded_rng;

    fn mean(s: &[f64]) -> f64 {
        s.iter().sum::<f64>() / s.len() as f64
    }

    #[test]
    fn rejects_degenerate_inputs() {
        let mut rng = seeded_rng(1);
        assert!(bootstrap_ci(&[], mean, 100, 0.95, &mut rng).is_none());
        assert!(bootstrap_ci(&[1.0], mean, 0, 0.95, &mut rng).is_none());
        assert!(bootstrap_ci(&[1.0], mean, 100, 1.5, &mut rng).is_none());
    }

    #[test]
    fn constant_sample_gives_degenerate_interval() {
        let mut rng = seeded_rng(2);
        let ci = bootstrap_ci(&[5.0; 20], mean, 200, 0.95, &mut rng).unwrap();
        assert_eq!(ci.estimate, 5.0);
        assert_eq!(ci.lower, 5.0);
        assert_eq!(ci.upper, 5.0);
    }

    #[test]
    fn interval_brackets_the_estimate() {
        let mut rng = seeded_rng(3);
        let sample: Vec<f64> = (0..200).map(|i| (i % 13) as f64).collect();
        let ci = bootstrap_ci(&sample, mean, 500, 0.95, &mut rng).unwrap();
        assert!(ci.lower <= ci.estimate && ci.estimate <= ci.upper);
        assert!(ci.upper - ci.lower < 2.0, "CI should be tight for n=200");
    }

    #[test]
    fn bootstrap_is_deterministic_given_seed() {
        let sample: Vec<f64> = (0..50).map(|i| i as f64).collect();
        let a = bootstrap_ci(&sample, mean, 300, 0.9, &mut seeded_rng(9)).unwrap();
        let b = bootstrap_ci(&sample, mean, 300, 0.9, &mut seeded_rng(9)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn custom_statistic_median_ratio() {
        let mut rng = seeded_rng(4);
        // Ratio of max to min as an arbitrary statistic.
        let sample = [2.0, 4.0, 8.0, 16.0];
        let ci = bootstrap_ci(
            &sample,
            |s| {
                let max = s.iter().cloned().fold(f64::MIN, f64::max);
                let min = s.iter().cloned().fold(f64::MAX, f64::min);
                max / min
            },
            200,
            0.9,
            &mut rng,
        )
        .unwrap();
        assert_eq!(ci.estimate, 8.0);
        assert!(ci.lower >= 1.0);
        assert!(ci.upper <= 8.0 + 1e-9);
    }

    #[test]
    fn nan_statistics_are_sorted_totally_instead_of_panicking() {
        // Regression: the percentile sort used to be
        // `partial_cmp(..).expect("statistics are finite")`, which
        // panicked the moment a resample produced NaN. A statistic
        // computing 0/0 on an all-zero resample does exactly that.
        let nan_prone = |s: &[f64]| {
            let ones = s.iter().filter(|v| **v != 0.0).count() as f64;
            // NaN (0/0) whenever a resample drew only zeros.
            ones / ones * (ones / s.len() as f64)
        };
        let sample = [0.0, 0.0, 0.0, 1.0];
        let mut rng = seeded_rng(11);
        let ci = bootstrap_ci(&sample, nan_prone, 200, 0.95, &mut rng)
            .expect("NaN statistics must not panic the percentile sort");
        // The total order is deterministic bit-for-bit, so the same
        // seed reproduces the same percentiles even when one of them
        // lands on a NaN resample.
        let mut rng = seeded_rng(11);
        let again = bootstrap_ci(&sample, nan_prone, 200, 0.95, &mut rng).unwrap();
        assert_eq!(ci.lower.to_bits(), again.lower.to_bits());
        assert_eq!(ci.upper.to_bits(), again.upper.to_bits());
        // And NaN resamples really did occur, so the sort saw them.
        assert!(ci.lower.is_nan() || ci.upper.is_nan() || ci.lower <= ci.upper);
    }
}
