//! Scaling studies across the node count `n`.

use doda_sim::{AlgorithmSpec, BatchConfig, Scenario, Sweep};
use doda_stats::regression::{fit_power_law, fit_power_law_with_log_factor, PowerLawFit};

/// One measured point of a scaling study.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScalingPoint {
    /// Node count.
    pub n: usize,
    /// Mean interactions to completion over the batch.
    pub mean_interactions: f64,
    /// Median interactions to completion.
    pub median_interactions: f64,
    /// Fraction of trials that completed within the horizon.
    pub completion_rate: f64,
}

/// The result of sweeping one algorithm across node counts.
#[derive(Debug, Clone, PartialEq)]
pub struct ScalingResult {
    /// Algorithm label.
    pub algorithm: String,
    /// Measured points, one per `n`.
    pub points: Vec<ScalingPoint>,
    /// Power-law fit `mean ≈ c·n^α` of the mean interaction counts.
    pub fit: Option<PowerLawFit>,
}

impl ScalingResult {
    /// The fitted exponent, if a fit was possible.
    pub fn exponent(&self) -> Option<f64> {
        self.fit.map(|f| f.exponent)
    }

    /// Power-law fit after dividing out a `(log n)^beta` factor — used to
    /// check `n log n` (β = 1) and `n^{3/2}√log n` (β = 0.5) shapes.
    pub fn fit_with_log_factor(&self, beta: f64) -> Option<PowerLawFit> {
        let xs: Vec<f64> = self.points.iter().map(|p| p.n as f64).collect();
        let ys: Vec<f64> = self.points.iter().map(|p| p.mean_interactions).collect();
        fit_power_law_with_log_factor(&xs, &ys, beta)
    }
}

/// A scaling study: a set of node counts, a trial count per point and a
/// root seed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScalingStudy {
    /// Node counts to sweep.
    pub ns: Vec<usize>,
    /// Trials per node count.
    pub trials: usize,
    /// Root seed (each `(algorithm, n)` batch derives its own sub-seed).
    pub seed: u64,
    /// Run the trials of each batch in parallel.
    pub parallel: bool,
}

impl ScalingStudy {
    /// A quick study suitable for CI tests and examples.
    pub fn quick() -> Self {
        ScalingStudy {
            ns: vec![8, 16, 32, 64],
            trials: 10,
            seed: 0xD0DA,
            parallel: false,
        }
    }

    /// The study behind E7–E9 and E11 at full effort and the scaling
    /// tables of EXPERIMENTS.md (larger sweep, parallel).
    pub fn benchmark() -> Self {
        ScalingStudy {
            ns: vec![16, 32, 64, 128, 256],
            trials: 30,
            seed: 0xD0DA,
            parallel: true,
        }
    }

    /// Runs the study for one algorithm.
    pub fn run(&self, spec: AlgorithmSpec) -> ScalingResult {
        let mut points = Vec::with_capacity(self.ns.len());
        for (idx, &n) in self.ns.iter().enumerate() {
            let config = BatchConfig {
                n,
                trials: self.trials,
                horizon: None,
                seed: self.seed ^ ((idx as u64 + 1) << 32),
                parallel: self.parallel,
            };
            let batch = Sweep::scenario(spec, Scenario::Uniform)
                .config(&config)
                .run_summarized()
                .0;
            points.push(ScalingPoint {
                n,
                mean_interactions: batch.interactions.mean,
                median_interactions: batch.interactions.median,
                completion_rate: batch.completion_rate,
            });
        }
        let xs: Vec<f64> = points.iter().map(|p| p.n as f64).collect();
        let ys: Vec<f64> = points.iter().map(|p| p.mean_interactions).collect();
        ScalingResult {
            algorithm: spec.label().to_string(),
            points,
            fit: fit_power_law(&xs, &ys),
        }
    }

    /// Runs the study for several algorithms.
    pub fn run_all(&self, specs: &[AlgorithmSpec]) -> Vec<ScalingResult> {
        specs.iter().map(|&s| self.run(s)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_study() -> ScalingStudy {
        ScalingStudy {
            ns: vec![8, 16, 32],
            trials: 6,
            seed: 99,
            parallel: false,
        }
    }

    #[test]
    fn gathering_exponent_is_roughly_two() {
        let result = tiny_study().run(AlgorithmSpec::Gathering);
        assert_eq!(result.points.len(), 3);
        let exponent = result.exponent().unwrap();
        assert!(
            (1.6..=2.4).contains(&exponent),
            "Gathering exponent {exponent} not ≈ 2"
        );
        for p in &result.points {
            assert_eq!(p.completion_rate, 1.0);
            assert!(p.median_interactions > 0.0);
        }
    }

    #[test]
    fn offline_is_far_below_gathering() {
        let study = tiny_study();
        let offline = study.run(AlgorithmSpec::OfflineOptimal);
        let gathering = study.run(AlgorithmSpec::Gathering);
        for (a, b) in offline.points.iter().zip(&gathering.points) {
            assert!(a.mean_interactions < b.mean_interactions);
        }
        // The offline optimum grows like n log n: after removing the log
        // factor the exponent is close to 1, clearly below Gathering's.
        let offline_exp = offline.fit_with_log_factor(1.0).unwrap().exponent;
        let gathering_exp = gathering.exponent().unwrap();
        assert!(offline_exp < gathering_exp - 0.4);
    }

    #[test]
    fn run_all_covers_requested_specs() {
        let study = ScalingStudy {
            ns: vec![8, 16],
            trials: 3,
            seed: 5,
            parallel: false,
        };
        let results = study.run_all(&[AlgorithmSpec::Gathering, AlgorithmSpec::Waiting]);
        assert_eq!(results.len(), 2);
        assert_eq!(results[0].algorithm, "Gathering");
        assert_eq!(results[1].algorithm, "Waiting");
    }

    #[test]
    fn preset_studies_are_well_formed() {
        assert!(ScalingStudy::quick().ns.len() >= 3);
        assert!(ScalingStudy::benchmark().ns.len() >= 4);
        assert!(ScalingStudy::benchmark().parallel);
    }
}
