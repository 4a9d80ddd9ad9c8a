//! Least-squares regression utilities.
//!
//! The experiment harness verifies *asymptotic shapes*: Gathering should
//! terminate in `Θ(n²)` interactions, Waiting Greedy in
//! `Θ(n^{3/2}√log n)`, the offline optimum in `Θ(n log n)`. Fitting a power
//! law `T(n) = c·n^α` on log–log axes and reporting the estimated exponent
//! `α` (plus `R²`) gives an objective, constant-free check.

/// Result of an ordinary-least-squares fit of `y = a + b·x`.
#[derive(Debug, Clone, Copy, PartialEq)]
struct LinearFit {
    /// Intercept `a`.
    intercept: f64,
    /// Slope `b`.
    slope: f64,
    /// Coefficient of determination.
    r_squared: f64,
}

/// Result of a power-law fit `y = c·x^α` (done in log–log space).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerLawFit {
    /// Multiplicative constant `c`.
    pub constant: f64,
    /// Exponent `α`.
    pub exponent: f64,
    /// Coefficient of determination in log space.
    pub r_squared: f64,
}

impl PowerLawFit {
    /// Predicted value at `x`.
    pub fn predict(&self, x: f64) -> f64 {
        self.constant * x.powf(self.exponent)
    }
}

/// Ordinary least squares for `y = a + b·x`.
///
/// Returns `None` if fewer than two points are supplied, if the lengths
/// differ, if any value is non-finite, or if all `x` are identical.
fn linear_fit(xs: &[f64], ys: &[f64]) -> Option<LinearFit> {
    if xs.len() != ys.len() || xs.len() < 2 {
        return None;
    }
    if xs.iter().chain(ys).any(|v| !v.is_finite()) {
        return None;
    }
    let n = xs.len() as f64;
    let mean_x = xs.iter().sum::<f64>() / n;
    let mean_y = ys.iter().sum::<f64>() / n;
    let sxx: f64 = xs.iter().map(|x| (x - mean_x).powi(2)).sum();
    if sxx == 0.0 {
        return None;
    }
    let sxy: f64 = xs
        .iter()
        .zip(ys)
        .map(|(x, y)| (x - mean_x) * (y - mean_y))
        .sum();
    let slope = sxy / sxx;
    let intercept = mean_y - slope * mean_x;
    let ss_tot: f64 = ys.iter().map(|y| (y - mean_y).powi(2)).sum();
    let ss_res: f64 = xs
        .iter()
        .zip(ys)
        .map(|(x, y)| (y - (intercept + slope * x)).powi(2))
        .sum();
    let r_squared = if ss_tot == 0.0 {
        1.0
    } else {
        1.0 - ss_res / ss_tot
    };
    Some(LinearFit {
        intercept,
        slope,
        r_squared,
    })
}

/// Fits `y = c·x^α` by OLS on `(ln x, ln y)`.
///
/// Returns `None` if fewer than two points are supplied, if the lengths
/// differ, if all `x` are identical, or if any value is non-finite or
/// non-positive (logarithms would be undefined).
pub fn fit_power_law(xs: &[f64], ys: &[f64]) -> Option<PowerLawFit> {
    if xs.len() != ys.len() || xs.len() < 2 {
        return None;
    }
    if xs.iter().chain(ys).any(|v| !v.is_finite() || *v <= 0.0) {
        return None;
    }
    let lx: Vec<f64> = xs.iter().map(|x| x.ln()).collect();
    let ly: Vec<f64> = ys.iter().map(|y| y.ln()).collect();
    let lin = linear_fit(&lx, &ly)?;
    Some(PowerLawFit {
        constant: lin.intercept.exp(),
        exponent: lin.slope,
        r_squared: lin.r_squared,
    })
}

/// Fits `y = c · x^α` while dividing out a known `(log x)^β` factor first,
/// i.e. fits `y / (ln x)^beta = c · x^α`.
///
/// Useful to check e.g. that the offline optimum behaves like `n log n`
/// (fit with `beta = 1`, expect exponent ≈ 1) or that Waiting Greedy behaves
/// like `n^{3/2} √log n` (fit with `beta = 0.5`, expect exponent ≈ 1.5).
pub fn fit_power_law_with_log_factor(xs: &[f64], ys: &[f64], beta: f64) -> Option<PowerLawFit> {
    if xs.len() != ys.len() {
        return None;
    }
    let adjusted: Vec<f64> = xs
        .iter()
        .zip(ys)
        .map(|(x, y)| {
            let lf = x.ln().max(f64::MIN_POSITIVE).powf(beta);
            y / lf
        })
        .collect();
    fit_power_law(xs, &adjusted)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_fit_recovers_exact_line() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let ys: Vec<f64> = xs.iter().map(|x| 2.0 + 3.0 * x).collect();
        let fit = linear_fit(&xs, &ys).unwrap();
        assert!((fit.slope - 3.0).abs() < 1e-12);
        assert!((fit.intercept - 2.0).abs() < 1e-12);
        assert!((fit.r_squared - 1.0).abs() < 1e-12);
    }

    #[test]
    fn linear_fit_rejects_degenerate_inputs() {
        assert!(linear_fit(&[1.0], &[2.0]).is_none());
        assert!(linear_fit(&[1.0, 2.0], &[2.0]).is_none());
        assert!(linear_fit(&[1.0, 1.0], &[2.0, 3.0]).is_none());
        assert!(linear_fit(&[1.0, f64::NAN], &[2.0, 3.0]).is_none());
    }

    #[test]
    fn power_law_recovers_exponent() {
        let xs = [8.0, 16.0, 32.0, 64.0, 128.0];
        let ys: Vec<f64> = xs.iter().map(|&x: &f64| 0.5 * x.powf(1.5)).collect();
        let fit = fit_power_law(&xs, &ys).unwrap();
        assert!((fit.exponent - 1.5).abs() < 1e-9);
        assert!((fit.constant - 0.5).abs() < 1e-9);
        assert!((fit.predict(256.0) - 0.5 * 256f64.powf(1.5)).abs() < 1e-6);
    }

    #[test]
    fn power_law_rejects_non_positive() {
        assert!(fit_power_law(&[1.0, 2.0], &[0.0, 3.0]).is_none());
        assert!(fit_power_law(&[-1.0, 2.0], &[1.0, 3.0]).is_none());
    }

    #[test]
    fn power_law_with_noise_is_close() {
        // y = 2 n^2 with ±5% multiplicative noise.
        let xs: Vec<f64> = (3..12).map(|k| (1usize << k) as f64).collect();
        let noise = [1.03, 0.97, 1.01, 0.99, 1.05, 0.95, 1.02, 0.98, 1.0];
        let ys: Vec<f64> = xs
            .iter()
            .zip(noise.iter())
            .map(|(x, e)| 2.0 * x * x * e)
            .collect();
        let fit = fit_power_law(&xs, &ys).unwrap();
        assert!(
            (fit.exponent - 2.0).abs() < 0.05,
            "exponent {}",
            fit.exponent
        );
        assert!(fit.r_squared > 0.999);
    }

    #[test]
    fn log_factor_adjustment_recovers_nlogn() {
        let xs: Vec<f64> = (4..14).map(|k| (1usize << k) as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 3.0 * x * x.ln()).collect();
        // Plain power-law fit over-estimates the exponent slightly above 1.
        let plain = fit_power_law(&xs, &ys).unwrap();
        assert!(plain.exponent > 1.05);
        // Dividing out log recovers exponent 1 exactly.
        let adjusted = fit_power_law_with_log_factor(&xs, &ys, 1.0).unwrap();
        assert!((adjusted.exponent - 1.0).abs() < 1e-9);
        assert!((adjusted.constant - 3.0).abs() < 1e-9);
    }
}
