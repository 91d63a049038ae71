//! Ordinary least squares / ANOVA-style mean regression.
//!
//! The paper contrasts quantile regression with classic ANOVA, which
//! "can only attribute the variance of the sample means" and assumes
//! normal residuals (§IV-A). This module provides the mean-regression
//! counterpart so the comparison can be reproduced: identical design
//! matrices, coefficients for the conditional **mean**, classic
//! `σ²(XᵀX)⁻¹` standard errors, and R².

use crate::distribution::two_sided_p_value;
use crate::linalg::{Matrix, SolveError};
use crate::regression::bootstrap::CoefficientEstimate;

/// The result of an OLS fit.
#[derive(Debug, Clone, PartialEq)]
pub struct OlsFit {
    /// Per-term coefficient estimates with classic standard errors.
    pub coefficients: Vec<CoefficientEstimate>,
    /// Coefficient of determination.
    pub r_squared: f64,
    /// Residual variance estimate (σ̂²).
    pub residual_variance: f64,
}

impl OlsFit {
}

/// Fits `y = Xβ + ε` by least squares.
///
/// `term_labels` provides display names for the coefficient table and
/// must have one entry per design column.
///
/// # Errors
///
/// Returns [`SolveError`] if `XᵀX` is singular.
///
/// # Panics
///
/// Panics if dimensions are inconsistent or there are no residual
/// degrees of freedom (`n <= p`).
pub fn ols_fit(
    design: &Matrix,
    y: &[f64],
    term_labels: &[String],
) -> Result<OlsFit, SolveError> {
    let n = design.rows();
    let p = design.cols();
    assert_eq!(y.len(), n, "response length mismatch");
    assert_eq!(term_labels.len(), p, "label count mismatch");
    assert!(n > p, "no residual degrees of freedom (n = {n}, p = {p})");

    let beta = design.solve_least_squares(y)?;
    let fitted = design.mul_vec(&beta);
    let mean_y = y.iter().sum::<f64>() / n as f64;
    let ss_res: f64 = y.iter().zip(&fitted).map(|(a, b)| (a - b).powi(2)).sum();
    let ss_tot: f64 = y.iter().map(|v| (v - mean_y).powi(2)).sum();
    let r_squared = if ss_tot == 0.0 { 1.0 } else { 1.0 - ss_res / ss_tot };
    let sigma2 = ss_res / (n - p) as f64;

    // Var(β̂) = σ² (XᵀX)⁻¹: solve against identity columns.
    let xt = design.transpose();
    let xtx = xt.mul(design);
    let mut coefficients = Vec::with_capacity(p);
    for (j, label) in term_labels.iter().enumerate() {
        let mut e = vec![0.0; p];
        e[j] = 1.0;
        let col = xtx.solve(&e)?;
        let variance = sigma2 * col[j];
        let std_error = variance.max(0.0).sqrt();
        let p_value = if std_error > 0.0 {
            two_sided_p_value(beta[j] / std_error)
        } else if beta[j] == 0.0 {
            1.0
        } else {
            0.0
        };
        coefficients.push(CoefficientEstimate {
            term: label.clone(),
            estimate: beta[j],
            std_error,
            p_value,
        });
    }
    Ok(OlsFit {
        coefficients,
        r_squared,
        residual_variance: sigma2,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distribution::{sample_exponential, sample_standard_normal};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn line_design(xs: &[f64]) -> (Matrix, Vec<String>) {
        let mut m = Matrix::zeros(xs.len(), 2);
        for (i, &x) in xs.iter().enumerate() {
            m[(i, 0)] = 1.0;
            m[(i, 1)] = x;
        }
        (m, vec!["(Intercept)".into(), "x".into()])
    }

    #[test]
    fn recovers_noiseless_line_with_r2_one() {
        let xs: Vec<f64> = (0..50).map(f64::from).collect();
        let y: Vec<f64> = xs.iter().map(|&x| 1.0 + 2.0 * x).collect();
        let (design, labels) = line_design(&xs);
        let fit = ols_fit(&design, &y, &labels).unwrap();
        assert!((fit.coefficients[0].estimate - 1.0).abs() < 1e-9);
        assert!((fit.coefficients[1].estimate - 2.0).abs() < 1e-9);
        assert!((fit.r_squared - 1.0).abs() < 1e-9);
    }

    #[test]
    fn significance_of_real_slope() {
        let mut rng = SmallRng::seed_from_u64(31);
        let xs: Vec<f64> = (0..200).map(|i| (i % 10) as f64).collect();
        let y: Vec<f64> = xs
            .iter()
            .map(|&x| 5.0 + 3.0 * x + sample_standard_normal(&mut rng))
            .collect();
        let (design, labels) = line_design(&xs);
        let fit = ols_fit(&design, &y, &labels).unwrap();
        assert!(fit.coefficients[1].is_significant(0.001));
        assert!((fit.coefficients[1].estimate - 3.0).abs() < 0.2);
    }

    #[test]
    fn null_slope_usually_insignificant() {
        let mut rng = SmallRng::seed_from_u64(32);
        let xs: Vec<f64> = (0..200).map(|i| (i % 10) as f64).collect();
        let y: Vec<f64> = xs
            .iter()
            .map(|_| 5.0 + sample_standard_normal(&mut rng))
            .collect();
        let (design, labels) = line_design(&xs);
        let fit = ols_fit(&design, &y, &labels).unwrap();
        assert!(!fit.coefficients[1].is_significant(0.01));
    }

    #[test]
    fn ols_misses_tail_effects_that_qr_sees() {
        // The paper's motivation: a factor that changes the *tail* but
        // not the mean. OLS sees nothing; quantile regression at τ=0.99
        // sees the effect.
        let mut rng = SmallRng::seed_from_u64(33);
        let n = 6_000;
        let mut design = Matrix::zeros(n, 2);
        let mut y = Vec::with_capacity(n);
        for i in 0..n {
            let level = (i % 2) as f64;
            design[(i, 0)] = 1.0;
            design[(i, 1)] = level;
            // level 0: Exp(mean 10); level 1: mixture with a fat tail but
            // the same mean (90% of mass at Exp(5), 10% at Exp(55)).
            let sample = if level == 0.0 {
                sample_exponential(&mut rng, 10.0)
            } else if rng_gen_bool(&mut rng, 0.9) {
                sample_exponential(&mut rng, 5.0)
            } else {
                sample_exponential(&mut rng, 55.0)
            };
            y.push(sample);
        }
        let labels = vec!["(Intercept)".to_string(), "factor".to_string()];
        let ols = ols_fit(&design, &y, &labels).unwrap();
        // Mean effect ~0 (both levels have mean 10).
        assert!(
            ols.coefficients[1].estimate.abs() < 1.0,
            "OLS effect {}",
            ols.coefficients[1].estimate
        );
        let qr = crate::regression::quantile_regression_irls(
            &design,
            &y,
            0.99,
            &crate::regression::IrlsOptions::default(),
        )
        .unwrap();
        // p99 of Exp(10) ≈ 46; p99 of the mixture ≈ 155. Large effect.
        assert!(qr[1] > 30.0, "QR tail effect {}", qr[1]);
    }

    fn rng_gen_bool(rng: &mut SmallRng, p: f64) -> bool {
        use rand::Rng;
        rng.gen::<f64>() < p
    }

    #[test]
    #[should_panic(expected = "degrees of freedom")]
    fn underdetermined_rejected() {
        let design = Matrix::identity(2);
        let labels = vec!["a".to_string(), "b".to_string()];
        let _ = ols_fit(&design, &[1.0, 2.0], &labels);
    }
}
