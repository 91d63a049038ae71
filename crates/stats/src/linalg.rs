//! Minimal dense linear algebra: matrices, LU factorisation with partial
//! pivoting, and least squares via normal equations.
//!
//! Sized for the regression problems in this repository (design matrices
//! with at most a few dozen columns); no external BLAS.

use std::fmt;
use std::ops::{Index, IndexMut};

/// Errors from linear solvers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SolveError {
    /// The system matrix is singular (or numerically so).
    Singular,
    /// Dimensions of the operands do not match.
    DimensionMismatch {
        /// What was expected.
        expected: usize,
        /// What was provided.
        actual: usize,
    },
}

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveError::Singular => write!(f, "matrix is singular"),
            SolveError::DimensionMismatch { expected, actual } => {
                write!(f, "dimension mismatch: expected {expected}, got {actual}")
            }
        }
    }
}

impl std::error::Error for SolveError {}

/// A dense row-major matrix of `f64`.
///
/// # Examples
///
/// ```
/// use treadmill_stats::linalg::Matrix;
///
/// let mut a = Matrix::zeros(2, 2);
/// a[(0, 0)] = 2.0;
/// a[(1, 1)] = 4.0;
/// let x = a.solve(&[2.0, 2.0])?;
/// assert_eq!(x, vec![1.0, 0.5]);
/// # Ok::<(), treadmill_stats::linalg::SolveError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the identity matrix of order `n`.
    #[cfg(test)]
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a matrix from row-major data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    #[cfg(test)]
    pub fn from_rows(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "row-major data length mismatch");
        Matrix { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// A view of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of bounds.
    pub fn row(&self, r: usize) -> &[f64] {
        assert!(r < self.rows, "row {r} out of bounds");
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Matrix transpose.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out[(j, i)] = self[(i, j)];
            }
        }
        out
    }

    /// Matrix–vector product.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != self.cols()`.
    pub fn mul_vec(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(v.len(), self.cols, "mul_vec dimension mismatch");
        (0..self.rows)
            .map(|i| self.row(i).iter().zip(v).map(|(a, b)| a * b).sum())
            .collect()
    }

    /// Matrix–matrix product.
    ///
    /// # Panics
    ///
    /// Panics if inner dimensions disagree.
    pub fn mul(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.rows, "mul dimension mismatch");
        let mut out = Matrix::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(i, k)];
                if a == 0.0 {
                    continue;
                }
                for j in 0..other.cols {
                    out[(i, j)] += a * other[(k, j)];
                }
            }
        }
        out
    }

    /// Solves `self * x = b` for square `self` by LU factorisation with
    /// partial pivoting.
    ///
    /// # Errors
    ///
    /// Returns [`SolveError::Singular`] if the matrix is (numerically)
    /// singular, and [`SolveError::DimensionMismatch`] if `b` has the
    /// wrong length or the matrix is not square.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, SolveError> {
        if self.rows != self.cols {
            return Err(SolveError::DimensionMismatch {
                expected: self.rows,
                actual: self.cols,
            });
        }
        if b.len() != self.rows {
            return Err(SolveError::DimensionMismatch {
                expected: self.rows,
                actual: b.len(),
            });
        }
        let n = self.rows;
        let mut lu = self.data.clone();
        let mut x = b.to_vec();
        let mut perm: Vec<usize> = (0..n).collect();

        for col in 0..n {
            // Pivot.
            let mut pivot_row = col;
            let mut pivot_val = lu[perm[col] * n + col].abs();
            for (r, &pr) in perm.iter().enumerate().skip(col + 1) {
                let v = lu[pr * n + col].abs();
                if v > pivot_val {
                    pivot_val = v;
                    pivot_row = r;
                }
            }
            if pivot_val < 1e-12 {
                return Err(SolveError::Singular);
            }
            perm.swap(col, pivot_row);
            let p = perm[col];
            let diag = lu[p * n + col];
            for &r in &perm[col + 1..] {
                let factor = lu[r * n + col] / diag;
                if factor == 0.0 {
                    continue;
                }
                lu[r * n + col] = factor;
                for j in col + 1..n {
                    lu[r * n + j] -= factor * lu[p * n + j];
                }
            }
        }

        // Forward substitution on permuted b.
        let mut y = vec![0.0; n];
        for (i, &p) in perm.iter().enumerate() {
            let mut sum = x[p];
            for (j, &pj) in perm.iter().enumerate().take(i) {
                let _ = pj;
                sum -= lu[p * n + j] * y[j];
            }
            y[i] = sum;
        }
        // Back substitution.
        for i in (0..n).rev() {
            let p = perm[i];
            let mut sum = y[i];
            for j in i + 1..n {
                sum -= lu[p * n + j] * x[j];
            }
            x[i] = sum / lu[p * n + i];
        }
        Ok(x)
    }

    /// Solves the least-squares problem `min ||self * x - b||²` via the
    /// normal equations (adequate for the well-conditioned design
    /// matrices used here).
    ///
    /// # Errors
    ///
    /// Returns [`SolveError::Singular`] if `XᵀX` is singular and
    /// [`SolveError::DimensionMismatch`] on shape errors.
    pub fn solve_least_squares(&self, b: &[f64]) -> Result<Vec<f64>, SolveError> {
        if b.len() != self.rows {
            return Err(SolveError::DimensionMismatch {
                expected: self.rows,
                actual: b.len(),
            });
        }
        let xt = self.transpose();
        let xtx = xt.mul(self);
        let xtb = xt.mul_vec(b);
        xtx.solve(&xtb)
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        &mut self.data[r * self.cols + c]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn solve_known_system() {
        // 2x + y = 5; x + 3y = 10  =>  x = 1, y = 3.
        let a = Matrix::from_rows(2, 2, vec![2.0, 1.0, 1.0, 3.0]);
        let x = a.solve(&[5.0, 10.0]).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-10);
        assert!((x[1] - 3.0).abs() < 1e-10);
    }

    #[test]
    fn solve_requires_pivoting() {
        // Zero on the diagonal: fails without partial pivoting.
        let a = Matrix::from_rows(2, 2, vec![0.0, 1.0, 1.0, 0.0]);
        let x = a.solve(&[2.0, 3.0]).unwrap();
        assert!((x[0] - 3.0).abs() < 1e-10);
        assert!((x[1] - 2.0).abs() < 1e-10);
    }

    #[test]
    fn singular_is_detected() {
        let a = Matrix::from_rows(2, 2, vec![1.0, 2.0, 2.0, 4.0]);
        assert_eq!(a.solve(&[1.0, 2.0]), Err(SolveError::Singular));
    }

    #[test]
    fn dimension_mismatch_is_detected() {
        let a = Matrix::zeros(2, 3);
        assert!(matches!(
            a.solve(&[1.0, 2.0]),
            Err(SolveError::DimensionMismatch { .. })
        ));
        let b = Matrix::identity(2);
        assert!(matches!(
            b.solve(&[1.0]),
            Err(SolveError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn transpose_and_mul() {
        let a = Matrix::from_rows(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let at = a.transpose();
        assert_eq!(at.rows(), 3);
        assert_eq!(at[(0, 1)], 4.0);
        let product = a.mul(&at); // 2x2
        assert_eq!(product[(0, 0)], 14.0);
        assert_eq!(product[(1, 1)], 77.0);
    }

    #[test]
    fn least_squares_recovers_line() {
        // y = 2 + 3x with symmetric noise-free points.
        let xs = [0.0, 1.0, 2.0, 3.0, 4.0];
        let mut design = Matrix::zeros(xs.len(), 2);
        let mut y = Vec::new();
        for (i, &x) in xs.iter().enumerate() {
            design[(i, 0)] = 1.0;
            design[(i, 1)] = x;
            y.push(2.0 + 3.0 * x);
        }
        let beta = design.solve_least_squares(&y).unwrap();
        assert!((beta[0] - 2.0).abs() < 1e-9);
        assert!((beta[1] - 3.0).abs() < 1e-9);
    }

    #[test]
    fn error_display_nonempty() {
        assert!(!SolveError::Singular.to_string().is_empty());
        let e = SolveError::DimensionMismatch {
            expected: 2,
            actual: 3,
        };
        assert!(e.to_string().contains("2"));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn solve_then_multiply_round_trips(
            diag in prop::collection::vec(1.0f64..10.0, 2..6),
            off in -0.4f64..0.4,
            b in prop::collection::vec(-10.0f64..10.0, 6),
        ) {
            // Diagonally dominant => well conditioned.
            let n = diag.len();
            let mut a = Matrix::zeros(n, n);
            for i in 0..n {
                for j in 0..n {
                    a[(i, j)] = if i == j { diag[i] } else { off };
                }
            }
            let rhs = &b[..n];
            let x = a.solve(rhs).unwrap();
            let back = a.mul_vec(&x);
            for i in 0..n {
                prop_assert!((back[i] - rhs[i]).abs() < 1e-6);
            }
        }

        #[test]
        fn transpose_is_involution(
            rows in 1usize..5,
            cols in 1usize..5,
            seed in 0u64..1000,
        ) {
            let data: Vec<f64> = (0..rows * cols)
                .map(|i| ((seed + i as u64) % 17) as f64 - 8.0)
                .collect();
            let m = Matrix::from_rows(rows, cols, data);
            prop_assert_eq!(m.transpose().transpose(), m);
        }
    }
}
