//! Cholesky (LLᵀ) factorization for symmetric positive definite matrices.
//!
//! The VIO backend's dominant kernel — computing the Kalman gain — solves
//! `S·K = P·Hᵀ` where `S = H·P·Hᵀ + R` is symmetric positive definite
//! (paper Eq. 1). The paper's backend accelerator exploits that symmetry to
//! halve compute and storage (Sec. VI-A "Optimization"); the CPU
//! implementation here does the same by only touching the lower triangle.
//! Solves substitute row-oriented over all right-hand sides at once and
//! read `Lᵀ` straight out of `L`, bit-identical to column-by-column
//! substitution (see [`Cholesky::solve_matrix`]).

use crate::error::MathError;
use crate::matrix::Matrix;
use crate::solve::{backward_rows, column, forward_rows, into_vector};
use crate::vector::Vector;
use crate::Result;

/// The lower-triangular Cholesky factor `L` with `A = L·Lᵀ`.
///
/// # Example
///
/// ```
/// use eudoxus_math::{Cholesky, Matrix, Vector};
///
/// let a = Matrix::from_rows(&[&[4.0, 2.0], &[2.0, 3.0]]);
/// let chol = Cholesky::factor(&a)?;
/// let x = chol.solve(&Vector::from_slice(&[1.0, 1.0]))?;
/// assert!((a.matvec(&x).as_slice()[0] - 1.0).abs() < 1e-12);
/// # Ok::<(), eudoxus_math::MathError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Cholesky {
    l: Matrix,
}

impl Cholesky {
    /// Factors a symmetric positive definite matrix.
    ///
    /// Only the lower triangle of `a` is read, so callers may pass matrices
    /// whose upper triangle carries numerical noise.
    ///
    /// The factor is built right-looking on `U = Lᵀ`, where column `k` of
    /// `L` is the contiguous row `k`: once that row is final, every later
    /// row `j` subtracts `L[j][k]·U[k][j..]` in one vectorisable sweep.
    /// Each entry still starts from `a[i][j]`, subtracts
    /// `L[i][k]·L[j][k]` in ascending `k` and ends with the same square
    /// root or division, so `L` is bit-identical to the entry-by-entry
    /// dot-product form, which waits on one serial chain per entry.
    ///
    /// # Errors
    ///
    /// [`MathError::NotSquare`] for rectangular input and
    /// [`MathError::NotPositiveDefinite`] when a pivot is non-positive.
    pub fn factor(a: &Matrix) -> Result<Self> {
        if !a.is_square() {
            return Err(MathError::NotSquare { shape: a.shape() });
        }
        let n = a.rows();
        let mut u = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                u[(j, i)] = a[(i, j)];
            }
        }
        for k in 0..n {
            let (head, tail) = u.as_mut_slice().split_at_mut((k + 1) * n);
            let uk = &mut head[k * n..];
            let d = uk[k];
            if d <= 0.0 || !d.is_finite() {
                return Err(MathError::NotPositiveDefinite);
            }
            uk[k] = d.sqrt();
            let pivot = uk[k];
            for x in &mut uk[k + 1..] {
                *x /= pivot;
            }
            for (j, uj) in (k + 1..n).zip(tail.chunks_exact_mut(n)) {
                let f = uk[j];
                for (x, &y) in uj[j..].iter_mut().zip(&uk[j..]) {
                    *x -= f * y;
                }
            }
        }
        // U → L in place; U's strictly lower part is still +0.
        for i in 0..n {
            for j in (i + 1)..n {
                let upper = u[(i, j)];
                u[(i, j)] = u[(j, i)];
                u[(j, i)] = upper;
            }
        }
        Ok(Cholesky { l: u })
    }

    /// The lower-triangular factor `L`.
    pub fn l(&self) -> &Matrix {
        &self.l
    }

    /// Consumes the factorization, returning `L`.
    pub fn into_l(self) -> Matrix {
        self.l
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.l.rows()
    }

    /// Solves `A x = b` via two triangular substitutions; the one-column
    /// case of [`Cholesky::solve_matrix`].
    ///
    /// # Errors
    ///
    /// [`MathError::DimensionMismatch`] when `b.len()` differs from the
    /// factored dimension, and [`MathError::Singular`] when a diagonal
    /// entry of `L` is below [`crate::solve::PIVOT_EPS`].
    pub fn solve(&self, b: &Vector) -> Result<Vector> {
        if b.len() != self.dim() {
            return Err(MathError::DimensionMismatch {
                left: self.l.shape(),
                right: (b.len(), 1),
            });
        }
        let mut x = column(b);
        self.substitute(&mut x)?;
        Ok(into_vector(x))
    }

    /// Solves `A X = B` for all right-hand sides at once: `L·Y = B` by
    /// forward substitution, then `Lᵀ·X = Y` by backward substitution that
    /// reads `L[j][i]` in place of forming `Lᵀ`.
    ///
    /// Both passes are row-oriented (`X[i,:] -= L[i][j]·X[j,:]`): each
    /// coefficient of `L` is applied across the right-hand sides, up to 16
    /// at a time held in registers. Each element still sees the same
    /// subtractions in the same order and the same division as a
    /// column-by-column solve, so the result is bit-identical to solving
    /// each column separately.
    ///
    /// # Errors
    ///
    /// [`MathError::DimensionMismatch`] when `b.rows()` differs from the
    /// factored dimension, and [`MathError::Singular`] when `b` has at
    /// least one column and a diagonal entry of `L` is below
    /// [`crate::solve::PIVOT_EPS`].
    pub fn solve_matrix(&self, b: &Matrix) -> Result<Matrix> {
        if b.rows() != self.dim() {
            return Err(MathError::DimensionMismatch {
                left: self.l.shape(),
                right: b.shape(),
            });
        }
        let mut x = b.clone();
        self.substitute(&mut x)?;
        Ok(x)
    }

    /// `X ← A⁻¹·X` in place.
    fn substitute(&self, x: &mut Matrix) -> Result<()> {
        let l = &self.l;
        forward_rows(x, |i, j| l[(i, j)], |i| Some(l[(i, i)]))?;
        backward_rows(x, |i, j| l[(j, i)], |i| Some(l[(i, i)]))
    }

    /// Inverse of the factored matrix (solves against the identity).
    ///
    /// # Errors
    ///
    /// Propagates substitution failures (cannot occur for a valid factor).
    pub fn inverse(&self) -> Result<Matrix> {
        self.solve_matrix(&Matrix::identity(self.dim()))
    }

    /// `log(det A)`, computed stably from the factor diagonal.
    pub fn log_det(&self) -> f64 {
        (0..self.dim()).map(|i| self.l[(i, i)].ln()).sum::<f64>() * 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spd(n: usize) -> Matrix {
        // A = B·Bᵀ + n·I is SPD for any B.
        let b = Matrix::from_fn(n, n, |i, j| ((i * n + j) as f64 * 0.7).sin());
        let mut a = b.outer_gram();
        a.add_diag(n as f64);
        a
    }

    #[test]
    fn factor_reconstructs() {
        let a = spd(6);
        let c = Cholesky::factor(&a).unwrap();
        let recon = c.l().matmul(&c.l().transpose()).unwrap();
        assert!((&recon - &a).norm_max() < 1e-10);
    }

    #[test]
    fn solve_residual_is_small() {
        let a = spd(8);
        let b = Vector::from_iter((0..8).map(|i| i as f64 - 3.0));
        let x = Cholesky::factor(&a).unwrap().solve(&b).unwrap();
        let r = &a.matvec(&x) - &b;
        assert!(r.norm() < 1e-9);
    }

    #[test]
    fn inverse_is_inverse() {
        let a = spd(5);
        let inv = Cholesky::factor(&a).unwrap().inverse().unwrap();
        let eye = a.matmul(&inv).unwrap();
        assert!((&eye - &Matrix::identity(5)).norm_max() < 1e-9);
    }

    #[test]
    fn rejects_indefinite() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]); // eigenvalues 3, -1
        assert_eq!(
            Cholesky::factor(&a).unwrap_err(),
            MathError::NotPositiveDefinite
        );
    }

    #[test]
    fn rejects_rectangular() {
        assert!(matches!(
            Cholesky::factor(&Matrix::zeros(2, 3)),
            Err(MathError::NotSquare { .. })
        ));
    }

    #[test]
    fn log_det_matches_diagonal_product() {
        let a = Matrix::from_diag(&[2.0, 3.0, 4.0]);
        let c = Cholesky::factor(&a).unwrap();
        assert!((c.log_det() - 24.0f64.ln()).abs() < 1e-12);
    }

    #[test]
    fn reads_only_lower_triangle() {
        let mut a = spd(4);
        let c_ref = Cholesky::factor(&a).unwrap();
        a[(0, 3)] += 100.0; // corrupt upper triangle only
        let c = Cholesky::factor(&a).unwrap();
        assert!((&c.into_l() - c_ref.l()).norm_max() < 1e-15);
    }
}
