//! Householder QR factorization.
//!
//! MSCKF uses QR twice: to compress the stacked measurement Jacobian before
//! the update (the "QR" kernel of paper Fig. 7) and inside the
//! least-squares triangulation of feature tracks. `A = Q·R` with `Q`
//! orthonormal (thin) and `R` upper-triangular.
//!
//! The matrices are row-major and tall (the MSCKF stack is ~1000 × 195),
//! so both the factorization and `Qᵀ` application run row-oriented: each
//! reflector is a rank-1 update that streams whole rows, accumulating every
//! column's dot product over the rows in ascending order. That is the same
//! order a column-at-a-time Householder sweep uses, so the results are
//! bit-identical to one while the inner loops vectorise across columns.

use crate::error::MathError;
use crate::matrix::Matrix;
use crate::solve::backward_substitute;
use crate::vector::Vector;
use crate::Result;

/// Householder QR factorization of an `m × n` matrix with `m ≥ n`.
///
/// # Example
///
/// ```
/// use eudoxus_math::{Matrix, Qr, Vector};
///
/// // Overdetermined least squares: fit y = a + b t.
/// let a = Matrix::from_rows(&[&[1.0, 0.0], &[1.0, 1.0], &[1.0, 2.0]]);
/// let y = Vector::from_slice(&[1.0, 3.0, 5.0]);
/// let x = Qr::factor(&a)?.solve_least_squares(&y)?;
/// assert!((x.as_slice()[1] - 2.0).abs() < 1e-12);
/// # Ok::<(), eudoxus_math::MathError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Qr {
    /// Householder vectors packed below the diagonal; `R` on and above it.
    qr: Matrix,
    /// Scalar `β` per reflector.
    betas: Vec<f64>,
}

impl Qr {
    /// Factors `a` (requires at least as many rows as columns).
    ///
    /// Each reflector is applied to the trailing columns as a row-oriented
    /// rank-1 update: `dots[k+1..n] += v_i·row_i[k+1..n]` over the rows `i`
    /// in ascending order, then `row_i[k+1..n] -= v_i·β·dots`. Every
    /// column's dot product still accumulates its rows in the same order
    /// as a column-at-a-time Householder sweep, so the factor is
    /// bit-identical to one; but the inner loops stream contiguous rows of
    /// the row-major matrix and vectorise across columns.
    ///
    /// # Errors
    ///
    /// [`MathError::Underdetermined`] when `rows < cols`.
    pub fn factor(a: &Matrix) -> Result<Self> {
        let (m, n) = a.shape();
        if m < n {
            return Err(MathError::Underdetermined { rows: m, cols: n });
        }
        let mut qr = a.clone();
        let mut betas = Vec::with_capacity(n);
        let mut dots = vec![0.0; n];
        for k in 0..n {
            // Build the Householder reflector annihilating below (k,k).
            let mut norm = 0.0;
            for i in k..m {
                norm += qr[(i, k)] * qr[(i, k)];
            }
            let norm = norm.sqrt();
            if norm == 0.0 {
                betas.push(0.0);
                continue;
            }
            let alpha = if qr[(k, k)] >= 0.0 { -norm } else { norm };
            let v0 = qr[(k, k)] - alpha;
            // v = [v0, a(k+1..m, k)]; beta = 2 / (vᵀ v)
            let mut vtv = v0 * v0;
            for i in (k + 1)..m {
                vtv += qr[(i, k)] * qr[(i, k)];
            }
            let beta = if vtv.abs() < f64::MIN_POSITIVE {
                0.0
            } else {
                2.0 / vtv
            };
            // Apply to remaining columns: A ← (I - β v vᵀ) A, as
            // dots = vᵀ A[:, k+1..] accumulated row by row, then
            // A[i, k+1..] -= v_i · β·dots.
            let dots = &mut dots[k + 1..];
            for (d, &x) in dots.iter_mut().zip(&qr.row(k)[k + 1..]) {
                *d = v0 * x;
            }
            for i in (k + 1)..m {
                let row = qr.row(i);
                let vi = row[k];
                for (d, &x) in dots.iter_mut().zip(&row[k + 1..]) {
                    *d += vi * x;
                }
            }
            for d in dots.iter_mut() {
                *d *= beta;
            }
            for (x, &s) in qr.row_mut(k)[k + 1..].iter_mut().zip(dots.iter()) {
                *x -= s * v0;
            }
            for i in (k + 1)..m {
                let row = qr.row_mut(i);
                let vi = row[k];
                for (x, &s) in row[k + 1..].iter_mut().zip(dots.iter()) {
                    *x -= s * vi;
                }
            }
            qr[(k, k)] = alpha;
            // Store normalized v (v0 implied = 1) below the diagonal.
            if v0 != 0.0 {
                for i in (k + 1)..m {
                    qr[(i, k)] /= v0;
                }
                betas.push(beta * v0 * v0);
            } else {
                betas.push(0.0);
            }
        }
        Ok(Qr { qr, betas })
    }

    /// Number of rows of the factored matrix.
    pub fn rows(&self) -> usize {
        self.qr.rows()
    }

    /// Number of columns of the factored matrix.
    pub fn cols(&self) -> usize {
        self.qr.cols()
    }

    /// The `n × n` upper-triangular factor `R` (thin form).
    pub fn r(&self) -> Matrix {
        let n = self.cols();
        Matrix::from_fn(n, n, |i, j| if j >= i { self.qr[(i, j)] } else { 0.0 })
    }

    /// Applies `Qᵀ` to a vector without forming `Q`; the one-column case
    /// of [`Qr::qt_mul_matrix`].
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` differs from the factored row count.
    pub fn qt_mul(&self, b: &Vector) -> Vector {
        assert_eq!(b.len(), self.rows(), "qt_mul length mismatch");
        let mut y = b.clone();
        self.apply_qt(y.as_mut_slice(), 1);
        y
    }

    /// Applies `Qᵀ` to every column of `b` without forming `Q`.
    ///
    /// Row-oriented like [`Qr::factor`]: each reflector accumulates
    /// `vᵀ·B` row by row, then updates each row, so every column is
    /// bit-identical to [`Qr::qt_mul`] of that column.
    ///
    /// # Panics
    ///
    /// Panics if `b.rows()` differs from the factored row count.
    pub fn qt_mul_matrix(&self, b: &Matrix) -> Matrix {
        assert_eq!(b.rows(), self.rows(), "qt_mul_matrix row mismatch");
        let mut y = b.clone();
        let c = y.cols();
        self.apply_qt(y.as_mut_slice(), c);
        y
    }

    /// Applies the reflectors in order to a row-major `m × c` buffer.
    fn apply_qt(&self, y: &mut [f64], c: usize) {
        if c == 0 {
            return;
        }
        let mut dots = vec![0.0; c];
        for (k, &beta) in self.betas.iter().enumerate() {
            if beta == 0.0 {
                continue;
            }
            let (head, tail) = y.split_at_mut((k + 1) * c);
            let yk = &mut head[k * c..];
            dots.copy_from_slice(yk);
            for (i, yi) in tail.chunks_exact(c).enumerate() {
                let vi = self.qr[(k + 1 + i, k)];
                for (d, &x) in dots.iter_mut().zip(yi) {
                    *d += vi * x;
                }
            }
            for d in dots.iter_mut() {
                *d *= beta;
            }
            for (x, &s) in yk.iter_mut().zip(&dots) {
                *x -= s;
            }
            for (i, yi) in tail.chunks_exact_mut(c).enumerate() {
                let vi = self.qr[(k + 1 + i, k)];
                for (x, &s) in yi.iter_mut().zip(&dots) {
                    *x -= s * vi;
                }
            }
        }
    }

    /// The thin orthonormal factor `Q` (`m × n`).
    pub fn q_thin(&self) -> Matrix {
        let (m, n) = self.qr.shape();
        let mut q = Matrix::zeros(m, n);
        // Q = H_0 … H_{n-1} · [I; 0]; apply reflectors in reverse.
        for j in 0..n {
            let mut e = Vector::zeros(m);
            e[j] = 1.0;
            for k in (0..n).rev() {
                let beta = self.betas[k];
                if beta == 0.0 {
                    continue;
                }
                let mut dot = e[k];
                for i in (k + 1)..m {
                    dot += self.qr[(i, k)] * e[i];
                }
                let s = beta * dot;
                e[k] -= s;
                for i in (k + 1)..m {
                    let upd = s * self.qr[(i, k)];
                    e[i] -= upd;
                }
            }
            for i in 0..m {
                q[(i, j)] = e[i];
            }
        }
        q
    }

    /// Least-squares solution of `A x ≈ b` via `R x = (Qᵀ b)[..n]`.
    ///
    /// # Errors
    ///
    /// [`MathError::DimensionMismatch`] for a wrong-length `b` and
    /// [`MathError::Singular`] when `A` is rank-deficient.
    pub fn solve_least_squares(&self, b: &Vector) -> Result<Vector> {
        if b.len() != self.rows() {
            return Err(MathError::DimensionMismatch {
                left: self.qr.shape(),
                right: (b.len(), 1),
            });
        }
        let y = self.qt_mul(b);
        backward_substitute(&self.r(), &y.segment(0, self.cols()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(m: usize, n: usize) -> Matrix {
        Matrix::from_fn(m, n, |i, j| ((i * n + j) as f64 * 0.917).sin() + 0.1)
    }

    #[test]
    fn thin_q_is_orthonormal() {
        let a = sample(8, 4);
        let qr = Qr::factor(&a).unwrap();
        let q = qr.q_thin();
        let qtq = q.gram();
        assert!((&qtq - &Matrix::identity(4)).norm_max() < 1e-12);
    }

    #[test]
    fn reconstruction() {
        let a = sample(7, 5);
        let qr = Qr::factor(&a).unwrap();
        let recon = qr.q_thin().matmul(&qr.r()).unwrap();
        assert!((&recon - &a).norm_max() < 1e-12);
    }

    #[test]
    fn least_squares_matches_normal_equations() {
        let a = sample(10, 3);
        let b = Vector::from_iter((0..10).map(|i| (i as f64).cos()));
        let x = Qr::factor(&a).unwrap().solve_least_squares(&b).unwrap();
        // Normal equations solution for comparison.
        let atb = a.tr_matvec(&b);
        let x2 = a.gram().solve_spd(&atb).unwrap();
        assert!((&x - &x2).norm_max() < 1e-9);
    }

    #[test]
    fn qt_mul_preserves_norm() {
        let a = sample(9, 4);
        let qr = Qr::factor(&a).unwrap();
        let b = Vector::from_iter((0..9).map(|i| i as f64 - 4.0));
        let y = qr.qt_mul(&b);
        assert!((y.norm() - b.norm()).abs() < 1e-10);
    }

    #[test]
    fn underdetermined_rejected() {
        assert!(matches!(
            Qr::factor(&Matrix::zeros(2, 3)),
            Err(MathError::Underdetermined { rows: 2, cols: 3 })
        ));
    }

    #[test]
    fn square_exact_solve() {
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]);
        let b = Vector::from_slice(&[5.0, 10.0]);
        let x = Qr::factor(&a).unwrap().solve_least_squares(&b).unwrap();
        let r = &a.matvec(&x) - &b;
        assert!(r.norm() < 1e-12);
    }
}
