//! LU factorization with partial pivoting, the general-purpose
//! decomposition behind [`crate::Matrix::inverse`] and [`crate::Matrix::solve`].

use crate::error::MathError;
use crate::matrix::Matrix;
use crate::solve::{backward_rows, forward_rows, into_vector, PIVOT_EPS};
use crate::vector::Vector;
use crate::Result;

/// Compact LU factorization `P·A = L·U` with partial (row) pivoting.
///
/// `L` (unit lower) and `U` (upper) are stored packed in a single matrix;
/// `perm[i]` records the source row of pivoted row `i`.
///
/// # Example
///
/// ```
/// use eudoxus_math::{Lu, Matrix, Vector};
///
/// let a = Matrix::from_rows(&[&[0.0, 2.0], &[1.0, 1.0]]); // needs pivoting
/// let lu = Lu::factor(&a)?;
/// let x = lu.solve(&Vector::from_slice(&[2.0, 2.0]))?;
/// assert!((x.as_slice()[0] - 1.0).abs() < 1e-12);
/// # Ok::<(), eudoxus_math::MathError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Lu {
    lu: Matrix,
    perm: Vec<usize>,
    sign: f64,
}

impl Lu {
    /// Factors a square matrix.
    ///
    /// # Errors
    ///
    /// [`MathError::NotSquare`] for rectangular input and
    /// [`MathError::Singular`] when no usable pivot exists in some column.
    pub fn factor(a: &Matrix) -> Result<Self> {
        if !a.is_square() {
            return Err(MathError::NotSquare { shape: a.shape() });
        }
        let n = a.rows();
        let mut lu = a.clone();
        let mut perm: Vec<usize> = (0..n).collect();
        let mut sign = 1.0;
        for k in 0..n {
            // Select pivot row.
            let mut p = k;
            let mut best = lu[(k, k)].abs();
            for i in (k + 1)..n {
                let v = lu[(i, k)].abs();
                if v > best {
                    best = v;
                    p = i;
                }
            }
            if best < PIVOT_EPS {
                return Err(MathError::Singular);
            }
            if p != k {
                perm.swap(p, k);
                sign = -sign;
                for j in 0..n {
                    let tmp = lu[(k, j)];
                    lu[(k, j)] = lu[(p, j)];
                    lu[(p, j)] = tmp;
                }
            }
            // Eliminate below the pivot.
            let pivot = lu[(k, k)];
            for i in (k + 1)..n {
                let f = lu[(i, k)] / pivot;
                lu[(i, k)] = f;
                for j in (k + 1)..n {
                    let upd = f * lu[(k, j)];
                    lu[(i, j)] -= upd;
                }
            }
        }
        Ok(Lu { lu, perm, sign })
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.lu.rows()
    }

    /// Solves `A x = b`; the one-column case of [`Lu::solve_matrix`].
    ///
    /// # Errors
    ///
    /// [`MathError::DimensionMismatch`] when `b.len()` differs from the
    /// factored dimension.
    pub fn solve(&self, b: &Vector) -> Result<Vector> {
        let n = self.dim();
        if b.len() != n {
            return Err(MathError::DimensionMismatch {
                left: (n, n),
                right: (b.len(), 1),
            });
        }
        let mut x = Matrix::from_vec(n, 1, self.perm.iter().map(|&p| b[p]).collect());
        self.substitute(&mut x)?;
        Ok(into_vector(x))
    }

    /// Solves `A X = B` for all right-hand sides at once: permute the rows
    /// of `B`, then unit-lower forward and upper backward substitution on
    /// the packed factor.
    ///
    /// Both passes are row-oriented and bit-identical to solving each
    /// column separately (see [`Cholesky::solve_matrix`](crate::Cholesky::solve_matrix)).
    ///
    /// # Errors
    ///
    /// [`MathError::DimensionMismatch`] when `b.rows()` differs from the
    /// factored dimension.
    pub fn solve_matrix(&self, b: &Matrix) -> Result<Matrix> {
        if b.rows() != self.dim() {
            return Err(MathError::DimensionMismatch {
                left: self.lu.shape(),
                right: b.shape(),
            });
        }
        let mut x = Matrix::zeros(b.rows(), b.cols());
        for (i, &p) in self.perm.iter().enumerate() {
            x.row_mut(i).copy_from_slice(b.row(p));
        }
        self.substitute(&mut x)?;
        Ok(x)
    }

    /// `X ← U⁻¹·L⁻¹·X` in place, on already-permuted right-hand sides.
    fn substitute(&self, x: &mut Matrix) -> Result<()> {
        let lu = &self.lu;
        // Factorization already refused pivots below PIVOT_EPS, so the
        // backward pass's check never fires.
        forward_rows(x, |i, j| lu[(i, j)], |_| None)?;
        backward_rows(x, |i, j| lu[(i, j)], |i| Some(lu[(i, i)]))
    }

    /// Inverse of the factored matrix.
    ///
    /// # Errors
    ///
    /// Propagates [`Lu::solve_matrix`] failures.
    pub fn inverse(&self) -> Result<Matrix> {
        self.solve_matrix(&Matrix::identity(self.dim()))
    }

    /// Determinant, as the signed product of pivots.
    pub fn det(&self) -> f64 {
        self.sign * (0..self.dim()).map(|i| self.lu[(i, i)]).product::<f64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solve_with_pivoting() {
        let a = Matrix::from_rows(&[
            &[0.0, 1.0, 2.0],
            &[3.0, 1.0, 0.0],
            &[1.0, 1.0, 1.0],
        ]);
        let b = Vector::from_slice(&[5.0, 4.0, 3.0]);
        let x = Lu::factor(&a).unwrap().solve(&b).unwrap();
        let r = &a.matvec(&x) - &b;
        assert!(r.norm() < 1e-12);
    }

    #[test]
    fn inverse_roundtrip() {
        let a = Matrix::from_fn(5, 5, |i, j| {
            if i == j {
                4.0
            } else {
                ((i * 5 + j) as f64 * 0.31).cos()
            }
        });
        let inv = Lu::factor(&a).unwrap().inverse().unwrap();
        let eye = a.matmul(&inv).unwrap();
        assert!((&eye - &Matrix::identity(5)).norm_max() < 1e-10);
    }

    #[test]
    fn determinant_of_permuted_identity() {
        // Swapping two rows of I gives det = -1.
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        assert!((Lu::factor(&a).unwrap().det() + 1.0).abs() < 1e-15);
        let d = Matrix::from_diag(&[2.0, 5.0]);
        assert!((Lu::factor(&d).unwrap().det() - 10.0).abs() < 1e-15);
    }

    #[test]
    fn singular_detected() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        assert_eq!(Lu::factor(&a).unwrap_err(), MathError::Singular);
    }

    #[test]
    fn rectangular_rejected() {
        assert!(matches!(
            Lu::factor(&Matrix::zeros(3, 2)),
            Err(MathError::NotSquare { .. })
        ));
    }
}
