//! Forward and backward substitution on triangular systems.
//!
//! Substitution is one of the five accelerator building blocks (paper
//! Table I, "Fwd./Bwd. Substitution"): computing the Kalman gain solves
//! `S·K = P·Hᵀ` by decomposing `S` and substituting, and marginalization
//! does the same against its Schur-complement factors.

use crate::error::MathError;
use crate::matrix::Matrix;
use crate::vector::Vector;
use crate::Result;

/// Numerical threshold below which a pivot is treated as zero.
pub const PIVOT_EPS: f64 = 1e-12;

/// Solves `L x = b` for lower-triangular `L` by forward substitution.
///
/// Only the lower triangle of `l` is read.
///
/// # Errors
///
/// [`MathError::NotSquare`] for rectangular `l`,
/// [`MathError::DimensionMismatch`] when `b.len() != l.rows()`, and
/// [`MathError::Singular`] when a diagonal entry vanishes.
pub fn forward_substitute(l: &Matrix, b: &Vector) -> Result<Vector> {
    check_vector(l, b)?;
    let mut x = column(b);
    forward_rows(&mut x, |i, j| l[(i, j)], |i| Some(l[(i, i)]))?;
    Ok(into_vector(x))
}

/// Solves `U x = b` for upper-triangular `U` by backward substitution.
///
/// Only the upper triangle of `u` is read.
///
/// # Errors
///
/// Same conditions as [`forward_substitute`].
pub fn backward_substitute(u: &Matrix, b: &Vector) -> Result<Vector> {
    check_vector(u, b)?;
    let mut x = column(b);
    backward_rows(&mut x, |i, j| u[(i, j)], |i| Some(u[(i, i)]))?;
    Ok(into_vector(x))
}

/// Solves `L X = B` by forward substitution over all right-hand sides at
/// once (see [`forward_rows`]).
///
/// # Errors
///
/// Same conditions as [`forward_substitute`]; with no right-hand sides
/// only the row count is checked.
pub fn forward_substitute_matrix(l: &Matrix, b: &Matrix) -> Result<Matrix> {
    check_triangular(l, b)?;
    let mut x = b.clone();
    forward_rows(&mut x, |i, j| l[(i, j)], |i| Some(l[(i, i)]))?;
    Ok(x)
}

/// Solves `U X = B` by backward substitution over all right-hand sides at
/// once (see [`backward_rows`]).
///
/// # Errors
///
/// Same conditions as [`forward_substitute_matrix`].
pub fn backward_substitute_matrix(u: &Matrix, b: &Matrix) -> Result<Matrix> {
    check_triangular(u, b)?;
    let mut x = b.clone();
    backward_rows(&mut x, |i, j| u[(i, j)], |i| Some(u[(i, i)]))?;
    Ok(x)
}

/// Shape checks shared by the vector substitutions.
fn check_vector(t: &Matrix, b: &Vector) -> Result<()> {
    if !t.is_square() {
        return Err(MathError::NotSquare { shape: t.shape() });
    }
    if b.len() != t.rows() {
        return Err(MathError::DimensionMismatch {
            left: t.shape(),
            right: (b.len(), 1),
        });
    }
    Ok(())
}

/// Shape checks shared by the matrix substitutions.
fn check_triangular(t: &Matrix, b: &Matrix) -> Result<()> {
    if b.rows() != t.rows() {
        return Err(MathError::DimensionMismatch {
            left: t.shape(),
            right: b.shape(),
        });
    }
    if b.cols() > 0 && !t.is_square() {
        return Err(MathError::NotSquare { shape: t.shape() });
    }
    Ok(())
}

/// A vector as an `n × 1` matrix.
pub(crate) fn column(b: &Vector) -> Matrix {
    Matrix::from_vec(b.len(), 1, b.as_slice().to_vec())
}

/// An `n × 1` matrix as a vector.
pub(crate) fn into_vector(x: Matrix) -> Vector {
    Vector::from_vec(x.into_vec())
}

/// Forward substitution in place: `X ← T⁻¹·X` for lower-triangular `T`.
///
/// `t(i, j)` reads `T[i][j]` for `j < i`; `diag(i)` is `T[i][i]`, or
/// `None` for a unit diagonal. Row `i` of `X` is finished as
/// `X[i,:] -= T[i][j]·X[j,:]` for `j` ascending, then `X[i,:] /= T[i][i]`.
/// Every element thus sees exactly the subtractions, in the same order,
/// and the same final division as a per-column substitution
/// `s -= T[i][j]·x[j]; x[i] = s / T[i][i]`, so the result is bit-identical
/// to solving the columns one at a time — but each coefficient is applied
/// to a tile of up to 16 right-hand sides held in registers.
///
/// # Errors
///
/// [`MathError::Singular`] when some `|T[i][i]| <` [`PIVOT_EPS`] and `X`
/// has at least one column (no right-hand side means nothing to solve).
pub(crate) fn forward_rows(
    x: &mut Matrix,
    t: impl Fn(usize, usize) -> f64,
    diag: impl Fn(usize) -> Option<f64>,
) -> Result<()> {
    substitute::<true>(x, t, diag)
}

/// Backward substitution in place: `X ← T⁻¹·X` for upper-triangular `T`.
///
/// `t(i, j)` reads `T[i][j]` for `j > i` — for a Cholesky factor this is
/// `L[j][i]`, so `Lᵀ` is never formed. Row `i` is finished as
/// `X[i,:] -= T[i][j]·X[j,:]` for `j` ascending from `i + 1`, then divided
/// by `diag(i)`; bit-identical to a per-column backward substitution for
/// the same reason as [`forward_rows`].
///
/// # Errors
///
/// Same conditions as [`forward_rows`].
pub(crate) fn backward_rows(
    x: &mut Matrix,
    t: impl Fn(usize, usize) -> f64,
    diag: impl Fn(usize) -> Option<f64>,
) -> Result<()> {
    substitute::<false>(x, t, diag)
}

/// Runs the substitution over column tiles of `x`, widest first.
fn substitute<const FORWARD: bool>(
    x: &mut Matrix,
    t: impl Fn(usize, usize) -> f64,
    diag: impl Fn(usize) -> Option<f64>,
) -> Result<()> {
    let (n, c) = x.shape();
    let x = x.as_mut_slice();
    let mut c0 = 0;
    while c0 < c {
        c0 += match c - c0 {
            16.. => substitute_tile::<16, FORWARD>(x, n, c, c0, &t, &diag)?,
            4.. => substitute_tile::<4, FORWARD>(x, n, c, c0, &t, &diag)?,
            _ => substitute_tile::<1, FORWARD>(x, n, c, c0, &t, &diag)?,
        };
    }
    Ok(())
}

/// Substitutes columns `c0..c0 + W` of the row-major `n × c` `x`, keeping
/// each row's tile in registers; returns `W`.
fn substitute_tile<const W: usize, const FORWARD: bool>(
    x: &mut [f64],
    n: usize,
    c: usize,
    c0: usize,
    t: impl Fn(usize, usize) -> f64,
    diag: impl Fn(usize) -> Option<f64>,
) -> Result<usize> {
    for step in 0..n {
        let i = if FORWARD { step } else { n - 1 - step };
        let mut acc: [f64; W] = x[i * c + c0..][..W].try_into().expect("tile width");
        let solved = if FORWARD { 0..i } else { i + 1..n };
        for j in solved {
            let f = t(i, j);
            let xj = &x[j * c + c0..][..W];
            for k in 0..W {
                acc[k] -= f * xj[k];
            }
        }
        divide(&mut acc, diag(i))?;
        x[i * c + c0..][..W].copy_from_slice(&acc);
    }
    Ok(W)
}

/// Divides a finished tile by its pivot, refusing pivots below
/// [`PIVOT_EPS`]; `None` is a unit diagonal.
fn divide(acc: &mut [f64], pivot: Option<f64>) -> Result<()> {
    if let Some(d) = pivot {
        if d.abs() < PIVOT_EPS {
            return Err(MathError::Singular);
        }
        for v in acc {
            *v /= d;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_solves_lower_system() {
        let l = Matrix::from_rows(&[&[2.0, 0.0], &[1.0, 3.0]]);
        let b = Vector::from_slice(&[4.0, 11.0]);
        let x = forward_substitute(&l, &b).unwrap();
        assert_eq!(x.as_slice(), &[2.0, 3.0]);
    }

    #[test]
    fn backward_solves_upper_system() {
        let u = Matrix::from_rows(&[&[2.0, 1.0], &[0.0, 3.0]]);
        let b = Vector::from_slice(&[7.0, 9.0]);
        let x = backward_substitute(&u, &b).unwrap();
        assert_eq!(x.as_slice(), &[2.0, 3.0]);
    }

    #[test]
    fn singular_diagonal_is_reported() {
        let l = Matrix::from_rows(&[&[0.0, 0.0], &[1.0, 1.0]]);
        assert_eq!(
            forward_substitute(&l, &Vector::zeros(2)),
            Err(MathError::Singular)
        );
    }

    #[test]
    fn matrix_right_hand_sides() {
        let l = Matrix::from_rows(&[&[1.0, 0.0], &[2.0, 1.0]]);
        let b = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]);
        let x = forward_substitute_matrix(&l, &b).unwrap();
        let check = l.matmul(&x).unwrap();
        assert!((&check - &b).norm_max() < 1e-14);
        let u = l.transpose();
        let y = backward_substitute_matrix(&u, &b).unwrap();
        let check = u.matmul(&y).unwrap();
        assert!((&check - &b).norm_max() < 1e-14);
    }

    #[test]
    fn shape_errors() {
        let rect = Matrix::zeros(2, 3);
        assert!(forward_substitute(&rect, &Vector::zeros(2)).is_err());
        let l = Matrix::identity(2);
        assert!(backward_substitute(&l, &Vector::zeros(3)).is_err());
    }
}
