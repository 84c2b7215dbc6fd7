//! Property-based tests over the linear-algebra substrate.
//!
//! These check algebraic identities on randomly generated matrices — the
//! invariants the localization backends rely on every frame — and that
//! the row-oriented QR, Cholesky, LU and triangular kernels reproduce the
//! column-at-a-time versions they replaced bit for bit (`f64::to_bits`).

use eudoxus_math::solve::{
    backward_substitute, backward_substitute_matrix, forward_substitute, forward_substitute_matrix,
};
use eudoxus_math::{schur_complement, BlockMatrix, Cholesky, Lu, MathError, Matrix, Qr, Vector};
use proptest::prelude::*;

/// Strategy: an `n × m` matrix with bounded entries.
fn matrix(n: usize, m: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(-10.0f64..10.0, n * m)
        .prop_map(move |v| Matrix::from_vec(n, m, v))
}

/// Strategy: an SPD matrix `B·Bᵀ + n·I`.
fn spd(n: usize) -> impl Strategy<Value = Matrix> {
    matrix(n, n).prop_map(move |b| {
        let mut a = b.outer_gram();
        a.add_diag(n as f64 + 1.0);
        a
    })
}

fn vector(n: usize) -> impl Strategy<Value = Vector> {
    proptest::collection::vec(-10.0f64..10.0, n).prop_map(Vector::from_vec)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn matmul_associative(a in matrix(4, 3), b in matrix(3, 5), c in matrix(5, 2)) {
        let left = a.matmul(&b).unwrap().matmul(&c).unwrap();
        let right = a.matmul(&b.matmul(&c).unwrap()).unwrap();
        prop_assert!((&left - &right).norm_max() < 1e-9);
    }

    #[test]
    fn matmul_transpose_identity(a in matrix(4, 3), b in matrix(3, 4)) {
        // (A·B)ᵀ = Bᵀ·Aᵀ
        let left = a.matmul(&b).unwrap().transpose();
        let right = b.transpose().matmul(&a.transpose()).unwrap();
        prop_assert!((&left - &right).norm_max() < 1e-10);
    }

    #[test]
    fn blocked_matmul_matches_naive(a in matrix(6, 7), b in matrix(7, 5), block in 1usize..9) {
        let naive = a.matmul(&b).unwrap();
        let blocked = a.matmul_blocked(&b, block).unwrap();
        prop_assert!((&naive - &blocked).norm_max() < 1e-10);
    }

    #[test]
    fn cholesky_reconstructs(a in spd(6)) {
        let ch = Cholesky::factor(&a).unwrap();
        let recon = ch.l().matmul(&ch.l().transpose()).unwrap();
        prop_assert!((&recon - &a).norm_max() < 1e-8 * (1.0 + a.norm_max()));
    }

    #[test]
    fn cholesky_solve_residual(a in spd(5), b in vector(5)) {
        let x = a.solve_spd(&b).unwrap();
        let r = &a.matvec(&x) - &b;
        prop_assert!(r.norm() < 1e-7 * (1.0 + b.norm()));
    }

    #[test]
    fn lu_solve_residual(m in matrix(5, 5), b in vector(5)) {
        // Make the matrix well-conditioned by diagonal dominance.
        let mut a = m;
        for i in 0..5 {
            let rowsum: f64 = a.row(i).iter().map(|x| x.abs()).sum();
            a[(i, i)] += rowsum + 1.0;
        }
        let x = Lu::factor(&a).unwrap().solve(&b).unwrap();
        let r = &a.matvec(&x) - &b;
        prop_assert!(r.norm() < 1e-8 * (1.0 + b.norm()));
    }

    #[test]
    fn lu_inverse_roundtrip(m in matrix(4, 4)) {
        let mut a = m;
        for i in 0..4 {
            let rowsum: f64 = a.row(i).iter().map(|x| x.abs()).sum();
            a[(i, i)] += rowsum + 1.0;
        }
        let inv = a.inverse().unwrap();
        let eye = a.matmul(&inv).unwrap();
        prop_assert!((&eye - &Matrix::identity(4)).norm_max() < 1e-8);
    }

    #[test]
    fn qr_q_orthonormal(a in matrix(8, 4)) {
        let qr = Qr::factor(&a).unwrap();
        let q = qr.q_thin();
        let qtq = q.gram();
        prop_assert!((&qtq - &Matrix::identity(4)).norm_max() < 1e-9);
    }

    #[test]
    fn qr_reconstructs(a in matrix(7, 4)) {
        let qr = Qr::factor(&a).unwrap();
        let recon = qr.q_thin().matmul(&qr.r()).unwrap();
        prop_assert!((&recon - &a).norm_max() < 1e-9);
    }

    #[test]
    fn qr_least_squares_is_stationary(a in matrix(9, 3), b in vector(9)) {
        // At the LS solution, Aᵀ(Ax - b) ≈ 0.
        let x = Qr::factor(&a).unwrap().solve_least_squares(&b).unwrap();
        let grad = a.tr_matvec(&(&a.matvec(&x) - &b));
        prop_assert!(grad.norm_max() < 1e-7 * (1.0 + b.norm()));
    }

    #[test]
    fn schur_complement_consistent(a in spd(8)) {
        // Inverting the full SPD matrix and inverting via Schur complement of
        // the top-left block agree on the bottom-right block:
        // (M⁻¹)_dd = S⁻¹ where S = D - C A⁻¹ B.
        let blk = BlockMatrix::split(&a, 5).unwrap();
        let s = schur_complement(blk.a(), blk.b(), blk.c(), blk.d()).unwrap();
        let s_inv = s.inverse().unwrap();
        let full_inv = a.inverse().unwrap();
        let dd = full_inv.block(5, 5, 3, 3).unwrap();
        prop_assert!((&s_inv - &dd).norm_max() < 1e-6 * (1.0 + s_inv.norm_max()));
    }

    #[test]
    fn structured_inverse_matches_general(diag in proptest::collection::vec(1.0f64..5.0, 7)) {
        // Marginalization-shaped matrix: diagonal A block + 6×6 D block.
        let na = diag.len();
        let n = na + 6;
        let mut m = Matrix::zeros(n, n);
        for (i, &d) in diag.iter().enumerate() {
            m[(i, i)] = d;
        }
        for i in 0..6 {
            for j in 0..6 {
                m[(na + i, na + j)] = if i == j { 9.0 } else { 0.4 };
            }
        }
        for i in 0..na {
            for j in 0..6 {
                let v = 0.1 * ((i * 7 + j) as f64).sin();
                m[(i, na + j)] = v;
                m[(na + j, i)] = v;
            }
        }
        let blk = BlockMatrix::split(&m, na).unwrap();
        let fast = blk.inverse_structured().unwrap();
        let general = m.inverse().unwrap();
        prop_assert!((&fast - &general).norm_max() < 1e-7);
    }

    #[test]
    fn vector_triangle_inequality(a in vector(6), b in vector(6)) {
        prop_assert!((&a + &b).norm() <= a.norm() + b.norm() + 1e-12);
    }
}

/// Test-local copies of the column-at-a-time kernels that the row-oriented
/// `Qr::factor`/`qt_mul`, `Cholesky::solve_matrix` and `Lu::solve_matrix`
/// replaced. The new kernels must reproduce them bit for bit.
mod reference {
    use eudoxus_math::{MathError, Matrix, Vector};

    const PIVOT_EPS: f64 = 1e-12;

    /// Packed Householder vectors + `R`, and one `β` per reflector.
    pub struct Qr {
        pub qr: Matrix,
        pub betas: Vec<f64>,
    }

    pub fn qr_factor(a: &Matrix) -> Qr {
        let (m, n) = a.shape();
        let mut qr = a.clone();
        let mut betas = Vec::with_capacity(n);
        for k in 0..n {
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
            let mut vtv = v0 * v0;
            for i in (k + 1)..m {
                vtv += qr[(i, k)] * qr[(i, k)];
            }
            let beta = if vtv.abs() < f64::MIN_POSITIVE {
                0.0
            } else {
                2.0 / vtv
            };
            for j in (k + 1)..n {
                let mut dot = v0 * qr[(k, j)];
                for i in (k + 1)..m {
                    dot += qr[(i, k)] * qr[(i, j)];
                }
                let s = beta * dot;
                qr[(k, j)] -= s * v0;
                for i in (k + 1)..m {
                    let upd = s * qr[(i, k)];
                    qr[(i, j)] -= upd;
                }
            }
            qr[(k, k)] = alpha;
            if v0 != 0.0 {
                for i in (k + 1)..m {
                    qr[(i, k)] /= v0;
                }
                betas.push(beta * v0 * v0);
            } else {
                betas.push(0.0);
            }
        }
        Qr { qr, betas }
    }

    pub fn r(f: &Qr) -> Matrix {
        let n = f.qr.cols();
        Matrix::from_fn(n, n, |i, j| if j >= i { f.qr[(i, j)] } else { 0.0 })
    }

    pub fn qt_mul(f: &Qr, b: &Vector) -> Vector {
        let (m, n) = f.qr.shape();
        let mut y = b.clone();
        for k in 0..n {
            let beta = f.betas[k];
            if beta == 0.0 {
                continue;
            }
            let mut dot = y[k];
            for i in (k + 1)..m {
                dot += f.qr[(i, k)] * y[i];
            }
            let s = beta * dot;
            y[k] -= s;
            for i in (k + 1)..m {
                let upd = s * f.qr[(i, k)];
                y[i] -= upd;
            }
        }
        y
    }

    pub fn forward_substitute(l: &Matrix, b: &Vector) -> Result<Vector, MathError> {
        let n = l.rows();
        let mut x = Vector::zeros(n);
        for i in 0..n {
            let mut s = b[i];
            for j in 0..i {
                s -= l[(i, j)] * x[j];
            }
            let d = l[(i, i)];
            if d.abs() < PIVOT_EPS {
                return Err(MathError::Singular);
            }
            x[i] = s / d;
        }
        Ok(x)
    }

    pub fn backward_substitute(u: &Matrix, b: &Vector) -> Result<Vector, MathError> {
        let n = u.rows();
        let mut x = Vector::zeros(n);
        for i in (0..n).rev() {
            let mut s = b[i];
            for j in (i + 1)..n {
                s -= u[(i, j)] * x[j];
            }
            let d = u[(i, i)];
            if d.abs() < PIVOT_EPS {
                return Err(MathError::Singular);
            }
            x[i] = s / d;
        }
        Ok(x)
    }

    pub fn cholesky_factor(a: &Matrix) -> Result<Matrix, MathError> {
        let n = a.rows();
        let mut l = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let mut s = a[(i, j)];
                for k in 0..j {
                    s -= l[(i, k)] * l[(j, k)];
                }
                if i == j {
                    if s <= 0.0 || !s.is_finite() {
                        return Err(MathError::NotPositiveDefinite);
                    }
                    l[(i, j)] = s.sqrt();
                } else {
                    l[(i, j)] = s / l[(j, j)];
                }
            }
        }
        Ok(l)
    }

    /// Solves column by column, transposing `L` for every column.
    pub fn cholesky_solve_matrix(l: &Matrix, b: &Matrix) -> Result<Matrix, MathError> {
        let mut out = Matrix::zeros(b.rows(), b.cols());
        for j in 0..b.cols() {
            let y = forward_substitute(l, &b.col(j))?;
            let x = backward_substitute(&l.transpose(), &y)?;
            for i in 0..b.rows() {
                out[(i, j)] = x[i];
            }
        }
        Ok(out)
    }

    pub struct Lu {
        pub lu: Matrix,
        pub perm: Vec<usize>,
    }

    pub fn lu_factor(a: &Matrix) -> Result<Lu, MathError> {
        let n = a.rows();
        let mut lu = a.clone();
        let mut perm: Vec<usize> = (0..n).collect();
        for k in 0..n {
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
                for j in 0..n {
                    let tmp = lu[(k, j)];
                    lu[(k, j)] = lu[(p, j)];
                    lu[(p, j)] = tmp;
                }
            }
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
        Ok(Lu { lu, perm })
    }

    pub fn lu_solve(f: &Lu, b: &Vector) -> Vector {
        let n = f.lu.rows();
        let mut x = Vector::from_iter(f.perm.iter().map(|&p| b[p]));
        for i in 0..n {
            let mut s = x[i];
            for j in 0..i {
                s -= f.lu[(i, j)] * x[j];
            }
            x[i] = s;
        }
        for i in (0..n).rev() {
            let mut s = x[i];
            for j in (i + 1)..n {
                s -= f.lu[(i, j)] * x[j];
            }
            x[i] = s / f.lu[(i, i)];
        }
        x
    }

    pub fn lu_solve_matrix(f: &Lu, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(b.rows(), b.cols());
        for j in 0..b.cols() {
            let x = lu_solve(f, &b.col(j));
            for i in 0..b.rows() {
                out[(i, j)] = x[i];
            }
        }
        out
    }
}

fn bits(m: &Matrix) -> Vec<u64> {
    m.as_slice().iter().map(|x| x.to_bits()).collect()
}

fn vbits(v: &Vector) -> Vec<u64> {
    v.as_slice().iter().map(|x| x.to_bits()).collect()
}

/// Strategy: `len` entries in `[-10, 10)`, about a quarter of them exact
/// `+0.0` or `-0.0` so that signed-zero arithmetic is exercised.
fn sparse_entries(len: usize) -> impl Strategy<Value = Vec<f64>> {
    entries_with_zeros(len, 1)
}

/// Strategy: `len` entries of which `zeros_in_8 / 4` are exact `+0.0` or
/// `-0.0`, evenly split.
fn entries_with_zeros(len: usize, zeros_in_8: usize) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec((-10.0f64..10.0, 0usize..8), len).prop_map(move |v| {
        v.into_iter()
            .map(|(x, pick)| match pick {
                p if p < zeros_in_8 => 0.0,
                p if p < 2 * zeros_in_8 => -0.0,
                _ => x,
            })
            .collect()
    })
}

/// An `m × n` matrix from a pool of entries, with its first `zero_cols`
/// columns exactly zero (like the MSCKF body block of the stacked `H`).
fn shaped(pool: &[f64], m: usize, n: usize, zero_cols: usize) -> Matrix {
    Matrix::from_fn(
        m,
        n,
        |i, j| if j < zero_cols { 0.0 } else { pool[i * n + j] },
    )
}

/// A well-conditioned SPD matrix `B·Bᵀ + (n + 1)·I` of size `n`.
fn spd_from(pool: &[f64], n: usize) -> Matrix {
    let mut a = Matrix::from_vec(n, n, pool[..n * n].to_vec()).outer_gram();
    a.add_diag(n as f64 + 1.0);
    a
}

/// Checks the new QR kernels against the reference on one matrix.
fn assert_qr_bit_identical(a: &Matrix, rhs: &Matrix) {
    let new = Qr::factor(a).unwrap();
    let old = reference::qr_factor(a);
    assert_eq!(bits(&new.r()), bits(&reference::r(&old)), "R");
    let qtb = new.qt_mul_matrix(rhs);
    for j in 0..rhs.cols() {
        let col = rhs.col(j);
        let want = vbits(&reference::qt_mul(&old, &col));
        assert_eq!(vbits(&new.qt_mul(&col)), want, "qt_mul column {j}");
        assert_eq!(vbits(&qtb.col(j)), want, "qt_mul_matrix column {j}");
    }
    // Every unit vector: the full Qᵀ, i.e. every packed reflector and β.
    for i in 0..a.rows() {
        let mut e = Vector::zeros(a.rows());
        e[i] = 1.0;
        assert_eq!(
            vbits(&new.qt_mul(&e)),
            vbits(&reference::qt_mul(&old, &e)),
            "Qᵀ·e{i}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn qr_bit_identical_small(
        pool in sparse_entries(12 * 8 + 12 * 3),
        shape in (1usize..13, 1usize..9, 0usize..4, 0usize..4),
    ) {
        let (m, n, zero_cols, k) = shape;
        prop_assume!(m >= n);
        let a = shaped(&pool, m, n, zero_cols.min(n));
        let rhs = Matrix::from_vec(m, k, pool[12 * 8..12 * 8 + m * k].to_vec());
        assert_qr_bit_identical(&a, &rhs);
    }

    #[test]
    fn qr_bit_identical_mostly_zero(
        pool in entries_with_zeros(12 * 8 + 12 * 3, 3),
        shape in (1usize..13, 1usize..9, 0usize..4),
    ) {
        // Three quarters signed zeros: dot products that sum to exactly
        // −0 must stay −0, so no zero term may be skipped.
        let (m, n, k) = shape;
        prop_assume!(m >= n);
        let a = shaped(&pool, m, n, 0);
        let rhs = Matrix::from_vec(m, k, pool[12 * 8..12 * 8 + m * k].to_vec());
        assert_qr_bit_identical(&a, &rhs);
    }

    #[test]
    fn qr_bit_identical_tall(
        pool in sparse_entries(120 * 30 + 120 * 2),
        zero_cols in 0usize..16,
    ) {
        // m ≫ n like the MSCKF compression, with a zero leading block.
        let a = shaped(&pool, 120, 30, zero_cols);
        let rhs = Matrix::from_vec(120, 2, pool[120 * 30..].to_vec());
        assert_qr_bit_identical(&a, &rhs);
    }

    #[test]
    fn cholesky_solve_matrix_bit_identical(
        pool in sparse_entries(12 * 12 + 12 * 22),
        shape in (1usize..13, 0usize..23),
    ) {
        // 0 and 1 right-hand sides included, and enough for every
        // register-tile width (16, 4, 1) of the substitution.
        let (n, k) = shape;
        let a = spd_from(&pool, n);
        let b = Matrix::from_vec(n, k, pool[12 * 12..12 * 12 + n * k].to_vec());
        let ch = Cholesky::factor(&a).unwrap();
        prop_assert_eq!(bits(ch.l()), bits(&reference::cholesky_factor(&a).unwrap()));
        let new = ch.solve_matrix(&b).unwrap();
        let old = reference::cholesky_solve_matrix(ch.l(), &b).unwrap();
        prop_assert_eq!(bits(&new), bits(&old));
        for j in 0..k {
            let x = ch.solve(&b.col(j)).unwrap();
            prop_assert_eq!(vbits(&x), vbits(&old.col(j)));
            prop_assert_eq!(vbits(&a.solve_spd(&b.col(j)).unwrap()), vbits(&x));
        }
    }

    #[test]
    fn cholesky_factor_bit_identical_or_same_error(
        pool in sparse_entries(14 * 14),
        shape in (0usize..15, -3.0f64..6.0),
    ) {
        // Symmetric with a shifted diagonal: positive definite or not.
        let (n, shift) = shape;
        let b = Matrix::from_vec(n, n, pool[..n * n].to_vec());
        let mut a = &b + &b.transpose();
        a.add_diag(shift * n as f64);
        match reference::cholesky_factor(&a) {
            Ok(l) => prop_assert_eq!(bits(Cholesky::factor(&a).unwrap().l()), bits(&l)),
            Err(e) => prop_assert_eq!(Cholesky::factor(&a).unwrap_err(), e),
        }
    }

    #[test]
    fn lu_solve_matrix_bit_identical(
        pool in sparse_entries(10 * 10 + 10 * 22),
        shape in (1usize..11, 0usize..23),
    ) {
        let (n, k) = shape;
        let a = Matrix::from_vec(n, n, pool[..n * n].to_vec());
        let b = Matrix::from_vec(n, k, pool[10 * 10..10 * 10 + n * k].to_vec());
        let Ok(old_lu) = reference::lu_factor(&a) else {
            prop_assert_eq!(Lu::factor(&a).unwrap_err(), MathError::Singular);
            return Ok(());
        };
        let lu = Lu::factor(&a).unwrap();
        let old = reference::lu_solve_matrix(&old_lu, &b);
        prop_assert_eq!(bits(&lu.solve_matrix(&b).unwrap()), bits(&old));
        for j in 0..k {
            prop_assert_eq!(vbits(&lu.solve(&b.col(j)).unwrap()), vbits(&old.col(j)));
        }
        let eye = Matrix::identity(n);
        let old_inverse = reference::lu_solve_matrix(&old_lu, &eye);
        prop_assert_eq!(bits(&lu.inverse().unwrap()), bits(&old_inverse));
    }

    #[test]
    fn triangular_substitution_bit_identical(
        pool in sparse_entries(9 * 9 + 9 * 22),
        shape in (1usize..10, 0usize..23, 0usize..9),
    ) {
        // General triangular solves, including a vanishing pivot at
        // `tiny` (when in range): Singular, unless there is nothing to
        // solve.
        let (n, k, tiny) = shape;
        let mut t = Matrix::from_vec(n, n, pool[..n * n].to_vec());
        for i in 0..n {
            t[(i, i)] = if i == tiny { 1e-13 } else { 1.0 + t[(i, i)].abs() };
        }
        let b = Matrix::from_vec(n, k, pool[9 * 9..9 * 9 + n * k].to_vec());
        let fwd = forward_substitute_matrix(&t, &b);
        let bwd = backward_substitute_matrix(&t, &b);
        if tiny < n && k > 0 {
            prop_assert_eq!(fwd.unwrap_err(), MathError::Singular);
            prop_assert_eq!(bwd.unwrap_err(), MathError::Singular);
        } else {
            let (fwd, bwd) = (fwd.unwrap(), bwd.unwrap());
            prop_assert_eq!(fwd.shape(), (n, k));
            for j in 0..k {
                let col = b.col(j);
                let f = reference::forward_substitute(&t, &col).unwrap();
                let u = reference::backward_substitute(&t, &col).unwrap();
                prop_assert_eq!(vbits(&fwd.col(j)), vbits(&f));
                prop_assert_eq!(vbits(&bwd.col(j)), vbits(&u));
                prop_assert_eq!(vbits(&forward_substitute(&t, &col).unwrap()), vbits(&f));
                prop_assert_eq!(vbits(&backward_substitute(&t, &col).unwrap()), vbits(&u));
            }
        }
    }

    #[test]
    fn upper_triangular_products_bit_identical(
        pool in sparse_entries(2 * 12 * 12),
        shape in (0usize..13, 0usize..13),
    ) {
        // Structural-zero skipping in P·Uᵀ and K·U must not move a bit.
        let (rows, n) = shape;
        let u = Matrix::from_fn(n, n, |i, j| if j >= i { pool[i * n + j] } else { 0.0 });
        let a = Matrix::from_vec(rows, n, pool[144..144 + rows * n].to_vec());
        prop_assert_eq!(bits(&a.matmul_upper(&u).unwrap()), bits(&a.matmul(&u).unwrap()));
        prop_assert_eq!(
            bits(&a.matmul_upper_tr(&u).unwrap()),
            bits(&a.matmul(&u.transpose()).unwrap())
        );
    }
}

#[test]
fn cholesky_tiny_pivot_is_singular_only_with_right_hand_sides() {
    // Positive definite, but L[1][1] = 1e-15 is below PIVOT_EPS.
    let a = Matrix::from_diag(&[1.0, 1e-30, 4.0]);
    let ch = Cholesky::factor(&a).unwrap();
    let b = Matrix::from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
    assert_eq!(ch.solve_matrix(&b).unwrap_err(), MathError::Singular);
    assert_eq!(
        reference::cholesky_solve_matrix(ch.l(), &b).unwrap_err(),
        MathError::Singular
    );
    assert_eq!(ch.solve(&b.col(0)).unwrap_err(), MathError::Singular);
    let none = ch.solve_matrix(&Matrix::zeros(3, 0)).unwrap();
    assert_eq!(none.shape(), (3, 0));
    assert_eq!(
        ch.solve_matrix(&Matrix::zeros(2, 1)).unwrap_err(),
        MathError::DimensionMismatch {
            left: (3, 3),
            right: (2, 1)
        }
    );
}

#[test]
fn not_positive_definite_paths_are_unchanged() {
    let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]);
    let b = Vector::from_slice(&[1.0, 1.0]);
    assert_eq!(
        Cholesky::factor(&a).unwrap_err(),
        MathError::NotPositiveDefinite
    );
    assert_eq!(a.solve_spd(&b).unwrap_err(), MathError::NotPositiveDefinite);
    assert_eq!(
        a.solve_spd_matrix(&Matrix::identity(2)).unwrap_err(),
        MathError::NotPositiveDefinite
    );
    let singular = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
    assert_eq!(singular.solve(&b).unwrap_err(), MathError::Singular);
    assert_eq!(singular.inverse().unwrap_err(), MathError::Singular);
}
