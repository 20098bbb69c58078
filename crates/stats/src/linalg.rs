//! Dense linear algebra: just enough for regression via normal equations.
//!
//! The largest systems in the benchmark are the one-hot designs of Jeong et
//! al. (~300 columns), for which Cholesky on the Gram matrix is fast and
//! stable with a small ridge.

use crate::error::{Result, StatsError};

/// Row-major dense matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Matrix {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Build from row-major data.
    ///
    /// # Errors
    /// [`StatsError::DimensionMismatch`] if `data.len() != rows*cols`.
    pub fn from_rows(rows: usize, cols: usize, data: Vec<f64>) -> Result<Matrix> {
        if data.len() != rows * cols {
            return Err(StatsError::DimensionMismatch {
                rows,
                cols,
                expected: data.len(),
            });
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Build a design matrix from columns (each a predictor), prepending an
    /// intercept column of ones.
    pub fn design_with_intercept(columns: &[Vec<f64>]) -> Result<Matrix> {
        let n = columns.first().map_or(0, Vec::len);
        for c in columns {
            if c.len() != n {
                return Err(StatsError::LengthMismatch {
                    left: n,
                    right: c.len(),
                });
            }
        }
        let cols = columns.len() + 1;
        let mut m = Matrix::zeros(n, cols);
        for r in 0..n {
            m.set(r, 0, 1.0);
            for (j, c) in columns.iter().enumerate() {
                m.set(r, j + 1, c[r]);
            }
        }
        Ok(m)
    }

    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn n_cols(&self) -> usize {
        self.cols
    }

    /// Element access.
    #[inline]
    pub fn at(&self, r: usize, c: usize) -> f64 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Element assignment.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// One row as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Gram matrix XᵀWX for optional per-row weights W (identity if `None`).
    ///
    /// Rows are taken four at a time, so each pass over the upper triangle
    /// loads and stores every entry once per four rows instead of once per
    /// row. Each entry still adds its terms one at a time in ascending row
    /// order (`g += w₀x₀ᵢx₀ⱼ; g += w₁x₁ᵢx₁ⱼ; …`), exactly as the row-at-a-time
    /// loop of `Matrix::gram_naive` does, so the result is bit-identical.
    pub fn gram(&self, weights: Option<&[f64]>) -> Result<Matrix> {
        self.check_weights(weights)?;
        let k = self.cols;
        let mut g = Matrix::zeros(k, k);
        let weight = |r: usize| weights.map_or(1.0, |w| w[r]);
        let blocked = self.rows - self.rows % 4;
        for r in (0..blocked).step_by(4) {
            let (w0, w1, w2, w3) = (weight(r), weight(r + 1), weight(r + 2), weight(r + 3));
            let (x0, x1, x2, x3) = (
                self.row(r),
                self.row(r + 1),
                self.row(r + 2),
                self.row(r + 3),
            );
            for i in 0..k {
                let (a0, a1, a2, a3) = (w0 * x0[i], w1 * x1[i], w2 * x2[i], w3 * x3[i]);
                let gi = &mut g.data[i * k + i..(i + 1) * k];
                let ys = x0[i..].iter().zip(&x1[i..]).zip(&x2[i..]).zip(&x3[i..]);
                for (gij, (((&y0, &y1), &y2), &y3)) in gi.iter_mut().zip(ys) {
                    *gij = *gij + a0 * y0 + a1 * y1 + a2 * y2 + a3 * y3;
                }
            }
        }
        for r in blocked..self.rows {
            let w = weight(r);
            let row = self.row(r);
            for i in 0..k {
                let wi = w * row[i];
                for (gij, &xj) in g.data[i * k + i..(i + 1) * k].iter_mut().zip(&row[i..]) {
                    *gij += wi * xj;
                }
            }
        }
        g.mirror_upper();
        Ok(g)
    }

    /// The row-at-a-time Gram matrix: the differential oracle for
    /// [`Matrix::gram`].
    #[cfg(any(test, feature = "naive-reference"))]
    pub fn gram_naive(&self, weights: Option<&[f64]>) -> Result<Matrix> {
        self.check_weights(weights)?;
        let k = self.cols;
        let mut g = Matrix::zeros(k, k);
        for r in 0..self.rows {
            let w = weights.map_or(1.0, |w| w[r]);
            let row = self.row(r);
            for i in 0..k {
                let wi = w * row[i];
                // Symmetric: fill upper triangle, mirror after.
                for j in i..k {
                    g.data[i * k + j] += wi * row[j];
                }
            }
        }
        g.mirror_upper();
        Ok(g)
    }

    fn check_weights(&self, weights: Option<&[f64]>) -> Result<()> {
        match weights {
            Some(w) if w.len() != self.rows => Err(StatsError::LengthMismatch {
                left: w.len(),
                right: self.rows,
            }),
            _ => Ok(()),
        }
    }

    /// Copy the upper triangle of a square matrix onto the lower one.
    fn mirror_upper(&mut self) {
        let k = self.cols;
        for i in 0..k {
            for j in 0..i {
                self.data[i * k + j] = self.data[j * k + i];
            }
        }
    }

    /// XᵀWy for optional weights.
    pub fn gram_rhs(&self, y: &[f64], weights: Option<&[f64]>) -> Result<Vec<f64>> {
        if y.len() != self.rows {
            return Err(StatsError::LengthMismatch {
                left: y.len(),
                right: self.rows,
            });
        }
        let mut out = vec![0.0; self.cols];
        for r in 0..self.rows {
            let w = weights.map_or(1.0, |w| w[r]);
            let row = self.row(r);
            let wy = w * y[r];
            for (o, &x) in out.iter_mut().zip(row) {
                *o += wy * x;
            }
        }
        Ok(out)
    }

    /// X·v.
    pub fn matvec(&self, v: &[f64]) -> Result<Vec<f64>> {
        if v.len() != self.cols {
            return Err(StatsError::LengthMismatch {
                left: v.len(),
                right: self.cols,
            });
        }
        Ok((0..self.rows)
            .map(|r| self.row(r).iter().zip(v).map(|(a, b)| a * b).sum())
            .collect())
    }
}

/// Cholesky decomposition of a symmetric positive-definite matrix,
/// returning the lower factor L with A = L·Lᵀ.
///
/// # Errors
/// [`StatsError::SingularMatrix`] when a pivot is non-positive.
pub fn cholesky(a: &Matrix) -> Result<Matrix> {
    let n = a.n_rows();
    if a.n_cols() != n {
        return Err(StatsError::DimensionMismatch {
            rows: a.n_rows(),
            cols: a.n_cols(),
            expected: n * n,
        });
    }
    let mut l = Matrix::zeros(n, n);
    for i in 0..n {
        for j in 0..=i {
            let mut sum = a.at(i, j);
            for k in 0..j {
                sum -= l.at(i, k) * l.at(j, k);
            }
            if i == j {
                if sum <= 0.0 || !sum.is_finite() {
                    return Err(StatsError::SingularMatrix);
                }
                l.set(i, j, sum.sqrt());
            } else {
                l.set(i, j, sum / l.at(j, j));
            }
        }
    }
    Ok(l)
}

/// Solve A·x = b for symmetric positive-definite A via Cholesky, retrying
/// with an escalating ridge (A + λI) when A is numerically singular —
/// the standard stabilization for collinear one-hot designs.
pub fn solve_spd(a: &Matrix, b: &[f64]) -> Result<Vec<f64>> {
    let n = a.n_rows();
    if b.len() != n {
        return Err(StatsError::LengthMismatch {
            left: b.len(),
            right: n,
        });
    }
    Ok(cholesky_solve(&factor_spd(a)?, b))
}

/// The lower Cholesky factor of A, or of A + λI for the first ridge λ of
/// the escalating sequence that factors. The sequence depends only on A,
/// so every right-hand side solved against A shares one factor.
fn factor_spd(a: &Matrix) -> Result<Matrix> {
    let n = a.n_rows();
    let mean_diag: f64 = (0..n).map(|i| a.at(i, i)).sum::<f64>() / n.max(1) as f64;
    let mut ridge = 0.0;
    for attempt in 0..6 {
        let mut work = a.clone();
        if ridge > 0.0 {
            for i in 0..n {
                work.set(i, i, work.at(i, i) + ridge);
            }
        }
        match cholesky(&work) {
            Ok(l) => return Ok(l),
            Err(_) if attempt < 5 => {
                ridge = if ridge == 0.0 {
                    1e-10 * mean_diag.max(1e-12)
                } else {
                    ridge * 100.0
                };
            }
            Err(e) => return Err(e),
        }
    }
    Err(StatsError::SingularMatrix)
}

/// Solve L·Lᵀ·x = b given the lower Cholesky factor.
fn cholesky_solve(l: &Matrix, b: &[f64]) -> Vec<f64> {
    let n = l.n_rows();
    // Forward solve L·y = b.
    let mut y = vec![0.0; n];
    for i in 0..n {
        let mut sum = b[i];
        for k in 0..i {
            sum -= l.at(i, k) * y[k];
        }
        y[i] = sum / l.at(i, i);
    }
    // Back solve Lᵀ·x = y.
    let mut x = vec![0.0; n];
    for i in (0..n).rev() {
        let mut sum = y[i];
        for k in (i + 1)..n {
            sum -= l.at(k, i) * x[k];
        }
        x[i] = sum / l.at(i, i);
    }
    x
}

/// Inverse of a symmetric positive-definite matrix (for coefficient
/// standard errors). Factors A once (with [`solve_spd`]'s ridge retries)
/// and solves against the identity column by column; bit-identical to
/// calling [`solve_spd`] per column, which refactors A every time.
pub fn inverse_spd(a: &Matrix) -> Result<Matrix> {
    let n = a.n_rows();
    if n == 0 {
        return Ok(Matrix::zeros(0, 0));
    }
    let l = factor_spd(a)?;
    let mut inv = Matrix::zeros(n, n);
    let mut e = vec![0.0; n];
    for j in 0..n {
        e.iter_mut().for_each(|v| *v = 0.0);
        e[j] = 1.0;
        let col = cholesky_solve(&l, &e);
        for i in 0..n {
            inv.set(i, j, col[i]);
        }
    }
    Ok(inv)
}

/// [`inverse_spd`] as one [`solve_spd`] per column: the differential
/// oracle for the factor-once path.
#[cfg(any(test, feature = "naive-reference"))]
pub fn inverse_spd_per_column(a: &Matrix) -> Result<Matrix> {
    let n = a.n_rows();
    let mut inv = Matrix::zeros(n, n);
    let mut e = vec![0.0; n];
    for j in 0..n {
        e.iter_mut().for_each(|v| *v = 0.0);
        e[j] = 1.0;
        let col = solve_spd(a, &e)?;
        for i in 0..n {
            inv.set(i, j, col[i]);
        }
    }
    Ok(inv)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cholesky_round_trip() {
        // A = Lref·Lrefᵀ for a known L.
        let a = Matrix::from_rows(2, 2, vec![4.0, 2.0, 2.0, 5.0]).unwrap();
        let l = cholesky(&a).unwrap();
        assert!((l.at(0, 0) - 2.0).abs() < 1e-12);
        assert!((l.at(1, 0) - 1.0).abs() < 1e-12);
        assert!((l.at(1, 1) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn solve_spd_solves() {
        let a = Matrix::from_rows(2, 2, vec![4.0, 2.0, 2.0, 5.0]).unwrap();
        let x = solve_spd(&a, &[10.0, 13.0]).unwrap();
        // 4x + 2y = 10, 2x + 5y = 13 => x = 1.5, y = 2.
        assert!((x[0] - 1.5).abs() < 1e-10);
        assert!((x[1] - 2.0).abs() < 1e-10);
    }

    #[test]
    fn solve_spd_survives_collinearity_with_ridge() {
        // Perfectly collinear columns: rank 1.
        let a = Matrix::from_rows(2, 2, vec![1.0, 1.0, 1.0, 1.0]).unwrap();
        let x = solve_spd(&a, &[2.0, 2.0]).unwrap();
        // Any solution with x0 + x1 ≈ 2 is acceptable under ridge.
        assert!((x[0] + x[1] - 2.0).abs() < 1e-3, "{x:?}");
    }

    #[test]
    fn gram_matches_manual() {
        let x = Matrix::from_rows(3, 2, vec![1.0, 2.0, 1.0, 3.0, 1.0, 4.0]).unwrap();
        let g = x.gram(None).unwrap();
        assert!((g.at(0, 0) - 3.0).abs() < 1e-12);
        assert!((g.at(0, 1) - 9.0).abs() < 1e-12);
        assert!((g.at(1, 1) - 29.0).abs() < 1e-12);
        let rhs = x.gram_rhs(&[1.0, 2.0, 3.0], None).unwrap();
        assert!((rhs[0] - 6.0).abs() < 1e-12);
        assert!((rhs[1] - 20.0).abs() < 1e-12);
    }

    #[test]
    fn inverse_spd_inverts() {
        let a = Matrix::from_rows(2, 2, vec![4.0, 2.0, 2.0, 5.0]).unwrap();
        let inv = inverse_spd(&a).unwrap();
        // A * A^-1 = I.
        for i in 0..2 {
            for j in 0..2 {
                let v: f64 = (0..2).map(|k| a.at(i, k) * inv.at(k, j)).sum();
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((v - expect).abs() < 1e-10);
            }
        }
    }

    /// Bit patterns of a matrix, for exact comparisons.
    fn bits(m: &Matrix) -> Vec<u64> {
        m.data.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn inverse_factors_once_bit_identically() {
        // Well-conditioned, and rank-deficient (needs the ridge retry: the
        // first Cholesky attempt hits a zero pivot).
        let spd =
            Matrix::from_rows(3, 3, vec![4.0, 1.2, -0.7, 1.2, 3.3, 0.4, -0.7, 0.4, 2.9]).unwrap();
        let x = Matrix::from_rows(
            5,
            4,
            vec![
                1.0, 0.3, 0.6, 2.0, 1.0, -1.1, -2.2, 0.5, 1.0, 0.7, 1.4, -3.0, 1.0, 2.5, 5.0, 0.25,
                1.0, -0.4, -0.8, 1.5,
            ],
        )
        .unwrap();
        let collinear = x.gram(None).unwrap();
        assert!(cholesky(&collinear).is_err(), "fixture must need the ridge");
        for a in [&spd, &collinear] {
            assert_eq!(
                bits(&inverse_spd(a).unwrap()),
                bits(&inverse_spd_per_column(a).unwrap())
            );
        }
        let empty = Matrix::zeros(0, 0);
        assert_eq!(inverse_spd(&empty).unwrap(), empty);
    }

    #[test]
    fn design_with_intercept_shapes() {
        let m = Matrix::design_with_intercept(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        assert_eq!(m.n_rows(), 2);
        assert_eq!(m.n_cols(), 3);
        assert_eq!(m.row(0), &[1.0, 1.0, 3.0]);
    }
}
