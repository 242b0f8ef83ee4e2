//! Solving the CP-ALS normal equations.
//!
//! Each mode update is `A⁽ᵘ⁾ ← Ā⁽ᵘ⁾ V⁻¹` where `V` is the Hadamard
//! product of the other factors' Gram matrices (paper Algorithm 2). `V` is
//! symmetric positive semi-definite and tiny (`R × R`), so we:
//!
//! 1. attempt a Cholesky factorization `V = L Lᵀ`,
//! 2. on failure, retry with a small ridge `V + εI` (standard CP-ALS
//!    practice — SPLATT does the same), and
//! 3. as a last resort fall back to partially pivoted LU, which handles
//!    the exactly rank-deficient case.
//!
//! Solving is then `R` triangular substitutions applied row-by-row to the
//! (possibly huge) right-hand-side matrix; [`crate::update`] runs them
//! over row blocks, several rows per SIMD register.

use crate::update::{solve_on, UpdateError};
use crate::{par, Mat};

/// Which factorization ended up being used by [`solve_gram_system`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveMethod {
    /// Plain Cholesky succeeded.
    Cholesky,
    /// Cholesky needed a ridge `V + εI`.
    RidgedCholesky,
    /// LU with partial pivoting was used (rank-deficient `V`).
    Lu,
}

/// Why a normal-equations solve could not produce a usable solution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveError {
    /// The Gram system `V` contains NaN or infinite entries.
    NonFiniteSystem,
    /// The right-hand side `B` contains NaN or infinite entries.
    NonFiniteRhs,
    /// Every factorization in the ladder failed (`V` is numerically
    /// singular even after ridging).
    Singular,
    /// A factorization succeeded but the solution came out non-finite.
    NonFiniteSolution,
}

impl std::fmt::Display for SolveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolveError::NonFiniteSystem => write!(f, "gram system contains non-finite entries"),
            SolveError::NonFiniteRhs => write!(f, "right-hand side contains non-finite entries"),
            SolveError::Singular => write!(f, "gram system is singular beyond ridge repair"),
            SolveError::NonFiniteSolution => write!(f, "solve produced non-finite values"),
        }
    }
}

impl std::error::Error for SolveError {}

fn all_finite(xs: &[f64]) -> bool {
    xs.iter().all(|x| x.is_finite())
}

/// Computes the lower-triangular Cholesky factor `L` with `V = L Lᵀ`.
///
/// Returns `None` if `v` is not (numerically) positive definite.
pub fn cholesky_factor(v: &Mat) -> Option<Mat> {
    assert_eq!(v.rows(), v.cols(), "cholesky needs a square matrix");
    let n = v.rows();
    let mut l = Mat::zeros(n, n);
    for i in 0..n {
        for j in 0..=i {
            let mut sum = v[(i, j)];
            for k in 0..j {
                sum -= l[(i, k)] * l[(j, k)];
            }
            if i == j {
                if sum <= 0.0 || !sum.is_finite() {
                    return None;
                }
                l[(i, j)] = sum.sqrt();
            } else {
                l[(i, j)] = sum / l[(j, j)];
            }
        }
    }
    Some(l)
}

/// Solves `x Lᵀ = b` then implicitly `y L = x` — i.e. applies `(L Lᵀ)⁻¹`
/// from the right to a single row `b`, in place. The scalar reference:
/// the SIMD lane kernels of [`crate::update`] keep its order of
/// operations bit for bit.
#[inline]
pub fn solve_row_cholesky(l: &Mat, row: &mut [f64]) {
    let n = l.rows();
    // Row-vector solve: we want row ← row · V⁻¹ = row · (L Lᵀ)⁻¹.
    // Let z solve z · Lᵀ = row  (forward substitution over columns of Lᵀ,
    // i.e. rows of L), then row ← z · L⁻¹ (back substitution).
    // z_j = (row_j - Σ_{k<j} z_k L[j][k]) / L[j][j]
    for j in 0..n {
        let mut s = row[j];
        for k in 0..j {
            s -= row[k] * l[(j, k)];
        }
        row[j] = s / l[(j, j)];
    }
    // y_j = (z_j - Σ_{k>j} y_k L[k][j]) / L[j][j]
    for j in (0..n).rev() {
        let mut s = row[j];
        for k in j + 1..n {
            s -= row[k] * l[(k, j)];
        }
        row[j] = s / l[(j, j)];
    }
}

/// LU decomposition with partial pivoting. Returns `(lu, perm)` where the
/// unit-lower and upper factors are packed into `lu` and `perm` records
/// row swaps. Returns `None` for a singular matrix.
fn lu_factor(v: &Mat) -> Option<(Mat, Vec<usize>)> {
    let n = v.rows();
    let mut lu = v.clone();
    let mut perm: Vec<usize> = (0..n).collect();
    for col in 0..n {
        // Pivot search.
        let mut piv = col;
        let mut max = lu[(col, col)].abs();
        for r in col + 1..n {
            let a = lu[(r, col)].abs();
            if a > max {
                max = a;
                piv = r;
            }
        }
        // The explicit NaN check matters: a NaN pivot would otherwise
        // sail through (NaN comparisons are all false) and poison the
        // whole factorization.
        if max.is_nan() || max < 1e-300 {
            return None;
        }
        if piv != col {
            perm.swap(col, piv);
            for j in 0..n {
                let tmp = lu[(col, j)];
                lu[(col, j)] = lu[(piv, j)];
                lu[(piv, j)] = tmp;
            }
        }
        let d = lu[(col, col)];
        for r in col + 1..n {
            let f = lu[(r, col)] / d;
            lu[(r, col)] = f;
            for j in col + 1..n {
                let sub = f * lu[(col, j)];
                lu[(r, j)] -= sub;
            }
        }
    }
    Some((lu, perm))
}

/// Inverts `v` via LU; used as the rank-deficient fallback. The tiny ridge
/// added first makes this robust even when `v` is exactly singular.
/// Ridging is bounded: returns `None` if the matrix still will not factor
/// (only possible for non-finite input, where growing the diagonal can
/// never help — the previous unbounded retry loop spun forever on NaN).
fn lu_inverse(v: &Mat) -> Option<Mat> {
    let n = v.rows();
    let mut ridged = v.clone();
    let scale = (0..n).map(|i| v[(i, i)].abs()).fold(0.0_f64, f64::max);
    let eps = (scale * 1e-12).max(1e-300);
    let mut attempts = 0;
    let (lu, perm) = loop {
        if let Some(ok) = lu_factor(&ridged) {
            break ok;
        }
        attempts += 1;
        if attempts > 8 {
            return None;
        }
        for i in 0..n {
            ridged[(i, i)] += eps.max(1e-8 * scale.max(1.0));
        }
    };
    let mut inv = Mat::zeros(n, n);
    let mut col = vec![0.0; n];
    for e in 0..n {
        // Solve LU x = P e_e.
        for (i, c) in col.iter_mut().enumerate() {
            *c = if perm[i] == e { 1.0 } else { 0.0 };
        }
        for i in 0..n {
            for k in 0..i {
                col[i] -= lu[(i, k)] * col[k];
            }
        }
        for i in (0..n).rev() {
            for k in i + 1..n {
                col[i] -= lu[(i, k)] * col[k];
            }
            col[i] /= lu[(i, i)];
        }
        for i in 0..n {
            inv[(i, e)] = col[i];
        }
    }
    Some(inv)
}

/// Solves `X V = B` for `X` (i.e. `X = B · V⁻¹`) where `V` is the
/// symmetric positive semi-definite `R × R` Hadamard-of-Grams matrix and
/// `B` is the `N × R` MTTKRP result. `B` is overwritten with the solution.
///
/// Returns the factorization that was actually used, which the CPD driver
/// surfaces in its per-iteration diagnostics.
///
/// Never fails: inputs that [`try_solve_gram_system`] would reject leave
/// `b` unchanged and report [`SolveMethod::Lu`]. Callers that need to
/// distinguish failure (the fault-tolerant CPD driver does) should use
/// the `try_` variants instead.
pub fn solve_gram_system(v: &Mat, b: &mut Mat) -> SolveMethod {
    try_solve_gram_system_ridged(v, b, 0.0).unwrap_or(SolveMethod::Lu)
}

/// Fallible version of [`solve_gram_system`]: validates that both the
/// system and the right-hand side are finite, runs the
/// Cholesky → ridged-Cholesky → LU ladder, and verifies the solution is
/// finite. On error `b` is left in an unspecified (but allocated) state;
/// callers retry from a fresh copy of the right-hand side.
pub fn try_solve_gram_system(v: &Mat, b: &mut Mat) -> Result<SolveMethod, SolveError> {
    try_solve_gram_system_ridged(v, b, 0.0)
}

/// Like [`try_solve_gram_system`] but adds `extra_ridge` to the diagonal
/// of `V` before solving — the escalating-ridge retry used by the CPD
/// driver's numerical-failure recovery. Runs inline on the caller; the
/// driver itself solves through [`crate::update::update_mode`] on its
/// engine's executor.
pub fn try_solve_gram_system_ridged(
    v: &Mat,
    b: &mut Mat,
    extra_ridge: f64,
) -> Result<SolveMethod, SolveError> {
    assert_eq!(v.rows(), v.cols());
    assert_eq!(b.cols(), v.rows(), "rhs width must match system size");
    // Rejected inputs leave `b` untouched: the solve pass checks each
    // row as it solves it, so check the whole input first.
    if !all_finite(v.as_slice()) {
        return Err(SolveError::NonFiniteSystem);
    }
    if !all_finite(b.as_slice()) {
        return Err(SolveError::NonFiniteRhs);
    }
    match solve_on(&par::Inline, v, b, extra_ridge) {
        Ok(method) => Ok(method),
        Err(UpdateError::Solve(e)) => Err(e),
        Err(UpdateError::Cancelled) => unreachable!("an inline fan-out runs every task"),
    }
}

/// The factorization a solve applies to each right-hand-side row.
pub(crate) enum Factor {
    /// Lower Cholesky factor `L` of `V = L Lᵀ` (plain or ridged).
    Cholesky(Mat),
    /// `V⁻¹` from the LU fallback; rows are multiplied by it.
    Inverse(Mat),
}

/// Validates `V` (plus `extra_ridge` on the diagonal) and runs the
/// Cholesky → ridged-Cholesky → LU ladder on it.
pub(crate) fn factor_system(
    v: &Mat,
    extra_ridge: f64,
) -> Result<(Factor, SolveMethod), SolveError> {
    assert_eq!(v.rows(), v.cols());
    if !all_finite(v.as_slice()) {
        return Err(SolveError::NonFiniteSystem);
    }
    let n = v.rows();
    let owned;
    let v = if extra_ridge > 0.0 {
        let mut r = v.clone();
        for i in 0..n {
            r[(i, i)] += extra_ridge;
        }
        owned = r;
        &owned
    } else {
        v
    };
    if let Some(l) = cholesky_factor(v) {
        return Ok((Factor::Cholesky(l), SolveMethod::Cholesky));
    }
    // Ridge: scale-aware epsilon on the diagonal.
    let scale = (0..n).map(|i| v[(i, i)].abs()).fold(0.0_f64, f64::max);
    let mut ridged = v.clone();
    for i in 0..n {
        ridged[(i, i)] += (scale * 1e-10).max(1e-12);
    }
    if let Some(l) = cholesky_factor(&ridged) {
        return Ok((Factor::Cholesky(l), SolveMethod::RidgedCholesky));
    }
    let inv = lu_inverse(v).ok_or(SolveError::Singular)?;
    Ok((Factor::Inverse(inv), SolveMethod::Lu))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{gram_full, matmul};
    use crate::{assert_mat_approx_eq, Mat};

    fn spd(n: usize, seed: u64) -> Mat {
        // Build an SPD matrix as GᵀG + I from a deterministic pseudo-random G.
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % 1000) as f64 / 500.0 - 1.0
        };
        let g = Mat::from_fn(n + 2, n, |_, _| next());
        let mut v = gram_full(&g);
        for i in 0..n {
            v[(i, i)] += 1.0;
        }
        v
    }

    #[test]
    fn cholesky_reconstructs() {
        let v = spd(5, 42);
        let l = cholesky_factor(&v).expect("SPD must factor");
        let rebuilt = matmul(&l, &crate::ops::transpose(&l));
        assert_mat_approx_eq(&rebuilt, &v, 1e-9);
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        let v = Mat::from_vec(2, 2, vec![1.0, 2.0, 2.0, 1.0]); // eigenvalues 3, -1
        assert!(cholesky_factor(&v).is_none());
    }

    #[test]
    fn solve_recovers_known_solution() {
        let v = spd(4, 7);
        let x_true = Mat::from_fn(6, 4, |i, j| (i as f64 - j as f64) * 0.5);
        let mut b = matmul(&x_true, &v);
        let method = solve_gram_system(&v, &mut b);
        assert_eq!(method, SolveMethod::Cholesky);
        assert_mat_approx_eq(&b, &x_true, 1e-8);
    }

    #[test]
    fn solve_identity_is_noop() {
        let v = Mat::identity(3);
        let mut b = Mat::from_fn(5, 3, |i, j| (i * 3 + j) as f64);
        let orig = b.clone();
        solve_gram_system(&v, &mut b);
        assert_mat_approx_eq(&b, &orig, 1e-12);
    }

    #[test]
    fn solve_singular_falls_back() {
        // Rank-1 V: Cholesky fails, ridge may fail, LU path must not panic
        // and must produce a finite result.
        let v = Mat::from_vec(2, 2, vec![1.0, 1.0, 1.0, 1.0]);
        let mut b = Mat::from_fn(3, 2, |i, j| (i + j) as f64);
        let method = solve_gram_system(&v, &mut b);
        assert_ne!(method, SolveMethod::Cholesky);
        assert!(b.as_slice().iter().all(|x| x.is_finite()));
    }

    #[test]
    fn solve_large_rhs_parallel_path() {
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        // Above the parallel threshold, a ragged row count, and R = 1.
        for (rows, r) in [(5000usize, 3usize), (4099, 3), (5000, 1)] {
            let v = spd(r, 99);
            let x_true = Mat::from_fn(rows, r, |i, j| ((i + j) % 13) as f64 * 0.1);
            let mut b = matmul(&x_true, &v);
            // The serial path: the same rows solved in blocks below 1024.
            let mut serial = b.as_slice().to_vec();
            for block in serial.chunks_mut(1000 * r) {
                let mut m = Mat::from_vec(block.len() / r, r, block.to_vec());
                solve_gram_system(&v, &mut m);
                block.copy_from_slice(m.as_slice());
            }
            solve_gram_system(&v, &mut b);
            assert_mat_approx_eq(&b, &x_true, 1e-7);
            assert_eq!(bits(b.as_slice()), bits(&serial), "{rows} x {r}");
        }
    }

    #[test]
    fn lu_inverse_matches_identity() {
        let v = spd(4, 3);
        let inv = lu_inverse(&v).expect("SPD inverts");
        let prod = matmul(&v, &inv);
        assert_mat_approx_eq(&prod, &Mat::identity(4), 1e-8);
    }

    #[test]
    fn lu_inverse_handles_permutation() {
        // A matrix requiring pivoting (zero on the leading diagonal).
        let v = Mat::from_vec(2, 2, vec![0.0, 1.0, 1.0, 0.0]);
        let inv = lu_inverse(&v).expect("permutation inverts");
        let prod = matmul(&v, &inv);
        assert_mat_approx_eq(&prod, &Mat::identity(2), 1e-10);
    }

    #[test]
    fn lu_inverse_refuses_nan_instead_of_spinning() {
        // Regression: the retry loop used to be unbounded, so a NaN
        // matrix (which no ridge can repair) hung forever.
        let v = Mat::from_vec(2, 2, vec![f64::NAN, 0.0, 0.0, 1.0]);
        assert!(lu_inverse(&v).is_none());
    }

    #[test]
    fn try_solve_rejects_non_finite_system() {
        let v = Mat::from_vec(2, 2, vec![1.0, 0.0, 0.0, f64::INFINITY]);
        let mut b = Mat::from_fn(3, 2, |i, j| (i + j) as f64);
        assert_eq!(
            try_solve_gram_system(&v, &mut b),
            Err(SolveError::NonFiniteSystem)
        );
    }

    #[test]
    fn try_solve_rejects_non_finite_rhs() {
        let v = spd(2, 1);
        let mut b = Mat::from_fn(3, 2, |i, j| if i == 1 && j == 0 { f64::NAN } else { 1.0 });
        assert_eq!(
            try_solve_gram_system(&v, &mut b),
            Err(SolveError::NonFiniteRhs)
        );
    }

    #[test]
    fn rejected_rhs_is_left_unchanged() {
        // The bad entry sits in the last row, after rows a row-by-row
        // solve would already have overwritten.
        let v = spd(3, 5);
        let mut b = Mat::from_fn(40, 3, |i, j| (i + j) as f64);
        b[(39, 2)] = f64::INFINITY;
        let before = b.clone();
        assert_eq!(
            try_solve_gram_system(&v, &mut b),
            Err(SolveError::NonFiniteRhs)
        );
        assert_eq!(solve_gram_system(&v, &mut b), SolveMethod::Lu);
        let bits = |m: &Mat| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&b), bits(&before));
    }

    #[test]
    fn try_solve_matches_infallible_path_on_good_input() {
        let v = spd(4, 7);
        let x_true = Mat::from_fn(6, 4, |i, j| (i as f64 - j as f64) * 0.5);
        let mut b = matmul(&x_true, &v);
        let method = try_solve_gram_system(&v, &mut b).expect("well-posed");
        assert_eq!(method, SolveMethod::Cholesky);
        assert_mat_approx_eq(&b, &x_true, 1e-8);
    }

    #[test]
    fn ridged_solve_handles_singular_system() {
        // Exactly rank-1: the plain ladder may fall to LU; a caller-supplied
        // ridge makes the system definite and the solve clean.
        let v = Mat::from_vec(2, 2, vec![1.0, 1.0, 1.0, 1.0]);
        let mut b = Mat::from_fn(3, 2, |i, j| (i + j) as f64);
        let method = try_solve_gram_system_ridged(&v, &mut b, 1e-6).expect("ridge repairs");
        assert_ne!(method, SolveMethod::Lu);
        assert!(b.as_slice().iter().all(|x| x.is_finite()));
    }

    #[test]
    fn solve_gram_system_never_panics_on_nan() {
        let v = Mat::from_vec(2, 2, vec![f64::NAN, 0.0, 0.0, 1.0]);
        let mut b = Mat::from_fn(3, 2, |_, _| 1.0);
        // Legacy entry point stays total: reports Lu, leaves b allocated.
        assert_eq!(solve_gram_system(&v, &mut b), SolveMethod::Lu);
    }
}
