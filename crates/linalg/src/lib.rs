//! # stef-linalg — dense small-matrix algebra for sparse CP decomposition
//!
//! CP-ALS spends almost all of its time in sparse MTTKRP kernels, but each
//! iteration also needs a handful of *dense* operations on small matrices
//! (paper Algorithm 2):
//!
//! * Gram matrices `Aᵀ A` of the `N × R` factor matrices,
//! * Hadamard (element-wise) products of the `R × R` Grams,
//! * the solve `Ā V⁻¹` that turns an MTTKRP result into the new factor,
//! * column normalization with the norms collected into `λ`,
//! * Khatri–Rao products for reference implementations and fit computation.
//!
//! This crate implements all of those from scratch on a single row-major
//! [`Mat`] type. Everything is `f64`; matrices in CP-ALS are tall-skinny
//! (`N × R` with `R ∈ {8..128}`) or tiny (`R × R`), so a cache-friendly
//! row-major layout with row blocks fanned out on a caller-supplied
//! [`par::Fanout`] is all that is needed. [`update`] fuses a whole CP-ALS
//! mode update (solve, normalize, Gram) into two passes over the factor.
//!
//! The solve path ([`solve::solve_gram_system`]) mirrors what SPLATT and
//! AdaTM do in practice: Cholesky on the symmetric positive semi-definite
//! Hadamard-of-Grams matrix, with a ridge fallback and an LU fallback for
//! the rank-deficient case.

pub mod krp;
pub mod mat;
pub mod norms;
pub mod ops;
pub mod par;
pub mod simd;
pub mod solve;
pub mod update;

pub use mat::Mat;
pub use norms::{column_norms, normalize_columns};
pub use ops::{gram, gram_on, hadamard_inplace, matmul, matmul_on, transpose};
pub use solve::{
    cholesky_factor, solve_gram_system, try_solve_gram_system, try_solve_gram_system_ridged,
    SolveError, SolveMethod,
};

/// Relative tolerance used by the crate's own tests when comparing
/// floating-point matrices produced by different algorithms.
pub const TEST_REL_TOL: f64 = 1e-9;

/// Returns `true` if `a` and `b` agree to relative tolerance `tol`
/// (with an absolute floor of `tol` for near-zero entries).
pub fn approx_eq(a: f64, b: f64, tol: f64) -> bool {
    let diff = (a - b).abs();
    diff <= tol || diff <= tol * a.abs().max(b.abs())
}

/// Asserts two matrices are element-wise approximately equal.
///
/// Panics with the offending coordinate on mismatch; used pervasively by
/// the cross-implementation correctness tests.
pub fn assert_mat_approx_eq(a: &Mat, b: &Mat, tol: f64) {
    assert_eq!(a.rows(), b.rows(), "row count mismatch");
    assert_eq!(a.cols(), b.cols(), "col count mismatch");
    for i in 0..a.rows() {
        for j in 0..a.cols() {
            let (x, y) = (a[(i, j)], b[(i, j)]);
            assert!(
                approx_eq(x, y, tol),
                "matrices differ at ({i},{j}): {x} vs {y} (tol {tol})"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn approx_eq_exact() {
        assert!(approx_eq(1.0, 1.0, 1e-12));
    }

    #[test]
    fn approx_eq_relative() {
        assert!(approx_eq(1e12, 1e12 * (1.0 + 1e-10), 1e-9));
        assert!(!approx_eq(1e12, 1e12 * (1.0 + 1e-6), 1e-9));
    }

    #[test]
    fn approx_eq_near_zero_uses_absolute_floor() {
        assert!(approx_eq(0.0, 1e-12, 1e-9));
        assert!(!approx_eq(0.0, 1e-3, 1e-9));
    }
}
