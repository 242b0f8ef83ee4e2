//! The CP-ALS mode update in two passes over the factor.
//!
//! After the MTTKRP `Ā` of a mode, paper Algorithm 2 needs the new
//! factor `A = Ā V⁻¹`, its column norms in `λ`, `A` normalized, and the
//! Gram `AᵀA` that the next modes' `V` is built from. Done one step at a
//! time, that is a copy of `Ā`, a finite check, the solve, a norm pass, a
//! scale pass and a Gram pass over a tall `N × R` matrix. Here it is two
//! passes, both split into the row blocks of `par::row_block`:
//!
//! 1. **Solve.** Each row of `Ā` is solved straight into the factor's
//!    buffer. The same pass checks the input and the solution for
//!    non-finite values and accumulates the block's column norms.
//! 2. **Scale.** Each row is divided by `λ` and the block's
//!    upper-triangle Gram partial accumulates the scaled rows, through
//!    the same `ops::gram_block` and `ops::reduce_gram` as [`crate::gram`].
//!
//! What is bitwise and what is bounded:
//!
//! * On the AVX2 path the Cholesky substitution runs on several rows at
//!   once, one row per SIMD lane (4 per register). Each lane keeps
//!   [`solve_row_cholesky`]'s order of operations, a multiply then a
//!   subtract with no fused multiply-add, so every solved row is bitwise
//!   equal to the scalar solve. Tail rows and the other paths use the
//!   scalar solve.
//! * Under [`ColumnNorm::MaxClamped`], `λ` and the factor are bitwise
//!   equal to [`crate::normalize_columns`] of the solved rows: a maximum
//!   does not depend on order.
//! * The Gram sums the same blocks in the same order, element by element,
//!   as [`crate::gram`] does, so it is bitwise equal to the Gram of the
//!   normalized factor.
//! * Under [`ColumnNorm::Two`], the sums of squares are reduced per block,
//!   so from 2048 rows (`par::PAR_ROWS`) on `λ` can differ from a serial
//!   column sweep in the last bits (within 1e-12 relative); the factor
//!   follows `λ`.
//!
//! Nothing depends on the executor: results are bitwise equal for any
//! worker count.

use crate::norms::ColumnNorm;
use crate::ops::{gram_block, reduce_gram, GRAM_TILE};
use crate::par::{self, Cancelled, Fanout, SharedSlice};
use crate::simd::{self, SimdPath};
use crate::solve::{factor_system, solve_row_cholesky, Factor, SolveError, SolveMethod};
use crate::Mat;

/// Why a mode update produced no factor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpdateError {
    /// The normal-equations solve failed.
    Solve(SolveError),
    /// The executor's cancellation token cut a pass short. The factor
    /// buffer holds a partial result and must be discarded.
    Cancelled,
}

impl From<SolveError> for UpdateError {
    fn from(e: SolveError) -> Self {
        UpdateError::Solve(e)
    }
}

impl From<Cancelled> for UpdateError {
    fn from(_: Cancelled) -> Self {
        UpdateError::Cancelled
    }
}

/// A completed mode update.
#[derive(Debug, Clone)]
pub struct ModeUpdate {
    /// The factorization the solve used.
    pub method: SolveMethod,
    /// `AᵀA` of the normalized factor.
    pub gram: Mat,
}

/// Sets `factor = normalize(ahat · (V + ridge·I)⁻¹)`, writes the column
/// norms into `lambda` and returns the normalized factor's Gram.
///
/// Zero columns keep `λ = 1` and are left untouched. On error `factor`
/// holds a partial result and `lambda` is unchanged.
///
/// # Panics
/// Panics on shape mismatch.
pub fn update_mode(
    exec: &dyn Fanout,
    v: &Mat,
    ahat: &Mat,
    extra_ridge: f64,
    norm: ColumnNorm,
    factor: &mut Mat,
    lambda: &mut [f64],
) -> Result<ModeUpdate, UpdateError> {
    assert_eq!(
        (factor.rows(), factor.cols()),
        (ahat.rows(), ahat.cols()),
        "factor shape"
    );
    assert_eq!(lambda.len(), ahat.cols(), "lambda length must equal rank");
    let (fac, method) = factor_system(v, extra_ridge)?;
    let r = ahat.cols();
    let raw = solve_pass(
        exec,
        &fac,
        Some(ahat.as_slice()),
        factor.as_mut_slice(),
        r,
        Some(norm),
    )?;
    let divisors: Vec<f64> = raw
        .iter()
        .map(|&x| {
            let n = match norm {
                ColumnNorm::Two => x.sqrt(),
                ColumnNorm::MaxClamped => x.max(1.0),
            };
            if n > 0.0 {
                n
            } else {
                1.0
            }
        })
        .collect();
    let gram = scale_pass(exec, factor.as_mut_slice(), r, &divisors)?;
    lambda.copy_from_slice(&divisors);
    Ok(ModeUpdate { method, gram })
}

/// Solves `b ← b · (V + ridge·I)⁻¹` in place on `exec`: the one
/// implementation behind [`crate::try_solve_gram_system_ridged`].
pub fn solve_on(
    exec: &dyn Fanout,
    v: &Mat,
    b: &mut Mat,
    extra_ridge: f64,
) -> Result<SolveMethod, UpdateError> {
    assert_eq!(b.cols(), v.rows(), "rhs width must match system size");
    let (fac, method) = factor_system(v, extra_ridge)?;
    let r = b.cols();
    solve_pass(exec, &fac, None, b.as_mut_slice(), r, None)?;
    Ok(method)
}

/// One block's outcome in the solve pass.
struct BlockStats {
    rhs_finite: bool,
    solution_finite: bool,
    /// Sums of squares (`Two`) or maximum magnitudes (`MaxClamped`) of
    /// the block's solved columns; empty when no norm is requested.
    acc: Vec<f64>,
}

/// Pass 1: solves the rows of `src` (or of `dst` itself, in place) into
/// `dst`, checks input and output finite, and returns the reduced raw
/// column norms (empty when `norm` is `None`).
fn solve_pass(
    exec: &dyn Fanout,
    fac: &Factor,
    src: Option<&[f64]>,
    dst: &mut [f64],
    r: usize,
    norm: Option<ColumnNorm>,
) -> Result<Vec<f64>, UpdateError> {
    if r == 0 {
        return Ok(Vec::new());
    }
    let rows = dst.len() / r;
    let block = par::row_block(rows);
    let nblocks = rows.div_ceil(block);
    let path = simd::active();
    let mut stats: Vec<BlockStats> = (0..nblocks)
        .map(|_| BlockStats {
            rhs_finite: true,
            solution_finite: true,
            acc: Vec::new(),
        })
        .collect();
    {
        let out = SharedSlice::new(dst);
        let shared_stats = SharedSlice::new(&mut stats);
        exec.try_run(nblocks, &|bi| {
            let (lo, hi) = (bi * block, ((bi + 1) * block).min(rows));
            // SAFETY: each task owns rows `lo..hi` and stats slot `bi`.
            let (d, st) = unsafe {
                (
                    out.range_mut(lo * r, hi * r),
                    &mut shared_stats.range_mut(bi, bi + 1)[0],
                )
            };
            if norm.is_some() {
                st.acc = vec![0.0; r];
            }
            let s = src.map(|s| &s[lo * r..hi * r]);
            solve_block(path, fac, s, d, r, norm, st);
        })?;
    }
    if !stats.iter().all(|s| s.rhs_finite) {
        return Err(SolveError::NonFiniteRhs.into());
    }
    if !stats.iter().all(|s| s.solution_finite) {
        return Err(SolveError::NonFiniteSolution.into());
    }
    let mut raw = vec![0.0; if norm.is_some() { r } else { 0 }];
    for s in &stats {
        for (x, &a) in raw.iter_mut().zip(&s.acc) {
            match norm {
                Some(ColumnNorm::MaxClamped) => *x = f64::max(*x, a),
                _ => *x += a,
            }
        }
    }
    Ok(raw)
}

/// Solves one block of rows. The SIMD path solves whole lane groups
/// transposed into a column-major scratch; the rest goes row by row.
fn solve_block(
    path: SimdPath,
    fac: &Factor,
    src: Option<&[f64]>,
    dst: &mut [f64],
    r: usize,
    norm: Option<ColumnNorm>,
    st: &mut BlockStats,
) {
    let rows = dst.len() / r;
    let group = group_rows(path);
    let mut done = 0;
    if let (Factor::Cholesky(l), true) = (fac, group > 0) {
        let mut cols = vec![0.0; group * r];
        while done + group <= rows {
            let (lo, hi) = (done * r, (done + group) * r);
            let input = src.map_or(&dst[lo..hi], |s| &s[lo..hi]);
            for (lane, row) in input.chunks_exact(r).enumerate() {
                for (j, &x) in row.iter().enumerate() {
                    st.rhs_finite &= x.is_finite();
                    cols[j * group + lane] = x;
                }
            }
            solve_group(path, l.as_slice(), r, &mut cols);
            for (lane, row) in dst[lo..hi].chunks_exact_mut(r).enumerate() {
                for (j, x) in row.iter_mut().enumerate() {
                    *x = cols[j * group + lane];
                }
                post_row(row, norm, st);
            }
            done += group;
        }
    }
    let mut tmp = vec![0.0; r];
    for i in done..rows {
        let (lo, hi) = (i * r, (i + 1) * r);
        tmp.copy_from_slice(src.map_or(&dst[lo..hi], |s| &s[lo..hi]));
        st.rhs_finite &= tmp.iter().all(|x| x.is_finite());
        let row = &mut dst[lo..hi];
        match fac {
            Factor::Cholesky(l) => {
                row.copy_from_slice(&tmp);
                solve_row_cholesky(l, row);
            }
            Factor::Inverse(inv) => {
                row.fill(0.0);
                crate::ops::mul_row_into(row, &tmp, inv);
            }
        }
        post_row(row, norm, st);
    }
}

/// Checks a solved row finite and folds it into the block's norms.
#[inline]
fn post_row(row: &[f64], norm: Option<ColumnNorm>, st: &mut BlockStats) {
    let mut finite = true;
    for &x in row {
        finite &= x.is_finite();
    }
    st.solution_finite &= finite;
    match norm {
        Some(ColumnNorm::Two) => {
            for (a, &x) in st.acc.iter_mut().zip(row) {
                *a += x * x;
            }
        }
        Some(ColumnNorm::MaxClamped) => {
            for (a, &x) in st.acc.iter_mut().zip(row) {
                *a = a.max(x.abs());
            }
        }
        None => {}
    }
}

/// Pass 2: divides every row by `divisors` and returns the Gram of the
/// scaled rows, built per block and reduced exactly as
/// [`crate::ops::gram_on`] builds and reduces it.
fn scale_pass(
    exec: &dyn Fanout,
    data: &mut [f64],
    r: usize,
    divisors: &[f64],
) -> Result<Mat, Cancelled> {
    if r == 0 {
        return Ok(Mat::zeros(0, 0));
    }
    let rows = data.len() / r;
    let block = par::row_block(rows);
    let nblocks = rows.div_ceil(block);
    let path = simd::active();
    let mut partials = vec![0.0; nblocks * r * r];
    {
        let rows_out = SharedSlice::new(data);
        let acc = SharedSlice::new(&mut partials);
        exec.try_run(nblocks, &|bi| {
            let (lo, hi) = (bi * block, ((bi + 1) * block).min(rows));
            // SAFETY: each task owns rows `lo..hi` and partial block `bi`.
            let (d, g) = unsafe {
                (
                    rows_out.range_mut(lo * r, hi * r),
                    acc.range_mut(bi * r * r, (bi + 1) * r * r),
                )
            };
            // Scale a tile, then fold it into the Gram while it is in L1.
            for part in d.chunks_mut(GRAM_TILE * r) {
                for row in part.chunks_exact_mut(r) {
                    for (x, &n) in row.iter_mut().zip(divisors) {
                        *x /= n;
                    }
                }
                gram_block(path, g, part, r);
            }
        })?;
    }
    Ok(reduce_gram(&partials, r))
}

/// Rows per lane group of `path`'s substitution kernel (0: no kernel,
/// solve row by row).
fn group_rows(path: SimdPath) -> usize {
    match path {
        #[cfg(target_arch = "x86_64")]
        SimdPath::Avx2 => avx2::GROUP,
        _ => 0,
    }
}

/// Runs the forward and back substitution of `(L Lᵀ)⁻¹` on a lane group
/// held column-major in `cols` (`cols[j * group + lane]`).
#[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
fn solve_group(path: SimdPath, l: &[f64], r: usize, cols: &mut [f64]) {
    match path {
        #[cfg(target_arch = "x86_64")]
        SimdPath::Avx2 => {
            assert!(path.available(), "avx2 kernels on a CPU without avx2");
            // SAFETY: the CPU has avx2, asserted above.
            unsafe { avx2::solve_group(l, r, cols) }
        }
        _ => unreachable!("no lane kernel for {path}"),
    }
}

/// AVX2 lane kernel: four registers of four rows, so four independent
/// dependency chains hide the subtract latency. Multiplies and adds are
/// separate instructions; nothing is fused.
#[cfg(target_arch = "x86_64")]
// `u` indexes a register array and a pointer offset together.
#[allow(clippy::needless_range_loop)]
mod avx2 {
    use core::arch::x86_64::*;

    /// Rows per group: 4 registers × 4 lanes.
    pub(super) const GROUP: usize = 16;

    /// Forward and back substitution on one group, column-major in `cols`.
    ///
    /// # Safety
    /// The CPU must support avx2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn solve_group(l: &[f64], r: usize, cols: &mut [f64]) {
        assert!(l.len() >= r * r && cols.len() >= r * GROUP);
        let c = cols.as_mut_ptr();
        let l = l.as_ptr();
        // Forward: z_j = (x_j - Σ_{k<j} z_k L[j][k]) / L[j][j].
        for j in 0..r {
            let mut s = [_mm256_setzero_pd(); 4];
            for u in 0..4 {
                s[u] = _mm256_loadu_pd(c.add(j * GROUP + 4 * u));
            }
            for k in 0..j {
                let lk = _mm256_set1_pd(*l.add(j * r + k));
                for u in 0..4 {
                    let z = _mm256_loadu_pd(c.add(k * GROUP + 4 * u));
                    s[u] = _mm256_sub_pd(s[u], _mm256_mul_pd(z, lk));
                }
            }
            let d = _mm256_set1_pd(*l.add(j * r + j));
            for u in 0..4 {
                _mm256_storeu_pd(c.add(j * GROUP + 4 * u), _mm256_div_pd(s[u], d));
            }
        }
        // Back: y_j = (z_j - Σ_{k>j} y_k L[k][j]) / L[j][j].
        for j in (0..r).rev() {
            let mut s = [_mm256_setzero_pd(); 4];
            for u in 0..4 {
                s[u] = _mm256_loadu_pd(c.add(j * GROUP + 4 * u));
            }
            for k in j + 1..r {
                let lk = _mm256_set1_pd(*l.add(k * r + j));
                for u in 0..4 {
                    let y = _mm256_loadu_pd(c.add(k * GROUP + 4 * u));
                    s[u] = _mm256_sub_pd(s[u], _mm256_mul_pd(y, lk));
                }
            }
            let d = _mm256_set1_pd(*l.add(j * r + j));
            for u in 0..4 {
                _mm256_storeu_pd(c.add(j * GROUP + 4 * u), _mm256_div_pd(s[u], d));
            }
        }
    }
}
