//! Matrix products used by CP-ALS.
//!
//! The interesting one is [`gram`]: CP-ALS forms `V` as the Hadamard
//! product of the Gram matrices `A⁽ⁱ⁾ᵀ A⁽ⁱ⁾` of every factor except the
//! one being updated (paper Algorithm 2, lines 2/5/8/11). Grams of
//! tall-skinny matrices are computed as a sum of per-block partials of
//! rank-1 row outer products, which touches each factor row exactly
//! once. [`gram_on`] runs the blocks on an executor the caller passes
//! in (the CPD driver passes its engine's pool); [`gram`] runs them
//! inline. [`gram_block`] and [`reduce_gram`] fix the order of every
//! Gram sum, here and in the mode update of [`crate::update`].

use crate::par::{self, Cancelled, Fanout, SharedSlice};
use crate::simd::SimdPath;
use crate::Mat;

/// Computes the Gram matrix `Aᵀ A` (`cols × cols`) inline. See
/// [`gram_on`].
pub fn gram(a: &Mat) -> Mat {
    par::inline(gram_on(&par::Inline, a))
}

/// Computes the Gram matrix `Aᵀ A` on `exec`: upper-triangle partials
/// per block of rows (`par::row_block`), summed in block order and
/// mirrored. Every element is a multiply then an add per row, in row
/// order, on every SIMD path, so the result is bitwise the same for any
/// executor and any path.
pub fn gram_on(exec: &dyn Fanout, a: &Mat) -> Result<Mat, Cancelled> {
    let (rows, r) = (a.rows(), a.cols());
    if r == 0 {
        return Ok(Mat::zeros(0, 0));
    }
    let block = par::row_block(rows);
    let nblocks = rows.div_ceil(block);
    let data = a.as_slice();
    let path = crate::simd::active();
    let mut partials = vec![0.0; nblocks * r * r];
    {
        let shared = SharedSlice::new(&mut partials);
        exec.try_run(nblocks, &|bi| {
            // SAFETY: each task owns exactly its own r×r partial block.
            let acc = unsafe { shared.range_mut(bi * r * r, (bi + 1) * r * r) };
            let (lo, hi) = (bi * block, ((bi + 1) * block).min(rows));
            gram_block(path, acc, &data[lo * r..hi * r], r);
        })?;
    }
    Ok(reduce_gram(&partials, r))
}

/// Rows per Gram tile: the accumulator tile stays in registers across
/// this many rows, whose values stay in L1.
pub(crate) const GRAM_TILE: usize = 16;

/// `acc += Σ row ⊗ row` over the whole rows of `rows`, one row block's
/// upper-triangle partial (entries left of the diagonal inside a SIMD
/// block are accumulated too and overwritten by [`reduce_gram`]'s
/// mirroring). Each element is a multiply then an add per row, in row
/// order, on every path, so all paths agree bit for bit, and feeding a
/// block in consecutive pieces gives the same bits as one call.
pub(crate) fn gram_block(path: SimdPath, acc: &mut [f64], rows: &[f64], r: usize) {
    match path {
        #[cfg(target_arch = "x86_64")]
        SimdPath::Avx2 => {
            assert!(path.available(), "avx2 kernels on a CPU without avx2");
            for tile in rows.chunks(GRAM_TILE * r) {
                // SAFETY: the CPU has avx2, asserted above.
                unsafe { avx2::gram_tile(acc, tile, r) }
            }
        }
        _ => {
            for row in rows.chunks_exact(r) {
                for i in 0..r {
                    let ri = row[i];
                    let dst = &mut acc[i * r..(i + 1) * r];
                    for (d, &rj) in dst.iter_mut().zip(row).skip(i) {
                        *d += ri * rj;
                    }
                }
            }
        }
    }
}

/// Sums `r × r` block partials element by element in block order, then
/// mirrors the upper triangle.
pub(crate) fn reduce_gram(partials: &[f64], r: usize) -> Mat {
    let mut out = vec![0.0; r * r];
    for p in partials.chunks_exact(r * r) {
        for (o, &v) in out.iter_mut().zip(p) {
            *o += v;
        }
    }
    let mut g = Mat::from_vec(r, r, out);
    symmetrize(&mut g);
    g
}

/// Copies the upper triangle onto the lower triangle in-place.
fn symmetrize(m: &mut Mat) {
    let n = m.rows();
    for i in 0..n {
        for j in 0..i {
            m[(i, j)] = m[(j, i)];
        }
    }
}

/// Hadamard (element-wise) product `a *= b`.
///
/// # Panics
/// Panics on shape mismatch.
pub fn hadamard_inplace(a: &mut Mat, b: &Mat) {
    assert_eq!(a.rows(), b.rows());
    assert_eq!(a.cols(), b.cols());
    for (x, y) in a.as_mut_slice().iter_mut().zip(b.as_slice()) {
        *x *= y;
    }
}

/// Plain dense matrix product `A · B`, inline. See [`matmul_on`].
pub fn matmul(a: &Mat, b: &Mat) -> Mat {
    par::inline(matmul_on(&par::Inline, a, b))
}

/// Dense matrix product `A · B` on `exec`, over the row blocks of
/// `par::row_block`. Each output row is one i-k-j loop (the inner loop
/// streams a row of `B`) run by one task, so the result is bitwise the
/// same for any executor.
pub fn matmul_on(exec: &dyn Fanout, a: &Mat, b: &Mat) -> Result<Mat, Cancelled> {
    assert_eq!(a.cols(), b.rows(), "inner dimensions must agree");
    let (rows, n) = (a.rows(), b.cols());
    let block = par::row_block(rows);
    let mut out = Mat::zeros(rows, n);
    {
        let shared = SharedSlice::new(out.as_mut_slice());
        exec.try_run(rows.div_ceil(block), &|bi| {
            let (lo, hi) = (bi * block, ((bi + 1) * block).min(rows));
            // SAFETY: each task owns the disjoint output rows `lo..hi`.
            let o = unsafe { shared.range_mut(lo * n, hi * n) };
            for (i, orow) in (lo..hi).zip(o.chunks_exact_mut(n.max(1))) {
                mul_row_into(orow, a.row(i), b);
            }
        })?;
    }
    Ok(out)
}

/// `out += a_row · B`, skipping zero entries of `a_row`: one row of
/// [`matmul`], which the LU fallback of the mode update reuses so its
/// rows are bitwise equal to a `matmul` by the inverse.
pub(crate) fn mul_row_into(out: &mut [f64], a_row: &[f64], b: &Mat) {
    for (p, &aip) in a_row.iter().enumerate() {
        if aip != 0.0 {
            for (o, &bv) in out.iter_mut().zip(b.row(p)) {
                *o += aip * bv;
            }
        }
    }
}

/// Matrix transpose.
pub fn transpose(a: &Mat) -> Mat {
    let mut out = Mat::zeros(a.cols(), a.rows());
    for i in 0..a.rows() {
        for j in 0..a.cols() {
            out[(j, i)] = a[(i, j)];
        }
    }
    out
}

/// Alias for [`gram`]; kept because some call sites read better with the
/// explicit "full" name next to triangular intermediates.
pub fn gram_full(a: &Mat) -> Mat {
    gram(a)
}

/// Sum over all elements of the Hadamard product `Σ_ij a_ij · b_ij`,
/// i.e. the Frobenius inner product. Used in the CP fit computation.
pub fn frob_inner(a: &Mat, b: &Mat) -> f64 {
    assert_eq!(a.rows(), b.rows());
    assert_eq!(a.cols(), b.cols());
    a.as_slice()
        .iter()
        .zip(b.as_slice())
        .map(|(x, y)| x * y)
        .sum()
}

/// AVX2 Gram tile: multiplies and adds are separate instructions;
/// nothing is fused.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use core::arch::x86_64::*;

    /// `acc += Σ row ⊗ row` over at most `GRAM_TILE` rows: each 4-wide
    /// accumulator block is loaded once, takes every row in order, and
    /// is stored once.
    ///
    /// # Safety
    /// The CPU must support avx2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn gram_tile(acc: &mut [f64], rows: &[f64], r: usize) {
        assert!(acc.len() >= r * r && rows.len().is_multiple_of(r));
        let n = rows.len() / r;
        let (a, x) = (acc.as_mut_ptr(), rows.as_ptr());
        let r4 = r & !3;
        for i in 0..r {
            let mut j = i & !3;
            while j < r4 {
                let mut s = _mm256_loadu_pd(a.add(i * r + j));
                for m in 0..n {
                    let xi = _mm256_set1_pd(*x.add(m * r + i));
                    s = _mm256_add_pd(s, _mm256_mul_pd(xi, _mm256_loadu_pd(x.add(m * r + j))));
                }
                _mm256_storeu_pd(a.add(i * r + j), s);
                j += 4;
            }
            for j in i.max(r4)..r {
                let mut s = *a.add(i * r + j);
                for m in 0..n {
                    s += *x.add(m * r + i) * *x.add(m * r + j);
                }
                *a.add(i * r + j) = s;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assert_mat_approx_eq;

    fn naive_gram(a: &Mat) -> Mat {
        matmul(&transpose(a), a)
    }

    #[test]
    fn gram_small_matches_naive() {
        let a = Mat::from_fn(5, 3, |i, j| (i as f64 + 1.0) * 0.5 + j as f64);
        assert_mat_approx_eq(&gram_full(&a), &naive_gram(&a), 1e-12);
    }

    #[test]
    fn gram_large_matches_naive() {
        // Cross the parallel threshold to exercise the fan-out path.
        let a = Mat::from_fn(4096, 4, |i, j| ((i * 7 + j * 13) % 17) as f64 * 0.25 - 1.0);
        assert_mat_approx_eq(&gram_full(&a), &naive_gram(&a), 1e-9);
    }

    #[test]
    fn gram_is_symmetric() {
        let a = Mat::from_fn(10, 4, |i, j| ((i + 2 * j) % 5) as f64);
        let g = gram_full(&a);
        for i in 0..4 {
            for j in 0..4 {
                assert_eq!(g[(i, j)], g[(j, i)]);
            }
        }
    }

    #[test]
    fn hadamard_inplace_multiplies() {
        let mut a = Mat::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let b = Mat::from_vec(2, 2, vec![2.0, 0.5, 1.0, 0.25]);
        hadamard_inplace(&mut a, &b);
        assert_eq!(a.as_slice(), &[2.0, 1.0, 3.0, 1.0]);
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = Mat::from_fn(3, 3, |i, j| (i * 3 + j) as f64);
        let prod = matmul(&a, &Mat::identity(3));
        assert_mat_approx_eq(&prod, &a, 1e-15);
    }

    #[test]
    fn matmul_known_product() {
        let a = Mat::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let b = Mat::from_vec(2, 2, vec![5.0, 6.0, 7.0, 8.0]);
        let c = matmul(&a, &b);
        assert_eq!(c.as_slice(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_rectangular_shapes() {
        let a = Mat::from_fn(2, 3, |i, j| (i + j) as f64);
        let b = Mat::from_fn(3, 4, |i, j| (i * j) as f64);
        let c = matmul(&a, &b);
        assert_eq!(c.rows(), 2);
        assert_eq!(c.cols(), 4);
        // Spot check c[1][2] = Σ_p a[1][p] * b[p][2] = 1*0 + 2*2 + 3*4 = 16.
        assert_eq!(c[(1, 2)], 16.0);
    }

    /// Runs the tasks last to first, as no real executor would.
    struct Reversed;
    impl Fanout for Reversed {
        fn try_run(&self, tasks: usize, f: &(dyn Fn(usize) + Sync)) -> Result<(), Cancelled> {
            (0..tasks).rev().for_each(f);
            Ok(())
        }
    }

    #[test]
    fn matmul_and_gram_are_bitwise_equal_in_any_task_order() {
        let a = Mat::from_fn(5000, 5, |i, j| ((i * 31 + j * 7) % 23) as f64 * 0.37 - 3.0);
        let b = Mat::from_fn(5, 4, |i, j| (i as f64 + 0.5) / (j as f64 + 1.5));
        let bits = |m: &Mat| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let serial = matmul(&a, &b);
        assert_eq!(bits(&matmul_on(&Reversed, &a, &b).unwrap()), bits(&serial));
        assert_mat_approx_eq(
            &serial,
            &Mat::from_fn(5000, 4, |i, j| (0..5).map(|p| a[(i, p)] * b[(p, j)]).sum()),
            1e-12,
        );
        assert_eq!(bits(&gram_on(&Reversed, &a).unwrap()), bits(&gram(&a)));
    }

    #[test]
    fn transpose_round_trip() {
        let a = Mat::from_fn(3, 5, |i, j| (i * 5 + j) as f64);
        assert_mat_approx_eq(&transpose(&transpose(&a)), &a, 0.0);
    }

    #[test]
    fn frob_inner_matches_trace_formula() {
        let a = Mat::from_fn(4, 3, |i, j| (i + j) as f64);
        let b = Mat::from_fn(4, 3, |i, j| (i * j + 1) as f64);
        // <A,B>_F = trace(AᵀB)
        let tr = {
            let p = matmul(&transpose(&a), &b);
            (0..3).map(|i| p[(i, i)]).sum::<f64>()
        };
        assert!((frob_inner(&a, &b) - tr).abs() < 1e-12);
    }
}
