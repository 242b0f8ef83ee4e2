//! Matrix products used by CP-ALS.
//!
//! The interesting one is [`gram`]: CP-ALS forms `V` as the Hadamard
//! product of the Gram matrices `A⁽ⁱ⁾ᵀ A⁽ⁱ⁾` of every factor except the
//! one being updated (paper Algorithm 2, lines 2/5/8/11). Grams of
//! tall-skinny matrices are computed as a parallel sum of rank-1 row
//! outer products, which touches each factor row exactly once. The
//! parallel loops fan out through [`crate::par`], so in a full engine
//! build they run on the same persistent worker pool as the sparse
//! kernels instead of spawning scoped threads per call.

use crate::{par, Mat};

/// Minimum number of rows before [`gram`] and [`matmul`] bother spawning
/// parallel work; tiny matrices are faster sequentially.
const PAR_THRESHOLD: usize = 2048;

/// Computes the Gram matrix `Aᵀ A` (`cols × cols`).
///
/// For the tall-skinny factors of CP-ALS this is the dominant dense cost;
/// it is parallelized over row blocks (accumulating only the upper
/// triangle per row) with a final reduction and symmetrization.
pub fn gram(a: &Mat) -> Mat {
    let r = a.cols();
    if a.rows() < PAR_THRESHOLD {
        let mut g = gram_serial(a);
        symmetrize(&mut g);
        return g;
    }
    // Chunking depends only on the hardware worker count — never on the
    // executor actually running the fan-out — so the summation order
    // (and therefore every bit of the result) is identical whether the
    // blocks run on the pool, on scoped threads, or inline.
    let chunk = (a.rows() / par::workers().max(1)).max(256);
    let nchunks = a.rows().div_ceil(chunk);
    let data = a.as_slice();
    let mut partials = vec![0.0; nchunks * r * r];
    {
        let shared = par::SharedSlice::new(&mut partials);
        par::fanout(nchunks, &|ci| {
            // SAFETY: each task owns exactly its own r×r partial block.
            let acc = unsafe { shared.range_mut(ci * r * r, (ci + 1) * r * r) };
            let lo = ci * chunk * r;
            let hi = ((ci + 1) * chunk * r).min(data.len());
            for row in data[lo..hi].chunks_exact(r) {
                accumulate_outer(acc, row, r);
            }
        });
    }
    // Parallel element-wise reduction of the per-block partials. Each
    // output element sums its partials in block order, so the result is
    // bit-identical to the serial reduction regardless of how the blocks
    // are distributed across workers.
    let mut out = vec![0.0; r * r];
    let red_chunk = (r * r / par::workers().max(1)).max(64);
    let nred = (r * r).div_ceil(red_chunk);
    {
        let shared = par::SharedSlice::new(&mut out);
        par::fanout(nred, &|ci| {
            let base = ci * red_chunk;
            let end = (base + red_chunk).min(r * r);
            // SAFETY: each task owns a disjoint output element range.
            let dst = unsafe { shared.range_mut(base, end) };
            for p in partials.chunks_exact(r * r) {
                for (o, &v) in dst.iter_mut().zip(&p[base..end]) {
                    *o += v;
                }
            }
        });
    }
    let mut g = Mat::from_vec(r, r, out);
    symmetrize(&mut g);
    g
}

fn gram_serial(a: &Mat) -> Mat {
    let r = a.cols();
    let mut acc = vec![0.0; r * r];
    for row in a.as_slice().chunks_exact(r.max(1)) {
        accumulate_outer(&mut acc, row, r);
    }
    Mat::from_vec(r, r, acc)
}

/// `acc += row ⊗ row`, upper triangle only; mirrored once at the end of
/// `gram` rather than per row.
#[inline]
fn accumulate_outer(acc: &mut [f64], row: &[f64], r: usize) {
    for i in 0..r {
        let ri = row[i];
        let dst = &mut acc[i * r..(i + 1) * r];
        for (d, &rj) in dst.iter_mut().zip(row).skip(i) {
            *d += ri * rj;
        }
    }
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

/// Plain dense matrix product `A · B`.
///
/// Used only on small operands (`R × R` solves, reference code, fit
/// computation); an i-k-j loop ordering keeps the inner loop streaming.
pub fn matmul(a: &Mat, b: &Mat) -> Mat {
    assert_eq!(a.cols(), b.rows(), "inner dimensions must agree");
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    let mut out = Mat::zeros(m, n);
    if m >= PAR_THRESHOLD {
        // Row *blocks* rather than single rows: far fewer parallel tasks
        // and each worker streams over a contiguous output range. Every
        // output element is computed by exactly one task with the same
        // per-element summation order as the serial loop, so the result
        // is bit-identical for any executor.
        let block = (m / par::workers().max(1)).max(256);
        let nblocks = m.div_ceil(block);
        let shared = par::SharedSlice::new(out.as_mut_slice());
        par::fanout(nblocks, &|ci| {
            let row0 = ci * block;
            let row1 = (row0 + block).min(m);
            // SAFETY: each task owns a disjoint block of output rows.
            let oblock = unsafe { shared.range_mut(row0 * n, row1 * n) };
            for (local, orow) in oblock.chunks_exact_mut(n).enumerate() {
                let i = row0 + local;
                for p in 0..k {
                    let aip = a[(i, p)];
                    if aip != 0.0 {
                        for (o, &bv) in orow.iter_mut().zip(b.row(p)) {
                            *o += aip * bv;
                        }
                    }
                }
            }
        });
    } else {
        for i in 0..m {
            for p in 0..k {
                let aip = a[(i, p)];
                if aip != 0.0 {
                    let brow = b.row(p);
                    let orow = out.row_mut(i);
                    for (o, &bv) in orow.iter_mut().zip(brow) {
                        *o += aip * bv;
                    }
                }
            }
        }
    }
    out
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
