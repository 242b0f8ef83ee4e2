//! Direct transcriptions of the paper's specialized kernel listings
//! (Algorithms 6, 7 and 8): MTTKRP for mode 1 of a 4-way tensor with
//! `P^(1)` stored, with `P^(2)` stored, and with nothing stored.
//!
//! The production engine ([`crate::kernels`]) implements the *generic*
//! Algorithm 4/5 recursion, of which these are the unrolled 4-D
//! specializations. Keeping the paper's exact listings executable serves
//! two purposes:
//!
//! 1. **fidelity** — tests assert that the generic kernels compute the
//!    same thing as the literal pseudo-code, so any divergence from the
//!    paper is caught mechanically;
//! 2. **readability** — these functions are the clearest statement of
//!    what Fig. 1(b)/(c)/(d) mean operationally, without the recursion
//!    and scheduling machinery around them.
//!
//! All three are sequential (the paper's listings parallelize over the
//! root mode and privatize the output; correctness is unaffected).

use linalg::krp::{axpy_row, hadamard_row, krp_row};
use linalg::Mat;
use sptensor::Csf;

/// Computes the dense `P^(1)` / `P^(2)` partials of a 4-way CSF with one
/// row per fiber at the given level — the sequential analogue of what the
/// mode-0 pass memoizes. Returns a `nfibers(level) × R` matrix.
pub fn dense_partials_4d(csf: &Csf, factors: &[&Mat], level: usize, rank: usize) -> Mat {
    assert_eq!(csf.ndim(), 4, "this helper is specific to 4-way tensors");
    assert!(level == 1 || level == 2, "P^(1) or P^(2) only");
    let mut out = Mat::zeros(csf.nfibers(level), rank);
    // t2 for a level-2 node: Σ_l T[..l] · A3[l,:].
    let compute_t2 = |k_idx: usize, row: &mut [f64]| {
        row.fill(0.0);
        let (lo, hi) = (csf.ptr(2)[k_idx], csf.ptr(2)[k_idx + 1]);
        for l_idx in lo..hi {
            axpy_row(
                row,
                csf.vals()[l_idx],
                factors[3].row(csf.fids(3)[l_idx] as usize),
            );
        }
    };
    if level == 2 {
        for k_idx in 0..csf.nfibers(2) {
            compute_t2(k_idx, out.row_mut(k_idx));
        }
    } else {
        let mut t2 = vec![0.0; rank];
        for j_idx in 0..csf.nfibers(1) {
            let row = out.row_mut(j_idx);
            let (lo, hi) = (csf.ptr(1)[j_idx], csf.ptr(1)[j_idx + 1]);
            for k_idx in lo..hi {
                compute_t2(k_idx, &mut t2);
                hadamard_row(row, &t2, factors[2].row(csf.fids(2)[k_idx] as usize));
            }
        }
    }
    out
}

/// **Algorithm 6**: STeF MTTKRP for `A^(1)` of a 4-way tensor where
/// `P^(1)` is stored — a single MTTV over the saved partials.
pub fn alg6_mode1_with_p1(csf: &Csf, factors: &[&Mat], p1: &Mat, rank: usize) -> Mat {
    assert_eq!(csf.ndim(), 4);
    assert_eq!(p1.rows(), csf.nfibers(1));
    let n1 = csf.level_dims()[1];
    let mut out = Mat::zeros(n1, rank);
    // for i ∈ T[*,*,*,:] (root slices)
    for i_idx in 0..csf.nfibers(0) {
        let k0 = factors[0].row(csf.fids(0)[i_idx] as usize); // k0 ← A0[i,:]
        let (jlo, jhi) = (csf.ptr(0)[i_idx], csf.ptr(0)[i_idx + 1]);
        for j_idx in jlo..jhi {
            // t1 ← P^(1)[i,j];  Ā1[j,:] += t1 ⊙ k0
            let t1 = p1.row(j_idx);
            hadamard_row(out.row_mut(csf.fids(1)[j_idx] as usize), t1, k0);
        }
    }
    out
}

/// **Algorithm 7**: STeF MTTKRP for `A^(1)` of a 4-way tensor where
/// `P^(2)` is stored — contract `A^(2)` into the saved `P^(2)` on the
/// fly, then the MTTV with `k0`.
pub fn alg7_mode1_with_p2(csf: &Csf, factors: &[&Mat], p2: &Mat, rank: usize) -> Mat {
    assert_eq!(csf.ndim(), 4);
    assert_eq!(p2.rows(), csf.nfibers(2));
    let n1 = csf.level_dims()[1];
    let mut out = Mat::zeros(n1, rank);
    let mut t1 = vec![0.0; rank];
    let mut upd = vec![0.0; rank];
    for i_idx in 0..csf.nfibers(0) {
        let k0 = factors[0].row(csf.fids(0)[i_idx] as usize);
        let (jlo, jhi) = (csf.ptr(0)[i_idx], csf.ptr(0)[i_idx + 1]);
        for j_idx in jlo..jhi {
            t1.fill(0.0); // t1 ← 0
            let (klo, khi) = (csf.ptr(1)[j_idx], csf.ptr(1)[j_idx + 1]);
            for k_idx in klo..khi {
                // t2 ← P^(2)[i,j,k];  t1 += t2 ⊙ A2[k,:]
                let t2 = p2.row(k_idx);
                hadamard_row(&mut t1, t2, factors[2].row(csf.fids(2)[k_idx] as usize));
            }
            // Ā1[j,:] += t1 ⊙ k0
            krp_row(&mut upd, &t1, k0);
            let row = out.row_mut(csf.fids(1)[j_idx] as usize);
            for (o, &u) in row.iter_mut().zip(&upd) {
                *o += u;
            }
        }
    }
    out
}

/// **Algorithm 8**: STeF MTTKRP for `A^(1)` of a 4-way tensor with no
/// partials stored — the full CSF traversal.
pub fn alg8_mode1_no_save(csf: &Csf, factors: &[&Mat], rank: usize) -> Mat {
    assert_eq!(csf.ndim(), 4);
    let n1 = csf.level_dims()[1];
    let mut out = Mat::zeros(n1, rank);
    let mut t1 = vec![0.0; rank];
    let mut t2 = vec![0.0; rank];
    let mut upd = vec![0.0; rank];
    for i_idx in 0..csf.nfibers(0) {
        let k0 = factors[0].row(csf.fids(0)[i_idx] as usize);
        let (jlo, jhi) = (csf.ptr(0)[i_idx], csf.ptr(0)[i_idx + 1]);
        for j_idx in jlo..jhi {
            t1.fill(0.0);
            let (klo, khi) = (csf.ptr(1)[j_idx], csf.ptr(1)[j_idx + 1]);
            for k_idx in klo..khi {
                t2.fill(0.0);
                let (llo, lhi) = (csf.ptr(2)[k_idx], csf.ptr(2)[k_idx + 1]);
                for l_idx in llo..lhi {
                    // t2 += T[i,j,k,l] · A3[l,:]
                    axpy_row(
                        &mut t2,
                        csf.vals()[l_idx],
                        factors[3].row(csf.fids(3)[l_idx] as usize),
                    );
                }
                // t1 += t2 ⊙ A2[k,:]
                hadamard_row(&mut t1, &t2, factors[2].row(csf.fids(2)[k_idx] as usize));
            }
            // Ā1[j,:] += t1 ⊙ k0
            krp_row(&mut upd, &t1, k0);
            let row = out.row_mut(csf.fids(1)[j_idx] as usize);
            for (o, &u) in row.iter_mut().zip(&upd) {
                *o += u;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use linalg::assert_mat_approx_eq;
    use sptensor::{build_csf, CooTensor};

    fn tensor_4d(seed: u64) -> CooTensor {
        let dims = [7usize, 9, 6, 8];
        let mut t = CooTensor::new(dims.to_vec());
        let mut x = seed | 1;
        let mut coord = [0u32; 4];
        for _ in 0..500 {
            for (c, &d) in coord.iter_mut().zip(&dims) {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                *c = ((x >> 33) % d as u64) as u32;
            }
            t.push(&coord, ((x >> 40) % 7) as f64 * 0.5 + 0.5);
        }
        t.sort_dedup();
        t
    }

    fn factors_for(dims: &[usize], r: usize, seed: u64) -> Vec<Mat> {
        let mut x = seed | 1;
        dims.iter()
            .map(|&n| {
                Mat::from_fn(n, r, |_, _| {
                    x = x
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    ((x >> 35) % 1000) as f64 / 500.0 - 1.0
                })
            })
            .collect()
    }

    #[test]
    fn all_three_algorithms_agree_with_the_reference() {
        let t = tensor_4d(1);
        let rank = 4;
        let csf = build_csf(&t, &[0, 1, 2, 3]);
        let factors = factors_for(t.dims(), rank, 2);
        let refs: Vec<&Mat> = factors.iter().collect();
        let expect = t.mttkrp_reference(&factors, 1);

        let p1 = dense_partials_4d(&csf, &refs, 1, rank);
        let p2 = dense_partials_4d(&csf, &refs, 2, rank);
        assert_mat_approx_eq(&alg6_mode1_with_p1(&csf, &refs, &p1, rank), &expect, 1e-9);
        assert_mat_approx_eq(&alg7_mode1_with_p2(&csf, &refs, &p2, rank), &expect, 1e-9);
        assert_mat_approx_eq(&alg8_mode1_no_save(&csf, &refs, rank), &expect, 1e-9);
    }

    #[test]
    fn paper_listings_match_the_generic_engine() {
        // The crucial fidelity check: the production kernels (Algorithms
        // 4/5 generic recursion) equal the paper's specialized listings.
        use crate::kernels::{mode0_with, modeu_with, KernelCtx, ResolvedAccum};
        use crate::partials::PartialStore;
        use crate::schedule::Schedule;
        use crate::{LoadBalance, Workspace};

        let t = tensor_4d(3);
        let rank = 3;
        let csf = build_csf(&t, &[0, 1, 2, 3]);
        let factors = factors_for(t.dims(), rank, 4);
        let refs: Vec<&Mat> = factors.iter().collect();
        let sched = Schedule::build(&csf, 4, LoadBalance::NnzBalanced);

        // Generic engine with P^(1) memoized.
        let mut partials = PartialStore::allocate(&csf, &[false, true, false, false], 4, rank);
        let views = partials.shared_views();
        let ctx = KernelCtx::new(&csf, &sched, refs.clone(), rank);
        let rt = crate::runtime::global();
        let mut ws = Workspace::new(4, rank, 4, t.dims()[1]);
        let mut out0 = Mat::zeros(t.dims()[0], rank);
        mode0_with(&ctx, &views, rt, &mut ws, &mut out0);
        let mut generic = Mat::zeros(t.dims()[1], rank);
        let accum = ResolvedAccum::Privatized;
        modeu_with(&ctx, &views, true, 1, accum, rt, &mut ws, &mut generic);
        let p1 = dense_partials_4d(&csf, &refs, 1, rank);
        let paper = alg6_mode1_with_p1(&csf, &refs, &p1, rank);
        assert_mat_approx_eq(&generic, &paper, 1e-9);
    }

    #[test]
    fn dense_partials_match_level_semantics() {
        // P^(2) rows must equal the per-fiber contraction of A3; P^(1)
        // rows the further contraction of A2.
        let t = tensor_4d(5);
        let rank = 2;
        let csf = build_csf(&t, &[0, 1, 2, 3]);
        let factors = factors_for(t.dims(), rank, 6);
        let refs: Vec<&Mat> = factors.iter().collect();
        let p2 = dense_partials_4d(&csf, &refs, 2, rank);
        // Brute force one row: pick the middle level-2 fiber.
        let k_idx = csf.nfibers(2) / 2;
        let (lo, hi) = (csf.ptr(2)[k_idx], csf.ptr(2)[k_idx + 1]);
        let mut expect = vec![0.0; rank];
        for l in lo..hi {
            for (e, &f) in expect
                .iter_mut()
                .zip(factors[3].row(csf.fids(3)[l] as usize))
            {
                *e += csf.vals()[l] * f;
            }
        }
        for (a, b) in p2.row(k_idx).iter().zip(&expect) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "4-way")]
    fn rejects_non_4d() {
        let mut t = CooTensor::new(vec![3, 3, 3]);
        t.push(&[0, 0, 0], 1.0);
        let csf = build_csf(&t, &[0, 1, 2]);
        let f = factors_for(t.dims(), 2, 1);
        let refs: Vec<&Mat> = f.iter().collect();
        let _ = dense_partials_4d(&csf, &refs, 1, 2);
    }
}
