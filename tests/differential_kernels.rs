//! Exact-oracle tests for the MTTKRP kernels. Factors are dyadic
//! (`k/128 − 1`, `k < 256`) and tensor values are half-integers (or
//! quarter-integers), so for these sizes (d ≤ 5, ≤ 600 nnz) every
//! product and partial sum is a multiple of 2⁻³⁰ below 2¹¹ and `f64`
//! arithmetic is exact. Any correct summation order — fused or not,
//! on any SIMD path — therefore gives the same bits as the naive COO
//! reference, and the kernels are asserted against it at tolerance
//! `0.0`: every (mode × accumulation × memo-set × memo-use ×
//! load-balance) combination on random 3-, 4- and 5-way tensors, and
//! the paper's literal Algorithm 6/7/8 listings.

use linalg::{assert_mat_approx_eq, Mat};
use proptest::collection::vec as pvec;
use proptest::prelude::*;
use sptensor::{build_csf, CooTensor};
use stef::kernels::{mode0_with, modeu_with, KernelCtx, ResolvedAccum};
use stef::{LoadBalance, PartialStore, Schedule, Workspace};

/// Strategy: a random small tensor with 3–5 modes.
fn arb_tensor() -> impl Strategy<Value = CooTensor> {
    (3usize..=5)
        .prop_flat_map(|d| {
            (
                pvec(2usize..=8, d..=d),
                pvec(any::<u32>(), 1..=100),
                pvec(-4i32..=4, 1..=100),
            )
        })
        .prop_map(|(dims, coords, vals)| {
            let mut t = CooTensor::new(dims.clone());
            let n = coords.len().min(vals.len());
            let mut coord = vec![0u32; dims.len()];
            for e in 0..n {
                let mut x = coords[e] as u64 | 1;
                for (c, &dim) in coord.iter_mut().zip(&dims) {
                    x = x
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    *c = ((x >> 33) % dim as u64) as u32;
                }
                t.push(&coord, vals[e] as f64 + 0.5);
            }
            t.sort_dedup();
            t
        })
        .prop_filter("need at least one nnz", |t| t.nnz() > 0)
}

/// Dyadic factors: every entry is `k/128 − 1` for some `k < 256`.
fn factors_for(dims: &[usize], rank: usize, seed: u64) -> Vec<Mat> {
    let mut x = seed | 1;
    dims.iter()
        .map(|&n| {
            Mat::from_fn(n, rank, |_, _| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((x >> 35) % 256) as f64 / 128.0 - 1.0
            })
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn kernels_match_exact_reference(
        t in arb_tensor(),
        rank in 1usize..=4,
        nthreads in 1usize..=7,
        slice_based in any::<bool>(),
        memo_mask in any::<u8>(),
        seed in any::<u64>(),
    ) {
        let d = t.ndim();
        let order: Vec<usize> = (0..d).collect();
        let csf = build_csf(&t, &order);
        let lb = if slice_based {
            LoadBalance::SliceBased
        } else {
            LoadBalance::NnzBalanced
        };
        let sched = Schedule::build(&csf, nthreads, lb);
        let factors = factors_for(t.dims(), rank, seed);
        let refs: Vec<&Mat> = factors.iter().collect();
        let ctx = KernelCtx::new(&csf, &sched, refs, rank);

        // Random memo set over the saveable levels 1..d-1.
        let mut save = vec![false; d];
        for (l, s) in save.iter_mut().enumerate().take(d - 1).skip(1) {
            *s = (memo_mask >> l) & 1 == 1;
        }
        let mut partials = PartialStore::allocate(&csf, &save, nthreads, rank);
        let max_dim = *csf.level_dims().iter().max().unwrap();
        let mut ws = Workspace::new(d, rank, nthreads, max_dim);
        let rt = stef::runtime::global();
        let views = partials.shared_views();

        // Mode 0 first: it fills the memoized partials.
        let mut out0 = Mat::zeros(csf.level_dims()[0], rank);
        mode0_with(&ctx, &views, rt, &mut ws, &mut out0);
        assert_mat_approx_eq(&out0, &t.mttkrp_reference(&factors, 0), 0.0);

        // Every non-root mode × accumulation strategy × memo usage.
        for u in 1..d {
            let expect = t.mttkrp_reference(&factors, u);
            for accum in [ResolvedAccum::Privatized, ResolvedAccum::Atomic] {
                for use_saved in [true, false] {
                    let mut out = Mat::zeros(csf.level_dims()[u], rank);
                    modeu_with(&ctx, &views, use_saved, u, accum, rt, &mut ws, &mut out);
                    assert_mat_approx_eq(&out, &expect, 0.0);
                }
            }
        }
    }
}

/// Runs the vectorized mode-1 kernel of a 4-way tensor under one memo
/// configuration and returns the result.
fn mode1_vectorized(
    csf: &sptensor::Csf,
    refs: &[&Mat],
    rank: usize,
    nthreads: usize,
    save: &[bool],
    use_saved: bool,
) -> Mat {
    let sched = Schedule::build(csf, nthreads, LoadBalance::NnzBalanced);
    let ctx = KernelCtx::new(csf, &sched, refs.to_vec(), rank);
    let mut partials = PartialStore::allocate(csf, save, nthreads, rank);
    let max_dim = *csf.level_dims().iter().max().unwrap();
    let mut ws = Workspace::new(csf.ndim(), rank, nthreads, max_dim);
    let views = partials.shared_views();
    let mut out0 = Mat::zeros(csf.level_dims()[0], rank);
    mode0_with(&ctx, &views, stef::runtime::global(), &mut ws, &mut out0);
    let mut out = Mat::zeros(csf.level_dims()[1], rank);
    modeu_with(
        &ctx,
        &views,
        use_saved,
        1,
        ResolvedAccum::Privatized,
        stef::runtime::global(),
        &mut ws,
        &mut out,
    );
    out
}

#[test]
fn vectorized_kernels_match_paper_listings() {
    use stef::paper_kernels::{
        alg6_mode1_with_p1, alg7_mode1_with_p2, alg8_mode1_no_save, dense_partials_4d,
    };

    let dims = [9usize, 7, 8, 6];
    let mut t = CooTensor::new(dims.to_vec());
    let mut x = 17u64;
    let mut coord = [0u32; 4];
    for _ in 0..600 {
        for (c, &dim) in coord.iter_mut().zip(&dims) {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            *c = ((x >> 33) % dim as u64) as u32;
        }
        t.push(&coord, ((x >> 40) % 9) as f64 * 0.25 + 0.25);
    }
    t.sort_dedup();
    let csf = build_csf(&t, &[0, 1, 2, 3]);
    let rank = 3;
    let factors = factors_for(t.dims(), rank, 23);
    let refs: Vec<&Mat> = factors.iter().collect();

    let p1 = dense_partials_4d(&csf, &refs, 1, rank);
    let p2 = dense_partials_4d(&csf, &refs, 2, rank);

    for nthreads in [1usize, 4] {
        // Algorithm 6: P^(1) stored.
        let got = mode1_vectorized(
            &csf,
            &refs,
            rank,
            nthreads,
            &[false, true, false, false],
            true,
        );
        assert_mat_approx_eq(&got, &alg6_mode1_with_p1(&csf, &refs, &p1, rank), 0.0);

        // Algorithm 7: P^(2) stored.
        let got = mode1_vectorized(
            &csf,
            &refs,
            rank,
            nthreads,
            &[false, false, true, false],
            true,
        );
        assert_mat_approx_eq(&got, &alg7_mode1_with_p2(&csf, &refs, &p2, rank), 0.0);

        // Algorithm 8: nothing stored.
        let got = mode1_vectorized(
            &csf,
            &refs,
            rank,
            nthreads,
            &[false, false, false, false],
            false,
        );
        assert_mat_approx_eq(&got, &alg8_mode1_no_save(&csf, &refs, rank), 0.0);
    }
}
