//! Property-based tests: random sparse tensors, random configurations,
//! random factors — STeF's kernels must always agree with the COO
//! reference, CSF round trips must be lossless, the scheduler must cover
//! every leaf exactly once, and Algorithm 9 must match brute force.

use linalg::{assert_mat_approx_eq, Mat};
use proptest::collection::vec as pvec;
use proptest::prelude::*;
use sptensor::{build_csf, count_fibers_if_last_two_swapped, CooTensor};
use stef::{MemoPolicy, MttkrpEngine, Stef, StefOptions};

/// Strategy: a random small tensor with 2–4 modes.
fn arb_tensor() -> impl Strategy<Value = CooTensor> {
    (2usize..=4)
        .prop_flat_map(|d| {
            (
                pvec(2usize..=9, d..=d),
                pvec(any::<u32>(), 1..=120),
                pvec(-4i32..=4, 1..=120),
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
                // Avoid exact zeros so dedup keeps entries meaningful.
                t.push(&coord, vals[e] as f64 + 0.5);
            }
            t.sort_dedup();
            t
        })
        .prop_filter("need at least one nnz", |t| t.nnz() > 0)
}

fn factors_for(t: &CooTensor, rank: usize, seed: u64) -> Vec<Mat> {
    let mut x = seed | 1;
    t.dims()
        .iter()
        .map(|&n| {
            Mat::from_fn(n, rank, |_, _| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((x >> 35) % 1000) as f64 / 500.0 - 1.0
            })
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn stef_matches_reference_on_random_tensors(
        t in arb_tensor(),
        rank in 1usize..=5,
        nthreads in 1usize..=7,
        seed in any::<u64>(),
    ) {
        let mut opts = StefOptions::new(rank);
        opts.num_threads = nthreads;
        let mut engine = Stef::prepare(&t, opts);
        let factors = factors_for(&t, rank, seed);
        for mode in engine.sweep_order() {
            let got = engine.mttkrp(&factors, mode);
            let expect = t.mttkrp_reference(&factors, mode);
            assert_mat_approx_eq(&got, &expect, 1e-9);
        }
    }

    #[test]
    fn save_all_and_save_none_agree(
        t in arb_tensor(),
        nthreads in 1usize..=5,
        seed in any::<u64>(),
    ) {
        let rank = 3;
        let factors = factors_for(&t, rank, seed);
        let mut results: Vec<Vec<Mat>> = Vec::new();
        for memo in [MemoPolicy::SaveAll, MemoPolicy::SaveNone] {
            let mut opts = StefOptions::new(rank);
            opts.num_threads = nthreads;
            opts.memo = memo;
            let mut engine = Stef::prepare(&t, opts);
            let sweep = engine.sweep_order();
            results.push(sweep.into_iter().map(|m| engine.mttkrp(&factors, m)).collect());
        }
        for (a, b) in results[0].iter().zip(&results[1]) {
            assert_mat_approx_eq(a, b, 1e-9);
        }
    }

    #[test]
    fn csf_round_trips_on_random_orders(t in arb_tensor(), perm_seed in any::<u64>()) {
        let d = t.ndim();
        // Derive a permutation from the seed.
        let mut order: Vec<usize> = (0..d).collect();
        let mut x = perm_seed | 1;
        for i in (1..d).rev() {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            order.swap(i, ((x >> 33) % (i as u64 + 1)) as usize);
        }
        let csf = build_csf(&t, &order);
        csf.validate();
        prop_assert_eq!(csf.nnz(), t.nnz());
        let mut back = csf.to_coo(t.dims());
        back.sort_dedup();
        prop_assert_eq!(back.nnz(), t.nnz());
        for e in 0..t.nnz() {
            prop_assert_eq!(back.coord(e), t.coord(e));
            prop_assert!((back.values()[e] - t.values()[e]).abs() < 1e-12);
        }
    }

    #[test]
    fn algorithm9_matches_brute_force(t in arb_tensor()) {
        let d = t.ndim();
        let order: Vec<usize> = (0..d).collect();
        let csf = build_csf(&t, &order);
        let fast = count_fibers_if_last_two_swapped(&csf);
        let brute = sptensor::swapcount::count_fibers_swapped_reference(&t, &order);
        prop_assert_eq!(fast, brute);
        // Engines plan (accumulation, budget) on this profile before the
        // swapped CSF exists, so it must be that CSF's profile exactly.
        let mut swapped_order = order.clone();
        swapped_order.swap(d - 1, d - 2);
        let built = build_csf(&t, &swapped_order);
        prop_assert_eq!(
            stef::LevelProfile::swapped_from_csf(&csf, 4, 1 << 16),
            stef::LevelProfile::from_csf(&built, 4, 1 << 16)
        );
    }

    #[test]
    fn schedule_leaf_counts_are_balanced(t in arb_tensor(), nthreads in 1usize..=9) {
        let order: Vec<usize> = (0..t.ndim()).collect();
        let csf = build_csf(&t, &order);
        let sched = stef::Schedule::nnz_balanced(&csf, nthreads);
        // Leaf totals must partition nnz with ±1 balance.
        let mut total = 0usize;
        let mut max = 0usize;
        let mut min = usize::MAX;
        for th in 0..nthreads {
            let n = sched.nodes_at(th, csf.ndim() - 1);
            total += n;
            max = max.max(n);
            min = min.min(n);
        }
        prop_assert_eq!(total, csf.nnz());
        prop_assert!(max - min <= 1, "leaf counts range {min}..{max}");
    }

    #[test]
    fn mttkrp_is_linear_in_the_tensor(t in arb_tensor(), seed in any::<u64>()) {
        // MTTKRP(2T) == 2 · MTTKRP(T): catches any accidental value
        // mangling in format construction.
        let rank = 2;
        let factors = factors_for(&t, rank, seed);
        let mut doubled = CooTensor::new(t.dims().to_vec());
        for e in 0..t.nnz() {
            doubled.push(&t.coord(e), 2.0 * t.values()[e]);
        }
        let mut e1 = Stef::prepare(&t, StefOptions::new(rank));
        let mut e2 = Stef::prepare(&doubled, StefOptions::new(rank));
        for mode in e1.sweep_order() {
            let a = e1.mttkrp(&factors, mode);
            let mut b = e2.mttkrp(&factors, mode);
            b.scale(0.5);
            assert_mat_approx_eq(&a, &b, 1e-9);
        }
    }
}
