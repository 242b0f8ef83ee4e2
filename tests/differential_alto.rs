//! Differential suite for the linearized (ALTO-style) MTTKRP engine:
//! on random 3–5-way tensors, [`stef::AltoEngine`] must agree with the
//! CSF engine ([`stef::Stef`]) and with the serial `baselines::Alto`
//! oracle to 1e-12 — across every mode, both accumulation strategies,
//! and ragged (non-power-of-two) ranks. Two deterministic tests follow:
//! a bitwise-determinism sweep across worker counts, and an alloc-free
//! assertion on the linearized kernels via the thread-scoped counting
//! allocator of `tests/common`, which counts only on the measuring
//! test's own thread and its pool's workers.

mod common;

use baselines::Alto as AltoOracle;
use linalg::{assert_mat_approx_eq, Mat};
use proptest::collection::vec as pvec;
use proptest::prelude::*;
use sptensor::{CooTensor, Linearized};
use stef::kernels::ResolvedAccum;
use stef::kernels_alto::alto_mode_with;
use stef::{AccumStrategy, AltoEngine, Executor, MttkrpEngine, Stef, StefOptions, Workspace};

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
            let mut coord = vec![0u32; dims.len()];
            let n = coords.len().min(vals.len());
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

fn factors_for(dims: &[usize], rank: usize, seed: u64) -> Vec<Mat> {
    let mut x = seed | 1;
    dims.iter()
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
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Three-way agreement: linearized engine vs CSF engine vs the
    /// serial baseline oracle, every mode, both forced accumulation
    /// strategies, ragged ranks.
    #[test]
    fn alto_engine_matches_csf_and_oracle(
        t in arb_tensor(),
        rank in 1usize..=9,
        threads in 1usize..=4,
    ) {
        let factors = factors_for(t.dims(), rank, 77);
        let mut stef_engine = Stef::prepare(&t, StefOptions::new(rank));
        let mut oracle = AltoOracle::prepare(&t, rank, 1, &stef::Executor::new(1));
        for accum in [AccumStrategy::Auto, AccumStrategy::Privatized, AccumStrategy::Atomic] {
            let mut opts = StefOptions::new(rank);
            opts.accum = accum;
            opts.num_threads = threads;
            let mut alto = AltoEngine::prepare(&t, opts);
            for mode in 0..t.dims().len() {
                let got = alto.mttkrp(&factors, mode);
                let csf = stef_engine.mttkrp(&factors, mode);
                let oracled = oracle.mttkrp(&factors, mode);
                assert_mat_approx_eq(&got, &csf, 1e-12);
                assert_mat_approx_eq(&got, &oracled, 1e-12);
            }
        }
    }
}

/// The linearized kernels partition work by *logical* thread and reduce
/// privatized copies in logical-thread order regardless of how physical
/// pool workers claim chunks — the same contract the CSF kernels make
/// (see `tests/determinism.rs`). So at a fixed logical thread count the
/// bits must match a one-worker pool (fully serial, logical-thread
/// order) at every pool-worker count, including counts that do not
/// divide the nonzero count.
#[test]
fn results_are_bitwise_identical_across_worker_counts() {
    let t = {
        let mut t = CooTensor::new(vec![40, 30, 50, 9]);
        let mut x = 91u64;
        let mut coord = [0u32; 4];
        for _ in 0..3000 {
            for (c, &dim) in coord.iter_mut().zip(&[40u64, 30, 50, 9]) {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                *c = ((x >> 33) % dim) as u32;
            }
            t.push(&coord, ((x >> 40) % 9) as f64 * 0.3 + 0.4);
        }
        t.sort_dedup();
        t
    };
    let (rank, nthreads) = (7, 6);
    let lin = Linearized::build(&t).expect("fits in 128 bits");
    let factors = factors_for(t.dims(), rank, 5);
    let refs: Vec<&Mat> = factors.iter().collect();
    let max_priv = *t.dims().iter().max().unwrap();

    let run = |rt: &Executor, accum: ResolvedAccum| -> Vec<Vec<u64>> {
        let mut ws = Workspace::new(t.dims().len(), rank, nthreads, max_priv);
        (0..t.dims().len())
            .map(|mode| {
                let mut out = Mat::zeros(t.dims()[mode], rank);
                alto_mode_with(&lin, &refs, mode, nthreads, accum, rt, &mut ws, &mut out);
                (0..out.rows())
                    .flat_map(|i| out.row(i).iter().map(|v| v.to_bits()).collect::<Vec<_>>())
                    .collect()
            })
            .collect()
    };

    // Atomic emission is order-dependent, so only the privatized path
    // carries the bitwise guarantee (matching the CSF engine).
    let reference = run(&Executor::new(1), ResolvedAccum::Privatized);
    for workers in [2usize, 3, 8] {
        let pool = Executor::new(workers);
        assert_eq!(
            run(&pool, ResolvedAccum::Privatized),
            reference,
            "pool({workers} workers) diverged from the serial pool"
        );
    }
}

/// Steady-state linearized sweeps make zero allocator calls: the
/// workspace arenas are warm, the output matrix is caller-owned, and a
/// pool dispatch is a seqlock publish plus futex wakeups. Only this
/// test's thread and its pool's workers are armed for counting, so the
/// concurrently running tests of this binary stay out of the count,
/// while allocations on the workers are still counted; the window stays
/// open until every worker has claimed a chunk in it.
#[test]
fn warm_linearized_sweeps_are_alloc_free() {
    let t = {
        let mut t = CooTensor::new(vec![60, 40, 80]);
        let mut x = 17u64;
        let mut coord = [0u32; 3];
        for _ in 0..4000 {
            for (c, &dim) in coord.iter_mut().zip(&[60u64, 40, 80]) {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                *c = ((x >> 33) % dim) as u32;
            }
            t.push(&coord, ((x >> 40) % 9) as f64 * 0.3 + 0.4);
        }
        t.sort_dedup();
        t
    };
    let (rank, nthreads) = (6, 4);
    let lin = Linearized::build(&t).expect("fits in 128 bits");
    let factors = factors_for(t.dims(), rank, 3);
    let refs: Vec<&Mat> = factors.iter().collect();
    let rt = Executor::new(nthreads);
    let scope = common::arm(&rt);
    let max_priv = *t.dims().iter().max().unwrap();
    let mut ws = Workspace::new(t.dims().len(), rank, nthreads, max_priv);
    let mut outs: Vec<Mat> = t.dims().iter().map(|&n| Mat::zeros(n, rank)).collect();
    for accum in [ResolvedAccum::Privatized, ResolvedAccum::Atomic] {
        let mut sweep = |ws: &mut Workspace| {
            for (mode, out) in outs.iter_mut().enumerate() {
                alto_mode_with(&lin, &refs, mode, nthreads, accum, &rt, ws, out);
            }
        };
        // Warm-up sweep: faults pages, sizes arenas.
        sweep(&mut ws);
        let ws_before = ws.alloc_events();
        let delta = common::count_sweeps(&scope, &rt, || {
            for _ in 0..3 {
                sweep(&mut ws);
            }
        });
        assert_eq!(
            delta, 0,
            "{accum:?}: steady-state linearized sweeps must not allocate"
        );
        assert_eq!(ws.alloc_events(), ws_before, "workspace arenas regrew");
    }
}
