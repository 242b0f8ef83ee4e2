//! Design-choice ablations at the kernel level (DESIGN.md §4):
//!
//! * **memoize vs recompute across fanout** — sweeping the leaf-fiber
//!   fanout moves the workload across the crossover the data-movement
//!   model exists to find: at fanout ≈ 1 (freebase-like) memoization
//!   reads as much as it saves; at high fanout (nell-2-like) recompute
//!   re-traverses many leaves per fiber;
//! * **boundary replication vs atomics** for the mode-0 output;
//! * **nnz-balanced vs slice scheduling** under a starved root.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use linalg::Mat;
use sptensor::build_csf;
use stef::kernels::{mode0_with, modeu_with, KernelCtx, ResolvedAccum};
use stef::{init_factors, LoadBalance, PartialStore, Schedule, Workspace};
use workloads::{power_law_tensor, split_root_tensor};

fn bench_memo_crossover(c: &mut Criterion) {
    let mut group = c.benchmark_group("memo_crossover");
    group.sample_size(10);
    let rank = 32;
    let nnz = 120_000;
    let rt = stef::runtime::global();
    // Shrinking the middle dimension shrinks the number of distinct
    // (i, j) fibers, raising the average leaf fanout: the memoized
    // P^(1) gets smaller while recompute still walks all the leaves.
    for mid_dim in [2_000usize, 200, 20, 4] {
        let t = power_law_tensor(&[500, mid_dim, 100_000], nnz, &[0.4, 0.3, 0.0], 5);
        let csf = build_csf(&t, &[0, 1, 2]);
        let fanout = csf.nnz() as f64 / csf.nfibers(1) as f64;
        let nthreads = stef::runtime::default_threads();
        let sched = Schedule::build(&csf, nthreads, LoadBalance::NnzBalanced);
        let factors = init_factors(t.dims(), rank, 7);
        let refs: Vec<&Mat> = factors.iter().collect();

        // Memoized path: mode-0 storing P^(1), then mode-1 from memo.
        let mut saved = PartialStore::allocate(&csf, &[false, true, false], nthreads, rank);
        let views = saved.shared_views();
        let ctx = KernelCtx::new(&csf, &sched, refs.clone(), rank);
        let mut ws = Workspace::new(3, rank, nthreads, mid_dim);
        let mut out0 = Mat::zeros(t.dims()[0], rank);
        mode0_with(&ctx, &views, rt, &mut ws, &mut out0);
        let mut out1 = Mat::zeros(mid_dim, rank);
        let accum = ResolvedAccum::Privatized;
        for (label, use_saved) in [("memoized", true), ("recompute", false)] {
            group.bench_with_input(
                BenchmarkId::new(format!("{label}_fanout_{fanout:.1}"), mid_dim),
                &mid_dim,
                |b, _| {
                    b.iter(|| {
                        modeu_with(&ctx, &views, use_saved, 1, accum, rt, &mut ws, &mut out1)
                    });
                },
            );
        }
    }
    group.finish();
}

fn bench_scheduling_under_starved_root(c: &mut Criterion) {
    let mut group = c.benchmark_group("starved_root_scheduling");
    group.sample_size(10);
    let rank = 32;
    let t = split_root_tensor(&[2, 4_000, 4_000], 150_000, 0.85, &[0.0, 0.3, 0.3], 9);
    let csf = build_csf(&t, &[0, 1, 2]);
    let factors = init_factors(t.dims(), rank, 7);
    let refs: Vec<&Mat> = factors.iter().collect();
    let nthreads = stef::runtime::default_threads().max(2);
    let rt = stef::runtime::global();
    let mut ws = Workspace::new(3, rank, nthreads, 0);
    for (label, kind) in [
        ("nnz_balanced", LoadBalance::NnzBalanced),
        ("slice_based", LoadBalance::SliceBased),
    ] {
        let sched = Schedule::build(&csf, nthreads, kind);
        let mut partials = PartialStore::empty(3, nthreads, rank);
        let views = partials.shared_views();
        group.bench_function(label, |b| {
            let ctx = KernelCtx::new(&csf, &sched, refs.clone(), rank);
            let mut out0 = Mat::zeros(2, rank);
            b.iter(|| mode0_with(&ctx, &views, rt, &mut ws, &mut out0));
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_memo_crossover,
    bench_scheduling_under_starved_root
);
criterion_main!(benches);
