//! The MTTKRP passes must be allocation-free once the engine-owned
//! [`stef::Workspace`] is warm: every byte of scratch, every traversal
//! stack and every privatized output copy lives in buffers sized during
//! warm-up and reused across modes and sweeps.
//!
//! This harness asserts that a steady-state sweep performs **zero**
//! allocator calls. Counting is scoped per thread (`tests/common`): the
//! counting `#[global_allocator]` counts only on threads armed for the
//! measuring test — its own thread and every OS thread of its pool,
//! armed by one fan-out before the window opens — so the set-up of
//! tests running concurrently in this binary never lands in the count.
//! The kernels run on an explicitly-sized persistent
//! [`stef::WorkerPool`], whose dispatch path makes no allocator calls
//! (workers are spawned once, before counting starts; a dispatch is a
//! seqlock publish plus futex wakeups) — so the zero-count assertion,
//! which covers the workers too, holds for *any* worker count, unlike
//! the old `std::thread::scope` fan-out which paid a per-spawn
//! allocation. The workspace's own `alloc_events` counter is asserted
//! as well, guarding kernel scratch independently of the runtime.

mod common;

use common::AllocScope;
use linalg::Mat;
use sptensor::build_csf;
use stef::kernels::{mode0_with, modeu_with, KernelCtx, ResolvedAccum};
use stef::{init_factors, LoadBalance, PartialStore, Schedule, Workspace};
use workloads::power_law_tensor;

/// Runs `rounds` full sweeps (mode 0 plus every mode-u × both accum
/// strategies) against pre-built state, repeated until every pool
/// worker has run in the window, and returns the number of allocator
/// calls they triggered on the threads `scope` armed.
fn count_sweep_allocs(
    scope: &AllocScope,
    ctx: &KernelCtx<'_>,
    partials: &mut PartialStore,
    rt: &stef::Executor,
    ws: &mut Workspace,
    outs: &mut [Mat],
    rounds: usize,
) -> u64 {
    let views = partials.shared_views();
    let mut sweep = |ws: &mut Workspace| {
        mode0_with(ctx, &views, rt, ws, &mut outs[0]);
        for (u, out) in outs.iter_mut().enumerate().skip(1) {
            for accum in [ResolvedAccum::Privatized, ResolvedAccum::Atomic] {
                modeu_with(ctx, &views, true, u, accum, rt, ws, out);
            }
        }
    };
    // Warm-up: sizes the workspace for every (mode, accum) combination.
    sweep(ws);
    let before_events = ws.alloc_events();
    let delta = common::count_sweeps(scope, rt, || {
        for _ in 0..rounds {
            sweep(ws);
        }
    });
    assert_eq!(
        ws.alloc_events(),
        before_events,
        "workspace grew during steady-state sweeps"
    );
    delta
}

fn run_case(dims: &[usize], nnz: usize, rank: usize, nthreads: usize, save: &[bool]) {
    let t = power_law_tensor(dims, nnz, &vec![0.5; dims.len()], 11);
    let order: Vec<usize> = (0..dims.len()).collect();
    let csf = build_csf(&t, &order);
    let d = csf.ndim();
    let sched = Schedule::build(&csf, nthreads, LoadBalance::NnzBalanced);
    let factors = init_factors(dims, rank, 3);
    let refs: Vec<&Mat> = factors.iter().collect();
    let ctx = KernelCtx::new(&csf, &sched, refs, rank);
    let mut partials = PartialStore::allocate(&csf, save, nthreads, rank);
    let max_dim = *csf.level_dims().iter().max().unwrap();
    let mut ws = Workspace::new(d, rank, nthreads, max_dim);
    let mut outs: Vec<Mat> = (0..d)
        .map(|l| Mat::zeros(csf.level_dims()[l], rank))
        .collect();

    // A genuinely multi-worker pool (not the hardware probe): the
    // zero-alloc claim must hold when dispatches actually cross OS
    // threads, not just on the single-worker inline path.
    let rt = stef::Executor::new(nthreads.clamp(1, 4));
    let scope = common::arm(&rt);
    let delta = count_sweep_allocs(&scope, &ctx, &mut partials, &rt, &mut ws, &mut outs, 3);
    assert_eq!(
        delta, 0,
        "steady-state sweeps allocated {delta} times (dims {dims:?}, \
         {nthreads} logical threads, {} pool workers)",
        rt.workers()
    );
}

#[test]
fn warm_sweeps_are_allocation_free_single_thread() {
    run_case(&[40, 30, 50], 2_000, 8, 1, &[false, true, false]);
}

#[test]
fn warm_sweeps_are_allocation_free_eight_logical_threads() {
    run_case(&[40, 30, 50], 2_000, 8, 8, &[false, true, false]);
}

#[test]
fn warm_sweeps_are_allocation_free_4way_with_memo() {
    run_case(&[20, 25, 15, 30], 2_500, 5, 4, &[false, true, true, false]);
}

#[test]
fn engine_reports_zero_workspace_growth_after_prepare() {
    use stef::{MttkrpEngine, Stef, StefOptions};
    let t = power_law_tensor(&[30, 40, 20], 1_500, &[0.5, 0.5, 0.5], 7);
    let mut opts = StefOptions::new(6);
    opts.num_threads = 4;
    let mut engine = Stef::prepare(&t, opts);
    let factors = init_factors(t.dims(), 6, 5);
    for _ in 0..3 {
        for mode in engine.sweep_order() {
            std::hint::black_box(engine.mttkrp(&factors, mode));
        }
    }
    assert_eq!(
        engine.workspace_alloc_events(),
        0,
        "engine workspace must be fully sized at prepare time"
    );
}

