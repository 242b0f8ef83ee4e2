//! The original (pre-vectorization) MTTKRP kernels, kept verbatim.
//!
//! This is the recursive, closure-based implementation the rewritten
//! [`crate::kernels`] replaced: per-call `Vec<Vec<f64>>` scratch, a
//! per-thread `n_u × R` privatized output allocated on every invocation,
//! a serial thread-order reduction, and a `&mut dyn FnMut` emit path.
//! It exists for two reasons:
//!
//! 1. **A/B benchmarking** — `BENCH_mttkrp.json` records this path next
//!    to the vectorized one so the perf trajectory has an honest
//!    baseline (the mttkrp bench calls it directly; no engine runs it);
//! 2. **differential testing** — the rewritten kernels are property-
//!    tested against this implementation bit-for-bit (without FMA) and
//!    to 1e-12 against the paper transcriptions.
//!
//! Do not optimize this file; its value is being exactly what shipped
//! before the kernel rewrite. Its fan-outs run on the caller's
//! [`Executor`], one task per logical thread.

use crate::kernels::{KernelCtx, ResolvedAccum};
use crate::partials::PartialStore;
use crate::runtime::Executor;
use crate::sync::{SharedRows, SharedSlice};
use linalg::krp::{axpy_row, hadamard_row, krp_row};
use linalg::Mat;
use sptensor::Csf;

/// Computes `Ā⁽⁰⁾` and stores all partials flagged in `partials`
/// (original implementation).
pub fn mode0_pass(
    ctx: &KernelCtx<'_>,
    partials: &mut PartialStore,
    exec: &Executor,
    out: &mut Mat,
) {
    let d = ctx.csf.ndim();
    let r = ctx.rank;
    assert_eq!(out.rows(), ctx.csf.level_dims()[0]);
    assert_eq!(out.cols(), r);
    assert_eq!(partials.nthreads(), ctx.sched.nthreads());
    out.fill_zero();

    let views = partials.shared_views();
    let out_shared = SharedRows::new(out.as_mut_slice(), r);
    let nthreads = ctx.sched.nthreads();

    exec.fanout(nthreads, |th| {
        let mut scratch: Vec<Vec<f64>> = (0..d).map(|_| vec![0.0; r]).collect();
        let (rlo, rhi) = ctx.sched.root_range(th);
        for idx0 in rlo..rhi {
            scratch[0].fill(0.0);
            if d == 1 {
                unreachable!("tensors have at least 2 modes");
            }
            walk_down(ctx, th, 1, idx0, &mut scratch, &views);
            let fid = ctx.csf.fids(0)[idx0] as usize;
            if ctx.sched.is_boundary(th, 0, idx0) {
                // Possibly shared with a neighbour: atomic accumulate.
                out_shared.atomic_add_row(fid, &scratch[0]);
            } else {
                // SAFETY: a non-boundary root node — and hence its output
                // row, since root fids are unique — is owned by exactly
                // this thread.
                let row = unsafe { out_shared.row_mut(fid) };
                row.copy_from_slice(&scratch[0]);
            }
        }
    });
}

/// Recursive worker of the mode-0 pass: accumulates the subtree
/// contribution of node `pindex`'s children into `scratch[level-1]`,
/// storing `t_level` rows into memoized buffers on the way up.
fn walk_down(
    ctx: &KernelCtx<'_>,
    th: usize,
    level: usize,
    pindex: usize,
    scratch: &mut [Vec<f64>],
    views: &[Option<SharedRows<'_>>],
) {
    let d = ctx.csf.ndim();
    let (lo, hi) = child_range(ctx.csf, level, pindex);
    let (clo, chi) = ctx.sched.clamp(th, level, lo, hi);
    if level == d - 1 {
        let fids = ctx.csf.fids(level);
        let vals = ctx.csf.vals();
        let t_prev = &mut scratch[level - 1];
        let leaf_factor = ctx.factors[level];
        for idx in clo..chi {
            axpy_row(t_prev, vals[idx], leaf_factor.row(fids[idx] as usize));
        }
        return;
    }
    let fids = ctx.csf.fids(level);
    for idx in clo..chi {
        scratch[level].fill(0.0);
        walk_down(ctx, th, level + 1, idx, scratch, views);
        if let Some(view) = &views[level] {
            // SAFETY: the shift-by-thread-id rule makes row `idx + th`
            // exclusively this thread's (see partials.rs).
            let dst = unsafe { view.row_mut(idx + th) };
            dst.copy_from_slice(&scratch[level]);
        }
        let (head, tail) = scratch.split_at_mut(level);
        hadamard_row(
            &mut head[level - 1],
            &tail[0],
            ctx.factors[level].row(fids[idx] as usize),
        );
    }
}

/// Computes `Ā⁽ᵘ⁾` for a non-root level `u` (original implementation).
pub fn modeu_pass(
    ctx: &KernelCtx<'_>,
    partials: &mut PartialStore,
    u: usize,
    accum: ResolvedAccum,
    use_saved: bool,
    exec: &Executor,
) -> Mat {
    let d = ctx.csf.ndim();
    assert!(u >= 1 && u < d, "mode0_pass handles the root level");
    assert_eq!(partials.nthreads(), ctx.sched.nthreads());
    let r = ctx.rank;
    let n_u = ctx.csf.level_dims()[u];
    let nthreads = ctx.sched.nthreads();
    let saved: Vec<bool> = if use_saved {
        partials.save_flags().to_vec()
    } else {
        vec![false; d]
    };
    let views = partials.shared_views();

    match accum {
        ResolvedAccum::Privatized => {
            let mut locals: Vec<Mat> = (0..nthreads).map(|_| Mat::zeros(n_u, r)).collect();
            {
                let slots = SharedSlice::new(&mut locals);
                exec.fanout(nthreads, |th| {
                    // SAFETY: each logical thread owns exactly its own slot.
                    let local = &mut unsafe { slots.range_mut(th, th + 1) }[0];
                    run_thread(ctx, th, u, &saved, &views, &mut |fid, row| {
                        hadd(local.row_mut(fid), row);
                    });
                });
            }
            // Reduce in thread order for determinism.
            let mut out = locals.remove(0);
            for l in locals {
                out.add_assign(&l);
            }
            out
        }
        ResolvedAccum::Atomic => {
            let mut out = Mat::zeros(n_u, r);
            {
                let shared = SharedRows::new(out.as_mut_slice(), r);
                exec.fanout(nthreads, |th| {
                    run_thread(ctx, th, u, &saved, &views, &mut |fid, row| {
                        shared.atomic_add_row(fid, row);
                    });
                });
            }
            out
        }
    }
}

/// One logical thread's traversal for mode `u`; `emit(fid, row)` receives
/// each `Ā⁽ᵘ⁾` contribution.
fn run_thread(
    ctx: &KernelCtx<'_>,
    th: usize,
    u: usize,
    saved: &[bool],
    views: &[Option<SharedRows<'_>>],
    emit: &mut dyn FnMut(usize, &[f64]),
) {
    let d = ctx.csf.ndim();
    let r = ctx.rank;
    let mut k_scratch: Vec<Vec<f64>> = (0..u.max(1)).map(|_| vec![0.0; r]).collect();
    let mut t_scratch: Vec<Vec<f64>> = (0..d).map(|_| vec![0.0; r]).collect();
    let mut upd = vec![0.0; r];
    let (rlo, rhi) = ctx.sched.root_range(th);
    for idx0 in rlo..rhi {
        let fid0 = ctx.csf.fids(0)[idx0] as usize;
        k_scratch[0].copy_from_slice(ctx.factors[0].row(fid0));
        walk_u(
            ctx,
            th,
            1,
            idx0,
            u,
            saved,
            views,
            &mut k_scratch,
            &mut t_scratch,
            &mut upd,
            emit,
        );
    }
}

/// Recursive descent for mode `u`: precondition — `k_scratch[level-1]`
/// holds the KRP row of levels `0..level-1` on the current path.
#[allow(clippy::too_many_arguments)]
fn walk_u(
    ctx: &KernelCtx<'_>,
    th: usize,
    level: usize,
    pindex: usize,
    u: usize,
    saved: &[bool],
    views: &[Option<SharedRows<'_>>],
    k_scratch: &mut [Vec<f64>],
    t_scratch: &mut [Vec<f64>],
    upd: &mut [f64],
    emit: &mut dyn FnMut(usize, &[f64]),
) {
    let d = ctx.csf.ndim();
    let (lo, hi) = child_range(ctx.csf, level, pindex);
    let (clo, chi) = ctx.sched.clamp(th, level, lo, hi);
    let fids = ctx.csf.fids(level);
    if level == u {
        if u == d - 1 {
            // Leaf mode: Ā⁽ᵈ⁻¹⁾[fid] += val · k_{d-2}  (KRP scatter).
            let vals = ctx.csf.vals();
            let k_prev = &k_scratch[u - 1];
            for idx in clo..chi {
                for (o, &kv) in upd.iter_mut().zip(k_prev.iter()) {
                    *o = vals[idx] * kv;
                }
                emit(fids[idx] as usize, upd);
            }
        } else {
            for idx in clo..chi {
                if saved[u] {
                    // Fig. 1b: load the memoized partial.
                    // SAFETY: row `idx + th` was written by this thread
                    // during the mode-0 pass under the same schedule, and
                    // no pass writes it concurrently with this read.
                    let t_u = unsafe { views[u].as_ref().unwrap().row(idx + th) };
                    krp_row(upd, &k_scratch[u - 1], t_u);
                } else {
                    // Fig. 1c/1d: recompute t_u from the deepest usable
                    // saved level (or the leaves).
                    compute_t(ctx, th, u, idx, saved, views, t_scratch);
                    krp_row(upd, &k_scratch[u - 1], &t_scratch[u]);
                }
                emit(fids[idx] as usize, upd);
            }
        }
        return;
    }
    // level < u: extend the KRP row and descend.
    for idx in clo..chi {
        {
            let (head, tail) = k_scratch.split_at_mut(level);
            krp_row(
                &mut tail[0],
                &head[level - 1],
                ctx.factors[level].row(fids[idx] as usize),
            );
        }
        walk_u(
            ctx,
            th,
            level + 1,
            idx,
            u,
            saved,
            views,
            k_scratch,
            t_scratch,
            upd,
            emit,
        );
    }
}

/// Fills `t_scratch[level]` with `t_level` for node `idx` (Algorithms
/// 7/8).
fn compute_t(
    ctx: &KernelCtx<'_>,
    th: usize,
    level: usize,
    idx: usize,
    saved: &[bool],
    views: &[Option<SharedRows<'_>>],
    t_scratch: &mut [Vec<f64>],
) {
    let d = ctx.csf.ndim();
    t_scratch[level].fill(0.0);
    let (lo, hi) = child_range(ctx.csf, level + 1, idx);
    let (clo, chi) = ctx.sched.clamp(th, level + 1, lo, hi);
    if level + 1 == d - 1 {
        let fids = ctx.csf.fids(d - 1);
        let vals = ctx.csf.vals();
        let leaf_factor = ctx.factors[d - 1];
        let dst = &mut t_scratch[level];
        for c in clo..chi {
            axpy_row(dst, vals[c], leaf_factor.row(fids[c] as usize));
        }
        return;
    }
    let fids = ctx.csf.fids(level + 1);
    for c in clo..chi {
        let frow = ctx.factors[level + 1].row(fids[c] as usize);
        if saved[level + 1] {
            // SAFETY: same ownership argument as in walk_u.
            let t_child = unsafe { views[level + 1].as_ref().unwrap().row(c + th) };
            let (head, _) = t_scratch.split_at_mut(level + 1);
            hadamard_row(&mut head[level], t_child, frow);
        } else {
            compute_t(ctx, th, level + 1, c, saved, views, t_scratch);
            let (head, tail) = t_scratch.split_at_mut(level + 1);
            hadamard_row(&mut head[level], &tail[0], frow);
        }
    }
}

/// `acc += row`, element-wise.
#[inline]
fn hadd(acc: &mut [f64], row: &[f64]) {
    for (a, &b) in acc.iter_mut().zip(row) {
        *a += b;
    }
}

/// Children of node `(level-1, pindex)` — the root "parent" is virtual.
#[inline]
fn child_range(csf: &Csf, level: usize, pindex: usize) -> (usize, usize) {
    let p = csf.ptr(level - 1);
    (p[pindex], p[pindex + 1])
}
