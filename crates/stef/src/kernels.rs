//! The memoized MTTKRP kernels (paper §III-B, Algorithms 4–8).
//!
//! Two passes cover all modes of the CSF:
//!
//! * [`mode0_with`] — the downward/upward traversal that computes the
//!   root-mode MTTKRP `Ā⁽⁰⁾` *and* stores every flagged partial result
//!   `P^(i)` on the way (TTM followed by a chain of mTTV operations,
//!   Fig. 1a). Output rows are owned per thread; the ≤ 2 boundary rows
//!   per thread are updated atomically (Algorithm 4, lines 8–12).
//! * [`modeu_with`] — MTTKRP for a non-root level `u`. The traversal
//!   builds the Khatri–Rao row `k_{u-1}` going down (Algorithm 5, line 7)
//!   and at each level-`u` node obtains `t_u` either from the memoized
//!   `P^(u)` (Fig. 1b / Algorithm 6), by recomputing from a deeper saved
//!   level (Fig. 1c / Algorithm 7), or from scratch (Fig. 1d /
//!   Algorithm 8) — whichever the save flags make possible. The leaf
//!   level needs no `t`: it scatters `val · k_{d-2}` directly (the KRP
//!   form of Algorithm 5, line 14).
//!
//! Both passes run one task per *logical thread* of the [`Schedule`];
//! the schedule — not the physical worker pool — defines who owns what,
//! so results are identical for any physical core count.
//!
//! ## Execution strategy
//!
//! This is the hot path of every ALS iteration, engineered for zero
//! steady-state overhead:
//!
//! * **No heap allocation inside a pass.** All scratch rows, traversal
//!   cursors and privatized output copies live in an engine-owned
//!   [`Workspace`]; the passes only slice into its arenas. Every caller
//!   (engines, baselines, benches, tests) owns its workspace and names
//!   the [`Executor`] the pass fans out on.
//! * **Monomorphized emitters.** The output update is a generic
//!   [`Emitter`] parameter — one fully inlined instantiation per
//!   accumulation strategy — instead of the former `&mut dyn FnMut`
//!   indirect call per emitted row. The atomic emitter fuses each
//!   contribution straight into its CAS sweep (no scratch `upd` row),
//!   and both emitters expose a prefetch hint the scatter loops issue
//!   a few non-zeros ahead.
//! * **Iterative traversal.** The recursive `walk_down`/`walk_u` pair
//!   became explicit-stack loops over per-level `cur`/`end` cursors,
//!   with the two hottest shapes special-cased: leaf fibers collapse
//!   into one `axpy_fiber` gather whose accumulator block stays in
//!   registers across the run (and which prefetches upcoming factor
//!   rows), memoized children into a run of `hadamard_row`;
//!   single-leaf fibers fuse into one `krp_axpy`.
//! * **Deterministic parallel reduction.** Privatized outputs are
//!   reduced chunk-parallel over the flat `n_u·R` range, each element
//!   summed in logical-thread order — bit-identical to the old serial
//!   reduction, without its `O(T·n_u·R)` single-core cost.
//!
//! Correctness is pinned against `CooTensor::mttkrp_reference` at
//! tolerance `0.0`: with dyadic factors and half- or quarter-integer
//! values every product and partial sum is exact in `f64`, so any
//! correct summation order, fused or not, must reproduce the reference
//! bit for bit (`tests/differential_kernels.rs`, and the unit tests
//! below).
//!
//! ## SIMD dispatch
//!
//! The traversal bodies are generic over [`RowKernels`] — a zero-sized
//! token naming one concrete kernel set — and are entered through a
//! small per-thread dispatch on [`linalg::simd::active`]. The AVX2
//! instantiations sit behind `#[target_feature(enable = "avx2,fma")]`
//! wrappers, which is what lets the explicit-SIMD primitives inline
//! into the scatter loops: dispatch happens once per pass per thread,
//! not once per emitted row.

use crate::runtime::Executor;
use crate::schedule::Schedule;
use crate::sync::{SharedRows, SharedSlice};
use crate::workspace::Workspace;
use linalg::simd::{self, RowKernels};
use linalg::Mat;
use sptensor::Csf;

/// How many output rows ahead the scatter loops issue a prefetch hint.
/// Far enough to cover an L2 miss at typical per-row work, near enough
/// that the line is still resident when the row is touched.
const SCATTER_PREFETCH: usize = 4;

/// Everything a kernel invocation needs, borrowed for its duration.
pub struct KernelCtx<'a> {
    /// The tensor.
    pub csf: &'a Csf,
    /// Work distribution (same object for producer and consumer passes).
    pub sched: &'a Schedule,
    /// Factor matrices in *level* order: `factors[l]` corresponds to
    /// `csf.mode_order()[l]`.
    pub factors: Vec<&'a Mat>,
    /// Rank `R`.
    pub rank: usize,
}

impl<'a> KernelCtx<'a> {
    /// Builds a context, checking factor shapes against the CSF.
    pub fn new(csf: &'a Csf, sched: &'a Schedule, factors: Vec<&'a Mat>, rank: usize) -> Self {
        assert_eq!(factors.len(), csf.ndim(), "one factor per level");
        for (l, f) in factors.iter().enumerate() {
            assert_eq!(
                f.rows(),
                csf.level_dims()[l],
                "factor at level {l} has wrong row count"
            );
            assert_eq!(f.cols(), rank, "factor at level {l} has wrong rank");
        }
        KernelCtx {
            csf,
            sched,
            factors,
            rank,
        }
    }
}

/// Resolved output-conflict strategy for non-root modes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ResolvedAccum {
    /// One output matrix per logical thread, reduced in thread order.
    Privatized,
    /// One shared output, every update an atomic add.
    Atomic,
}

// ---------------------------------------------------------------------
// Emitters
// ---------------------------------------------------------------------

/// How a level-`u` contribution reaches the output matrix. Generic so
/// each accumulation strategy gets its own fully inlined kernel body.
/// The row-kernel token rides along per call so the privatized emitter
/// uses the same monomorphized primitives as the traversal around it.
/// Shared with the linearized kernels (`kernels_alto`), which emit
/// through the same strategies.
pub(crate) trait Emitter {
    /// `out[fid] += a ⊙ b`.
    fn product<K: RowKernels>(&mut self, k: K, fid: usize, a: &[f64], b: &[f64]);
    /// `out[fid] += s · x`.
    fn scaled<K: RowKernels>(&mut self, k: K, fid: usize, s: f64, x: &[f64]);
    /// Hints that `out[fid]` will be emitted to shortly. Advisory.
    fn prefetch(&self, fid: usize);
}

/// Writes into this thread's private copy of the output — plain fused
/// row updates, no intermediate `upd` row needed.
pub(crate) struct PrivEmitter<'a> {
    pub(crate) local: &'a mut [f64],
    pub(crate) r: usize,
}

impl Emitter for PrivEmitter<'_> {
    #[inline(always)]
    fn product<K: RowKernels>(&mut self, k: K, fid: usize, a: &[f64], b: &[f64]) {
        let base = fid * self.r;
        k.hadamard_row(&mut self.local[base..base + self.r], a, b);
    }

    #[inline(always)]
    fn scaled<K: RowKernels>(&mut self, k: K, fid: usize, s: f64, x: &[f64]) {
        let base = fid * self.r;
        k.axpy_row(&mut self.local[base..base + self.r], s, x);
    }

    #[inline(always)]
    fn prefetch(&self, fid: usize) {
        linalg::simd::prefetch_read(&self.local[fid * self.r]);
    }
}

/// Streams each contribution straight into the shared output's CAS
/// sweep — the fused form of the old build-`upd`-then-`atomic_add_row`
/// sequence, which paid a full scratch-row write *and* read-back per
/// emitted row. The fused adds round identically (one multiply per
/// element either way), so results are bit-for-bit the same.
pub(crate) struct AtomicEmitter<'a, 'b> {
    pub(crate) shared: &'a SharedRows<'b>,
}

impl Emitter for AtomicEmitter<'_, '_> {
    #[inline(always)]
    fn product<K: RowKernels>(&mut self, _k: K, fid: usize, a: &[f64], b: &[f64]) {
        self.shared.atomic_add_product_row(fid, a, b);
    }

    #[inline(always)]
    fn scaled<K: RowKernels>(&mut self, _k: K, fid: usize, s: f64, x: &[f64]) {
        self.shared.atomic_add_scaled_row(fid, s, x);
    }

    #[inline(always)]
    fn prefetch(&self, fid: usize) {
        self.shared.prefetch_row(fid);
    }
}

// ---------------------------------------------------------------------
// Mode-0 pass
// ---------------------------------------------------------------------

#[derive(Clone, Copy)]
enum KernelPassKind {
    Mode0,
    ModeuSaved,
    ModeuRecompute,
}

/// Count one MTTKRP kernel entry in the metrics registry. The handle
/// per kind is resolved once (the registration lock + allocation land
/// on the first pass — warm-up territory); every later pass is a single
/// relaxed `fetch_add`, keeping warm sweeps allocation-free.
#[inline]
fn kernel_pass(kind: KernelPassKind) {
    use std::sync::OnceLock;
    const NAME: &str = "stef_kernel_passes_total";
    const HELP: &str = "MTTKRP kernel entries by variant (root, saved-partials, recompute)";
    static MODE0: OnceLock<&'static crate::metrics::Counter> = OnceLock::new();
    static SAVED: OnceLock<&'static crate::metrics::Counter> = OnceLock::new();
    static RECOMPUTE: OnceLock<&'static crate::metrics::Counter> = OnceLock::new();
    match kind {
        KernelPassKind::Mode0 => MODE0
            .get_or_init(|| crate::metrics::counter(NAME, HELP, &[("kernel", "mode0")]))
            .inc(),
        KernelPassKind::ModeuSaved => SAVED
            .get_or_init(|| crate::metrics::counter(NAME, HELP, &[("kernel", "modeu_saved")]))
            .inc(),
        KernelPassKind::ModeuRecompute => RECOMPUTE
            .get_or_init(|| {
                crate::metrics::counter(NAME, HELP, &[("kernel", "modeu_recompute")])
            })
            .inc(),
    }
}

/// Computes `Ā⁽⁰⁾` and stores all partials flagged in `views`, using the
/// caller's workspace and fanning out on `rt`. `out` must be
/// `level_dims[0] × R`; it is zeroed here. Allocation-free once `ws` is
/// warm (the pool runtime dispatches without touching the allocator).
pub fn mode0_with(
    ctx: &KernelCtx<'_>,
    views: &[Option<SharedRows<'_>>],
    rt: &Executor,
    ws: &mut Workspace,
    out: &mut Mat,
) {
    let d = ctx.csf.ndim();
    let r = ctx.rank;
    assert!(d >= 2, "tensors have at least 2 modes");
    assert_eq!(views.len(), d);
    assert_eq!(out.rows(), ctx.csf.level_dims()[0]);
    assert_eq!(out.cols(), r);
    kernel_pass(KernelPassKind::Mode0);
    let nthreads = ctx.sched.nthreads();
    ws.ensure(d, r, nthreads, 0);
    out.fill_zero();

    let parts = ws.parts();
    let (rs, astride, sstride) = (parts.row_stride, parts.arena_stride, parts.stack_stride);
    let arena = SharedSlice::new(&mut parts.scratch[..nthreads * astride]);
    let stackmem = SharedSlice::new(&mut parts.stacks[..nthreads * sstride]);
    let out_shared = SharedRows::new(out.as_mut_slice(), r);

    rt.fanout(nthreads, |th| {
        // SAFETY: each logical thread touches only its own arena span.
        let scr = unsafe { arena.range_mut(th * astride, (th + 1) * astride) };
        let stk = unsafe { stackmem.range_mut(th * sstride, (th + 1) * sstride) };
        // Layout: `d` KRP rows (unused here), `d` accumulator rows.
        let tbuf = &mut scr[d * rs..2 * d * rs];
        let (cur, end) = stk.split_at_mut(d);
        // One ISA dispatch per thread; everything below it is
        // monomorphized over the kernel set.
        match simd::active() {
            #[cfg(target_arch = "x86_64")]
            simd::SimdPath::Avx2 => {
                // SAFETY: `active()` never selects an unavailable path.
                unsafe { mode0_thread_avx2(ctx, th, views, &out_shared, tbuf, rs, cur, end) }
            }
            #[cfg(target_arch = "aarch64")]
            simd::SimdPath::Neon => {
                mode0_thread(simd::NeonK, ctx, th, views, &out_shared, tbuf, rs, cur, end)
            }
            _ => mode0_thread(simd::ScalarK, ctx, th, views, &out_shared, tbuf, rs, cur, end),
        }
    });
}

/// The AVX2 instantiation of [`mode0_thread`]. The `#[target_feature]`
/// region is what lets the AVX2 row primitives inline into the
/// traversal — a `#[target_feature]` function only inlines into
/// callers that already guarantee its features.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
#[allow(clippy::too_many_arguments)]
unsafe fn mode0_thread_avx2(
    ctx: &KernelCtx<'_>,
    th: usize,
    views: &[Option<SharedRows<'_>>],
    out_shared: &SharedRows<'_>,
    tbuf: &mut [f64],
    rs: usize,
    cur: &mut [usize],
    end: &mut [usize],
) {
    // SAFETY: the caller dispatched on an available Avx2 path.
    let k = unsafe { simd::Avx2K::new_unchecked() };
    mode0_thread(k, ctx, th, views, out_shared, tbuf, rs, cur, end)
}

/// One logical thread's share of the mode-0 pass, monomorphized over
/// the SIMD kernel set.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn mode0_thread<K: RowKernels>(
    k: K,
    ctx: &KernelCtx<'_>,
    th: usize,
    views: &[Option<SharedRows<'_>>],
    out_shared: &SharedRows<'_>,
    tbuf: &mut [f64],
    rs: usize,
    cur: &mut [usize],
    end: &mut [usize],
) {
    let r = ctx.rank;
    let root_fids = ctx.csf.fids(0);
    let (rlo, rhi) = ctx.sched.root_range(th);
    for idx0 in rlo..rhi {
        subtree_down(k, ctx, th, idx0, views, tbuf, rs, cur, end);
        let fid = root_fids[idx0] as usize;
        if ctx.sched.is_boundary(th, 0, idx0) {
            // Possibly shared with a neighbour: atomic accumulate.
            out_shared.atomic_add_row(fid, &tbuf[..r]);
        } else {
            // SAFETY: a non-boundary root node — and hence its output
            // row, since root fids are unique — is owned by exactly
            // this thread.
            unsafe { out_shared.row_mut(fid) }.copy_from_slice(&tbuf[..r]);
        }
    }
}

/// Computes the (thread-clamped) subtree contribution of root node
/// `idx0` into `tbuf[0..r]` (overwriting it), storing flagged partials
/// on the way up — the explicit-stack form of the old recursive
/// `walk_down`.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn subtree_down<K: RowKernels>(
    k: K,
    ctx: &KernelCtx<'_>,
    th: usize,
    idx0: usize,
    views: &[Option<SharedRows<'_>>],
    tbuf: &mut [f64],
    rs: usize,
    cur: &mut [usize],
    end: &mut [usize],
) {
    let d = ctx.csf.ndim();
    let r = ctx.rank;
    let csf = ctx.csf;
    let sched = ctx.sched;
    let vals = csf.vals();
    if d == 2 {
        // Root children are leaves: one fused streaming gather — the
        // output row stays in registers across the whole non-zero run,
        // starting from +0.0 (no zero-fill round trip).
        let (lo, hi) = child_range(csf, 1, idx0);
        let (clo, chi) = sched.clamp(th, 1, lo, hi);
        let fids = csf.fids(1);
        let leaf = ctx.factors[1];
        let t0 = &mut tbuf[..r];
        k.gather_fiber(t0, &vals[clo..chi], &fids[clo..chi], leaf.as_slice(), leaf.cols());
        return;
    }
    tbuf[..r].fill(0.0);
    let mut level = 1usize;
    {
        let (lo, hi) = child_range(csf, 1, idx0);
        let (clo, chi) = sched.clamp(th, 1, lo, hi);
        cur[1] = clo;
        end[1] = chi;
    }
    loop {
        if cur[level] < end[level] {
            let idx = cur[level];
            if level == d - 2 {
                // This node's children are leaves: open + close inline.
                let (lo, hi) = child_range(csf, d - 1, idx);
                let (clo, chi) = sched.clamp(th, d - 1, lo, hi);
                let frow = ctx.factors[level].row(csf.fids(level)[idx] as usize);
                let leaf_fids = csf.fids(d - 1);
                let leaf = ctx.factors[d - 1];
                let (thead, ttail) = tbuf.split_at_mut(level * rs);
                let tprev = &mut thead[(level - 1) * rs..(level - 1) * rs + r];
                if chi - clo == 1 && views[level].is_none() {
                    // Single leaf and nothing to memoize: fuse the zero +
                    // axpy + hadamard triple into one krp_axpy.
                    k.krp_axpy(tprev, vals[clo], leaf.row(leaf_fids[clo] as usize), frow);
                } else {
                    let tl = &mut ttail[..r];
                    k.gather_fiber(
                        tl,
                        &vals[clo..chi],
                        &leaf_fids[clo..chi],
                        leaf.as_slice(),
                        leaf.cols(),
                    );
                    if let Some(view) = &views[level] {
                        // SAFETY: shift-by-thread-id makes row `idx + th`
                        // exclusively this thread's (see partials.rs).
                        unsafe { view.row_mut(idx + th) }.copy_from_slice(tl);
                    }
                    k.hadamard_row(tprev, tl, frow);
                }
                cur[level] += 1;
            } else {
                // Internal node: zero its accumulator and descend.
                tbuf[level * rs..level * rs + r].fill(0.0);
                let (lo, hi) = child_range(csf, level + 1, idx);
                let (clo, chi) = sched.clamp(th, level + 1, lo, hi);
                level += 1;
                cur[level] = clo;
                end[level] = chi;
            }
        } else {
            // All children of the open node one level up are done.
            level -= 1;
            if level == 0 {
                return;
            }
            let idx = cur[level];
            if let Some(view) = &views[level] {
                // SAFETY: see above.
                unsafe { view.row_mut(idx + th) }
                    .copy_from_slice(&tbuf[level * rs..level * rs + r]);
            }
            let frow = ctx.factors[level].row(csf.fids(level)[idx] as usize);
            let (thead, ttail) = tbuf.split_at_mut(level * rs);
            k.hadamard_row(
                &mut thead[(level - 1) * rs..(level - 1) * rs + r],
                &ttail[..r],
                frow,
            );
            cur[level] += 1;
        }
    }
}

// ---------------------------------------------------------------------
// Mode-u pass (u > 0)
// ---------------------------------------------------------------------

/// Computes `Ā⁽ᵘ⁾` for a non-root level `u` into `out` (`level_dims[u] ×
/// R`), using memoized partials where available (`use_saved`), the
/// caller's workspace, and `rt` for the fan-outs. Allocation-free once
/// `ws` is warm.
#[allow(clippy::too_many_arguments)]
pub fn modeu_with(
    ctx: &KernelCtx<'_>,
    views: &[Option<SharedRows<'_>>],
    use_saved: bool,
    u: usize,
    accum: ResolvedAccum,
    rt: &Executor,
    ws: &mut Workspace,
    out: &mut Mat,
) {
    let d = ctx.csf.ndim();
    assert!(u >= 1 && u < d, "mode0 handles the root level");
    assert_eq!(views.len(), d);
    kernel_pass(if use_saved {
        KernelPassKind::ModeuSaved
    } else {
        KernelPassKind::ModeuRecompute
    });
    let r = ctx.rank;
    let n_u = ctx.csf.level_dims()[u];
    assert_eq!(out.rows(), n_u);
    assert_eq!(out.cols(), r);
    let nthreads = ctx.sched.nthreads();
    let priv_rows = if accum == ResolvedAccum::Privatized {
        n_u
    } else {
        0
    };
    ws.ensure(d, r, nthreads, priv_rows);

    let parts = ws.parts();
    let (rs, astride, sstride) = (parts.row_stride, parts.arena_stride, parts.stack_stride);
    let arena = SharedSlice::new(&mut parts.scratch[..nthreads * astride]);
    let stackmem = SharedSlice::new(&mut parts.stacks[..nthreads * sstride]);

    match accum {
        ResolvedAccum::Privatized => {
            let pstride = parts.priv_stride;
            if rt.is_serial() {
                // A serial executor runs logical threads in order —
                // which is exactly the reduction's element-wise thread
                // order. Thread 0 emits straight into `out` (`out = p0`,
                // bit for bit), every later thread reuses one scratch
                // copy that is folded in before the next starts
                // (`out = (…(p0 + p1) + …) + pt`). Same sums in the
                // same order as the chunk-parallel reduction below, at
                // a live working set of two copies instead of
                // `nthreads` — the copies stay cache-resident instead
                // of thrashing each other out.
                out.fill_zero();
                let flat = SharedSlice::new(out.as_mut_slice());
                let pool = SharedSlice::new(&mut parts.priv_buf[..pstride]);
                rt.fanout(nthreads, |th| {
                    // SAFETY: per-thread arena spans are disjoint; the
                    // output and the single scratch copy are shared
                    // across logical threads, but the serial executor
                    // runs them sequentially, so no two `&mut` borrows
                    // are live at once.
                    let scr = unsafe { arena.range_mut(th * astride, (th + 1) * astride) };
                    let stk = unsafe { stackmem.range_mut(th * sstride, (th + 1) * sstride) };
                    if th == 0 {
                        let local = unsafe { flat.range_mut(0, n_u * r) };
                        let mut em = PrivEmitter { local, r };
                        modeu_thread(ctx, th, u, use_saved, views, &mut scr[..2 * d * rs], stk, rs, &mut em);
                    } else {
                        let local = unsafe { pool.range_mut(0, n_u * r) };
                        local.fill(0.0);
                        let mut em = PrivEmitter { local, r };
                        modeu_thread(ctx, th, u, use_saved, views, &mut scr[..2 * d * rs], stk, rs, &mut em);
                        let dst = unsafe { flat.range_mut(0, n_u * r) };
                        let src = unsafe { pool.range(0, n_u * r) };
                        for (o, &v) in dst.iter_mut().zip(src) {
                            *o += v;
                        }
                    }
                });
                return;
            }
            let pool = SharedSlice::new(&mut parts.priv_buf[..nthreads * pstride]);
            rt.fanout(nthreads, |th| {
                // SAFETY: per-thread spans are disjoint by construction.
                let scr = unsafe { arena.range_mut(th * astride, (th + 1) * astride) };
                let stk = unsafe { stackmem.range_mut(th * sstride, (th + 1) * sstride) };
                let local = unsafe { pool.range_mut(th * pstride, th * pstride + n_u * r) };
                local.fill(0.0);
                let mut em = PrivEmitter { local, r };
                modeu_thread(ctx, th, u, use_saved, views, &mut scr[..2 * d * rs], stk, rs, &mut em);
            });
            // Cooperative cancellation boundary: if the token fired
            // during the emit pass, part of the private pool was never
            // written — skip the reduction; the caller abandons the
            // output as soon as it observes the token.
            if rt.cancelled() {
                return;
            }
            // Chunk-parallel reduction over the flat n_u·R range; each
            // element sums its private copies in logical-thread order, so
            // the result is bit-identical to a serial thread-order
            // reduction for every worker count.
            let total = n_u * r;
            let out_slice = SharedSlice::new(out.as_mut_slice());
            rt.fanout(nthreads, |w| {
                let lo = w * total / nthreads;
                let hi = (w + 1) * total / nthreads;
                // SAFETY: chunks [lo, hi) are disjoint across workers;
                // the private pool is only read after the emit fanout
                // joined.
                let dst = unsafe { out_slice.range_mut(lo, hi) };
                dst.copy_from_slice(unsafe { pool.range(lo, hi) });
                for t in 1..nthreads {
                    let src = unsafe { pool.range(t * pstride + lo, t * pstride + hi) };
                    for (o, &v) in dst.iter_mut().zip(src) {
                        *o += v;
                    }
                }
            });
        }
        ResolvedAccum::Atomic => {
            out.fill_zero();
            if rt.is_serial() {
                // A serial executor runs logical threads one after
                // another, so the CAS sweeps' only job — surviving
                // concurrent writers — is moot: plain fused row adds
                // perform the same additions in the same order, bit
                // for bit, at a fraction of the cost (a compare-and-
                // swap per element becomes one load/fma/store).
                let flat = SharedSlice::new(out.as_mut_slice());
                rt.fanout(nthreads, |th| {
                    // SAFETY: per-thread arena spans are disjoint. The
                    // output range is shared across logical threads,
                    // but the serial executor runs them sequentially,
                    // so no two `&mut` borrows of it are live at once.
                    let scr = unsafe { arena.range_mut(th * astride, (th + 1) * astride) };
                    let stk = unsafe { stackmem.range_mut(th * sstride, (th + 1) * sstride) };
                    let local = unsafe { flat.range_mut(0, n_u * r) };
                    let mut em = PrivEmitter { local, r };
                    modeu_thread(ctx, th, u, use_saved, views, &mut scr[..2 * d * rs], stk, rs, &mut em);
                });
            } else {
                let shared = SharedRows::new(out.as_mut_slice(), r);
                rt.fanout(nthreads, |th| {
                    // SAFETY: per-thread spans are disjoint by construction.
                    let scr = unsafe { arena.range_mut(th * astride, (th + 1) * astride) };
                    let stk = unsafe { stackmem.range_mut(th * sstride, (th + 1) * sstride) };
                    let mut em = AtomicEmitter { shared: &shared };
                    modeu_thread(ctx, th, u, use_saved, views, &mut scr[..2 * d * rs], stk, rs, &mut em);
                });
            }
        }
    }
}

/// One logical thread's mode-`u` traversal: one ISA dispatch, then the
/// body monomorphized over both the emitter and the kernel set.
#[allow(clippy::too_many_arguments)]
fn modeu_thread<E: Emitter>(
    ctx: &KernelCtx<'_>,
    th: usize,
    u: usize,
    use_saved: bool,
    views: &[Option<SharedRows<'_>>],
    scr: &mut [f64],
    stk: &mut [usize],
    rs: usize,
    em: &mut E,
) {
    match simd::active() {
        #[cfg(target_arch = "x86_64")]
        simd::SimdPath::Avx2 => {
            // SAFETY: `active()` never selects an unavailable path.
            unsafe { modeu_thread_avx2(ctx, th, u, use_saved, views, scr, stk, rs, em) }
        }
        #[cfg(target_arch = "aarch64")]
        simd::SimdPath::Neon => {
            modeu_thread_body(simd::NeonK, ctx, th, u, use_saved, views, scr, stk, rs, em)
        }
        _ => modeu_thread_body(simd::ScalarK, ctx, th, u, use_saved, views, scr, stk, rs, em),
    }
}

/// The AVX2 instantiation of [`modeu_thread_body`]; see
/// [`mode0_thread_avx2`] for why the `#[target_feature]` region matters.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
#[allow(clippy::too_many_arguments)]
unsafe fn modeu_thread_avx2<E: Emitter>(
    ctx: &KernelCtx<'_>,
    th: usize,
    u: usize,
    use_saved: bool,
    views: &[Option<SharedRows<'_>>],
    scr: &mut [f64],
    stk: &mut [usize],
    rs: usize,
    em: &mut E,
) {
    // SAFETY: the caller dispatched on an available Avx2 path.
    let k = unsafe { simd::Avx2K::new_unchecked() };
    modeu_thread_body(k, ctx, th, u, use_saved, views, scr, stk, rs, em)
}

/// The explicit-stack form of the old recursive `walk_u`.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn modeu_thread_body<K: RowKernels, E: Emitter>(
    k: K,
    ctx: &KernelCtx<'_>,
    th: usize,
    u: usize,
    use_saved: bool,
    views: &[Option<SharedRows<'_>>],
    scr: &mut [f64],
    stk: &mut [usize],
    rs: usize,
    em: &mut E,
) {
    let d = ctx.csf.ndim();
    let r = ctx.rank;
    let csf = ctx.csf;
    let sched = ctx.sched;
    let (kbuf, tbuf) = scr.split_at_mut(d * rs);
    let (cur, end) = stk.split_at_mut(d);
    let root_fids = csf.fids(0);
    let (rlo, rhi) = sched.root_range(th);
    for idx0 in rlo..rhi {
        let fid0 = root_fids[idx0] as usize;
        kbuf[..r].copy_from_slice(ctx.factors[0].row(fid0));
        let (lo, hi) = child_range(csf, 1, idx0);
        let (clo, chi) = sched.clamp(th, 1, lo, hi);
        if u == 1 {
            let kprev = &kbuf[..r];
            process_at_u(k, ctx, th, u, clo, chi, use_saved, views, kprev, tbuf, rs, cur, end, em);
            continue;
        }
        let mut level = 1usize;
        cur[1] = clo;
        end[1] = chi;
        loop {
            if level == u {
                let kprev = &kbuf[(u - 1) * rs..(u - 1) * rs + r];
                process_at_u(
                    k, ctx, th, u, cur[u], end[u], use_saved, views, kprev, tbuf, rs, cur, end, em,
                );
                // Pop to the deepest level with an unvisited sibling.
                loop {
                    level -= 1;
                    if level == 0 || cur[level] < end[level] {
                        break;
                    }
                }
                if level == 0 {
                    break;
                }
                continue;
            }
            if cur[level] < end[level] {
                let idx = cur[level];
                cur[level] += 1;
                // Extend the KRP row: k_level = k_{level-1} ⊙ A⁽ˡ⁾[fid,:].
                let frow = ctx.factors[level].row(csf.fids(level)[idx] as usize);
                let (kh, kt) = kbuf.split_at_mut(level * rs);
                k.krp_row(&mut kt[..r], &kh[(level - 1) * rs..(level - 1) * rs + r], frow);
                let (lo, hi) = child_range(csf, level + 1, idx);
                let (clo, chi) = sched.clamp(th, level + 1, lo, hi);
                level += 1;
                cur[level] = clo;
                end[level] = chi;
            } else {
                loop {
                    level -= 1;
                    if level == 0 || cur[level] < end[level] {
                        break;
                    }
                }
                if level == 0 {
                    break;
                }
            }
        }
    }
}

/// Processes the clamped node range `[clo, chi)` at the output level
/// `u`: a tight scatter loop (leaf mode), a tight memoized-read loop
/// (Fig. 1b), or per-node recompute (Fig. 1c/1d).
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn process_at_u<K: RowKernels, E: Emitter>(
    k: K,
    ctx: &KernelCtx<'_>,
    th: usize,
    u: usize,
    clo: usize,
    chi: usize,
    use_saved: bool,
    views: &[Option<SharedRows<'_>>],
    kprev: &[f64],
    tbuf: &mut [f64],
    rs: usize,
    cur: &mut [usize],
    end: &mut [usize],
    em: &mut E,
) {
    let d = ctx.csf.ndim();
    let r = ctx.rank;
    let csf = ctx.csf;
    let fids = csf.fids(u);
    if u == d - 1 {
        // Leaf mode: Ā⁽ᵈ⁻¹⁾[fid] += val · k_{d-2}  (KRP scatter). The
        // scattered-to rows have no locality, so pull each one toward
        // L1 a few non-zeros ahead of its update.
        let vals = csf.vals();
        for idx in clo..chi {
            if idx + SCATTER_PREFETCH < chi {
                em.prefetch(fids[idx + SCATTER_PREFETCH] as usize);
            }
            em.scaled(k, fids[idx] as usize, vals[idx], kprev);
        }
        return;
    }
    if use_saved && views[u].is_some() {
        // Fig. 1b: one memoized read per node. The memoized rows are
        // sequential (hardware prefetch covers them); only the output
        // scatter needs a hint.
        let view = views[u].as_ref().unwrap();
        for idx in clo..chi {
            if idx + SCATTER_PREFETCH < chi {
                em.prefetch(fids[idx + SCATTER_PREFETCH] as usize);
            }
            // SAFETY: row `idx + th` was written by this thread during
            // the mode-0 pass under the same schedule, and no pass
            // writes it concurrently with this read.
            let t_u = unsafe { view.row(idx + th) };
            em.product(k, fids[idx] as usize, kprev, t_u);
        }
        return;
    }
    for idx in clo..chi {
        // Fig. 1c/1d: recompute t_u from the deepest usable saved level
        // (or the leaves).
        compute_t(k, ctx, th, u, idx, use_saved, views, tbuf, rs, cur, end);
        em.product(k, fids[idx] as usize, kprev, &tbuf[u * rs..u * rs + r]);
    }
}

/// Fills `tbuf[u·rs..]` with `t_u` for node `idx0` at level `base = u`:
/// the partial MTTKRP of the node's (thread-clamped) subtree with
/// factors `base+1..d-1` contracted — descending only until a memoized
/// level or the leaves (Algorithms 7/8). Iterative; reuses the cursor
/// levels `base+1..d-1`, which the caller's traversal never touches.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn compute_t<K: RowKernels>(
    k: K,
    ctx: &KernelCtx<'_>,
    th: usize,
    base: usize,
    idx0: usize,
    use_saved: bool,
    views: &[Option<SharedRows<'_>>],
    tbuf: &mut [f64],
    rs: usize,
    cur: &mut [usize],
    end: &mut [usize],
) {
    let d = ctx.csf.ndim();
    let r = ctx.rank;
    let csf = ctx.csf;
    let sched = ctx.sched;
    let vals = csf.vals();
    let is_saved = |l: usize| use_saved && views[l].is_some();
    let (lo, hi) = child_range(csf, base + 1, idx0);
    let (clo, chi) = sched.clamp(th, base + 1, lo, hi);
    let tb = &mut tbuf[base * rs..base * rs + r];
    if base + 1 == d - 1 {
        // Children are leaves: one streaming overwrite-gather — no
        // zero-fill round trip, the accumulators start at +0.0 in
        // registers.
        let leaf_fids = csf.fids(d - 1);
        let leaf = ctx.factors[d - 1];
        k.gather_fiber(tb, &vals[clo..chi], &leaf_fids[clo..chi], leaf.as_slice(), leaf.cols());
        return;
    }
    tb.fill(0.0);
    if is_saved(base + 1) {
        // Children are memoized: tight hadamard run (Fig. 1c).
        let view = views[base + 1].as_ref().unwrap();
        let cfids = csf.fids(base + 1);
        let cfactor = ctx.factors[base + 1];
        for c in clo..chi {
            // SAFETY: same ownership argument as in `process_at_u`.
            k.hadamard_row(tb, unsafe { view.row(c + th) }, cfactor.row(cfids[c] as usize));
        }
        return;
    }
    let mut level = base + 1;
    cur[level] = clo;
    end[level] = chi;
    loop {
        if cur[level] < end[level] {
            let c = cur[level];
            let (nlo, nhi) = child_range(csf, level + 1, c);
            let (nclo, nchi) = sched.clamp(th, level + 1, nlo, nhi);
            if level + 1 == d - 1 {
                // Leaf children: open + close inline.
                let leaf_fids = csf.fids(d - 1);
                let leaf = ctx.factors[d - 1];
                let frow = ctx.factors[level].row(csf.fids(level)[c] as usize);
                let (thead, ttail) = tbuf.split_at_mut(level * rs);
                let tprev = &mut thead[(level - 1) * rs..(level - 1) * rs + r];
                if nchi - nclo == 1 {
                    k.krp_axpy(tprev, vals[nclo], leaf.row(leaf_fids[nclo] as usize), frow);
                } else {
                    let tl = &mut ttail[..r];
                    k.gather_fiber(
                        tl,
                        &vals[nclo..nchi],
                        &leaf_fids[nclo..nchi],
                        leaf.as_slice(),
                        leaf.cols(),
                    );
                    k.hadamard_row(tprev, tl, frow);
                }
                cur[level] += 1;
            } else if is_saved(level + 1) {
                // Memoized children: tight hadamard, then close.
                let view = views[level + 1].as_ref().unwrap();
                let cfids = csf.fids(level + 1);
                let cfactor = ctx.factors[level + 1];
                let frow = ctx.factors[level].row(csf.fids(level)[c] as usize);
                let (thead, ttail) = tbuf.split_at_mut(level * rs);
                let tprev = &mut thead[(level - 1) * rs..(level - 1) * rs + r];
                let tl = &mut ttail[..r];
                tl.fill(0.0);
                for cc in nclo..nchi {
                    // SAFETY: same ownership argument as above.
                    k.hadamard_row(tl, unsafe { view.row(cc + th) }, cfactor.row(cfids[cc] as usize));
                }
                k.hadamard_row(tprev, tl, frow);
                cur[level] += 1;
            } else {
                // Internal node: zero its accumulator and descend.
                tbuf[level * rs..level * rs + r].fill(0.0);
                level += 1;
                cur[level] = nclo;
                end[level] = nchi;
            }
        } else {
            level -= 1;
            if level == base {
                return;
            }
            let c = cur[level];
            let frow = ctx.factors[level].row(csf.fids(level)[c] as usize);
            let (thead, ttail) = tbuf.split_at_mut(level * rs);
            k.hadamard_row(
                &mut thead[(level - 1) * rs..(level - 1) * rs + r],
                &ttail[..r],
                frow,
            );
            cur[level] += 1;
        }
    }
}

/// Children of node `(level-1, pindex)` — the root "parent" is virtual.
#[inline]
fn child_range(csf: &Csf, level: usize, pindex: usize) -> (usize, usize) {
    let p = csf.ptr(level - 1);
    (p[pindex], p[pindex + 1])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::LoadBalance;
    use crate::partials::PartialStore;
    use crate::runtime::global;
    use linalg::assert_mat_approx_eq;
    use sptensor::{build_csf, CooTensor};

    fn pseudo_tensor(dims: &[usize], nnz: usize, seed: u64) -> CooTensor {
        let mut t = CooTensor::new(dims.to_vec());
        let mut x = seed | 1;
        let mut coord = vec![0u32; dims.len()];
        for _ in 0..nnz {
            for (c, &d) in coord.iter_mut().zip(dims) {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                *c = ((x >> 33) % d as u64) as u32;
            }
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            t.push(&coord, ((x >> 40) % 7) as f64 * 0.25 + 0.5);
        }
        t.sort_dedup();
        t
    }

    /// Dyadic factors (`k/128 − 1`, `k < 256`). With the tensors'
    /// quarter-integer values every product and partial sum in these
    /// tests is exact in `f64`, so any correct summation order, fused
    /// or not, reproduces `mttkrp_reference` bit for bit.
    fn rand_factors(dims: &[usize], r: usize, seed: u64) -> Vec<Mat> {
        let mut x = seed | 1;
        dims.iter()
            .map(|&n| {
                Mat::from_fn(n, r, |_, _| {
                    x = x
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    ((x >> 35) % 256) as f64 / 128.0 - 1.0
                })
            })
            .collect()
    }

    /// Root pass on the global pool with its own workspace.
    fn mode0(ctx: &KernelCtx<'_>, partials: &mut PartialStore) -> Mat {
        let mut out = Mat::zeros(ctx.csf.level_dims()[0], ctx.rank);
        let mut ws = Workspace::new(ctx.csf.ndim(), ctx.rank, ctx.sched.nthreads(), 0);
        mode0_with(ctx, &partials.shared_views(), global(), &mut ws, &mut out);
        out
    }

    /// Level-`u` pass on the global pool with its own workspace.
    fn modeu(
        ctx: &KernelCtx<'_>,
        partials: &mut PartialStore,
        u: usize,
        accum: ResolvedAccum,
        use_saved: bool,
    ) -> Mat {
        let n_u = ctx.csf.level_dims()[u];
        let mut out = Mat::zeros(n_u, ctx.rank);
        let mut ws = Workspace::new(ctx.csf.ndim(), ctx.rank, ctx.sched.nthreads(), n_u);
        let views = partials.shared_views();
        modeu_with(ctx, &views, use_saved, u, accum, global(), &mut ws, &mut out);
        out
    }

    /// Runs every mode's MTTKRP with the given config and asserts each
    /// equal to the COO reference (tolerance `0.0`; see `rand_factors`).
    #[allow(clippy::too_many_arguments)]
    fn check_all_modes(
        dims: &[usize],
        nnz: usize,
        rank: usize,
        nthreads: usize,
        save: Vec<bool>,
        accum: ResolvedAccum,
        balance: LoadBalance,
        seed: u64,
    ) {
        let t = pseudo_tensor(dims, nnz, seed);
        let order: Vec<usize> = (0..dims.len()).collect();
        let csf = build_csf(&t, &order);
        let sched = Schedule::build(&csf, nthreads, balance);
        let mut partials = if save.iter().any(|&s| s) {
            PartialStore::allocate(&csf, &save, nthreads, rank)
        } else {
            PartialStore::empty(dims.len(), nthreads, rank)
        };
        let factors = rand_factors(dims, rank, seed.wrapping_add(1));
        let refs: Vec<&Mat> = factors.iter().collect();
        let ctx = KernelCtx::new(&csf, &sched, refs, rank);

        let out0 = mode0(&ctx, &mut partials);
        assert_mat_approx_eq(&out0, &t.mttkrp_reference(&factors, 0), 0.0);
        for u in 1..dims.len() {
            let got = modeu(&ctx, &mut partials, u, accum, true);
            assert_mat_approx_eq(&got, &t.mttkrp_reference(&factors, u), 0.0);
        }
    }

    #[test]
    fn three_d_no_memo_single_thread() {
        check_all_modes(
            &[8, 9, 10],
            300,
            4,
            1,
            vec![false; 3],
            ResolvedAccum::Privatized,
            LoadBalance::NnzBalanced,
            1,
        );
    }

    #[test]
    fn three_d_memo_multi_thread() {
        check_all_modes(
            &[8, 9, 10],
            300,
            4,
            5,
            vec![false, true, false],
            ResolvedAccum::Privatized,
            LoadBalance::NnzBalanced,
            2,
        );
    }

    #[test]
    fn four_d_all_memo_configs() {
        for mask in 0..4u32 {
            let save = vec![false, mask & 1 != 0, mask & 2 != 0, false];
            check_all_modes(
                &[6, 7, 8, 5],
                400,
                3,
                4,
                save,
                ResolvedAccum::Privatized,
                LoadBalance::NnzBalanced,
                3,
            );
        }
    }

    #[test]
    fn five_d_with_memo() {
        check_all_modes(
            &[4, 5, 6, 4, 5],
            500,
            3,
            6,
            vec![false, true, false, true, false],
            ResolvedAccum::Privatized,
            LoadBalance::NnzBalanced,
            4,
        );
    }

    #[test]
    fn atomic_accumulation_matches() {
        check_all_modes(
            &[8, 9, 10],
            300,
            4,
            5,
            vec![false, true, false],
            ResolvedAccum::Atomic,
            LoadBalance::NnzBalanced,
            5,
        );
    }

    #[test]
    fn slice_schedule_matches() {
        check_all_modes(
            &[8, 9, 10],
            300,
            4,
            3,
            vec![false, true, false],
            ResolvedAccum::Privatized,
            LoadBalance::SliceBased,
            6,
        );
    }

    #[test]
    fn many_threads_tiny_tensor() {
        check_all_modes(
            &[3, 3, 3],
            10,
            2,
            16,
            vec![false, true, false],
            ResolvedAccum::Privatized,
            LoadBalance::NnzBalanced,
            7,
        );
    }

    #[test]
    fn two_d_matrix_case() {
        check_all_modes(
            &[12, 15],
            100,
            4,
            3,
            vec![false, false],
            ResolvedAccum::Privatized,
            LoadBalance::NnzBalanced,
            8,
        );
    }

    #[test]
    fn skewed_tensor_with_heavy_boundaries() {
        // Two root slices, most mass in one: thread boundaries fall
        // mid-slice, exercising replication + atomics heavily.
        let mut t = CooTensor::new(vec![2, 20, 20]);
        let mut x = 11u64;
        let mut coord = [0u32; 3];
        for _ in 0..600 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            coord[0] = if (x >> 20).is_multiple_of(10) { 1 } else { 0 };
            coord[1] = ((x >> 30) % 20) as u32;
            coord[2] = ((x >> 40) % 20) as u32;
            t.push(&coord, 1.0 + ((x >> 50) % 3) as f64);
        }
        t.sort_dedup();
        let csf = build_csf(&t, &[0, 1, 2]);
        let rank = 4;
        for nthreads in [2, 4, 8] {
            let sched = Schedule::nnz_balanced(&csf, nthreads);
            let save = vec![false, true, false];
            let mut partials = PartialStore::allocate(&csf, &save, nthreads, rank);
            let factors = rand_factors(t.dims(), rank, 99);
            let refs: Vec<&Mat> = factors.iter().collect();
            let ctx = KernelCtx::new(&csf, &sched, refs, rank);
            let out0 = mode0(&ctx, &mut partials);
            assert_mat_approx_eq(&out0, &t.mttkrp_reference(&factors, 0), 0.0);
            for u in 1..3 {
                let got = modeu(&ctx, &mut partials, u, ResolvedAccum::Privatized, true);
                assert_mat_approx_eq(&got, &t.mttkrp_reference(&factors, u), 0.0);
            }
        }
    }

    #[test]
    fn stale_partials_can_be_bypassed() {
        // Consume with use_saved = false: saved buffers must be ignored.
        let t = pseudo_tensor(&[8, 9, 10], 250, 12);
        let csf = build_csf(&t, &[0, 1, 2]);
        let rank = 4;
        let nthreads = 4;
        let sched = Schedule::nnz_balanced(&csf, nthreads);
        let save = vec![false, true, false];
        let mut partials = PartialStore::allocate(&csf, &save, nthreads, rank);
        // Poison the memo buffer (as if factors had changed since mode 0).
        let factors = rand_factors(t.dims(), rank, 13);
        let refs: Vec<&Mat> = factors.iter().collect();
        let ctx = KernelCtx::new(&csf, &sched, refs, rank);
        let got = modeu(&ctx, &mut partials, 1, ResolvedAccum::Privatized, false);
        assert_mat_approx_eq(&got, &t.mttkrp_reference(&factors, 1), 0.0);
    }

    #[test]
    fn permuted_level_order_still_correct() {
        // CSF in a non-identity order: kernels work in level space, the
        // reference in mode space — map factors and outputs accordingly.
        let t = pseudo_tensor(&[7, 11, 5], 300, 14);
        let order = vec![2usize, 0, 1];
        let csf = build_csf(&t, &order);
        let rank = 3;
        let nthreads = 3;
        let sched = Schedule::nnz_balanced(&csf, nthreads);
        let save = vec![false, true, false];
        let mut partials = PartialStore::allocate(&csf, &save, nthreads, rank);
        let factors = rand_factors(t.dims(), rank, 15);
        let level_refs: Vec<&Mat> = order.iter().map(|&m| &factors[m]).collect();
        let ctx = KernelCtx::new(&csf, &sched, level_refs, rank);

        let out0 = mode0(&ctx, &mut partials);
        assert_mat_approx_eq(&out0, &t.mttkrp_reference(&factors, order[0]), 0.0);
        for u in 1..3 {
            let got = modeu(&ctx, &mut partials, u, ResolvedAccum::Privatized, true);
            assert_mat_approx_eq(&got, &t.mttkrp_reference(&factors, order[u]), 0.0);
        }
    }

    #[test]
    fn memo_sets_and_strategies_match_reference() {
        // 3-way with and without a memo level, 4-way with two memo
        // levels, 5-way memoizing a deep level, on 1/3/4/5 logical
        // threads, under both accumulation strategies.
        for (dims, save, nthreads) in [
            (vec![8usize, 9, 10], vec![false, true, false], 1),
            (vec![8, 9, 10], vec![false, false, false], 4),
            (vec![6, 7, 8, 5], vec![false, true, true, false], 3),
            (vec![4, 5, 6, 4, 5], vec![false, false, true, false, false], 5),
        ] {
            for accum in [ResolvedAccum::Privatized, ResolvedAccum::Atomic] {
                let balance = LoadBalance::NnzBalanced;
                check_all_modes(&dims, 420, 5, nthreads, save.clone(), accum, balance, 21);
            }
        }
    }

    #[test]
    fn workspace_reuse_never_reallocates() {
        // Engine-style usage: one workspace across repeated passes over
        // every mode and both accumulation strategies.
        let t = pseudo_tensor(&[10, 12, 14, 9], 600, 31);
        let dims = t.dims().to_vec();
        let csf = build_csf(&t, &[0, 1, 2, 3]);
        let rank = 6;
        let nthreads = 4;
        let sched = Schedule::nnz_balanced(&csf, nthreads);
        let save = vec![false, true, false, false];
        let mut partials = PartialStore::allocate(&csf, &save, nthreads, rank);
        let factors = rand_factors(&dims, rank, 32);
        let refs: Vec<&Mat> = factors.iter().collect();
        let ctx = KernelCtx::new(&csf, &sched, refs, rank);
        let max_n = *csf.level_dims().iter().max().unwrap();
        let mut ws = Workspace::new(4, rank, nthreads, max_n);
        let rt = crate::runtime::Executor::new(2);
        let mut out0 = Mat::zeros(csf.level_dims()[0], rank);
        for _round in 0..3 {
            let views = partials.shared_views();
            mode0_with(&ctx, &views, &rt, &mut ws, &mut out0);
            for u in 1..4 {
                let mut out = Mat::zeros(csf.level_dims()[u], rank);
                for accum in [ResolvedAccum::Privatized, ResolvedAccum::Atomic] {
                    modeu_with(&ctx, &views, true, u, accum, &rt, &mut ws, &mut out);
                    assert_mat_approx_eq(&out, &t.mttkrp_reference(&factors, u), 0.0);
                }
            }
        }
        assert_eq!(ws.alloc_events(), 0, "passes must not grow the workspace");
    }
}
