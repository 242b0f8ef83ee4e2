//! MTTKRP over the linearized (ALTO-style) format.
//!
//! One flat pass over the sorted non-zeros computes any mode's MTTKRP:
//! per entry the kernel delinearizes the packed index into coordinates,
//! builds the Khatri–Rao product of the `d-1` input factor rows in two
//! ping-pong scratch rows, and emits the scaled row into the output.
//! There is no fiber tree and no mode-specific data structure — the
//! same index array serves every mode, which is the whole point on
//! irregular/hyper-sparse tensors where CSF fibers collapse to one
//! non-zero each.
//!
//! ## Execution strategy
//!
//! * **Thread partitioning over linearized ranges.** Logical thread
//!   `th` of `T` owns entries `[th·nnz/T, (th+1)·nnz/T)` — contiguous
//!   in the sorted linear order, so each thread's factor accesses
//!   inherit the interleaving's multi-mode locality.
//! * **Accumulation reuses the CSF machinery.** Output conflicts are
//!   resolved exactly like `kernels::modeu_with`: privatized per-thread
//!   copies reduced in logical-thread order (bitwise deterministic for
//!   any worker count), or atomic CAS adds on the shared output — via
//!   the same [`Emitter`] implementations. Serial executors take the
//!   same short-cuts (thread 0 emits straight into `out`; plain adds
//!   replace CAS sweeps) with the same bit-for-bit argument.
//! * **Allocation-free.** All scratch comes from the engine-owned
//!   [`Workspace`] arenas; a pass performs zero heap allocations once
//!   the workspace is warm.
//! * **Delinearization dispatch.** The portable path walks each mode's
//!   bit-position list. On x86-64 with BMI2 the per-mode masks feed
//!   `pext` — one instruction per 64-bit half — selected per thread
//!   alongside the [`RowKernels`] SIMD token, inside the same
//!   `#[target_feature]` region so everything inlines. Delinearization
//!   is integer-only, so the choice cannot affect float results.

use crate::kernels::{AtomicEmitter, Emitter, PrivEmitter, ResolvedAccum};
use crate::runtime::Executor;
use crate::sync::{SharedRows, SharedSlice};
use crate::workspace::Workspace;
use linalg::simd::{self, RowKernels};
use linalg::Mat;
use sptensor::linearize::{LinIndex, LinStore, Linearized};

/// How many entries ahead the emit loop prefetches the output row.
const SCATTER_PREFETCH: usize = 4;

/// Computes the mode-`mode` MTTKRP of `lin` into `out`
/// (`dims[mode] × R`), fanning out `nthreads` logical threads on `rt`.
/// `factors` are in natural mode order (linearization does not permute
/// modes); `factors[mode]` is ignored as an input but must still have
/// the right shape. Allocation-free once `ws` is warm.
#[allow(clippy::too_many_arguments)]
pub fn alto_mode_with(
    lin: &Linearized,
    factors: &[&Mat],
    mode: usize,
    nthreads: usize,
    accum: ResolvedAccum,
    rt: &Executor,
    ws: &mut Workspace,
    out: &mut Mat,
) {
    let d = lin.ndim();
    assert!(d >= 2, "tensors have at least 2 modes");
    assert!(mode < d, "mode out of range");
    assert_eq!(factors.len(), d, "one factor per mode");
    let r = factors[0].cols();
    for (m, f) in factors.iter().enumerate() {
        assert_eq!(f.rows(), lin.dims()[m], "factor {m} has wrong row count");
        assert_eq!(f.cols(), r, "factor {m} has wrong rank");
    }
    let n_u = lin.dims()[mode];
    assert_eq!(out.rows(), n_u);
    assert_eq!(out.cols(), r);
    let nthreads = nthreads.max(1);
    let priv_rows = if accum == ResolvedAccum::Privatized {
        n_u
    } else {
        0
    };
    ws.ensure(d, r, nthreads, priv_rows);

    match lin.store() {
        LinStore::Narrow(idx) => run(lin, idx, factors, mode, nthreads, accum, rt, ws, out),
        LinStore::Wide(idx) => run(lin, idx, factors, mode, nthreads, accum, rt, ws, out),
    }
}

/// The store-width-monomorphized body of [`alto_mode_with`].
#[allow(clippy::too_many_arguments)]
fn run<W: LinIndex>(
    lin: &Linearized,
    idx: &[W],
    factors: &[&Mat],
    mode: usize,
    nthreads: usize,
    accum: ResolvedAccum,
    rt: &Executor,
    ws: &mut Workspace,
    out: &mut Mat,
) {
    let r = out.cols();
    let n_u = out.rows();
    let nnz = idx.len();
    let vals = lin.vals();
    let parts = ws.parts();
    let (rs, astride) = (parts.row_stride, parts.arena_stride);
    let arena = SharedSlice::new(&mut parts.scratch[..nthreads * astride]);
    let span = |th: usize| (th * nnz / nthreads, (th + 1) * nnz / nthreads);

    match accum {
        ResolvedAccum::Privatized => {
            let pstride = parts.priv_stride;
            if rt.is_serial() {
                // Same two-copy folding as `modeu_with`: thread 0 emits
                // straight into `out`, later threads reuse one scratch
                // copy folded in before the next starts — element-wise
                // sums in logical-thread order, bit-identical to the
                // chunk-parallel reduction below.
                out.fill_zero();
                let flat = SharedSlice::new(out.as_mut_slice());
                let pool = SharedSlice::new(&mut parts.priv_buf[..pstride]);
                rt.fanout(nthreads, |th| {
                    // SAFETY: per-thread arena spans are disjoint; the
                    // output and the single scratch copy are shared, but
                    // the serial executor runs logical threads
                    // sequentially, so no two `&mut` borrows are live at
                    // once.
                    let scr = unsafe { arena.range_mut(th * astride, (th + 1) * astride) };
                    let (lo, hi) = span(th);
                    if th == 0 {
                        let local = unsafe { flat.range_mut(0, n_u * r) };
                        let mut em = PrivEmitter { local, r };
                        alto_thread(lin, idx, vals, factors, mode, lo, hi, scr, rs, &mut em);
                    } else {
                        let local = unsafe { pool.range_mut(0, n_u * r) };
                        local.fill(0.0);
                        let mut em = PrivEmitter { local, r };
                        alto_thread(lin, idx, vals, factors, mode, lo, hi, scr, rs, &mut em);
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
                let local = unsafe { pool.range_mut(th * pstride, th * pstride + n_u * r) };
                local.fill(0.0);
                let mut em = PrivEmitter { local, r };
                let (lo, hi) = span(th);
                alto_thread(lin, idx, vals, factors, mode, lo, hi, scr, rs, &mut em);
            });
            if rt.cancelled() {
                // Part of the private pool may never have been written;
                // the caller abandons the output on observing the token.
                return;
            }
            // Chunk-parallel reduction in logical-thread order — same
            // code shape as `modeu_with`, same bitwise guarantee.
            let total = n_u * r;
            let out_slice = SharedSlice::new(out.as_mut_slice());
            rt.fanout(nthreads, |w| {
                let lo = w * total / nthreads;
                let hi = (w + 1) * total / nthreads;
                // SAFETY: chunks [lo, hi) are disjoint across workers;
                // the pool is only read after the emit fanout joined.
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
                // Sequential logical threads: plain fused adds perform
                // the same additions in the same order as CAS sweeps.
                let flat = SharedSlice::new(out.as_mut_slice());
                rt.fanout(nthreads, |th| {
                    // SAFETY: serial executor — see the privatized arm.
                    let scr = unsafe { arena.range_mut(th * astride, (th + 1) * astride) };
                    let local = unsafe { flat.range_mut(0, n_u * r) };
                    let mut em = PrivEmitter { local, r };
                    let (lo, hi) = span(th);
                    alto_thread(lin, idx, vals, factors, mode, lo, hi, scr, rs, &mut em);
                });
            } else {
                let shared = SharedRows::new(out.as_mut_slice(), r);
                rt.fanout(nthreads, |th| {
                    // SAFETY: per-thread arena spans are disjoint; all
                    // output access is atomic.
                    let scr = unsafe { arena.range_mut(th * astride, (th + 1) * astride) };
                    let mut em = AtomicEmitter { shared: &shared };
                    let (lo, hi) = span(th);
                    alto_thread(lin, idx, vals, factors, mode, lo, hi, scr, rs, &mut em);
                });
            }
        }
    }
}

/// Delinearization strategy: recovers one mode's coordinate from a
/// packed index. Integer-only, so the choice never affects float
/// results — only how fast coordinates come out.
trait Delin: Copy {
    fn coord<W: LinIndex>(self, w: W, m: usize) -> u32;
}

/// Portable bit-gather over the mode's position list.
#[derive(Clone, Copy)]
struct ScalarDelin<'a> {
    lin: &'a Linearized,
}

impl Delin for ScalarDelin<'_> {
    #[inline(always)]
    fn coord<W: LinIndex>(self, w: W, m: usize) -> u32 {
        w.decode_mode(self.lin.positions(m))
    }
}

/// BMI2 `pext` over the per-mode masks: one parallel bit extract per
/// 64-bit half. Only constructed behind a runtime `bmi2` check.
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy)]
struct PextDelin<'a> {
    masks: &'a [sptensor::linearize::ModeMask],
}

#[cfg(target_arch = "x86_64")]
impl Delin for PextDelin<'_> {
    #[inline(always)]
    fn coord<W: LinIndex>(self, w: W, m: usize) -> u32 {
        let mk = self.masks[m];
        // SAFETY: the dispatcher only builds a `PextDelin` after
        // `is_x86_feature_detected!("bmi2")`.
        unsafe {
            let lo = core::arch::x86_64::_pext_u64(w.lo(), mk.mask_lo);
            let hi = core::arch::x86_64::_pext_u64(w.hi(), mk.mask_hi);
            (lo | (hi << mk.lo_bits)) as u32
        }
    }
}

/// One logical thread's pass over its linearized range: one ISA +
/// delinearization dispatch, then the body monomorphized over kernel
/// set, delinearizer, store width and emitter.
#[allow(clippy::too_many_arguments)]
fn alto_thread<W: LinIndex, E: Emitter>(
    lin: &Linearized,
    idx: &[W],
    vals: &[f64],
    factors: &[&Mat],
    mode: usize,
    lo: usize,
    hi: usize,
    scr: &mut [f64],
    rs: usize,
    em: &mut E,
) {
    match simd::active() {
        #[cfg(target_arch = "x86_64")]
        simd::SimdPath::Avx2 => {
            if std::arch::is_x86_feature_detected!("bmi2") {
                // SAFETY: avx2+fma guaranteed by `active()`, bmi2 just
                // detected.
                unsafe { alto_thread_avx2_pext(lin, idx, vals, factors, mode, lo, hi, scr, rs, em) }
            } else {
                // SAFETY: `active()` never selects an unavailable path.
                unsafe { alto_thread_avx2(lin, idx, vals, factors, mode, lo, hi, scr, rs, em) }
            }
        }
        #[cfg(target_arch = "aarch64")]
        simd::SimdPath::Neon => alto_thread_body(
            simd::NeonK,
            ScalarDelin { lin },
            idx,
            vals,
            factors,
            mode,
            lo,
            hi,
            scr,
            rs,
            em,
        ),
        _ => alto_thread_body(
            simd::ScalarK,
            ScalarDelin { lin },
            idx,
            vals,
            factors,
            mode,
            lo,
            hi,
            scr,
            rs,
            em,
        ),
    }
}

/// AVX2+FMA+BMI2 instantiation: SIMD rows and `pext` delinearization
/// inline into one loop.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma,bmi2")]
#[allow(clippy::too_many_arguments)]
unsafe fn alto_thread_avx2_pext<W: LinIndex, E: Emitter>(
    lin: &Linearized,
    idx: &[W],
    vals: &[f64],
    factors: &[&Mat],
    mode: usize,
    lo: usize,
    hi: usize,
    scr: &mut [f64],
    rs: usize,
    em: &mut E,
) {
    // SAFETY: the caller dispatched on an available Avx2 path.
    let k = unsafe { simd::Avx2K::new_unchecked() };
    let dl = PextDelin { masks: lin.masks() };
    alto_thread_body(k, dl, idx, vals, factors, mode, lo, hi, scr, rs, em)
}

/// AVX2+FMA instantiation with portable delinearization (no BMI2).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
#[allow(clippy::too_many_arguments)]
unsafe fn alto_thread_avx2<W: LinIndex, E: Emitter>(
    lin: &Linearized,
    idx: &[W],
    vals: &[f64],
    factors: &[&Mat],
    mode: usize,
    lo: usize,
    hi: usize,
    scr: &mut [f64],
    rs: usize,
    em: &mut E,
) {
    // SAFETY: the caller dispatched on an available Avx2 path.
    let k = unsafe { simd::Avx2K::new_unchecked() };
    let dl = ScalarDelin { lin };
    alto_thread_body(k, dl, idx, vals, factors, mode, lo, hi, scr, rs, em)
}

/// The monomorphized per-thread loop.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn alto_thread_body<K: RowKernels, DL: Delin, W: LinIndex, E: Emitter>(
    k: K,
    dl: DL,
    idx: &[W],
    vals: &[f64],
    factors: &[&Mat],
    mode: usize,
    lo: usize,
    hi: usize,
    scr: &mut [f64],
    rs: usize,
    em: &mut E,
) {
    let d = factors.len();
    let r = factors[0].cols();
    if d == 2 {
        // Matrix case: out[c_u] += val · B[c_other] — no KRP to build.
        let m = 1 - mode;
        let f = factors[m];
        for e in lo..hi {
            if e + SCATTER_PREFETCH < hi {
                em.prefetch(dl.coord(idx[e + SCATTER_PREFETCH], mode) as usize);
            }
            let w = idx[e];
            em.scaled(
                k,
                dl.coord(w, mode) as usize,
                vals[e],
                f.row(dl.coord(w, m) as usize),
            );
        }
        return;
    }
    // d >= 3: build val · ⊙_{m≠u,m<last} A⁽ᵐ⁾[c_m] in two ping-pong
    // scratch rows, fuse the final factor into the emit.
    let m0 = if mode == 0 { 1 } else { 0 };
    let mlast = if mode == d - 1 { d - 2 } else { d - 1 };
    let flast = factors[mlast];
    let (sa, sb) = scr.split_at_mut(rs);
    let mut a = &mut sa[..r];
    let mut b = &mut sb[..r];
    for e in lo..hi {
        if e + SCATTER_PREFETCH < hi {
            em.prefetch(dl.coord(idx[e + SCATTER_PREFETCH], mode) as usize);
        }
        let w = idx[e];
        k.scale_row_into(a, vals[e], factors[m0].row(dl.coord(w, m0) as usize));
        let mut m = m0 + 1;
        while m < mlast {
            if m != mode {
                k.krp_row(b, a, factors[m].row(dl.coord(w, m) as usize));
                core::mem::swap(&mut a, &mut b);
            }
            m += 1;
        }
        em.product(
            k,
            dl.coord(w, mode) as usize,
            a,
            flast.row(dl.coord(w, mlast) as usize),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::Executor;
    use linalg::assert_mat_approx_eq;
    use sptensor::CooTensor;

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

    fn rand_factors(dims: &[usize], r: usize, seed: u64) -> Vec<Mat> {
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

    fn check_all_modes(dims: &[usize], nnz: usize, rank: usize, nthreads: usize, seed: u64) {
        let t = pseudo_tensor(dims, nnz, seed);
        let lin = Linearized::build(&t).unwrap();
        let factors = rand_factors(dims, rank, seed.wrapping_add(1));
        let refs: Vec<&Mat> = factors.iter().collect();
        let d = dims.len();
        let mut ws = Workspace::new(d, rank, nthreads, *dims.iter().max().unwrap());
        let rt = Executor::new(2);
        for mode in 0..d {
            let expect = t.mttkrp_reference(&factors, mode);
            for accum in [ResolvedAccum::Privatized, ResolvedAccum::Atomic] {
                let mut out = Mat::zeros(dims[mode], rank);
                alto_mode_with(&lin, &refs, mode, nthreads, accum, &rt, &mut ws, &mut out);
                assert_mat_approx_eq(&out, &expect, 1e-9);
            }
        }
    }

    #[test]
    fn three_d_all_modes() {
        check_all_modes(&[8, 9, 10], 300, 4, 4, 1);
    }

    #[test]
    fn two_d_matrix_case() {
        check_all_modes(&[12, 15], 100, 4, 3, 2);
    }

    #[test]
    fn four_and_five_d() {
        check_all_modes(&[6, 7, 8, 5], 400, 3, 4, 3);
        check_all_modes(&[4, 5, 6, 4, 5], 500, 3, 6, 4);
    }

    #[test]
    fn single_thread_serial_executor() {
        let dims = [8usize, 9, 10];
        let t = pseudo_tensor(&dims, 300, 5);
        let lin = Linearized::build(&t).unwrap();
        let factors = rand_factors(&dims, 4, 6);
        let refs: Vec<&Mat> = factors.iter().collect();
        let mut ws = Workspace::new(3, 4, 3, 10);
        let rt = Executor::new(1);
        for mode in 0..3 {
            for accum in [ResolvedAccum::Privatized, ResolvedAccum::Atomic] {
                let mut out = Mat::zeros(dims[mode], 4);
                alto_mode_with(&lin, &refs, mode, 3, accum, &rt, &mut ws, &mut out);
                assert_mat_approx_eq(&out, &t.mttkrp_reference(&factors, mode), 1e-9);
            }
        }
    }

    #[test]
    fn wide_store_matches_reference() {
        // 5 × 13-bit modes = 65 total bits: forces the u128 store while
        // the factors stay small enough to allocate.
        let dims = [8192usize; 5];
        let t = pseudo_tensor(&dims, 400, 17);
        let lin = Linearized::build(&t).unwrap();
        assert_eq!(lin.index_elems(), 2, "must exercise the wide path");
        let factors = rand_factors(&dims, 3, 18);
        let refs: Vec<&Mat> = factors.iter().collect();
        let mut ws = Workspace::new(5, 3, 4, 8192);
        let rt = Executor::new(2);
        for mode in 0..5 {
            let expect = t.mttkrp_reference(&factors, mode);
            for accum in [ResolvedAccum::Privatized, ResolvedAccum::Atomic] {
                let mut out = Mat::zeros(dims[mode], 3);
                alto_mode_with(&lin, &refs, mode, 4, accum, &rt, &mut ws, &mut out);
                assert_mat_approx_eq(&out, &expect, 1e-9);
            }
        }
    }

    #[test]
    fn bitwise_identical_across_worker_counts() {
        let dims = [40usize, 9, 23];
        let t = pseudo_tensor(&dims, 800, 9);
        let lin = Linearized::build(&t).unwrap();
        let factors = rand_factors(&dims, 5, 10);
        let refs: Vec<&Mat> = factors.iter().collect();
        let nthreads = 6;
        let mut reference: Option<Vec<Mat>> = None;
        for workers in [1usize, 2, 4, 8] {
            let rt = Executor::new(workers);
            let mut ws = Workspace::new(3, 5, nthreads, 40);
            let outs: Vec<Mat> = (0..3)
                .map(|mode| {
                    let mut out = Mat::zeros(dims[mode], 5);
                    alto_mode_with(
                        &lin,
                        &refs,
                        mode,
                        nthreads,
                        ResolvedAccum::Privatized,
                        &rt,
                        &mut ws,
                        &mut out,
                    );
                    out
                })
                .collect();
            match &reference {
                None => reference = Some(outs),
                Some(want) => {
                    for (mode, (a, b)) in outs.iter().zip(want).enumerate() {
                        for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
                            assert_eq!(
                                x.to_bits(),
                                y.to_bits(),
                                "mode {mode}, workers {workers}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn workspace_reuse_never_reallocates() {
        let dims = [10usize, 12, 14, 9];
        let t = pseudo_tensor(&dims, 600, 31);
        let lin = Linearized::build(&t).unwrap();
        let factors = rand_factors(&dims, 6, 32);
        let refs: Vec<&Mat> = factors.iter().collect();
        let nthreads = 4;
        let max_n = *dims.iter().max().unwrap();
        let mut ws = Workspace::new(4, 6, nthreads, max_n);
        let rt = Executor::new(2);
        for _round in 0..3 {
            for mode in 0..4 {
                let mut out = Mat::zeros(dims[mode], 6);
                for accum in [ResolvedAccum::Privatized, ResolvedAccum::Atomic] {
                    alto_mode_with(&lin, &refs, mode, nthreads, accum, &rt, &mut ws, &mut out);
                    assert_mat_approx_eq(&out, &t.mttkrp_reference(&factors, mode), 1e-9);
                }
            }
        }
        assert_eq!(ws.alloc_events(), 0, "passes must not grow the workspace");
    }
}
