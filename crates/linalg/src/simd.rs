//! Runtime-dispatched explicit-SIMD row kernels.
//!
//! The MTTKRP inner loops spend their time in a handful of length-`R`
//! row primitives (`krp.rs`). Autovectorization only emits packed FMA
//! for them when the *compile-time* target enables it, so a stock
//! `cargo build --release` ships scalar code. This module provides
//! hand-written AVX2+FMA (`core::arch::x86_64`) and NEON
//! (`core::arch::aarch64`) implementations and selects one **once per
//! process**:
//!
//! * detection runs at most once (cached in a `OnceLock`) via
//!   `is_x86_feature_detected!` / the aarch64 baseline;
//! * the `STEF_SIMD={auto,scalar,avx2,neon}` environment variable
//!   overrides detection at first use;
//! * `apply(SimdPolicy::Force(..))` (reached from the CLI `--simd`
//!   flag) overrides both, falling back to the
//!   detected path with a warning if the forced ISA is unavailable.
//!
//! The public `krp.rs` entry points read the cached selection with a
//! single relaxed atomic load and branch *outside* their lane loops, so
//! dispatch cost is one predictable branch per row, not per element.
//! Every implementation handles any `R` with rank-blocked main loops
//! plus scalar tails, and every variant keeps the per-element
//! *accumulation order* identical to the scalar reference — variants
//! differ only in whether multiply-adds round once (fused) or twice.

use std::fmt;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// One concrete kernel implementation. `Scalar` is always available
/// and is bit-identical to the pre-SIMD autovectorized code.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
#[repr(u8)]
pub enum SimdPath {
    Scalar = 1,
    Avx2 = 2,
    Neon = 3,
}

impl SimdPath {
    pub const ALL: [SimdPath; 3] = [SimdPath::Scalar, SimdPath::Avx2, SimdPath::Neon];

    pub fn as_str(self) -> &'static str {
        match self {
            SimdPath::Scalar => "scalar",
            SimdPath::Avx2 => "avx2",
            SimdPath::Neon => "neon",
        }
    }

    /// Parses a concrete path name (`auto` is a [`SimdPolicy`], not a path).
    pub fn parse(name: &str) -> Option<SimdPath> {
        match name {
            "scalar" => Some(SimdPath::Scalar),
            "avx2" => Some(SimdPath::Avx2),
            "neon" => Some(SimdPath::Neon),
            _ => None,
        }
    }

    /// Whether this path can run on the current CPU. Cached; cheap
    /// enough for asserts on hot-ish paths.
    pub fn available(self) -> bool {
        match self {
            SimdPath::Scalar => true,
            SimdPath::Avx2 => avx2_available(),
            SimdPath::Neon => cfg!(target_arch = "aarch64"),
        }
    }

    fn from_u8(v: u8) -> Option<SimdPath> {
        match v {
            1 => Some(SimdPath::Scalar),
            2 => Some(SimdPath::Avx2),
            3 => Some(SimdPath::Neon),
            _ => None,
        }
    }
}

impl fmt::Display for SimdPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// How an engine wants the kernel path chosen. `Auto` keeps whatever is
/// already selected (environment override or CPU detection at first
/// use); `Force` pins a specific path for A/B benchmarking.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum SimdPolicy {
    #[default]
    Auto,
    Force(SimdPath),
}

impl SimdPolicy {
    /// Parses a `--simd` / `STEF_SIMD` value.
    pub fn parse(name: &str) -> Option<SimdPolicy> {
        if name == "auto" {
            return Some(SimdPolicy::Auto);
        }
        SimdPath::parse(name).map(SimdPolicy::Force)
    }
}

#[cfg(target_arch = "x86_64")]
fn avx2_available() -> bool {
    static CACHED: OnceLock<bool> = OnceLock::new();
    *CACHED.get_or_init(|| {
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
    })
}

#[cfg(not(target_arch = "x86_64"))]
fn avx2_available() -> bool {
    false
}

/// Best path the current CPU supports.
pub fn detect() -> SimdPath {
    if SimdPath::Avx2.available() {
        SimdPath::Avx2
    } else if SimdPath::Neon.available() {
        SimdPath::Neon
    } else {
        SimdPath::Scalar
    }
}

/// Initial selection: `STEF_SIMD` if set and usable, else detection.
/// Computed once; an unusable or unparsable value degrades with a
/// one-shot warning rather than failing (library code must keep
/// running on machines the env var was not written for).
fn default_path() -> SimdPath {
    static DEFAULT: OnceLock<SimdPath> = OnceLock::new();
    *DEFAULT.get_or_init(|| match std::env::var("STEF_SIMD") {
        Err(_) => detect(),
        Ok(v) => match SimdPolicy::parse(&v) {
            Some(SimdPolicy::Auto) => detect(),
            Some(SimdPolicy::Force(p)) if p.available() => p,
            Some(SimdPolicy::Force(p)) => {
                eprintln!(
                    "stef: STEF_SIMD={} not available on this CPU; using {}",
                    p,
                    detect()
                );
                detect()
            }
            None => {
                eprintln!(
                    "stef: unknown STEF_SIMD value '{v}' (auto|scalar|avx2|neon); using {}",
                    detect()
                );
                detect()
            }
        },
    })
}

/// The process-wide selection. 0 = not yet initialized. Process-wide
/// because kernel dispatch reads it on every row primitive, with no
/// handle to pass; `STEF_SIMD` and `--simd` are its only selectors.
static ACTIVE: AtomicU8 = AtomicU8::new(0);

/// The kernel path the row primitives currently dispatch to.
#[inline]
pub fn active() -> SimdPath {
    match SimdPath::from_u8(ACTIVE.load(Ordering::Relaxed)) {
        Some(p) => p,
        None => {
            let p = default_path();
            ACTIVE.store(p as u8, Ordering::Relaxed);
            p
        }
    }
}

/// Applies an engine-level policy and returns the resulting selection.
///
/// `Force` of an unavailable path warns and selects the detected path
/// instead (callers that want a hard error — the CLI — validate
/// availability before building options). `Auto` leaves the current
/// selection untouched so preparing an engine with default options
/// never clobbers an earlier explicit choice.
pub fn apply(policy: SimdPolicy) -> SimdPath {
    match policy {
        SimdPolicy::Auto => active(),
        SimdPolicy::Force(p) => {
            let chosen = if p.available() {
                p
            } else {
                eprintln!("stef: simd path {p} not available on this CPU; using {}", detect());
                detect()
            };
            ACTIVE.store(chosen as u8, Ordering::Relaxed);
            chosen
        }
    }
}

/// Human-readable selection summary for `stef analyze` / bench output,
/// e.g. `"avx2 (detected avx2)"`.
pub fn describe() -> String {
    format!("{} (detected {})", active(), detect())
}

/// Best-effort read prefetch of the cache line holding `p`. A hint
/// only: no-op on targets without a stable prefetch intrinsic.
#[inline(always)]
pub fn prefetch_read(p: *const f64) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: prefetch is a hint; it never faults, for any address.
    unsafe {
        core::arch::x86_64::_mm_prefetch(p as *const i8, core::arch::x86_64::_MM_HINT_T0);
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = p;
}

/// Function-pointer table of one path's row primitives. Used by the
/// differential tests to pit every available variant against the
/// scalar reference inside a single process; the hot kernels do *not*
/// go through these pointers — they branch on [`active`] and call the
/// concrete functions so everything inlines.
pub struct RowOps {
    pub krp_row: fn(&mut [f64], &[f64], &[f64]),
    pub hadamard_row: fn(&mut [f64], &[f64], &[f64]),
    pub axpy_row: fn(&mut [f64], f64, &[f64]),
    pub krp_axpy: fn(&mut [f64], f64, &[f64], &[f64]),
    pub scale_row_into: fn(&mut [f64], f64, &[f64]),
    pub axpy_fiber: FiberFn,
    pub gather_fiber: FiberFn,
}

/// Shared signature of the fiber primitives:
/// `(acc, vals, fids, rows, stride)`.
pub type FiberFn = fn(&mut [f64], &[f64], &[u32], &[f64], usize);

/// The primitives of `path`, or `None` when the CPU cannot run it.
pub fn ops_for(path: SimdPath) -> Option<&'static RowOps> {
    if !path.available() {
        return None;
    }
    match path {
        SimdPath::Scalar => Some(&SCALAR_OPS),
        #[cfg(target_arch = "x86_64")]
        SimdPath::Avx2 => Some(&AVX2_OPS),
        #[cfg(target_arch = "aarch64")]
        SimdPath::Neon => Some(&NEON_OPS),
        #[allow(unreachable_patterns)]
        _ => None,
    }
}

static SCALAR_OPS: RowOps = RowOps {
    krp_row: scalar::krp_row,
    hadamard_row: scalar::hadamard_row,
    axpy_row: scalar::axpy_row,
    krp_axpy: scalar::krp_axpy,
    scale_row_into: scalar::scale_row_into,
    axpy_fiber: scalar::axpy_fiber,
    gather_fiber: scalar::gather_fiber,
};

#[cfg(target_arch = "x86_64")]
static AVX2_OPS: RowOps = RowOps {
    krp_row: avx2::krp_row,
    hadamard_row: avx2::hadamard_row,
    axpy_row: avx2::axpy_row,
    krp_axpy: avx2::krp_axpy,
    scale_row_into: avx2::scale_row_into,
    axpy_fiber: avx2::axpy_fiber,
    gather_fiber: avx2::gather_fiber,
};

#[cfg(target_arch = "aarch64")]
static NEON_OPS: RowOps = RowOps {
    krp_row: neon::krp_row,
    hadamard_row: neon::hadamard_row,
    axpy_row: neon::axpy_row,
    krp_axpy: neon::krp_axpy,
    scale_row_into: neon::scale_row_into,
    axpy_fiber: neon::axpy_fiber,
    gather_fiber: neon::gather_fiber,
};

// ---------------------------------------------------------------------
// Kernel-set tokens (per-pass monomorphization)
// ---------------------------------------------------------------------

/// One concrete kernel set, named by a zero-sized token type.
///
/// The hot traversal bodies in `stef::kernels` are generic over this
/// trait: each is monomorphized once per ISA and entered through a
/// matching `#[target_feature]` wrapper. That hoists the per-row
/// dispatch branch of the `krp.rs` entry points out of the per-nonzero
/// loops entirely, and — more importantly — lets the
/// `#[target_feature]` implementations inline into the traversal: a
/// `#[target_feature]` function can only inline into callers that
/// already guarantee the same features, so going through the safe
/// per-row wrappers would leave a function call inside every scatter
/// loop.
pub trait RowKernels: Copy {
    /// `out = x ⊙ y`.
    fn krp_row(self, out: &mut [f64], x: &[f64], y: &[f64]);
    /// `acc += x ⊙ y`.
    fn hadamard_row(self, acc: &mut [f64], x: &[f64], y: &[f64]);
    /// `acc += s · x`.
    fn axpy_row(self, acc: &mut [f64], s: f64, x: &[f64]);
    /// `acc += (s · x) ⊙ y`.
    fn krp_axpy(self, acc: &mut [f64], s: f64, x: &[f64], y: &[f64]);
    /// `out = s · x`.
    fn scale_row_into(self, out: &mut [f64], s: f64, x: &[f64]);
    /// Fiber gather: `acc += Σⱼ vals[j] · rows[fids[j]·stride..][..R]`.
    fn axpy_fiber(self, acc: &mut [f64], vals: &[f64], fids: &[u32], rows: &[f64], stride: usize);
    /// Overwriting fiber gather: `out = Σⱼ vals[j] · rows[…]`.
    /// Accumulation starts from +0.0, so it is bit-identical to
    /// zero-filling `out` and calling [`Self::axpy_fiber`] — minus the
    /// fill's store sweep and the accumulator's initial reload.
    fn gather_fiber(self, out: &mut [f64], vals: &[f64], fids: &[u32], rows: &[f64], stride: usize);
}

/// The scalar kernel set. Always available.
#[derive(Clone, Copy)]
pub struct ScalarK;

impl RowKernels for ScalarK {
    #[inline(always)]
    fn krp_row(self, out: &mut [f64], x: &[f64], y: &[f64]) {
        scalar::krp_row(out, x, y)
    }
    #[inline(always)]
    fn hadamard_row(self, acc: &mut [f64], x: &[f64], y: &[f64]) {
        scalar::hadamard_row(acc, x, y)
    }
    #[inline(always)]
    fn axpy_row(self, acc: &mut [f64], s: f64, x: &[f64]) {
        scalar::axpy_row(acc, s, x)
    }
    #[inline(always)]
    fn krp_axpy(self, acc: &mut [f64], s: f64, x: &[f64], y: &[f64]) {
        scalar::krp_axpy(acc, s, x, y)
    }
    #[inline(always)]
    fn scale_row_into(self, out: &mut [f64], s: f64, x: &[f64]) {
        scalar::scale_row_into(out, s, x)
    }
    #[inline(always)]
    fn axpy_fiber(self, acc: &mut [f64], vals: &[f64], fids: &[u32], rows: &[f64], stride: usize) {
        scalar::axpy_fiber(acc, vals, fids, rows, stride)
    }
    #[inline(always)]
    fn gather_fiber(self, out: &mut [f64], vals: &[f64], fids: &[u32], rows: &[f64], stride: usize) {
        scalar::gather_fiber(out, vals, fids, rows, stride)
    }
}

/// The AVX2+FMA kernel set. Constructing one is the availability
/// proof, so the trait methods enter the `#[target_feature]`
/// implementations directly — no per-call check, and full inlining
/// when the caller itself is an `avx2,fma` region.
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy)]
pub struct Avx2K(());

#[cfg(target_arch = "x86_64")]
impl Avx2K {
    /// # Safety
    ///
    /// The CPU must support avx2 and fma. Dispatchers uphold this by
    /// construction: [`active`] and [`apply`] never select an
    /// unavailable path.
    #[inline(always)]
    pub unsafe fn new_unchecked() -> Self {
        debug_assert!(SimdPath::Avx2.available());
        Avx2K(())
    }
}

#[cfg(target_arch = "x86_64")]
impl RowKernels for Avx2K {
    #[inline(always)]
    fn krp_row(self, out: &mut [f64], x: &[f64], y: &[f64]) {
        // SAFETY: avx2+fma guaranteed by `new_unchecked`'s contract.
        unsafe { avx2::krp_row_impl(out, x, y) }
    }
    #[inline(always)]
    fn hadamard_row(self, acc: &mut [f64], x: &[f64], y: &[f64]) {
        // SAFETY: as above.
        unsafe { avx2::hadamard_row_impl(acc, x, y) }
    }
    #[inline(always)]
    fn axpy_row(self, acc: &mut [f64], s: f64, x: &[f64]) {
        // SAFETY: as above.
        unsafe { avx2::axpy_row_impl(acc, s, x) }
    }
    #[inline(always)]
    fn krp_axpy(self, acc: &mut [f64], s: f64, x: &[f64], y: &[f64]) {
        // SAFETY: as above.
        unsafe { avx2::krp_axpy_impl(acc, s, x, y) }
    }
    #[inline(always)]
    fn scale_row_into(self, out: &mut [f64], s: f64, x: &[f64]) {
        // SAFETY: as above.
        unsafe { avx2::scale_row_into_impl(out, s, x) }
    }
    #[inline(always)]
    fn axpy_fiber(self, acc: &mut [f64], vals: &[f64], fids: &[u32], rows: &[f64], stride: usize) {
        // SAFETY: as above.
        unsafe { avx2::axpy_fiber_impl(acc, vals, fids, rows, stride) }
    }
    #[inline(always)]
    fn gather_fiber(self, out: &mut [f64], vals: &[f64], fids: &[u32], rows: &[f64], stride: usize) {
        // SAFETY: as above.
        unsafe { avx2::gather_fiber_impl(out, vals, fids, rows, stride) }
    }
}

/// The NEON kernel set — the aarch64 baseline, so freely constructible.
#[cfg(target_arch = "aarch64")]
#[derive(Clone, Copy)]
pub struct NeonK;

#[cfg(target_arch = "aarch64")]
impl RowKernels for NeonK {
    #[inline(always)]
    fn krp_row(self, out: &mut [f64], x: &[f64], y: &[f64]) {
        neon::krp_row(out, x, y)
    }
    #[inline(always)]
    fn hadamard_row(self, acc: &mut [f64], x: &[f64], y: &[f64]) {
        neon::hadamard_row(acc, x, y)
    }
    #[inline(always)]
    fn axpy_row(self, acc: &mut [f64], s: f64, x: &[f64]) {
        neon::axpy_row(acc, s, x)
    }
    #[inline(always)]
    fn krp_axpy(self, acc: &mut [f64], s: f64, x: &[f64], y: &[f64]) {
        neon::krp_axpy(acc, s, x, y)
    }
    #[inline(always)]
    fn scale_row_into(self, out: &mut [f64], s: f64, x: &[f64]) {
        neon::scale_row_into(out, s, x)
    }
    #[inline(always)]
    fn axpy_fiber(self, acc: &mut [f64], vals: &[f64], fids: &[u32], rows: &[f64], stride: usize) {
        neon::axpy_fiber(acc, vals, fids, rows, stride)
    }
    #[inline(always)]
    fn gather_fiber(self, out: &mut [f64], vals: &[f64], fids: &[u32], rows: &[f64], stride: usize) {
        neon::gather_fiber(out, vals, fids, rows, stride)
    }
}

/// Scalar reference implementations — the exact pre-SIMD bodies from
/// `krp.rs`, kept bit-identical so `STEF_SIMD=scalar` reproduces the
/// historical results of a plain `cargo build --release`.
pub mod scalar {
    /// Rank-block width of the scalar row primitives: 8 f64 lanes give
    /// LLVM a fixed-trip inner loop it reliably turns into packed math
    /// when the compile-time target allows it.
    const LANES: usize = 8;

    /// Fused multiply-add `a·b + c` — a real `vfma` only when the
    /// *compile-time* target guarantees one. Without the `fma` feature,
    /// `f64::mul_add` lowers to a (slow, non-vectorizable) libm call,
    /// so we fall back to the plain two-rounding form, which also keeps
    /// results bit-identical with the pre-vectorization kernels. The
    /// runtime-dispatched AVX2/NEON paths in this module's siblings
    /// supersede this compile-time gate: they always fuse, and are
    /// selected per process instead of per build.
    #[inline(always)]
    pub(crate) fn fmadd(a: f64, b: f64, c: f64) -> f64 {
        #[cfg(target_feature = "fma")]
        {
            a.mul_add(b, c)
        }
        #[cfg(not(target_feature = "fma"))]
        {
            a * b + c
        }
    }

    /// `out = x ⊙ y`.
    #[inline]
    pub fn krp_row(out: &mut [f64], x: &[f64], y: &[f64]) {
        debug_assert_eq!(out.len(), x.len());
        debug_assert_eq!(out.len(), y.len());
        let head = out.len() - out.len() % LANES;
        let (oh, ot) = out.split_at_mut(head);
        let (xh, xt) = x.split_at(head);
        let (yh, yt) = y.split_at(head);
        for ((o, a), b) in oh
            .chunks_exact_mut(LANES)
            .zip(xh.chunks_exact(LANES))
            .zip(yh.chunks_exact(LANES))
        {
            for l in 0..LANES {
                o[l] = a[l] * b[l];
            }
        }
        for ((o, &a), &b) in ot.iter_mut().zip(xt).zip(yt) {
            *o = a * b;
        }
    }

    /// `acc += x ⊙ y`.
    #[inline]
    pub fn hadamard_row(acc: &mut [f64], x: &[f64], y: &[f64]) {
        debug_assert_eq!(acc.len(), x.len());
        debug_assert_eq!(acc.len(), y.len());
        let head = acc.len() - acc.len() % LANES;
        let (ah, at) = acc.split_at_mut(head);
        let (xh, xt) = x.split_at(head);
        let (yh, yt) = y.split_at(head);
        for ((a, b), c) in ah
            .chunks_exact_mut(LANES)
            .zip(xh.chunks_exact(LANES))
            .zip(yh.chunks_exact(LANES))
        {
            for l in 0..LANES {
                a[l] = fmadd(b[l], c[l], a[l]);
            }
        }
        for ((a, &b), &c) in at.iter_mut().zip(xt).zip(yt) {
            *a = fmadd(b, c, *a);
        }
    }

    /// `acc += s · x`.
    #[inline]
    pub fn axpy_row(acc: &mut [f64], s: f64, x: &[f64]) {
        debug_assert_eq!(acc.len(), x.len());
        let head = acc.len() - acc.len() % LANES;
        let (ah, at) = acc.split_at_mut(head);
        let (xh, xt) = x.split_at(head);
        for (a, b) in ah.chunks_exact_mut(LANES).zip(xh.chunks_exact(LANES)) {
            for l in 0..LANES {
                a[l] = fmadd(s, b[l], a[l]);
            }
        }
        for (a, &b) in at.iter_mut().zip(xt) {
            *a = fmadd(s, b, *a);
        }
    }

    /// `acc += (s · x) ⊙ y`, associated as `(s·xᵢ)·yᵢ` so the roundings
    /// match the unfused scale-then-hadamard sequence exactly.
    #[inline]
    pub fn krp_axpy(acc: &mut [f64], s: f64, x: &[f64], y: &[f64]) {
        debug_assert_eq!(acc.len(), x.len());
        debug_assert_eq!(acc.len(), y.len());
        let head = acc.len() - acc.len() % LANES;
        let (ah, at) = acc.split_at_mut(head);
        let (xh, xt) = x.split_at(head);
        let (yh, yt) = y.split_at(head);
        for ((a, b), c) in ah
            .chunks_exact_mut(LANES)
            .zip(xh.chunks_exact(LANES))
            .zip(yh.chunks_exact(LANES))
        {
            for l in 0..LANES {
                a[l] = fmadd(s * b[l], c[l], a[l]);
            }
        }
        for ((a, &b), &c) in at.iter_mut().zip(xt).zip(yt) {
            *a = fmadd(s * b, c, *a);
        }
    }

    /// `out = s · x`.
    #[inline]
    pub fn scale_row_into(out: &mut [f64], s: f64, x: &[f64]) {
        debug_assert_eq!(out.len(), x.len());
        let head = out.len() - out.len() % LANES;
        let (oh, ot) = out.split_at_mut(head);
        let (xh, xt) = x.split_at(head);
        for (o, b) in oh.chunks_exact_mut(LANES).zip(xh.chunks_exact(LANES)) {
            for l in 0..LANES {
                o[l] = s * b[l];
            }
        }
        for (o, &b) in ot.iter_mut().zip(xt) {
            *o = s * b;
        }
    }

    /// `acc += Σⱼ vals[j] · rows[fids[j]·stride ..][..R]` — one fiber's
    /// whole non-zero run gathered into a single accumulator row.
    /// Written as the literal per-nnz `axpy_row` sequence, so it is
    /// bit-identical to the loop it replaces in the kernels.
    #[inline]
    pub fn axpy_fiber(acc: &mut [f64], vals: &[f64], fids: &[u32], rows: &[f64], stride: usize) {
        debug_assert_eq!(vals.len(), fids.len());
        for (&v, &f) in vals.iter().zip(fids) {
            let o = f as usize * stride;
            axpy_row(acc, v, &rows[o..o + acc.len()]);
        }
    }

    /// `out = Σⱼ vals[j] · rows[fids[j]·stride ..][..R]` — the
    /// overwriting form of [`axpy_fiber`]. Literally the historical
    /// zero-then-accumulate sequence, so it stays the bitwise
    /// reference for the register-resident SIMD versions.
    #[inline]
    pub fn gather_fiber(out: &mut [f64], vals: &[f64], fids: &[u32], rows: &[f64], stride: usize) {
        out.fill(0.0);
        axpy_fiber(out, vals, fids, rows, stride)
    }
}

/// AVX2+FMA implementations. The safe wrappers assert availability —
/// the dispatcher guarantees it, the assert keeps direct (test) calls
/// sound — then enter `#[target_feature]` code. Main loops run 8 lanes
/// (two 256-bit registers) per iteration, then 4, then a scalar tail
/// whose `mul_add` still fuses (we are inside an `fma` region), so the
/// whole row rounds identically regardless of where the tail starts.
#[cfg(target_arch = "x86_64")]
pub mod avx2 {
    use super::SimdPath;
    use core::arch::x86_64::*;

    #[inline]
    fn check() {
        assert!(
            SimdPath::Avx2.available(),
            "avx2 kernels called on a CPU without avx2+fma"
        );
    }

    #[inline]
    pub fn krp_row(out: &mut [f64], x: &[f64], y: &[f64]) {
        check();
        // SAFETY: avx2+fma availability asserted above.
        unsafe { krp_row_impl(out, x, y) }
    }

    #[inline]
    pub fn hadamard_row(acc: &mut [f64], x: &[f64], y: &[f64]) {
        check();
        // SAFETY: as above.
        unsafe { hadamard_row_impl(acc, x, y) }
    }

    #[inline]
    pub fn axpy_row(acc: &mut [f64], s: f64, x: &[f64]) {
        check();
        // SAFETY: as above.
        unsafe { axpy_row_impl(acc, s, x) }
    }

    #[inline]
    pub fn krp_axpy(acc: &mut [f64], s: f64, x: &[f64], y: &[f64]) {
        check();
        // SAFETY: as above.
        unsafe { krp_axpy_impl(acc, s, x, y) }
    }

    #[inline]
    pub fn scale_row_into(out: &mut [f64], s: f64, x: &[f64]) {
        check();
        // SAFETY: as above.
        unsafe { scale_row_into_impl(out, s, x) }
    }

    #[inline]
    pub fn axpy_fiber(acc: &mut [f64], vals: &[f64], fids: &[u32], rows: &[f64], stride: usize) {
        check();
        // SAFETY: as above.
        unsafe { axpy_fiber_impl(acc, vals, fids, rows, stride) }
    }

    #[inline]
    pub fn gather_fiber(out: &mut [f64], vals: &[f64], fids: &[u32], rows: &[f64], stride: usize) {
        check();
        // SAFETY: as above.
        unsafe { gather_fiber_impl(out, vals, fids, rows, stride) }
    }

    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn krp_row_impl(out: &mut [f64], x: &[f64], y: &[f64]) {
        debug_assert_eq!(out.len(), x.len());
        debug_assert_eq!(out.len(), y.len());
        let n = out.len();
        let (o, a, b) = (out.as_mut_ptr(), x.as_ptr(), y.as_ptr());
        let mut i = 0;
        while i + 8 <= n {
            let p0 = _mm256_mul_pd(_mm256_loadu_pd(a.add(i)), _mm256_loadu_pd(b.add(i)));
            let p1 = _mm256_mul_pd(_mm256_loadu_pd(a.add(i + 4)), _mm256_loadu_pd(b.add(i + 4)));
            _mm256_storeu_pd(o.add(i), p0);
            _mm256_storeu_pd(o.add(i + 4), p1);
            i += 8;
        }
        if i + 4 <= n {
            let p = _mm256_mul_pd(_mm256_loadu_pd(a.add(i)), _mm256_loadu_pd(b.add(i)));
            _mm256_storeu_pd(o.add(i), p);
            i += 4;
        }
        while i < n {
            *o.add(i) = *a.add(i) * *b.add(i);
            i += 1;
        }
    }

    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn hadamard_row_impl(acc: &mut [f64], x: &[f64], y: &[f64]) {
        debug_assert_eq!(acc.len(), x.len());
        debug_assert_eq!(acc.len(), y.len());
        let n = acc.len();
        let (o, a, b) = (acc.as_mut_ptr(), x.as_ptr(), y.as_ptr());
        let mut i = 0;
        while i + 8 <= n {
            let r0 = _mm256_fmadd_pd(
                _mm256_loadu_pd(a.add(i)),
                _mm256_loadu_pd(b.add(i)),
                _mm256_loadu_pd(o.add(i)),
            );
            let r1 = _mm256_fmadd_pd(
                _mm256_loadu_pd(a.add(i + 4)),
                _mm256_loadu_pd(b.add(i + 4)),
                _mm256_loadu_pd(o.add(i + 4)),
            );
            _mm256_storeu_pd(o.add(i), r0);
            _mm256_storeu_pd(o.add(i + 4), r1);
            i += 8;
        }
        if i + 4 <= n {
            let r = _mm256_fmadd_pd(
                _mm256_loadu_pd(a.add(i)),
                _mm256_loadu_pd(b.add(i)),
                _mm256_loadu_pd(o.add(i)),
            );
            _mm256_storeu_pd(o.add(i), r);
            i += 4;
        }
        while i < n {
            *o.add(i) = (*a.add(i)).mul_add(*b.add(i), *o.add(i));
            i += 1;
        }
    }

    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn axpy_row_impl(acc: &mut [f64], s: f64, x: &[f64]) {
        debug_assert_eq!(acc.len(), x.len());
        let n = acc.len();
        let (o, a) = (acc.as_mut_ptr(), x.as_ptr());
        let vs = _mm256_set1_pd(s);
        let mut i = 0;
        while i + 8 <= n {
            let r0 = _mm256_fmadd_pd(vs, _mm256_loadu_pd(a.add(i)), _mm256_loadu_pd(o.add(i)));
            let r1 = _mm256_fmadd_pd(
                vs,
                _mm256_loadu_pd(a.add(i + 4)),
                _mm256_loadu_pd(o.add(i + 4)),
            );
            _mm256_storeu_pd(o.add(i), r0);
            _mm256_storeu_pd(o.add(i + 4), r1);
            i += 8;
        }
        if i + 4 <= n {
            let r = _mm256_fmadd_pd(vs, _mm256_loadu_pd(a.add(i)), _mm256_loadu_pd(o.add(i)));
            _mm256_storeu_pd(o.add(i), r);
            i += 4;
        }
        while i < n {
            *o.add(i) = s.mul_add(*a.add(i), *o.add(i));
            i += 1;
        }
    }

    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn krp_axpy_impl(acc: &mut [f64], s: f64, x: &[f64], y: &[f64]) {
        debug_assert_eq!(acc.len(), x.len());
        debug_assert_eq!(acc.len(), y.len());
        let n = acc.len();
        let (o, a, b) = (acc.as_mut_ptr(), x.as_ptr(), y.as_ptr());
        let vs = _mm256_set1_pd(s);
        // (s·x) rounds once whether or not the trailing add fuses, so
        // mul-then-fmadd matches the unfused scale/hadamard sequence.
        let mut i = 0;
        while i + 8 <= n {
            let sx0 = _mm256_mul_pd(vs, _mm256_loadu_pd(a.add(i)));
            let sx1 = _mm256_mul_pd(vs, _mm256_loadu_pd(a.add(i + 4)));
            let r0 = _mm256_fmadd_pd(sx0, _mm256_loadu_pd(b.add(i)), _mm256_loadu_pd(o.add(i)));
            let r1 = _mm256_fmadd_pd(
                sx1,
                _mm256_loadu_pd(b.add(i + 4)),
                _mm256_loadu_pd(o.add(i + 4)),
            );
            _mm256_storeu_pd(o.add(i), r0);
            _mm256_storeu_pd(o.add(i + 4), r1);
            i += 8;
        }
        if i + 4 <= n {
            let sx = _mm256_mul_pd(vs, _mm256_loadu_pd(a.add(i)));
            let r = _mm256_fmadd_pd(sx, _mm256_loadu_pd(b.add(i)), _mm256_loadu_pd(o.add(i)));
            _mm256_storeu_pd(o.add(i), r);
            i += 4;
        }
        while i < n {
            *o.add(i) = (s * *a.add(i)).mul_add(*b.add(i), *o.add(i));
            i += 1;
        }
    }

    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn scale_row_into_impl(out: &mut [f64], s: f64, x: &[f64]) {
        debug_assert_eq!(out.len(), x.len());
        let n = out.len();
        let (o, a) = (out.as_mut_ptr(), x.as_ptr());
        let vs = _mm256_set1_pd(s);
        let mut i = 0;
        while i + 8 <= n {
            _mm256_storeu_pd(o.add(i), _mm256_mul_pd(vs, _mm256_loadu_pd(a.add(i))));
            _mm256_storeu_pd(o.add(i + 4), _mm256_mul_pd(vs, _mm256_loadu_pd(a.add(i + 4))));
            i += 8;
        }
        if i + 4 <= n {
            _mm256_storeu_pd(o.add(i), _mm256_mul_pd(vs, _mm256_loadu_pd(a.add(i))));
            i += 4;
        }
        while i < n {
            *o.add(i) = s * *a.add(i);
            i += 1;
        }
    }

    /// How many non-zeros ahead the fiber gather prefetches factor rows.
    const PREFETCH_AHEAD: usize = 4;

    /// Fused fiber gather: the accumulator block stays in registers
    /// across the whole non-zero run (the streaming root-mode emitter),
    /// instead of a load/fma/store round trip per non-zero. Rank is
    /// blocked 8-at-a-time; the first block's pass also prefetches
    /// upcoming factor rows, later blocks find them in L1. Per element,
    /// contributions still accumulate in non-zero order, so results are
    /// bit-identical to the per-nnz `axpy_row` sequence on this path.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn axpy_fiber_impl(
        acc: &mut [f64],
        vals: &[f64],
        fids: &[u32],
        rows: &[f64],
        stride: usize,
    ) {
        let r = acc.len();
        let n = vals.len();
        debug_assert_eq!(n, fids.len());
        debug_assert!(r <= stride || n == 0);
        let o = acc.as_mut_ptr();
        let base = rows.as_ptr();
        let mut k = 0;
        let mut first = true;
        while k + 8 <= r {
            let mut a0 = _mm256_loadu_pd(o.add(k));
            let mut a1 = _mm256_loadu_pd(o.add(k + 4));
            for j in 0..n {
                if first && j + PREFETCH_AHEAD < n {
                    let f = *fids.get_unchecked(j + PREFETCH_AHEAD) as usize;
                    debug_assert!(f * stride + r <= rows.len());
                    _mm_prefetch(base.add(f * stride) as *const i8, _MM_HINT_T0);
                }
                let f = *fids.get_unchecked(j) as usize;
                debug_assert!(f * stride + r <= rows.len());
                let row = base.add(f * stride + k);
                let vs = _mm256_set1_pd(*vals.get_unchecked(j));
                a0 = _mm256_fmadd_pd(vs, _mm256_loadu_pd(row), a0);
                a1 = _mm256_fmadd_pd(vs, _mm256_loadu_pd(row.add(4)), a1);
            }
            _mm256_storeu_pd(o.add(k), a0);
            _mm256_storeu_pd(o.add(k + 4), a1);
            k += 8;
            first = false;
        }
        if k + 4 <= r {
            let mut a0 = _mm256_loadu_pd(o.add(k));
            for j in 0..n {
                if first && j + PREFETCH_AHEAD < n {
                    let f = *fids.get_unchecked(j + PREFETCH_AHEAD) as usize;
                    _mm_prefetch(base.add(f * stride) as *const i8, _MM_HINT_T0);
                }
                let f = *fids.get_unchecked(j) as usize;
                debug_assert!(f * stride + r <= rows.len());
                let vs = _mm256_set1_pd(*vals.get_unchecked(j));
                a0 = _mm256_fmadd_pd(vs, _mm256_loadu_pd(base.add(f * stride + k)), a0);
            }
            _mm256_storeu_pd(o.add(k), a0);
            k += 4;
        }
        while k < r {
            let mut a = *o.add(k);
            for j in 0..n {
                let f = *fids.get_unchecked(j) as usize;
                a = (*vals.get_unchecked(j)).mul_add(*base.add(f * stride + k), a);
            }
            *o.add(k) = a;
            k += 1;
        }
    }

    /// Overwriting fiber gather: [`axpy_fiber_impl`] with the
    /// accumulator block starting from +0.0 registers instead of a
    /// zero-filled row that is immediately reloaded. The first fused
    /// multiply-add sees the same +0.0 addend, so results are
    /// bit-identical to `out.fill(0.0)` + `axpy_fiber`.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn gather_fiber_impl(
        out: &mut [f64],
        vals: &[f64],
        fids: &[u32],
        rows: &[f64],
        stride: usize,
    ) {
        let r = out.len();
        let n = vals.len();
        debug_assert_eq!(n, fids.len());
        debug_assert!(r <= stride || n == 0);
        let o = out.as_mut_ptr();
        let base = rows.as_ptr();
        let mut k = 0;
        let mut first = true;
        while k + 8 <= r {
            let mut a0 = _mm256_setzero_pd();
            let mut a1 = _mm256_setzero_pd();
            for j in 0..n {
                if first && j + PREFETCH_AHEAD < n {
                    let f = *fids.get_unchecked(j + PREFETCH_AHEAD) as usize;
                    debug_assert!(f * stride + r <= rows.len());
                    _mm_prefetch(base.add(f * stride) as *const i8, _MM_HINT_T0);
                }
                let f = *fids.get_unchecked(j) as usize;
                debug_assert!(f * stride + r <= rows.len());
                let row = base.add(f * stride + k);
                let vs = _mm256_set1_pd(*vals.get_unchecked(j));
                a0 = _mm256_fmadd_pd(vs, _mm256_loadu_pd(row), a0);
                a1 = _mm256_fmadd_pd(vs, _mm256_loadu_pd(row.add(4)), a1);
            }
            _mm256_storeu_pd(o.add(k), a0);
            _mm256_storeu_pd(o.add(k + 4), a1);
            k += 8;
            first = false;
        }
        if k + 4 <= r {
            let mut a0 = _mm256_setzero_pd();
            for j in 0..n {
                if first && j + PREFETCH_AHEAD < n {
                    let f = *fids.get_unchecked(j + PREFETCH_AHEAD) as usize;
                    _mm_prefetch(base.add(f * stride) as *const i8, _MM_HINT_T0);
                }
                let f = *fids.get_unchecked(j) as usize;
                debug_assert!(f * stride + r <= rows.len());
                let vs = _mm256_set1_pd(*vals.get_unchecked(j));
                a0 = _mm256_fmadd_pd(vs, _mm256_loadu_pd(base.add(f * stride + k)), a0);
            }
            _mm256_storeu_pd(o.add(k), a0);
            k += 4;
        }
        while k < r {
            let mut a = 0.0;
            for j in 0..n {
                let f = *fids.get_unchecked(j) as usize;
                a = (*vals.get_unchecked(j)).mul_add(*base.add(f * stride + k), a);
            }
            *o.add(k) = a;
            k += 1;
        }
    }
}

/// NEON implementations (aarch64 baseline, so always available there).
/// Main loops run 8 lanes (four 128-bit registers) per iteration, then
/// 2, then a scalar tail; aarch64 `mul_add` is a single `fmadd`, so the
/// tail fuses exactly like the vector body.
#[cfg(target_arch = "aarch64")]
#[allow(unused_unsafe)]
pub mod neon {
    use core::arch::aarch64::*;

    #[inline]
    pub fn krp_row(out: &mut [f64], x: &[f64], y: &[f64]) {
        debug_assert_eq!(out.len(), x.len());
        debug_assert_eq!(out.len(), y.len());
        let n = out.len();
        let (o, a, b) = (out.as_mut_ptr(), x.as_ptr(), y.as_ptr());
        let mut i = 0;
        // SAFETY: in-bounds loads/stores; NEON is the aarch64 baseline.
        unsafe {
            while i + 2 <= n {
                vst1q_f64(o.add(i), vmulq_f64(vld1q_f64(a.add(i)), vld1q_f64(b.add(i))));
                i += 2;
            }
            if i < n {
                *o.add(i) = *a.add(i) * *b.add(i);
            }
        }
    }

    #[inline]
    pub fn hadamard_row(acc: &mut [f64], x: &[f64], y: &[f64]) {
        debug_assert_eq!(acc.len(), x.len());
        debug_assert_eq!(acc.len(), y.len());
        let n = acc.len();
        let (o, a, b) = (acc.as_mut_ptr(), x.as_ptr(), y.as_ptr());
        let mut i = 0;
        // SAFETY: as above.
        unsafe {
            while i + 8 <= n {
                for q in 0..4 {
                    let p = i + 2 * q;
                    vst1q_f64(
                        o.add(p),
                        vfmaq_f64(vld1q_f64(o.add(p)), vld1q_f64(a.add(p)), vld1q_f64(b.add(p))),
                    );
                }
                i += 8;
            }
            while i + 2 <= n {
                vst1q_f64(
                    o.add(i),
                    vfmaq_f64(vld1q_f64(o.add(i)), vld1q_f64(a.add(i)), vld1q_f64(b.add(i))),
                );
                i += 2;
            }
            if i < n {
                *o.add(i) = (*a.add(i)).mul_add(*b.add(i), *o.add(i));
            }
        }
    }

    #[inline]
    pub fn axpy_row(acc: &mut [f64], s: f64, x: &[f64]) {
        debug_assert_eq!(acc.len(), x.len());
        let n = acc.len();
        let (o, a) = (acc.as_mut_ptr(), x.as_ptr());
        let mut i = 0;
        // SAFETY: as above.
        unsafe {
            let vs = vdupq_n_f64(s);
            while i + 8 <= n {
                for q in 0..4 {
                    let p = i + 2 * q;
                    vst1q_f64(o.add(p), vfmaq_f64(vld1q_f64(o.add(p)), vs, vld1q_f64(a.add(p))));
                }
                i += 8;
            }
            while i + 2 <= n {
                vst1q_f64(o.add(i), vfmaq_f64(vld1q_f64(o.add(i)), vs, vld1q_f64(a.add(i))));
                i += 2;
            }
            if i < n {
                *o.add(i) = s.mul_add(*a.add(i), *o.add(i));
            }
        }
    }

    #[inline]
    pub fn krp_axpy(acc: &mut [f64], s: f64, x: &[f64], y: &[f64]) {
        debug_assert_eq!(acc.len(), x.len());
        debug_assert_eq!(acc.len(), y.len());
        let n = acc.len();
        let (o, a, b) = (acc.as_mut_ptr(), x.as_ptr(), y.as_ptr());
        let mut i = 0;
        // SAFETY: as above. (s·x) rounds once either way, so
        // mul-then-fma matches the unfused sequence.
        unsafe {
            let vs = vdupq_n_f64(s);
            while i + 2 <= n {
                let sx = vmulq_f64(vs, vld1q_f64(a.add(i)));
                vst1q_f64(o.add(i), vfmaq_f64(vld1q_f64(o.add(i)), sx, vld1q_f64(b.add(i))));
                i += 2;
            }
            if i < n {
                *o.add(i) = (s * *a.add(i)).mul_add(*b.add(i), *o.add(i));
            }
        }
    }

    #[inline]
    pub fn scale_row_into(out: &mut [f64], s: f64, x: &[f64]) {
        debug_assert_eq!(out.len(), x.len());
        let n = out.len();
        let (o, a) = (out.as_mut_ptr(), x.as_ptr());
        let mut i = 0;
        // SAFETY: as above.
        unsafe {
            let vs = vdupq_n_f64(s);
            while i + 2 <= n {
                vst1q_f64(o.add(i), vmulq_f64(vs, vld1q_f64(a.add(i))));
                i += 2;
            }
            if i < n {
                *o.add(i) = s * *a.add(i);
            }
        }
    }

    /// Fiber gather with register-resident accumulators, rank blocked
    /// 8-at-a-time (four q-registers). Same per-element accumulation
    /// order as the per-nnz sequence.
    #[inline]
    pub fn axpy_fiber(acc: &mut [f64], vals: &[f64], fids: &[u32], rows: &[f64], stride: usize) {
        let r = acc.len();
        let n = vals.len();
        debug_assert_eq!(n, fids.len());
        let o = acc.as_mut_ptr();
        let base = rows.as_ptr();
        let mut k = 0;
        // SAFETY: every fid row is in bounds per the caller's CSF
        // invariants (debug-checked); NEON is the aarch64 baseline.
        unsafe {
            while k + 8 <= r {
                let mut a0 = vld1q_f64(o.add(k));
                let mut a1 = vld1q_f64(o.add(k + 2));
                let mut a2 = vld1q_f64(o.add(k + 4));
                let mut a3 = vld1q_f64(o.add(k + 6));
                for j in 0..n {
                    let f = *fids.get_unchecked(j) as usize;
                    debug_assert!(f * stride + r <= rows.len());
                    let row = base.add(f * stride + k);
                    let vs = vdupq_n_f64(*vals.get_unchecked(j));
                    a0 = vfmaq_f64(a0, vs, vld1q_f64(row));
                    a1 = vfmaq_f64(a1, vs, vld1q_f64(row.add(2)));
                    a2 = vfmaq_f64(a2, vs, vld1q_f64(row.add(4)));
                    a3 = vfmaq_f64(a3, vs, vld1q_f64(row.add(6)));
                }
                vst1q_f64(o.add(k), a0);
                vst1q_f64(o.add(k + 2), a1);
                vst1q_f64(o.add(k + 4), a2);
                vst1q_f64(o.add(k + 6), a3);
                k += 8;
            }
            while k + 2 <= r {
                let mut a0 = vld1q_f64(o.add(k));
                for j in 0..n {
                    let f = *fids.get_unchecked(j) as usize;
                    let vs = vdupq_n_f64(*vals.get_unchecked(j));
                    a0 = vfmaq_f64(a0, vs, vld1q_f64(base.add(f * stride + k)));
                }
                vst1q_f64(o.add(k), a0);
                k += 2;
            }
            if k < r {
                let mut a = *o.add(k);
                for j in 0..n {
                    let f = *fids.get_unchecked(j) as usize;
                    a = (*vals.get_unchecked(j)).mul_add(*base.add(f * stride + k), a);
                }
                *o.add(k) = a;
            }
        }
    }

    /// Overwriting fiber gather. Accumulation starts from +0.0, so it
    /// is bit-identical to zero-filling `out` then calling
    /// [`axpy_fiber`]; composing the two keeps that equivalence by
    /// construction (the vector bodies already hold the accumulators
    /// in registers across the run).
    #[inline]
    pub fn gather_fiber(out: &mut [f64], vals: &[f64], fids: &[u32], rows: &[f64], stride: usize) {
        out.fill(0.0);
        axpy_fiber(out, vals, fids, rows, stride)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ragged_inputs(n: usize, salt: u64) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
        let f = |i: usize, m: u64| {
            let x = (i as u64 + 1)
                .wrapping_mul(salt | 1)
                .wrapping_mul(m)
                .wrapping_mul(6364136223846793005);
            ((x >> 40) % 2000) as f64 / 500.0 - 2.0
        };
        let acc: Vec<f64> = (0..n).map(|i| f(i, 3)).collect();
        let x: Vec<f64> = (0..n).map(|i| f(i, 5)).collect();
        let y: Vec<f64> = (0..n).map(|i| f(i, 7)).collect();
        (acc, x, y)
    }

    fn close(a: &[f64], b: &[f64], what: &str) {
        for (i, (&p, &q)) in a.iter().zip(b).enumerate() {
            assert!(
                crate::approx_eq(p, q, 1e-12),
                "{what}[{i}]: {p} vs {q}"
            );
        }
    }

    #[test]
    fn parse_and_display_round_trip() {
        for p in SimdPath::ALL {
            assert_eq!(SimdPath::parse(p.as_str()), Some(p));
        }
        assert_eq!(SimdPolicy::parse("auto"), Some(SimdPolicy::Auto));
        assert_eq!(
            SimdPolicy::parse("avx2"),
            Some(SimdPolicy::Force(SimdPath::Avx2))
        );
        assert_eq!(SimdPolicy::parse("sse9"), None);
    }

    #[test]
    fn active_path_is_available() {
        let p = active();
        assert!(p.available(), "active path {p} must be runnable");
        assert!(describe().contains(p.as_str()));
    }

    #[test]
    fn unavailable_paths_have_no_ops() {
        for p in SimdPath::ALL {
            assert_eq!(ops_for(p).is_some(), p.available(), "{p}");
        }
    }

    #[test]
    fn every_available_variant_matches_scalar_on_ragged_lengths() {
        let stride = 33; // deliberately unaligned row stride
        for n in [0usize, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 24, 31, 32, 33] {
            let (acc0, x, y) = ragged_inputs(n, 11);
            // A small factor-matrix block for the fiber gather.
            let rows: Vec<f64> = (0..8 * stride)
                .map(|i| ((i * 37 + 11) % 97) as f64 / 48.5 - 1.0)
                .collect();
            let fids: Vec<u32> = (0..6).map(|j| (j * 5 % 8) as u32).collect();
            let vals: Vec<f64> = (0..6).map(|j| 0.25 * j as f64 - 0.7).collect();
            let sc = ops_for(SimdPath::Scalar).unwrap();
            for p in SimdPath::ALL.into_iter().filter(|p| p.available()) {
                let ops = ops_for(p).unwrap();
                let (mut a_ref, mut a_got) = (acc0.clone(), acc0.clone());
                (sc.hadamard_row)(&mut a_ref, &x, &y);
                (ops.hadamard_row)(&mut a_got, &x, &y);
                close(&a_got, &a_ref, &format!("{p} hadamard n={n}"));

                let (mut a_ref, mut a_got) = (acc0.clone(), acc0.clone());
                (sc.axpy_row)(&mut a_ref, 1.75, &x);
                (ops.axpy_row)(&mut a_got, 1.75, &x);
                close(&a_got, &a_ref, &format!("{p} axpy n={n}"));

                let (mut a_ref, mut a_got) = (acc0.clone(), acc0.clone());
                (sc.krp_axpy)(&mut a_ref, -0.6, &x, &y);
                (ops.krp_axpy)(&mut a_got, -0.6, &x, &y);
                close(&a_got, &a_ref, &format!("{p} krp_axpy n={n}"));

                // Mul-only primitives round identically on every path:
                // exact equality, not tolerance.
                let (mut o_ref, mut o_got) = (vec![0.0; n], vec![1.0; n]);
                (sc.krp_row)(&mut o_ref, &x, &y);
                (ops.krp_row)(&mut o_got, &x, &y);
                assert_eq!(o_ref, o_got, "{p} krp_row n={n}");

                let (mut o_ref, mut o_got) = (vec![0.0; n], vec![1.0; n]);
                (sc.scale_row_into)(&mut o_ref, 0.3, &x);
                (ops.scale_row_into)(&mut o_got, 0.3, &x);
                assert_eq!(o_ref, o_got, "{p} scale n={n}");

                if n <= stride {
                    let (mut a_ref, mut a_got) = (acc0.clone(), acc0.clone());
                    (sc.axpy_fiber)(&mut a_ref, &vals, &fids, &rows, stride);
                    (ops.axpy_fiber)(&mut a_got, &vals, &fids, &rows, stride);
                    close(&a_got, &a_ref, &format!("{p} axpy_fiber r={n}"));
                }
            }
        }
    }

    #[test]
    fn fiber_gather_handles_empty_run() {
        let mut acc = vec![1.0, 2.0, 3.0];
        for p in SimdPath::ALL.into_iter().filter(|p| p.available()) {
            (ops_for(p).unwrap().axpy_fiber)(&mut acc, &[], &[], &[0.0; 4], 4);
            assert_eq!(acc, [1.0, 2.0, 3.0], "{p}");
        }
    }
}
