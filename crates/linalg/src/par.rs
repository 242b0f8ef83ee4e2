//! Pluggable parallel fan-out for the dense-algebra hot spots.
//!
//! `gram`, `matmul`, the normal-equations solve (and `sptensor`'s
//! swap-count pass) want the same execution primitive as the sparse
//! kernels: "run `f(i)` once for each task `0..tasks`, then join". The
//! persistent worker-pool runtime that provides this lives in
//! `stef-core`, which *depends on* this crate — so the pool cannot be
//! named here. Instead this module holds a plain function-pointer hook
//! ([`install_fanout`]). `stef-core` installs a bridge to its global
//! pool the first time `runtime::global()` is called (the `sync::fanout`
//! free function, the kernel convenience wrappers, the CLI's cancel
//! hook); from then on every dense fan-out runs on that pool. Building
//! an engine and running `cpd_als` does not call it, so in such a
//! process — and in builds that never touch `stef-core` — a
//! scoped-thread fallback with the same semantics runs at hardware
//! width, outside `STEF_NUM_THREADS` and the pool's cancel token and
//! counters.
//!
//! The hook is deliberately a `fn`, not a boxed closure: installing it
//! is a single atomic store, reading it is a single atomic load, and
//! dispatching through it allocates nothing.

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicUsize, Ordering};

/// The fan-out primitive: run `f(i)` exactly once for every
/// `i in 0..tasks`, returning only after all tasks completed.
pub type FanoutFn = fn(usize, &(dyn Fn(usize) + Sync));

static HOOK: AtomicUsize = AtomicUsize::new(0);

/// Installs the process-wide fan-out implementation. Later installs
/// overwrite earlier ones; concurrent readers see either hook, both of
/// which satisfy the fan-out contract.
pub fn install_fanout(hook: FanoutFn) {
    HOOK.store(hook as usize, Ordering::Release);
}

/// Available hardware parallelism, probed once. Chunking decisions in
/// `gram`/`matmul` use this — never the executor's worker count — so
/// the *decomposition* of the work (and therefore every floating-point
/// summation order) is identical no matter which hook runs it.
pub fn workers() -> usize {
    static HW: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *HW.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// Runs `f(i)` for every task `0..tasks` on the installed hook, or on
/// scoped threads (static contiguous blocks) when no hook is installed.
pub fn fanout(tasks: usize, f: &(dyn Fn(usize) + Sync)) {
    if tasks == 0 {
        return;
    }
    let h = HOOK.load(Ordering::Acquire);
    if h != 0 {
        // SAFETY: the address was stored from a real `FanoutFn` by
        // `install_fanout`; fn pointers round-trip through `usize` on
        // every supported target.
        let hook: FanoutFn = unsafe { std::mem::transmute::<usize, FanoutFn>(h) };
        hook(tasks, f);
        return;
    }
    let w = workers().clamp(1, tasks);
    if w == 1 {
        for i in 0..tasks {
            f(i);
        }
        return;
    }
    std::thread::scope(|scope| {
        for j in 1..w {
            let lo = j * tasks / w;
            let hi = (j + 1) * tasks / w;
            scope.spawn(move || {
                for i in lo..hi {
                    f(i);
                }
            });
        }
        for i in 0..tasks / w {
            f(i);
        }
    });
}

/// A flat buffer whose disjoint index ranges may be written concurrently
/// by multiple fan-out tasks (re-exported as `stef-core`'s
/// `sync::SharedSlice`). Rust's `&mut` aliasing rules cannot express
/// "each task owns a dynamic disjoint range", so the range accessors are
/// `unsafe` with a documented single-writer contract at every call site.
pub struct SharedSlice<'a, T> {
    data: &'a [UnsafeCell<T>],
}

// SAFETY: the caller owns the buffer for the duration of the parallel
// region, all access goes through the unsafe range accessors whose
// contract requires disjointness, and the fan-out's join provides the
// happens-before edge for subsequent sequential reads.
unsafe impl<T: Send> Sync for SharedSlice<'_, T> {}
unsafe impl<T: Send> Send for SharedSlice<'_, T> {}

impl<'a, T> SharedSlice<'a, T> {
    /// Wraps a mutable buffer.
    pub fn new(buf: &'a mut [T]) -> Self {
        // SAFETY: `UnsafeCell<T>` has the same layout as `T`, and we hold
        // the unique `&mut` to the buffer.
        let data = unsafe {
            std::slice::from_raw_parts(buf.as_ptr() as *const UnsafeCell<T>, buf.len())
        };
        SharedSlice { data }
    }

    /// Total element count.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the buffer is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Returns a mutable view of elements `lo..hi`.
    ///
    /// # Safety
    /// No other task may access any element of `lo..hi` (mutably or
    /// otherwise) while the returned slice is alive.
    #[inline]
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn range_mut(&self, lo: usize, hi: usize) -> &mut [T] {
        debug_assert!(lo <= hi && hi <= self.data.len());
        // SAFETY: in-bounds by the assert; exclusivity is the caller's
        // contract.
        unsafe { std::slice::from_raw_parts_mut(self.data[lo].get(), hi - lo) }
    }

    /// Returns a read-only view of elements `lo..hi`.
    ///
    /// # Safety
    /// No task may be writing any element of `lo..hi` concurrently.
    #[inline]
    pub unsafe fn range(&self, lo: usize, hi: usize) -> &[T] {
        debug_assert!(lo <= hi && hi <= self.data.len());
        // SAFETY: in-bounds by the assert; the absence of concurrent
        // writers is the caller's contract.
        unsafe { std::slice::from_raw_parts(self.data[lo].get(), hi - lo) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fallback_fanout_covers_each_task_once() {
        for tasks in [0usize, 1, 2, 3, 7, 33] {
            let hits: Vec<AtomicUsize> = (0..tasks).map(|_| AtomicUsize::new(0)).collect();
            fanout(tasks, &|i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
            for (i, h) in hits.iter().enumerate() {
                assert_eq!(h.load(Ordering::Relaxed), 1, "task {i} of {tasks}");
            }
        }
    }

    #[test]
    fn shared_slice_disjoint_ranges() {
        let mut buf = vec![0usize; 30];
        {
            let shared = SharedSlice::new(&mut buf);
            assert_eq!(shared.len(), 30);
            assert!(!shared.is_empty());
            fanout(3, &|i| {
                // SAFETY: each task owns a disjoint 10-element range.
                let part = unsafe { shared.range_mut(i * 10, (i + 1) * 10) };
                for (k, x) in part.iter_mut().enumerate() {
                    *x = i * 100 + k;
                }
            });
        }
        assert_eq!(buf[0], 0);
        assert_eq!(buf[10], 100);
        assert_eq!(buf[29], 209);
    }
}
