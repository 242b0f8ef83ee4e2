//! Shared mutable row buffers for the parallel kernels.
//!
//! The STeF kernels intentionally share one output/partial buffer between
//! worker tasks: the nnz-balanced schedule guarantees that *rows* are
//! owned by exactly one logical thread, except for replicated boundary
//! rows (shifted by thread id) and the root-mode output rows at thread
//! boundaries (updated atomically). Rust's `&mut` aliasing rules cannot
//! express "disjoint dynamic row ownership", so this module provides a
//! minimal, heavily documented escape hatch:
//!
//! * [`SharedRows`] wraps a `&mut [f64]` and hands out per-row `&mut`
//!   slices through a shared reference. Callers must uphold the
//!   row-disjointness invariant; debug builds cannot check it (ownership
//!   is a property of the schedule), so every call site documents why its
//!   rows are disjoint.
//! * [`atomic_add_row`] performs element-wise `+=` with relaxed
//!   compare-exchange loops on `f64` bits — the paper's "atomic updates
//!   at thread boundaries" (Algorithm 4, line 11). Relaxed ordering is
//!   sufficient because the only cross-thread communication is the value
//!   itself and the parallel region ends with a full join barrier.

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};

/// Acquires a mutex, recovering the guard if a previous holder panicked.
///
/// Every lock in the runtime protects state that stays consistent across
/// a panic (empty critical sections used as wakeup fences, counters,
/// join-handle slots), so poisoning carries no information here — and
/// propagating it would let one worker panic take down every later
/// dispatch. The hardened pool therefore never `unwrap()`s a lock.
pub fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// `Condvar::wait` with the same poison-recovery policy as
/// [`lock_unpoisoned`].
pub fn wait_unpoisoned<'a, T>(cv: &Condvar, g: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cv.wait(g).unwrap_or_else(|e| e.into_inner())
}

/// `Condvar::wait_timeout` with the same poison-recovery policy as
/// [`lock_unpoisoned`]. The timeout-vs-notify distinction is dropped:
/// callers that park on a heartbeat re-check their predicate either way.
pub fn wait_timeout_unpoisoned<'a, T>(
    cv: &Condvar,
    g: MutexGuard<'a, T>,
    timeout: std::time::Duration,
) -> MutexGuard<'a, T> {
    match cv.wait_timeout(g, timeout) {
        Ok((g, _)) => g,
        Err(e) => e.into_inner().0,
    }
}

/// A row-major buffer whose rows may be written concurrently by multiple
/// tasks, provided each plain-access row has exactly one writer.
pub struct SharedRows<'a> {
    data: &'a [UnsafeCell<f64>],
    row_len: usize,
}

// SAFETY: `SharedRows` only adds row-granular access on top of a buffer
// the caller owns for the duration of the parallel region. All plain
// (non-atomic) accesses go through `row_mut`, whose contract requires the
// caller to guarantee single-writer rows; atomic accesses use `AtomicU64`
// views. The join at the end of the parallel region provides the
// happens-before edge that makes subsequent sequential reads race-free.
unsafe impl Sync for SharedRows<'_> {}
unsafe impl Send for SharedRows<'_> {}

impl<'a> SharedRows<'a> {
    /// Wraps a mutable buffer of `rows × row_len` elements.
    ///
    /// # Panics
    /// Panics if the buffer length is not a multiple of `row_len`.
    pub fn new(buf: &'a mut [f64], row_len: usize) -> Self {
        assert!(row_len > 0);
        assert_eq!(buf.len() % row_len, 0, "buffer must be whole rows");
        // SAFETY: `UnsafeCell<f64>` has the same layout as `f64`, and we
        // hold the unique `&mut` to the buffer, so reinterpreting it as a
        // shared slice of cells is sound.
        let data = unsafe {
            std::slice::from_raw_parts(buf.as_ptr() as *const UnsafeCell<f64>, buf.len())
        };
        SharedRows { data, row_len }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.data.len() / self.row_len
    }

    /// Row length.
    #[inline]
    pub fn row_len(&self) -> usize {
        self.row_len
    }

    /// Returns a mutable view of row `r`.
    ///
    /// # Safety
    /// The caller must guarantee that no other task accesses row `r`
    /// (mutably or otherwise, including atomically) while the returned
    /// slice is alive. In the kernels this follows from the schedule's
    /// row-ownership argument (see `schedule.rs`).
    #[inline]
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn row_mut(&self, r: usize) -> &mut [f64] {
        debug_assert!(r < self.rows());
        let base = r * self.row_len;
        // SAFETY: in-bounds by the assert; exclusivity is the caller's
        // contract.
        unsafe { std::slice::from_raw_parts_mut(self.data[base].get(), self.row_len) }
    }

    /// Returns a read-only view of row `r`.
    ///
    /// # Safety
    /// No task may be writing row `r` concurrently.
    #[inline]
    pub unsafe fn row(&self, r: usize) -> &[f64] {
        debug_assert!(r < self.rows());
        let base = r * self.row_len;
        // SAFETY: see above.
        unsafe { std::slice::from_raw_parts(self.data[base].get(), self.row_len) }
    }

    /// Atomically adds `vals` element-wise into row `r`. Safe to call
    /// concurrently with other `atomic_add_row` calls on any row, but
    /// must not overlap a plain `row_mut` access to the same row.
    pub fn atomic_add_row(&self, r: usize, vals: &[f64]) {
        debug_assert!(r < self.rows());
        debug_assert_eq!(vals.len(), self.row_len);
        let base = r * self.row_len;
        for (k, &v) in vals.iter().enumerate() {
            self.cas_add(base + k, v);
        }
    }

    /// Atomically adds `s · x` element-wise into row `r` — the fused
    /// form of `scale_row_into` + [`atomic_add_row`], skipping the
    /// scratch-row write and read-back entirely. `s·xₖ` rounds exactly
    /// like the unfused sequence (one multiply either way, on every
    /// SIMD path), so results are bit-identical to it.
    pub fn atomic_add_scaled_row(&self, r: usize, s: f64, x: &[f64]) {
        debug_assert!(r < self.rows());
        debug_assert_eq!(x.len(), self.row_len);
        let base = r * self.row_len;
        for (k, &xv) in x.iter().enumerate() {
            self.cas_add(base + k, s * xv);
        }
    }

    /// Atomically adds `a ⊙ b` element-wise into row `r` — the fused
    /// form of `krp_row` + [`atomic_add_row`], same rounding argument
    /// as [`atomic_add_scaled_row`].
    pub fn atomic_add_product_row(&self, r: usize, a: &[f64], b: &[f64]) {
        debug_assert!(r < self.rows());
        debug_assert_eq!(a.len(), self.row_len);
        debug_assert_eq!(b.len(), self.row_len);
        let base = r * self.row_len;
        for (k, (&av, &bv)) in a.iter().zip(b).enumerate() {
            self.cas_add(base + k, av * bv);
        }
    }

    /// Hints that row `r` is about to be CAS-updated, pulling its cache
    /// lines toward L1 so the atomic sweep's read-modify-write does not
    /// stall on a cold load. Purely advisory.
    #[inline]
    pub fn prefetch_row(&self, r: usize) {
        debug_assert!(r < self.rows());
        let base = r * self.row_len;
        let mut k = 0;
        while k < self.row_len {
            linalg::simd::prefetch_read(self.data[base + k].get());
            k += 8; // one 64-byte line of f64s per hint
        }
    }

    /// One relaxed CAS add, skipping exact zeros (adding 0.0 is an
    /// identity for every finite accumulator value, and zero-valued
    /// lanes are common after the Hadamard chain hits a pruned entry).
    #[inline]
    fn cas_add(&self, idx: usize, v: f64) {
        if v == 0.0 {
            return;
        }
        // SAFETY: AtomicU64 has the same size/alignment as f64 and the
        // cell is never accessed non-atomically during this phase
        // (caller contract).
        let cell = unsafe { &*(self.data[idx].get() as *const AtomicU64) };
        let mut cur = cell.load(Ordering::Relaxed);
        loop {
            let new = f64::from_bits(cur) + v;
            match cell.compare_exchange_weak(cur, new.to_bits(), Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => break,
                Err(actual) => cur = actual,
            }
        }
    }
}

/// A flat buffer whose disjoint index ranges may be written concurrently
/// by multiple tasks — the generic sibling of [`SharedRows`] used for the
/// workspace arenas (`f64` scratch, `usize` traversal stacks) and for the
/// chunked privatized-output reduction, where the natural unit is an
/// arbitrary element range rather than a fixed-length row. One type,
/// shared with the dense-algebra fan-outs of `linalg`.
pub use linalg::par::SharedSlice;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::Executor;

    fn fanout<F: Fn(usize) + Sync>(nthreads: usize, f: F) {
        Executor::new(4).fanout(nthreads, f);
    }

    #[test]
    fn disjoint_rows_written_in_parallel() {
        let mut buf = vec![0.0; 64 * 8];
        {
            let shared = SharedRows::new(&mut buf, 8);
            fanout(64, |r| {
                // SAFETY: each task touches exactly its own row.
                let row = unsafe { shared.row_mut(r) };
                for (k, x) in row.iter_mut().enumerate() {
                    *x = (r * 8 + k) as f64;
                }
            });
        }
        for (i, &v) in buf.iter().enumerate() {
            assert_eq!(v, i as f64);
        }
    }

    #[test]
    fn atomic_add_accumulates_from_many_tasks() {
        let mut buf = vec![0.0; 4];
        {
            let shared = SharedRows::new(&mut buf, 4);
            fanout(1000, |_| {
                shared.atomic_add_row(0, &[1.0, 2.0, 0.0, -1.0]);
            });
        }
        assert_eq!(buf, vec![1000.0, 2000.0, 0.0, -1000.0]);
    }

    #[test]
    fn atomic_add_skips_zero_contributions() {
        let mut buf = vec![5.0; 2];
        {
            let shared = SharedRows::new(&mut buf, 2);
            shared.atomic_add_row(0, &[0.0, 0.0]);
        }
        assert_eq!(buf, vec![5.0, 5.0]);
    }

    #[test]
    #[should_panic(expected = "whole rows")]
    fn rejects_ragged_buffer() {
        let mut buf = vec![0.0; 7];
        let _ = SharedRows::new(&mut buf, 2);
    }

    #[test]
    fn shared_slice_disjoint_ranges() {
        let mut buf = vec![0usize; 40];
        {
            let shared = SharedSlice::new(&mut buf);
            fanout(4, |th| {
                // SAFETY: each logical thread owns a disjoint 10-element range.
                let part = unsafe { shared.range_mut(th * 10, (th + 1) * 10) };
                for (i, x) in part.iter_mut().enumerate() {
                    *x = th * 100 + i;
                }
            });
            // SAFETY: writers joined before this read.
            assert_eq!(unsafe { shared.range(10, 13) }, &[100, 101, 102]);
        }
        assert_eq!(buf[35], 305);
    }

    #[test]
    fn lock_unpoisoned_recovers_a_poisoned_mutex() {
        use std::sync::{Arc, Mutex};
        let m = Arc::new(Mutex::new(41));
        let m2 = Arc::clone(&m);
        // Poison it: panic while holding the guard.
        let _ = std::thread::spawn(move || {
            let _g = m2.lock().unwrap();
            panic!("poison the lock");
        })
        .join();
        assert!(m.lock().is_err(), "mutex must actually be poisoned");
        // The recovery path still hands out a usable guard...
        *lock_unpoisoned(&m) += 1;
        assert_eq!(*lock_unpoisoned(&m), 42);
        // ...and keeps working on an unpoisoned mutex too.
        let clean = Mutex::new(7);
        assert_eq!(*lock_unpoisoned(&clean), 7);
    }

    #[test]
    fn wait_unpoisoned_wakes_through_a_poisoned_pair() {
        use std::sync::{Arc, Condvar, Mutex};
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let p2 = Arc::clone(&pair);
        // Poison the mutex first, so the waiter's reacquire-after-wake
        // goes down the recovery path.
        let p3 = Arc::clone(&pair);
        let _ = std::thread::spawn(move || {
            let _g = p3.0.lock().unwrap();
            panic!("poison the condvar's mutex");
        })
        .join();
        let notifier = std::thread::spawn(move || {
            *lock_unpoisoned(&p2.0) = true;
            p2.1.notify_all();
        });
        let mut ready = lock_unpoisoned(&pair.0);
        while !*ready {
            ready = wait_unpoisoned(&pair.1, ready);
        }
        drop(ready);
        notifier.join().unwrap();
    }

    #[test]
    fn row_read_back() {
        let mut buf = vec![1.0, 2.0, 3.0, 4.0];
        let shared = SharedRows::new(&mut buf, 2);
        // SAFETY: no concurrent writers in this test.
        unsafe {
            assert_eq!(shared.row(1), &[3.0, 4.0]);
            shared.row_mut(0)[1] = 9.0;
            assert_eq!(shared.row(0), &[1.0, 9.0]);
        }
    }
}
