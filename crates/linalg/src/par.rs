//! Fan-out for the dense-algebra hot spots, on an executor the caller
//! passes in.
//!
//! `gram`, the CP-ALS mode update and `sptensor`'s swap-count pass want
//! the same execution primitive as the sparse kernels: "run `f(i)` once
//! for each task `0..tasks`, then join". The persistent worker pool that
//! provides this lives in `stef-core`, which *depends on* this crate, so
//! the pool cannot be named here. Instead each parallel entry point
//! takes a [`Fanout`]: `stef-core`'s `runtime::Executor` implements it,
//! so the CPD driver runs the dense update on the engine's own pool
//! (its `STEF_NUM_THREADS` width, cancel token and counters), and
//! [`Inline`] runs the tasks in order on the caller, which is what the
//! signature-stable wrappers (`ops::gram`, `solve::try_solve_gram_system`,
//! the swap count) use.
//!
//! Work is split by `row_block`, a function of the row count and the
//! hardware width ([`workers`]) only, never of the executor. Every
//! combining step reduces per-block partials in block order, so results
//! are bitwise identical whichever executor runs the blocks.

use std::cell::UnsafeCell;

/// A fan-out that stopped before running every task: the executor's
/// cancellation token fired. Tasks already started ran to completion;
/// the outputs of a cut-short fan-out are incomplete and must be
/// discarded.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Cancelled;

impl std::fmt::Display for Cancelled {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("fan-out cancelled")
    }
}

impl std::error::Error for Cancelled {}

/// An executor for the dense fan-outs.
pub trait Fanout {
    /// Runs `f(i)` for every task `0..tasks` and joins. `Err(Cancelled)`
    /// reports that some tasks were skipped.
    fn try_run(&self, tasks: usize, f: &(dyn Fn(usize) + Sync)) -> Result<(), Cancelled>;
}

/// Runs every task in order on the calling thread; never cancels.
#[derive(Clone, Copy, Debug, Default)]
pub struct Inline;

impl Fanout for Inline {
    fn try_run(&self, tasks: usize, f: &(dyn Fn(usize) + Sync)) -> Result<(), Cancelled> {
        (0..tasks).for_each(f);
        Ok(())
    }
}

/// Unwraps the result of a computation run on [`Inline`], which cannot
/// be cancelled.
pub fn inline<T>(r: Result<T, Cancelled>) -> T {
    r.expect("an inline fan-out runs every task")
}

/// Available hardware parallelism, probed once. Blocking decisions use
/// this, never the executor's worker count, so the decomposition of the
/// work (and therefore every floating-point summation order) is the
/// same no matter which executor runs it.
pub fn workers() -> usize {
    static HW: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *HW.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// Row count below which a dense pass runs as one block.
pub(crate) const PAR_ROWS: usize = 2048;

/// Rows per block of a dense pass over `rows` rows: all of them below
/// [`PAR_ROWS`], else about one block per hardware worker and at least
/// 256. The Gram of a factor sums its blocks' partials in block order,
/// so this function fixes its bits.
pub(crate) fn row_block(rows: usize) -> usize {
    if rows < PAR_ROWS {
        rows.max(1)
    } else {
        (rows / workers()).max(256)
    }
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
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn inline_runs_each_task_once_in_order() {
        for tasks in [0usize, 1, 2, 3, 7, 33] {
            let next = AtomicUsize::new(0);
            Inline
                .try_run(tasks, &|i| {
                    assert_eq!(next.fetch_add(1, Ordering::Relaxed), i);
                })
                .unwrap();
            assert_eq!(next.load(Ordering::Relaxed), tasks);
        }
    }

    #[test]
    fn row_blocks_cover_small_inputs_in_one_block() {
        assert_eq!(row_block(0), 1);
        assert_eq!(row_block(PAR_ROWS - 1), PAR_ROWS - 1);
        assert!(row_block(PAR_ROWS) >= 256);
    }

    #[test]
    fn shared_slice_disjoint_ranges() {
        let mut buf = vec![0usize; 30];
        {
            let shared = SharedSlice::new(&mut buf);
            assert_eq!(shared.len(), 30);
            assert!(!shared.is_empty());
            inline(Inline.try_run(3, &|i| {
                // SAFETY: each task owns a disjoint 10-element range.
                let part = unsafe { shared.range_mut(i * 10, (i + 1) * 10) };
                for (k, x) in part.iter_mut().enumerate() {
                    *x = i * 100 + k;
                }
            }));
        }
        assert_eq!(buf[0], 0);
        assert_eq!(buf[10], 100);
        assert_eq!(buf[29], 209);
    }
}
