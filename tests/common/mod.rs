//! Thread-scoped allocation counting shared by the zero-alloc suites
//! (`alloc_free`, `differential_alto`).
//!
//! libtest runs the tests of one binary concurrently, so a process-wide
//! allocation count also sees other tests' set-up and the runner's own
//! thread spawns. The counting `#[global_allocator]` here therefore
//! counts a call only on a thread that is *armed*: a `const`-initialised
//! thread-local `Cell` that points at the measuring test's own counter
//! (null when disarmed), so reading it never allocates. [`arm`] arms the
//! calling thread and, with one fan-out, every OS thread of the test's
//! [`Executor`] — so allocations a pool dispatch makes on its workers
//! are still counted, while concurrent tests (even other counting tests,
//! each with its own counter) never leak into the window. [`count_sweeps`]
//! keeps the window open until every worker has run in it, so a worker
//! that allocates cannot hide by staying idle.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::ptr;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread::ThreadId;
use std::time::{Duration, Instant};
use stef::Executor;

thread_local! {
    /// The counter this thread's allocator calls land in (null: none).
    static ARMED: Cell<*const AtomicU64> = const { Cell::new(ptr::null()) };
}

struct ScopedCountingAlloc;

impl ScopedCountingAlloc {
    #[inline]
    fn count(&self) {
        // `try_with`: a `const`, drop-free thread-local is never torn
        // down, but the allocator must not panic whatever happens.
        let p = ARMED.try_with(Cell::get).unwrap_or(ptr::null());
        if !p.is_null() {
            // SAFETY: counters armed through `arm` are leaked, so they
            // outlive every thread that can still point at them.
            unsafe { &*p }.fetch_add(1, Ordering::Relaxed);
        }
    }
}

// SAFETY: every call is passed on unchanged to `System`; counting only
// reads a `const` thread-local and bumps an atomic, neither of which
// allocates or re-enters the allocator.
unsafe impl GlobalAlloc for ScopedCountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        self.count();
        System.alloc(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        self.count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTER: ScopedCountingAlloc = ScopedCountingAlloc;

/// How long the arming fan-out waits for every pool thread to show up.
const ARM_TIMEOUT: Duration = Duration::from_secs(30);

/// How long [`count_sweeps`] repeats a sweep waiting for an idle worker
/// to claim a chunk.
const COVER_TIMEOUT: Duration = Duration::from_secs(60);

/// A test's own allocation counter, fed by every thread [`arm`] armed.
/// Dropping it disarms the calling thread; the pool's workers stay
/// pointed at the (leaked) counter until the pool is dropped.
pub struct AllocScope {
    calls: &'static AtomicU64,
}

impl AllocScope {
    /// Allocator calls made so far on the armed threads.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::SeqCst)
    }
}

impl Drop for AllocScope {
    fn drop(&mut self) {
        ARMED.with(|a| a.set(ptr::null()));
    }
}

/// Arms the calling thread and every OS thread of `rt` to count into a
/// fresh counter, and asserts that exactly `rt.workers()` distinct
/// threads were armed — a worker left unarmed fails the test here
/// instead of going uncounted.
///
/// The fan-out runs `rt.workers()` logical threads, one per chunk, and
/// each one waits until all `rt.workers()` threads have checked in. A
/// thread waiting inside one chunk cannot claim another, so every chunk
/// lands on a different OS thread. Arm before the counting window
/// opens: the arming itself allocates (the thread-id list).
pub fn arm(rt: &Executor) -> AllocScope {
    let calls: &'static AtomicU64 = Box::leak(Box::new(AtomicU64::new(0)));
    let want = rt.workers();
    let ids: Mutex<Vec<ThreadId>> = Mutex::new(Vec::with_capacity(want));
    let arrived = AtomicUsize::new(0);
    let deadline = Instant::now() + ARM_TIMEOUT;
    rt.fanout(want, |_| {
        {
            let mut ids = ids.lock().unwrap();
            let me = std::thread::current().id();
            if !ids.contains(&me) {
                ids.push(me);
            }
        }
        // Armed only after the push, so arming allocates nothing that
        // the new counter could see.
        ARMED.with(|a| a.set(calls));
        arrived.fetch_add(1, Ordering::SeqCst);
        while arrived.load(Ordering::SeqCst) < want && Instant::now() < deadline {
            std::thread::yield_now();
        }
    });
    let armed = ids.into_inner().unwrap();
    assert!(
        armed.contains(&std::thread::current().id()),
        "the arming fan-out did not run on the test thread"
    );
    assert_eq!(
        armed.len(),
        want,
        "armed {} distinct threads, but the pool runs {want}",
        armed.len()
    );
    AllocScope { calls }
}

/// Chunks each spawned worker of `rt` has claimed so far, read with
/// counting paused on the calling thread (`counters()` collects a `Vec`).
fn worker_chunks(rt: &Executor) -> Vec<u64> {
    let armed = ARMED.with(|a| a.replace(ptr::null()));
    let chunks = rt.counters().per_worker.iter().map(|w| w.chunks).collect();
    ARMED.with(|a| a.set(armed));
    chunks
}

/// Allocator calls `sweep` makes on the threads `scope` armed. The
/// window stays open, repeating `sweep`, until every spawned worker of
/// `rt` has claimed a chunk in it: a worker that never runs inside the
/// window would allocate unseen, and on a loaded host the dispatcher
/// can drain every chunk itself. Fails, naming the idle worker, if one
/// claims nothing for [`COVER_TIMEOUT`].
pub fn count_sweeps(scope: &AllocScope, rt: &Executor, mut sweep: impl FnMut()) -> u64 {
    let start = worker_chunks(rt);
    let deadline = Instant::now() + COVER_TIMEOUT;
    let before = scope.calls();
    let mut sweeps = 0u64;
    loop {
        sweep();
        sweeps += 1;
        let idle = worker_chunks(rt)
            .iter()
            .zip(&start)
            .position(|(now, was)| now == was);
        match idle {
            None => return scope.calls() - before,
            Some(w) if Instant::now() >= deadline => panic!(
                "pool worker per_worker[{w}] claimed no chunk in {sweeps} sweeps \
                 ({COVER_TIMEOUT:?}), so its allocations went unchecked"
            ),
            Some(_) => {}
        }
    }
}

/// Negative control: the scoped counter is not blind to the pool's
/// worker threads. Each logical thread that lands on a thread other
/// than the test's allocates a `Vec`; the test thread's own chunk waits
/// until a worker has done so, so the allocation happens whatever the
/// claim order. The counter must then have risen by at least that many
/// calls.
#[test]
fn scoped_counter_sees_worker_thread_allocations() {
    let rt = Executor::new(3);
    assert!(rt.workers() > 1, "the control needs a multi-worker pool");
    let scope = arm(&rt);
    let test_thread = std::thread::current().id();
    let worker_allocs = AtomicU64::new(0);
    let deadline = Instant::now() + ARM_TIMEOUT;
    let before = scope.calls();
    rt.fanout(rt.workers(), |th| {
        if std::thread::current().id() != test_thread {
            std::hint::black_box(vec![th; 16]);
            worker_allocs.fetch_add(1, Ordering::SeqCst);
        } else {
            while worker_allocs.load(Ordering::SeqCst) == 0 && Instant::now() < deadline {
                std::thread::yield_now();
            }
        }
    });
    let delta = scope.calls() - before;
    let on_workers = worker_allocs.load(Ordering::SeqCst);
    assert!(on_workers > 0, "no logical thread ran on a pool worker");
    assert!(
        delta >= on_workers,
        "{on_workers} worker-thread allocations, but the scoped counter saw {delta}"
    );
}
