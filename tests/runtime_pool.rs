//! Edge-case and stress coverage for the persistent worker-pool
//! runtime: odd worker/logical-thread ratios, empty dispatches,
//! back-to-back dispatch storms (the regime where a missed wakeup or a
//! stale-claim race would deadlock or double-execute), concurrent
//! dispatchers sharing one pool, and counter self-consistency.
//!
//! These run against explicitly-sized pools, so real multi-worker
//! dispatch is exercised even on single-core CI runners.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;
use stef::{CancelToken, Executor, FanoutError, WorkerPool};

/// Aborts the whole test process if `f` does not finish within
/// `secs` — a deadlocked completion barrier would otherwise hang the
/// suite until the harness-level timeout with no indication of where.
fn with_watchdog<F: FnOnce()>(secs: u64, f: F) {
    let done = Arc::new(AtomicBool::new(false));
    let observer = done.clone();
    std::thread::spawn(move || {
        for _ in 0..secs * 10 {
            std::thread::sleep(Duration::from_millis(100));
            if observer.load(Ordering::Relaxed) {
                return;
            }
        }
        eprintln!("watchdog: test exceeded {secs}s wall time — aborting");
        std::process::abort();
    });
    f();
    done.store(true, Ordering::Relaxed);
}

/// Fans out and asserts every logical thread ran exactly once.
fn assert_exact_coverage(rt: &Executor, nthreads: usize) {
    let hits: Vec<AtomicUsize> = (0..nthreads).map(|_| AtomicUsize::new(0)).collect();
    rt.fanout(nthreads, |th| {
        hits[th].fetch_add(1, Ordering::Relaxed);
    });
    for (th, h) in hits.iter().enumerate() {
        assert_eq!(
            h.load(Ordering::Relaxed),
            1,
            "logical thread {th} of {nthreads} ran a wrong number of times"
        );
    }
}

#[test]
fn nthreads_not_divisible_by_workers() {
    // 7 logical threads on 4 workers, 33 on 8, 5 on 3: remainders must
    // neither be dropped nor run twice.
    for (workers, nthreads) in [(4usize, 7usize), (8, 33), (3, 5), (4, 6), (8, 12)] {
        let rt = Executor::new(workers);
        assert_exact_coverage(&rt, nthreads);
    }
}

#[test]
fn fewer_logical_threads_than_workers() {
    // Most workers find the cursor already exhausted and must park
    // again cleanly without claiming anything.
    for (workers, nthreads) in [(8usize, 1usize), (8, 3), (4, 2), (16, 5)] {
        let rt = Executor::new(workers);
        for _ in 0..10 {
            assert_exact_coverage(&rt, nthreads);
        }
    }
}

#[test]
fn zero_logical_threads_is_a_noop() {
    let rt = Executor::new(4);
    let ran = AtomicUsize::new(0);
    rt.fanout(0, |_| {
        ran.fetch_add(1, Ordering::Relaxed);
    });
    assert_eq!(ran.load(Ordering::Relaxed), 0);
    // The pool must still be healthy afterwards.
    assert_exact_coverage(&rt, 9);
}

#[test]
fn dispatch_storm_100k_tiny_jobs() {
    // 100 000 back-to-back dispatches of trivial jobs: the fast path
    // where the dispatcher publishes a new epoch while workers are
    // still draining or parking from the previous one. A missed wakeup
    // deadlocks here within the test timeout; a stale claim (a worker
    // acting on an old epoch's cursor) breaks the per-dispatch sum.
    const DISPATCHES: usize = 100_000;
    const NTHREADS: usize = 5;
    let rt = Executor::new(4);
    let total = AtomicUsize::new(0);
    for _ in 0..DISPATCHES {
        rt.fanout(NTHREADS, |th| {
            total.fetch_add(th + 1, Ordering::Relaxed);
        });
    }
    // Each dispatch contributes 1+2+...+NTHREADS exactly once.
    let per_dispatch = NTHREADS * (NTHREADS + 1) / 2;
    assert_eq!(total.load(Ordering::Relaxed), DISPATCHES * per_dispatch);

    let c = rt.counters();
    assert_eq!(c.workers, 4);
    assert_eq!(c.dispatches + c.inline_runs, DISPATCHES as u64);
    // Every chunk claim is tallied either by the dispatcher or by the
    // worker that took it; with chunk size 1 (5 threads / 16x4) the
    // claims must add up to exactly the logical threads executed.
    let worker_chunks: u64 = c.per_worker.iter().map(|w| w.chunks).sum();
    assert_eq!(
        c.dispatcher_chunks + worker_chunks,
        (DISPATCHES * NTHREADS) as u64,
        "chunk accounting leaked or double-counted"
    );
}

#[test]
fn counters_are_consistent_after_mixed_sizes() {
    const WORKERS: usize = 3;
    let rt = Executor::new(WORKERS);
    let mut expected_chunks = 0u64;
    let mut expected_dispatched = 0u64;
    let mut expected_inline = 0u64;
    for nthreads in [1usize, 2, 3, 7, 16, 33, 64, 5, 0, 9] {
        assert_exact_coverage(&rt, nthreads);
        match nthreads {
            0 => {}
            1 => expected_inline += 1,
            n => {
                expected_dispatched += 1;
                // The cursor advances by exactly `chunk` per claim
                // (capped at `n`), so a dispatch of `n` items is
                // claimed in ceil(n / chunk) chunks regardless of who
                // claims them.
                let chunk = (n / (4 * WORKERS)).max(1);
                expected_chunks += n.div_ceil(chunk) as u64;
            }
        }
    }
    let c = rt.counters();
    assert_eq!(c.workers, WORKERS);
    assert_eq!(c.dispatches, expected_dispatched);
    assert_eq!(c.inline_runs, expected_inline);
    let worker_chunks: u64 = c.per_worker.iter().map(|w| w.chunks).sum();
    assert_eq!(
        c.dispatcher_chunks + worker_chunks,
        expected_chunks,
        "every chunk must be attributed to exactly one claimant"
    );
    // A worker that was ever busy claimed at least one chunk; parks
    // only ever grow.
    for w in &c.per_worker {
        assert!(w.chunks >= w.busy, "chunks {} < busy {}", w.chunks, w.busy);
    }
}

#[test]
fn concurrent_dispatchers_share_one_pool() {
    // Two OS threads hammer the same pool concurrently. The dispatch
    // lock serializes them; the loser of a try_lock race runs inline.
    // Either way every fan-out must execute exactly once.
    let rt = Executor::new(4);
    let sum = AtomicUsize::new(0);
    let gate = Barrier::new(2);
    const ROUNDS: usize = 2_000;
    const NTHREADS: usize = 6;
    std::thread::scope(|scope| {
        for _ in 0..2 {
            scope.spawn(|| {
                gate.wait();
                for _ in 0..ROUNDS {
                    rt.fanout(NTHREADS, |th| {
                        sum.fetch_add(th + 1, Ordering::Relaxed);
                    });
                }
            });
        }
    });
    let per_dispatch = NTHREADS * (NTHREADS + 1) / 2;
    assert_eq!(sum.load(Ordering::Relaxed), 2 * ROUNDS * per_dispatch);
}

#[test]
fn reentrant_fanout_from_a_pool_worker_runs_inline() {
    // A job that itself fans out must not deadlock on the pool it is
    // running on — the inner fan-out detects it is on a pool worker (or
    // fails the dispatch try_lock) and runs inline.
    let rt = Executor::new(2);
    let hits = AtomicUsize::new(0);
    rt.fanout(4, |_outer| {
        rt.fanout(3, |_inner| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
    });
    assert_eq!(hits.load(Ordering::Relaxed), 12);
}

#[test]
fn worker_panic_yields_typed_error_in_bounded_time_and_pool_heals() {
    with_watchdog(60, || {
        let rt = Executor::new(4);
        // Thread 3 panics mid-chunk; the completion barrier must still
        // resolve (the panicked chunk counts as done) and the error must
        // carry the payload.
        match rt.try_fanout(8, |th| {
            if th == 3 {
                panic!("pool test boom");
            }
        }) {
            Err(FanoutError::Panicked(msg)) => assert!(msg.contains("pool test boom"), "{msg}"),
            other => panic!("expected Panicked, got {other:?}"),
        }
        // The same executor keeps working — repeatedly, so a worker that
        // died without being respawned would eventually show up as lost
        // coverage or a hang.
        for _ in 0..100 {
            assert_exact_coverage(&rt, 9);
        }
    });
}

#[test]
fn repeated_panics_never_wedge_the_pool() {
    with_watchdog(120, || {
        let rt = Executor::new(3);
        for round in 0..50 {
            let res = rt.try_fanout(7, |th| {
                if th == round % 7 {
                    panic!("round {round}");
                }
            });
            assert!(matches!(res, Err(FanoutError::Panicked(_))), "{res:?}");
            assert_exact_coverage(&rt, 5);
        }
    });
}

#[test]
fn cancelled_token_short_circuits_dispatch() {
    with_watchdog(60, || {
        let rt = Executor::new(4);
        let token = CancelToken::new();
        rt.set_cancel(token.clone());
        token.cancel();
        let ran = AtomicUsize::new(0);
        let res = rt.try_fanout(64, |_| {
            ran.fetch_add(1, Ordering::Relaxed);
        });
        assert!(matches!(res, Err(FanoutError::Cancelled)), "{res:?}");
        // A cancelled dispatch may have run some chunks before the flag
        // was observed, but never the full fan-out.
        assert!(
            ran.load(Ordering::Relaxed) < 64,
            "cancellation did not cut the fan-out short"
        );
        // The token belongs to this pool's run: a fresh executor
        // serves normally.
        assert_exact_coverage(&Executor::new(4), 9);
    });
}

#[test]
fn expired_deadline_cancels_like_an_explicit_cancel() {
    with_watchdog(60, || {
        let rt = Executor::new(4);
        let token = CancelToken::new();
        token.set_deadline(Duration::ZERO);
        rt.set_cancel(token.clone());
        let res = rt.try_fanout(32, |_| {});
        assert!(matches!(res, Err(FanoutError::Cancelled)), "{res:?}");
        assert!(token.deadline_expired());
        assert!(token.is_cancelled(), "expiry must promote the sticky flag");
        assert_exact_coverage(&Executor::new(4), 6);
    });
}

#[test]
fn raw_pool_survives_drop_with_queued_work_done() {
    // Dropping a pool right after a dispatch must join workers cleanly
    // (the fanout() barrier guarantees the job is finished first).
    for _ in 0..50 {
        let pool = WorkerPool::new(3);
        let n = AtomicUsize::new(0);
        pool.fanout(8, |_| {
            n.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(n.load(Ordering::Relaxed), 8);
        drop(pool);
    }
}
