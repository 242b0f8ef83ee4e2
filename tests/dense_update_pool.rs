//! The CPD driver's dense update (solve, normalization, Gram) and every
//! MTTKRP pass, STeF2's second-CSF leaf pass included, run on the
//! engine's own worker pool, not on threads of their own.
//!
//! This binary never calls `stef::runtime::global()`, so nothing here
//! creates the process-wide pool. An engine sized to one worker spawns
//! no threads, so the thread count must not grow while `cpd_als` runs,
//! and every fan-out must show up in the engine's own counters.
//! Keep this the only test in the binary: a concurrent test would add
//! threads of its own.

use linalg::Mat;
use sptensor::CooTensor;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use stef::{cpd_als, CpdOptions, MttkrpEngine, RuntimeCounters, Stef, Stef2, StefOptions};
use workloads::power_law_tensor;

/// Fan-outs the pool ran, dispatched or inline.
fn fanouts(c: &RuntimeCounters) -> u64 {
    c.dispatches + c.inline_runs
}

/// Wraps an engine and tallies the pool fan-outs its MTTKRPs make, so
/// the driver's own fan-outs are the rest.
struct Tally<E> {
    inner: E,
    mttkrp_fanouts: u64,
    /// MTTKRP calls that ran no fan-out on the engine's pool.
    off_pool_mttkrps: u64,
}

impl<E: MttkrpEngine> MttkrpEngine for Tally<E> {
    fn dims(&self) -> &[usize] {
        self.inner.dims()
    }
    fn name(&self) -> String {
        self.inner.name()
    }
    fn sweep_order(&self) -> Vec<usize> {
        self.inner.sweep_order()
    }
    fn norm_sq(&self) -> f64 {
        self.inner.norm_sq()
    }
    fn mttkrp(&mut self, factors: &[Mat], mode: usize) -> Mat {
        let before = fanouts(&self.inner.executor().counters());
        let out = self.inner.mttkrp(factors, mode);
        let ran = fanouts(&self.inner.executor().counters()) - before;
        self.mttkrp_fanouts += ran;
        self.off_pool_mttkrps += u64::from(ran == 0);
        out
    }
    fn executor(&self) -> &stef::Executor {
        self.inner.executor()
    }
}

/// `Threads:` of `/proc/self/status`.
#[cfg(target_os = "linux")]
fn threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
        .expect("Threads: line")
}

/// Runs three CPD iterations on `inner` (built with `num_threads = 1`)
/// while sampling the process's thread count, then checks that no
/// thread appeared and that every fan-out ran on the engine's pool.
fn check_one_worker_engine<E: MttkrpEngine>(t: &CooTensor, inner: E) {
    let name = inner.name();
    let mut engine = Tally {
        inner,
        mttkrp_fanouts: 0,
        off_pool_mttkrps: 0,
    };
    assert_eq!(engine.executor().workers(), 1, "{name}");
    let copts = CpdOptions {
        max_iters: 3,
        tol: 0.0,
        ..CpdOptions::new(8)
    };

    // Sample the thread count for the whole call.
    let stop = Arc::new(AtomicBool::new(false));
    let peak = Arc::new(AtomicUsize::new(0));
    #[cfg(target_os = "linux")]
    let sampler = {
        let (stop, peak) = (stop.clone(), peak.clone());
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                peak.fetch_max(threads(), Ordering::Relaxed);
                std::thread::sleep(std::time::Duration::from_micros(50));
            }
        })
    };
    #[cfg(target_os = "linux")]
    let baseline = {
        std::thread::sleep(std::time::Duration::from_millis(5));
        threads()
    };

    let before = fanouts(&engine.executor().counters());
    let result = cpd_als(&mut engine, &copts).expect("healthy run");
    let total = fanouts(&engine.executor().counters()) - before;

    stop.store(true, Ordering::Relaxed);
    #[cfg(target_os = "linux")]
    {
        sampler.join().expect("sampler");
        let peak = peak.load(Ordering::Relaxed);
        assert!(
            peak <= baseline,
            "{name}: threads grew during cpd_als: {baseline} -> {peak}"
        );
    }

    // Every MTTKRP fans out at least once on the engine's pool.
    assert_eq!(
        engine.off_pool_mttkrps, 0,
        "{name}: MTTKRPs missing from the engine's counters"
    );
    // One Gram per factor before the loop, then two passes (solve, scale)
    // per mode update.
    let d = t.dims().len() as u64;
    let dense = total - engine.mttkrp_fanouts;
    assert_eq!(result.iterations, 3);
    assert_eq!(
        dense,
        d + 2 * d * result.iterations as u64,
        "{name}: dense fan-outs on the engine's pool"
    );
}

#[test]
fn dense_update_runs_on_the_engines_one_worker_pool() {
    // Mode 0 has 6000 rows: above the row count where the dense passes
    // split into blocks, so a per-call thread fallback would show.
    let t = power_law_tensor(&[6000, 60, 40], 30_000, &[0.6, 0.6, 0.6], 7);
    let mut opts = StefOptions::new(8);
    opts.num_threads = 1;
    check_one_worker_engine(&t, Stef::prepare(&t, opts.clone()));
    // STeF2's leaf mode runs on its second CSF: that pass must use the
    // base engine's pool too.
    check_one_worker_engine(&t, Stef2::prepare(&t, opts));
}
