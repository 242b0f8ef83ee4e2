//! Runtime micro-benchmark: dispatch latency and load-imbalance
//! behavior of the persistent worker pool against per-call scoped
//! spawning (the execution model the pool replaced, kept here as a
//! bench-local baseline).
//!
//! Two experiments, both on an explicitly 8-worker pool so the numbers
//! are comparable across machines:
//!
//! 1. **Dispatch latency** — a trivial fan-out body, `nthreads`
//!    1..=16: measures pure runtime overhead (publish + wake + claim +
//!    join for the pool; thread spawn + join for the scoped baseline).
//! 2. **Imbalance** — 64 logical tasks with deliberately uneven spin
//!    work: the pool's dynamic chunk claiming should absorb the skew
//!    that the scoped baseline's static contiguous blocks cannot.
//!
//! Writes the tracked trajectory file `BENCH_runtime.json` at the repo
//! root. Knobs: `STEF_REPS` (timed repetitions per configuration,
//! median-of, default 300).

use std::time::Instant;
use stef::Executor;
use stef_bench::{impl_to_json, write_json_at, Table};

const WORKERS: usize = 8;

/// The baseline: fresh scoped OS threads per call, one static
/// contiguous block of logical threads per worker.
fn scoped_fanout<F: Fn(usize) + Sync>(workers: usize, nthreads: usize, f: &F) {
    let workers = workers.clamp(1, nthreads.max(1));
    std::thread::scope(|scope| {
        for w in 1..workers {
            let (lo, hi) = (w * nthreads / workers, (w + 1) * nthreads / workers);
            scope.spawn(move || (lo..hi).for_each(f));
        }
        (0..nthreads / workers).for_each(f);
    });
}

struct LatencyRecord {
    nthreads: usize,
    pool_ns: f64,
    scoped_ns: f64,
    speedup: f64,
}
impl_to_json!(LatencyRecord {
    nthreads,
    pool_ns,
    scoped_ns,
    speedup
});

struct ImbalanceRecord {
    tasks: usize,
    skew: usize,
    pool_ns: f64,
    scoped_ns: f64,
    speedup: f64,
}
impl_to_json!(ImbalanceRecord {
    tasks,
    skew,
    pool_ns,
    scoped_ns,
    speedup
});

struct Report {
    schema: usize,
    bench: String,
    workers: usize,
    reps: usize,
    pool_dispatch_ns_8w: f64,
    scoped_dispatch_ns_8w: f64,
    speedup_8w: f64,
    latency: Vec<LatencyRecord>,
    imbalance: ImbalanceRecord,
}
impl_to_json!(Report {
    schema,
    bench,
    workers,
    reps,
    pool_dispatch_ns_8w,
    scoped_dispatch_ns_8w,
    speedup_8w,
    latency,
    imbalance
});

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
        .max(1)
}

/// Median wall time over `reps` timed runs (after warmup). Dispatch
/// latency is long-tailed — a single descheduled worker stretches one
/// sample by a full timeslice — so the median is the honest statistic.
fn median_ns(warmups: usize, reps: usize, mut f: impl FnMut()) -> f64 {
    for _ in 0..warmups {
        f();
    }
    let mut samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_nanos() as f64
        })
        .collect();
    samples.sort_by(|a, b| a.total_cmp(b));
    samples[samples.len() / 2]
}

/// Burns deterministic CPU time proportional to `units`.
#[inline(never)]
fn spin_work(units: usize) -> u64 {
    let mut acc = 0u64;
    for i in 0..units * 40 {
        acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i as u64);
        std::hint::black_box(acc);
    }
    acc
}

fn main() {
    let reps = env_usize("STEF_REPS", 300);
    let pool = Executor::new(WORKERS);

    eprintln!(
        "runtime dispatch bench: {WORKERS} workers, median of {reps} \
         (pool = persistent epoch-dispatched pool, scoped = per-dispatch thread::scope)"
    );

    // ---- experiment 1: dispatch latency ----
    let mut latency: Vec<LatencyRecord> = Vec::new();
    for nthreads in 1..=16usize {
        let sink = std::sync::atomic::AtomicU64::new(0);
        let body = |th: usize| {
            sink.fetch_add(th as u64, std::sync::atomic::Ordering::Relaxed);
        };
        let pool_ns = median_ns(50, reps, || pool.fanout(nthreads, body));
        let scoped_ns = median_ns(5, reps.min(100), || {
            scoped_fanout(WORKERS, nthreads, &body)
        });
        latency.push(LatencyRecord {
            nthreads,
            pool_ns,
            scoped_ns,
            speedup: scoped_ns / pool_ns,
        });
    }

    // ---- experiment 2: uneven work ----
    // 64 tasks; every 8th task is 32x heavier than the rest. Static
    // blocks hand one worker a run of heavy tasks; dynamic chunks
    // spread them.
    const TASKS: usize = 64;
    const SKEW: usize = 32;
    let work = |th: usize| {
        let units = if th.is_multiple_of(8) { SKEW } else { 1 };
        std::hint::black_box(spin_work(units));
    };
    let imb_reps = reps.min(100);
    let pool_imb = median_ns(5, imb_reps, || pool.fanout(TASKS, work));
    let scoped_imb = median_ns(2, imb_reps, || scoped_fanout(WORKERS, TASKS, &work));
    let imbalance = ImbalanceRecord {
        tasks: TASKS,
        skew: SKEW,
        pool_ns: pool_imb,
        scoped_ns: scoped_imb,
        speedup: scoped_imb / pool_imb,
    };

    let mut table = Table::new(&["nthreads", "pool (µs)", "scoped (µs)", "speedup"]);
    for r in &latency {
        table.row(vec![
            r.nthreads.to_string(),
            format!("{:.2}", r.pool_ns / 1e3),
            format!("{:.2}", r.scoped_ns / 1e3),
            format!("{:.2}x", r.speedup),
        ]);
    }
    eprintln!("{}", table.render());
    eprintln!(
        "imbalance ({TASKS} tasks, {SKEW}x skew): pool {:.2} µs, scoped {:.2} µs ({:.2}x)",
        imbalance.pool_ns / 1e3,
        imbalance.scoped_ns / 1e3,
        imbalance.speedup
    );
    let c = pool.counters();
    eprintln!(
        "pool counters: {} dispatches, {} inline, dispatcher claimed {} chunks",
        c.dispatches, c.inline_runs, c.dispatcher_chunks
    );

    let at8 = &latency[7];
    assert_eq!(at8.nthreads, 8);
    let report = Report {
        schema: 1,
        bench: "runtime_dispatch".into(),
        workers: WORKERS,
        reps,
        pool_dispatch_ns_8w: at8.pool_ns,
        scoped_dispatch_ns_8w: at8.scoped_ns,
        speedup_8w: at8.speedup,
        latency,
        imbalance,
    };
    let root = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .unwrap_or_else(|_| std::path::PathBuf::from("."));
    if let Some(path) = write_json_at(root.join("BENCH_runtime.json"), &report) {
        eprintln!("wrote {}", path.display());
    }
}
