//! The ALS workloads: cold rounds of `build_engine` + `cpd_als` on an
//! in-memory suite tensor, each followed by top-k reads of the fitted
//! model.

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use linalg::Mat;
use sptensor::CooTensor;
use stef::{cpd_als, CpdOptions, EngineChoice, MttkrpEngine, SnapshotStore, StefOptions};
use workloads::suite::{paper_suite, SuiteScale};

use crate::layers;
use crate::report::{Metrics, Outcome};
use crate::stats::{median, percentile};
use crate::timed::{Sample, Timed};
use crate::trace::{layer_self_ms, now_ns, Recorder};
use crate::Run;

pub const RANK: usize = 16;
const MODEL: &str = "m";

/// Percentile of the pooled iteration times reported as `iter_ms_p2`.
/// Other tenants' load slows iterations by up to 1.8x for minutes at a
/// time, and the share of slowed iterations in a run decides its median
/// (als-dense: median spread 0.27 over ten runs of the same code). Even
/// a busy run has some unslowed iterations, so a low percentile
/// measures the code rather than the host (spread 0.06-0.08 on the same
/// runs); p2 keeps ~8 samples below it on als-dense and ~3 on als-tall.
const ITER_PCT: f64 = 2.0;

pub struct AlsWorkload {
    pub suite: &'static str,
    pub scale: SuiteScale,
    pub engine: EngineChoice,
    /// ALS iterations per round (the first is part of set-up).
    pub iters: usize,
    /// HTTP reads of the fitted model per round.
    pub queries: usize,
    /// Tail percentiles of `iter_ms` and `query_us` for the detail line
    /// (see [`crate::stats::tail`]).
    pub iter_tail: f64,
    pub query_tail: f64,
}

/// The suite tensor `name` at `scale`, generated with `seed` in place
/// of the suite's fixed seed.
pub fn suite_tensor(name: &str, scale: SuiteScale, seed: u64) -> CooTensor {
    let mut spec = paper_suite()
        .into_iter()
        .find(|s| s.name == name)
        .unwrap_or_else(|| panic!("no suite tensor '{name}'"));
    spec.seed = seed;
    spec.generate(scale)
}

pub fn options(engine: EngineChoice, threads: usize) -> StefOptions {
    let mut opts = StefOptions::new(RANK);
    opts.num_threads = threads;
    opts.engine = engine;
    opts
}

type Engine = Timed<dyn MttkrpEngine + Send>;

/// What one round measured.
struct Round {
    traced: bool,
    setup_s: f64,
    job_ms: f64,
    query_us: Vec<f64>,
    sample: Sample,
    fit_bits: u64,
}

/// What every round of a run shares.
struct Bench<'a> {
    w: &'a AlsWorkload,
    coo: CooTensor,
    opts: StefOptions,
    /// The idle daemon serving the reads, and its snapshot store.
    addr: SocketAddr,
    store: &'a SnapshotStore,
}

/// Runs one cold round, recording spans into `rec` when given. The
/// engine and final factors are left in `keep`.
fn round(
    b: &Bench,
    id: u64,
    rec: Option<&Recorder>,
    out: &mut Outcome,
    keep: &mut Option<(Engine, Vec<Mat>)>,
) -> Option<Round> {
    let (w, coo, opts) = (b.w, &b.coo, &b.opts);
    let t0 = now_ns();
    let engine = match stef::build_engine(coo, opts.clone()) {
        Ok(e) => e,
        Err(e) => {
            out.errors.push(format!("build_engine failed: {e}"));
            return None;
        }
    };
    let t_built = now_ns();
    let mut engine: Engine = Timed::new(engine);
    let mut copts = CpdOptions::new(RANK);
    copts.max_iters = w.iters;
    copts.tol = 0.0;
    let result = cpd_als(&mut engine, &copts);
    let t_done = now_ns();
    let result = match result {
        Ok(r) => r,
        Err(e) => {
            out.errors.push(format!("cpd_als failed: {e}"));
            out.failed += w.iters as u64;
            return None;
        }
    };
    let log = engine.log.lock().unwrap_or_else(|p| p.into_inner()).clone();
    let Some(sample) = log.sample(engine.first_mode(), t_done) else {
        out.errors.push(format!("round {id}: fewer than two iterations seen at the engine"));
        return None;
    };
    out.check(sample.iters.len() == w.iters, || {
        format!("saw {} iterations at the engine, expected {}", sample.iters.len(), w.iters)
    });

    // Reads of the fitted model through the daemon's HTTP read path:
    // alternately a mode-0 factor row and a top-k over the largest
    // other mode.
    let ti = now_ns();
    b.store.install(MODEL, id as usize, &result);
    let t_installed = now_ns();
    let dims = coo.dims();
    let target = (1..dims.len()).max_by_key(|&m| dims[m]).unwrap_or(1);
    let mut query_us = Vec::with_capacity(w.queries);
    let mut q_spans = Vec::with_capacity(w.queries);
    for q in 0..w.queries {
        let s = now_ns();
        let res = crate::serve::read(b.addr, id * 1_000 + q as u64, dims[0], target);
        let e = now_ns();
        if let Err(err) = &res {
            out.errors.push(format!("read failed: {err}"));
        }
        query_us.push(if res.is_ok() { (e - s) as f64 / 1e3 } else { f64::INFINITY });
        q_spans.push((s, e));
    }
    let t_end = now_ns();

    if let Some(rec) = rec {
        let root = rec.push("bench.round", id, None, t0, t_end, 0);
        rec.push("engine.prepare", id, Some(root), t0, t_built, 0);
        let als = rec.push("cpd.cpd_als", id, Some(root), t_built, t_done, 0);
        for it in &sample.iters {
            let p = rec.push("cpd.iteration", id, Some(als), it.start_ns, it.end_ns, 0);
            for &(mode, s, e) in &log.calls[it.calls.clone()] {
                rec.push(&format!("kernels.mttkrp_mode{mode}"), id, Some(p), s, e, 0);
            }
        }
        rec.push("snapshot.install", id, Some(root), ti, t_installed, 0);
        for (s, e) in q_spans {
            rec.push("serve.read", id, Some(root), s, e, 0);
        }
    }

    let r = Round {
        traced: rec.is_some(),
        setup_s: (sample.iters[1].start_ns - t0) as f64 / 1e9,
        job_ms: (t_done - t0) as f64 / 1e6,
        query_us,
        sample,
        fit_bits: result.final_fit().to_bits(),
    };
    *keep = Some((engine, result.factors));
    Some(r)
}

pub fn run(w: &AlsWorkload, run: &Run) -> Outcome {
    let coo = suite_tensor(w.suite, w.scale, run.seed);
    let opts = options(w.engine, 1);
    crate::serve::with_read_server(&run.work_dir, |addr, store| {
        rounds(&Bench { w, coo, opts, addr, store }, run)
    })
    .unwrap_or_else(|e| {
        let mut out = Outcome::default();
        out.errors.push(e);
        out
    })
}

fn rounds(b: &Bench, run: &Run) -> Outcome {
    let (w, coo, opts) = (b.w, &b.coo, &b.opts);
    let mut out = Outcome::default();
    out.detail(
        "input",
        format!(
            "{{\"suite\":\"{}\",\"dims\":{:?},\"nnz\":{},\"rank\":{RANK},\"iters_per_round\":{},\"reads_per_round\":{}}}",
            w.suite,
            coo.dims(),
            coo.nnz(),
            w.iters,
            w.queries
        ),
    );

    // Round 0 warms the process (SIMD detection, the global pool) and
    // is discarded.
    let mut keep = None;
    let Some(warm) = round(b, 0, None, &mut out, &mut keep) else {
        return out;
    };
    if let Some((engine, _)) = keep.as_ref() {
        let picked = engine.name();
        out.detail("engine", format!("{{\"picked\":\"{picked}\",\"csf_plan\":{}}}", describe_plan(coo, opts)));
    }
    let fit0 = warm.fit_bits;

    let rec = Recorder::new();
    let deadline = Instant::now() + Duration::from_secs_f64(run.seconds);
    let mut rounds: Vec<Round> = Vec::new();
    let mut id = 1u64;
    while rounds.len() < 3 || Instant::now() < deadline {
        let traced = run.trace && id % 2 == 1;
        let Some(r) = round(b, id, traced.then_some(&rec), &mut out, &mut keep) else {
            break;
        };
        out.check(r.fit_bits == fit0, || format!("round {id}: final fit differs bitwise from round 0"));
        out.check(r.sample.alloc_growth == 0, || {
            format!("round {id}: engine allocated {} times after iteration 1", r.sample.alloc_growth)
        });
        out.attempted += (r.sample.iters.len() + r.query_us.len()) as u64;
        out.failed += r.query_us.iter().filter(|q| q.is_infinite()).count() as u64;
        rounds.push(r);
        id += 1;
    }
    let Some((mut engine, factors)) = keep.take() else { return out };
    // Peak RSS is read before the reference check clones the tensor.
    let peak_rss_mb = crate::host::peak_rss_mb();
    let diff = layers::reference_check(&mut engine, coo, &factors);
    out.check(diff <= 1e-9, || format!("MTTKRP differs from the reference by {diff:e} (relative)"));
    out.detail("reference_rel_diff", crate::report::num(diff));
    out.detail("rounds", format!("{}", rounds.len()));
    out.detail("workers", format!("{}", warm.sample.workers));

    let untraced: Vec<&Round> = rounds.iter().filter(|r| !r.traced).collect();
    if !run.trace {
        let iter_ms: Vec<f64> = untraced.iter().flat_map(|r| r.sample.iter_ms.iter().copied()).collect();
        let query_us: Vec<f64> = untraced.iter().flat_map(|r| r.query_us.iter().copied()).collect();
        let job_ms: Vec<f64> = untraced.iter().map(|r| r.job_ms).collect();
        let setup: Vec<f64> = untraced.iter().map(|r| r.setup_s).collect();
        let per_round: Vec<String> = untraced.iter().map(|r| format!("{:.2}", median(&r.sample.iter_ms))).collect();
        out.detail("round_iter_ms_p50", format!("[{}]", per_round.join(",")));
        out.metrics.set("setup_s", median(&setup), "s");
        out.metrics.set("iter_ms_p2", percentile(&iter_ms, ITER_PCT), "ms");
        out.metrics.set("query_us_p50", median(&query_us), "us");
        out.metrics.set("peak_rss_mb", peak_rss_mb, "MB");
        out.detail("iter_ms_p50", crate::report::num(median(&iter_ms)));
        out.tail("iter_ms_tail", &iter_ms, w.iter_tail);
        out.detail("job_ms_p50", crate::report::num(median(&job_ms)));
        out.tail("query_us_tail", &query_us, w.query_tail);
        return out;
    }

    // Traced run: per-layer numbers come from the traced rounds; the
    // untraced rounds in between give the tracing overhead.
    let traced: Vec<&Round> = rounds.iter().filter(|r| r.traced).collect();
    let samples: Vec<&Sample> = traced.iter().map(|r| &r.sample).collect();
    let (iter_p50, mttkrp_p50, dense_p50) = layers::kernel_metrics(&samples, &mut out.metrics);
    let untraced_iter = median(&untraced.iter().flat_map(|r| r.sample.iter_ms.iter().copied()).collect::<Vec<_>>());
    let m = &mut out.metrics;
    m.set("trace.overhead_pct", 100.0 * (iter_p50 / untraced_iter - 1.0), "%");
    let (_, predicted_bytes) = layers::setup_replay(&rec, coo, opts, m);
    layers::linalg_probe(&rec, &factors, m);
    drop(engine);
    pool2_probe(coo, w.engine, w.iters, m);

    let mut service = crate::serve::probe(run, &rec);
    m.items.append(&mut service.metrics.items);
    out.errors.append(&mut service.errors);

    let spans = rec.take();
    let m = &mut out.metrics;
    let (by_layer, total) = layer_self_ms(&spans, "bench.round");
    let unattributed = by_layer.get("bench").copied().unwrap_or(0.0);
    m.set("trace.unattributed_pct", 100.0 * unattributed / total, "%");
    let per_round: Vec<String> = by_layer
        .iter()
        .map(|(l, ms)| format!("\"{l}\":{:.3}", ms / traced.len().max(1) as f64))
        .collect();
    out.detail("layer_self_ms_per_round", format!("{{{}}}", per_round.join(",")));
    out.detail(
        "iteration_split_ms",
        format!("{{\"iter_p50\":{iter_p50:.3},\"kernels_p50\":{mttkrp_p50:.3},\"cpd_dense_p50\":{dense_p50:.3}}}"),
    );
    run.finish_traced(&mut out, spans, predicted_bytes, mttkrp_p50);
    out
}

/// The model's plan for the CSF engine: order, memoized levels, swap.
fn describe_plan(coo: &CooTensor, opts: &StefOptions) -> String {
    let mut o = opts.clone();
    o.engine = EngineChoice::Csf;
    match stef::Stef::try_prepare(coo, o) {
        Ok(s) => format!(
            "{{\"csf_order\":{:?},\"memoized_levels\":{:?},\"swap_last_two\":{}}}",
            s.csf().mode_order(),
            s.plan().save,
            s.plan().swap_last_two
        ),
        Err(_) => "null".into(),
    }
}

/// Two-worker probe: three cold rounds on a 2-worker engine pool.
/// Reports the median of per-round iteration medians and their spread.
pub fn pool2_probe(coo: &CooTensor, engine: EngineChoice, iters: usize, m: &mut Metrics) {
    let opts = options(engine, 2);
    let mut medians = Vec::new();
    for _ in 0..3 {
        let Ok(engine) = stef::build_engine(coo, opts.clone()) else { return };
        let mut engine = Timed::new(engine);
        let mut copts = CpdOptions::new(RANK);
        copts.max_iters = iters.clamp(2, 5);
        copts.tol = 0.0;
        if cpd_als(&mut engine, &copts).is_err() {
            return;
        }
        let end = now_ns();
        let log = engine.log.lock().unwrap_or_else(|p| p.into_inner()).clone();
        if let Some(s) = log.sample(engine.first_mode(), end) {
            medians.push(median(&s.iter_ms));
        }
    }
    let mid = median(&medians);
    m.set("runtime.pool2_iter_ms_p50", mid, "ms");
    m.set(
        "runtime.pool2_round_spread",
        (percentile(&medians, 100.0) - percentile(&medians, 0.0)) / mid,
        "ratio",
    );
}
