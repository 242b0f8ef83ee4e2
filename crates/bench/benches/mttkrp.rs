//! Kernel-level benchmark of the memoized MTTKRP passes
//! (`stef::kernels`), per mode, per accumulation strategy and per SIMD
//! dispatch path, plus an engine race (CSF vs linearized).
//!
//! Besides the usual stderr table this bench writes the tracked
//! trajectory files `BENCH_mttkrp.json` (the kernels) and
//! `BENCH_alto.json` (the engine race) at the repo root.
//!
//! The kernels fan out on one persistent worker pool sized by
//! `runtime::resolve_workers(0)` (`pool_workers` in the report) and
//! are measured once per available SIMD variant (`scalar` plus the
//! detected best ISA), one record per variant. Each lane of a cell is
//! timed consecutively (warm caches — alternating lanes would evict
//! each other's working set and penalize the cache-resident modes)
//! with a best-of rep count high enough that every lane finds a quiet
//! window on a shared box.
//!
//! `BENCH_mttkrp.json` is schema 6 (`bench: "mttkrp_kernels"`): a
//! top-level `simd` (the detected path) and `pool_workers`, and per
//! record the `mode`, `accum`, `use_saved`, `simd` (the dispatch path
//! of that measurement), `ns` (best-of-reps) and `bytes_per_ns` — the
//! mode's counted kernel traffic (`stef::count_sweep`, elements × 8
//! bytes) over `ns`, i.e. the achieved effective bandwidth.
//!
//! Environment knobs:
//!
//! * `STEF_BENCH_NNZ`  — nonzeros in the synthetic tensor (default 200 000)
//! * `STEF_BENCH_RANK` — factor rank (default 16)
//! * `STEF_THREADS`    — logical threads in the schedule (default 8)
//! * `STEF_REPS`       — timed repetitions, best-of (default 5)
//! * `STEF_SIMD`       — forces a single dispatch path; the bench then
//!   records only that variant

use linalg::simd::{self, SimdPath, SimdPolicy};
use linalg::Mat;
use sptensor::build_csf;
use std::time::Instant;
use stef::kernels::{mode0_with, modeu_with, KernelCtx, ResolvedAccum};
use stef::{count_sweep, init_factors, LoadBalance, PartialStore, Schedule, Workspace};
use stef_bench::{impl_to_json, write_json_at, Table};
use workloads::power_law_tensor;

/// One mode × accumulation-strategy × SIMD-path measurement:
/// best-of-reps `ns`, and counted kernel traffic over it.
struct Record {
    mode: usize,
    accum: String,
    use_saved: bool,
    simd: String,
    ns: f64,
    bytes_per_ns: f64,
}
impl_to_json!(Record {
    mode,
    accum,
    use_saved,
    simd,
    ns,
    bytes_per_ns
});

struct Report {
    schema: usize,
    bench: String,
    dims: Vec<usize>,
    nnz: usize,
    rank: usize,
    threads: usize,
    reps: usize,
    pool_workers: usize,
    simd: String,
    records: Vec<Record>,
}
impl_to_json!(Report {
    schema,
    bench,
    dims,
    nnz,
    rank,
    threads,
    reps,
    pool_workers,
    simd,
    records
});

/// One mode of the engine race: the CSF engine against the linearized
/// (ALTO-style) engine, full-engine `mttkrp` calls (best-of-reps, ns).
struct EngineRecord {
    mode: usize,
    csf_ns: f64,
    alto_ns: f64,
    speedup: f64,
}
impl_to_json!(EngineRecord {
    mode,
    csf_ns,
    alto_ns,
    speedup
});

/// The tracked `BENCH_alto.json` trajectory (schema 3): engine-level
/// CSF vs ALTO on an irregular hypersparse tensor, plus which engine
/// `--engine auto` (the §IV-C pricing) selects for it.
struct EngineReport {
    schema: usize,
    bench: String,
    dims: Vec<usize>,
    nnz: usize,
    rank: usize,
    threads: usize,
    reps: usize,
    simd: String,
    auto_pick: String,
    sweep_speedup: f64,
    records: Vec<EngineRecord>,
}
impl_to_json!(EngineReport {
    schema,
    bench,
    dims,
    nnz,
    rank,
    threads,
    reps,
    simd,
    auto_pick,
    sweep_speedup,
    records
});

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
        .max(1)
}

/// Best-of-`reps` wall time per lane in nanoseconds. Each lane runs its
/// `warmups` untimed reps and then its timed reps *consecutively*:
/// these kernels are cache-resident, and alternating lanes would make
/// every rep a cold-cache run for both sides. Each lane is responsible
/// for forcing its own dispatch path before doing work.
fn race_ns(warmups: usize, reps: usize, lanes: &mut [Box<dyn FnMut() + '_>]) -> Vec<f64> {
    let mut best = vec![f64::INFINITY; lanes.len()];
    for (i, f) in lanes.iter_mut().enumerate() {
        for _ in 0..warmups {
            f();
        }
        for _ in 0..reps {
            let t0 = Instant::now();
            f();
            best[i] = best[i].min(t0.elapsed().as_nanos() as f64);
        }
    }
    best
}

fn accum_name(a: ResolvedAccum) -> &'static str {
    match a {
        ResolvedAccum::Privatized => "privatized",
        ResolvedAccum::Atomic => "atomic",
    }
}

fn main() {
    let nnz = env_usize("STEF_BENCH_NNZ", 200_000);
    let rank = env_usize("STEF_BENCH_RANK", 16);
    let nthreads = env_usize("STEF_THREADS", 8);
    let reps = env_usize("STEF_REPS", 5);
    let dims = [2_000usize, 5_000, 8_000];

    // Dispatch variants to measure: scalar plus the detected best ISA
    // when one exists. A `STEF_SIMD` env override narrows the bench to
    // that single path.
    let detected = simd::detect();
    let variants: Vec<SimdPath> = match std::env::var("STEF_SIMD") {
        Ok(name) => match SimdPath::parse(name.trim()) {
            Some(p) if p.available() => vec![p],
            _ => vec![detected],
        },
        Err(_) if detected != SimdPath::Scalar => vec![SimdPath::Scalar, detected],
        Err(_) => vec![SimdPath::Scalar],
    };

    let t = power_law_tensor(&dims, nnz, &[0.8, 0.5, 0.3], 42);
    let csf = build_csf(&t, &[0, 1, 2]);
    let d = csf.ndim();
    let sched = Schedule::build(&csf, nthreads, LoadBalance::NnzBalanced);
    let factors = init_factors(&dims, rank, 7);
    let refs: Vec<&Mat> = factors.iter().collect();
    let ctx = KernelCtx::new(&csf, &sched, refs, rank);

    // Memoize P^(1) — the paper's standard 3-way configuration. The
    // mode-0 lanes rebuild the store every rep from fixed factors, so
    // lane order never affects inputs.
    let save = [false, true, false];
    let mut partials = PartialStore::allocate(&csf, &save, nthreads, rank);
    let max_dim = *csf.level_dims().iter().max().unwrap();
    let ws = std::cell::RefCell::new(Workspace::new(d, rank, nthreads, max_dim));
    let rt = stef::Executor::new(stef::runtime::resolve_workers(0));

    // Counted kernel traffic per mode (elements), for the effective
    // bandwidth column. Accumulation strategy does not enter the count.
    let traffic = count_sweep(&csf, &save, rank);

    eprintln!(
        "mttkrp kernels: dims {dims:?}, {} nnz, rank {rank}, {nthreads} logical threads, \
         {} pool workers, best of {reps}, simd variants {:?}",
        t.nnz(),
        rt.workers(),
        variants.iter().map(|v| v.as_str()).collect::<Vec<_>>(),
    );

    let views = partials.shared_views();
    // Mode 0 first (root pass, stores partials; output rows are
    // disjoint per subtree so the accumulation strategy does not
    // apply), then modes 1..d under both strategies.
    let mut cells: Vec<(usize, Option<ResolvedAccum>, bool)> = vec![(0, None, false)];
    for (u, &use_saved) in save.iter().enumerate().skip(1) {
        for accum in [ResolvedAccum::Privatized, ResolvedAccum::Atomic] {
            cells.push((u, Some(accum), use_saved));
        }
    }
    let mut records: Vec<Record> = Vec::new();
    for (u, accum, use_saved) in cells {
        let mut outs: Vec<Mat> = variants
            .iter()
            .map(|_| Mat::zeros(csf.level_dims()[u], rank))
            .collect();
        let mut lanes: Vec<Box<dyn FnMut()>> = Vec::new();
        for (out, &path) in outs.iter_mut().zip(&variants) {
            let (ctx, views, rt, ws) = (&ctx, &views, &rt, &ws);
            lanes.push(Box::new(move || {
                simd::apply(SimdPolicy::Force(path));
                let ws = &mut ws.borrow_mut();
                match accum {
                    None => mode0_with(ctx, views, rt, ws, out),
                    Some(a) => modeu_with(ctx, views, use_saved, u, a, rt, ws, out),
                }
            }));
        }
        let times = race_ns(2, reps, &mut lanes);
        drop(lanes);
        let (rd, wr) = traffic.per_mode[u];
        for (&path, &ns) in variants.iter().zip(&times) {
            records.push(Record {
                mode: u,
                accum: accum.map_or("n/a", accum_name).into(),
                use_saved,
                simd: path.as_str().into(),
                ns,
                bytes_per_ns: (rd + wr) * 8.0 / ns,
            });
        }
    }
    simd::apply(SimdPolicy::Force(detected));

    let mut table = Table::new(&["mode", "accum", "memo", "simd", "time (ms)", "GB/s"]);
    for r in &records {
        table.row(vec![
            r.mode.to_string(),
            r.accum.clone(),
            if r.use_saved { "saved" } else { "-" }.to_string(),
            r.simd.clone(),
            format!("{:.3}", r.ns / 1e6),
            format!("{:.2}", r.bytes_per_ns),
        ]);
    }
    eprintln!("{}", table.render());

    let report = Report {
        schema: 6,
        bench: "mttkrp_kernels".into(),
        dims: dims.to_vec(),
        nnz: t.nnz(),
        rank,
        threads: nthreads,
        reps,
        pool_workers: rt.workers(),
        simd: detected.as_str().into(),
        records,
    };
    // `cargo bench` runs benches from the crate dir; the repo root is
    // two levels up from crates/bench.
    let root = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .unwrap_or_else(|_| std::path::PathBuf::from("."));
    if let Some(path) = write_json_at(root.join("BENCH_mttkrp.json"), &report) {
        eprintln!("wrote {}", path.display());
    }

    // --------------------------------------------------------------
    // Engine dimension: the CSF engine vs the linearized (ALTO-style)
    // engine, full `MttkrpEngine::mttkrp` calls on an irregular
    // hypersparse tensor — huge mode lengths, almost no fiber
    // collapse, the regime where the CSF pays its structure walk for
    // nothing. Also records which engine `--engine auto` selects via
    // the §IV-C pricing, so the model's pick is tracked alongside the
    // measured outcome.
    let alto_nnz = env_usize("STEF_BENCH_ALTO_NNZ", 100_000);
    let hdims = vec![1usize << 16, 1 << 16, 1 << 16];
    let ht = workloads::uniform_tensor(&hdims, alto_nnz, 97);
    let mut opts = stef::StefOptions::new(rank);
    opts.num_threads = nthreads;
    let mut csf_engine = stef::Stef::prepare(&ht, opts.clone());
    let mut alto_engine = stef::AltoEngine::prepare(&ht, opts.clone());
    opts.engine = stef::EngineChoice::Auto;
    let auto_pick = {
        use stef::MttkrpEngine as _;
        stef::build_engine(&ht, opts).expect("auto engine builds").name()
    };
    let hfactors = init_factors(&hdims, rank, 11);
    let d_h = hdims.len();
    let mut engine_records: Vec<EngineRecord> = Vec::new();
    {
        use stef::MttkrpEngine as _;
        for mode in 0..d_h {
            let mut lanes: Vec<Box<dyn FnMut()>> = Vec::new();
            {
                let (e, f) = (&mut csf_engine, &hfactors);
                lanes.push(Box::new(move || {
                    std::hint::black_box(e.mttkrp(f, mode));
                }));
            }
            {
                let (e, f) = (&mut alto_engine, &hfactors);
                lanes.push(Box::new(move || {
                    std::hint::black_box(e.mttkrp(f, mode));
                }));
            }
            let times = race_ns(1, reps, &mut lanes);
            engine_records.push(EngineRecord {
                mode,
                csf_ns: times[0],
                alto_ns: times[1],
                speedup: times[0] / times[1],
            });
        }
    }
    let csf_sweep: f64 = engine_records.iter().map(|r| r.csf_ns).sum();
    let alto_sweep: f64 = engine_records.iter().map(|r| r.alto_ns).sum();

    let mut etable = Table::new(&["mode", "csf (ms)", "alto (ms)", "speedup"]);
    for r in &engine_records {
        etable.row(vec![
            r.mode.to_string(),
            format!("{:.3}", r.csf_ns / 1e6),
            format!("{:.3}", r.alto_ns / 1e6),
            format!("{:.2}x", r.speedup),
        ]);
    }
    eprintln!(
        "engine race: dims {hdims:?}, {} nnz, auto picks '{auto_pick}', \
         sweep speedup {:.2}x\n{}",
        ht.nnz(),
        csf_sweep / alto_sweep,
        etable.render()
    );

    let engine_report = EngineReport {
        schema: 3,
        bench: "mttkrp_csf_vs_alto".into(),
        dims: hdims,
        nnz: ht.nnz(),
        rank,
        threads: nthreads,
        reps,
        simd: detected.as_str().into(),
        auto_pick,
        sweep_speedup: csf_sweep / alto_sweep,
        records: engine_records,
    };
    if let Some(path) = write_json_at(root.join("BENCH_alto.json"), &engine_report) {
        eprintln!("wrote {}", path.display());
    }
}
