//! Format-construction benchmarks: CSF build (sort + scan) vs the
//! ALTO-style linearization, and the cost of the extra CSF copies the
//! splatt-2/splatt-all/STeF2 variants pay.
//!
//! Besides the stderr table this bench writes the tracked trajectory
//! file `BENCH_formats.json` at the repo root: the set-up steps every
//! engine build pays before its first MTTKRP — `build_csf` in
//! mode-length order, the swapped-order rebuild from the same sort,
//! `Linearized::build` and a whole `build_engine(Auto)` — on uber Full
//! and freebase_music Small (the benchmark workloads' tensors), each in
//! its generated order and shuffled. Every step runs inline on one
//! thread; `ms` is the median of `STEF_REPS` (default 5) runs.
//!
//! `BENCH_formats.json` is schema 1 (`bench: "format_build"`) with a
//! `host` block: `cores` (available parallelism), `workers` (pool
//! workers the built engines own), `simd` (the detected dispatch path)
//! and the 1/5/15-minute load averages at start and end (empty where
//! the OS does not report them).

use baselines::{Alto, Splatt, SplattVariant};
use criterion::{criterion_group, BenchmarkId, Criterion};
use sptensor::{build_csf, sort_modes_by_length, CooTensor, LevelSort, Linearized};
use std::time::Instant;
use stef::{EngineChoice, MttkrpEngine, StefOptions};
use stef_bench::{impl_to_json, write_json_at, Table};
use workloads::{power_law_tensor, suite_tensor, SuiteScale};

fn bench_formats(c: &mut Criterion) {
    let dims = [2_000usize, 5_000, 8_000];
    let t = power_law_tensor(&dims, 200_000, &[0.8, 0.5, 0.3], 21);
    let order = sort_modes_by_length(t.dims());

    let pool = stef::Executor::new(stef::runtime::resolve_workers(0));
    let mut group = c.benchmark_group("format_build");
    group.sample_size(10);

    group.bench_function("csf_single", |b| {
        b.iter(|| build_csf(&t, &order));
    });
    group.bench_function("alto_linearize", |b| {
        b.iter(|| Alto::prepare(&t, 32, 0, &pool));
    });
    group.bench_function("hicoo_blocks", |b| {
        b.iter(|| baselines::HiCoo::prepare(&t, 32, 0, &pool));
    });
    for variant in [SplattVariant::One, SplattVariant::Two, SplattVariant::All] {
        group.bench_with_input(
            BenchmarkId::new("splatt_prepare", format!("{variant:?}")),
            &variant,
            |b, &v| b.iter(|| Splatt::prepare(&t, v, 32, 0, &pool)),
        );
    }
    group.bench_function("stef_prepare_with_model", |b| {
        b.iter(|| stef::Stef::prepare(&t, stef::StefOptions::new(32)));
    });
    group.finish();
}

criterion_group!(benches, bench_formats);

/// One set-up step on one tensor in one input order.
struct Record {
    tensor: String,
    nnz: usize,
    shuffled: bool,
    step: String,
    ms: f64,
}
impl_to_json!(Record {
    tensor,
    nnz,
    shuffled,
    step,
    ms
});

/// The machine a report was measured on.
struct Host {
    cores: usize,
    workers: usize,
    simd: String,
    load_start: Vec<f64>,
    load_end: Vec<f64>,
}
impl_to_json!(Host {
    cores,
    workers,
    simd,
    load_start,
    load_end
});

struct Report {
    schema: usize,
    bench: String,
    rank: usize,
    reps: usize,
    host: Host,
    records: Vec<Record>,
}
impl_to_json!(Report {
    schema,
    bench,
    rank,
    reps,
    host,
    records
});

/// The 1/5/15-minute load averages, where the OS reports them.
fn load_average() -> Vec<f64> {
    std::fs::read_to_string("/proc/loadavg")
        .map(|s| {
            s.split_whitespace()
                .take(3)
                .filter_map(|x| x.parse().ok())
                .collect()
        })
        .unwrap_or_default()
}

/// `t`'s non-zeros in a seeded Fisher–Yates order.
fn shuffled(t: &CooTensor, seed: u64) -> CooTensor {
    let mut perm: Vec<usize> = (0..t.nnz()).collect();
    let mut x = seed | 1;
    for i in (1..perm.len()).rev() {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        perm.swap(i, ((x >> 33) % (i as u64 + 1)) as usize);
    }
    let mut out = CooTensor::new(t.dims().to_vec());
    for e in perm {
        out.push(&t.coord(e), t.values()[e]);
    }
    out
}

/// Median of `reps` timings (ms) of `step`, after `prep` (untimed) each.
fn median_ms<S>(reps: usize, mut prep: impl FnMut() -> S, mut step: impl FnMut(S)) -> f64 {
    let mut ms: Vec<f64> = (0..reps)
        .map(|_| {
            let s = prep();
            let t0 = Instant::now();
            step(s);
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    ms.sort_by(f64::total_cmp);
    ms[reps / 2]
}

fn layout_report() {
    let reps = std::env::var("STEF_REPS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(5usize)
        .max(1);
    let rank = 16;
    let load_start = load_average();
    let mut opts = StefOptions::new(rank);
    opts.engine = EngineChoice::Auto;
    opts.num_threads = 1;
    let mut workers = 0;
    let mut records = Vec::new();
    for (name, scale, label) in [
        ("uber", SuiteScale::Full, "uber@full"),
        ("freebase_music", SuiteScale::Small, "freebase_music@small"),
    ] {
        let given = suite_tensor(name, scale).expect("a suite tensor");
        let order = sort_modes_by_length(given.dims());
        for shuffle in [false, true] {
            let t = if shuffle {
                shuffled(&given, 7)
            } else {
                given.clone()
            };
            let mut record = |step: &str, ms: f64| {
                records.push(Record {
                    tensor: label.into(),
                    nnz: t.nnz(),
                    shuffled: shuffle,
                    step: step.into(),
                    ms,
                })
            };
            record(
                "build_csf",
                median_ms(reps, || (), |()| drop(build_csf(&t, &order))),
            );
            record(
                "swapped_rebuild",
                median_ms(
                    reps,
                    || LevelSort::new(&t, &order),
                    |mut levels| {
                        levels.swap_last_two();
                        drop(levels.build());
                    },
                ),
            );
            record(
                "linearize",
                median_ms(reps, || (), |()| drop(Linearized::build(&t))),
            );
            record(
                "build_engine_auto",
                median_ms(
                    reps,
                    || (),
                    |()| {
                        let engine = stef::build_engine(&t, opts.clone()).expect("engine builds");
                        workers = engine.executor().workers();
                    },
                ),
            );
        }
    }

    let mut table = Table::new(&["tensor", "nnz", "input", "step", "ms"]);
    for r in &records {
        table.row(vec![
            r.tensor.clone(),
            r.nnz.to_string(),
            if r.shuffled { "shuffled" } else { "given" }.into(),
            r.step.clone(),
            format!("{:.1}", r.ms),
        ]);
    }
    eprintln!("{}", table.render());

    let report = Report {
        schema: 1,
        bench: "format_build".into(),
        rank,
        reps,
        host: Host {
            cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
            workers,
            simd: linalg::simd::detect().as_str().into(),
            load_start,
            load_end: load_average(),
        },
        records,
    };
    // `cargo bench` runs benches from the crate dir; the repo root is
    // two levels up from crates/bench.
    let root = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .unwrap_or_else(|_| std::path::PathBuf::from("."));
    if let Some(path) = write_json_at(root.join("BENCH_formats.json"), &report) {
        eprintln!("wrote {}", path.display());
    }
}

fn main() {
    benches();
    layout_report();
}
