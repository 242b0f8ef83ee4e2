//! `perfbench` — the repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <als-dense|als-tall> --seed N --seconds S --trace <0|1>
//! ```
//!
//! Each workload runs in process through the public API as a series of
//! cold rounds (a fresh engine per round, the first discarded as
//! process warm-up). `--trace 0` prints the end-to-end
//! metrics; `--trace 1` records spans around every call into a layer,
//! writes them as Perfetto-loadable JSON under `.perfbench_work/`, and
//! prints the per-layer metrics. The last stdout line is the result:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`;
//! the line before it holds the host block and workload details. The
//! process exits 1 when a correctness check fails.

mod als;
mod host;
mod layers;
mod report;
mod serve;
mod stats;
mod timed;
mod trace;

use std::path::PathBuf;

use stef::EngineChoice;
use workloads::suite::SuiteScale;

use report::Outcome;
use trace::Span;

/// One invocation's settings.
#[derive(Clone, Debug)]
pub struct Run {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Scratch space for journals, checkpoints and trace files.
    pub work_dir: PathBuf,
}

impl Run {
    /// Adds the bandwidth roof, the kernels' modeled bandwidth against
    /// it, and writes the trace file.
    pub fn finish_traced(&self, out: &mut Outcome, spans: Vec<Span>, predicted_bytes: f64, mttkrp_ms: f64) {
        let (_, llc) = host::cache_sizes();
        // Three arrays whose sum is at least 4x the LLC.
        let array = ((4 * llc.max(8 << 20)) / 3).min(384 << 20);
        let triad = host::triad_gbps(array, 3);
        let model_gbps = predicted_bytes / (mttkrp_ms / 1e3) / 1e9;
        out.metrics.set("host.triad_gbps", triad, "GB/s");
        out.metrics.set("kernels.model_gbps", model_gbps, "GB/s");
        out.metrics.set("kernels.pct_of_roof", 100.0 * model_gbps / triad, "%");
        out.detail("triad", format!("{{\"llc_bytes\":{llc},\"array_bytes\":{array},\"arrays\":3}}"));
        let path = self.work_dir.join(format!("trace-{}-{}.json", self.workload, self.seed));
        match std::fs::write(&path, trace::chrome_json(&spans)) {
            Ok(()) => out.detail("trace_file", format!("\"{}\"", path.display())),
            Err(e) => out.errors.push(format!("cannot write {}: {e}", path.display())),
        }
        out.detail("spans", format!("{}", spans.len()));
    }
}

pub const WORKLOADS: [&str; 2] = ["als-dense", "als-tall"];

/// ~60 rounds in a 50 s run: ~420 steady iterations, ~960 reads.
pub fn als_dense(scale: SuiteScale) -> als::AlsWorkload {
    als::AlsWorkload {
        suite: "uber",
        scale,
        engine: EngineChoice::Csf,
        iters: 8,
        queries: 16,
        iter_tail: 95.0,
        query_tail: 95.0,
    }
}

/// ~33 rounds in a 50 s run: ~130 steady iterations, ~530 reads.
pub fn als_tall(scale: SuiteScale) -> als::AlsWorkload {
    als::AlsWorkload {
        suite: "freebase_music",
        scale,
        engine: EngineChoice::Auto,
        iters: 5,
        queries: 16,
        iter_tail: 90.0,
        query_tail: 95.0,
    }
}

fn run_workload(run: &Run) -> Outcome {
    match run.workload.as_str() {
        "als-dense" => als::run(&als_dense(SuiteScale::Full), run),
        "als-tall" => als::run(&als_tall(SuiteScale::Small), run),
        other => unreachable!("unknown workload {other}"),
    }
}

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!("usage: perfbench --workload <{}> --seed N --seconds S --trace <0|1>", WORKLOADS.join("|"));
    std::process::exit(2);
}

fn parse_args() -> Run {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut run = Run {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        work_dir: PathBuf::from(".perfbench_work"),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else { usage(&format!("{flag} needs a value")) };
        match flag.as_str() {
            "--workload" => run.workload = value.clone(),
            "--seed" => run.seed = value.parse().unwrap_or_else(|_| usage("bad --seed")),
            "--seconds" => run.seconds = value.parse().unwrap_or_else(|_| usage("bad --seconds")),
            "--trace" => {
                run.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            other => usage(&format!("unknown flag {other}")),
        }
    }
    if !WORKLOADS.contains(&run.workload.as_str()) {
        usage(&format!("unknown workload '{}'", run.workload));
    }
    run
}

/// Pins the process to one worker for the engine and the global pool:
/// on a 2-vCPU shared host the 2-worker pool is bimodal, so timed
/// numbers use one worker and the 2-worker behaviour is reported only
/// as the traced `runtime.pool2_*` probe.
fn pin_environment(run: &Run) {
    std::env::set_var("STEF_NUM_THREADS", "1");
    std::env::set_var("STEF_FLIGHT_DIR", &run.work_dir);
    if std::env::var_os("STEF_LOG").is_none() {
        std::env::set_var("STEF_LOG", "off");
    }
}

/// Fixes the allocator's layout so that peak RSS follows live memory,
/// not allocation history:
/// - one malloc arena for the whole process. With glibc's default of
///   one arena per thread (up to 8 per core), which arenas the daemon's
///   short-lived threads land in varies from run to run, and peak RSS
///   with it (24-31 MB for one seed of a refit-and-read daemon session,
///   against 15.0-15.8 MB with one arena);
/// - a fixed mmap threshold at glibc's maximum (32 MiB). By default
///   the threshold starts at 128 KiB and rises each time a mapped block
///   is freed, so which buffers live in the heap depends on the order
///   of earlier frees: als-tall's peak read 194 MB or 196-210 MB for
///   the same seed, and 205.6 MB every time with the fixed threshold.
///   A low fixed threshold would map and fault in every temporary of
///   every ALS iteration (als-tall iterations 10-20% slower).
fn fixed_malloc_layout() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn mallopt(param: i32, value: i32) -> i32;
        }
        const M_MMAP_THRESHOLD: i32 = -3;
        const M_ARENA_MAX: i32 = -8;
        // SAFETY: called before any thread is spawned; mallopt only
        // adjusts allocator tuning.
        unsafe {
            mallopt(M_ARENA_MAX, 1);
            mallopt(M_MMAP_THRESHOLD, 32 << 20);
        }
    }
}

fn main() {
    fixed_malloc_layout();
    let run = parse_args();
    if let Err(e) = std::fs::create_dir_all(&run.work_dir) {
        usage(&format!("cannot create {}: {e}", run.work_dir.display()));
    }
    pin_environment(&run);
    let host = host::Host::start();
    let out = run_workload(&run);

    let workers = out.detail.iter().find(|(k, _)| k == "workers").map_or("1".into(), |(_, v)| v.clone());
    let mut detail = vec![
        format!("\"workload\":\"{}\"", run.workload),
        format!("\"seed\":{}", run.seed),
        format!("\"trace\":{}", run.trace),
        format!("\"host\":{}", host.json(workers.parse().unwrap_or(1))),
    ];
    detail.extend(out.detail.iter().map(|(k, v)| format!("\"{k}\":{v}")));
    if !out.errors.is_empty() {
        let errs: Vec<String> = out.errors.iter().take(20).map(|e| format!("{e:?}")).collect();
        detail.push(format!("\"errors\":[{}]", errs.join(",")));
        for e in &out.errors {
            eprintln!("perfbench: check failed: {e}");
        }
    }
    println!("{{{}}}", detail.join(","));
    println!("{}", out.result_line());
    if !out.errors.is_empty() {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod smoke {
    //! Tiny-scale smoke runs of each workload, untraced and traced.
    use super::*;

    fn tiny_run(workload: &str, trace: bool) -> Run {
        let work_dir = PathBuf::from(".perfbench_work").join(format!("test-{workload}-{trace}"));
        std::fs::create_dir_all(&work_dir).unwrap();
        Run { workload: workload.into(), seed: 7, seconds: 1.0, trace, work_dir }
    }

    /// No failed check, ops attempted, and every metric finite and
    /// validly named.
    fn assert_ok(out: &Outcome) {
        assert!(out.errors.is_empty(), "{:?}", out.errors);
        assert!(out.attempted > 0);
        for (n, v, _) in &out.metrics.items {
            assert!(report::valid_name(n), "{n}");
            assert!(v.is_finite(), "{n} = {v}");
        }
    }

    /// `(end_to_end, per_layer)` metric names declared in BENCHMARK.json.
    fn declared() -> (Vec<String>, Vec<String>) {
        let text = std::fs::read_to_string("../BENCHMARK.json").expect("BENCHMARK.json at the repository root");
        let names = |section: &str| -> Vec<String> {
            section
                .split("\"name\": \"")
                .skip(1)
                .map(|t| t.split('"').next().unwrap_or("").to_string())
                .collect()
        };
        let e2e = text.split("\"end_to_end\"").nth(1).and_then(|t| t.split("\"per_layer\"").next()).unwrap();
        let layer = text.split("\"per_layer\"").nth(1).unwrap();
        (names(e2e), names(layer))
    }

    fn assert_declared(out: &Outcome, want: &[String]) {
        let got: Vec<&str> = out.metrics.items.iter().map(|(n, _, _)| n.as_str()).collect();
        for n in want {
            assert!(got.contains(&n.as_str()), "missing {n}");
        }
        assert_eq!(got.len(), want.len(), "undeclared metrics in {got:?}");
    }

    #[test]
    fn als_workloads_at_tiny_scale() {
        let (e2e, layer) = declared();
        for w in [als_dense(SuiteScale::Tiny), als_tall(SuiteScale::Tiny)] {
            let out = als::run(&w, &tiny_run(w.suite, false));
            assert_ok(&out);
            assert_declared(&out, &e2e);
        }
        let w = als_dense(SuiteScale::Tiny);
        let out = als::run(&w, &tiny_run("als-dense", true));
        assert_ok(&out);
        assert_declared(&out, &layer);
    }
}
