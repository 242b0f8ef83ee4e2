//! `stef decompose` — run CPD-ALS and optionally write the factors.
//!
//! Factors are written as one whitespace-separated text matrix per mode
//! (`mode0.mat`, `mode1.mat`, …) plus `lambda.txt`, a format trivially
//! loadable from numpy/Julia/R.

use crate::args::{parse, FlagSpec};
use crate::commands::{accum_by_name, apply_simd_flag, engine_by_name, numa_by_name, EngineConfig};
use crate::error::CliError;
use crate::tensor_source::load;
use linalg::Mat;
use std::io::Write;
use std::path::Path;
use std::time::Duration;
use stef::{cpd_als, CancelToken, Checkpoint, CheckpointPolicy, CpdOptions};
use workloads::SuiteScale;

/// Checkpoint path used when a run is interruptible (`--timeout`) but
/// the user gave no `--checkpoint`; interrupted runs stay resumable.
const DEFAULT_INTERRUPT_CHECKPOINT: &str = "stef-interrupted.ckpt";

pub fn run(argv: &[String]) -> Result<(), CliError> {
    let spec = FlagSpec::new(&[
        ("--rank", "rank"),
        ("-r", "rank"),
        ("--iters", "iters"),
        ("--tol", "tol"),
        ("--engine", "engine"),
        ("--threads", "threads"),
        ("--out", "out"),
        ("--seed", "seed"),
        ("--mode", "mode"),
        ("--accum", "accum"),
        ("--simd", "simd"),
        ("--numa", "numa"),
        ("--checkpoint", "checkpoint"),
        ("--checkpoint-every", "checkpoint-every"),
        ("--resume", "resume"),
        ("--timeout", "timeout"),
        ("--memory-budget", "memory-budget"),
        ("--metrics-out", "metrics-out"),
        ("--trace-out", "trace-out"),
        ("--verbose", "verbose"),
        ("-v", "verbose"),
    ])
    .with_switches(&["verbose"]);
    let p = parse(argv, &spec)?;
    let tensor_spec = p.one_positional("tensor")?;
    let rank: usize = p.num_or("rank", 16)?;
    let iters: usize = p.num_or("iters", 50)?;
    let tol: f64 = p.num_or("tol", 1e-5)?;
    let seed: u64 = p.num_or("seed", 42)?;
    let threads: usize = p.num_or("threads", 0)?;
    let timeout: f64 = p.num_or("timeout", 0.0)?;
    let memory_budget: usize = p.num_or("memory-budget", 0)?;
    if !timeout.is_finite() || timeout < 0.0 {
        return Err(CliError::Usage(format!(
            "--timeout must be a non-negative number of seconds, got {timeout}"
        )));
    }
    let engine_name = p.str_or("engine", "stef");
    let update_mode = p.str_or("mode", "als");
    let accum = accum_by_name(p.str_or("accum", "auto")).map_err(CliError::Usage)?;
    let simd = apply_simd_flag(p.str_or("simd", "auto")).map_err(CliError::Usage)?;
    // No flag → honor STEF_NUMA (defaults to auto).
    let numa = match p.opt_str("numa") {
        Some(name) => numa_by_name(name).map_err(CliError::Usage)?,
        None => stef::NumaPolicy::from_env(),
    };
    let checkpoint_every: usize = p.num_or("checkpoint-every", 5)?;
    let checkpoint = match p.opt_str("checkpoint") {
        Some(path) => Some(CheckpointPolicy::new(path, checkpoint_every)),
        // An interruptible run must leave something to resume from.
        None if timeout > 0.0 => {
            println!(
                "no --checkpoint given; an interrupted run will checkpoint to {DEFAULT_INTERRUPT_CHECKPOINT}"
            );
            Some(CheckpointPolicy::new(
                DEFAULT_INTERRUPT_CHECKPOINT,
                checkpoint_every,
            ))
        }
        None => None,
    };
    let resume = match p.opt_str("resume") {
        Some(path) => {
            let cp = Checkpoint::load(Path::new(path))?;
            println!(
                "resuming from {path} (iteration {}, engine '{}')",
                cp.iteration, cp.engine
            );
            Some(cp)
        }
        None => None,
    };

    let metrics_out = p.opt_str("metrics-out").map(String::from);
    let trace_out = p.opt_str("trace-out").map(String::from);
    let verbose = p.flag("verbose");
    // Span capture must be armed before the engine (and its worker
    // pool) dispatches anything we want on the trace.
    stef::telemetry::set_trace_enabled(trace_out.is_some());

    let (label, t) = load(tensor_spec, SuiteScale::Small).map_err(CliError::Input)?;
    println!(
        "decomposing {label} ({} nnz) with engine '{engine_name}', rank {rank}",
        t.nnz()
    );

    // One token serves --timeout, Ctrl-C, the engine's own kernels and
    // the dense fan-outs; the scope guard detaches it when we return.
    let token = CancelToken::new();
    if timeout > 0.0 {
        token.set_deadline(Duration::from_secs_f64(timeout));
        println!("deadline armed: {timeout}s");
    }
    let _cancel_scope = crate::cancel::install(&token);

    let cfg = EngineConfig {
        rank,
        threads,
        accum,
        memory_budget,
        cancel: Some(token.clone()),
        simd,
        numa,
    };
    let mut engine = engine_by_name(engine_name, &t, &cfg)?;
    let opts = CpdOptions {
        rank,
        max_iters: iters,
        tol,
        seed,
        checkpoint,
        resume,
        cancel: Some(token.clone()),
    };
    match update_mode {
        "als" => {
            let result = match cpd_als(engine.as_mut(), &opts) {
                Ok(r) => r,
                Err(e) => {
                    if let stef::StefError::Cancelled {
                        checkpoint_iteration: Some(it),
                        ..
                    } = &e
                    {
                        if let Some(policy) = &opts.checkpoint {
                            println!(
                                "cancelled; checkpoint at iteration {it} — resume with --resume {}",
                                policy.path.display()
                            );
                        }
                    }
                    return Err(e.into());
                }
            };
            for ev in &result.degradations {
                println!("memory budget: {ev}");
            }
            println!(
                "fit {:.6} after {} iterations (converged: {}); {:?} total, {:?} in MTTKRP",
                result.final_fit(),
                result.iterations,
                result.converged,
                result.total_time,
                result.mttkrp_time()
            );
            if result.irregular_solves > 0 {
                println!(
                    "note: {} solves needed ridge/LU fallback",
                    result.irregular_solves
                );
            }
            for ev in &result.recovery.events {
                println!(
                    "recovery: iteration {} {:?}: {}",
                    ev.iteration, ev.action, ev.detail
                );
            }
            if result.checkpoints_written > 0 {
                println!("{} checkpoints written", result.checkpoints_written);
            }
            if let Some(path) = &metrics_out {
                let body = stef::telemetry::render_metrics_jsonl(&result.telemetry);
                std::fs::write(path, body)
                    .map_err(|e| CliError::Input(format!("cannot write '{path}': {e}")))?;
                println!(
                    "metrics written to {path} ({} iteration records)",
                    result.telemetry.records.len()
                );
            }
            if let Some(path) = &trace_out {
                stef::telemetry::set_trace_enabled(false);
                let body = stef::telemetry::render_chrome_trace(&result.telemetry.spans);
                std::fs::write(path, body)
                    .map_err(|e| CliError::Input(format!("cannot write '{path}': {e}")))?;
                println!(
                    "trace written to {path} ({} spans) — load in Perfetto or chrome://tracing",
                    result.telemetry.spans.len()
                );
            }
            if verbose {
                print!("{}", stef::telemetry::render_summary(&result.telemetry));
                if let Some(counters) = engine.telemetry_runtime_counters() {
                    print!("{}", stef::telemetry::render_load_balance(&counters));
                }
            }
            if let Some(dir) = p.opt_str("out") {
                write_factors(dir, &result.factors, &result.lambda)
                    .map_err(|e| CliError::Input(format!("cannot write factors to '{dir}': {e}")))?;
                println!("factors written to {dir}/");
            }
        }
        "nonneg" => {
            if metrics_out.is_some() || trace_out.is_some() {
                println!(
                    "note: --metrics-out/--trace-out only instrument --mode als; \
                     the nonnegative driver records no telemetry"
                );
            }
            let result = stef::cpd_mu_nonneg(engine.as_mut(), &opts);
            println!(
                "nonnegative fit {:.6} after {} iterations (converged: {}); {:?} total",
                result.final_fit(),
                result.iterations,
                result.converged,
                result.total_time
            );
            if let Some(dir) = p.opt_str("out") {
                let lambda = vec![1.0; rank];
                write_factors(dir, &result.factors, &lambda)
                    .map_err(|e| CliError::Input(format!("cannot write factors to '{dir}': {e}")))?;
                println!("factors written to {dir}/");
            }
        }
        other => {
            return Err(CliError::Usage(format!(
                "unknown --mode '{other}' (als|nonneg)"
            )))
        }
    }
    Ok(())
}

fn write_factors(dir: &str, factors: &[Mat], lambda: &[f64]) -> std::io::Result<()> {
    let dir = Path::new(dir);
    std::fs::create_dir_all(dir)?;
    for (m, f) in factors.iter().enumerate() {
        let mut w =
            std::io::BufWriter::new(std::fs::File::create(dir.join(format!("mode{m}.mat")))?);
        for i in 0..f.rows() {
            let row: Vec<String> = f.row(i).iter().map(|v| format!("{v:.17e}")).collect();
            writeln!(w, "{}", row.join(" "))?;
        }
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(dir.join("lambda.txt"))?);
    for l in lambda {
        writeln!(w, "{l:.17e}")?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    fn argv(items: &[&str]) -> Vec<String> {
        items.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn decomposes_and_writes_factors() {
        let dir = std::env::temp_dir().join("stef-cli-decomp");
        let dir_str = dir.to_str().unwrap().to_string();
        super::run(&argv(&[
            "suite:uber:tiny",
            "--rank",
            "4",
            "--iters",
            "3",
            "--out",
            &dir_str,
        ]))
        .unwrap();
        // uber has 4 modes.
        for m in 0..4 {
            let path = dir.join(format!("mode{m}.mat"));
            let body = std::fs::read_to_string(&path).unwrap();
            let rows = body.lines().count();
            assert!(rows > 0, "mode{m}.mat empty");
            let cols = body.lines().next().unwrap().split_whitespace().count();
            assert_eq!(cols, 4);
        }
        let lambda = std::fs::read_to_string(dir.join("lambda.txt")).unwrap();
        assert_eq!(lambda.lines().count(), 4);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn telemetry_sinks_are_written() {
        let dir = std::env::temp_dir().join("stef-cli-telemetry");
        std::fs::create_dir_all(&dir).unwrap();
        let metrics = dir.join("metrics.jsonl");
        let trace = dir.join("trace.json");
        super::run(&argv(&[
            "suite:uber:tiny",
            "--rank",
            "3",
            "--iters",
            "3",
            "--tol",
            "0",
            "--metrics-out",
            metrics.to_str().unwrap(),
            "--trace-out",
            trace.to_str().unwrap(),
            "--verbose",
        ]))
        .unwrap();
        let body = std::fs::read_to_string(&metrics).unwrap();
        assert_eq!(body.lines().count(), 3, "one JSONL record per iteration");
        for line in body.lines() {
            assert!(line.starts_with("{\"schema\":1,"), "{line}");
            assert!(line.contains("\"modes\":["), "{line}");
        }
        let trace_body = std::fs::read_to_string(&trace).unwrap();
        assert!(trace_body.trim_start().starts_with('['));
        assert!(trace_body.contains("\"thread_name\""));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn nonneg_mode_runs() {
        super::run(&argv(&[
            "suite:uber:tiny",
            "--rank",
            "3",
            "--iters",
            "3",
            "--mode",
            "nonneg",
        ]))
        .unwrap();
    }

    #[test]
    fn rejects_unknown_mode() {
        assert!(super::run(&argv(&["suite:uber:tiny", "--mode", "magic"])).is_err());
    }

    #[test]
    fn rejects_unknown_engine() {
        assert!(super::run(&argv(&["suite:uber:tiny", "--engine", "hype"])).is_err());
    }

    #[test]
    fn explicit_accum_strategies_run() {
        for accum in ["auto", "privatized", "atomic"] {
            super::run(&argv(&[
                "suite:uber:tiny",
                "--rank",
                "3",
                "--iters",
                "2",
                "--accum",
                accum,
            ]))
            .unwrap();
        }
    }

    #[test]
    fn explicit_simd_paths_run() {
        for simd in ["auto", "scalar"] {
            super::run(&argv(&[
                "suite:uber:tiny",
                "--rank",
                "3",
                "--iters",
                "2",
                "--simd",
                simd,
            ]))
            .unwrap();
        }
        // Leave the process on the detected path for other tests.
        linalg::simd::apply(stef::SimdPolicy::Force(linalg::simd::detect()));
    }

    #[test]
    fn rejects_unknown_simd_as_usage_error() {
        let err = super::run(&argv(&["suite:uber:tiny", "--simd", "sse9"]))
            .expect_err("bad --simd must fail");
        assert_eq!(err.exit_code(), 2, "{err}");
    }

    #[test]
    fn rejects_unknown_accum_as_usage_error() {
        let err = super::run(&argv(&["suite:uber:tiny", "--accum", "sometimes"]))
            .expect_err("bad --accum must fail");
        assert_eq!(err.exit_code(), 2, "{err}");
    }

    #[test]
    fn checkpoint_and_resume_flags_work() -> Result<(), String> {
        let dir = std::env::temp_dir().join("stef-cli-ckpt");
        std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
        let ckpt = dir.join("run.ckpt");
        let ckpt_str = ckpt.to_str().ok_or("non-UTF-8 temp path")?;
        super::run(&argv(&[
            "suite:uber:tiny",
            "--rank",
            "3",
            "--iters",
            "4",
            "--tol",
            "0",
            "--checkpoint",
            ckpt_str,
            "--checkpoint-every",
            "2",
        ]))
        .map_err(|e| e.to_string())?;
        assert!(ckpt.exists(), "checkpoint file not written");
        super::run(&argv(&[
            "suite:uber:tiny",
            "--rank",
            "3",
            "--iters",
            "6",
            "--tol",
            "0",
            "--resume",
            ckpt_str,
        ]))
        .map_err(|e| e.to_string())?;
        // Resuming under a different rank must fail with the checkpoint
        // exit class, not crash.
        let err = super::run(&argv(&[
            "suite:uber:tiny",
            "--rank",
            "5",
            "--resume",
            ckpt_str,
        ]))
        .expect_err("rank mismatch must fail");
        assert_eq!(err.exit_code(), 5, "{err}");
        std::fs::remove_dir_all(&dir).ok();
        Ok(())
    }

    #[test]
    fn expired_timeout_exits_with_the_cancel_code() {
        let err = super::run(&argv(&[
            "suite:uber:tiny",
            "--rank",
            "3",
            "--iters",
            "50",
            "--tol",
            "0",
            "--timeout",
            "0.000001",
        ]))
        .expect_err("an already-expired deadline must cancel the run");
        assert_eq!(err.exit_code(), 6, "{err}");
    }

    #[test]
    fn non_finite_timeout_is_a_usage_error() {
        let err = super::run(&argv(&["suite:uber:tiny", "--timeout", "nan"]))
            .expect_err("nan timeout must be rejected");
        assert_eq!(err.exit_code(), 2, "{err}");
    }

    #[test]
    fn generous_memory_budget_still_decomposes() {
        super::run(&argv(&[
            "suite:uber:tiny",
            "--rank",
            "3",
            "--iters",
            "2",
            "--memory-budget",
            "100000000",
        ]))
        .unwrap();
    }

    #[test]
    fn every_engine_decomposes_a_tiny_tensor() {
        for engine in ["stef2", "splatt-all", "alto", "auto", "alto-baseline", "adatm"] {
            super::run(&argv(&[
                "suite:nips:tiny",
                "--rank",
                "3",
                "--iters",
                "2",
                "--engine",
                engine,
            ]))
            .unwrap();
        }
    }

    #[test]
    fn numa_flag_parses_and_off_runs() {
        super::run(&argv(&[
            "suite:uber:tiny",
            "--rank",
            "3",
            "--iters",
            "2",
            "--numa",
            "off",
        ]))
        .unwrap();
        let err = super::run(&argv(&["suite:uber:tiny", "--numa", "maybe"]))
            .expect_err("bad --numa must fail");
        assert_eq!(err.exit_code(), 2, "{err}");
    }
}
