//! `stef bench` — compare every engine's MTTKRP sweep time on one
//! tensor (a single-tensor slice of the paper's Figures 3/4).

use crate::args::{parse, FlagSpec};
use crate::commands::{accum_by_name, apply_simd_flag};
use crate::error::CliError;
use crate::tensor_source::load;
use std::time::{Duration, Instant};
use stef::{init_factors, CancelToken};
use workloads::SuiteScale;

pub fn run(argv: &[String]) -> Result<(), CliError> {
    let spec = FlagSpec::new(&[
        ("--rank", "rank"),
        ("-r", "rank"),
        ("--reps", "reps"),
        ("--threads", "threads"),
        ("--accum", "accum"),
        ("--simd", "simd"),
        ("--timeout", "timeout"),
    ]);
    let p = parse(argv, &spec)?;
    let tensor_spec = p.one_positional("tensor")?;
    let rank: usize = p.num_or("rank", 32)?;
    let reps: usize = p.num_or("reps", 3)?;
    let threads: usize = p.num_or("threads", 0)?;
    let timeout: f64 = p.num_or("timeout", 0.0)?;
    let accum = accum_by_name(p.str_or("accum", "auto")).map_err(CliError::Usage)?;
    apply_simd_flag(p.str_or("simd", "auto")).map_err(CliError::Usage)?;

    let token = CancelToken::new();
    if timeout > 0.0 {
        token.set_deadline(Duration::from_secs_f64(timeout));
    }
    let _cancel_scope = crate::cancel::install(&token);

    let (label, t) = load(tensor_spec, SuiteScale::Small).map_err(CliError::Input)?;
    println!(
        "benchmarking {label}: {} nnz, rank {rank}, {reps} reps, {} threads",
        t.nnz(),
        stef::runtime::default_threads()
    );
    println!("simd kernels: {}\n", linalg::simd::describe());

    let factors = init_factors(t.dims(), rank, 7);
    let mut results: Vec<(String, f64, f64)> = Vec::new();
    for (done, mut engine) in baselines::all_engines_with(&t, rank, threads, accum, Some(token.clone()))
        .into_iter()
        .enumerate()
    {
        // Bench sweeps can run for minutes on large tensors; honor
        // --timeout / Ctrl-C between engines and between sweeps.
        if token.expired() {
            return Err(cancelled(&token, done));
        }
        let prep_start = Instant::now();
        let sweep = engine.sweep_order();
        // Warm-up (auto-tuners settle here).
        for _ in 0..4 {
            for &m in &sweep {
                std::hint::black_box(engine.mttkrp(&factors, m));
            }
        }
        let warm = prep_start.elapsed().as_secs_f64();
        let mut best = f64::INFINITY;
        for _ in 0..reps {
            if token.expired() {
                return Err(cancelled(&token, done));
            }
            let t0 = Instant::now();
            for &m in &sweep {
                std::hint::black_box(engine.mttkrp(&factors, m));
            }
            best = best.min(t0.elapsed().as_secs_f64());
        }
        results.push((engine.name(), best, warm));
    }
    let fastest = results
        .iter()
        .map(|&(_, s, _)| s)
        .fold(f64::INFINITY, f64::min);
    println!(
        "{:<12} {:>12} {:>10} {:>12}",
        "engine", "sweep (ms)", "vs best", "warmup (ms)"
    );
    println!("{}", "-".repeat(50));
    for (name, secs, warm) in &results {
        println!(
            "{:<12} {:>12.3} {:>9.2}x {:>12.1}",
            name,
            secs * 1e3,
            secs / fastest,
            warm * 1e3
        );
    }
    Ok(())
}

fn cancelled(token: &stef::CancelToken, engines_done: usize) -> CliError {
    CliError::Cancelled(stef::StefError::Cancelled {
        iteration: engines_done,
        deadline: token.deadline_expired(),
        checkpoint_iteration: None,
    })
}

#[cfg(test)]
mod tests {
    fn argv(items: &[&str]) -> Vec<String> {
        items.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn bench_runs_on_tiny_tensor() {
        super::run(&argv(&["suite:nips:tiny", "--rank", "2", "--reps", "1"])).unwrap();
    }

    #[test]
    fn rejects_missing_tensor() {
        assert!(super::run(&argv(&["--rank", "2"])).is_err());
    }

    #[test]
    fn bench_accepts_accum_flag() {
        super::run(&argv(&[
            "suite:nips:tiny",
            "--rank",
            "2",
            "--reps",
            "1",
            "--accum",
            "atomic",
        ]))
        .unwrap();
    }

    #[test]
    fn rejects_unknown_accum() {
        assert!(super::run(&argv(&["suite:nips:tiny", "--accum", "magic"])).is_err());
    }

    #[test]
    fn rejects_unknown_simd() {
        assert!(super::run(&argv(&["suite:nips:tiny", "--simd", "sse9"])).is_err());
    }

    #[test]
    fn expired_timeout_exits_with_the_cancel_code() {
        let err = super::run(&argv(&[
            "suite:nips:tiny",
            "--rank",
            "2",
            "--reps",
            "1",
            "--timeout",
            "0.000001",
        ]))
        .expect_err("expired deadline must cancel the bench");
        assert_eq!(err.exit_code(), 6, "{err}");
    }
}
