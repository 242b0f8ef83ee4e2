//! `stef validate` — cross-check an engine against the naive COO
//! reference on a given tensor (wrapper around
//! `stef::validate::validate_engine`).

use crate::args::{parse, FlagSpec};
use crate::commands::{accum_by_name, engine_by_name, EngineConfig};
use crate::error::CliError;
use crate::tensor_source::load;
use std::time::Duration;
use stef::CancelToken;
use workloads::SuiteScale;

pub fn run(argv: &[String]) -> Result<(), CliError> {
    let spec = FlagSpec::new(&[
        ("--rank", "rank"),
        ("-r", "rank"),
        ("--engine", "engine"),
        ("--threads", "threads"),
        ("--tol", "tol"),
        ("--accum", "accum"),
        ("--timeout", "timeout"),
    ]);
    let p = parse(argv, &spec)?;
    let tensor_spec = p.one_positional("tensor")?;
    let rank: usize = p.num_or("rank", 8)?;
    let threads: usize = p.num_or("threads", 0)?;
    let tol: f64 = p.num_or("tol", 1e-9)?;
    let timeout: f64 = p.num_or("timeout", 0.0)?;
    let engine_name = p.str_or("engine", "stef");

    let (label, t) = load(tensor_spec, SuiteScale::Tiny).map_err(CliError::Input)?;
    if t.nnz() > 2_000_000 {
        stef::telemetry::warn("validate", || {
            format!(
                "the reference MTTKRP is O(nnz·d·R) per mode; {} nnz will be slow",
                t.nnz()
            )
        });
    }
    println!("validating engine '{engine_name}' on {label} at rank {rank} (tol {tol:e})…");
    let accum = accum_by_name(p.str_or("accum", "auto")).map_err(CliError::Usage)?;

    let token = CancelToken::new();
    if timeout > 0.0 {
        token.set_deadline(Duration::from_secs_f64(timeout));
    }
    let _cancel_scope = crate::cancel::install(&token);

    let mut cfg = EngineConfig::new(rank, threads);
    cfg.accum = accum;
    cfg.cancel = Some(token.clone());
    let mut engine = engine_by_name(engine_name, &t, &cfg)?;
    if token.expired() {
        return Err(cancelled(&token, 0));
    }
    let report = stef::validate_engine(engine.as_mut(), &t, rank, tol, 42);
    // A cancelled sweep produces partial outputs; don't report those as
    // mismatches.
    if token.expired() {
        return Err(cancelled(&token, report.modes_checked.len()));
    }
    if report.is_ok() {
        println!(
            "OK: {} modes × 2 sweeps agree with the reference",
            report.modes_checked.len()
        );
        Ok(())
    } else {
        for m in &report.mismatches {
            stef::telemetry::warn("validate", || {
                format!(
                    "MISMATCH mode {} at ({}, {}): engine {} vs reference {}",
                    m.mode, m.row, m.col, m.got, m.expected
                )
            });
        }
        Err(CliError::Input(format!(
            "{} mismatching mode passes",
            report.mismatches.len()
        )))
    }
}

fn cancelled(token: &CancelToken, progress: usize) -> CliError {
    CliError::Cancelled(stef::StefError::Cancelled {
        iteration: progress,
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
    fn validates_every_engine_on_a_tiny_tensor() {
        for engine in ["stef", "stef2", "splatt-2", "alto", "taco"] {
            super::run(&argv(&[
                "suite:nips:tiny",
                "--rank",
                "2",
                "--engine",
                engine,
            ]))
            .unwrap_or_else(|e| panic!("{engine}: {e}"));
        }
    }

    #[test]
    fn unknown_engine_fails() {
        assert!(super::run(&argv(&["suite:nips:tiny", "--engine", "nope"])).is_err());
    }
}
