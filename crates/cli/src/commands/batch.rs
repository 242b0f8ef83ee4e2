//! `stef batch` — run a list of decomposition jobs under the
//! crash-consistent supervisor.
//!
//! The jobs file is one job per line:
//!
//! ```text
//! # tensor-spec        [rank=R] [iters=N] [tol=T] [seed=S] [engine=NAME] [deadline=SECS]
//! suite:uber:tiny      rank=4 iters=10
//! data/flickr.tns      rank=16 engine=stef2 deadline=120
//! ```
//!
//! Every job transition lands in an append-only checksummed journal
//! before it takes effect, so after a crash (`kill -9` included)
//! rerunning with `--resume-journal` restarts exactly the unfinished
//! jobs from their latest checkpoints. Admission is priced with the
//! paper's §IV-C data-movement model; submissions that do not fit the
//! `--memory-envelope` / `--traffic-envelope` are shed with exit code 7
//! while admitted jobs run to completion.
//!
//! `STEF_BATCH_FAULT` (e.g. `0:transient@3,2:fuse@1+50`) injects faults
//! into first attempts only — the CI soak uses it to prove the retry
//! ladder and deadline handling against journaled outcomes.

use crate::args::{parse, FlagSpec};
use crate::commands::{engine_by_name, EngineConfig};
use crate::error::CliError;
use crate::tensor_source;
use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;
use stef::{
    parse_fault_directives, parse_job_line, scan_journal, AccumStrategy, CancelToken,
    EngineFactory, Fault, FaultyEngine, JobAttempt, JobSpec, JobStatus, JournalRecord, StefError,
    Supervisor, SupervisorConfig, TensorLoader,
};
use workloads::SuiteScale;

pub fn run(argv: &[String]) -> Result<(), CliError> {
    let spec = FlagSpec::new(&[
        ("--journal", "journal"),
        ("--ckpt-dir", "ckpt-dir"),
        ("--resume-journal", "resume-journal"),
        ("--status", "status"),
        ("--max-concurrent", "max-concurrent"),
        ("--threads", "threads"),
        ("--checkpoint-every", "checkpoint-every"),
        ("--cache-mb", "cache-mb"),
        ("--memory-envelope", "memory-envelope"),
        ("--traffic-envelope", "traffic-envelope"),
        ("--max-retries", "max-retries"),
        ("--backoff-ms", "backoff-ms"),
        ("--backoff-cap-ms", "backoff-cap-ms"),
        ("--metrics-out", "metrics-out"),
    ])
    .with_switches(&["resume-journal", "status"]);
    let p = parse(argv, &spec)?;
    let jobs_path = p.one_positional("jobs list")?;
    let journal: PathBuf = p
        .opt_str("journal")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(format!("{jobs_path}.journal")));
    let ckpt_dir: PathBuf = p
        .opt_str("ckpt-dir")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(format!("{jobs_path}.ckpts")));

    if p.flag("status") {
        return print_status(&journal);
    }

    let jobs = parse_jobs_file(jobs_path)?;
    if jobs.is_empty() {
        return Err(CliError::Input(format!("'{jobs_path}' lists no jobs")));
    }
    let threads: usize = p.num_or("threads", 1)?;
    let resume = p.flag("resume-journal");

    let mut cfg = SupervisorConfig::new(&journal, &ckpt_dir);
    cfg.checkpoint_every = p.num_or("checkpoint-every", 1)?;
    cfg.max_concurrent = p.num_or("max-concurrent", 1)?;
    cfg.threads_per_job = threads.max(1);
    cfg.cache_bytes = p.num_or::<usize>("cache-mb", 16)? << 20;
    cfg.memory_envelope = p.num_or::<u64>("memory-envelope", 0)?;
    cfg.traffic_envelope = p.num_or::<f64>("traffic-envelope", 0.0)?;
    cfg.max_retries = p.num_or("max-retries", 2)?;
    cfg.backoff_base = Duration::from_millis(p.num_or("backoff-ms", 100)?);
    cfg.backoff_cap = Duration::from_millis(p.num_or("backoff-cap-ms", 5000)?);
    cfg.metrics_path = p.opt_str("metrics-out").map(PathBuf::from);

    // One batch token serves Ctrl-C (first press: cooperative drain with
    // checkpoints; second press: immediate exit 130) for every job.
    let batch_token = CancelToken::new();
    cfg.cancel = Some(batch_token.clone());
    let _cancel_scope = crate::cancel::install(&batch_token);

    let faults = fault_directives_from_env()?;

    let sup = if resume {
        Supervisor::resume(cfg, cli_loader(), cli_factory(threads, faults))?
    } else {
        if journal.exists() {
            return Err(CliError::Input(format!(
                "journal '{}' already exists — rerun with --resume-journal to \
                 continue that batch, or remove it to start over",
                journal.display()
            )));
        }
        Supervisor::new(cfg, cli_loader(), cli_factory(threads, faults))?
    };

    // On resume the journal already holds jobs 0..known; submit only the
    // tail the crash never reached (list order == job id order).
    let known = sup.report().outcomes.len();
    if known > jobs.len() {
        return Err(CliError::Input(format!(
            "journal '{}' knows {known} jobs but '{jobs_path}' lists only {} — wrong jobs file?",
            journal.display(),
            jobs.len()
        )));
    }
    for job in jobs.into_iter().skip(known) {
        let tensor = job.tensor.clone();
        match sup.submit(job) {
            Ok(id) => println!("job {id} admitted ({tensor})"),
            Err(e @ StefError::Overloaded { .. }) => println!("job shed ({tensor}): {e}"),
            Err(other) => return Err(other.into()),
        }
    }
    if resume && known > 0 {
        println!("resumed journal {} ({known} jobs on record)", journal.display());
    }

    let report = sup.run_all();
    for (id, status) in &report.outcomes {
        match status {
            JobStatus::Done {
                attempts,
                iterations,
                final_fit,
            } => println!(
                "job {id} done: fit {final_fit:.6} after {iterations} iterations, {attempts} attempt(s)"
            ),
            JobStatus::Failed { attempts, error } => {
                println!("job {id} failed after {attempts} attempt(s): {error}")
            }
            JobStatus::Shed => println!("job {id} shed at admission"),
            JobStatus::Interrupted => println!(
                "job {id} interrupted (resume with --resume-journal)"
            ),
            other => println!("job {id} {other:?}"),
        }
    }
    println!(
        "batch: {} done, {} failed, {} shed, {} interrupted (journal {})",
        report.done(),
        report.failed(),
        report.shed(),
        report.interrupted(),
        journal.display()
    );
    match report.exit_error() {
        Some(e) => Err(e.into()),
        None => Ok(()),
    }
}

/// Maps jobs-file tensor specs through the shared `<tensor>` resolver
/// (`suite:` names or `.tns` paths).
pub(crate) fn cli_loader() -> TensorLoader {
    Arc::new(|spec: &str| {
        tensor_source::load(spec, SuiteScale::Small)
            .map(|(_, t)| t)
            .map_err(StefError::Input)
    })
}

/// Builds engines through the CLI registry, wrapping first attempts in
/// a [`FaultyEngine`] when `STEF_BATCH_FAULT` targets the job. Faults
/// apply to attempt 1 only, so a transient injection consumes exactly
/// one retry and the retry succeeds on a clean engine.
pub(crate) fn cli_factory(threads: usize, faults: HashMap<usize, Vec<Fault>>) -> EngineFactory {
    Arc::new(move |spec: &JobSpec, tensor, token: &CancelToken, at: JobAttempt| {
        let cfg = EngineConfig {
            rank: spec.rank,
            threads,
            accum: AccumStrategy::Auto,
            memory_budget: 0,
            cancel: Some(token.clone()),
            numa: stef::NumaPolicy::from_env(),
        };
        let engine = engine_by_name(&spec.engine, tensor, &cfg)
            .map_err(|e| StefError::Input(e.to_string()))?;
        let injected = match faults.get(&at.job) {
            Some(list) if at.attempt == 1 => list.clone(),
            _ => return Ok(engine),
        };
        let needs_exec = injected
            .iter()
            .any(|f| matches!(f, Fault::WorkerPanicOnce { .. }));
        let mut faulty = FaultyEngine::new(engine, injected).with_cancel(token.clone());
        if needs_exec {
            faulty = faulty.with_executor(stef::Executor::new(1));
        }
        Ok(Box::new(faulty))
    })
}

/// Parses `STEF_BATCH_FAULT` into per-job fault lists. Malformed
/// directives are usage errors — a fault harness that silently drops an
/// injection proves nothing.
pub(crate) fn fault_directives_from_env() -> Result<HashMap<usize, Vec<Fault>>, CliError> {
    let raw = std::env::var("STEF_BATCH_FAULT").unwrap_or_default();
    let mut by_job: HashMap<usize, Vec<Fault>> = HashMap::new();
    for (job, fault) in parse_fault_directives(&raw)
        .map_err(|e| CliError::Usage(format!("STEF_BATCH_FAULT: {e}")))?
    {
        by_job.entry(job).or_default().push(fault);
    }
    Ok(by_job)
}

/// Parses the jobs file: one `<tensor-spec> key=value...` job per line
/// (the shared [`parse_job_line`] grammar, also spoken by the `stef
/// serve` submit endpoint); blank lines and `#` comments are skipped.
fn parse_jobs_file(path: &str) -> Result<Vec<JobSpec>, CliError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError::Input(format!("cannot read '{path}': {e}")))?;
    let mut jobs = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let job = parse_job_line(line, 16)
            .map_err(|e| CliError::Input(format!("{path}:{}: {e}", lineno + 1)))?;
        jobs.push(job);
    }
    Ok(jobs)
}

/// `--status`: fold the journal into one final state per job and print
/// it, without running anything. The CI soak asserts on these lines.
fn print_status(journal: &Path) -> Result<(), CliError> {
    let scan = scan_journal(journal)?;
    let mut state: BTreeMap<usize, String> = BTreeMap::new();
    for record in &scan.records {
        match record {
            JournalRecord::Submitted { id, spec, .. } => {
                state.insert(
                    *id,
                    format!("queued tensor={} engine={} rank={}", spec.tensor, spec.engine, spec.rank),
                );
            }
            JournalRecord::Shed { id, resource, .. } => {
                state.insert(*id, format!("shed resource={resource}"));
            }
            JournalRecord::Started { id, attempt } => {
                state.insert(*id, format!("running attempt={attempt}"));
            }
            JournalRecord::Checkpointed { id, iteration } => {
                state.insert(*id, format!("running checkpointed={iteration}"));
            }
            JournalRecord::Degraded { .. } => {}
            JournalRecord::Retrying { id, attempt, .. } => {
                state.insert(*id, format!("retrying attempt={attempt}"));
            }
            JournalRecord::Interrupted { id } => {
                state.insert(*id, "interrupted".into());
            }
            JournalRecord::Failed {
                id,
                attempts,
                error,
            } => {
                state.insert(*id, format!("failed attempts={attempts} error={error}"));
            }
            JournalRecord::Done {
                id,
                attempts,
                iterations,
                fit,
            } => {
                state.insert(
                    *id,
                    format!("done attempts={attempts} iterations={iterations} fit={fit:.6}"),
                );
            }
        }
    }
    for (id, s) in &state {
        println!("job {id} {s}");
    }
    if scan.torn_tail {
        println!("note: dropped a torn final record (crash mid-append)");
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(items: &[&str]) -> Vec<String> {
        items.iter().map(|s| s.to_string()).collect()
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("stef-batch-cmd-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn write_jobs(dir: &Path, body: &str) -> String {
        let path = dir.join("jobs.tns-list");
        std::fs::write(&path, body).unwrap();
        path.to_str().unwrap().to_string()
    }

    #[test]
    fn jobs_file_parses_fields_and_comments() {
        let dir = tmp_dir("parse");
        let path = write_jobs(
            &dir,
            "# comment\n\nsuite:uber:tiny rank=4 iters=6 tol=1e-4 seed=9 engine=stef2 deadline=30\nsuite:nips:tiny\n",
        );
        let jobs = parse_jobs_file(&path).unwrap();
        assert_eq!(jobs.len(), 2);
        assert_eq!(jobs[0].rank, 4);
        assert_eq!(jobs[0].max_iters, 6);
        assert_eq!(jobs[0].seed, 9);
        assert_eq!(jobs[0].engine, "stef2");
        assert_eq!(jobs[0].deadline, Some(Duration::from_secs(30)));
        assert_eq!(jobs[1].tensor, "suite:nips:tiny");
        assert_eq!(jobs[1].engine, "stef");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bad_job_fields_are_input_errors() {
        let dir = tmp_dir("badfield");
        for body in ["suite:uber:tiny rank=x\n", "suite:uber:tiny magic=1\n", "suite:uber:tiny deadline=-2\n"] {
            let path = write_jobs(&dir, body);
            let err = parse_jobs_file(&path).expect_err(body);
            assert_eq!(err.exit_code(), 3, "{body}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn batch_runs_jobs_and_status_reports_them() {
        let dir = tmp_dir("run");
        let jobs = write_jobs(&dir, "suite:uber:tiny rank=3 iters=3\nsuite:nips:tiny rank=3 iters=3\n");
        let journal = dir.join("b.journal");
        let journal_str = journal.to_str().unwrap().to_string();
        let ckpts = dir.join("ckpts");
        super::run(&argv(&[
            &jobs,
            "--journal",
            &journal_str,
            "--ckpt-dir",
            ckpts.to_str().unwrap(),
        ]))
        .unwrap();
        let scan = scan_journal(&journal).unwrap();
        let done = scan
            .records
            .iter()
            .filter(|r| matches!(r, JournalRecord::Done { .. }))
            .count();
        assert_eq!(done, 2, "both jobs journaled done");
        super::print_status(&journal).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn existing_journal_without_resume_flag_is_refused() {
        let dir = tmp_dir("refuse");
        let jobs = write_jobs(&dir, "suite:uber:tiny rank=3 iters=2\n");
        let journal = dir.join("b.journal");
        let journal_str = journal.to_str().unwrap().to_string();
        let ckpts = dir.join("ckpts");
        let args = argv(&[
            &jobs,
            "--journal",
            &journal_str,
            "--ckpt-dir",
            ckpts.to_str().unwrap(),
        ]);
        super::run(&args).unwrap();
        let err = super::run(&args).expect_err("existing journal must be refused");
        assert_eq!(err.exit_code(), 3, "{err}");
        assert!(err.to_string().contains("--resume-journal"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_flag_completes_a_submitted_but_unrun_batch() {
        let dir = tmp_dir("resume");
        let jobs = write_jobs(&dir, "suite:uber:tiny rank=3 iters=3\n");
        let journal = dir.join("b.journal");
        let journal_str = journal.to_str().unwrap().to_string();
        let ckpts = dir.join("ckpts");
        // Fabricate a crashed batch: submitted, never run.
        {
            let mut cfg = SupervisorConfig::new(&journal, &ckpts);
            cfg.backoff_base = Duration::from_millis(1);
            let sup = Supervisor::new(cfg, cli_loader(), cli_factory(1, HashMap::new())).unwrap();
            sup.submit(JobSpec {
                tensor: "suite:uber:tiny".into(),
                rank: 3,
                max_iters: 3,
                tol: 1e-5,
                seed: 42,
                engine: "stef".into(),
                deadline: None,
                model: None,
            })
            .unwrap();
        }
        super::run(&argv(&[
            &jobs,
            "--journal",
            &journal_str,
            "--ckpt-dir",
            ckpts.to_str().unwrap(),
            "--resume-journal",
        ]))
        .unwrap();
        let scan = scan_journal(&journal).unwrap();
        assert!(
            scan.records
                .iter()
                .any(|r| matches!(r, JournalRecord::Done { id: 0, .. })),
            "resumed job must finish"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn overloaded_batch_exits_with_code_7_but_finishes_admitted_jobs() {
        let dir = tmp_dir("shed");
        let jobs = write_jobs(&dir, "suite:uber:tiny rank=3 iters=3\nsuite:uber:tiny rank=3 iters=3\n");
        let journal = dir.join("b.journal");
        let journal_str = journal.to_str().unwrap().to_string();
        let ckpts = dir.join("ckpts");
        // Size the envelope for exactly one copy of this job.
        let (_, t) = tensor_source::load("suite:uber:tiny", SuiteScale::Small).unwrap();
        let price = stef::price_job(&t, 3, 1, 16 << 20);
        let envelope = (price.mem_bytes + price.mem_bytes / 2).to_string();
        let err = super::run(&argv(&[
            &jobs,
            "--journal",
            &journal_str,
            "--ckpt-dir",
            ckpts.to_str().unwrap(),
            "--memory-envelope",
            &envelope,
        ]))
        .expect_err("a shed job must surface in the exit code");
        assert_eq!(err.exit_code(), 7, "{err}");
        let scan = scan_journal(&journal).unwrap();
        assert!(scan.records.iter().any(|r| matches!(r, JournalRecord::Done { id: 0, .. })));
        assert!(scan.records.iter().any(|r| matches!(r, JournalRecord::Shed { id: 1, .. })));
        std::fs::remove_dir_all(&dir).ok();
    }
}
