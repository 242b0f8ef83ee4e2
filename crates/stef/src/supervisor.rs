//! Multi-job supervision: durable journal, retries, admission control.
//!
//! The CPD driver decomposes *one* tensor; a decomposition service runs
//! *many*, unattended, over the shared worker pool. This module is the
//! supervisory layer that makes that survivable:
//!
//! * **Crash-consistent job journal** — every job transition is an
//!   append-only, FNV-checksummed record ([`JournalRecord`]) fsynced
//!   before the transition takes effect, so a `kill -9` at any byte
//!   leaves a journal from which [`Supervisor::resume`] reconstructs
//!   exactly which jobs are unfinished and restarts them from their
//!   latest checkpoints (the PR 1 bit-exact snapshot machinery), making
//!   the resumed batch converge identically to an uninterrupted one.
//! * **Retry ladder** — [`is_retryable`] classifies [`StefError`]s into
//!   transient (worker panic, I/O hiccough) vs terminal (bad input,
//!   infeasible budget), and transient failures are retried with capped
//!   exponential backoff plus deterministic jitter, the budget consumed
//!   recorded in the journal so a resumed batch does not forget how many
//!   retries a job already burned.
//! * **Admission control & shedding** — each submission is priced
//!   up-front with the paper's §IV-C machinery (the CSF engine's own
//!   plan — order, memo set, predicted traffic — from the planner
//!   [`crate::Stef`] prepares with, arena bytes from the same formulas
//!   [`crate::model::fit_memory_budget`] degrades against) and admitted
//!   only while the aggregate outstanding price fits the configured
//!   envelope; everything else is shed *at the door* with a typed
//!   [`StefError::Overloaded`] instead of letting the whole batch
//!   thrash. The queue drains nearest-deadline-first.
//!
//! Per-job outcomes additionally stream into the PR 5 JSONL metrics
//! sink (`kind:"batch_job"` records) when a metrics path is configured.

use crate::checkpoint::{
    fnv64, hex_f64, parse_f64, parse_versioned_header, replace_file, Checkpoint, CheckpointError,
    CheckpointHook, CheckpointPolicy, CHECKPOINT_ENDIANNESS,
};
use crate::cpd::{cpd_als, CpdOptions, CpdResult};
use crate::engine::{check_input, CsfPlan, MttkrpEngine};
use crate::error::StefError;
use crate::model::{partial_arena_bytes, priv_pool_bytes};
use crate::options::StefOptions;
use crate::runtime::CancelToken;
use crate::sync::{lock_unpoisoned, wait_timeout_unpoisoned};
use crate::workspace::Workspace;
use sptensor::CooTensor;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Current journal format version (header `stef-journal v1 be`).
pub const JOURNAL_VERSION: u32 = 1;

/// Loads a tensor from a job's `tensor` spec string. The supervisor is
/// agnostic about what the string means — the CLI maps `suite:` specs
/// and `.tns` paths, tests map synthetic generators.
pub type TensorLoader = Arc<dyn Fn(&str) -> Result<CooTensor, StefError> + Send + Sync>;

/// Builds the engine a job attempt runs on. Receives the spec, the
/// loaded tensor, the job's cancel token, and the attempt coordinates —
/// the job id lets a harness key injected faults to specific jobs, the
/// attempt number lets it fault attempt 1 only.
pub type EngineFactory = Arc<
    dyn Fn(
            &JobSpec,
            &CooTensor,
            &CancelToken,
            JobAttempt,
        ) -> Result<Box<dyn MttkrpEngine>, StefError>
        + Send
        + Sync,
>;

/// Which attempt of which job an [`EngineFactory`] call is building for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct JobAttempt {
    /// Job id (submission order).
    pub job: usize,
    /// 1-based attempt number, monotone across resumes.
    pub attempt: usize,
}

/// One decomposition request.
#[derive(Clone, Debug, PartialEq)]
pub struct JobSpec {
    /// Tensor spec string, resolved by the [`TensorLoader`].
    pub tensor: String,
    /// Decomposition rank.
    pub rank: usize,
    /// ALS iteration cap.
    pub max_iters: usize,
    /// Convergence tolerance (journaled bit-exactly, so a resumed batch
    /// replays the identical stopping rule).
    pub tol: f64,
    /// Factor-initialization seed.
    pub seed: u64,
    /// Engine name, resolved by the [`EngineFactory`].
    pub engine: String,
    /// Wall-clock deadline, armed when the job's first attempt starts
    /// in a given process; expiry is terminal (a retry cannot outrun a
    /// clock). Elapsed time is not journaled, so a crashed or
    /// interrupted job re-arms the full deadline when it is resumed.
    /// `None` = none.
    pub deadline: Option<Duration>,
    /// Model name the fitted factors publish under (snapshot serving).
    /// `None` falls back to the tensor spec string, so every job has a
    /// servable identity; submitting a second job under the same model
    /// name is a *refit* — its factors atomically replace the model's
    /// snapshot when it converges.
    pub model: Option<String>,
}

impl JobSpec {
    /// A spec with the driver defaults: 50 iterations, tol `1e-5`,
    /// seed 42, the `stef` engine, no deadline, tensor-named model.
    pub fn new(tensor: impl Into<String>, rank: usize) -> Self {
        JobSpec {
            tensor: tensor.into(),
            rank,
            max_iters: 50,
            tol: 1e-5,
            seed: 42,
            engine: "stef".into(),
            deadline: None,
            model: None,
        }
    }

    /// The snapshot name this job's factors publish under.
    pub fn model_name(&self) -> &str {
        self.model.as_deref().unwrap_or(&self.tensor)
    }
}

/// Parses one job-description line — the shared grammar of the
/// `stef batch` jobs file and the `stef serve` submit body:
///
/// ```text
/// <tensor-spec> [rank=R] [iters=N] [tol=T] [seed=S] [engine=NAME]
///               [deadline=SECS] [model=NAME]
/// ```
///
/// `default_rank` fills in when no `rank=` is given. Errors are
/// human-readable descriptions of the offending token.
pub fn parse_job_line(line: &str, default_rank: usize) -> Result<JobSpec, String> {
    let mut toks = line.split_whitespace();
    let tensor = toks.next().ok_or("empty job line")?;
    let mut job = JobSpec::new(tensor, default_rank);
    for tok in toks {
        let (key, value) = tok
            .split_once('=')
            .ok_or_else(|| format!("expected 'key=value', got '{tok}'"))?;
        let bad = |what: &str| format!("bad {what} '{value}'");
        match key {
            "rank" => job.rank = value.parse().map_err(|_| bad("rank"))?,
            "iters" => job.max_iters = value.parse().map_err(|_| bad("iters"))?,
            "tol" => job.tol = value.parse().map_err(|_| bad("tol"))?,
            "seed" => job.seed = value.parse().map_err(|_| bad("seed"))?,
            "engine" => job.engine = value.to_string(),
            "model" => job.model = Some(value.to_string()),
            "deadline" => {
                let secs: f64 = value.parse().map_err(|_| bad("deadline"))?;
                if !secs.is_finite() || secs <= 0.0 {
                    return Err(bad("deadline"));
                }
                job.deadline = Some(Duration::from_secs_f64(secs));
            }
            other => {
                return Err(format!(
                    "unknown job field '{other}' (rank iters tol seed engine deadline model)"
                ))
            }
        }
    }
    Ok(job)
}

/// A finished job's outcome, as seen by a [`JobHook`]. `Done` borrows
/// the result *before* it is parked for [`Supervisor::take_result`], so
/// a serving layer can publish factors without a second copy living in
/// the supervisor.
pub enum JobOutcome<'a> {
    /// Converged (or hit the iteration cap) successfully.
    Done(&'a CpdResult),
    /// Terminal failure.
    Failed(&'a StefError),
    /// Cancelled cooperatively; resumable from its checkpoint.
    Interrupted,
}

/// Observer invoked with every job's final per-process outcome —
/// after the outcome is journaled, before the next job is claimed. The
/// serving layer hangs snapshot publication (and staleness marking on
/// failed refits) off this.
#[derive(Clone)]
#[allow(clippy::type_complexity)]
pub struct JobHook(pub Arc<dyn Fn(usize, &JobSpec, JobOutcome<'_>) + Send + Sync>);

impl JobHook {
    /// Wraps a closure.
    pub fn new(f: impl Fn(usize, &JobSpec, JobOutcome<'_>) + Send + Sync + 'static) -> Self {
        JobHook(Arc::new(f))
    }
}

impl std::fmt::Debug for JobHook {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("JobHook(..)")
    }
}

/// A job's predicted resource price (admission-control currency).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct JobPrice {
    /// Predicted peak engine bytes: CSF + factors + kernel workspace +
    /// the plan's memoized partial arenas + a privatized-output pool as
    /// if every consumer level privatized (the worst case), the same
    /// formulas [`crate::model::fit_memory_budget`] degrades against.
    pub mem_bytes: u64,
    /// Predicted data movement (elements) of one full ALS sweep under
    /// the plan the CSF engine would run (§IV-C model).
    pub traffic: f64,
}

/// Prices a job with the §IV-C model by running the CSF engine's own
/// planner inline: the non-zeros sorted in mode-length order, their
/// fiber counts and Algorithm 9's swap count, and the order and memo set
/// [`crate::Stef::try_prepare`] would choose at `nthreads` threads.
/// `traffic` is that plan's prediction. The CSF bytes are those of the
/// mode-length order, counted without building it; a swapped order
/// differs only in its level-(d−2) fiber count. The sorted keys are
/// dropped before returning — pricing borrows memory only transiently.
/// Input every engine rejects is priced at zero: its attempt fails at
/// build with a terminal input error.
pub fn price_job(tensor: &CooTensor, rank: usize, nthreads: usize, cache_bytes: usize) -> JobPrice {
    let nthreads = nthreads.max(1);
    let mut opts = StefOptions::new(rank);
    opts.num_threads = nthreads;
    opts.cache_bytes = cache_bytes;
    let Ok(plan) = check_input(tensor, rank).and_then(|()| CsfPlan::new(tensor, &opts)) else {
        return JobPrice::default();
    };
    let profile = &plan.profile;
    let d = profile.dims.len();
    let partials: usize = (0..d)
        .filter(|&l| plan.plan.save[l])
        .map(|l| partial_arena_bytes(profile, l, nthreads))
        .sum();
    let consumers: Vec<bool> = (0..d).map(|l| l > 0).collect();
    let mem = Workspace::fixed_bytes(d, rank, nthreads)
        + partials
        + priv_pool_bytes(profile, &consumers, nthreads)
        + plan.csf_bytes
        + profile.factor_bytes();
    JobPrice {
        mem_bytes: mem as u64,
        traffic: plan.plan.predicted,
    }
}

/// Whether a failed attempt is worth retrying. Transient causes —
/// a worker panic the pool already healed, an I/O hiccough reading the
/// tensor or writing a checkpoint — may succeed on a clean attempt;
/// everything else (bad input, infeasible budget, numerical divergence,
/// cancellation) is deterministic or intentional and retrying would
/// only burn the budget reproducing it.
pub fn is_retryable(e: &StefError) -> bool {
    matches!(
        e,
        StefError::WorkerPanic { .. }
            | StefError::Checkpoint(CheckpointError::Io(_))
            | StefError::Tns(sptensor::TnsError::Io(_))
    )
}

/// Supervisor configuration.
#[derive(Clone, Debug)]
pub struct SupervisorConfig {
    /// The append-only journal file. [`Supervisor::new`] refuses an
    /// existing file (it holds a crashed batch's truth); use
    /// [`Supervisor::resume`] to continue one.
    pub journal_path: PathBuf,
    /// Directory for per-job checkpoints (`job-<id>.ckpt`).
    pub checkpoint_dir: PathBuf,
    /// Checkpoint cadence in iterations (min 1 — the journal's
    /// crash-consistency story needs snapshots to point at).
    pub checkpoint_every: usize,
    /// Jobs run concurrently by [`Supervisor::run_all`].
    pub max_concurrent: usize,
    /// Logical threads each job's engine is priced at (the factory
    /// decides what the engine actually uses; keep them consistent).
    pub threads_per_job: usize,
    /// Cache-size parameter of the pricing model, in bytes.
    pub cache_bytes: usize,
    /// Aggregate predicted-memory envelope in bytes (0 = unlimited).
    pub memory_envelope: u64,
    /// Aggregate predicted-traffic envelope in elements (0 = unlimited).
    pub traffic_envelope: f64,
    /// Transient-failure retries per job.
    pub max_retries: usize,
    /// First backoff delay; doubles per retry.
    pub backoff_base: Duration,
    /// Backoff ceiling.
    pub backoff_cap: Duration,
    /// Batch-level cancel: cancelling it interrupts running jobs
    /// (resumable) and keeps queued ones from starting.
    pub cancel: Option<CancelToken>,
    /// PR 5 JSONL metrics sink for per-job outcome records (appended).
    pub metrics_path: Option<PathBuf>,
    /// Per-job outcome observer (snapshot publication, staleness).
    pub on_outcome: Option<JobHook>,
    /// Cumulative relative error above which the continuous
    /// measured-vs-predicted traffic audit logs a drift warning.
    pub drift_warn_threshold: f64,
}

impl SupervisorConfig {
    /// Defaults: checkpoint every iteration, one job at a time, one
    /// thread, 16 MiB cache model, unlimited envelopes, 2 retries,
    /// 100 ms base / 5 s cap backoff.
    pub fn new(journal_path: impl Into<PathBuf>, checkpoint_dir: impl Into<PathBuf>) -> Self {
        SupervisorConfig {
            journal_path: journal_path.into(),
            checkpoint_dir: checkpoint_dir.into(),
            checkpoint_every: 1,
            max_concurrent: 1,
            threads_per_job: 1,
            cache_bytes: 16 << 20,
            memory_envelope: 0,
            traffic_envelope: 0.0,
            max_retries: 2,
            backoff_base: Duration::from_millis(100),
            backoff_cap: Duration::from_secs(5),
            cancel: None,
            metrics_path: None,
            on_outcome: None,
            drift_warn_threshold: crate::model::DEFAULT_DRIFT_WARN_THRESHOLD,
        }
    }
}

/// A job's externally visible state.
#[derive(Clone, Debug, PartialEq)]
pub enum JobStatus {
    /// Admitted, waiting for a worker.
    Queued,
    /// An attempt is executing.
    Running {
        /// 1-based attempt number.
        attempt: usize,
    },
    /// Converged (or hit the iteration cap) successfully.
    Done {
        /// Total attempts used.
        attempts: usize,
        /// Iterations executed (including replayed ones on resume).
        iterations: usize,
        /// Final fit.
        final_fit: f64,
    },
    /// Terminal failure; the error is in [`Supervisor::take_result`].
    Failed {
        /// Total attempts used.
        attempts: usize,
        /// Display form of the terminal error.
        error: String,
    },
    /// Refused at admission ([`StefError::Overloaded`]).
    Shed,
    /// Stopped by batch cancel or [`Supervisor::cancel`]; resumable
    /// from its journaled checkpoint via [`Supervisor::resume`].
    Interrupted,
}

impl JobStatus {
    /// Whether the job can never run again in this batch.
    pub fn is_terminal(&self) -> bool {
        matches!(
            self,
            JobStatus::Done { .. } | JobStatus::Failed { .. } | JobStatus::Shed
        )
    }
}

/// One journal line (after the checksum is stripped and verified).
#[derive(Clone, Debug, PartialEq)]
pub enum JournalRecord {
    /// Job admitted; carries everything needed to re-run it.
    Submitted {
        id: usize,
        spec: JobSpec,
        price: JobPrice,
    },
    /// Job refused at admission.
    Shed {
        id: usize,
        resource: String,
        required: f64,
        outstanding: f64,
        envelope: f64,
    },
    /// An attempt began.
    Started { id: usize, attempt: usize },
    /// A checkpoint for `iteration` is durably on disk.
    Checkpointed { id: usize, iteration: usize },
    /// The engine degraded its plan to fit its budget.
    Degraded { id: usize, detail: String },
    /// A transient failure consumed one retry; `attempt` is the attempt
    /// about to run after `backoff_ms`.
    Retrying {
        id: usize,
        attempt: usize,
        backoff_ms: u64,
        error: String,
    },
    /// Cancelled cooperatively — unfinished, resumable.
    Interrupted { id: usize },
    /// Terminal failure.
    Failed {
        id: usize,
        attempts: usize,
        error: String,
    },
    /// Success.
    Done {
        id: usize,
        attempts: usize,
        iterations: usize,
        fit: f64,
    },
}

// ---------------------------------------------------------------------
// Journal encoding
// ---------------------------------------------------------------------

/// Bytes that pass through percent-encoding unescaped. Space, `%`, `!`
/// (the checksum sigil) and anything non-printable must be escaped so a
/// record stays one whitespace-tokenizable line.
fn is_plain(b: u8) -> bool {
    b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b':' | b'/' | b',' | b'+' | b'-' | b'=')
}

fn pct_encode(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for &b in s.as_bytes() {
        if is_plain(b) {
            out.push(b as char);
        } else {
            out.push_str(&format!("%{b:02x}"));
        }
    }
    out
}

fn pct_decode(s: &str) -> Result<String, String> {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'%' {
            let hex = bytes.get(i + 1..i + 3).ok_or("truncated %-escape")?;
            let hex = std::str::from_utf8(hex).map_err(|_| "bad %-escape")?;
            out.push(u8::from_str_radix(hex, 16).map_err(|_| "bad %-escape")?);
            i += 3;
        } else {
            out.push(bytes[i]);
            i += 1;
        }
    }
    String::from_utf8(out).map_err(|_| "decoded bytes not UTF-8".into())
}

impl JournalRecord {
    /// Renders the record body (no checksum suffix, no newline).
    fn encode(&self) -> String {
        match self {
            JournalRecord::Submitted { id, spec, price } => {
                let deadline = match spec.deadline {
                    Some(d) => d.as_millis().to_string(),
                    None => "-".into(),
                };
                let model = match &spec.model {
                    Some(m) => pct_encode(m),
                    None => "-".into(),
                };
                format!(
                    "submitted {id} tensor={} rank={} iters={} tol={} seed={} engine={} \
                     deadline_ms={deadline} model={model} mem={} traffic={}",
                    pct_encode(&spec.tensor),
                    spec.rank,
                    spec.max_iters,
                    hex_f64(spec.tol),
                    spec.seed,
                    pct_encode(&spec.engine),
                    price.mem_bytes,
                    hex_f64(price.traffic),
                )
            }
            JournalRecord::Shed {
                id,
                resource,
                required,
                outstanding,
                envelope,
            } => format!(
                "shed {id} resource={} required={} outstanding={} envelope={}",
                pct_encode(resource),
                hex_f64(*required),
                hex_f64(*outstanding),
                hex_f64(*envelope),
            ),
            JournalRecord::Started { id, attempt } => format!("started {id} attempt={attempt}"),
            JournalRecord::Checkpointed { id, iteration } => {
                format!("checkpointed {id} iteration={iteration}")
            }
            JournalRecord::Degraded { id, detail } => {
                format!("degraded {id} detail={}", pct_encode(detail))
            }
            JournalRecord::Retrying {
                id,
                attempt,
                backoff_ms,
                error,
            } => format!(
                "retrying {id} attempt={attempt} backoff_ms={backoff_ms} error={}",
                pct_encode(error)
            ),
            JournalRecord::Interrupted { id } => format!("interrupted {id}"),
            JournalRecord::Failed {
                id,
                attempts,
                error,
            } => format!("failed {id} attempts={attempts} error={}", pct_encode(error)),
            JournalRecord::Done {
                id,
                attempts,
                iterations,
                fit,
            } => format!(
                "done {id} attempts={attempts} iterations={iterations} fit={}",
                hex_f64(*fit)
            ),
        }
    }

    /// Parses a verified record body.
    fn decode(body: &str) -> Result<JournalRecord, String> {
        let mut toks = body.split_whitespace();
        let kind = toks.next().ok_or("empty record")?;
        let id: usize = toks
            .next()
            .ok_or("missing job id")?
            .parse()
            .map_err(|_| "bad job id")?;
        let kvs: Vec<(&str, &str)> = toks
            .map(|t| t.split_once('=').ok_or_else(|| format!("bad field '{t}'")))
            .collect::<Result<_, _>>()?;
        let opt = |key: &str| -> Option<&str> {
            kvs.iter().find(|(k, _)| *k == key).map(|&(_, v)| v)
        };
        let get = |key: &str| -> Result<&str, String> {
            opt(key).ok_or_else(|| format!("missing field '{key}'"))
        };
        let num = |key: &str| -> Result<usize, String> {
            get(key)?.parse().map_err(|_| format!("bad '{key}'"))
        };
        let f = |key: &str| -> Result<f64, String> {
            parse_f64(get(key)?, key).map_err(|e| e.to_string())
        };
        Ok(match kind {
            "submitted" => JournalRecord::Submitted {
                id,
                spec: JobSpec {
                    tensor: pct_decode(get("tensor")?)?,
                    rank: num("rank")?,
                    max_iters: num("iters")?,
                    tol: f("tol")?,
                    seed: get("seed")?.parse().map_err(|_| "bad 'seed'")?,
                    engine: pct_decode(get("engine")?)?,
                    deadline: match get("deadline_ms")? {
                        "-" => None,
                        ms => Some(Duration::from_millis(
                            ms.parse().map_err(|_| "bad 'deadline_ms'")?,
                        )),
                    },
                    // Absent in pre-service v1 journals: decode is
                    // field-tolerant, so both directions stay readable.
                    model: match opt("model") {
                        None | Some("-") => None,
                        Some(m) => Some(pct_decode(m)?),
                    },
                },
                price: JobPrice {
                    mem_bytes: get("mem")?.parse().map_err(|_| "bad 'mem'")?,
                    traffic: f("traffic")?,
                },
            },
            "shed" => JournalRecord::Shed {
                id,
                resource: pct_decode(get("resource")?)?,
                required: f("required")?,
                outstanding: f("outstanding")?,
                envelope: f("envelope")?,
            },
            "started" => JournalRecord::Started {
                id,
                attempt: num("attempt")?,
            },
            "checkpointed" => JournalRecord::Checkpointed {
                id,
                iteration: num("iteration")?,
            },
            "degraded" => JournalRecord::Degraded {
                id,
                detail: pct_decode(get("detail")?)?,
            },
            "retrying" => JournalRecord::Retrying {
                id,
                attempt: num("attempt")?,
                backoff_ms: get("backoff_ms")?.parse().map_err(|_| "bad 'backoff_ms'")?,
                error: pct_decode(get("error")?)?,
            },
            "interrupted" => JournalRecord::Interrupted { id },
            "failed" => JournalRecord::Failed {
                id,
                attempts: num("attempts")?,
                error: pct_decode(get("error")?)?,
            },
            "done" => JournalRecord::Done {
                id,
                attempts: num("attempts")?,
                iterations: num("iterations")?,
                fit: f("fit")?,
            },
            other => return Err(format!("unknown record kind '{other}'")),
        })
    }

    /// The job this record belongs to.
    pub fn job_id(&self) -> usize {
        match self {
            JournalRecord::Submitted { id, .. }
            | JournalRecord::Shed { id, .. }
            | JournalRecord::Started { id, .. }
            | JournalRecord::Checkpointed { id, .. }
            | JournalRecord::Degraded { id, .. }
            | JournalRecord::Retrying { id, .. }
            | JournalRecord::Interrupted { id }
            | JournalRecord::Failed { id, .. }
            | JournalRecord::Done { id, .. } => *id,
        }
    }

    /// Whether this record by itself marks its job terminal. Compaction
    /// keeps these plus the `Submitted` record for finished jobs
    /// (dropping a terminal job's records entirely would make
    /// [`Supervisor::replay`] resurrect it as a queued placeholder;
    /// dropping just its `Submitted` record would leave it a terminal
    /// placeholder with an empty spec, so a post-restart
    /// `GET /jobs/<id>` would lose its model/tensor context).
    pub fn is_terminal_marker(&self) -> bool {
        matches!(
            self,
            JournalRecord::Done { .. } | JournalRecord::Failed { .. } | JournalRecord::Shed { .. }
        )
    }
}

/// The result of reading a journal back.
#[derive(Debug)]
pub struct JournalScan {
    /// Verified records in append order.
    pub records: Vec<JournalRecord>,
    /// Whether a torn final line (crash mid-append) was dropped. Only
    /// the *last* line may be bad — a bad line with valid lines after
    /// it is corruption, not a crash, and errors instead.
    pub torn_tail: bool,
    /// Byte length of the verified prefix: the header plus every valid
    /// record line, trailing newlines included. When `torn_tail` is
    /// set, the bytes past this offset are the torn partial line;
    /// [`Supervisor::resume`] truncates to here before appending so a
    /// new record cannot fuse with the torn bytes into one line that
    /// later scans reject as mid-file corruption.
    pub valid_len: u64,
}

/// Reads and verifies a journal file. Future-version or wrong-endian
/// headers fail with [`StefError::CheckpointVersion`]; checksum or
/// grammar damage anywhere but the final line fails with a corrupt
/// [`StefError::Checkpoint`].
pub fn scan_journal(path: &Path) -> Result<JournalScan, StefError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| StefError::Checkpoint(CheckpointError::Io(e)))?;
    let mut segments = text.split_inclusive('\n');
    let header = segments.next().ok_or(StefError::Checkpoint(CheckpointError::Corrupt {
        reason: "journal is empty".into(),
    }))?;
    if !header.ends_with('\n') {
        // `create` writes header + newline in one syscall and fsyncs
        // before any record exists; a journal that ends inside the
        // header never finished being created and holds nothing.
        return Err(StefError::Checkpoint(CheckpointError::Corrupt {
            reason: "journal header is not newline-terminated".into(),
        }));
    }
    parse_versioned_header(header.trim_end(), "stef-journal", JOURNAL_VERSION)
        .map_err(StefError::from)?;

    let body_segments: Vec<&str> = segments.collect();
    let mut records = Vec::with_capacity(body_segments.len());
    let mut torn_tail = false;
    let mut valid_len = header.len() as u64;
    for (i, seg) in body_segments.iter().enumerate() {
        let last = i + 1 == body_segments.len();
        match verify_line(seg.trim_end_matches('\n')) {
            // The newline is part of the record's single append write:
            // a line whose content verifies but whose newline never
            // landed is torn all the same (appending after it would
            // fuse two records into one line).
            Ok(record) if seg.ends_with('\n') => {
                records.push(record);
                valid_len += seg.len() as u64;
            }
            Ok(_) => torn_tail = true,
            Err(reason) if last => {
                // A crash mid-append can only tear the final line.
                let _ = reason;
                torn_tail = true;
            }
            Err(reason) => {
                return Err(StefError::Checkpoint(CheckpointError::Corrupt {
                    reason: format!("journal line {}: {reason}", i + 2),
                }))
            }
        }
    }
    Ok(JournalScan {
        records,
        torn_tail,
        valid_len,
    })
}

/// Checks one journal line's ` !<fnv64>` suffix and parses the body.
fn verify_line(line: &str) -> Result<JournalRecord, String> {
    let (body, sum) = line.rsplit_once(" !").ok_or("missing checksum suffix")?;
    let want = u64::from_str_radix(sum.trim(), 16).map_err(|_| "bad checksum value")?;
    let got = fnv64(body.as_bytes());
    if got != want {
        return Err(format!("checksum mismatch (stored {want:016x}, computed {got:016x})"));
    }
    JournalRecord::decode(body)
}

/// Append-only journal writer; every record is flushed and fsynced
/// before the caller proceeds, so the journal never claims less than
/// what happened.
struct JournalWriter {
    file: std::fs::File,
}

impl JournalWriter {
    fn create(path: &Path) -> Result<JournalWriter, StefError> {
        let mut file = std::fs::OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(path)
            .map_err(|e| StefError::Checkpoint(CheckpointError::Io(e)))?;
        file.write_all(
            format!("stef-journal v{JOURNAL_VERSION} {CHECKPOINT_ENDIANNESS}\n").as_bytes(),
        )
        .and_then(|_| file.sync_data())
        .map_err(|e| StefError::Checkpoint(CheckpointError::Io(e)))?;
        Ok(JournalWriter { file })
    }

    fn open_append(path: &Path) -> Result<JournalWriter, StefError> {
        let file = std::fs::OpenOptions::new()
            .append(true)
            .open(path)
            .map_err(|e| StefError::Checkpoint(CheckpointError::Io(e)))?;
        Ok(JournalWriter { file })
    }

    fn append(&mut self, record: &JournalRecord) -> Result<(), StefError> {
        let body = record.encode();
        let line = format!("{body} !{:016x}\n", fnv64(body.as_bytes()));
        self.file
            .write_all(line.as_bytes())
            .and_then(|_| self.file.sync_data())
            .map_err(|e| StefError::Checkpoint(CheckpointError::Io(e)))
    }
}

/// Compacts a journal: rewrites it keeping every record of unfinished
/// jobs but only the `submitted` + terminal marker
/// (`done`/`failed`/`shed`) pair of finished ones, so a long-lived
/// daemon's journal stays proportional to its job *count* instead of
/// their attempt/checkpoint history. The terminal markers must
/// survive — [`Supervisor::resume`]'s replay treats a job id it has
/// never seen as an unfinished placeholder, so dropping a done job
/// entirely would resurrect it with an empty spec — and the `submitted`
/// records must survive with them so a restarted daemon still knows a
/// finished job's spec (model name, tensor, rank) when asked for its
/// status. (A shed job has no `submitted` record; its `shed` marker
/// alone replays to the right state.)
///
/// Durability: the compacted journal is written to a sibling temp file,
/// fsynced, atomically renamed over the original, and the directory
/// fsynced — a crash at any point leaves either the old complete
/// journal or the new complete one, never a mix. A torn tail is dropped
/// by the rewrite (same semantics as [`Supervisor::resume`]'s
/// truncation). Callers must serialize against concurrent appenders;
/// [`Supervisor::compact_journal`] does so under the journal lock.
///
/// Returns the number of records dropped.
pub fn compact_journal_file(path: &Path) -> Result<usize, StefError> {
    let io = |e: std::io::Error| StefError::Checkpoint(CheckpointError::Io(e));
    let scan = scan_journal(path)?;
    let terminal: std::collections::HashSet<usize> = scan
        .records
        .iter()
        .filter(|r| r.is_terminal_marker())
        .map(|r| r.job_id())
        .collect();
    let keep: Vec<&JournalRecord> = scan
        .records
        .iter()
        .filter(|r| {
            r.is_terminal_marker()
                || matches!(r, JournalRecord::Submitted { .. })
                || !terminal.contains(&r.job_id())
        })
        .collect();
    let dropped = scan.records.len() - keep.len();
    if dropped == 0 && !scan.torn_tail {
        return Ok(0);
    }
    let mut text = format!("stef-journal v{JOURNAL_VERSION} {CHECKPOINT_ENDIANNESS}\n");
    for record in &keep {
        let body = record.encode();
        text.push_str(&format!("{body} !{:016x}\n", fnv64(body.as_bytes())));
    }
    let file_name = path
        .file_name()
        .and_then(|n| n.to_str())
        .unwrap_or("journal");
    let tmp = path.with_file_name(format!("{file_name}.compact.tmp"));
    replace_file(path, &tmp, text.as_bytes()).map_err(io)?;
    Ok(dropped)
}

// ---------------------------------------------------------------------
// Supervisor
// ---------------------------------------------------------------------

struct Job {
    spec: JobSpec,
    price: JobPrice,
    status: JobStatus,
    token: CancelToken,
    /// Loaded eagerly at submit (pricing needs it anyway); resumed jobs
    /// reload lazily at run time.
    tensor: Option<CooTensor>,
    retries_used: usize,
    result: Option<Result<CpdResult, StefError>>,
}

struct Inner {
    jobs: Vec<Job>,
    /// Admitted, not-yet-claimed job ids.
    queue: Vec<usize>,
    outstanding_mem: u64,
    outstanding_traffic: f64,
}

/// Summary of a drained batch.
#[derive(Clone, Debug, PartialEq)]
pub struct BatchReport {
    /// `(job id, final status)` for every submitted or shed job.
    pub outcomes: Vec<(usize, JobStatus)>,
}

impl BatchReport {
    fn count(&self, f: impl Fn(&JobStatus) -> bool) -> usize {
        self.outcomes.iter().filter(|(_, s)| f(s)).count()
    }

    /// Jobs that finished successfully.
    pub fn done(&self) -> usize {
        self.count(|s| matches!(s, JobStatus::Done { .. }))
    }

    /// Jobs that failed terminally.
    pub fn failed(&self) -> usize {
        self.count(|s| matches!(s, JobStatus::Failed { .. }))
    }

    /// Jobs shed at admission.
    pub fn shed(&self) -> usize {
        self.count(|s| matches!(s, JobStatus::Shed))
    }

    /// Jobs interrupted (resumable).
    pub fn interrupted(&self) -> usize {
        self.count(|s| matches!(s, JobStatus::Interrupted))
    }

    /// The batch-level error a CLI should exit with, worst-first:
    /// unfinished work (interrupted, or a job somehow still queued or
    /// running — the batch is incomplete either way) beats shedding
    /// beats terminal job failures; a fully successful batch returns
    /// `None`.
    pub fn exit_error(&self) -> Option<StefError> {
        if self.count(|s| !s.is_terminal()) > 0 {
            return Some(StefError::Cancelled {
                iteration: 0,
                deadline: false,
                checkpoint_iteration: None,
            });
        }
        if let Some((_, JobStatus::Shed)) = self
            .outcomes
            .iter()
            .find(|(_, s)| matches!(s, JobStatus::Shed))
        {
            return Some(StefError::Overloaded {
                resource: "batch",
                required: self.shed() as f64,
                outstanding: 0.0,
                envelope: 0.0,
            });
        }
        if self.failed() > 0 {
            return Some(StefError::BatchFailed {
                failed: self.failed(),
                total: self.outcomes.len(),
            });
        }
        None
    }
}

/// The multi-job runtime. All methods take `&self`; the supervisor is
/// shared freely across threads.
pub struct Supervisor {
    cfg: SupervisorConfig,
    loader: TensorLoader,
    factory: EngineFactory,
    inner: Mutex<Inner>,
    /// `Arc` so checkpoint hooks (which must be `'static` for
    /// `CpdOptions`) can journal without borrowing the supervisor.
    journal: Arc<Mutex<JournalWriter>>,
    metrics: Option<Mutex<std::fs::File>>,
    /// Signalled on every admit; [`Supervisor::run_service`] workers
    /// park on it instead of polling an empty queue.
    work: Condvar,
    /// Set while `run_all` drains (and by [`Supervisor::begin_drain`]).
    /// Workers exit once the queue is momentarily empty, so a job
    /// submitted mid-drain could be left queued but never claimed;
    /// `submit` refuses while this is set instead of silently stranding
    /// the job.
    draining: AtomicBool,
}

impl Supervisor {
    /// Starts a fresh batch. Fails if `journal_path` already exists —
    /// an existing journal is a crashed batch's record of truth, and
    /// silently truncating it would destroy the resume story; pass it
    /// to [`Supervisor::resume`] or delete it explicitly.
    pub fn new(
        cfg: SupervisorConfig,
        loader: TensorLoader,
        factory: EngineFactory,
    ) -> Result<Supervisor, StefError> {
        if cfg.journal_path.exists() {
            return Err(StefError::Input(format!(
                "journal '{}' already exists; resume it or remove it first",
                cfg.journal_path.display()
            )));
        }
        std::fs::create_dir_all(&cfg.checkpoint_dir)
            .map_err(|e| StefError::Checkpoint(CheckpointError::Io(e)))?;
        if let Some(parent) = cfg.journal_path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)
                    .map_err(|e| StefError::Checkpoint(CheckpointError::Io(e)))?;
            }
        }
        let journal = JournalWriter::create(&cfg.journal_path)?;
        Self::build(cfg, loader, factory, journal, Vec::new())
    }

    /// Reopens a crashed or interrupted batch: reads the journal,
    /// treats every job without a terminal record (`done`, `failed`,
    /// `shed`) as unfinished, and re-queues it to restart from its
    /// latest on-disk checkpoint. Retry budgets already consumed stay
    /// consumed. The journal is appended to, not rewritten.
    pub fn resume(
        cfg: SupervisorConfig,
        loader: TensorLoader,
        factory: EngineFactory,
    ) -> Result<Supervisor, StefError> {
        let scan = scan_journal(&cfg.journal_path)?;
        if scan.torn_tail {
            // Cut the torn partial line (no trailing newline) off
            // before reopening for append: the first new record would
            // otherwise fuse with the torn bytes into one unverifiable
            // line, which later scans reject as mid-file corruption.
            let file = std::fs::OpenOptions::new()
                .write(true)
                .open(&cfg.journal_path)
                .map_err(|e| StefError::Checkpoint(CheckpointError::Io(e)))?;
            file.set_len(scan.valid_len)
                .and_then(|()| file.sync_data())
                .map_err(|e| StefError::Checkpoint(CheckpointError::Io(e)))?;
        }
        std::fs::create_dir_all(&cfg.checkpoint_dir)
            .map_err(|e| StefError::Checkpoint(CheckpointError::Io(e)))?;
        // Resume is the natural compaction point: the full history was
        // just replayed into memory, so terminal jobs' intermediate
        // records have served their purpose and a long-lived daemon's
        // journal must not grow without bound across restarts.
        compact_journal_file(&cfg.journal_path)?;
        let journal = JournalWriter::open_append(&cfg.journal_path)?;
        Self::build(cfg, loader, factory, journal, scan.records)
    }

    fn build(
        cfg: SupervisorConfig,
        loader: TensorLoader,
        factory: EngineFactory,
        journal: JournalWriter,
        history: Vec<JournalRecord>,
    ) -> Result<Supervisor, StefError> {
        let metrics = match &cfg.metrics_path {
            Some(path) => Some(Mutex::new(
                std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(path)
                    .map_err(|e| StefError::Checkpoint(CheckpointError::Io(e)))?,
            )),
            None => None,
        };
        let mut inner = Inner {
            jobs: Vec::new(),
            queue: Vec::new(),
            outstanding_mem: 0,
            outstanding_traffic: 0.0,
        };
        for record in history {
            replay(&mut inner, record);
        }
        // Everything non-terminal is unfinished: re-queue it and
        // re-commit its price against the envelope.
        for (id, job) in inner.jobs.iter_mut().enumerate() {
            if !job.status.is_terminal() {
                job.status = JobStatus::Queued;
                job.token = CancelToken::new();
                inner.queue.push(id);
                inner.outstanding_mem += job.price.mem_bytes;
                inner.outstanding_traffic += job.price.traffic;
            }
        }
        Ok(Supervisor {
            cfg,
            loader,
            factory,
            inner: Mutex::new(inner),
            journal: Arc::new(Mutex::new(journal)),
            metrics,
            work: Condvar::new(),
            draining: AtomicBool::new(false),
        })
    }

    /// Prices `spec`, checks it against the envelope, and either queues
    /// it (returning its job id) or sheds it with
    /// [`StefError::Overloaded`]. Both outcomes are journaled before
    /// this returns.
    pub fn submit(&self, spec: JobSpec) -> Result<usize, StefError> {
        if self.draining.load(Ordering::Acquire) {
            return Err(StefError::Input(
                "cannot submit while the supervisor is draining".into(),
            ));
        }
        let tensor = (self.loader)(&spec.tensor)?;
        let price = price_job(
            &tensor,
            spec.rank,
            self.cfg.threads_per_job,
            self.cfg.cache_bytes,
        );
        let mut inner = lock_unpoisoned(&self.inner);
        let id = inner.jobs.len();
        let over = |required: f64, outstanding: f64, envelope: f64| {
            envelope > 0.0 && outstanding + required > envelope
        };
        let shed_as = if over(
            price.mem_bytes as f64,
            inner.outstanding_mem as f64,
            self.cfg.memory_envelope as f64,
        ) {
            Some((
                "memory",
                price.mem_bytes as f64,
                inner.outstanding_mem as f64,
                self.cfg.memory_envelope as f64,
            ))
        } else if over(
            price.traffic,
            inner.outstanding_traffic,
            self.cfg.traffic_envelope,
        ) {
            Some((
                "traffic",
                price.traffic,
                inner.outstanding_traffic,
                self.cfg.traffic_envelope,
            ))
        } else {
            None
        };
        if let Some((resource, required, outstanding, envelope)) = shed_as {
            crate::metrics::counter(
                "stef_jobs_shed_total",
                "Jobs refused at admission, by exhausted envelope resource",
                &[("resource", resource)],
            )
            .inc();
            crate::flight::record(crate::flight::FlightEvent::JobShed, id as u64, 0);
            self.journal_append(&JournalRecord::Shed {
                id,
                resource: resource.into(),
                required,
                outstanding,
                envelope,
            })?;
            inner.jobs.push(Job {
                spec,
                price,
                status: JobStatus::Shed,
                token: CancelToken::new(),
                tensor: None,
                retries_used: 0,
                result: None,
            });
            return Err(StefError::Overloaded {
                resource,
                required,
                outstanding,
                envelope,
            });
        }
        crate::metrics::counter(
            "stef_jobs_submitted_total",
            "Jobs admitted past envelope pricing",
            &[],
        )
        .inc();
        self.journal_append(&JournalRecord::Submitted {
            id,
            spec: spec.clone(),
            price,
        })?;
        inner.outstanding_mem += price.mem_bytes;
        inner.outstanding_traffic += price.traffic;
        inner.jobs.push(Job {
            spec,
            price,
            status: JobStatus::Queued,
            token: CancelToken::new(),
            tensor: Some(tensor),
            retries_used: 0,
            result: None,
        });
        inner.queue.push(id);
        drop(inner);
        self.work.notify_one();
        Ok(id)
    }

    /// The job's current status, or `None` for an unknown id.
    pub fn status(&self, id: usize) -> Option<JobStatus> {
        lock_unpoisoned(&self.inner)
            .jobs
            .get(id)
            .map(|j| j.status.clone())
    }

    /// Cancels one job: a queued job is marked interrupted without ever
    /// starting; a running job's token is cancelled and the driver
    /// checkpoints on its way out. Returns `false` for unknown or
    /// already-terminal jobs.
    pub fn cancel(&self, id: usize) -> bool {
        let mut inner = lock_unpoisoned(&self.inner);
        let status = match inner.jobs.get(id) {
            Some(job) => job.status.clone(),
            None => return false,
        };
        match status {
            JobStatus::Queued => {
                if let Some(job) = inner.jobs.get_mut(id) {
                    job.status = JobStatus::Interrupted;
                }
                inner.queue.retain(|&q| q != id);
                Self::release_price(&mut inner, id);
                drop(inner);
                let _ = self.journal_append(&JournalRecord::Interrupted { id });
                true
            }
            JobStatus::Running { .. } => {
                if let Some(job) = inner.jobs.get(id) {
                    job.token.cancel();
                }
                true
            }
            _ => false,
        }
    }

    /// Moves the job's final result out, once it is terminal.
    pub fn take_result(&self, id: usize) -> Option<Result<CpdResult, StefError>> {
        lock_unpoisoned(&self.inner)
            .jobs
            .get_mut(id)
            .and_then(|j| j.result.take())
    }

    /// Drains the queue: runs every admitted job to a journaled outcome
    /// on up to `max_concurrent` worker threads, honoring the batch
    /// cancel token, and reports the final per-job statuses.
    pub fn run_all(&self) -> BatchReport {
        self.draining.store(true, Ordering::Release);
        loop {
            let workers = self.cfg.max_concurrent.max(1);
            let drained = AtomicBool::new(false);
            std::thread::scope(|s| {
                let handles: Vec<_> =
                    (0..workers).map(|_| s.spawn(|| self.worker_loop())).collect();
                // Batch-cancel propagation: cancelling the batch token must
                // reach jobs already running on their own tokens.
                let propagator = self.cfg.cancel.clone().map(|batch| {
                    let drained = &drained;
                    s.spawn(move || {
                        while !drained.load(Ordering::Acquire) {
                            if batch.is_cancelled() {
                                for job in lock_unpoisoned(&self.inner).jobs.iter() {
                                    if matches!(job.status, JobStatus::Running { .. }) {
                                        job.token.cancel();
                                    }
                                }
                            }
                            std::thread::sleep(Duration::from_millis(20));
                        }
                    })
                });
                for h in handles {
                    let _ = h.join();
                }
                drained.store(true, Ordering::Release);
                if let Some(p) = propagator {
                    let _ = p.join();
                }
            });
            // A submit that passed the draining check just before it was
            // set can land in the queue after the workers exited; sweep
            // again so nothing is left silently queued.
            if self.batch_cancelled() || lock_unpoisoned(&self.inner).queue.is_empty() {
                break;
            }
        }
        self.draining.store(false, Ordering::Release);
        self.report()
    }

    /// Runs jobs *as they arrive* until `stop` fires — the service-mode
    /// counterpart to [`Supervisor::run_all`]. Unlike `run_all` it does
    /// not set `draining`, so submissions keep landing while workers
    /// run; idle workers park on a condvar that [`Supervisor::submit`]
    /// signals. On stop, workers finish their in-flight jobs (a caller
    /// wanting a faster drain cancels them via
    /// [`Supervisor::cancel_running`] first), then still-queued jobs
    /// are journaled `Interrupted` so a restart resumes them.
    pub fn run_service(&self, stop: &CancelToken) -> BatchReport {
        let workers = self.cfg.max_concurrent.max(1);
        std::thread::scope(|s| {
            for _ in 0..workers {
                s.spawn(|| self.service_worker(stop));
            }
        });
        self.interrupt_queued();
        self.report()
    }

    fn service_worker(&self, stop: &CancelToken) {
        loop {
            let claimed = {
                let mut inner = lock_unpoisoned(&self.inner);
                loop {
                    if stop.is_cancelled() || self.batch_cancelled() {
                        break None;
                    }
                    if let Some(id) = claim_next(&mut inner) {
                        break Some(id);
                    }
                    // Timed wait: a stop signal does not notify the
                    // condvar, so parked workers re-check it on a
                    // 50 ms heartbeat.
                    inner =
                        wait_timeout_unpoisoned(&self.work, inner, Duration::from_millis(50));
                }
            };
            match claimed {
                Some(id) => self.run_job(id),
                None => return,
            }
        }
    }

    /// Stops admission: every subsequent [`Supervisor::submit`] refuses
    /// until the flag is cleared. The serving layer sets this on the
    /// first SIGTERM/SIGINT, before giving in-flight jobs their grace
    /// period.
    pub fn begin_drain(&self) {
        self.draining.store(true, Ordering::Release);
        self.work.notify_all();
    }

    /// Whether admission is currently refused.
    pub fn is_draining(&self) -> bool {
        self.draining.load(Ordering::Acquire)
    }

    /// Cancels every running job's token (cooperative: each checkpoints
    /// on its way out and lands `Interrupted`, resumable after restart).
    /// A job a worker has claimed off the queue but not yet marked
    /// `Running` (status still `Queued`, id no longer queued) is
    /// cancelled too — otherwise a drain racing a claim lets that job
    /// start with an uncancelled token and run to completion after the
    /// grace already expired. Returns how many jobs were signalled.
    pub fn cancel_running(&self) -> usize {
        let inner = lock_unpoisoned(&self.inner);
        let mut n = 0;
        for (id, job) in inner.jobs.iter().enumerate() {
            let claimed_not_started =
                matches!(job.status, JobStatus::Queued) && !inner.queue.contains(&id);
            if matches!(job.status, JobStatus::Running { .. }) || claimed_not_started {
                job.token.cancel();
                n += 1;
            }
        }
        n
    }

    /// `(queued, running)` job counts — the health-endpoint payload.
    pub fn load_counts(&self) -> (usize, usize) {
        let inner = lock_unpoisoned(&self.inner);
        let running = inner
            .jobs
            .iter()
            .filter(|j| matches!(j.status, JobStatus::Running { .. }))
            .count();
        (inner.queue.len(), running)
    }

    /// A clone of the job's spec, or `None` for an unknown id.
    pub fn job_spec(&self, id: usize) -> Option<JobSpec> {
        lock_unpoisoned(&self.inner)
            .jobs
            .get(id)
            .map(|j| j.spec.clone())
    }

    /// The configuration the supervisor was built with.
    pub fn config(&self) -> &SupervisorConfig {
        &self.cfg
    }

    /// Compacts the live journal in place (see [`compact_journal_file`])
    /// and swaps the writer onto the rewritten file, all under the
    /// journal lock so no concurrent append can land on the unlinked
    /// inode. Returns the number of records dropped.
    pub fn compact_journal(&self) -> Result<usize, StefError> {
        let mut writer = lock_unpoisoned(&self.journal);
        let dropped = compact_journal_file(&self.cfg.journal_path)?;
        *writer = JournalWriter::open_append(&self.cfg.journal_path)?;
        Ok(dropped)
    }

    /// Final statuses for every job seen so far.
    pub fn report(&self) -> BatchReport {
        let inner = lock_unpoisoned(&self.inner);
        BatchReport {
            outcomes: inner
                .jobs
                .iter()
                .enumerate()
                .map(|(id, j)| (id, j.status.clone()))
                .collect(),
        }
    }

    fn batch_cancelled(&self) -> bool {
        self.cfg.cancel.as_ref().is_some_and(|t| t.is_cancelled())
    }

    fn journal_append(&self, record: &JournalRecord) -> Result<(), StefError> {
        lock_unpoisoned(&self.journal).append(record)
    }

    fn worker_loop(&self) {
        loop {
            if self.batch_cancelled() {
                self.interrupt_queued();
                return;
            }
            let claimed = {
                let mut inner = lock_unpoisoned(&self.inner);
                claim_next(&mut inner)
            };
            match claimed {
                Some(id) => self.run_job(id),
                None => return,
            }
        }
    }

    /// Marks every still-queued job interrupted (batch cancel observed
    /// before it started). Idempotent across racing workers: the queue
    /// is drained under the lock.
    fn interrupt_queued(&self) {
        let ids: Vec<usize> = {
            let mut inner = lock_unpoisoned(&self.inner);
            let ids = std::mem::take(&mut inner.queue);
            for &id in &ids {
                let Some(job) = inner.jobs.get_mut(id) else { continue };
                let price = job.price;
                job.status = JobStatus::Interrupted;
                inner.outstanding_mem = inner.outstanding_mem.saturating_sub(price.mem_bytes);
                inner.outstanding_traffic -= price.traffic;
            }
            ids
        };
        for id in ids {
            let _ = self.journal_append(&JournalRecord::Interrupted { id });
        }
    }

    fn checkpoint_path(&self, id: usize) -> PathBuf {
        self.cfg.checkpoint_dir.join(format!("job-{id}.ckpt"))
    }

    fn run_job(&self, id: usize) {
        let start = Instant::now();
        let (spec, token, mut tensor, retries_already_used) = {
            let mut inner = lock_unpoisoned(&self.inner);
            let Some(job) = inner.jobs.get_mut(id) else { return };
            (
                job.spec.clone(),
                job.token.clone(),
                job.tensor.take(),
                job.retries_used,
            )
        };
        if let Some(deadline) = spec.deadline {
            if !token.deadline_armed() {
                token.set_deadline(deadline);
            }
        }
        let ckpt_path = self.checkpoint_path(id);
        let mut attempt = retries_already_used + 1;
        let attempt_hist = |outcome: &'static str| {
            crate::metrics::histogram(
                "stef_job_attempt_seconds",
                "Wall time of one job attempt, by how the attempt ended",
                &[("outcome", outcome)],
                crate::metrics::JOB_BUCKETS,
            )
        };
        loop {
            let attempt_t0 = Instant::now();
            crate::flight::record(crate::flight::FlightEvent::JobStart, id as u64, attempt as u64);
            {
                let mut inner = lock_unpoisoned(&self.inner);
                if let Some(job) = inner.jobs.get_mut(id) {
                    job.status = JobStatus::Running { attempt };
                }
            }
            if self.journal_append(&JournalRecord::Started { id, attempt }).is_err() {
                // A dead journal means no outcome can be made durable;
                // stop rather than run unjournaled work.
                self.finish_interrupted(id, start);
                return;
            }
            let outcome: Result<CpdResult, StefError> = (|| {
                if tensor.is_none() {
                    // Resumed job: the tensor was never loaded in this
                    // process. A loader failure is an attempt failure
                    // like any other — it flows into the retry
                    // classification below, so a transient I/O error
                    // reading the tensor burns a retry instead of
                    // terminally failing the job.
                    tensor = Some((self.loader)(&spec.tensor)?);
                }
                let tensor = tensor.as_ref().ok_or_else(|| {
                    StefError::Input("tensor unavailable after load".into())
                })?;
                let resume = match Checkpoint::load(&ckpt_path) {
                    Ok(cp) => Some(cp),
                    Err(CheckpointError::Io(e)) if e.kind() == std::io::ErrorKind::NotFound => None,
                    Err(e) => {
                        // A damaged checkpoint costs the progress it held,
                        // never the job: journal the downgrade, start fresh.
                        let _ = self.journal_append(&JournalRecord::Degraded {
                            id,
                            detail: format!("checkpoint unusable, restarting from scratch: {e}"),
                        });
                        None
                    }
                };
                let mut engine =
                    (self.factory)(&spec, tensor, &token, JobAttempt { job: id, attempt })?;
                let opts = CpdOptions {
                    rank: spec.rank,
                    max_iters: spec.max_iters,
                    tol: spec.tol,
                    seed: spec.seed,
                    checkpoint: Some(CheckpointPolicy {
                        on_save: Some(self.checkpoint_hook(id)),
                        ..CheckpointPolicy::new(&ckpt_path, self.cfg.checkpoint_every.max(1))
                    }),
                    resume,
                    cancel: Some(token.clone()),
                };
                cpd_als(engine.as_mut(), &opts)
            })();
            match outcome {
                Ok(result) => {
                    attempt_hist("done").observe(attempt_t0.elapsed().as_secs_f64());
                    for event in &result.degradations {
                        let _ = self.journal_append(&JournalRecord::Degraded {
                            id,
                            detail: format!("{event:?}"),
                        });
                    }
                    self.finish_done(id, attempt, result, start);
                    return;
                }
                Err(StefError::Cancelled { deadline: false, .. }) => {
                    // Batch cancel or explicit per-job cancel: the job
                    // is unfinished and resumable from its checkpoint.
                    attempt_hist("interrupted").observe(attempt_t0.elapsed().as_secs_f64());
                    self.finish_interrupted(id, start);
                    return;
                }
                Err(e) => {
                    let deadline_expired =
                        matches!(e, StefError::Cancelled { deadline: true, .. });
                    let retryable = !deadline_expired && is_retryable(&e);
                    let retries_used = attempt - 1 + usize::from(retryable);
                    if retryable && retries_used <= self.cfg.max_retries {
                        attempt_hist("retried").observe(attempt_t0.elapsed().as_secs_f64());
                        crate::metrics::counter(
                            "stef_job_retries_total",
                            "Attempts re-queued up the retry ladder after transient failures",
                            &[],
                        )
                        .inc();
                        crate::flight::record(
                            crate::flight::FlightEvent::JobRetry,
                            id as u64,
                            (attempt + 1) as u64,
                        );
                        let delay = backoff_delay(&self.cfg, id, attempt);
                        {
                            let mut inner = lock_unpoisoned(&self.inner);
                            if let Some(job) = inner.jobs.get_mut(id) {
                                job.retries_used = retries_used;
                            }
                        }
                        let _ = self.journal_append(&JournalRecord::Retrying {
                            id,
                            attempt: attempt + 1,
                            backoff_ms: delay.as_millis() as u64,
                            error: e.to_string(),
                        });
                        if !self.responsive_sleep(delay, &token) {
                            self.finish_interrupted(id, start);
                            return;
                        }
                        attempt += 1;
                        continue;
                    }
                    attempt_hist("failed").observe(attempt_t0.elapsed().as_secs_f64());
                    self.finish_failed(id, attempt, e, start);
                    return;
                }
            }
        }
    }

    fn checkpoint_hook(&self, id: usize) -> CheckpointHook {
        let journal = Arc::clone(&self.journal);
        CheckpointHook::new(move |iteration| {
            let _ = lock_unpoisoned(&journal).append(&JournalRecord::Checkpointed { id, iteration });
        })
    }

    /// Sleeps in small slices, returning `false` when the job's token or
    /// the batch token fired (the backoff should not outlive a cancel).
    fn responsive_sleep(&self, total: Duration, token: &CancelToken) -> bool {
        let until = Instant::now() + total;
        while Instant::now() < until {
            if token.is_cancelled() || self.batch_cancelled() {
                return false;
            }
            std::thread::sleep(Duration::from_millis(10).min(until - Instant::now()));
        }
        true
    }

    fn release_price(inner: &mut Inner, id: usize) {
        let Some(job) = inner.jobs.get(id) else { return };
        let price = job.price;
        inner.outstanding_mem = inner.outstanding_mem.saturating_sub(price.mem_bytes);
        inner.outstanding_traffic -= price.traffic;
    }

    /// Invokes the configured outcome hook (outside the state lock —
    /// the hook runs arbitrary serving-layer code).
    fn notify_outcome(&self, id: usize, outcome: JobOutcome<'_>) {
        let Some(hook) = &self.cfg.on_outcome else { return };
        let spec = self.job_spec(id);
        if let Some(spec) = spec {
            (hook.0)(id, &spec, outcome);
        }
    }

    /// One `stef_jobs_completed_total{outcome=...}` series per terminal
    /// state; the integration soak cross-checks these against the drain
    /// report.
    fn outcome_counter(outcome: &'static str) -> &'static crate::metrics::Counter {
        crate::metrics::counter(
            "stef_jobs_completed_total",
            "Jobs reaching a terminal state, by outcome",
            &[("outcome", outcome)],
        )
    }

    fn finish_done(&self, id: usize, attempts: usize, result: CpdResult, start: Instant) {
        let iterations = result.iterations;
        let fit = result.final_fit();
        let _ = self.journal_append(&JournalRecord::Done {
            id,
            attempts,
            iterations,
            fit,
        });
        Self::outcome_counter("done").inc();
        crate::flight::record(crate::flight::FlightEvent::JobDone, id as u64, attempts as u64);
        // Continuous §IV-C audit: fold this job's measured-vs-predicted
        // traffic into the per-(engine, mode) drift gauges.
        for audit in result.telemetry.model_audit() {
            crate::metrics::record_model_drift(
                &result.telemetry.engine,
                audit.mode,
                audit.measured_elems,
                audit.predicted_elems,
                self.cfg.drift_warn_threshold,
            );
        }
        self.emit_iteration_metrics(id, attempts, &result.telemetry);
        self.notify_outcome(id, JobOutcome::Done(&result));
        {
            let mut inner = lock_unpoisoned(&self.inner);
            Self::release_price(&mut inner, id);
            let Some(job) = inner.jobs.get_mut(id) else { return };
            job.status = JobStatus::Done {
                attempts,
                iterations,
                final_fit: fit,
            };
            job.result = Some(Ok(result));
        }
        self.emit_metrics(id, "done", attempts, Some((iterations, fit)), None, start);
    }

    fn finish_failed(&self, id: usize, attempts: usize, error: StefError, start: Instant) {
        let msg = error.to_string();
        let _ = self.journal_append(&JournalRecord::Failed {
            id,
            attempts,
            error: msg.clone(),
        });
        Self::outcome_counter("failed").inc();
        crate::flight::record(crate::flight::FlightEvent::JobFailed, id as u64, attempts as u64);
        self.notify_outcome(id, JobOutcome::Failed(&error));
        {
            let mut inner = lock_unpoisoned(&self.inner);
            Self::release_price(&mut inner, id);
            let Some(job) = inner.jobs.get_mut(id) else { return };
            job.status = JobStatus::Failed {
                attempts,
                error: msg.clone(),
            };
            job.result = Some(Err(error));
        }
        self.emit_metrics(id, "failed", attempts, None, Some(&msg), start);
    }

    fn finish_interrupted(&self, id: usize, start: Instant) {
        let _ = self.journal_append(&JournalRecord::Interrupted { id });
        Self::outcome_counter("interrupted").inc();
        crate::flight::record(crate::flight::FlightEvent::JobInterrupted, id as u64, 0);
        self.notify_outcome(id, JobOutcome::Interrupted);
        let attempts = {
            let mut inner = lock_unpoisoned(&self.inner);
            Self::release_price(&mut inner, id);
            let Some(job) = inner.jobs.get_mut(id) else { return };
            let attempts = match job.status {
                JobStatus::Running { attempt } => attempt,
                _ => 0,
            };
            job.status = JobStatus::Interrupted;
            attempts
        };
        self.emit_metrics(id, "interrupted", attempts, None, None, start);
    }

    /// Appends one `kind:"batch_job"` JSONL record to the PR 5 metrics
    /// sink, best-effort (metrics never fail a job).
    fn emit_metrics(
        &self,
        id: usize,
        outcome: &str,
        attempts: usize,
        done: Option<(usize, f64)>,
        error: Option<&str>,
        start: Instant,
    ) {
        let Some(metrics) = &self.metrics else { return };
        let inner = lock_unpoisoned(&self.inner);
        let Some(job) = inner.jobs.get(id) else { return };
        let mut line = format!(
            "{{\"schema\":1,\"kind\":\"batch_job\",\"id\":{id},\"tensor\":{},\"engine\":{},\
             \"outcome\":\"{outcome}\",\"attempts\":{attempts},\"mem_price_bytes\":{},\
             \"traffic_price\":{},\"wall_s\":{:.6}",
            json_str(&job.spec.tensor),
            json_str(&job.spec.engine),
            job.price.mem_bytes,
            json_num(job.price.traffic),
            start.elapsed().as_secs_f64(),
        );
        if let Some((iterations, fit)) = done {
            line.push_str(&format!(
                ",\"iterations\":{iterations},\"final_fit\":{}",
                json_num(fit)
            ));
        }
        if let Some(e) = error {
            line.push_str(&format!(",\"error\":{}", json_str(e)));
        }
        line.push_str("}\n");
        drop(inner);
        let mut file = lock_unpoisoned(metrics);
        let _ = file.write_all(line.as_bytes());
    }

    /// Appends the finished job's per-iteration schema-1 records to the
    /// metrics sink, stamped with the HTTP-visible job id and the
    /// attempt that produced them (so a retried job's iterations stay
    /// distinguishable across attempts). Best-effort, like
    /// [`Supervisor::emit_metrics`].
    fn emit_iteration_metrics(
        &self,
        id: usize,
        attempt: usize,
        report: &crate::telemetry::TelemetryReport,
    ) {
        let Some(metrics) = &self.metrics else { return };
        if report.records.is_empty() {
            return;
        }
        let text = crate::telemetry::render_metrics_jsonl_tagged(report, Some((id, attempt)));
        let mut file = lock_unpoisoned(metrics);
        let _ = file.write_all(text.as_bytes());
    }

    /// Appends one raw pre-rendered line to the metrics sink (used by
    /// the serve layer's periodic registry flush). No-op without a
    /// configured sink.
    pub(crate) fn append_metrics_line(&self, line: &str) {
        let Some(metrics) = &self.metrics else { return };
        let mut file = lock_unpoisoned(metrics);
        let _ = file.write_all(line.as_bytes());
    }
}

/// Claims the next queued job, nearest deadline first (`None` last),
/// submit order as the tiebreak.
fn claim_next(inner: &mut Inner) -> Option<usize> {
    let pos = inner
        .queue
        .iter()
        .enumerate()
        .min_by_key(|&(_, &id)| {
            let d = inner
                .jobs
                .get(id)
                .and_then(|j| j.spec.deadline)
                .map_or(u128::MAX, |d| d.as_nanos());
            (d, id)
        })
        .map(|(pos, _)| pos)?;
    Some(inner.queue.swap_remove(pos))
}

/// Capped exponential backoff with deterministic FNV-derived jitter:
/// `min(cap, base·2^(attempt-1)) + fnv(id, attempt) mod base`. The
/// jitter decorrelates jobs retrying in lockstep without pulling a
/// clock or an RNG into the supervisor's determinism story.
fn backoff_delay(cfg: &SupervisorConfig, id: usize, attempt: usize) -> Duration {
    let base = (cfg.backoff_base.as_millis() as u64).max(1);
    let cap = (cfg.backoff_cap.as_millis() as u64).max(base);
    let exp = base.saturating_mul(1u64 << (attempt.min(16) - 1).min(63));
    let jitter = fnv64(format!("{id}:{attempt}").as_bytes()) % base;
    Duration::from_millis(exp.min(cap) + jitter)
}

/// Folds one journal record into the reconstructed state (resume path).
fn replay(inner: &mut Inner, record: JournalRecord) {
    let ensure = |inner: &mut Inner, id: usize| {
        while inner.jobs.len() <= id {
            inner.jobs.push(Job {
                spec: JobSpec::new("", 1),
                price: JobPrice {
                    mem_bytes: 0,
                    traffic: 0.0,
                },
                status: JobStatus::Queued,
                token: CancelToken::new(),
                tensor: None,
                retries_used: 0,
                result: None,
            });
        }
    };
    match record {
        JournalRecord::Submitted { id, spec, price } => {
            ensure(inner, id);
            inner.jobs[id].spec = spec;
            inner.jobs[id].price = price;
            inner.jobs[id].status = JobStatus::Queued;
        }
        JournalRecord::Shed { id, .. } => {
            ensure(inner, id);
            inner.jobs[id].status = JobStatus::Shed;
        }
        JournalRecord::Started { id, attempt } => {
            ensure(inner, id);
            inner.jobs[id].status = JobStatus::Running { attempt };
        }
        JournalRecord::Checkpointed { .. } | JournalRecord::Degraded { .. } => {}
        JournalRecord::Retrying { id, attempt, .. } => {
            ensure(inner, id);
            // `attempt` is the next attempt; attempts 1..attempt-1 burned
            // attempt-1 retries... minus the free first attempt.
            inner.jobs[id].retries_used = attempt.saturating_sub(1);
        }
        JournalRecord::Interrupted { id } => {
            ensure(inner, id);
            inner.jobs[id].status = JobStatus::Interrupted;
        }
        JournalRecord::Failed {
            id,
            attempts,
            error,
        } => {
            ensure(inner, id);
            inner.jobs[id].status = JobStatus::Failed { attempts, error };
        }
        JournalRecord::Done {
            id,
            attempts,
            iterations,
            fit,
        } => {
            ensure(inner, id);
            inner.jobs[id].status = JobStatus::Done {
                attempts,
                iterations,
                final_fit: fit,
            };
        }
    }
}

pub(crate) fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

pub(crate) fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ReferenceEngine;
    use crate::fault::{Fault, FaultyEngine};
    use std::sync::atomic::AtomicUsize;
    use workloads::power_law_tensor;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("stef-supervisor-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn test_loader() -> TensorLoader {
        Arc::new(|spec: &str| {
            // "pl:<d0>x<d1>x<d2>:<nnz>:<seed>"
            let parts: Vec<&str> = spec.split(':').collect();
            if parts.len() != 4 || parts[0] != "pl" {
                return Err(StefError::Input(format!("bad test spec '{spec}'")));
            }
            let dims: Vec<usize> = parts[1].split('x').map(|t| t.parse().unwrap()).collect();
            let nnz: usize = parts[2].parse().unwrap();
            let seed: u64 = parts[3].parse().unwrap();
            let skews = vec![0.5; dims.len()];
            Ok(power_law_tensor(&dims, nnz, &skews, seed))
        })
    }

    fn reference_factory() -> EngineFactory {
        Arc::new(|_spec, tensor, _token, _attempt| {
            Ok(Box::new(ReferenceEngine::new(tensor.clone())) as Box<dyn MttkrpEngine>)
        })
    }

    fn cfg_in(dir: &Path) -> SupervisorConfig {
        let mut cfg = SupervisorConfig::new(dir.join("batch.journal"), dir.join("ckpts"));
        cfg.backoff_base = Duration::from_millis(1);
        cfg.backoff_cap = Duration::from_millis(4);
        cfg
    }

    #[test]
    fn journal_records_round_trip() {
        let records = vec![
            JournalRecord::Submitted {
                id: 0,
                spec: JobSpec {
                    tensor: "suite:amazon reviews.tns".into(),
                    rank: 8,
                    max_iters: 30,
                    tol: 1e-6,
                    seed: 7,
                    engine: "stef2".into(),
                    deadline: Some(Duration::from_millis(1500)),
                    model: Some("amazon reviews %model!".into()),
                },
                price: JobPrice {
                    mem_bytes: 123_456,
                    traffic: 9.25e7,
                },
            },
            JournalRecord::Shed {
                id: 1,
                resource: "memory".into(),
                required: 2.0e9,
                outstanding: 7.5e9,
                envelope: 8.0e9,
            },
            JournalRecord::Started { id: 0, attempt: 1 },
            JournalRecord::Checkpointed { id: 0, iteration: 12 },
            JournalRecord::Degraded {
                id: 0,
                detail: "MemoDropped { level: 1, bytes: 640 }".into(),
            },
            JournalRecord::Retrying {
                id: 0,
                attempt: 2,
                backoff_ms: 103,
                error: "worker panic at iteration 3 (pool healed): boom!".into(),
            },
            JournalRecord::Interrupted { id: 0 },
            JournalRecord::Failed {
                id: 0,
                attempts: 3,
                error: "I/O error: no space % left !".into(),
            },
            JournalRecord::Done {
                id: 0,
                attempts: 2,
                iterations: 30,
                fit: 0.953,
            },
        ];
        for r in &records {
            let body = r.encode();
            let back = JournalRecord::decode(&body).expect(&body);
            assert_eq!(&back, r, "{body}");
        }
    }

    #[test]
    fn journal_file_scan_tolerates_torn_tail_only() {
        let dir = tmp_dir("torn");
        let path = dir.join("j.journal");
        let mut w = JournalWriter::create(&path).unwrap();
        w.append(&JournalRecord::Started { id: 0, attempt: 1 }).unwrap();
        w.append(&JournalRecord::Checkpointed { id: 0, iteration: 3 }).unwrap();
        drop(w);

        // Torn final line: scan succeeds, drops it, flags it, and
        // reports the byte offset where the verified prefix ends.
        let full = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &full[..full.len() - 7]).unwrap();
        let scan = scan_journal(&path).unwrap();
        assert!(scan.torn_tail);
        assert_eq!(scan.records.len(), 1);
        assert_eq!(scan.valid_len as usize, full.find("checkpointed").unwrap());

        // A content-complete final line missing only its newline is
        // torn too: appending after it would fuse two records.
        std::fs::write(&path, full.trim_end_matches('\n')).unwrap();
        let scan = scan_journal(&path).unwrap();
        assert!(scan.torn_tail);
        assert_eq!(scan.records.len(), 1);

        // The same damage mid-file (valid line after it) is corruption.
        std::fs::write(&path, full.replace("started 0", "started 9")).unwrap();
        match scan_journal(&path) {
            Err(StefError::Checkpoint(CheckpointError::Corrupt { reason })) => {
                assert!(reason.contains("line 2"), "{reason}");
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn journal_future_version_is_typed() {
        let dir = tmp_dir("ver");
        let path = dir.join("j.journal");
        std::fs::write(&path, "stef-journal v99 be\n").unwrap();
        match scan_journal(&path) {
            Err(StefError::CheckpointVersion { found: 99, .. }) => {}
            other => panic!("expected CheckpointVersion, got {other:?}"),
        }
        std::fs::write(&path, "stef-journal v1 le\n").unwrap();
        assert!(matches!(
            scan_journal(&path),
            Err(StefError::CheckpointVersion { .. })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn batch_runs_to_done_and_results_are_takeable() {
        let dir = tmp_dir("done");
        let sup = Supervisor::new(cfg_in(&dir), test_loader(), reference_factory()).unwrap();
        let a = sup.submit(JobSpec::new("pl:12x10x8:300:1", 3)).unwrap();
        let b = sup.submit(JobSpec::new("pl:10x9x8:250:2", 2)).unwrap();
        let report = sup.run_all();
        assert_eq!(report.done(), 2, "{report:?}");
        assert!(report.exit_error().is_none());
        for id in [a, b] {
            assert!(matches!(sup.status(id), Some(JobStatus::Done { .. })));
            assert!(sup.take_result(id).unwrap().is_ok());
            assert!(sup.take_result(id).is_none(), "result moves out once");
        }
        // The journal ends with terminal records for both jobs.
        let scan = scan_journal(&dir.join("batch.journal")).unwrap();
        let done_ids: Vec<usize> = scan
            .records
            .iter()
            .filter_map(|r| match r {
                JournalRecord::Done { id, .. } => Some(*id),
                _ => None,
            })
            .collect();
        assert_eq!(done_ids.len(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn price_job_prices_the_plan_the_engine_runs() {
        // freebase_music's model-chosen plan swaps the last two levels,
        // so a price read off the mode-length order would differ.
        let t = workloads::suite_tensor("freebase_music", workloads::SuiteScale::Tiny).unwrap();
        let cache_bytes = 1 << 20;
        let mut opts = crate::StefOptions::new(16);
        opts.num_threads = 1;
        opts.cache_bytes = cache_bytes;
        let engine = crate::Stef::try_prepare(&t, opts).unwrap();
        assert!(engine.plan().swap_last_two, "the witness must swap");
        let price = price_job(&t, 16, 1, cache_bytes);
        assert_eq!(price.traffic, engine.plan().predicted);
        assert!(price.mem_bytes > 0);
    }

    #[test]
    fn over_envelope_submission_is_shed_and_admitted_jobs_finish() {
        let dir = tmp_dir("shed");
        let mut cfg = cfg_in(&dir);
        let probe = power_law_tensor(&[12, 10, 8], 300, &[0.5, 0.5, 0.5], 1);
        let price = price_job(&probe, 3, 1, cfg.cache_bytes);
        // Room for exactly one copy of this job.
        cfg.memory_envelope = price.mem_bytes + price.mem_bytes / 2;
        let sup = Supervisor::new(cfg, test_loader(), reference_factory()).unwrap();
        let admitted = sup.submit(JobSpec::new("pl:12x10x8:300:1", 3)).unwrap();
        let err = sup.submit(JobSpec::new("pl:12x10x8:300:1", 3)).unwrap_err();
        match &err {
            StefError::Overloaded {
                resource, envelope, ..
            } => {
                assert_eq!(*resource, "memory");
                assert!(*envelope > 0.0);
            }
            other => panic!("expected Overloaded, got {other:?}"),
        }
        assert_eq!(sup.status(1), Some(JobStatus::Shed));
        let report = sup.run_all();
        assert_eq!(report.done(), 1);
        assert_eq!(report.shed(), 1);
        assert!(matches!(
            report.exit_error(),
            Some(StefError::Overloaded { .. })
        ));
        assert!(matches!(sup.status(admitted), Some(JobStatus::Done { .. })));
        // Shedding is journaled.
        let scan = scan_journal(&dir.join("batch.journal")).unwrap();
        assert!(scan
            .records
            .iter()
            .any(|r| matches!(r, JournalRecord::Shed { id: 1, .. })));
        // The envelope drains with the batch: a resubmission now fits.
        assert!(sup.submit(JobSpec::new("pl:12x10x8:300:1", 3)).is_ok());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn transient_failure_consumes_exactly_one_retry() {
        let dir = tmp_dir("retry");
        let built = Arc::new(AtomicUsize::new(0));
        let b2 = built.clone();
        let factory: EngineFactory = Arc::new(move |_spec, tensor, _token, at: JobAttempt| {
            b2.fetch_add(1, Ordering::Relaxed);
            let mut faults = Vec::new();
            if at.attempt == 1 {
                faults.push(Fault::TransientErrorOnce { at: 2 });
            }
            Ok(Box::new(FaultyEngine::new(ReferenceEngine::new(tensor.clone()), faults))
                as Box<dyn MttkrpEngine>)
        });
        let sup = Supervisor::new(cfg_in(&dir), test_loader(), factory).unwrap();
        let id = sup.submit(JobSpec::new("pl:12x10x8:300:3", 3)).unwrap();
        let report = sup.run_all();
        assert_eq!(report.done(), 1, "{report:?}");
        match sup.status(id) {
            Some(JobStatus::Done { attempts, .. }) => assert_eq!(attempts, 2),
            other => panic!("expected Done after one retry, got {other:?}"),
        }
        assert_eq!(built.load(Ordering::Relaxed), 2, "one engine per attempt");
        let scan = scan_journal(&dir.join("batch.journal")).unwrap();
        let retries: Vec<&JournalRecord> = scan
            .records
            .iter()
            .filter(|r| matches!(r, JournalRecord::Retrying { .. }))
            .collect();
        assert_eq!(retries.len(), 1, "exactly one retry journaled");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn terminal_errors_do_not_retry() {
        let dir = tmp_dir("terminal");
        let built = Arc::new(AtomicUsize::new(0));
        let b2 = built.clone();
        let factory: EngineFactory = Arc::new(move |_s, _t, _k, _a| {
            b2.fetch_add(1, Ordering::Relaxed);
            Err(StefError::Input("deliberately bad".into()))
        });
        let sup = Supervisor::new(cfg_in(&dir), test_loader(), factory).unwrap();
        let id = sup.submit(JobSpec::new("pl:8x8x8:100:1", 2)).unwrap();
        let report = sup.run_all();
        assert_eq!(report.failed(), 1);
        assert_eq!(built.load(Ordering::Relaxed), 1, "no retry for terminal errors");
        assert!(matches!(
            sup.take_result(id),
            Some(Err(StefError::Input(_)))
        ));
        assert!(matches!(
            report.exit_error(),
            Some(StefError::BatchFailed { failed: 1, total: 1 })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_requeues_unfinished_jobs_and_completes() {
        let dir = tmp_dir("resume");
        let cfg = cfg_in(&dir);
        {
            let sup =
                Supervisor::new(cfg.clone(), test_loader(), reference_factory()).unwrap();
            sup.submit(JobSpec::new("pl:12x10x8:300:1", 3)).unwrap();
            sup.submit(JobSpec::new("pl:10x9x8:250:2", 2)).unwrap();
            // Simulate a crash: drop without running.
        }
        let sup = Supervisor::resume(cfg, test_loader(), reference_factory()).unwrap();
        assert_eq!(sup.status(0), Some(JobStatus::Queued));
        assert_eq!(sup.status(1), Some(JobStatus::Queued));
        let report = sup.run_all();
        assert_eq!(report.done(), 2, "{report:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compaction_keeps_terminal_jobs_specs_across_restart() {
        let dir = tmp_dir("compact-spec");
        let cfg = cfg_in(&dir);
        {
            let sup = Supervisor::new(cfg.clone(), test_loader(), reference_factory()).unwrap();
            let mut spec = JobSpec::new("pl:12x10x8:300:1", 3);
            spec.model = Some("named-model".into());
            sup.submit(spec).unwrap();
            let report = sup.run_all();
            assert_eq!(report.done(), 1, "{report:?}");
            assert!(sup.compact_journal().unwrap() > 0);
        }
        // The compacted journal holds exactly the submitted+done pair,
        // so a restarted daemon still answers status queries for the
        // finished job with its full spec, not an empty placeholder.
        let scan = scan_journal(&cfg.journal_path).unwrap();
        assert_eq!(scan.records.len(), 2, "{:?}", scan.records);
        assert!(matches!(scan.records[0], JournalRecord::Submitted { id: 0, .. }));
        assert!(matches!(scan.records[1], JournalRecord::Done { id: 0, .. }));
        let sup = Supervisor::resume(cfg, test_loader(), reference_factory()).unwrap();
        assert!(matches!(sup.status(0), Some(JobStatus::Done { .. })));
        let spec = sup.job_spec(0).unwrap();
        assert_eq!(spec.model_name(), "named-model");
        assert_eq!(spec.tensor, "pl:12x10x8:300:1");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_truncates_torn_tail_so_the_journal_stays_scannable() {
        let dir = tmp_dir("torn-resume");
        let cfg = cfg_in(&dir);
        {
            let sup = Supervisor::new(cfg.clone(), test_loader(), reference_factory()).unwrap();
            sup.submit(JobSpec::new("pl:12x10x8:300:1", 3)).unwrap();
            sup.submit(JobSpec::new("pl:10x9x8:250:2", 2)).unwrap();
            // Crash without running.
        }
        // Tear the tail of job 1's submitted record.
        let journal = dir.join("batch.journal");
        let full = std::fs::read_to_string(&journal).unwrap();
        std::fs::write(&journal, &full[..full.len() - 9]).unwrap();
        assert!(scan_journal(&journal).unwrap().torn_tail);

        // Resume drops the torn record (job 1 was never durably
        // admitted), truncates it away, and finishes job 0. The
        // journal must stay cleanly scannable afterwards — without the
        // truncation the first appended record fuses with the torn
        // bytes and every later scan reports mid-file corruption.
        let sup = Supervisor::resume(cfg, test_loader(), reference_factory()).unwrap();
        assert_eq!(sup.status(0), Some(JobStatus::Queued));
        assert_eq!(sup.status(1), None, "torn submitted record is dropped");
        let report = sup.run_all();
        assert_eq!(report.done(), 1, "{report:?}");
        let scan = scan_journal(&journal).unwrap();
        assert!(!scan.torn_tail, "truncation removed the torn bytes");
        assert!(scan
            .records
            .iter()
            .any(|r| matches!(r, JournalRecord::Done { id: 0, .. })));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resumed_job_loader_failure_uses_the_retry_ladder() {
        let dir = tmp_dir("load-retry");
        let cfg = cfg_in(&dir);
        {
            let sup = Supervisor::new(cfg.clone(), test_loader(), reference_factory()).unwrap();
            sup.submit(JobSpec::new("pl:12x10x8:300:1", 3)).unwrap();
            // Crash without running: the resumed process must reload.
        }
        let calls = Arc::new(AtomicUsize::new(0));
        let c2 = calls.clone();
        let base = test_loader();
        let flaky: TensorLoader = Arc::new(move |spec| {
            if c2.fetch_add(1, Ordering::Relaxed) == 0 {
                Err(StefError::Tns(sptensor::TnsError::Io(std::io::Error::new(
                    std::io::ErrorKind::Interrupted,
                    "transient read failure",
                ))))
            } else {
                base(spec)
            }
        });
        let sup = Supervisor::resume(cfg, flaky, reference_factory()).unwrap();
        let report = sup.run_all();
        assert_eq!(report.done(), 1, "{report:?}");
        match sup.status(0) {
            Some(JobStatus::Done { attempts, .. }) => {
                assert_eq!(attempts, 2, "reload failure burns one retry, not the job")
            }
            other => panic!("expected Done, got {other:?}"),
        }
        let scan = scan_journal(&dir.join("batch.journal")).unwrap();
        assert!(
            scan.records
                .iter()
                .any(|r| matches!(r, JournalRecord::Retrying { .. })),
            "{:?}",
            scan.records
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn submit_while_draining_is_rejected() {
        let dir = tmp_dir("draining");
        let slot: Arc<std::sync::OnceLock<Arc<Supervisor>>> = Arc::new(std::sync::OnceLock::new());
        let observed: Arc<Mutex<Option<Result<usize, StefError>>>> = Arc::new(Mutex::new(None));
        let (s2, o2) = (slot.clone(), observed.clone());
        // The factory runs inside run_all's drain, so a submit issued
        // from it exercises the mid-drain path deterministically.
        let factory: EngineFactory = Arc::new(move |_spec, tensor, _token, _at| {
            if let Some(sup) = s2.get() {
                *o2.lock().unwrap() = Some(sup.submit(JobSpec::new("pl:8x8x8:100:1", 2)));
            }
            Ok(Box::new(ReferenceEngine::new(tensor.clone())) as Box<dyn MttkrpEngine>)
        });
        let sup = Arc::new(Supervisor::new(cfg_in(&dir), test_loader(), factory).unwrap());
        slot.set(sup.clone()).ok().unwrap();
        sup.submit(JobSpec::new("pl:12x10x8:300:1", 3)).unwrap();
        let report = sup.run_all();
        assert_eq!(report.done(), 1, "{report:?}");
        match observed.lock().unwrap().take() {
            Some(Err(StefError::Input(msg))) => assert!(msg.contains("draining"), "{msg}"),
            other => panic!("mid-drain submit must be refused, got {other:?}"),
        }
        // After run_all returns, submits work again.
        assert!(sup.submit(JobSpec::new("pl:10x9x8:250:2", 2)).is_ok());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn exit_error_counts_unfinished_queued_jobs() {
        let report = BatchReport {
            outcomes: vec![
                (
                    0,
                    JobStatus::Done {
                        attempts: 1,
                        iterations: 3,
                        final_fit: 0.9,
                    },
                ),
                (1, JobStatus::Queued),
            ],
        };
        assert!(
            matches!(report.exit_error(), Some(StefError::Cancelled { .. })),
            "a queued-but-never-run job is not a clean batch"
        );
    }

    #[test]
    fn fresh_supervisor_refuses_existing_journal() {
        let dir = tmp_dir("refuse");
        let cfg = cfg_in(&dir);
        drop(Supervisor::new(cfg.clone(), test_loader(), reference_factory()).unwrap());
        assert!(matches!(
            Supervisor::new(cfg, test_loader(), reference_factory()),
            Err(StefError::Input(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn batch_cancel_interrupts_queued_jobs() {
        let dir = tmp_dir("cancel");
        let mut cfg = cfg_in(&dir);
        let batch = CancelToken::new();
        cfg.cancel = Some(batch.clone());
        let sup = Supervisor::new(cfg, test_loader(), reference_factory()).unwrap();
        sup.submit(JobSpec::new("pl:12x10x8:300:1", 3)).unwrap();
        sup.submit(JobSpec::new("pl:10x9x8:250:2", 2)).unwrap();
        batch.cancel();
        let report = sup.run_all();
        assert_eq!(report.interrupted(), 2, "{report:?}");
        assert!(matches!(
            report.exit_error(),
            Some(StefError::Cancelled { .. })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn deadline_orders_the_queue() {
        let mut inner = Inner {
            jobs: Vec::new(),
            queue: Vec::new(),
            outstanding_mem: 0,
            outstanding_traffic: 0.0,
        };
        for deadline in [None, Some(Duration::from_secs(5)), Some(Duration::from_secs(1))] {
            let mut spec = JobSpec::new("x", 1);
            spec.deadline = deadline;
            inner.jobs.push(Job {
                spec,
                price: JobPrice {
                    mem_bytes: 0,
                    traffic: 0.0,
                },
                status: JobStatus::Queued,
                token: CancelToken::new(),
                tensor: None,
                retries_used: 0,
                result: None,
            });
            inner.queue.push(inner.jobs.len() - 1);
        }
        assert_eq!(claim_next(&mut inner), Some(2), "1s deadline first");
        assert_eq!(claim_next(&mut inner), Some(1), "5s next");
        assert_eq!(claim_next(&mut inner), Some(0), "no deadline last");
        assert_eq!(claim_next(&mut inner), None);
    }

    #[test]
    fn backoff_is_capped_and_deterministic() {
        let dir = tmp_dir("backoff");
        let mut cfg = cfg_in(&dir);
        cfg.backoff_base = Duration::from_millis(100);
        cfg.backoff_cap = Duration::from_millis(400);
        let d1 = backoff_delay(&cfg, 3, 1);
        let d2 = backoff_delay(&cfg, 3, 1);
        assert_eq!(d1, d2, "jitter is deterministic");
        assert!(d1 >= Duration::from_millis(100) && d1 < Duration::from_millis(200));
        // Attempt 10 hits the cap (+ jitter < base).
        let big = backoff_delay(&cfg, 3, 10);
        assert!(big >= Duration::from_millis(400) && big < Duration::from_millis(500));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn metrics_sink_gets_one_record_per_job() {
        let dir = tmp_dir("metrics");
        let mut cfg = cfg_in(&dir);
        let metrics = dir.join("metrics.jsonl");
        cfg.metrics_path = Some(metrics.clone());
        let sup = Supervisor::new(cfg, test_loader(), reference_factory()).unwrap();
        sup.submit(JobSpec::new("pl:12x10x8:300:1", 3)).unwrap();
        sup.run_all();
        let text = std::fs::read_to_string(&metrics).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        // Exactly one batch_job summary record per job, preceded by the
        // job's per-iteration records, each tagged with job id and
        // attempt number.
        let summaries: Vec<&&str> = lines
            .iter()
            .filter(|l| l.contains("\"kind\":\"batch_job\""))
            .collect();
        assert_eq!(summaries.len(), 1, "{text}");
        assert!(summaries[0].contains("\"outcome\":\"done\""));
        assert!(summaries[0].contains("\"schema\":1"));
        assert_eq!(*summaries[0], *lines.last().unwrap(), "summary must come last");
        let iterations: Vec<&&str> = lines
            .iter()
            .filter(|l| l.contains("\"iteration\":"))
            .collect();
        assert!(!iterations.is_empty(), "{text}");
        for line in iterations {
            assert!(line.contains("\"job\":0,\"attempt\":1,"), "{line}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
