//! # stef-core — Sparsity-Aware Tensor Factorization
//!
//! A from-scratch Rust implementation of **STeF** from *"Sparsity-Aware
//! Tensor Decomposition"* (Kurt, Raje, Sukumaran-Rajam, Sadayappan —
//! IPDPS 2022): memoized sparse MTTKRP for CP decomposition with
//!
//! * a **data-movement model** ([`model`]) that picks which partially
//!   contracted tensors `P^(i)` to memoize and whether to swap the CSF's
//!   last two modes, by exhaustively scoring every configuration;
//! * **nnz-balanced parallel scheduling** ([`schedule`]) where every
//!   thread processes the same number of non-zeros and write conflicts
//!   are confined to replicated boundary rows and a handful of atomic
//!   updates;
//! * **memoized MTTKRP kernels** ([`kernels`]) covering the saved /
//!   recompute-from-saved / from-scratch paths of the paper's Fig. 1;
//! * a **CPD-ALS driver** ([`cpd`]) generic over [`engine::MttkrpEngine`]
//!   so baselines (SPLATT, AdaTM-like, ALTO-like, TACO-like — in the
//!   `stef-baselines` crate) run under identical conditions;
//! * **STeF2** ([`stef2`]), the two-CSF variant that replaces the slow
//!   leaf-mode kernel with a root-mode pass on a second representation.
//!
//! ## Quick start
//!
//! ```
//! use stef_core::{cpd_als, CpdOptions, Stef, StefOptions};
//! use sptensor::CooTensor;
//!
//! // A tiny 3-way tensor.
//! let mut t = CooTensor::new(vec![4, 5, 6]);
//! t.push(&[0, 1, 2], 1.0);
//! t.push(&[3, 4, 5], 2.0);
//! t.push(&[0, 4, 2], 3.0);
//!
//! let mut engine = Stef::try_prepare(&t, StefOptions::new(2)).unwrap();
//! let result = cpd_als(&mut engine, &CpdOptions::new(2)).unwrap();
//! assert_eq!(result.factors.len(), 3);
//! assert!(result.final_fit() <= 1.0);
//! ```

#![allow(clippy::needless_range_loop)] // index loops over parallel arrays are the clearest form in these kernels

pub mod alto;
pub mod checkpoint;
pub mod counters;
pub mod cpd;
pub mod engine;
pub mod error;
pub mod fault;
pub mod flight;
pub mod kernels;
pub mod kernels_alto;
pub mod metrics;
pub mod model;
pub mod nonneg;
pub mod numa;
pub mod options;
pub mod paper_kernels;
pub mod partials;
pub mod recover;
pub mod runtime;
pub mod schedule;
pub mod serve;
pub mod snapshot;
pub mod stef2;
pub mod supervisor;
pub mod sync;
pub mod telemetry;
pub mod validate;
pub mod workspace;

pub use alto::AltoEngine;
pub use checkpoint::{Checkpoint, CheckpointError, CheckpointHook, CheckpointPolicy};
pub use counters::{count_sweep, CountedTraffic};
pub use cpd::{cpd_als, init_factors, CpdOptions, CpdResult};
pub use engine::{build_engine, MttkrpEngine, ReferenceEngine, Stef};
pub use numa::{NumaPolicy, NumaTopology};
pub use error::StefError;
pub use fault::{parse_fault_directives, Fault, FaultyEngine};
pub use recover::{RecoveryAction, RecoveryEvent, RecoveryEvents};
pub use model::{stef2_leaf_gain, BudgetFit, DegradationEvent, LevelProfile, MemoPlan, RawTraffic};
pub use nonneg::{cpd_mu_nonneg, NonnegCpdResult};
pub use options::{
    AccumStrategy, EngineChoice, LoadBalance, MemoPolicy, ModeSwitchPolicy, SimdPath, SimdPolicy,
    StefOptions,
};
pub use partials::PartialStore;
pub use runtime::{
    CancelToken, Executor, FanoutError, RuntimeCounters, WorkerCounters, WorkerPlacement,
    WorkerPool,
};
pub use schedule::Schedule;
pub use serve::{outcome_hook, ServeConfig, Server};
pub use snapshot::{FactorSnapshot, SnapshotStore};
pub use stef2::Stef2;
pub use supervisor::{
    compact_journal_file, is_retryable, parse_job_line, price_job, scan_journal, BatchReport,
    EngineFactory, JobAttempt, JobHook, JobOutcome, JobPrice, JobSpec, JobStatus, JournalRecord,
    JournalScan, Supervisor, SupervisorConfig, TensorLoader,
};
pub use flight::FlightEvent;
pub use metrics::{parse_prometheus_text, quantile_from_buckets, PromSample};
pub use telemetry::{
    IterationRecord, LogLevel, ModeAudit, ModeSample, ModeStats, TelemetryReport, TraceSpan,
};
pub use validate::{validate_engine, ValidationReport};
pub use workspace::Workspace;
