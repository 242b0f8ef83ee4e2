//! # stef-baselines — the comparison systems of the STeF paper
//!
//! Re-implementations of every baseline the paper evaluates against
//! (§VI-B), each behind the same [`stef::MttkrpEngine`] trait as STeF so
//! the CPD driver and the benchmark harness treat all algorithms
//! identically:
//!
//! * [`splatt::Splatt`] — SPLATT with one, two, or `d` CSF copies
//!   (`splatt-1`, `splatt-2`, `splatt-all`), slice-based parallelism, no
//!   memoization;
//! * [`adatm::AdaTm`] — AdaTM-style memoization: op-count-driven save
//!   decisions (Θ(√d) partials kept), slice-based parallelism, no mode
//!   switching;
//! * [`alto::Alto`] — ALTO-style linearized storage: bit-interleaved
//!   64-bit indices, nnz-partitioned parallelism, every mode recomputed
//!   from scratch;
//! * [`tacolike::TacoLike`] — a TACO-flavoured per-mode-CSF engine that
//!   auto-tunes its parallel chunk granularity on first use, paying a
//!   small preprocessing cost for better steady-state scheduling.
//!
//! These are *strategy* reproductions, not line-by-line ports: each
//! baseline keeps its defining storage format, parallelization
//! granularity and memoization policy, while sharing the surrounding
//! machinery (dense solves, CPD loop, tensor substrate) with STeF. That
//! isolates exactly the variables the paper's comparison is about.

#![allow(clippy::needless_range_loop)] // index loops over parallel arrays are the clearest form in these kernels

pub mod adatm;
pub mod alto;
pub mod hicoo;
pub mod splatt;
pub mod tacolike;

pub use adatm::AdaTm;
pub use alto::Alto;
pub use hicoo::HiCoo;
pub use splatt::{Splatt, SplattVariant};
pub use tacolike::TacoLike;

use stef::MttkrpEngine;

/// Instantiates every engine the paper's Figures 3/4 compare, in the
/// order they appear in the plots. `nthreads = 0` means
/// `stef::runtime::default_threads()`.
pub fn all_engines(
    coo: &sptensor::CooTensor,
    rank: usize,
    nthreads: usize,
) -> Vec<Box<dyn MttkrpEngine>> {
    all_engines_with(coo, rank, nthreads, stef::AccumStrategy::Auto, None)
}

/// [`all_engines`] with an explicit accumulation strategy for the STeF
/// engines (the baselines resolve conflicts their own way and ignore it)
/// and the run's cancel token. The baselines share one pool of
/// `runtime::resolve_workers(nthreads)` workers, which carries the
/// token once they are prepared; the STeF engines own theirs.
pub fn all_engines_with(
    coo: &sptensor::CooTensor,
    rank: usize,
    nthreads: usize,
    accum: stef::AccumStrategy,
    cancel: Option<stef::CancelToken>,
) -> Vec<Box<dyn MttkrpEngine>> {
    let exec = &stef::Executor::new(stef::runtime::resolve_workers(nthreads));
    let mut opts = stef::StefOptions::new(rank);
    opts.num_threads = nthreads;
    opts.accum = accum;
    opts.cancel = cancel.clone();
    let engines: Vec<Box<dyn MttkrpEngine>> = vec![
        Box::new(Splatt::prepare(coo, SplattVariant::One, rank, nthreads, exec)),
        Box::new(Splatt::prepare(coo, SplattVariant::Two, rank, nthreads, exec)),
        Box::new(Splatt::prepare(coo, SplattVariant::All, rank, nthreads, exec)),
        Box::new(AdaTm::prepare(coo, rank, nthreads, exec)),
        Box::new(Alto::prepare(coo, rank, nthreads, exec)),
        Box::new(TacoLike::prepare(coo, rank, nthreads, exec)),
        Box::new(stef::Stef::prepare(coo, opts.clone())),
        Box::new(stef::Stef2::prepare(coo, opts)),
    ];
    if let Some(token) = cancel {
        exec.set_cancel(token);
    }
    engines
}
