//! CPD-ALS driver (paper Algorithm 2), with fault tolerance.
//!
//! One ALS iteration updates every factor in the engine's sweep order:
//! `Ā⁽ᵘ⁾ ← MTTKRP(T, factors ≠ u)`, then `A⁽ᵘ⁾ ← Ā⁽ᵘ⁾ V⁻¹` where `V` is
//! the Hadamard product of the other factors' Gram matrices, then column
//! normalization into `λ`. That dense update runs as two passes over the
//! factor ([`linalg::update`]) on the engine's executor
//! ([`MttkrpEngine::executor`]), so it honours the engine's width,
//! cancel token and pool counters. The fit
//! `1 − ‖T − [[λ; A⁰…]]‖ / ‖T‖` is computed with the standard trick that
//! reuses the last mode's MTTKRP result, so convergence checking costs
//! one Frobenius inner product instead of a pass over the tensor.
//!
//! The driver never panics on numerical failure. Non-finite MTTKRP
//! output, a singular Gram system, or a diverging fit walk the recovery
//! escalation ladder described in [`crate::recover`]; if the ladder is
//! exhausted the run ends with a typed [`StefError`]. With a
//! [`CheckpointPolicy`] the complete ALS state is snapshotted every `N`
//! iterations, and a run can restart from such a snapshot via
//! [`CpdOptions::resume`] — the checkpoint stores exact float bit
//! patterns, so the resumed trajectory is identical to an uninterrupted
//! one.

use crate::checkpoint::{Checkpoint, CheckpointError, CheckpointPolicy, CHECKPOINT_VERSION};
use crate::engine::MttkrpEngine;
use crate::error::StefError;
use crate::flight::{self, FlightEvent};
use crate::metrics::{self, Histogram};
use crate::model::DegradationEvent;
use crate::recover::{
    mat_is_finite, slice_is_finite, RecoveryAction, RecoveryEvents, DIVERGENCE_WINDOW,
    MAX_FACTOR_REINITS, MAX_RIDGE_RETRIES,
};
use crate::runtime::CancelToken;
use crate::telemetry::{Collector, TelemetryReport};
use linalg::norms::ColumnNorm;
use linalg::ops::{frob_inner, gram_on, hadamard_inplace};
use linalg::par::Cancelled;
use linalg::solve::SolveMethod;
use linalg::update::{update_mode, UpdateError};
use linalg::Mat;
use std::time::{Duration, Instant};

/// CPD-ALS configuration.
#[derive(Clone, Debug)]
pub struct CpdOptions {
    /// Decomposition rank `R`.
    pub rank: usize,
    /// Maximum ALS iterations.
    pub max_iters: usize,
    /// Convergence tolerance on the change in fit.
    pub tol: f64,
    /// Seed for the random factor initialization.
    pub seed: u64,
    /// Periodic state snapshots (`None` = no checkpointing).
    pub checkpoint: Option<CheckpointPolicy>,
    /// Resume from a previously saved snapshot instead of a fresh
    /// initialization. The checkpoint's dims and rank must match.
    pub resume: Option<Checkpoint>,
    /// Cooperative cancellation: the driver checks the token at
    /// iteration start and after every mode update, aborts with
    /// [`StefError::Cancelled`], and — when a [`CheckpointPolicy`] is
    /// also configured — first writes a checkpoint of the last
    /// *completed* iteration, so the interrupted run resumes bit-exactly.
    pub cancel: Option<CancelToken>,
}

impl CpdOptions {
    /// Sensible defaults: 50 iterations, `1e-5` fit tolerance, no
    /// checkpointing.
    pub fn new(rank: usize) -> Self {
        CpdOptions {
            rank,
            max_iters: 50,
            tol: 1e-5,
            seed: 42,
            checkpoint: None,
            resume: None,
            cancel: None,
        }
    }
}

/// The outcome of a CPD-ALS run.
#[derive(Debug)]
pub struct CpdResult {
    /// Factor matrices in original mode order, columns normalized.
    pub factors: Vec<Mat>,
    /// Component weights `λ`.
    pub lambda: Vec<f64>,
    /// Fit after each completed iteration.
    pub fits: Vec<f64>,
    /// Number of iterations executed (includes iterations replayed from
    /// a resumed checkpoint).
    pub iterations: usize,
    /// Whether the tolerance was met before `max_iters`.
    pub converged: bool,
    /// Wall time of the whole ALS loop.
    pub total_time: Duration,
    /// Count of solves that needed a ridge or LU fallback.
    pub irregular_solves: usize,
    /// Every recovery the driver performed, counted per rung.
    pub recovery: RecoveryEvents,
    /// Checkpoints written during this run.
    pub checkpoints_written: usize,
    /// The iteration a resumed run restarted from, if any.
    pub resumed_from: Option<usize>,
    /// Plan relaxations the engine applied to fit its memory budget
    /// (empty when unconstrained). Degraded runs compute the same
    /// numbers — these events explain the performance, not the result.
    pub degradations: Vec<DegradationEvent>,
    /// Telemetry snapshot: one record per completed iteration (per-mode
    /// wall time, measured vs model-predicted traffic, alloc events)
    /// plus any worker spans captured while tracing was enabled.
    pub telemetry: TelemetryReport,
}

impl CpdResult {
    /// Final fit (0 if no iteration ran).
    pub fn final_fit(&self) -> f64 {
        self.fits.last().copied().unwrap_or(0.0)
    }

    /// Wall time spent inside MTTKRP calls, recovery retries included:
    /// the sum of the telemetry's per-mode samples.
    pub fn mttkrp_time(&self) -> Duration {
        let samples = self.telemetry.records.iter().flat_map(|r| &r.modes);
        Duration::from_secs_f64(samples.map(|s| s.seconds).sum())
    }
}

/// Deterministic factor initialization: uniform values in `[0.1, 1.1)`
/// from a splitmix-style generator (positive, well-conditioned, and
/// independent of any external RNG crate).
pub fn init_factors(dims: &[usize], rank: usize, seed: u64) -> Vec<Mat> {
    let mut state = seed
        .wrapping_mul(0x9E3779B97F4A7C15)
        .wrapping_add(0xD1B54A32D192ED03);
    let mut next = move || {
        state = state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z = z ^ (z >> 31);
        (z >> 11) as f64 / (1u64 << 53) as f64
    };
    dims.iter()
        .map(|&n| Mat::from_fn(n, rank, |_, _| 0.1 + next()))
        .collect()
}

/// Runs one MTTKRP with panic isolation: a panic that escapes the
/// engine (e.g. a worker panic surfaced by a pool fan-out) becomes a
/// typed [`StefError::WorkerPanic`] instead of unwinding through the
/// driver. The pool has already healed itself by the time the panic
/// reaches this frame, so the same engine can run again.
fn guarded_mttkrp<E: MttkrpEngine + ?Sized>(
    engine: &mut E,
    factors: &[Mat],
    mode: usize,
    iteration: usize,
) -> Result<Mat, StefError> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| engine.mttkrp(factors, mode)))
        .map_err(|p| StefError::WorkerPanic {
            iteration,
            mode: Some(mode),
            message: crate::runtime::payload_message(p.as_ref()),
        })
}

/// Why a run stopped early: an observed cancellation (turned into
/// [`StefError::Cancelled`] by [`Als::cancelled`]) or a typed error.
enum Halt {
    Cancelled,
    Failed(StefError),
}

impl From<Cancelled> for Halt {
    fn from(_: Cancelled) -> Self {
        Halt::Cancelled
    }
}

impl From<StefError> for Halt {
    fn from(e: StefError) -> Self {
        Halt::Failed(e)
    }
}

/// The state of one CPD-ALS run.
struct Als<'a, E: ?Sized> {
    engine: &'a mut E,
    opts: &'a CpdOptions,
    norm_t_sq: f64,
    factors: Vec<Mat>,
    grams: Vec<Mat>,
    lambda: Vec<f64>,
    fits: Vec<f64>,
    /// Completed iterations, those of a resumed checkpoint included.
    done: usize,
    recovery: RecoveryEvents,
    reinits_used: usize,
    irregular_solves: usize,
    checkpoints_written: usize,
    /// The state after the last completed iteration, kept only when a
    /// token and a checkpoint policy are both configured (the clone is
    /// not free), so a cancel mid-sweep still leaves a resumable,
    /// bit-exact snapshot behind.
    last_good: Option<Checkpoint>,
    telem: Collector,
    /// Per-mode MTTKRP latency histograms, resolved before the ALS loop
    /// (registration takes a lock and may allocate; `observe` is a few
    /// relaxed fetch_adds, preserving the steady-state zero-alloc
    /// invariant).
    mode_hists: Vec<&'static Histogram>,
}

/// Runs CPD-ALS on `engine`.
///
/// Numerical failures walk the recovery ladder of [`crate::recover`] or
/// are reported as a typed [`StefError`]; this function does not panic
/// on bad numerics, singular systems, or corrupt checkpoints.
pub fn cpd_als<E: MttkrpEngine + ?Sized>(
    engine: &mut E,
    opts: &CpdOptions,
) -> Result<CpdResult, StefError> {
    let dims = engine.dims().to_vec();
    let d = dims.len();
    let r = opts.rank;
    if r == 0 {
        return Err(StefError::Input("rank must be at least 1".into()));
    }
    let sweep = engine.sweep_order();
    if sweep.len() != d {
        return Err(StefError::Input(format!(
            "sweep order covers {} modes, tensor has {d}",
            sweep.len()
        )));
    }
    let norm_t_sq = engine.norm_sq();
    if !norm_t_sq.is_finite() || norm_t_sq <= 0.0 {
        return Err(StefError::Input(format!(
            "tensor squared norm must be positive and finite, got {norm_t_sq}"
        )));
    }

    let (factors, lambda, fits, done) = match &opts.resume {
        Some(cp) => {
            if cp.dims != dims {
                return Err(CheckpointError::Mismatch {
                    reason: format!("checkpoint dims {:?}, tensor dims {:?}", cp.dims, dims),
                }
                .into());
            }
            if cp.rank != r {
                return Err(CheckpointError::Mismatch {
                    reason: format!("checkpoint rank {}, requested rank {r}", cp.rank),
                }
                .into());
            }
            if !cp.factors.iter().all(mat_is_finite) || !slice_is_finite(&cp.lambda) {
                return Err(CheckpointError::Corrupt {
                    reason: "non-finite values in checkpoint state".into(),
                }
                .into());
            }
            (
                cp.factors.clone(),
                cp.lambda.clone(),
                cp.fits.clone(),
                cp.iteration,
            )
        }
        None => (
            init_factors(&dims, r, opts.seed),
            vec![1.0; r],
            Vec::new(),
            0,
        ),
    };
    let mode_hists = (0..d)
        .map(|m| {
            metrics::histogram(
                "stef_mttkrp_seconds",
                "Wall time of one MTTKRP pass, by target mode",
                &[("mode", metrics::mode_label(m))],
                metrics::TIME_BUCKETS,
            )
        })
        .collect();
    let mut als = Als {
        engine,
        opts,
        norm_t_sq,
        factors,
        grams: Vec::with_capacity(d),
        lambda,
        fits,
        done,
        recovery: RecoveryEvents::default(),
        reinits_used: 0,
        irregular_solves: 0,
        checkpoints_written: 0,
        last_good: None,
        telem: Collector::new(),
        mode_hists,
    };
    let start = Instant::now();
    let converged = match als.run(&sweep) {
        Ok(converged) => converged,
        Err(Halt::Failed(e)) => return Err(e),
        Err(Halt::Cancelled) => return Err(als.cancelled()),
    };
    let total_time = start.elapsed();
    let mut telemetry = als.telem.finish();
    telemetry.engine = als.engine.name();
    telemetry.numa_nodes = als.engine.numa_nodes().max(1);
    Ok(CpdResult {
        factors: als.factors,
        lambda: als.lambda,
        fits: als.fits,
        iterations: als.done,
        converged,
        total_time,
        irregular_solves: als.irregular_solves,
        recovery: als.recovery,
        checkpoints_written: als.checkpoints_written,
        resumed_from: opts.resume.as_ref().map(|cp| cp.iteration),
        degradations: als.engine.degradations(),
        telemetry,
    })
}

impl<E: MttkrpEngine + ?Sized> Als<'_, E> {
    /// The ALS loop; returns whether the fit converged within `tol`.
    fn run(&mut self, sweep: &[usize]) -> Result<bool, Halt> {
        for f in &self.factors {
            self.grams.push(gram_on(self.engine.executor(), f)?);
        }
        let mut consecutive_drops = 0usize;
        let mut divergence_fallback_spent = false;
        while self.done < self.opts.max_iters {
            let iteration = self.done + 1;
            self.check_cancel()?;
            let mut last_mttkrp = None;
            for &mode in sweep {
                last_mttkrp = Some((mode, self.update(mode)?));
                // Chunk-granularity cancellation inside the kernels only
                // stops the fan-outs; the sweep observes it here, after
                // every mode update, so a mid-sweep cancel is bounded by
                // one MTTKRP rather than one iteration.
                self.check_cancel()?;
            }
            let (last_mode, ahat) = last_mttkrp.expect("at least one mode");
            let fit = self.fit(last_mode, &ahat);
            if !fit.is_finite() {
                return Err(StefError::NonFinite {
                    iteration,
                    mode: None,
                    what: "fit",
                }
                .into());
            }

            // Divergence watch: exact ALS never decreases the fit, so a
            // sustained drop is always a numerical symptom. The engine
            // fallback answers it once; the next alarm is an error.
            let prev = self.fits.last().copied();
            if let Some(p) = prev {
                consecutive_drops = if fit < p - 1e-9 {
                    consecutive_drops + 1
                } else {
                    0
                };
                if consecutive_drops >= DIVERGENCE_WINDOW {
                    self.recovery.record(
                        iteration,
                        None,
                        RecoveryAction::DivergenceAlarm,
                        format!("fit fell {consecutive_drops} consecutive iterations"),
                    );
                    if std::mem::replace(&mut divergence_fallback_spent, true)
                        || !self.fall_back(None, "divergence; disabled memoization")
                    {
                        return Err(StefError::Diverged {
                            iteration,
                            drops: consecutive_drops,
                            last_fit: fit,
                        }
                        .into());
                    }
                    consecutive_drops = 0;
                }
            }
            self.fits.push(fit);
            self.telem
                .end_iteration(iteration, fit, self.engine.telemetry_alloc_events());
            flight::record(FlightEvent::IterDone, iteration as u64, fit.to_bits());
            self.done = iteration;
            self.save_state()?;
            if prev.is_some_and(|p| (fit - p).abs() < self.opts.tol) {
                return Ok(true);
            }
        }
        Ok(false)
    }

    /// One mode's update: MTTKRP, the Hadamard of the other Grams, the
    /// solve normalized into `λ`, and the new Gram, each step walking
    /// its rung of the recovery ladder when it fails. Returns the
    /// MTTKRP output (the fit reuses the last mode's).
    fn update(&mut self, mode: usize) -> Result<Mat, Halt> {
        let iteration = self.done + 1;
        let mut ahat = self.timed_mttkrp(mode)?;
        if !mat_is_finite(&ahat) {
            // Rung 3: the input factors are finite (a solved factor is
            // finite and then divided by column norms at least as large
            // as its entries; a re-init or a resumed checkpoint is
            // finite), so a non-finite MTTKRP points at corrupt
            // memoized state.
            let retried = self.fall_back(
                Some(mode),
                "non-finite MTTKRP output; disabled memoization and recomputed",
            );
            if retried {
                ahat = self.timed_mttkrp(mode)?;
            }
            if !retried || !mat_is_finite(&ahat) {
                return Err(StefError::NonFinite {
                    iteration,
                    mode: Some(mode),
                    what: "MTTKRP output",
                }
                .into());
            }
        }

        let mut v = self.hadamard(Some(mode));
        if !mat_is_finite(&v) {
            // Rung 2: a finite factor whose Gram overflows (only a
            // resumed checkpoint can hold one) is re-initialized.
            let poisoned: Vec<usize> = (0..self.grams.len())
                .filter(|&m| m != mode && !mat_is_finite(&self.grams[m]))
                .collect();
            if !poisoned.is_empty() && self.reinits_used + poisoned.len() <= MAX_FACTOR_REINITS {
                for &m in &poisoned {
                    self.reinit(m)?;
                }
                // Saved partials derived from the discarded factors are
                // stale; drop memoization.
                self.fall_back(Some(mode), "memoized partials stale after factor re-init");
                v = self.hadamard(Some(mode));
            }
            if !mat_is_finite(&v) {
                return Err(StefError::NonFinite {
                    iteration,
                    mode: Some(mode),
                    what: "Gram system",
                }
                .into());
            }
        }

        // Solve straight into the factor's buffer, normalize into λ and
        // form the new Gram: two passes on the engine's pool. A pass cut
        // short by the pool's cancel token leaves a partial factor,
        // which only the error path ever sees.
        // Rung 1: on a failed solve, retry with escalating extra ridge
        // scaled to the system's diagonal magnitude.
        let norm = if self.done == 0 {
            ColumnNorm::Two
        } else {
            ColumnNorm::MaxClamped
        };
        let r = v.rows();
        let diag_mean = (0..r).map(|i| v[(i, i)].abs()).sum::<f64>() / r as f64;
        let scale = if diag_mean > 0.0 { diag_mean } else { 1.0 };
        let mut retry = 0;
        let mut ridge = 0.0;
        loop {
            match update_mode(
                self.engine.executor(),
                &v,
                &ahat,
                ridge,
                norm,
                &mut self.factors[mode],
                &mut self.lambda,
            ) {
                Ok(u) => {
                    if retry > 0 || u.method != SolveMethod::Cholesky {
                        self.irregular_solves += 1;
                    }
                    self.grams[mode] = u.gram;
                    return Ok(ahat);
                }
                Err(UpdateError::Cancelled) => return Err(Halt::Cancelled),
                Err(UpdateError::Solve(source)) if retry == MAX_RIDGE_RETRIES => {
                    return Err(StefError::Solve {
                        iteration,
                        mode,
                        source,
                    }
                    .into())
                }
                Err(UpdateError::Solve(e)) => {
                    retry += 1;
                    ridge = scale * 1e-8 * 100f64.powi(retry as i32);
                    self.recovery.record(
                        iteration,
                        Some(mode),
                        RecoveryAction::RidgeRetry,
                        format!("solve failed ({e}); retrying with ridge {ridge:.3e}"),
                    );
                }
            }
        }
    }

    /// Runs one MTTKRP and records it in the telemetry, the mode's
    /// `stef_mttkrp_seconds` histogram and the flight ring. Every MTTKRP
    /// of the run, recovery retries included, goes through here.
    fn timed_mttkrp(&mut self, mode: usize) -> Result<Mat, StefError> {
        let t0 = Instant::now();
        let ahat = guarded_mttkrp(&mut *self.engine, &self.factors, mode, self.done + 1)?;
        let dt = t0.elapsed();
        self.mode_hists[mode].observe(dt.as_secs_f64());
        flight::record(FlightEvent::ModeSweep, mode as u64, dt.as_nanos() as u64);
        self.telem.record_mode(
            mode,
            dt.as_secs_f64(),
            self.engine.last_mode_stats(mode),
            self.engine.predicted_mode_traffic(mode),
        );
        Ok(ahat)
    }

    /// The engine-fallback rung: drops the engine's memoization and
    /// records it. Returns whether the engine changed (so a retry is
    /// worthwhile).
    fn fall_back(&mut self, mode: Option<usize>, detail: &str) -> bool {
        let degraded = self.engine.degrade_to_unmemoized();
        if degraded {
            let action = RecoveryAction::EngineFallback;
            self.recovery.record(self.done + 1, mode, action, detail);
        }
        degraded
    }

    /// The factor re-init rung: replaces factor `m` with a fresh
    /// deterministic initialization (a seed derived from the run seed
    /// and the re-init count, so repeated re-inits differ) and resets
    /// `λ`. The fresh factor's Gram is formed on the engine's pool; a
    /// cancelled pass changes nothing.
    fn reinit(&mut self, m: usize) -> Result<(), Cancelled> {
        self.reinits_used += 1;
        let seed = self.opts.seed ^ 0xA24BAED4963EE407u64.wrapping_mul(self.reinits_used as u64);
        let fresh = init_factors(&[self.factors[m].rows()], self.opts.rank, seed)
            .pop()
            .expect("one factor requested");
        self.grams[m] = gram_on(self.engine.executor(), &fresh)?;
        self.factors[m] = fresh;
        // The old λ carried scale from the discarded factor; reset and
        // let the next mode updates renormalize.
        self.lambda.fill(1.0);
        let action = RecoveryAction::FactorReinit;
        self.recovery
            .record(self.done + 1, Some(m), action, "non-finite Gram matrix");
        Ok(())
    }

    /// The Hadamard product of every Gram except `skip`'s: `V` of mode
    /// `skip`, or with `None` the product behind the model's norm.
    fn hadamard(&self, skip: Option<usize>) -> Mat {
        let r = self.opts.rank;
        let mut v = Mat::from_fn(r, r, |_, _| 1.0);
        for (m, g) in self.grams.iter().enumerate() {
            if Some(m) != skip {
                hadamard_inplace(&mut v, g);
            }
        }
        v
    }

    /// `1 − ‖T − [[λ; A…]]‖ / ‖T‖`, with `⟨T, model⟩` taken from the
    /// last mode's MTTKRP output `ahat`.
    fn fit(&self, last_mode: usize, ahat: &Mat) -> f64 {
        let r = self.opts.rank;
        // Σ_r λ_r Σ_i Ā[i,r]·A[i,r]
        let mut per_col = vec![0.0; r];
        let a = &self.factors[last_mode];
        for i in 0..a.rows() {
            let (arow, hrow) = (a.row(i), ahat.row(i));
            for ((p, &x), &y) in per_col.iter_mut().zip(arow).zip(hrow) {
                *p += x * y;
            }
        }
        let inner: f64 = per_col.iter().zip(&self.lambda).map(|(&p, &l)| p * l).sum();
        let ll = Mat::from_fn(r, r, |i, j| self.lambda[i] * self.lambda[j]);
        let norm_model_sq = frob_inner(&self.hadamard(None), &ll);
        let resid_sq = (self.norm_t_sq + norm_model_sq - 2.0 * inner).max(0.0);
        1.0 - resid_sq.sqrt() / self.norm_t_sq.sqrt()
    }

    fn check_cancel(&self) -> Result<(), Halt> {
        match &self.opts.cancel {
            Some(token) if token.expired() => Err(Halt::Cancelled),
            _ => Ok(()),
        }
    }

    /// After a completed iteration: writes the periodic checkpoint when
    /// one is due and keeps the snapshot a cancellation would write.
    fn save_state(&mut self) -> Result<(), StefError> {
        let opts = self.opts;
        let due = opts
            .checkpoint
            .as_ref()
            .filter(|p| p.every > 0 && self.done.is_multiple_of(p.every));
        let keep = opts.cancel.is_some() && opts.checkpoint.is_some();
        if due.is_none() && !keep {
            return Ok(());
        }
        let cp = Checkpoint {
            version: CHECKPOINT_VERSION,
            iteration: self.done,
            seed: opts.seed,
            rank: opts.rank,
            dims: self.engine.dims().to_vec(),
            engine: self.engine.name(),
            lambda: self.lambda.clone(),
            fits: self.fits.clone(),
            factors: self.factors.clone(),
        };
        if let Some(policy) = due {
            policy.save(&cp)?;
            self.checkpoints_written += 1;
        }
        if keep {
            self.last_good = Some(cp);
        }
        Ok(())
    }

    /// The [`StefError::Cancelled`] for an observed cancellation, first
    /// writing the last completed iteration's state as a checkpoint
    /// when both a policy and a snapshot exist. A cancellation seen only
    /// by the engine's executor has no run token, so no deadline.
    fn cancelled(&self) -> StefError {
        let checkpoint_iteration = match (&self.opts.checkpoint, &self.last_good) {
            (Some(policy), Some(cp)) => policy.save(cp).ok().map(|_| cp.iteration),
            _ => None,
        };
        StefError::Cancelled {
            iteration: self.done + 1,
            deadline: self
                .opts
                .cancel
                .as_ref()
                .is_some_and(CancelToken::deadline_expired),
            checkpoint_iteration,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::CheckpointHook;
    use crate::engine::{ReferenceEngine, Stef};
    use crate::fault::{Fault, FaultyEngine};
    use crate::options::StefOptions;
    use sptensor::CooTensor;
    use std::sync::Arc;

    fn pseudo_tensor(dims: &[usize], nnz: usize, seed: u64) -> CooTensor {
        let mut t = CooTensor::new(dims.to_vec());
        let mut x = seed | 1;
        let mut coord = vec![0u32; dims.len()];
        for _ in 0..nnz {
            for (c, &d) in coord.iter_mut().zip(dims) {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                *c = ((x >> 33) % d as u64) as u32;
            }
            t.push(&coord, ((x >> 40) % 9) as f64 * 0.3 + 0.4);
        }
        t.sort_dedup();
        t
    }

    #[test]
    fn init_factors_is_deterministic_and_positive() {
        let a = init_factors(&[5, 6], 3, 7);
        let b = init_factors(&[5, 6], 3, 7);
        assert_eq!(a[0].as_slice(), b[0].as_slice());
        assert!(a[1].as_slice().iter().all(|&v| (0.1..1.1).contains(&v)));
        let c = init_factors(&[5, 6], 3, 8);
        assert_ne!(a[0].as_slice(), c[0].as_slice());
    }

    #[test]
    fn fit_improves_monotonically_on_reference_engine() {
        let t = pseudo_tensor(&[10, 12, 8], 200, 1);
        let mut engine = ReferenceEngine::new(t);
        let result = cpd_als(&mut engine, &CpdOptions::new(4)).expect("healthy run");
        assert!(result.iterations >= 2);
        // ALS fit is non-decreasing up to numerical noise.
        for w in result.fits.windows(2) {
            assert!(w[1] >= w[0] - 1e-8, "fit decreased: {:?}", result.fits);
        }
        assert!(result.final_fit() > 0.0, "fits {:?}", result.fits);
        assert_eq!(result.recovery.total(), 0);
        assert_eq!(result.checkpoints_written, 0);
        assert_eq!(result.resumed_from, None);
    }

    #[test]
    fn stef_and_reference_agree_exactly() {
        // Same init seed, same sweep order -> identical iterates (up to
        // fp tolerance), a strong end-to-end correctness check.
        let t = pseudo_tensor(&[10, 12, 8], 300, 2);
        let mut stef = Stef::prepare(&t, StefOptions::new(4));
        let sweep = stef.sweep_order();
        let mut reference = SweepOrderedReference {
            inner: ReferenceEngine::new(t),
            sweep,
        };
        let opts = CpdOptions {
            rank: 4,
            max_iters: 5,
            tol: 0.0,
            seed: 11,
            ..CpdOptions::new(4)
        };
        let rs = cpd_als(&mut stef, &opts).expect("stef run");
        let rr = cpd_als(&mut reference, &opts).expect("reference run");
        assert_eq!(rs.fits.len(), rr.fits.len());
        for (a, b) in rs.fits.iter().zip(&rr.fits) {
            assert!((a - b).abs() < 1e-8, "fits diverged: {a} vs {b}");
        }
    }

    /// Reference engine forced to use a specific sweep order (so it can
    /// be compared iterate-by-iterate against STeF).
    struct SweepOrderedReference {
        inner: ReferenceEngine,
        sweep: Vec<usize>,
    }

    impl MttkrpEngine for SweepOrderedReference {
        fn dims(&self) -> &[usize] {
            self.inner.dims()
        }
        fn name(&self) -> String {
            "reference-ordered".into()
        }
        fn sweep_order(&self) -> Vec<usize> {
            self.sweep.clone()
        }
        fn norm_sq(&self) -> f64 {
            self.inner.norm_sq()
        }
        fn mttkrp(&mut self, factors: &[Mat], mode: usize) -> Mat {
            self.inner.mttkrp(factors, mode)
        }
    }

    #[test]
    fn converges_on_easy_tensor() {
        // A tensor that is exactly rank-1 (all values equal on a block).
        let mut t = CooTensor::new(vec![6, 6, 6]);
        for i in 0..3u32 {
            for j in 0..3u32 {
                for k in 0..3u32 {
                    t.push(&[i, j, k], 2.0);
                }
            }
        }
        let mut engine = ReferenceEngine::new(t);
        let mut opts = CpdOptions::new(2);
        opts.max_iters = 60;
        let result = cpd_als(&mut engine, &opts).expect("healthy run");
        assert!(
            result.final_fit() > 0.999,
            "rank-1 block should be recovered, fit {}",
            result.final_fit()
        );
        assert!(result.converged);
    }

    #[test]
    fn result_reports_timing_and_counts() {
        let t = pseudo_tensor(&[8, 8, 8], 150, 3);
        let mut engine = ReferenceEngine::new(t);
        let result = cpd_als(&mut engine, &CpdOptions::new(3)).expect("healthy run");
        assert!(result.total_time >= result.mttkrp_time());
        assert_eq!(result.fits.len(), result.iterations);
    }

    #[test]
    fn lambda_matches_rank() {
        let t = pseudo_tensor(&[8, 8, 8], 150, 4);
        let mut engine = ReferenceEngine::new(t);
        let result = cpd_als(&mut engine, &CpdOptions::new(5)).expect("healthy run");
        assert_eq!(result.lambda.len(), 5);
        assert!(result.lambda.iter().all(|&l| l > 0.0));
    }

    #[test]
    fn zero_rank_is_a_typed_input_error() {
        let t = pseudo_tensor(&[6, 6, 6], 50, 6);
        let mut engine = ReferenceEngine::new(t);
        let mut opts = CpdOptions::new(1);
        opts.rank = 0;
        match cpd_als(&mut engine, &opts) {
            Err(StefError::Input(_)) => {}
            other => panic!("expected Input error, got {other:?}"),
        }
    }

    #[test]
    fn nan_injection_recovers_via_engine_fallback() {
        // One NaN in a memoized engine's MTTKRP output: the driver must
        // degrade to the unmemoized path, recompute, and finish with the
        // same fit as a clean run.
        let t = pseudo_tensor(&[10, 9, 8], 300, 7);
        let opts = CpdOptions {
            max_iters: 6,
            tol: 0.0,
            ..CpdOptions::new(3)
        };
        // Force memoization on: the fallback rung only exists when the
        // engine has a memoized path to give up.
        let mut stef_opts = StefOptions::new(3);
        stef_opts.memo = crate::options::MemoPolicy::SaveAll;
        let mut clean = Stef::prepare(&t, stef_opts.clone());
        let clean_fit = cpd_als(&mut clean, &opts).expect("clean run").final_fit();

        let stef = Stef::prepare(&t, stef_opts);
        let mut faulty = FaultyEngine::new(
            stef,
            vec![Fault::MttkrpOutputOnce {
                at: 4,
                row: 0,
                col: 0,
                value: f64::NAN,
            }],
        )
        .with_clear_on_degrade();
        let result = cpd_als(&mut faulty, &opts).expect("recovered run");
        assert!(result.recovery.engine_fallbacks >= 1, "{:?}", result.recovery);
        assert!(
            (result.final_fit() - clean_fit).abs() < 1e-6,
            "recovered fit {} vs clean fit {clean_fit}",
            result.final_fit()
        );
    }

    #[test]
    fn persistent_fault_ends_in_typed_error_not_panic() {
        let t = pseudo_tensor(&[8, 8, 8], 200, 8);
        let mut faulty = FaultyEngine::new(
            ReferenceEngine::new(t),
            vec![Fault::MttkrpOutputAlways {
                from: 0,
                row: 0,
                col: 0,
                value: f64::NAN,
            }],
        );
        match cpd_als(&mut faulty, &CpdOptions::new(3)) {
            Err(StefError::NonFinite { iteration: 1, .. }) => {}
            other => panic!("expected NonFinite at iteration 1, got {other:?}"),
        }
    }

    /// Wraps the reference engine and, after `clean_calls` MTTKRP calls,
    /// blends the output of every mode *except the last in sweep order*
    /// toward a fixed junk matrix with a weight that grows per call. The
    /// corrupted modes' factors drift away from the tensor's structure,
    /// so the fit genuinely decreases; the last mode stays clean so the
    /// driver's fit formula (which reuses the last mode's MTTKRP) keeps
    /// reporting the true fit. Pure scaling would not work here: column
    /// normalization absorbs it without ever moving the factors.
    struct DriftEngine {
        inner: ReferenceEngine,
        calls: usize,
        clean_calls: usize,
    }

    impl MttkrpEngine for DriftEngine {
        fn dims(&self) -> &[usize] {
            self.inner.dims()
        }
        fn name(&self) -> String {
            "drift".into()
        }
        fn sweep_order(&self) -> Vec<usize> {
            self.inner.sweep_order()
        }
        fn norm_sq(&self) -> f64 {
            self.inner.norm_sq()
        }
        fn mttkrp(&mut self, factors: &[Mat], mode: usize) -> Mat {
            self.calls += 1;
            let mut out = self.inner.mttkrp(factors, mode);
            let last = *self.inner.sweep_order().last().expect("nonempty sweep");
            if self.calls > self.clean_calls && mode != last {
                let e = (0.04 * (self.calls - self.clean_calls) as f64).min(0.95);
                for i in 0..out.rows() {
                    for j in 0..out.cols() {
                        let junk = ((i * 31 + j * 17) % 13) as f64 - 6.0;
                        out[(i, j)] = (1.0 - e) * out[(i, j)] + e * junk;
                    }
                }
            }
            out
        }
    }

    #[test]
    fn divergence_is_a_typed_error_when_fallback_unavailable() {
        let t = pseudo_tensor(&[8, 8, 8], 200, 9);
        let mut engine = DriftEngine {
            inner: ReferenceEngine::new(t),
            calls: 0,
            clean_calls: 9,
        };
        let mut opts = CpdOptions::new(3);
        opts.max_iters = 30;
        opts.tol = 0.0;
        // DriftEngine has no memoization, so the fallback rung cannot
        // fire and the run must end in a typed divergence error.
        match cpd_als(&mut engine, &opts) {
            Err(StefError::Diverged { drops, .. }) => {
                assert!(drops >= DIVERGENCE_WINDOW);
            }
            other => panic!("expected Diverged, got {other:?}"),
        }
    }

    #[test]
    fn checkpoint_resume_matches_uninterrupted_run() {
        let dir = std::env::temp_dir().join("stef-cpd-ckpt-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.ckpt");

        let t = pseudo_tensor(&[10, 9, 8], 300, 10);
        let base = CpdOptions {
            max_iters: 8,
            tol: 0.0,
            ..CpdOptions::new(3)
        };

        // Uninterrupted run.
        let mut full_engine = Stef::prepare(&t, StefOptions::new(3));
        let full = cpd_als(&mut full_engine, &base).expect("full run");

        // Interrupted at iteration 4 (checkpoint every 2 keeps the last
        // snapshot at 4), then resumed to completion.
        let mut opts_a = base.clone();
        opts_a.max_iters = 4;
        opts_a.checkpoint = Some(CheckpointPolicy::new(&path, 2));
        let mut engine_a = Stef::prepare(&t, StefOptions::new(3));
        let partial = cpd_als(&mut engine_a, &opts_a).expect("partial run");
        assert_eq!(partial.checkpoints_written, 2);

        let cp = Checkpoint::load(&path).expect("load checkpoint");
        assert_eq!(cp.iteration, 4);
        let mut opts_b = base.clone();
        opts_b.resume = Some(cp);
        let mut engine_b = Stef::prepare(&t, StefOptions::new(3));
        let resumed = cpd_als(&mut engine_b, &opts_b).expect("resumed run");

        assert_eq!(resumed.resumed_from, Some(4));
        assert_eq!(resumed.fits.len(), full.fits.len());
        for (a, b) in resumed.fits.iter().zip(&full.fits) {
            assert!((a - b).abs() < 1e-8, "fits diverged: {a} vs {b}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Cancels `token` right after the `at`-th MTTKRP call (counting
    /// from 1) has produced its output, so the cancellation lands in the
    /// dense update that follows.
    struct CancelAfter {
        inner: Stef,
        token: CancelToken,
        at: usize,
        calls: usize,
    }

    impl MttkrpEngine for CancelAfter {
        fn dims(&self) -> &[usize] {
            self.inner.dims()
        }
        fn name(&self) -> String {
            self.inner.name()
        }
        fn sweep_order(&self) -> Vec<usize> {
            self.inner.sweep_order()
        }
        fn norm_sq(&self) -> f64 {
            self.inner.norm_sq()
        }
        fn mttkrp(&mut self, factors: &[Mat], mode: usize) -> Mat {
            let out = self.inner.mttkrp(factors, mode);
            self.calls += 1;
            if self.calls == self.at {
                self.token.cancel();
            }
            out
        }
        fn executor(&self) -> &crate::runtime::Executor {
            MttkrpEngine::executor(&self.inner)
        }
    }

    #[test]
    fn cancel_in_the_dense_update_checkpoints_the_last_completed_iteration() {
        let dir = std::env::temp_dir().join(format!("stef-cpd-dense-cancel-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.ckpt");
        // A tall mode, so the dense passes split into row blocks.
        let t = pseudo_tensor(&[4100, 30, 20], 6000, 12);
        let mut sopts = StefOptions::new(4);
        sopts.num_threads = 2;
        // Privatized rows reduce in a fixed order, so two runs on a
        // two-worker pool agree bit for bit.
        sopts.accum = crate::options::AccumStrategy::Privatized;

        // Cancel after iteration 3's MTTKRP of the tall mode 0.
        let token = CancelToken::new();
        let mut engine_opts = sopts.clone();
        engine_opts.cancel = Some(token.clone());
        let inner = Stef::prepare(&t, engine_opts);
        let tall_pos = inner.sweep_order().iter().position(|&m| m == 0).unwrap();
        let at = 2 * t.dims().len() + tall_pos + 1;
        let mut engine = CancelAfter {
            inner,
            token: token.clone(),
            at,
            calls: 0,
        };
        let payload: Arc<std::sync::Mutex<Option<Checkpoint>>> = Arc::default();
        let seen = payload.clone();
        let hook_path = path.clone();
        let opts = CpdOptions {
            max_iters: 10,
            tol: 0.0,
            cancel: Some(token),
            // `every` beyond max_iters: only the cancel path writes.
            checkpoint: Some(CheckpointPolicy {
                on_save: Some(CheckpointHook::new(move |_| {
                    *seen.lock().unwrap() =
                        Some(Checkpoint::load(&hook_path).expect("checkpoint loads"));
                })),
                ..CheckpointPolicy::new(&path, 100)
            }),
            ..CpdOptions::new(4)
        };
        match cpd_als(&mut engine, &opts) {
            Err(StefError::Cancelled {
                iteration: 3,
                deadline: false,
                checkpoint_iteration: Some(2),
            }) => {}
            other => panic!("expected Cancelled at iteration 3 with checkpoint 2, got {other:?}"),
        }
        assert_eq!(engine.calls, at, "no MTTKRP after the cancel");
        let exec = MttkrpEngine::executor(&engine.inner);
        if !exec.is_serial() {
            assert!(exec.counters().cancelled_jobs >= 1, "the dense fan-out saw the cancel");
        }

        // The checkpoint is bitwise the state after two clean iterations.
        let cp = payload.lock().unwrap().take().expect("on_save ran");
        let mut clean = Stef::prepare(&t, sopts);
        let reference = cpd_als(
            &mut clean,
            &CpdOptions {
                max_iters: 2,
                tol: 0.0,
                ..CpdOptions::new(4)
            },
        )
        .expect("clean run");
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(cp.iteration, 2);
        assert_eq!(bits(&cp.fits), bits(&reference.fits));
        assert_eq!(bits(&cp.lambda), bits(&reference.lambda));
        for (a, b) in cp.factors.iter().zip(&reference.factors) {
            assert_eq!(bits(a.as_slice()), bits(b.as_slice()));
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_with_wrong_rank_is_a_mismatch() {
        let t = pseudo_tensor(&[8, 8, 8], 200, 11);
        let mut engine = ReferenceEngine::new(t);
        let cp = Checkpoint {
            version: CHECKPOINT_VERSION,
            iteration: 2,
            seed: 42,
            rank: 5,
            dims: vec![8, 8, 8],
            engine: "reference".into(),
            lambda: vec![1.0; 5],
            fits: vec![0.1, 0.2],
            factors: (0..3).map(|_| Mat::from_fn(8, 5, |_, _| 0.5)).collect(),
        };
        let mut opts = CpdOptions::new(3);
        opts.resume = Some(cp);
        match cpd_als(&mut engine, &opts) {
            Err(StefError::Checkpoint(CheckpointError::Mismatch { .. })) => {}
            other => panic!("expected checkpoint mismatch, got {other:?}"),
        }
    }
}
