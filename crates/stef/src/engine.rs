//! The STeF engine: model-driven preparation plus per-mode MTTKRP
//! dispatch, and the [`MttkrpEngine`] trait every algorithm in this
//! workspace (STeF, STeF2, all baselines, the COO reference) implements
//! so that the CPD driver and the benchmark harness treat them uniformly.

use crate::kernels::{mode0_with, modeu_with, KernelCtx, ResolvedAccum};
use crate::model::{
    best_memo_set, choose_plan, fit_memory_budget, op_count_memo_set, prefer_privatized,
    DegradationEvent, LevelProfile, MemoPlan,
};
use crate::options::{AccumStrategy, MemoPolicy, ModeSwitchPolicy, StefOptions};
use crate::partials::PartialStore;
use crate::runtime::{Executor, RuntimeCounters};
use crate::schedule::Schedule;
use crate::telemetry::ModeStats;
use crate::workspace::Workspace;
use linalg::Mat;
use sptensor::{build_csf, inverse_permutation, sort_modes_by_length, CooTensor, Csf};

/// Anything that can compute MTTKRPs for every mode of a fixed tensor.
///
/// `mode` is always an *original* tensor mode index; implementations map
/// it to whatever internal layout they use. `factors` are likewise in
/// original mode order.
pub trait MttkrpEngine {
    /// Original mode lengths.
    fn dims(&self) -> &[usize];

    /// Human-readable algorithm name (used by the bench harness).
    fn name(&self) -> String;

    /// The order in which a CPD sweep must update the modes for this
    /// engine's memoization (if any) to be valid. Engines without
    /// memoization may return any order.
    fn sweep_order(&self) -> Vec<usize>;

    /// Squared Frobenius norm of the tensor (needed by the CPD fit).
    fn norm_sq(&self) -> f64;

    /// Computes `Ā⁽ᵐᵒᵈᵉ⁾` = MTTKRP of the tensor with all factors except
    /// `factors[mode]`.
    fn mttkrp(&mut self, factors: &[Mat], mode: usize) -> Mat;

    /// Asks the engine to permanently stop using memoized state and
    /// recompute every MTTKRP from scratch — the CPD driver's last-resort
    /// recovery when memoized partials may be corrupt. Returns `true` if
    /// the engine actually changed behavior (so the driver knows a retry
    /// is worthwhile); the default for engines without memoization is
    /// `false`.
    fn degrade_to_unmemoized(&mut self) -> bool {
        false
    }

    /// Plan relaxations the engine applied to fit
    /// `StefOptions::memory_budget` — empty for engines without budget
    /// governance. The CPD driver copies these onto `CpdResult`.
    fn degradations(&self) -> Vec<DegradationEvent> {
        Vec::new()
    }

    /// Telemetry: measured traffic of the engine's most recent MTTKRP
    /// for `mode`, in the `counters.rs` element conventions and
    /// reflecting the path *actually executed* (memoized short-circuit
    /// vs. full traversal). `None` for uninstrumented engines
    /// (baselines, the reference).
    fn last_mode_stats(&self, _mode: usize) -> Option<ModeStats> {
        None
    }

    /// Telemetry: model-predicted `(reads, writes)` in elements for
    /// `mode` under the engine's prepared plan (§IV-C). `None` for
    /// unmodeled engines.
    fn predicted_mode_traffic(&self, _mode: usize) -> Option<(f64, f64)> {
        None
    }

    /// Telemetry: workspace arena growths since preparation (0 is the
    /// steady-state allocation-free guarantee). Engines without a
    /// tracked workspace report 0.
    fn telemetry_alloc_events(&self) -> u64 {
        0
    }

    /// Telemetry: runtime-pool counters for load-balance reporting.
    /// `None` for engines that do not own an executor.
    fn telemetry_runtime_counters(&self) -> Option<RuntimeCounters> {
        None
    }

    /// Telemetry: NUMA nodes the engine's executor spreads workers
    /// over (1 = no placement, serial, or no executor).
    fn numa_nodes(&self) -> usize {
        1
    }

    /// The executor the CPD driver runs the dense mode update on (solve,
    /// normalization and Gram after each MTTKRP). Engines with their own
    /// worker pool return it, so the update honours the engine's width,
    /// cancel token and counters; the default is the process-wide
    /// [`crate::runtime::global`] pool.
    fn executor(&self) -> &Executor {
        crate::runtime::global()
    }
}

/// Boxed engines are engines too, so adapters generic over a sized
/// `E: MttkrpEngine` (e.g. [`crate::fault::FaultyEngine`]) can wrap the
/// `Box<dyn MttkrpEngine>` an engine registry hands out.
impl<E: MttkrpEngine + ?Sized> MttkrpEngine for Box<E> {
    fn dims(&self) -> &[usize] {
        (**self).dims()
    }
    fn name(&self) -> String {
        (**self).name()
    }
    fn sweep_order(&self) -> Vec<usize> {
        (**self).sweep_order()
    }
    fn norm_sq(&self) -> f64 {
        (**self).norm_sq()
    }
    fn mttkrp(&mut self, factors: &[Mat], mode: usize) -> Mat {
        (**self).mttkrp(factors, mode)
    }
    fn degrade_to_unmemoized(&mut self) -> bool {
        (**self).degrade_to_unmemoized()
    }
    fn degradations(&self) -> Vec<DegradationEvent> {
        (**self).degradations()
    }
    fn last_mode_stats(&self, mode: usize) -> Option<ModeStats> {
        (**self).last_mode_stats(mode)
    }
    fn predicted_mode_traffic(&self, mode: usize) -> Option<(f64, f64)> {
        (**self).predicted_mode_traffic(mode)
    }
    fn telemetry_alloc_events(&self) -> u64 {
        (**self).telemetry_alloc_events()
    }
    fn telemetry_runtime_counters(&self) -> Option<RuntimeCounters> {
        (**self).telemetry_runtime_counters()
    }
    fn numa_nodes(&self) -> usize {
        (**self).numa_nodes()
    }
    fn executor(&self) -> &Executor {
        (**self).executor()
    }
}

/// Builds the engine `opts.engine` selects.
///
/// `Csf` and `Alto` construct that engine directly. `Auto` prepares the
/// CSF engine first (its plan carries the §IV-C predicted traffic for
/// the model-chosen order + memoization), prices the linearized layout
/// with [`crate::model::AltoProfile`], and keeps whichever the model
/// says moves less data. Tensors whose interleaved index would exceed
/// 128 bits are never eligible for the linearized engine — `Auto`
/// silently keeps CSF for them.
pub fn build_engine(
    coo: &CooTensor,
    opts: StefOptions,
) -> Result<Box<dyn MttkrpEngine + Send>, crate::StefError> {
    use crate::options::EngineChoice;
    match opts.engine {
        EngineChoice::Csf => Ok(Box::new(Stef::try_prepare(coo, opts)?)),
        EngineChoice::Alto => Ok(Box::new(crate::alto::AltoEngine::try_prepare(coo, opts)?)),
        EngineChoice::Auto => {
            let choice = |picked: &'static str| {
                crate::metrics::counter(
                    "stef_engine_choice_total",
                    "Engines picked by --engine auto's Sec. IV-C traffic bid",
                    &[("engine", picked)],
                )
                .inc();
            };
            let stef = Stef::try_prepare(coo, opts.clone())?;
            let bits = sptensor::index_bits_for(coo.dims());
            if bits > 128 {
                choice("csf");
                return Ok(Box::new(stef));
            }
            let alto_profile = crate::model::AltoProfile {
                dims: coo.dims().to_vec(),
                nnz: coo.nnz(),
                rank: opts.rank,
                cache_elems: opts.cache_bytes / std::mem::size_of::<f64>(),
                idx_elems: if bits <= 64 { 1 } else { 2 },
            };
            if alto_profile.total_traffic() < stef.plan().predicted {
                choice("alto");
                Ok(Box::new(crate::alto::AltoEngine::try_prepare(coo, opts)?))
            } else {
                choice("csf");
                Ok(Box::new(stef))
            }
        }
    }
}

/// The paper's STeF: one CSF in a model-chosen order, model-chosen
/// memoization, nnz-balanced scheduling.
pub struct Stef {
    csf: Csf,
    sched: Schedule,
    partials: PartialStore,
    plan: MemoPlan,
    opts: StefOptions,
    dims: Vec<usize>,
    /// `level_of_mode[m]` = CSF level holding original mode `m`.
    level_of_mode: Vec<usize>,
    norm_sq: f64,
    /// Set by a mode-0 (root level) call; consumed by deeper levels.
    /// Guards against reading partials that predate a factor update.
    partials_fresh: bool,
    /// Set by [`MttkrpEngine::degrade_to_unmemoized`]: saved partials are
    /// never read again (recovery from suspected corruption).
    memo_disabled: bool,
    /// Conflict strategy per CSF level, resolved once at preparation
    /// (index 0 is unused — the root pass owns its rows).
    accum_by_level: Vec<ResolvedAccum>,
    /// Kernel scratch, sized at preparation and reused by every pass.
    ws: Workspace,
    /// Execution substrate, built once at preparation: a persistent
    /// worker pool sized from `StefOptions::num_threads` (workers are
    /// created here and parked between dispatches).
    exec: Executor,
    /// Plan relaxations applied at preparation to fit
    /// `StefOptions::memory_budget` (empty when unconstrained).
    degradations: Vec<DegradationEvent>,
    /// Telemetry: measured stats of the most recent MTTKRP, indexed by
    /// *original* mode. Fixed-size, filled analytically per call —
    /// never on the kernel hot path.
    last_stats: Vec<Option<ModeStats>>,
    /// Telemetry: model-predicted `(reads, writes)` per CSF level for
    /// the prepared plan, from `LevelProfile::traffic_by_level`.
    predicted_by_level: Vec<(f64, f64)>,
}

impl Stef {
    /// Builds the engine: runs Algorithm 9 + the data-movement model to
    /// pick the order and memoization set, builds the CSF in that order,
    /// the schedule, and the partial store.
    ///
    /// # Panics
    /// Panics on invalid input (zero rank, empty tensor). Callers that
    /// must not panic — the CLI, services — use [`Stef::try_prepare`].
    pub fn prepare(coo: &CooTensor, opts: StefOptions) -> Self {
        match Self::try_prepare(coo, opts) {
            Ok(engine) => engine,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible [`Stef::prepare`]: rejects invalid input with a typed
    /// [`crate::error::StefError`] instead of panicking.
    pub fn try_prepare(coo: &CooTensor, opts: StefOptions) -> Result<Self, crate::StefError> {
        use crate::error::StefError;
        if opts.rank < 1 {
            return Err(StefError::Input("rank must be positive".into()));
        }
        if coo.nnz() == 0 {
            return Err(StefError::Input("empty tensors are not supported".into()));
        }
        if coo.ndim() < 2 {
            return Err(StefError::Input(format!(
                "need at least 2 modes, got {}",
                coo.ndim()
            )));
        }
        if !crate::recover::slice_is_finite(coo.values()) {
            return Err(StefError::Input(
                "tensor contains non-finite values".into(),
            ));
        }
        // Select the SIMD kernel path for the process. `Auto` keeps any
        // earlier explicit selection; `Force` pins one for A/B runs.
        linalg::simd::apply(opts.simd);
        let d = coo.ndim();
        let nthreads = opts.threads();
        let base_order = sort_modes_by_length(coo.dims());
        let base_csf = build_csf(coo, &base_order);
        // The pool exists before planning so the swap count runs on it;
        // the cancel token is installed once preparation is done.
        let exec = Executor::with_numa(opts.workers(), opts.numa);
        let swapped_profile = || {
            LevelProfile::swapped_from_csf_on(&exec, &base_csf, opts.rank, opts.cache_bytes)
                .expect("the pool has no cancel token before preparation ends")
        };

        // --- order decision (§II-E + §IV-B) ---
        let base_profile = LevelProfile::from_csf(&base_csf, opts.rank, opts.cache_bytes);
        let (swap, model_plan) = match opts.mode_switch {
            ModeSwitchPolicy::Never => {
                let (save, predicted) = best_memo_set(&base_profile);
                (
                    false,
                    MemoPlan {
                        swap_last_two: false,
                        save,
                        predicted,
                        predicted_other_order: f64::NAN,
                    },
                )
            }
            ModeSwitchPolicy::Always => {
                let swapped = swapped_profile();
                let (save, predicted) = best_memo_set(&swapped);
                (
                    true,
                    MemoPlan {
                        swap_last_two: true,
                        save,
                        predicted,
                        predicted_other_order: f64::NAN,
                    },
                )
            }
            ModeSwitchPolicy::ModelChosen | ModeSwitchPolicy::OppositeOfModel => {
                let swapped = swapped_profile();
                let plan = choose_plan(&base_profile, &swapped);
                let mut swap = plan.swap_last_two;
                if opts.mode_switch == ModeSwitchPolicy::OppositeOfModel {
                    swap = !swap;
                }
                if swap == plan.swap_last_two {
                    (swap, plan)
                } else {
                    // Re-derive the save set for the order we actually use.
                    let profile = if swap { &swapped } else { &base_profile };
                    let (save, predicted) = best_memo_set(profile);
                    (
                        swap,
                        MemoPlan {
                            swap_last_two: swap,
                            save,
                            predicted,
                            predicted_other_order: plan.predicted,
                        },
                    )
                }
            }
        };

        // Rebuild in the swapped order if chosen.
        let (csf, profile) = if swap {
            let mut order = base_order.clone();
            let n = order.len();
            order.swap(n - 1, n - 2);
            let csf = build_csf(coo, &order);
            let profile = LevelProfile::from_csf(&csf, opts.rank, opts.cache_bytes);
            (csf, profile)
        } else {
            (base_csf, base_profile)
        };

        // --- memoization decision (§IV-A) ---
        let save = match &opts.memo {
            MemoPolicy::DataMovementModel => model_plan.save.clone(),
            MemoPolicy::SaveAll => {
                let mut s = vec![false; d];
                if d >= 3 {
                    for l in 1..=d - 2 {
                        s[l] = true;
                    }
                }
                s
            }
            MemoPolicy::SaveNone => vec![false; d],
            MemoPolicy::OpCountModel => op_count_memo_set(&profile),
            MemoPolicy::Fixed(flags) => {
                let mut s = vec![false; d];
                if d >= 3 {
                    for l in 1..=d - 2 {
                        s[l] = flags.get(l).copied().unwrap_or(false);
                    }
                }
                s
            }
        };

        // --- accumulation decision (one per consumer level) ---
        let mut accum_by_level: Vec<ResolvedAccum> = (0..d)
            .map(|level| {
                if level == 0 {
                    // Root rows are thread-owned; no strategy applies.
                    return ResolvedAccum::Privatized;
                }
                match opts.accum {
                    AccumStrategy::Privatized => ResolvedAccum::Privatized,
                    AccumStrategy::Atomic => ResolvedAccum::Atomic,
                    AccumStrategy::Auto => {
                        let bytes = nthreads
                            * csf.level_dims()[level]
                            * opts.rank
                            * std::mem::size_of::<f64>();
                        if bytes > opts.privatize_cap_bytes {
                            // Hard memory cap regardless of the model.
                            ResolvedAccum::Atomic
                        } else if prefer_privatized(&profile, level, nthreads) {
                            ResolvedAccum::Privatized
                        } else {
                            ResolvedAccum::Atomic
                        }
                    }
                }
            })
            .collect();
        for accum in accum_by_level.iter().skip(1) {
            let strategy = match accum {
                ResolvedAccum::Privatized => "privatized",
                ResolvedAccum::Atomic => "atomic",
            };
            crate::metrics::counter(
                "stef_accum_resolved_total",
                "Accumulation strategies resolved per consumer level at engine build",
                &[("strategy", strategy)],
            )
            .inc();
        }

        // --- memory-budget fit (degrade, don't die) ---
        let fixed = Workspace::fixed_bytes(d, opts.rank, nthreads);
        let privatized: Vec<bool> = accum_by_level
            .iter()
            .enumerate()
            .map(|(l, &a)| l > 0 && a == ResolvedAccum::Privatized)
            .collect();
        let fit = fit_memory_budget(
            &profile,
            save,
            privatized,
            nthreads,
            fixed,
            opts.memory_budget,
        )
        .map_err(|required| StefError::BudgetExceeded {
            required,
            budget: opts.memory_budget,
        })?;
        let save = fit.save;
        for (l, a) in accum_by_level.iter_mut().enumerate().skip(1) {
            if !fit.privatized[l] && *a == ResolvedAccum::Privatized {
                *a = ResolvedAccum::Atomic;
            }
        }
        let degradations = fit.events;

        let plan = MemoPlan {
            swap_last_two: swap,
            save: save.clone(),
            predicted: profile.total_traffic(&save),
            predicted_other_order: model_plan.predicted_other_order,
        };
        let predicted_by_level = profile.traffic_by_level(&save);

        let sched = Schedule::build(&csf, nthreads, opts.load_balance);
        let partials = if save.iter().any(|&s| s) {
            PartialStore::try_allocate(&csf, &save, nthreads, opts.rank).map_err(|required| {
                StefError::BudgetExceeded {
                    required,
                    budget: opts.memory_budget,
                }
            })?
        } else {
            PartialStore::empty(d, nthreads, opts.rank)
        };
        let level_of_mode = inverse_permutation(csf.mode_order());
        let max_priv_rows = (1..d)
            .filter(|&l| accum_by_level[l] == ResolvedAccum::Privatized)
            .map(|l| csf.level_dims()[l])
            .max()
            .unwrap_or(0);
        let ws = Workspace::try_new(d, opts.rank, nthreads, max_priv_rows).map_err(|required| {
            StefError::BudgetExceeded {
                required,
                budget: opts.memory_budget,
            }
        })?;
        if opts.cancel.is_some() {
            exec.set_cancel(opts.cancel.clone());
        }

        Ok(Stef {
            sched,
            partials,
            plan,
            opts,
            dims: coo.dims().to_vec(),
            level_of_mode,
            norm_sq: coo.norm_sq(),
            partials_fresh: false,
            memo_disabled: false,
            accum_by_level,
            ws,
            exec,
            csf,
            degradations,
            last_stats: vec![None; d],
            predicted_by_level,
        })
    }

    /// The chosen configuration (order swap + save flags + predictions).
    pub fn plan(&self) -> &MemoPlan {
        &self.plan
    }

    /// The engine's CSF (in the chosen order).
    pub fn csf(&self) -> &Csf {
        &self.csf
    }

    /// The schedule in use.
    pub fn schedule(&self) -> &Schedule {
        &self.sched
    }

    /// Bytes held by memoized partial results (Table II).
    pub fn partial_bytes(&self) -> usize {
        self.partials.bytes()
    }

    /// Bytes of CSF structure + factor matrices at this rank (Table II's
    /// denominator).
    pub fn csf_and_factor_bytes(&self) -> usize {
        let factor_bytes: usize = self
            .dims
            .iter()
            .map(|&n| n * self.opts.rank * std::mem::size_of::<f64>())
            .sum();
        self.csf.memory_bytes() + factor_bytes
    }

    /// Engine options.
    pub fn options(&self) -> &StefOptions {
        &self.opts
    }

    /// The conflict strategy preparation resolved for a CSF level (index
    /// 0 reports `Privatized` but the root pass uses neither strategy).
    pub fn resolved_accum(&self, level: usize) -> ResolvedAccum {
        self.accum_by_level[level]
    }

    /// Workspace arena growths since preparation — 0 is the kernels'
    /// no-steady-state-allocation guarantee.
    pub fn workspace_alloc_events(&self) -> u64 {
        self.ws.alloc_events()
    }

    /// Bytes held by the kernel workspace.
    pub fn workspace_bytes(&self) -> usize {
        self.ws.bytes()
    }

    /// The engine's execution substrate (per-engine, honoring
    /// `StefOptions::num_threads`).
    pub fn executor(&self) -> &Executor {
        &self.exec
    }

    /// Pool counters (dispatches, per-worker busy/steal/park) for the
    /// engine's executor.
    pub fn runtime_counters(&self) -> RuntimeCounters {
        self.exec.counters()
    }

    /// MTTKRP for a CSF *level* with factors given in level order.
    /// Exposed for STeF2 and the benches; most callers want
    /// [`MttkrpEngine::mttkrp`].
    pub fn mttkrp_level(&mut self, level_factors: Vec<&Mat>, level: usize) -> Mat {
        let ctx = KernelCtx::new(&self.csf, &self.sched, level_factors, self.opts.rank);
        if level == 0 {
            let mut out = Mat::zeros(self.csf.level_dims()[0], self.opts.rank);
            let views = self.partials.shared_views();
            mode0_with(&ctx, &views, &self.exec, &mut self.ws, &mut out);
            self.partials_fresh = true;
            self.record_mode_stats(0, None);
            return out;
        }
        let accum = self.accum_by_level[level];
        let use_saved = self.partials_fresh && !self.memo_disabled;
        // The same first-saved-level lookup the kernels perform, so the
        // telemetry count reflects the path this call actually takes.
        let saved_at = if use_saved {
            let d = self.csf.ndim();
            (level..=d.saturating_sub(2)).find(|&k| self.partials.is_saved(k))
        } else {
            None
        };
        let mut out = Mat::zeros(self.csf.level_dims()[level], self.opts.rank);
        let views = self.partials.shared_views();
        modeu_with(
            &ctx,
            &views,
            use_saved,
            level,
            accum,
            &self.exec,
            &mut self.ws,
            &mut out,
        );
        self.record_mode_stats(level, saved_at);
        out
    }

    /// Telemetry: tallies the traffic of the pass just executed for the
    /// mode at `level`, using the `counters.rs` counting rules
    /// parameterized by the actually-taken path (`saved_at` = level
    /// whose memoized partial was consumed; `None` = full traversal).
    /// O(d) float math per MTTKRP — never on the kernel hot path.
    fn record_mode_stats(&mut self, level: usize, saved_at: Option<usize>) {
        let d = self.csf.ndim();
        let rank = self.opts.rank;
        let (reads, writes) = if level == 0 {
            crate::counters::count_mode0(&self.csf, self.partials.save_flags(), rank)
        } else {
            crate::counters::count_modeu(&self.csf, level, saved_at, rank)
        };
        let deepest = if level == 0 {
            d - 1
        } else {
            saved_at.unwrap_or(d - 1)
        };
        let fibers: u64 = (0..=deepest).map(|l| self.csf.nfibers(l) as u64).sum();
        let nnz = if deepest == d - 1 {
            self.csf.nnz() as u64
        } else {
            0
        };
        // 2 flops (one fused multiply-add) per non-structure element
        // read; structure reads are 2 per visited fiber.
        let structure_reads = 2.0 * fibers as f64;
        let mode = self.csf.mode_order()[level];
        self.last_stats[mode] = Some(ModeStats {
            level,
            nnz,
            fibers,
            flops: 2.0 * (reads - structure_reads).max(0.0),
            reads,
            writes,
        });
    }

    /// Marks memoized partials stale (e.g. after factors changed without
    /// a mode-0 pass). The next non-root MTTKRPs recompute from scratch.
    pub fn invalidate_partials(&mut self) {
        self.partials_fresh = false;
    }

    /// Whether memoization has been disabled by
    /// [`MttkrpEngine::degrade_to_unmemoized`].
    pub fn memo_disabled(&self) -> bool {
        self.memo_disabled
    }

    /// **Fault-injection support** (tests only, but kept available in
    /// release builds so the harness exercises real code): overwrites
    /// every memoized partial with `value` while *leaving the freshness
    /// flag set*, simulating silent in-memory corruption of `P^(i)` that
    /// the kernels will consume on the next memoized read.
    pub fn corrupt_partials_for_test(&mut self, value: f64) {
        self.partials.poison_for_test(value);
    }
}

impl MttkrpEngine for Stef {
    fn dims(&self) -> &[usize] {
        &self.dims
    }

    fn name(&self) -> String {
        "stef".into()
    }

    fn sweep_order(&self) -> Vec<usize> {
        self.csf.mode_order().to_vec()
    }

    fn norm_sq(&self) -> f64 {
        self.norm_sq
    }

    fn mttkrp(&mut self, factors: &[Mat], mode: usize) -> Mat {
        assert_eq!(factors.len(), self.dims.len());
        let level = self.level_of_mode[mode];
        let order = self.csf.mode_order().to_vec();
        let level_factors: Vec<&Mat> = order.iter().map(|&m| &factors[m]).collect();
        let out = self.mttkrp_level(level_factors, level);
        // Updating any factor below the deepest saved level invalidates
        // the memoized partials; the CPD sweep (root -> leaf) never
        // trips this, but out-of-order callers must fall back.
        let deepest_saved = (0..order.len()).rev().find(|&l| self.partials.is_saved(l));
        if let Some(k) = deepest_saved {
            if level > k {
                self.partials_fresh = false;
            }
        }
        out
    }

    fn degrade_to_unmemoized(&mut self) -> bool {
        let was_memoizing = !self.memo_disabled && self.partials.save_flags().iter().any(|&s| s);
        self.memo_disabled = true;
        self.partials_fresh = false;
        was_memoizing
    }

    fn degradations(&self) -> Vec<DegradationEvent> {
        self.degradations.clone()
    }

    fn last_mode_stats(&self, mode: usize) -> Option<ModeStats> {
        self.last_stats.get(mode).cloned().flatten()
    }

    fn predicted_mode_traffic(&self, mode: usize) -> Option<(f64, f64)> {
        self.level_of_mode
            .get(mode)
            .and_then(|&l| self.predicted_by_level.get(l))
            .copied()
    }

    fn telemetry_alloc_events(&self) -> u64 {
        self.ws.alloc_events()
    }

    fn telemetry_runtime_counters(&self) -> Option<RuntimeCounters> {
        Some(self.exec.counters())
    }

    fn numa_nodes(&self) -> usize {
        self.exec.numa_nodes()
    }

    fn executor(&self) -> &Executor {
        &self.exec
    }
}

/// Reference engine: the naive COO MTTKRP. O(nnz·d·R) per call with no
/// parallelism or memoization — the oracle for tests and tiny examples.
pub struct ReferenceEngine {
    coo: CooTensor,
    norm_sq: f64,
}

impl ReferenceEngine {
    /// Wraps a COO tensor.
    pub fn new(coo: CooTensor) -> Self {
        let norm_sq = coo.norm_sq();
        ReferenceEngine { coo, norm_sq }
    }
}

impl MttkrpEngine for ReferenceEngine {
    fn dims(&self) -> &[usize] {
        self.coo.dims()
    }

    fn name(&self) -> String {
        "reference".into()
    }

    fn sweep_order(&self) -> Vec<usize> {
        (0..self.coo.ndim()).collect()
    }

    fn norm_sq(&self) -> f64 {
        self.norm_sq
    }

    fn mttkrp(&mut self, factors: &[Mat], mode: usize) -> Mat {
        self.coo.mttkrp_reference(factors, mode)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::LoadBalance;
    use linalg::assert_mat_approx_eq;

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

    fn rand_factors(dims: &[usize], r: usize, seed: u64) -> Vec<Mat> {
        let mut x = seed | 1;
        dims.iter()
            .map(|&n| {
                Mat::from_fn(n, r, |_, _| {
                    x = x
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    ((x >> 35) % 1000) as f64 / 500.0 - 1.0
                })
            })
            .collect()
    }

    fn check_engine_against_reference(mut engine: Stef, t: &CooTensor, rank: usize, seed: u64) {
        let factors = rand_factors(t.dims(), rank, seed);
        // Sweep in the engine's required order, exactly like CPD does.
        for mode in engine.sweep_order() {
            let got = engine.mttkrp(&factors, mode);
            let expect = t.mttkrp_reference(&factors, mode);
            assert_mat_approx_eq(&got, &expect, 1e-9);
        }
    }

    #[test]
    fn default_options_match_reference_3d() {
        let t = pseudo_tensor(&[30, 14, 9], 600, 1);
        let engine = Stef::prepare(&t, StefOptions::new(5));
        check_engine_against_reference(engine, &t, 5, 2);
    }

    #[test]
    fn default_options_match_reference_4d_5d() {
        for dims in [vec![9usize, 6, 12, 7], vec![5, 6, 7, 4, 6]] {
            let t = pseudo_tensor(&dims, 700, 3);
            let engine = Stef::prepare(&t, StefOptions::new(4));
            check_engine_against_reference(engine, &t, 4, 4);
        }
    }

    #[test]
    fn all_policies_match_reference() {
        let t = pseudo_tensor(&[12, 10, 8, 6], 500, 5);
        let policies = [
            MemoPolicy::DataMovementModel,
            MemoPolicy::SaveAll,
            MemoPolicy::SaveNone,
            MemoPolicy::OpCountModel,
            MemoPolicy::Fixed(vec![false, true, false, false]),
        ];
        for memo in policies {
            let mut opts = StefOptions::new(3);
            opts.memo = memo.clone();
            let engine = Stef::prepare(&t, opts);
            check_engine_against_reference(engine, &t, 3, 6);
        }
    }

    #[test]
    fn all_switch_policies_match_reference() {
        let t = pseudo_tensor(&[12, 10, 8], 500, 7);
        for sw in [
            ModeSwitchPolicy::ModelChosen,
            ModeSwitchPolicy::Never,
            ModeSwitchPolicy::Always,
            ModeSwitchPolicy::OppositeOfModel,
        ] {
            let mut opts = StefOptions::new(3);
            opts.mode_switch = sw;
            let engine = Stef::prepare(&t, opts);
            check_engine_against_reference(engine, &t, 3, 8);
        }
    }

    #[test]
    fn slice_based_ablation_matches_reference() {
        let t = pseudo_tensor(&[12, 10, 8], 500, 9);
        let mut opts = StefOptions::new(3);
        opts.load_balance = LoadBalance::SliceBased;
        let engine = Stef::prepare(&t, opts);
        check_engine_against_reference(engine, &t, 3, 10);
    }

    #[test]
    fn opposite_switch_inverts_model_choice() {
        let t = pseudo_tensor(&[20, 15, 10], 800, 11);
        let model = Stef::prepare(&t, StefOptions::new(4));
        let mut opts = StefOptions::new(4);
        opts.mode_switch = ModeSwitchPolicy::OppositeOfModel;
        let opposite = Stef::prepare(&t, opts);
        assert_ne!(model.plan().swap_last_two, opposite.plan().swap_last_two);
    }

    #[test]
    fn sweep_order_has_root_first() {
        let t = pseudo_tensor(&[40, 5, 12], 300, 12);
        let engine = Stef::prepare(&t, StefOptions::new(2));
        let sweep = engine.sweep_order();
        // Root level must be the shortest mode (or its swap partner).
        assert_eq!(sweep.len(), 3);
        assert_eq!(sweep[0], engine.csf().mode_order()[0]);
    }

    #[test]
    fn out_of_order_calls_fall_back_correctly() {
        // Call a deep mode, then update factors, then call it again
        // WITHOUT a fresh mode-0 pass: results must still match the
        // reference because freshness tracking disables stale reads.
        let t = pseudo_tensor(&[10, 9, 8], 400, 13);
        let mut opts = StefOptions::new(3);
        opts.memo = MemoPolicy::SaveAll;
        let mut engine = Stef::prepare(&t, opts);
        let f1 = rand_factors(t.dims(), 3, 21);
        let sweep = engine.sweep_order();
        let _ = engine.mttkrp(&f1, sweep[0]);
        let _ = engine.mttkrp(&f1, sweep[1]);
        // New factors, straight to a non-root mode.
        let f2 = rand_factors(t.dims(), 3, 22);
        engine.invalidate_partials();
        let got = engine.mttkrp(&f2, sweep[1]);
        assert_mat_approx_eq(&got, &t.mttkrp_reference(&f2, sweep[1]), 1e-9);
    }

    #[test]
    fn reference_engine_is_consistent() {
        let t = pseudo_tensor(&[6, 7, 8], 100, 14);
        let mut engine = ReferenceEngine::new(t.clone());
        let factors = rand_factors(t.dims(), 2, 23);
        let got = engine.mttkrp(&factors, 1);
        assert_mat_approx_eq(&got, &t.mttkrp_reference(&factors, 1), 0.0);
        assert!((engine.norm_sq() - t.norm_sq()).abs() < 1e-12);
    }

    #[test]
    fn forced_accum_strategies_are_respected() {
        let t = pseudo_tensor(&[10, 9, 8], 400, 20);
        for (strategy, expect) in [
            (AccumStrategy::Privatized, ResolvedAccum::Privatized),
            (AccumStrategy::Atomic, ResolvedAccum::Atomic),
        ] {
            let mut opts = StefOptions::new(3);
            opts.accum = strategy;
            let engine = Stef::prepare(&t, opts);
            for level in 1..3 {
                assert_eq!(engine.resolved_accum(level), expect);
            }
            check_engine_against_reference(engine, &t, 3, 21);
        }
    }

    #[test]
    fn auto_accum_follows_model_and_cap() {
        let t = pseudo_tensor(&[10, 9, 8], 400, 22);
        // Generous cap: Auto should agree with the model's preference.
        let mut opts = StefOptions::new(3);
        opts.num_threads = 4;
        let engine = Stef::prepare(&t, opts.clone());
        let profile = LevelProfile::from_csf(engine.csf(), 3, opts.cache_bytes);
        for level in 1..3 {
            let expect = if prefer_privatized(&profile, level, 4) {
                ResolvedAccum::Privatized
            } else {
                ResolvedAccum::Atomic
            };
            assert_eq!(engine.resolved_accum(level), expect, "level {level}");
        }
        // A 1-byte cap forces atomics no matter what the model says.
        opts.privatize_cap_bytes = 1;
        let capped = Stef::prepare(&t, opts);
        for level in 1..3 {
            assert_eq!(capped.resolved_accum(level), ResolvedAccum::Atomic);
        }
    }

    #[test]
    fn engine_sweeps_never_grow_the_workspace() {
        let t = pseudo_tensor(&[16, 12, 10, 8], 900, 23);
        let mut engine = Stef::prepare(&t, StefOptions::new(6));
        let factors = rand_factors(t.dims(), 6, 24);
        for _ in 0..3 {
            for mode in engine.sweep_order() {
                let _ = engine.mttkrp(&factors, mode);
            }
        }
        assert_eq!(engine.workspace_alloc_events(), 0);
        assert!(engine.workspace_bytes() > 0);
    }

    #[test]
    fn telemetry_stats_match_sweep_counters() {
        let t = pseudo_tensor(&[12, 10, 8], 500, 30);
        let mut opts = StefOptions::new(4);
        opts.memo = MemoPolicy::SaveAll;
        let mut engine = Stef::prepare(&t, opts);
        let factors = rand_factors(t.dims(), 4, 31);
        for mode in engine.sweep_order() {
            let _ = engine.mttkrp(&factors, mode);
        }
        // A fresh CPD-style sweep takes exactly the paths count_sweep
        // models, so the per-mode measurements must agree to the element.
        let expected = crate::counters::count_sweep(engine.csf(), &engine.plan().save, 4);
        let order = engine.csf().mode_order().to_vec();
        for (level, &mode) in order.iter().enumerate() {
            let stats = engine.last_mode_stats(mode).expect("stef is instrumented");
            assert_eq!(stats.level, level);
            assert!(
                (stats.reads - expected.per_mode[level].0).abs() < 1e-9,
                "mode {mode}: reads {} vs counted {}",
                stats.reads,
                expected.per_mode[level].0
            );
            assert!((stats.writes - expected.per_mode[level].1).abs() < 1e-9);
            assert!(stats.fibers > 0);
            let (pr, pw) = engine.predicted_mode_traffic(mode).expect("modeled");
            assert!(pr.is_finite() && pw.is_finite() && pr > 0.0 && pw > 0.0);
        }
        assert!(engine.telemetry_runtime_counters().is_some());
    }

    #[test]
    fn build_engine_honors_explicit_choices() {
        let t = pseudo_tensor(&[12, 10, 8], 400, 50);
        let mut opts = StefOptions::new(3);
        opts.engine = crate::options::EngineChoice::Csf;
        assert_eq!(build_engine(&t, opts.clone()).unwrap().name(), "stef");
        opts.engine = crate::options::EngineChoice::Alto;
        let mut engine = build_engine(&t, opts).unwrap();
        assert_eq!(engine.name(), "alto");
        let factors = rand_factors(t.dims(), 3, 51);
        for mode in engine.sweep_order() {
            let got = engine.mttkrp(&factors, mode);
            assert_mat_approx_eq(&got, &t.mttkrp_reference(&factors, mode), 1e-9);
        }
    }

    #[test]
    fn auto_picks_alto_on_irregular_hypersparse() {
        // Huge mode lengths, few nonzeros: fibers barely collapse, so
        // the CSF pays its structure walk for nothing while the
        // linearized stream reads 2 words per nnz. A small cache makes
        // factor traffic demand-bound for both, isolating the
        // structure-overhead difference the model prices.
        let t = pseudo_tensor(&[1 << 17, 1 << 17, 1 << 17], 3000, 52);
        let mut opts = StefOptions::new(8);
        opts.engine = crate::options::EngineChoice::Auto;
        opts.cache_bytes = (1 << 16) * 8;
        let mut engine = build_engine(&t, opts).unwrap();
        assert_eq!(engine.name(), "alto", "model should pick the linearized engine");
        let factors = rand_factors(t.dims(), 8, 53);
        let got = engine.mttkrp(&factors, 0);
        assert_mat_approx_eq(&got, &t.mttkrp_reference(&factors, 0), 1e-9);
    }

    #[test]
    fn auto_picks_csf_on_dense_regular() {
        // Strong fiber collapse — a small pool of (i, j) pairs, each with
        // many k entries — is exactly where memoized CSF traffic drops
        // far below the per-nonzero linearized stream: the CSF reads one
        // factor row per *fiber* while ALTO reads one per *nonzero*.
        let mut t = CooTensor::new(vec![64, 64, 512]);
        let mut x = 0x9e3779b97f4a7c15u64;
        let mut rng = move || {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            x >> 33
        };
        for _ in 0..500 {
            let i = (rng() % 64) as u32;
            let j = (rng() % 64) as u32;
            for _ in 0..64 {
                let k = (rng() % 512) as u32;
                t.push(&[i, j, k], (rng() % 9) as f64 * 0.3 + 0.4);
            }
        }
        t.sort_dedup();
        let mut opts = StefOptions::new(8);
        opts.engine = crate::options::EngineChoice::Auto;
        opts.cache_bytes = (1 << 13) * 8;
        let engine = build_engine(&t, opts).unwrap();
        assert_eq!(engine.name(), "stef", "model should keep the CSF engine");
    }

    #[test]
    fn auto_falls_back_to_csf_past_128_index_bits() {
        // 9 × 15-bit modes = 135 bits: the linearized layout cannot
        // represent this tensor, so auto must keep CSF no matter what
        // the model would have said.
        let mut t = CooTensor::new(vec![1 << 15; 9]);
        t.push(&[0, 5, 9, 2, 1, 6, 8, 3, 4], 1.0);
        t.push(&[(1 << 15) - 1, 4, 3, 2, 1, 0, 0, 1, 2], 2.0);
        t.push(&[7, (1 << 15) - 1, 0, 0, 3, 5, 2, 9, 9], 3.0);
        t.sort_dedup();
        let mut opts = StefOptions::new(2);
        opts.engine = crate::options::EngineChoice::Auto;
        assert_eq!(build_engine(&t, opts).unwrap().name(), "stef");
    }

    #[test]
    fn plan_reports_partial_bytes() {
        let t = pseudo_tensor(&[10, 10, 10], 500, 15);
        let mut opts = StefOptions::new(4);
        opts.memo = MemoPolicy::SaveAll;
        let engine = Stef::prepare(&t, opts);
        assert!(engine.partial_bytes() > 0);
        assert!(engine.csf_and_factor_bytes() > 0);
        let mut opts2 = StefOptions::new(4);
        opts2.memo = MemoPolicy::SaveNone;
        let engine2 = Stef::prepare(&t, opts2);
        assert_eq!(engine2.partial_bytes(), 0);
    }
}
