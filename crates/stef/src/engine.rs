//! The STeF engine: model-driven preparation plus per-mode MTTKRP
//! dispatch, and the [`MttkrpEngine`] trait every algorithm in this
//! workspace (STeF, STeF2, all baselines, the COO reference) implements
//! so that the CPD driver and the benchmark harness treat them uniformly.

use crate::alto::AltoEngine;
use crate::kernels::{mode0_with, modeu_with, KernelCtx, ResolvedAccum};
use crate::model::{
    best_memo_set, choose_plan, fit_memory_budget, op_count_memo_set, prefer_privatized,
    AltoProfile, DegradationEvent, LevelProfile, MemoPlan,
};
use crate::options::{AccumStrategy, MemoPolicy, ModeSwitchPolicy, StefOptions};
use crate::partials::PartialStore;
use crate::runtime::{Executor, RuntimeCounters};
use crate::schedule::Schedule;
use crate::telemetry::ModeStats;
use crate::workspace::Workspace;
use linalg::par::Fanout;
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
    /// normalization and Gram after each MTTKRP) and drains trace spans
    /// from. Every engine that fans out returns the pool it fans out on,
    /// so the update honours the run's width, cancel token, counters and
    /// span capture; the default, for engines that never fan out, is the
    /// width-only [`crate::runtime::global`] pool, which carries no run
    /// state.
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

/// Builds the engine `opts.engine` selects, and only that engine.
///
/// Every choice goes through one preparation path: the input is checked
/// once and one [`Executor`] created, which the built engine owns.
/// `Alto` then linearizes. `Csf` and `Auto` first plan the CSF engine
/// from §IV-C level profiles alone: the CSF in mode-length order,
/// Algorithm 9's swapped profile, the memo set, the accumulation and
/// the memory-budget fit. `Auto` compares that plan's
/// predicted traffic with [`crate::model::AltoProfile`]'s price of the
/// linearized layout and builds whichever moves less data; when ALTO
/// wins, no swapped CSF, schedule, partial store or CSF workspace is
/// built. Tensors whose interleaved index would exceed 128 bits are
/// never eligible for the linearized engine — `Auto` silently keeps CSF
/// for them.
pub fn build_engine(
    coo: &CooTensor,
    opts: StefOptions,
) -> Result<Box<dyn MttkrpEngine + Send>, crate::StefError> {
    use crate::options::EngineChoice;
    let exec = prepare_input(coo, &opts)?;
    if opts.engine == EngineChoice::Alto {
        return Ok(Box::new(AltoEngine::build(coo, opts, exec)?));
    }
    let plan = CsfPlan::new(coo, &opts, &exec)?;
    if opts.engine == EngineChoice::Auto {
        let alto_wins = sptensor::index_bits_for(coo.dims()) <= 128
            && AltoProfile::new(coo.dims(), coo.nnz(), opts.rank, opts.cache_bytes).total_traffic()
                < plan.plan.predicted;
        let picked = if alto_wins { "alto" } else { "csf" };
        crate::metrics::counter(
            "stef_engine_choice_total",
            "Engines picked by --engine auto's Sec. IV-C traffic bid",
            &[("engine", picked)],
        )
        .inc();
        if alto_wins {
            drop(plan);
            return Ok(Box::new(AltoEngine::build(coo, opts, exec)?));
        }
    }
    Ok(Box::new(Stef::build(coo, opts, plan, exec)?))
}

/// Rejects input no engine accepts, with a typed
/// [`crate::StefError::Input`].
pub(crate) fn check_input(coo: &CooTensor, rank: usize) -> Result<(), crate::StefError> {
    let problem = if rank < 1 {
        "rank must be positive".to_string()
    } else if coo.nnz() == 0 {
        "empty tensors are not supported".to_string()
    } else if coo.ndim() < 2 {
        format!("need at least 2 modes, got {}", coo.ndim())
    } else if !crate::recover::slice_is_finite(coo.values()) {
        "tensor contains non-finite values".to_string()
    } else {
        return Ok(());
    };
    Err(crate::StefError::Input(problem))
}

/// The typed error for an arena of `required` bytes that `budget` (or
/// the allocator) cannot hold.
fn over_budget(budget: usize) -> impl Fn(usize) -> crate::StefError {
    move |required| crate::StefError::BudgetExceeded { required, budget }
}

/// The first step of every engine's preparation: checks the input and
/// creates the executor the engine will own. The pool exists before
/// planning so Algorithm 9's swap count runs on it; the engine installs
/// the cancel token once preparation is done.
pub(crate) fn prepare_input(
    coo: &CooTensor,
    opts: &StefOptions,
) -> Result<Executor, crate::StefError> {
    check_input(coo, opts.rank)?;
    Ok(Executor::with_numa(opts.workers(), opts.numa))
}

/// How each level of an engine accumulates into its output, fitted into
/// `StefOptions::memory_budget` together with the memo set. Both engines
/// resolve it the same way, each on its own profile.
pub(crate) struct Accumulation {
    /// The first level that scatters into a shared output; the levels
    /// before it own their rows and report `Privatized`.
    first_consumer: usize,
    /// Memoization flags after the budget fit.
    pub(crate) save: Vec<bool>,
    pub(crate) accum: Vec<ResolvedAccum>,
    /// Rows per logical thread of the privatized-output pool.
    priv_rows: usize,
    pub(crate) degradations: Vec<DegradationEvent>,
}

impl Accumulation {
    /// Resolves `opts.accum` for every level from `first_consumer` on —
    /// a hard privatization cap, then the model's cost comparison on
    /// `profile` — and fits `save` and the privatized pool into the
    /// budget with [`fit_memory_budget`] (degrade, don't die).
    /// `fixed_bytes` is the floor no relaxation frees.
    pub(crate) fn plan(
        profile: &LevelProfile,
        first_consumer: usize,
        save: Vec<bool>,
        fixed_bytes: usize,
        opts: &StefOptions,
    ) -> Result<Self, crate::StefError> {
        let (d, nthreads, budget) = (profile.dims.len(), opts.threads(), opts.memory_budget);
        let privatized = (0..d)
            .map(|l| match opts.accum {
                _ if l < first_consumer => false,
                AccumStrategy::Privatized => true,
                AccumStrategy::Atomic => false,
                AccumStrategy::Auto => {
                    nthreads * profile.dims[l] * opts.rank * std::mem::size_of::<f64>()
                        <= opts.privatize_cap_bytes
                        && prefer_privatized(profile, l, nthreads)
                }
            })
            .collect();
        let fit = fit_memory_budget(profile, save, privatized, nthreads, fixed_bytes, budget)
            .map_err(over_budget(budget))?;
        let priv_rows = (0..d)
            .filter(|&l| fit.privatized[l])
            .map(|l| profile.dims[l])
            .max();
        let accum = (0..d)
            .map(|l| {
                if fit.privatized[l] || l < first_consumer {
                    ResolvedAccum::Privatized
                } else {
                    ResolvedAccum::Atomic
                }
            })
            .collect();
        Ok(Accumulation {
            first_consumer,
            save: fit.save,
            accum,
            priv_rows: priv_rows.unwrap_or(0),
            degradations: fit.events,
        })
    }

    /// Allocates the kernel workspace this accumulation needs and counts
    /// the resolved strategies of the engine being built.
    pub(crate) fn workspace(&self, opts: &StefOptions) -> Result<Workspace, crate::StefError> {
        for accum in &self.accum[self.first_consumer..] {
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
        Workspace::try_new(self.accum.len(), opts.rank, opts.threads(), self.priv_rows)
            .map_err(over_budget(opts.memory_budget))
    }
}

/// The CSF engine's preparation decision (paper §IV-B/C, Algorithm 9),
/// made from level profiles alone: the only structure it builds is the
/// CSF in mode-length order, from which Algorithm 9 counts the swapped
/// order's fibers.
pub(crate) struct CsfPlan {
    /// The CSF in mode-length order.
    pub(crate) base_csf: Csf,
    /// Level profile of the chosen order.
    pub(crate) profile: LevelProfile,
    /// The chosen order, save set and predictions, after the budget fit.
    pub(crate) plan: MemoPlan,
    accum: Accumulation,
}

impl CsfPlan {
    /// Plans the CSF engine for `coo` (already checked), counting
    /// Algorithm 9's swap on `exec`.
    pub(crate) fn new(
        coo: &CooTensor,
        opts: &StefOptions,
        exec: &dyn Fanout,
    ) -> Result<Self, crate::StefError> {
        let d = coo.ndim();
        let base_csf = build_csf(coo, &sort_modes_by_length(coo.dims()));
        let base = LevelProfile::from_csf(&base_csf, opts.rank, opts.cache_bytes);
        let swapped = || {
            LevelProfile::swapped_from_csf_on(exec, &base_csf, opts.rank, opts.cache_bytes)
                .expect("the cancel token is installed after preparation")
        };

        // --- order decision (§II-E + §IV-B) ---
        let (swap, profile, predicted_other_order) = match opts.mode_switch {
            ModeSwitchPolicy::Never => (false, base, f64::NAN),
            ModeSwitchPolicy::Always => (true, swapped(), f64::NAN),
            policy => {
                let swapped = swapped();
                let model = choose_plan(&base, &swapped);
                let swap = model.swap_last_two != (policy == ModeSwitchPolicy::OppositeOfModel);
                // The best traffic of the order not taken.
                let other = if swap == model.swap_last_two {
                    model.predicted_other_order
                } else {
                    model.predicted
                };
                (swap, if swap { swapped } else { base }, other)
            }
        };

        // --- memoization decision (§IV-A) on the chosen order ---
        let memoizable = |l: usize| (1..d - 1).contains(&l);
        let save: Vec<bool> = match &opts.memo {
            MemoPolicy::DataMovementModel => best_memo_set(&profile).0,
            MemoPolicy::SaveAll => (0..d).map(memoizable).collect(),
            MemoPolicy::SaveNone => vec![false; d],
            MemoPolicy::OpCountModel => op_count_memo_set(&profile),
            MemoPolicy::Fixed(flags) => (0..d)
                .map(|l| memoizable(l) && flags.get(l).copied().unwrap_or(false))
                .collect(),
        };

        // --- accumulation per consumer level, then the budget fit ---
        let fixed = Workspace::fixed_bytes(d, opts.rank, opts.threads());
        let accum = Accumulation::plan(&profile, 1, save, fixed, opts)?;
        let plan = MemoPlan {
            swap_last_two: swap,
            save: accum.save.clone(),
            predicted: profile.total_traffic(&accum.save),
            predicted_other_order,
        };
        Ok(CsfPlan {
            base_csf,
            profile,
            plan,
            accum,
        })
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
        let exec = prepare_input(coo, &opts)?;
        let plan = CsfPlan::new(coo, &opts, &exec)?;
        Stef::build(coo, opts, plan, exec)
    }

    /// [`Stef::try_prepare`] on a pool the caller owns, so several
    /// engines of one run share one pool (`num_threads` then sets only
    /// the schedule's logical threads). Install the run's cancel token
    /// on `exec` after preparation, as the engine does with
    /// `StefOptions::cancel`.
    ///
    /// # Panics
    /// Panics if a token already on `exec` fires during Algorithm 9's
    /// swap count.
    pub fn try_prepare_on(
        coo: &CooTensor,
        opts: StefOptions,
        exec: &Executor,
    ) -> Result<Self, crate::StefError> {
        check_input(coo, opts.rank)?;
        let plan = CsfPlan::new(coo, &opts, exec)?;
        Stef::build(coo, opts, plan, exec.clone())
    }

    /// Builds what `planned` decided, on `exec`: the CSF in the chosen
    /// order (rebuilt only when the plan swaps the last two levels), the
    /// schedule, the partial store and the workspace.
    fn build(
        coo: &CooTensor,
        opts: StefOptions,
        planned: CsfPlan,
        exec: Executor,
    ) -> Result<Self, crate::StefError> {
        let (d, nthreads) = (coo.ndim(), opts.threads());
        let (plan, profile, accum) = (planned.plan, planned.profile, planned.accum);
        let csf = if plan.swap_last_two {
            let mut order = planned.base_csf.mode_order().to_vec();
            order.swap(d - 1, d - 2);
            drop(planned.base_csf);
            build_csf(coo, &order)
        } else {
            planned.base_csf
        };
        let sched = Schedule::build(&csf, nthreads, opts.load_balance);
        let partials = if plan.save.iter().any(|&s| s) {
            PartialStore::try_allocate(&csf, &plan.save, nthreads, opts.rank)
                .map_err(over_budget(opts.memory_budget))?
        } else {
            PartialStore::empty(d, nthreads, opts.rank)
        };
        let ws = accum.workspace(&opts)?;
        if let Some(token) = &opts.cancel {
            exec.set_cancel(token.clone());
        }

        Ok(Stef {
            sched,
            partials,
            predicted_by_level: profile.traffic_by_level(&plan.save),
            plan,
            opts,
            dims: coo.dims().to_vec(),
            level_of_mode: inverse_permutation(csf.mode_order()),
            norm_sq: coo.norm_sq(),
            partials_fresh: false,
            memo_disabled: false,
            accum_by_level: accum.accum,
            ws,
            exec,
            csf,
            degradations: accum.degradations,
            last_stats: vec![None; d],
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
