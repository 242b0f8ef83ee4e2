//! The adaptive linearized (ALTO-style) MTTKRP engine.
//!
//! Where [`crate::Stef`] compresses the tensor into a CSF tree and
//! memoizes partial contractions, this engine stores each non-zero as a
//! single bit-interleaved linearized index ([`sptensor::Linearized`])
//! plus its value, and runs MTTKRP as one flat sweep over the sorted
//! non-zero stream ([`crate::kernels_alto`]). There is no fiber
//! hierarchy to exploit — and no fiber hierarchy to pay for: on
//! irregular hypersparse tensors whose fibers barely collapse (average
//! fiber length ≈ 1) the CSF's per-fiber structure walk is pure
//! overhead, while the linearized stream reads `idx_elems + 1` words
//! per non-zero no matter how pathological the sparsity pattern is.
//!
//! The §IV-C data-movement model prices both layouts
//! ([`crate::model::AltoProfile`] vs [`crate::model::LevelProfile`]);
//! [`crate::engine::build_engine`] uses that to pick the engine under
//! `--engine auto`. Every mode shares the one linearized copy — the
//! engine never permutes or rebuilds, so its preparation is one sort.

use crate::engine::{prepare_input, Accumulation};
use crate::kernels::ResolvedAccum;
use crate::kernels_alto::alto_mode_with;
use crate::model::{AltoProfile, DegradationEvent, LevelProfile};
use crate::options::StefOptions;
use crate::runtime::{Executor, RuntimeCounters};
use crate::telemetry::ModeStats;
use crate::workspace::Workspace;
use linalg::Mat;
use sptensor::{CooTensor, Linearized};

/// Linearized-format MTTKRP engine. See the module docs.
pub struct AltoEngine {
    lin: Linearized,
    dims: Vec<usize>,
    norm_sq: f64,
    opts: StefOptions,
    /// Conflict strategy per *original mode* (the linearized layout does
    /// not permute modes).
    accum_by_mode: Vec<ResolvedAccum>,
    ws: Workspace,
    exec: Executor,
    degradations: Vec<DegradationEvent>,
    /// Telemetry: measured stats of the most recent MTTKRP per mode.
    last_stats: Vec<Option<ModeStats>>,
    /// The pricing profile preparation used — kept for
    /// `predicted_mode_traffic`.
    profile: AltoProfile,
}

impl AltoEngine {
    /// Builds the engine: linearizes + sorts the tensor, resolves the
    /// per-mode conflict strategy with the same cost model and caps the
    /// CSF engine uses, and sizes the workspace/executor.
    ///
    /// # Panics
    /// Panics on invalid input; fallible callers use
    /// [`AltoEngine::try_prepare`].
    pub fn prepare(coo: &CooTensor, opts: StefOptions) -> Self {
        match Self::try_prepare(coo, opts) {
            Ok(engine) => engine,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible [`AltoEngine::prepare`]. Tensors whose coordinate bits
    /// exceed 128 (the widest supported linearized index) are rejected
    /// with `StefError::Input` — `--engine auto` never selects the
    /// linearized engine for them.
    pub fn try_prepare(coo: &CooTensor, opts: StefOptions) -> Result<Self, crate::StefError> {
        let exec = prepare_input(coo, &opts)?;
        Self::build(coo, opts, exec)
    }

    /// Builds the engine on `exec` for checked input (see
    /// [`crate::engine::build_engine`]).
    pub(crate) fn build(
        coo: &CooTensor,
        opts: StefOptions,
        exec: Executor,
    ) -> Result<Self, crate::StefError> {
        let d = coo.ndim();
        let lin = Linearized::build(coo).map_err(|bits| {
            crate::StefError::Input(format!(
                "tensor coordinates need {bits} linearized index bits; \
                 the alto engine supports at most 128"
            ))
        })?;
        let profile = AltoProfile::new(coo.dims(), coo.nnz(), opts.rank, opts.cache_bytes);
        // The sweep updates the output once per non-zero (no fibers
        // collapse), so every mode has nnz "fibers" and scatters. With no
        // partials, the budget can only flip privatized modes to atomic.
        let flat = LevelProfile {
            dims: coo.dims().to_vec(),
            fibers: vec![coo.nnz(); d],
            rank: opts.rank,
            cache_elems: profile.cache_elems,
        };
        let fixed = Workspace::fixed_bytes(d, opts.rank, opts.threads()) + lin.memory_bytes();
        let accum = Accumulation::plan(&flat, 0, vec![false; d], fixed, &opts)?;
        let ws = accum.workspace(&opts)?;
        if let Some(token) = &opts.cancel {
            exec.set_cancel(token.clone());
        }

        Ok(AltoEngine {
            dims: coo.dims().to_vec(),
            norm_sq: coo.norm_sq(),
            opts,
            accum_by_mode: accum.accum,
            ws,
            exec,
            degradations: accum.degradations,
            last_stats: vec![None; d],
            lin,
            profile,
        })
    }

    /// The linearized representation (sorted bit-interleaved indices).
    pub fn linearized(&self) -> &Linearized {
        &self.lin
    }

    /// Engine options.
    pub fn options(&self) -> &StefOptions {
        &self.opts
    }

    /// The conflict strategy preparation resolved for an original mode.
    pub fn resolved_accum(&self, mode: usize) -> ResolvedAccum {
        self.accum_by_mode[mode]
    }

    /// Workspace arena growths since preparation — 0 is the kernels'
    /// no-steady-state-allocation guarantee.
    pub fn workspace_alloc_events(&self) -> u64 {
        self.ws.alloc_events()
    }

    /// Bytes held by the linearized representation.
    pub fn format_bytes(&self) -> usize {
        self.lin.memory_bytes()
    }

    /// The engine's execution substrate.
    pub fn executor(&self) -> &Executor {
        &self.exec
    }

    /// Telemetry: tallies the traffic of the pass just executed. O(1)
    /// float math per MTTKRP — never on the kernel hot path.
    fn record_mode_stats(&mut self, mode: usize) {
        let (reads, writes) = crate::counters::count_alto_mode(
            self.lin.nnz(),
            self.dims.len(),
            self.lin.index_elems(),
            self.opts.rank,
        );
        let stream = self.lin.nnz() as f64 * (self.lin.index_elems() as f64 + 1.0);
        self.last_stats[mode] = Some(ModeStats {
            // The linearized layout keeps natural mode order.
            level: mode,
            nnz: self.lin.nnz() as u64,
            // No fiber hierarchy: every non-zero is its own leaf.
            fibers: self.lin.nnz() as u64,
            flops: 2.0 * (reads - stream).max(0.0),
            reads,
            writes,
        });
    }
}

impl crate::engine::MttkrpEngine for AltoEngine {
    fn dims(&self) -> &[usize] {
        &self.dims
    }

    fn name(&self) -> String {
        "alto".into()
    }

    fn sweep_order(&self) -> Vec<usize> {
        // No memoization, no order constraint: natural order.
        (0..self.dims.len()).collect()
    }

    fn norm_sq(&self) -> f64 {
        self.norm_sq
    }

    fn mttkrp(&mut self, factors: &[Mat], mode: usize) -> Mat {
        assert_eq!(factors.len(), self.dims.len());
        let refs: Vec<&Mat> = factors.iter().collect();
        let mut out = Mat::zeros(self.dims[mode], self.opts.rank);
        alto_mode_with(
            &self.lin,
            &refs,
            mode,
            self.opts.threads(),
            self.accum_by_mode[mode],
            &self.exec,
            &mut self.ws,
            &mut out,
        );
        self.record_mode_stats(mode);
        out
    }

    fn degradations(&self) -> Vec<DegradationEvent> {
        self.degradations.clone()
    }

    fn last_mode_stats(&self, mode: usize) -> Option<ModeStats> {
        self.last_stats.get(mode).cloned().flatten()
    }

    fn predicted_mode_traffic(&self, mode: usize) -> Option<(f64, f64)> {
        if mode >= self.dims.len() {
            return None;
        }
        let t = self.profile.mode_traffic(mode);
        Some((t.reads, t.writes))
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::MttkrpEngine;
    use crate::options::AccumStrategy;
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

    #[test]
    fn matches_reference_on_every_mode() {
        let t = pseudo_tensor(&[30, 14, 9], 600, 1);
        let mut engine = AltoEngine::prepare(&t, StefOptions::new(5));
        let factors = rand_factors(t.dims(), 5, 2);
        for mode in engine.sweep_order() {
            let got = engine.mttkrp(&factors, mode);
            let expect = t.mttkrp_reference(&factors, mode);
            assert_mat_approx_eq(&got, &expect, 1e-9);
        }
    }

    #[test]
    fn matches_reference_4d_5d_and_2d() {
        for dims in [vec![20usize, 17], vec![9, 6, 12, 7], vec![5, 6, 7, 4, 6]] {
            let t = pseudo_tensor(&dims, 500, 3);
            let mut engine = AltoEngine::prepare(&t, StefOptions::new(4));
            let factors = rand_factors(t.dims(), 4, 4);
            for mode in engine.sweep_order() {
                let got = engine.mttkrp(&factors, mode);
                assert_mat_approx_eq(&got, &t.mttkrp_reference(&factors, mode), 1e-9);
            }
        }
    }

    #[test]
    fn forced_accum_strategies_are_respected() {
        let t = pseudo_tensor(&[10, 9, 8], 400, 5);
        for (strategy, expect) in [
            (AccumStrategy::Privatized, ResolvedAccum::Privatized),
            (AccumStrategy::Atomic, ResolvedAccum::Atomic),
        ] {
            let mut opts = StefOptions::new(3);
            opts.accum = strategy;
            let mut engine = AltoEngine::prepare(&t, opts);
            for mode in 0..3 {
                assert_eq!(engine.resolved_accum(mode), expect);
            }
            let factors = rand_factors(t.dims(), 3, 6);
            for mode in 0..3 {
                let got = engine.mttkrp(&factors, mode);
                assert_mat_approx_eq(&got, &t.mttkrp_reference(&factors, mode), 1e-9);
            }
        }
    }

    #[test]
    fn privatize_cap_forces_atomics() {
        let t = pseudo_tensor(&[10, 9, 8], 300, 7);
        let mut opts = StefOptions::new(3);
        opts.privatize_cap_bytes = 1;
        let engine = AltoEngine::prepare(&t, opts);
        for mode in 0..3 {
            assert_eq!(engine.resolved_accum(mode), ResolvedAccum::Atomic);
        }
    }

    #[test]
    fn budget_degrades_privatized_to_atomic_with_events() {
        let t = pseudo_tensor(&[64, 48, 40], 800, 8);
        let mut opts = StefOptions::new(8);
        opts.accum = AccumStrategy::Privatized;
        opts.num_threads = 4;
        // Room for the fixed arenas + format but not the privatized pool.
        let fixed = Workspace::fixed_bytes(3, 8, 4);
        let lin_bytes = Linearized::build(&t).unwrap().memory_bytes();
        opts.memory_budget = fixed + lin_bytes + 1024;
        let mut engine = AltoEngine::try_prepare(&t, opts).expect("degrades, not dies");
        assert!(
            !engine.degradations().is_empty(),
            "expected PrivatizedToAtomic events"
        );
        // Still correct after degradation.
        let factors = rand_factors(t.dims(), 8, 9);
        let got = engine.mttkrp(&factors, 0);
        assert_mat_approx_eq(&got, &t.mttkrp_reference(&factors, 0), 1e-9);
    }

    #[test]
    fn budget_prices_the_padded_privatized_pool() {
        // 63 rows × rank 5 = 315 elements per thread, which the workspace
        // pads to 320. A budget with room for exactly 4·315 elements of
        // pool must not admit the padded 4·320: mode 0, the longest, is
        // flipped to atomic first, and the rest then fits.
        let t = pseudo_tensor(&[63, 48, 40], 700, 16);
        let mut opts = StefOptions::new(5);
        opts.accum = AccumStrategy::Privatized;
        opts.num_threads = 4;
        let lin_bytes = Linearized::build(&t).unwrap().memory_bytes();
        opts.memory_budget = Workspace::fixed_bytes(3, 5, 4) + lin_bytes + 4 * 63 * 5 * 8;
        let engine = AltoEngine::try_prepare(&t, opts.clone()).expect("degrades, not dies");
        assert!(
            matches!(
                engine.degradations().first(),
                Some(DegradationEvent::PrivatizedToAtomic { level: 0, .. })
            ),
            "expected mode 0 flipped first, got {:?}",
            engine.degradations()
        );
        assert_eq!(engine.resolved_accum(0), ResolvedAccum::Atomic);
        assert!(engine.ws.bytes() + lin_bytes <= opts.memory_budget);
    }

    #[test]
    fn impossible_budget_is_a_typed_error() {
        let t = pseudo_tensor(&[10, 9, 8], 200, 10);
        let mut opts = StefOptions::new(4);
        opts.memory_budget = 8; // less than the fixed arenas
        match AltoEngine::try_prepare(&t, opts) {
            Err(crate::StefError::BudgetExceeded { .. }) => {}
            Err(other) => panic!("expected BudgetExceeded, got {other:?}"),
            Ok(_) => panic!("expected BudgetExceeded, got an engine"),
        }
    }

    #[test]
    fn rejects_bad_input_like_stef() {
        let t = pseudo_tensor(&[10, 9, 8], 200, 11);
        assert!(AltoEngine::try_prepare(&t, StefOptions::new(0)).is_err());
        let empty = CooTensor::new(vec![4, 4]);
        assert!(AltoEngine::try_prepare(&empty, StefOptions::new(2)).is_err());
    }

    #[test]
    fn telemetry_surface_is_populated() {
        let t = pseudo_tensor(&[12, 10, 8], 400, 12);
        let mut engine = AltoEngine::prepare(&t, StefOptions::new(4));
        let factors = rand_factors(t.dims(), 4, 13);
        for mode in engine.sweep_order() {
            let _ = engine.mttkrp(&factors, mode);
            let stats = engine.last_mode_stats(mode).expect("instrumented");
            assert_eq!(stats.level, mode);
            assert_eq!(stats.nnz as usize, engine.linearized().nnz());
            let (r, w) = crate::counters::count_alto_mode(
                engine.linearized().nnz(),
                3,
                engine.linearized().index_elems(),
                4,
            );
            assert_eq!(stats.reads, r);
            assert_eq!(stats.writes, w);
            let (pr, pw) = engine.predicted_mode_traffic(mode).expect("modeled");
            assert!(pr.is_finite() && pw.is_finite() && pr > 0.0 && pw > 0.0);
        }
        assert_eq!(engine.telemetry_alloc_events(), 0);
        assert!(engine.telemetry_runtime_counters().is_some());
    }

    #[test]
    fn sweeps_never_grow_the_workspace() {
        let t = pseudo_tensor(&[16, 12, 10, 8], 900, 14);
        let mut engine = AltoEngine::prepare(&t, StefOptions::new(6));
        let factors = rand_factors(t.dims(), 6, 15);
        for _ in 0..3 {
            for mode in engine.sweep_order() {
                let _ = engine.mttkrp(&factors, mode);
            }
        }
        assert_eq!(engine.workspace_alloc_events(), 0);
        assert!(engine.format_bytes() > 0);
    }
}
