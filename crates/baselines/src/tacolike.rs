//! TACO-style engine (Senanayake et al., OOPSLA 2020; paper baseline
//! `TACO`).
//!
//! TACO is a compiler; what its generated CPD code amounts to, and what
//! the STeF paper observes about it, is:
//!
//! * per-mode CSF kernels very similar to `splatt-all` (each mode's
//!   MTTKRP is a root-mode traversal over a representation rooted at
//!   that mode);
//! * **auto-tuning over scheduling chunk sizes**: TACO "uses auto-tuning
//!   across various chunk sizes and selects the best, paying a small
//!   preprocessing overhead for faster run time" (§VI-B) — the reason it
//!   beats `splatt-all` despite being "very similar".
//!
//! We reproduce that: each mode keeps several candidate schedules with
//! different task granularities (more logical tasks than physical
//! threads = finer chunks that the worker pool's dynamic claiming
//! balances), times each candidate once on the first calls, then locks
//! in the fastest.

use linalg::Mat;
use sptensor::{build_csf, sort_modes_by_length, CooTensor, Csf};
use std::time::Instant;
use stef::kernels::{mode0_with, KernelCtx};
use stef::{Executor, LoadBalance, MttkrpEngine, PartialStore, Schedule, Workspace};

/// Task-count multipliers tried by the auto-tuner (×physical threads).
const CHUNK_CANDIDATES: [usize; 4] = [1, 2, 4, 8];

struct ModeRep {
    csf: Csf,
    /// One schedule (and matching empty partial store) per candidate.
    candidates: Vec<(Schedule, PartialStore)>,
    /// Kernel scratch, sized for the candidate with the most tasks.
    ws: Workspace,
    /// Index into `candidates` once tuning has finished.
    chosen: Option<usize>,
    /// Best time seen per candidate during tuning.
    timings: Vec<Option<f64>>,
}

/// The TACO-like baseline engine.
pub struct TacoLike {
    dims: Vec<usize>,
    rank: usize,
    norm_sq: f64,
    reps: Vec<ModeRep>,
    /// Cumulative seconds spent on tuning decisions (the "small
    /// preprocessing overhead" the paper mentions).
    tuning_seconds: f64,
    exec: Executor,
}

impl TacoLike {
    /// Builds one representation per mode plus candidate schedules;
    /// MTTKRPs fan out on `exec`.
    pub fn prepare(coo: &CooTensor, rank: usize, nthreads: usize, exec: &Executor) -> Self {
        let nthreads = if nthreads == 0 {
            stef::runtime::default_threads()
        } else {
            nthreads
        };
        let d = coo.ndim();
        let base_order = sort_modes_by_length(coo.dims());
        let reps = (0..d)
            .map(|m| {
                let mut order = vec![m];
                order.extend(base_order.iter().copied().filter(|&x| x != m));
                let csf = build_csf(coo, &order);
                let candidates: Vec<(Schedule, PartialStore)> = CHUNK_CANDIDATES
                    .iter()
                    .map(|&mult| {
                        let tasks = (nthreads * mult).max(1);
                        (
                            Schedule::build(&csf, tasks, LoadBalance::SliceBased),
                            PartialStore::empty(d, tasks, rank),
                        )
                    })
                    .collect();
                let n = candidates.len();
                let max_tasks = candidates.iter().map(|(s, _)| s.nthreads()).max().unwrap_or(1);
                let ws = Workspace::new(d, rank, max_tasks, 0);
                ModeRep {
                    csf,
                    candidates,
                    ws,
                    chosen: None,
                    timings: vec![None; n],
                }
            })
            .collect();
        TacoLike {
            dims: coo.dims().to_vec(),
            rank,
            norm_sq: coo.norm_sq(),
            reps,
            tuning_seconds: 0.0,
            exec: exec.clone(),
        }
    }

    /// Seconds spent measuring candidates so far.
    pub fn tuning_seconds(&self) -> f64 {
        self.tuning_seconds
    }

    /// The chosen candidate index per mode (`None` = still tuning).
    pub fn chosen_chunks(&self) -> Vec<Option<usize>> {
        self.reps.iter().map(|r| r.chosen).collect()
    }

    fn run_candidate(
        rep: &mut ModeRep,
        cand: usize,
        factors: &[Mat],
        rank: usize,
        exec: &Executor,
    ) -> Mat {
        let order = rep.csf.mode_order().to_vec();
        let level_factors: Vec<&Mat> = order.iter().map(|&m| &factors[m]).collect();
        let (sched, partials) = &mut rep.candidates[cand];
        let ctx = KernelCtx::new(&rep.csf, sched, level_factors, rank);
        let mut out = Mat::zeros(rep.csf.level_dims()[0], rank);
        let views = partials.shared_views();
        mode0_with(&ctx, &views, exec, &mut rep.ws, &mut out);
        out
    }
}

impl MttkrpEngine for TacoLike {
    fn dims(&self) -> &[usize] {
        &self.dims
    }

    fn name(&self) -> String {
        "taco".into()
    }

    fn sweep_order(&self) -> Vec<usize> {
        (0..self.dims.len()).collect()
    }

    fn norm_sq(&self) -> f64 {
        self.norm_sq
    }

    fn mttkrp(&mut self, factors: &[Mat], mode: usize) -> Mat {
        let rank = self.rank;
        let rep = &mut self.reps[mode];
        if let Some(c) = rep.chosen {
            return Self::run_candidate(rep, c, factors, rank, &self.exec);
        }
        // Tuning phase: measure the next untimed candidate; once all are
        // timed, lock in the fastest. Results are identical regardless of
        // candidate (only the schedule differs), so tuning runs do double
        // duty as real MTTKRPs.
        let cand = rep
            .timings
            .iter()
            .position(|t| t.is_none())
            .expect("untimed candidate must exist while chosen is None");
        let t0 = Instant::now();
        let out = Self::run_candidate(rep, cand, factors, rank, &self.exec);
        let dt = t0.elapsed().as_secs_f64();
        rep.timings[cand] = Some(dt);
        self.tuning_seconds += dt;
        if rep.timings.iter().all(|t| t.is_some()) {
            let best = rep
                .timings
                .iter()
                .enumerate()
                .min_by(|a, b| a.1.unwrap().partial_cmp(&b.1.unwrap()).unwrap())
                .map(|(i, _)| i)
                .unwrap();
            rep.chosen = Some(best);
        }
        out
    }

    fn executor(&self) -> &Executor {
        &self.exec
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn matches_reference_during_and_after_tuning() {
        let dims = vec![12usize, 9, 10];
        let t = pseudo_tensor(&dims, 600, 1);
        let mut engine = TacoLike::prepare(&t, 3, 2, &Executor::new(2));
        let factors = rand_factors(&dims, 3, 2);
        // More calls than candidates: covers tuning and steady state.
        for round in 0..(CHUNK_CANDIDATES.len() + 2) {
            for mode in 0..dims.len() {
                let got = engine.mttkrp(&factors, mode);
                linalg::assert_mat_approx_eq(&got, &t.mttkrp_reference(&factors, mode), 1e-9);
                let _ = round;
            }
        }
        assert!(engine.chosen_chunks().iter().all(|c| c.is_some()));
        assert!(engine.tuning_seconds() > 0.0);
    }

    #[test]
    fn tuning_finishes_after_exactly_candidate_count_calls() {
        let t = pseudo_tensor(&[10, 10, 10], 300, 3);
        let mut engine = TacoLike::prepare(&t, 2, 2, &Executor::new(2));
        let factors = rand_factors(t.dims(), 2, 4);
        for i in 0..CHUNK_CANDIDATES.len() {
            assert!(engine.chosen_chunks()[0].is_none(), "call {i}");
            let _ = engine.mttkrp(&factors, 0);
        }
        assert!(engine.chosen_chunks()[0].is_some());
        assert!(engine.chosen_chunks()[1].is_none(), "mode 1 untouched");
    }
}
