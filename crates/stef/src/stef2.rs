//! STeF2: STeF plus a second CSF rooted at the base CSF's leaf mode
//! (paper §VI-B).
//!
//! The base CSF's leaf-mode MTTKRP is an MTTV-style scatter — the kernel
//! the paper identifies as STeF's weak spot (e.g. on `nell-2`). STeF2
//! spends one extra tensor copy to hold a second CSF whose *root* is that
//! mode, so the leaf-mode MTTKRP becomes a cheap root-mode (TTM + mTTV)
//! traversal with per-slice output ownership. All other modes still go
//! through the memoized base engine.

use crate::engine::{MttkrpEngine, Stef};
use crate::kernels::{mode0_with, KernelCtx};
use crate::options::StefOptions;
use crate::partials::PartialStore;
use crate::runtime::RuntimeCounters;
use crate::schedule::Schedule;
use crate::telemetry::ModeStats;
use crate::workspace::Workspace;
use linalg::Mat;
use sptensor::{build_csf, CooTensor, Csf};

/// STeF with a second CSF for the leaf mode.
pub struct Stef2 {
    base: Stef,
    /// Second CSF: root = base leaf mode, remaining levels by length.
    csf2: Csf,
    sched2: Schedule,
    /// Empty store — the second CSF never memoizes.
    partials2: PartialStore,
    /// Kernel scratch for the leaf pass, sized once at preparation.
    ws2: Workspace,
    /// The original mode served by the second CSF.
    leaf_mode: usize,
    /// Telemetry: measured stats of the most recent leaf-mode pass
    /// (the base engine covers every other mode).
    leaf_stats: Option<ModeStats>,
    /// Telemetry: model-predicted `(reads, writes)` of the leaf mode
    /// as a root pass over the second CSF.
    leaf_predicted: (f64, f64),
}

impl Stef2 {
    /// Prepares the base STeF engine and the auxiliary CSF, panicking on
    /// invalid inputs. See [`Stef2::try_prepare`] for the fallible form.
    pub fn prepare(coo: &CooTensor, opts: StefOptions) -> Self {
        match Self::try_prepare(coo, opts) {
            Ok(engine) => engine,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible preparation: surfaces invalid options and memory-budget
    /// rejections as typed errors instead of panicking.
    pub fn try_prepare(coo: &CooTensor, opts: StefOptions) -> Result<Self, crate::StefError> {
        let base = Stef::try_prepare(coo, opts.clone())?;
        let d = coo.ndim();
        let base_order = base.csf().mode_order().to_vec();
        let leaf_mode = base_order[d - 1];
        // Root the second CSF at the base leaf mode; keep the rest in the
        // base's relative order (already length-sorted).
        let mut order2 = vec![leaf_mode];
        order2.extend(base_order[..d - 1].iter().copied());
        let csf2 = build_csf(coo, &order2);
        let nthreads = base.schedule().nthreads();
        let sched2 = Schedule::build(&csf2, nthreads, opts.load_balance);
        let partials2 = PartialStore::empty(d, nthreads, opts.rank);
        let ws2 = Workspace::new(d, opts.rank, nthreads, 0);
        let profile2 = crate::model::LevelProfile::from_csf(&csf2, opts.rank, opts.cache_bytes);
        let leaf_predicted = profile2.traffic_by_level(&vec![false; d])[0];
        Ok(Stef2 {
            base,
            csf2,
            sched2,
            partials2,
            ws2,
            leaf_mode,
            leaf_stats: None,
            leaf_predicted,
        })
    }

    /// The underlying base engine.
    pub fn base(&self) -> &Stef {
        &self.base
    }

    /// Bytes of the *additional* CSF copy STeF2 carries.
    pub fn second_csf_bytes(&self) -> usize {
        self.csf2.memory_bytes()
    }

    /// Model-predicted traffic saved per CPD iteration by routing the
    /// leaf mode through the second CSF (positive = STeF2 should win;
    /// see [`crate::model::stef2_leaf_gain`]).
    pub fn predicted_leaf_gain(&self) -> f64 {
        let opts = self.base.options();
        let base_profile =
            crate::model::LevelProfile::from_csf(self.base.csf(), opts.rank, opts.cache_bytes);
        let second_profile =
            crate::model::LevelProfile::from_csf(&self.csf2, opts.rank, opts.cache_bytes);
        crate::model::stef2_leaf_gain(&base_profile, &second_profile)
    }
}

impl MttkrpEngine for Stef2 {
    fn dims(&self) -> &[usize] {
        self.base.dims()
    }

    fn name(&self) -> String {
        "stef2".into()
    }

    fn sweep_order(&self) -> Vec<usize> {
        self.base.sweep_order()
    }

    fn norm_sq(&self) -> f64 {
        self.base.norm_sq()
    }

    fn mttkrp(&mut self, factors: &[Mat], mode: usize) -> Mat {
        if mode != self.leaf_mode {
            return self.base.mttkrp(factors, mode);
        }
        // Root-mode pass on the second CSF (no memoization), on the
        // base engine's pool.
        let rank = self.base.options().rank;
        let order2 = self.csf2.mode_order().to_vec();
        let level_factors: Vec<&Mat> = order2.iter().map(|&m| &factors[m]).collect();
        let ctx = KernelCtx::new(&self.csf2, &self.sched2, level_factors, rank);
        let mut out = Mat::zeros(self.csf2.level_dims()[0], rank);
        let views = self.partials2.shared_views();
        mode0_with(&ctx, &views, self.base.executor(), &mut self.ws2, &mut out);
        // Root-style full traversal of the second CSF, no memo.
        let d2 = self.csf2.ndim();
        let (reads, writes) = crate::counters::count_mode0(&self.csf2, &[], rank);
        let fibers: u64 = (0..d2).map(|l| self.csf2.nfibers(l) as u64).sum();
        self.leaf_stats = Some(ModeStats {
            level: d2 - 1, // the mode's level in the *base* order
            nnz: self.csf2.nnz() as u64,
            fibers,
            flops: 2.0 * (reads - 2.0 * fibers as f64).max(0.0),
            reads,
            writes,
        });
        out
    }

    fn degrade_to_unmemoized(&mut self) -> bool {
        // Only the base engine memoizes; the second CSF is stateless.
        self.base.degrade_to_unmemoized()
    }

    fn degradations(&self) -> Vec<crate::model::DegradationEvent> {
        self.base.degradations()
    }

    fn last_mode_stats(&self, mode: usize) -> Option<ModeStats> {
        if mode == self.leaf_mode {
            self.leaf_stats.clone()
        } else {
            self.base.last_mode_stats(mode)
        }
    }

    fn predicted_mode_traffic(&self, mode: usize) -> Option<(f64, f64)> {
        if mode == self.leaf_mode {
            Some(self.leaf_predicted)
        } else {
            self.base.predicted_mode_traffic(mode)
        }
    }

    fn telemetry_alloc_events(&self) -> u64 {
        self.base.telemetry_alloc_events() + self.ws2.alloc_events()
    }

    fn telemetry_runtime_counters(&self) -> Option<RuntimeCounters> {
        self.base.telemetry_runtime_counters()
    }

    fn executor(&self) -> &crate::runtime::Executor {
        self.base.executor()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpd::{cpd_als, CpdOptions};
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
    fn every_mode_matches_reference() {
        for dims in [vec![15usize, 8, 11], vec![7, 9, 6, 8]] {
            let t = pseudo_tensor(&dims, 500, 1);
            let mut engine = Stef2::prepare(&t, StefOptions::new(4));
            let factors = rand_factors(&dims, 4, 2);
            for mode in engine.sweep_order() {
                let got = engine.mttkrp(&factors, mode);
                assert_mat_approx_eq(&got, &t.mttkrp_reference(&factors, mode), 1e-9);
            }
        }
    }

    #[test]
    fn leaf_mode_goes_through_second_csf() {
        let t = pseudo_tensor(&[15, 8, 11], 400, 3);
        let engine = Stef2::prepare(&t, StefOptions::new(3));
        let base_order = engine.base().csf().mode_order();
        assert_eq!(engine.leaf_mode, base_order[2]);
        assert_eq!(engine.csf2.mode_order()[0], engine.leaf_mode);
        assert!(engine.second_csf_bytes() > 0);
    }

    #[test]
    fn cpd_matches_stef_iterates() {
        let t = pseudo_tensor(&[12, 9, 10], 400, 4);
        let opts = CpdOptions {
            max_iters: 4,
            tol: 0.0,
            seed: 5,
            ..CpdOptions::new(3)
        };
        let mut s1 = Stef::prepare(&t, StefOptions::new(3));
        let mut s2 = Stef2::prepare(&t, StefOptions::new(3));
        let r1 = cpd_als(&mut s1, &opts).expect("stef run");
        let r2 = cpd_als(&mut s2, &opts).expect("stef2 run");
        for (a, b) in r1.fits.iter().zip(&r2.fits) {
            assert!((a - b).abs() < 1e-8, "fits diverged: {a} vs {b}");
        }
    }
}
