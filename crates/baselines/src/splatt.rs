//! SPLATT-style CSF MTTKRP (Smith et al., IPDPS 2015; paper baseline
//! `splatt-1` / `splatt-2` / `splatt-all`).
//!
//! SPLATT's defining choices, reproduced here:
//!
//! * **slice-based parallelism** — threads own contiguous root slices,
//!   greedily balanced on nnz (no mid-fiber splits, no replication);
//! * **no memoization** — every MTTKRP recomputes from scratch;
//! * **1 / 2 / d tensor copies**: with one CSF, non-root modes use the
//!   slower internal/leaf kernels; with `d` CSFs every mode is a cheap
//!   root-mode traversal at d× the memory; `splatt-2` keeps the default
//!   CSF plus one rooted at its leaf mode, covering the worst kernel.
//!
//! The traversal kernels themselves are shared with `stef-core`
//! (configured with an empty partial store), so the only variables that
//! differ from STeF are exactly the strategy choices above.

use linalg::Mat;
use sptensor::{build_csf, inverse_permutation, sort_modes_by_length, CooTensor, Csf};
use stef::kernels::{mode0_with, modeu_with, KernelCtx, ResolvedAccum};
use stef::{Executor, LoadBalance, MttkrpEngine, PartialStore, Schedule, Workspace};

/// How many CSF representations the engine keeps.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SplattVariant {
    /// One CSF in mode-length order.
    One,
    /// The default CSF plus one rooted at its leaf mode.
    Two,
    /// One CSF per mode, each rooted at that mode.
    All,
}

impl SplattVariant {
    fn label(self) -> &'static str {
        match self {
            SplattVariant::One => "splatt-1",
            SplattVariant::Two => "splatt-2",
            SplattVariant::All => "splatt-all",
        }
    }
}

/// One CSF representation with its schedule and kernel scratch.
struct Rep {
    csf: Csf,
    sched: Schedule,
    partials: PartialStore,
    ws: Workspace,
}

impl Rep {
    fn build(coo: &CooTensor, order: &[usize], rank: usize, nthreads: usize) -> Rep {
        let csf = build_csf(coo, order);
        let sched = Schedule::build(&csf, nthreads, LoadBalance::SliceBased);
        let partials = PartialStore::empty(coo.ndim(), nthreads, rank);
        let ws = Workspace::new(coo.ndim(), rank, nthreads, 0);
        Rep {
            csf,
            sched,
            partials,
            ws,
        }
    }

    fn mttkrp(&mut self, factors: &[Mat], level: usize, rank: usize, rt: &Executor) -> Mat {
        let order = self.csf.mode_order().to_vec();
        let level_factors: Vec<&Mat> = order.iter().map(|&m| &factors[m]).collect();
        let ctx = KernelCtx::new(&self.csf, &self.sched, level_factors, rank);
        let views = self.partials.shared_views();
        let mut out = Mat::zeros(self.csf.level_dims()[level], rank);
        if level == 0 {
            mode0_with(&ctx, &views, rt, &mut self.ws, &mut out);
        } else {
            let accum = ResolvedAccum::Privatized;
            modeu_with(&ctx, &views, false, level, accum, rt, &mut self.ws, &mut out);
        }
        out
    }
}

/// The SPLATT baseline engine.
pub struct Splatt {
    variant: SplattVariant,
    rank: usize,
    dims: Vec<usize>,
    norm_sq: f64,
    reps: Vec<Rep>,
    /// `route[m]` = (representation index, CSF level of mode `m` there).
    route: Vec<(usize, usize)>,
    exec: Executor,
}

impl Splatt {
    /// Builds the engine, fanning out on `exec`; `nthreads = 0` means
    /// `runtime::default_threads()` logical threads.
    pub fn prepare(
        coo: &CooTensor,
        variant: SplattVariant,
        rank: usize,
        nthreads: usize,
        exec: &Executor,
    ) -> Self {
        let nthreads = if nthreads == 0 {
            stef::runtime::default_threads()
        } else {
            nthreads
        };
        let d = coo.ndim();
        let base_order = sort_modes_by_length(coo.dims());
        let mut reps = Vec::new();
        let mut route = vec![(0usize, 0usize); d];
        match variant {
            SplattVariant::One => {
                let rep = Rep::build(coo, &base_order, rank, nthreads);
                let level_of = inverse_permutation(&base_order);
                for m in 0..d {
                    route[m] = (0, level_of[m]);
                }
                reps.push(rep);
            }
            SplattVariant::Two => {
                let rep0 = Rep::build(coo, &base_order, rank, nthreads);
                let leaf_mode = base_order[d - 1];
                let mut order2 = vec![leaf_mode];
                order2.extend(base_order[..d - 1].iter().copied());
                let rep1 = Rep::build(coo, &order2, rank, nthreads);
                let level_of = inverse_permutation(&base_order);
                for m in 0..d {
                    route[m] = if m == leaf_mode {
                        (1, 0)
                    } else {
                        (0, level_of[m])
                    };
                }
                reps.push(rep0);
                reps.push(rep1);
            }
            SplattVariant::All => {
                for m in 0..d {
                    let mut order = vec![m];
                    order.extend(base_order.iter().copied().filter(|&x| x != m));
                    reps.push(Rep::build(coo, &order, rank, nthreads));
                    route[m] = (reps.len() - 1, 0);
                }
            }
        }
        Splatt {
            variant,
            rank,
            dims: coo.dims().to_vec(),
            norm_sq: coo.norm_sq(),
            reps,
            route,
            exec: exec.clone(),
        }
    }

    /// Total bytes of all CSF copies (the memory cost of the variant).
    pub fn csf_bytes(&self) -> usize {
        self.reps.iter().map(|r| r.csf.memory_bytes()).sum()
    }

    /// The variant this engine was built as.
    pub fn variant(&self) -> SplattVariant {
        self.variant
    }
}

impl MttkrpEngine for Splatt {
    fn dims(&self) -> &[usize] {
        &self.dims
    }

    fn name(&self) -> String {
        self.variant.label().into()
    }

    fn sweep_order(&self) -> Vec<usize> {
        // No memoization: any order is valid; use natural order like the
        // original SPLATT.
        (0..self.dims.len()).collect()
    }

    fn norm_sq(&self) -> f64 {
        self.norm_sq
    }

    fn mttkrp(&mut self, factors: &[Mat], mode: usize) -> Mat {
        let (rep_idx, level) = self.route[mode];
        self.reps[rep_idx].mttkrp(factors, level, self.rank, &self.exec)
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
    fn all_variants_match_reference_3d_4d() {
        for dims in [vec![14usize, 9, 11], vec![7, 6, 9, 5]] {
            let t = pseudo_tensor(&dims, 600, 1);
            let factors = rand_factors(&dims, 4, 2);
            for variant in [SplattVariant::One, SplattVariant::Two, SplattVariant::All] {
                let mut engine = Splatt::prepare(&t, variant, 4, 3, &Executor::new(2));
                for mode in 0..dims.len() {
                    let got = engine.mttkrp(&factors, mode);
                    let expect = t.mttkrp_reference(&factors, mode);
                    linalg::assert_mat_approx_eq(&got, &expect, 1e-9);
                }
            }
        }
    }

    #[test]
    fn variant_memory_ordering() {
        let t = pseudo_tensor(&[20, 15, 10], 800, 3);
        let one = Splatt::prepare(&t, SplattVariant::One, 4, 2, &Executor::new(2));
        let two = Splatt::prepare(&t, SplattVariant::Two, 4, 2, &Executor::new(2));
        let all = Splatt::prepare(&t, SplattVariant::All, 4, 2, &Executor::new(2));
        assert!(one.csf_bytes() < two.csf_bytes());
        assert!(two.csf_bytes() < all.csf_bytes());
    }

    #[test]
    fn splatt_all_routes_every_mode_to_a_root() {
        let t = pseudo_tensor(&[10, 10, 10], 300, 4);
        let engine = Splatt::prepare(&t, SplattVariant::All, 2, 2, &Executor::new(2));
        for m in 0..3 {
            assert_eq!(engine.route[m].1, 0, "mode {m} must be a root-mode pass");
        }
    }

    #[test]
    fn names_match_paper_labels() {
        let t = pseudo_tensor(&[6, 6, 6], 50, 5);
        assert_eq!(
            Splatt::prepare(&t, SplattVariant::One, 2, 1, &Executor::new(2)).name(),
            "splatt-1"
        );
        assert_eq!(
            Splatt::prepare(&t, SplattVariant::Two, 2, 1, &Executor::new(2)).name(),
            "splatt-2"
        );
        assert_eq!(
            Splatt::prepare(&t, SplattVariant::All, 2, 1, &Executor::new(2)).name(),
            "splatt-all"
        );
    }
}
