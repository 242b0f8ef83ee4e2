//! AdaTM-style engine (Li et al., IPDPS 2017; paper baseline `AdaTM`).
//!
//! AdaTM pioneered model-driven memoization for sparse CPD, but with the
//! choices the STeF paper contrasts against:
//!
//! * the selection model counts *arithmetic operations*, not data
//!   movement, and keeps Θ(√d) partially contracted tensors;
//! * work is distributed by root slices (one slice range per thread);
//! * the mode order is the plain length heuristic — no last-two-mode
//!   switching.
//!
//! All three choices map directly onto `stef-core` options, so this
//! engine is a configuration wrapper: same kernels, AdaTM's strategy.
//! (The original's vCSF storage is a CSF forest variant; its traversal
//! costs match a CSF within the constants this comparison cares about —
//! recorded as a substitution in DESIGN.md.)

use linalg::Mat;
use sptensor::CooTensor;
use stef::{Executor, LoadBalance, MemoPolicy, ModeSwitchPolicy, MttkrpEngine, Stef, StefOptions};

/// The AdaTM-like baseline.
pub struct AdaTm {
    inner: Stef,
}

impl AdaTm {
    /// Builds the engine on `exec`; `nthreads = 0` means
    /// `runtime::default_threads()` logical threads.
    ///
    /// # Panics
    /// Panics on invalid input (zero rank, empty tensor).
    pub fn prepare(coo: &CooTensor, rank: usize, nthreads: usize, exec: &Executor) -> Self {
        let mut opts = StefOptions::new(rank);
        opts.num_threads = nthreads;
        opts.load_balance = LoadBalance::SliceBased;
        opts.memo = MemoPolicy::OpCountModel;
        opts.mode_switch = ModeSwitchPolicy::Never;
        match Stef::try_prepare_on(coo, opts, exec) {
            Ok(inner) => AdaTm { inner },
            Err(e) => panic!("{e}"),
        }
    }

    /// The memoization flags the op-count model chose.
    pub fn save_flags(&self) -> Vec<bool> {
        self.inner.plan().save.clone()
    }

    /// Bytes of stored partials.
    pub fn partial_bytes(&self) -> usize {
        self.inner.partial_bytes()
    }
}

impl MttkrpEngine for AdaTm {
    fn dims(&self) -> &[usize] {
        self.inner.dims()
    }

    fn name(&self) -> String {
        "adatm".into()
    }

    fn sweep_order(&self) -> Vec<usize> {
        self.inner.sweep_order()
    }

    fn norm_sq(&self) -> f64 {
        self.inner.norm_sq()
    }

    fn mttkrp(&mut self, factors: &[Mat], mode: usize) -> Mat {
        self.inner.mttkrp(factors, mode)
    }

    fn executor(&self) -> &Executor {
        self.inner.executor()
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
    fn matches_reference_in_sweep_order() {
        for dims in [vec![12usize, 9, 10], vec![6, 8, 7, 5], vec![4, 5, 6, 4, 5]] {
            let t = pseudo_tensor(&dims, 600, 1);
            let mut engine = AdaTm::prepare(&t, 3, 4, &Executor::new(2));
            let factors = rand_factors(&dims, 3, 2);
            for mode in engine.sweep_order() {
                let got = engine.mttkrp(&factors, mode);
                linalg::assert_mat_approx_eq(&got, &t.mttkrp_reference(&factors, mode), 1e-9);
            }
        }
    }

    #[test]
    fn memoizes_by_op_count_even_when_dm_model_would_not() {
        // freebase-like: nearly-unique (i,j) pairs. The DM model declines
        // to memoize; AdaTM's op-count objective memoizes anyway — the
        // behavioural difference the paper's comparison hinges on.
        let mut t = CooTensor::new(vec![300, 300, 6]);
        let mut x = 7u64;
        let mut coord = [0u32; 3];
        for _ in 0..2000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            coord[0] = ((x >> 20) % 300) as u32;
            coord[1] = ((x >> 30) % 300) as u32;
            coord[2] = ((x >> 45) % 6) as u32;
            t.push(&coord, 1.0);
        }
        t.sort_dedup();
        let adatm = AdaTm::prepare(&t, 32, 2, &Executor::new(2));
        assert!(
            adatm.save_flags().iter().any(|&s| s),
            "AdaTM should memoize"
        );
        assert!(adatm.partial_bytes() > 0);
    }

    #[test]
    fn name_is_adatm() {
        let t = pseudo_tensor(&[6, 6, 6], 50, 3);
        assert_eq!(AdaTm::prepare(&t, 2, 1, &Executor::new(2)).name(), "adatm");
    }
}
