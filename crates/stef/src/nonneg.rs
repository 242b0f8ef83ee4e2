//! Nonnegative CP decomposition via multiplicative updates.
//!
//! Many of the applications the paper motivates (topic modelling,
//! traffic analysis, recommender factors) want *nonnegative* factors —
//! the related work it cites includes PLANC (Eswar et al., TOMS 2021),
//! a nonnegative CP/Tucker package. This module adds the classic
//! Lee–Seung-style multiplicative-update CP (Welling & Weber):
//!
//! ```text
//! A⁽ᵘ⁾ ← A⁽ᵘ⁾ ⊙ Ā⁽ᵘ⁾ ⊘ (A⁽ᵘ⁾ V + ε)       V = ⊛_{m≠u} A⁽ᵐ⁾ᵀA⁽ᵐ⁾
//! ```
//!
//! where `Ā⁽ᵘ⁾` is exactly the MTTKRP the rest of this crate computes —
//! so every engine (STeF, STeF2, all baselines) can run nonnegative CP
//! with no kernel changes, and all of STeF's memoization/scheduling
//! machinery applies as-is. Updates preserve nonnegativity whenever the
//! initialization is positive and the tensor is nonnegative.

use crate::cpd::CpdOptions;
use crate::engine::MttkrpEngine;
use linalg::ops::{frob_inner, gram_on, hadamard_inplace, matmul_on};
use linalg::Mat;
use std::time::Instant;

/// Result of a nonnegative CP run.
#[derive(Debug)]
pub struct NonnegCpdResult {
    /// Nonnegative factor matrices in original mode order.
    pub factors: Vec<Mat>,
    /// Fit after each iteration (same definition as [`crate::cpd`]).
    pub fits: Vec<f64>,
    /// Iterations executed.
    pub iterations: usize,
    /// Whether the fit change dropped below the tolerance.
    pub converged: bool,
    /// Wall time of the whole loop.
    pub total_time: std::time::Duration,
}

impl NonnegCpdResult {
    /// Final fit (0 if no iteration ran).
    pub fn final_fit(&self) -> f64 {
        self.fits.last().copied().unwrap_or(0.0)
    }
}

/// Denominator floor that keeps the multiplicative update well-defined.
const EPS: f64 = 1e-12;

/// Runs multiplicative-update nonnegative CP on `engine`.
///
/// The engine's tensor should be nonnegative; negative values do not
/// break the algorithm but void the monotonicity guarantee. The dense
/// products run on the engine's executor; if its cancel token cuts one
/// short, the run stops there and reports the completed iterations.
pub fn cpd_mu_nonneg<E: MttkrpEngine + ?Sized>(
    engine: &mut E,
    opts: &CpdOptions,
) -> NonnegCpdResult {
    let dims = engine.dims().to_vec();
    let r = opts.rank;
    let sweep = engine.sweep_order();
    let norm_t_sq = engine.norm_sq();
    let norm_t = norm_t_sq.sqrt();

    // Positive initialization (strictly > 0 so zero entries can still
    // grow/shrink multiplicatively).
    let mut factors = crate::cpd::init_factors(&dims, r, opts.seed);
    // Cloned so the engine stays free for `&mut` MTTKRP calls.
    let exec = engine.executor().clone();
    let mut fits = Vec::new();
    let mut converged = false;
    let start = Instant::now();

    // A dense pass cut short by the engine's cancel token ends the run.
    'run: {
        let grams: Result<Vec<Mat>, _> = factors.iter().map(|f| gram_on(&exec, f)).collect();
        let Ok(mut grams) = grams else {
            break 'run;
        };
        for _it in 0..opts.max_iters {
            let mut last: Option<(usize, Mat)> = None;
            for &mode in &sweep {
                let ahat = engine.mttkrp(&factors, mode);
                let mut v = Mat::from_fn(r, r, |_, _| 1.0);
                for (m, g) in grams.iter().enumerate() {
                    if m != mode {
                        hadamard_inplace(&mut v, g);
                    }
                }
                // denom = A · V  (N×R); update A ⊙ Ā ⊘ denom.
                let Ok(denom) = matmul_on(&exec, &factors[mode], &v) else {
                    break 'run;
                };
                {
                    let a = factors[mode].as_mut_slice();
                    let h = ahat.as_slice();
                    let dn = denom.as_slice();
                    for ((x, &num), &den) in a.iter_mut().zip(h).zip(dn) {
                        *x *= (num.max(0.0)) / (den + EPS);
                    }
                }
                match gram_on(&exec, &factors[mode]) {
                    Ok(g) => grams[mode] = g,
                    Err(_) => break 'run,
                }
                last = Some((mode, ahat));
            }

            // Fit with λ = 1 (MU does not normalize columns).
            let (last_mode, ahat) = last.expect("at least one mode");
            let inner = frob_inner(&ahat, &factors[last_mode]);
            let norm_model_sq = {
                let mut had = Mat::from_fn(r, r, |_, _| 1.0);
                for g in &grams {
                    hadamard_inplace(&mut had, g);
                }
                had.as_slice().iter().sum::<f64>()
            };
            let resid_sq = (norm_t_sq + norm_model_sq - 2.0 * inner).max(0.0);
            let fit = 1.0 - resid_sq.sqrt() / norm_t;
            let prev = fits.last().copied();
            fits.push(fit);
            if let Some(p) = prev {
                if (fit - p).abs() < opts.tol {
                    converged = true;
                    break;
                }
            }
        }
    }
    let iterations = fits.len();
    NonnegCpdResult {
        factors,
        fits,
        iterations,
        converged,
        total_time: start.elapsed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{ReferenceEngine, Stef};
    use crate::options::StefOptions;
    use sptensor::CooTensor;

    fn nonneg_tensor(dims: &[usize], nnz: usize, seed: u64) -> CooTensor {
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
            t.push(&coord, ((x >> 40) % 9) as f64 * 0.3 + 0.2);
        }
        t.sort_dedup();
        t
    }

    #[test]
    fn factors_stay_nonnegative() {
        let t = nonneg_tensor(&[12, 10, 8], 400, 1);
        let mut engine = Stef::prepare(&t, StefOptions::new(4));
        let mut opts = CpdOptions::new(4);
        opts.max_iters = 10;
        opts.tol = 0.0;
        let result = cpd_mu_nonneg(&mut engine, &opts);
        for f in &result.factors {
            assert!(f.as_slice().iter().all(|&v| v >= 0.0 && v.is_finite()));
        }
        assert_eq!(result.iterations, 10);
    }

    #[test]
    fn a_cancelled_pool_stops_the_run() {
        let t = nonneg_tensor(&[12, 10, 8], 400, 1);
        let token = crate::runtime::CancelToken::new();
        let mut sopts = StefOptions::new(4);
        sopts.cancel = Some(token.clone());
        let mut engine = Stef::prepare(&t, sopts);
        let mut opts = CpdOptions::new(4);
        opts.max_iters = 5;
        token.cancel();
        let result = cpd_mu_nonneg(&mut engine, &opts);
        assert_eq!(result.iterations, 0);
        assert!(result.fits.is_empty());
    }

    #[test]
    fn fit_is_nondecreasing_on_nonnegative_data() {
        let t = nonneg_tensor(&[15, 12, 10], 500, 2);
        let mut engine = ReferenceEngine::new(t);
        let mut opts = CpdOptions::new(3);
        opts.max_iters = 25;
        opts.tol = 0.0;
        let result = cpd_mu_nonneg(&mut engine, &opts);
        for w in result.fits.windows(2) {
            assert!(w[1] >= w[0] - 1e-7, "MU fit decreased: {:?}", result.fits);
        }
    }

    #[test]
    fn recovers_nonnegative_rank_one_block() {
        let mut t = CooTensor::new(vec![6, 6, 6]);
        for i in 0..3u32 {
            for j in 0..3u32 {
                for k in 0..3u32 {
                    t.push(&[i, j, k], (i + 1) as f64 * (j + 1) as f64 * (k + 1) as f64);
                }
            }
        }
        let mut engine = ReferenceEngine::new(t);
        let mut opts = CpdOptions::new(2);
        opts.max_iters = 200;
        opts.tol = 1e-9;
        let result = cpd_mu_nonneg(&mut engine, &opts);
        assert!(
            result.final_fit() > 0.99,
            "rank-1 nonnegative block, fit {}",
            result.final_fit()
        );
    }

    #[test]
    fn stef_and_reference_mu_agree() {
        let t = nonneg_tensor(&[10, 9, 8], 300, 3);
        let opts = CpdOptions {
            max_iters: 6,
            tol: 0.0,
            seed: 7,
            ..CpdOptions::new(3)
        };
        let mut stef_engine = Stef::prepare(&t, StefOptions::new(3));
        let sweep = stef_engine.sweep_order();
        let r1 = cpd_mu_nonneg(&mut stef_engine, &opts);
        struct Ordered {
            inner: ReferenceEngine,
            sweep: Vec<usize>,
        }
        impl MttkrpEngine for Ordered {
            fn dims(&self) -> &[usize] {
                self.inner.dims()
            }
            fn name(&self) -> String {
                "ordered".into()
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
        let mut reference = Ordered {
            inner: ReferenceEngine::new(t),
            sweep,
        };
        let r2 = cpd_mu_nonneg(&mut reference, &opts);
        for (a, b) in r1.fits.iter().zip(&r2.fits) {
            assert!((a - b).abs() < 1e-8, "{:?} vs {:?}", r1.fits, r2.fits);
        }
    }
}
