//! Engine self-validation harness.
//!
//! Anyone adding a new [`MttkrpEngine`] (a new format, a new kernel, a
//! GPU offload) can call [`validate_engine`] to compare it against the
//! naive COO reference on deterministic factor matrices, mode by mode,
//! before trusting it in CPD. The workspace's own engines are validated
//! this way in the integration tests; the function is public so that
//! downstream implementations get the same safety net.

use crate::cpd::init_factors;
use crate::engine::MttkrpEngine;
use crate::runtime::Executor;
use linalg::{approx_eq, Mat};
use sptensor::CooTensor;

/// One detected mismatch.
#[derive(Debug, Clone, PartialEq)]
pub struct Mismatch {
    /// Which mode's MTTKRP disagreed.
    pub mode: usize,
    /// Output coordinate of the worst element.
    pub row: usize,
    /// Column (rank index) of the worst element.
    pub col: usize,
    /// Engine's value.
    pub got: f64,
    /// Reference value.
    pub expected: f64,
}

/// Outcome of a validation run.
#[derive(Debug)]
pub struct ValidationReport {
    /// Mismatches found (empty = engine is consistent).
    pub mismatches: Vec<Mismatch>,
    /// Modes checked, in the order they were exercised.
    pub modes_checked: Vec<usize>,
    /// Relative tolerance used.
    pub tol: f64,
}

impl ValidationReport {
    /// `true` when no mismatch was found.
    pub fn is_ok(&self) -> bool {
        self.mismatches.is_empty()
    }
}

/// Compares `engine` against `reference_tensor`'s naive MTTKRP for every
/// mode (in the engine's sweep order, twice — the second sweep exercises
/// warm memoized state). Collects at most one mismatch (the worst
/// element) per mode per sweep.
pub fn validate_engine<E: MttkrpEngine + ?Sized>(
    engine: &mut E,
    reference_tensor: &CooTensor,
    rank: usize,
    tol: f64,
    seed: u64,
) -> ValidationReport {
    assert_eq!(
        engine.dims(),
        reference_tensor.dims(),
        "engine and reference tensor shapes differ"
    );
    let factors = init_factors(engine.dims(), rank, seed);
    let mut mismatches = Vec::new();
    let mut modes_checked = Vec::new();
    for sweep in 0..2 {
        for mode in engine.sweep_order() {
            if sweep == 0 {
                modes_checked.push(mode);
            }
            let got = engine.mttkrp(&factors, mode);
            let expect = reference_tensor.mttkrp_reference(&factors, mode);
            if let Some(w) = worst_mismatch(engine.executor(), mode, &got, &expect, tol) {
                mismatches.push(w);
            }
        }
    }
    ValidationReport {
        mismatches,
        modes_checked,
        tol,
    }
}

/// Scans `got` against `expect` for the worst out-of-tolerance element,
/// fanning row blocks out on `exec`, the validated engine's pool. Each task records its
/// block's worst (first-encountered on ties, like the serial scan) in a
/// private slot; the slots are combined in task order with a strict
/// comparison, so the result is identical to a serial row-major scan
/// for any worker count.
fn worst_mismatch(exec: &Executor, mode: usize, got: &Mat, expect: &Mat, tol: f64) -> Option<Mismatch> {
    let rows = expect.rows();
    if rows == 0 {
        return None;
    }
    let ntasks = exec.workers().clamp(1, rows);
    let mut slots: Vec<Option<Mismatch>> = vec![None; ntasks];
    {
        let shared = crate::sync::SharedSlice::new(&mut slots);
        exec.fanout(ntasks, |w| {
            let lo = w * rows / ntasks;
            let hi = (w + 1) * rows / ntasks;
            let mut worst: Option<Mismatch> = None;
            for i in lo..hi {
                for j in 0..expect.cols() {
                    let (g, e) = (got[(i, j)], expect[(i, j)]);
                    if !approx_eq(g, e, tol) {
                        let err = (g - e).abs();
                        let is_worse = worst
                            .as_ref()
                            .map(|m| err > (m.got - m.expected).abs())
                            .unwrap_or(true);
                        if is_worse {
                            worst = Some(Mismatch {
                                mode,
                                row: i,
                                col: j,
                                got: g,
                                expected: e,
                            });
                        }
                    }
                }
            }
            // SAFETY: each task owns exactly its own slot.
            let slot = unsafe { shared.range_mut(w, w + 1) };
            slot[0] = worst;
        });
    }
    slots.into_iter().flatten().reduce(|a, b| {
        if (b.got - b.expected).abs() > (a.got - a.expected).abs() {
            b
        } else {
            a
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Stef;
    use crate::options::StefOptions;
    use linalg::Mat;

    fn tensor(seed: u64) -> CooTensor {
        let dims = [9usize, 8, 7];
        let mut t = CooTensor::new(dims.to_vec());
        let mut x = seed | 1;
        let mut coord = [0u32; 3];
        for _ in 0..300 {
            for (c, &d) in coord.iter_mut().zip(&dims) {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                *c = ((x >> 33) % d as u64) as u32;
            }
            t.push(&coord, 0.5 + ((x >> 40) % 5) as f64);
        }
        t.sort_dedup();
        t
    }

    #[test]
    fn healthy_engine_passes() {
        let t = tensor(1);
        let mut engine = Stef::prepare(&t, StefOptions::new(3));
        let report = validate_engine(&mut engine, &t, 3, 1e-9, 7);
        assert!(report.is_ok(), "{:?}", report.mismatches);
        assert_eq!(report.modes_checked.len(), 3);
    }

    #[test]
    fn broken_engine_is_caught() {
        /// An engine that corrupts mode 1.
        struct Saboteur {
            inner: crate::engine::ReferenceEngine,
        }
        impl MttkrpEngine for Saboteur {
            fn dims(&self) -> &[usize] {
                self.inner.dims()
            }
            fn name(&self) -> String {
                "saboteur".into()
            }
            fn sweep_order(&self) -> Vec<usize> {
                self.inner.sweep_order()
            }
            fn norm_sq(&self) -> f64 {
                self.inner.norm_sq()
            }
            fn mttkrp(&mut self, factors: &[Mat], mode: usize) -> Mat {
                let mut out = self.inner.mttkrp(factors, mode);
                if mode == 1 && out.rows() > 0 {
                    out[(0, 0)] += 1.0;
                }
                out
            }
        }
        let t = tensor(2);
        let mut engine = Saboteur {
            inner: crate::engine::ReferenceEngine::new(t.clone()),
        };
        let report = validate_engine(&mut engine, &t, 2, 1e-9, 8);
        assert!(!report.is_ok());
        assert!(report.mismatches.iter().all(|m| m.mode == 1));
        let m = &report.mismatches[0];
        assert_eq!((m.row, m.col), (0, 0));
        assert!((m.got - m.expected - 1.0).abs() < 1e-12);
    }

    #[test]
    fn engine_with_wrong_rows_on_one_mode_is_localized() {
        /// An engine that returns entirely wrong rows (doubled) for a
        /// band of output rows on one mode — the realistic bug class
        /// where a scheduler assigns a fiber range to the wrong thread
        /// or a scatter writes with a bad offset.
        struct RowSaboteur {
            inner: crate::engine::ReferenceEngine,
            bad_mode: usize,
            bad_rows: std::ops::Range<usize>,
        }
        impl MttkrpEngine for RowSaboteur {
            fn dims(&self) -> &[usize] {
                self.inner.dims()
            }
            fn name(&self) -> String {
                "row-saboteur".into()
            }
            fn sweep_order(&self) -> Vec<usize> {
                self.inner.sweep_order()
            }
            fn norm_sq(&self) -> f64 {
                self.inner.norm_sq()
            }
            fn mttkrp(&mut self, factors: &[Mat], mode: usize) -> Mat {
                let mut out = self.inner.mttkrp(factors, mode);
                if mode == self.bad_mode {
                    for i in self.bad_rows.clone() {
                        for j in 0..out.cols() {
                            out[(i, j)] *= 2.0;
                        }
                    }
                }
                out
            }
        }
        let t = tensor(5);
        let mut engine = RowSaboteur {
            inner: crate::engine::ReferenceEngine::new(t.clone()),
            bad_mode: 2,
            bad_rows: 1..4,
        };
        let report = validate_engine(&mut engine, &t, 3, 1e-9, 10);
        assert!(!report.is_ok());
        // Every mismatch must be localized to the broken mode and lie in
        // the corrupted row band; both sweeps must report it.
        assert_eq!(report.mismatches.len(), 2, "{:?}", report.mismatches);
        for m in &report.mismatches {
            assert_eq!(m.mode, 2);
            assert!((1..4).contains(&m.row), "row {} outside band", m.row);
            assert!(
                (m.got - 2.0 * m.expected).abs() < 1e-9 * m.expected.abs().max(1.0),
                "worst element should come from the doubled band: {m:?}"
            );
        }
        // Healthy modes stay clean.
        assert!(report.mismatches.iter().all(|m| m.mode == 2));
    }

    #[test]
    #[should_panic(expected = "shapes differ")]
    fn shape_mismatch_panics() {
        let t = tensor(3);
        let other = tensor(4); // same dims; make a different one
        let mut small = CooTensor::new(vec![2, 2]);
        small.push(&[0, 0], 1.0);
        let mut engine = Stef::prepare(&other, StefOptions::new(2));
        let _ = validate_engine(&mut engine, &small, 2, 1e-9, 9);
        let _ = t;
    }
}
