//! Numerical-failure detection and recovery for the CPD driver.
//!
//! ALS on real-world tensors fails in well-understood ways: a
//! rank-deficient Gram system, a factor blown up to Inf/NaN by a bad
//! solve, memoized partials corrupted by a faulty engine, or a fit that
//! starts *dropping* (divergence — impossible for exact ALS, so always a
//! numerical symptom). The driver detects each per iteration and walks an
//! escalation ladder instead of panicking:
//!
//! 1. **Ridge retry** — re-solve the normal equations with a larger
//!    diagonal ridge (cheapest, fixes near-singularity);
//! 2. **Factor re-init** — replace a factor whose Gram overflowed with a
//!    fresh deterministic initialization (loses that factor's progress
//!    only);
//! 3. **Engine fallback** — permanently disable memoization via
//!    [`crate::engine::MttkrpEngine::degrade_to_unmemoized`] and
//!    recompute (fixes corrupt partials at a per-iteration cost);
//! 4. **Typed error** — if the ladder is exhausted the run ends with a
//!    [`crate::error::StefError`], never a panic.
//!
//! The limits below are fixed and the ladder is always on. Every rung
//! taken is counted in [`RecoveryEvents`] and surfaced on
//! [`crate::cpd::CpdResult`], so silent degradation is impossible.

use linalg::Mat;

/// Extra ridged solve attempts after a plain solve fails.
pub(crate) const MAX_RIDGE_RETRIES: usize = 2;
/// Factor re-initializations allowed per run.
pub(crate) const MAX_FACTOR_REINITS: usize = 2;
/// Consecutive fit drops that count as divergence.
pub(crate) const DIVERGENCE_WINDOW: usize = 3;

/// One rung of the escalation ladder.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecoveryAction {
    /// The Gram solve was retried with a larger ridge.
    RidgeRetry,
    /// A factor matrix was re-initialized from a fresh seed.
    FactorReinit,
    /// The engine dropped to its unmemoized path.
    EngineFallback,
    /// A divergence alarm fired (fit fell [`DIVERGENCE_WINDOW`] times).
    DivergenceAlarm,
}

/// A recovery that actually happened, for post-mortem inspection.
#[derive(Clone, Debug)]
pub struct RecoveryEvent {
    /// 1-based ALS iteration.
    pub iteration: usize,
    /// Mode being updated, if the event is mode-specific.
    pub mode: Option<usize>,
    pub action: RecoveryAction,
    /// Human-readable cause.
    pub detail: String,
}

/// Counters plus the full event log for one CPD run.
#[derive(Debug, Default)]
pub struct RecoveryEvents {
    pub ridge_retries: usize,
    pub factor_reinits: usize,
    pub engine_fallbacks: usize,
    pub divergence_alarms: usize,
    pub events: Vec<RecoveryEvent>,
}

impl RecoveryEvents {
    /// Total recoveries of any kind.
    pub fn total(&self) -> usize {
        self.ridge_retries + self.factor_reinits + self.engine_fallbacks + self.divergence_alarms
    }

    pub(crate) fn record(
        &mut self,
        iteration: usize,
        mode: Option<usize>,
        action: RecoveryAction,
        detail: impl Into<String>,
    ) {
        match action {
            RecoveryAction::RidgeRetry => self.ridge_retries += 1,
            RecoveryAction::FactorReinit => self.factor_reinits += 1,
            RecoveryAction::EngineFallback => self.engine_fallbacks += 1,
            RecoveryAction::DivergenceAlarm => self.divergence_alarms += 1,
        }
        self.events.push(RecoveryEvent {
            iteration,
            mode,
            action,
            detail: detail.into(),
        });
    }
}

/// Whether every entry of `m` is finite.
pub fn mat_is_finite(m: &Mat) -> bool {
    m.as_slice().iter().all(|x| x.is_finite())
}

/// Whether every entry of `xs` is finite.
pub fn slice_is_finite(xs: &[f64]) -> bool {
    xs.iter().all(|x| x.is_finite())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_count_per_action() {
        let mut ev = RecoveryEvents::default();
        ev.record(1, Some(0), RecoveryAction::RidgeRetry, "a");
        ev.record(1, Some(0), RecoveryAction::RidgeRetry, "b");
        ev.record(2, Some(1), RecoveryAction::FactorReinit, "c");
        ev.record(3, None, RecoveryAction::EngineFallback, "d");
        ev.record(4, None, RecoveryAction::DivergenceAlarm, "e");
        assert_eq!(ev.ridge_retries, 2);
        assert_eq!(ev.factor_reinits, 1);
        assert_eq!(ev.engine_fallbacks, 1);
        assert_eq!(ev.divergence_alarms, 1);
        assert_eq!(ev.total(), 5);
        assert_eq!(ev.events.len(), 5);
    }

    #[test]
    fn finite_checks_catch_nan_and_inf() {
        let good = Mat::from_fn(2, 2, |i, j| (i + j) as f64);
        assert!(mat_is_finite(&good));
        let bad = Mat::from_fn(2, 2, |i, j| if i == j { f64::NAN } else { 1.0 });
        assert!(!mat_is_finite(&bad));
        assert!(slice_is_finite(&[1.0, 2.0]));
        assert!(!slice_is_finite(&[1.0, f64::INFINITY]));
    }
}
