//! Fault injection for the robustness test harness.
//!
//! [`FaultyEngine`] wraps any [`MttkrpEngine`] and injects configurable
//! numerical faults into its outputs — NaN/Inf entries appearing at a
//! chosen call, once or persistently. Combined with
//! [`crate::engine::Stef::corrupt_partials_for_test`] (memoized-partial
//! corruption) and truncated checkpoint files, this lets the test suite
//! prove the CPD driver's contract: **recover or fail with a typed
//! error, never panic, never return silently wrong results.**

use crate::engine::MttkrpEngine;
use crate::runtime::{CancelToken, Executor};
use linalg::Mat;
use std::time::Duration;

/// What to inject, and when.
#[derive(Clone, Debug)]
pub enum Fault {
    /// On the `at`-th MTTKRP call (0-based), overwrite output entry
    /// `(row, col)` with `value`. Fires once.
    MttkrpOutputOnce {
        at: usize,
        row: usize,
        col: usize,
        value: f64,
    },
    /// From the `from`-th MTTKRP call onward, overwrite output entry
    /// `(row, col)` with `value` on every call. Models a persistent
    /// fault (stuck bit, broken kernel) that no retry can outrun.
    MttkrpOutputAlways {
        from: usize,
        row: usize,
        col: usize,
        value: f64,
    },
    /// On the `at`-th MTTKRP call, dispatch a fan-out on the attached
    /// executor (see [`FaultyEngine::with_executor`]) in which logical
    /// thread `thread` panics mid-chunk — the exact scenario that used
    /// to strand the pool's dispatcher on its completion barrier. Fires
    /// once; requires an executor, otherwise it is a no-op.
    WorkerPanicOnce { at: usize, thread: usize },
    /// On the `at`-th MTTKRP call, burn the attached cancel token's
    /// deadline fuse (see [`FaultyEngine::with_cancel`]): arm a deadline
    /// `fuse` from now, so the run cancels itself cooperatively shortly
    /// after. Fires once; requires a token, otherwise it is a no-op.
    DeadlineFuseOnce { at: usize, fuse: Duration },
    /// On the `at`-th MTTKRP call, panic directly in the engine — the
    /// driver's `catch_unwind` turns it into a *retryable*
    /// [`crate::StefError::WorkerPanic`]. Models a spurious transient
    /// failure for the supervisor's retry ladder; unlike
    /// [`Fault::WorkerPanicOnce`] it needs no executor, so it works on
    /// any engine. Fires once per engine instance.
    TransientErrorOnce { at: usize },
}

/// Parses `STEF_BATCH_FAULT`-style directives into per-job faults:
/// comma-separated `<job>:<kind>` items, where `<kind>` is
/// `panic@<call>` ([`Fault::WorkerPanicOnce`] on thread 0),
/// `transient@<call>` ([`Fault::TransientErrorOnce`]), or
/// `fuse@<call>+<ms>` ([`Fault::DeadlineFuseOnce`]). Example:
/// `2:panic@3,5:fuse@1+50`. Unknown or malformed items are errors — a
/// fault harness that silently drops an injection proves nothing.
pub fn parse_fault_directives(s: &str) -> Result<Vec<(usize, Fault)>, String> {
    let mut out = Vec::new();
    for item in s.split(',').map(str::trim).filter(|t| !t.is_empty()) {
        let (job, kind) = item
            .split_once(':')
            .ok_or_else(|| format!("fault '{item}': expected '<job>:<kind>@<call>'"))?;
        let job: usize = job.parse().map_err(|_| format!("fault '{item}': bad job index"))?;
        let (name, rest) = kind
            .split_once('@')
            .ok_or_else(|| format!("fault '{item}': missing '@<call>'"))?;
        let fault = match name {
            "panic" => Fault::WorkerPanicOnce {
                at: rest.parse().map_err(|_| format!("fault '{item}': bad call index"))?,
                thread: 0,
            },
            "transient" => Fault::TransientErrorOnce {
                at: rest.parse().map_err(|_| format!("fault '{item}': bad call index"))?,
            },
            "fuse" => {
                let (at, ms) = rest
                    .split_once('+')
                    .ok_or_else(|| format!("fault '{item}': expected 'fuse@<call>+<ms>'"))?;
                Fault::DeadlineFuseOnce {
                    at: at.parse().map_err(|_| format!("fault '{item}': bad call index"))?,
                    fuse: Duration::from_millis(
                        ms.parse().map_err(|_| format!("fault '{item}': bad fuse ms"))?,
                    ),
                }
            }
            other => return Err(format!("fault '{item}': unknown kind '{other}'")),
        };
        out.push((job, fault));
    }
    Ok(out)
}

/// An engine that misbehaves on demand.
pub struct FaultyEngine<E> {
    inner: E,
    faults: Vec<Fault>,
    calls: usize,
    injected: usize,
    /// When `true`, a successful `degrade_to_unmemoized` also clears
    /// pending one-shot faults — modeling corruption that lived in the
    /// memoized state the fallback just discarded.
    clear_on_degrade: bool,
    /// Executor for [`Fault::WorkerPanicOnce`] dispatches.
    exec: Option<Executor>,
    /// Token for [`Fault::DeadlineFuseOnce`].
    cancel: Option<CancelToken>,
}

impl<E: MttkrpEngine> FaultyEngine<E> {
    /// Wraps `inner` with a list of faults to inject.
    pub fn new(inner: E, faults: Vec<Fault>) -> Self {
        FaultyEngine {
            inner,
            faults,
            calls: 0,
            injected: 0,
            clear_on_degrade: false,
            exec: None,
            cancel: None,
        }
    }

    /// See [`FaultyEngine::clear_on_degrade`] field docs.
    pub fn with_clear_on_degrade(mut self) -> Self {
        self.clear_on_degrade = true;
        self
    }

    /// Attaches the executor [`Fault::WorkerPanicOnce`] dispatches its
    /// panicking fan-out on — typically a clone of the wrapped engine's
    /// own executor, so the panic lands in the very pool the engine's
    /// kernels run on.
    pub fn with_executor(mut self, exec: Executor) -> Self {
        self.exec = Some(exec);
        self
    }

    /// Attaches the token [`Fault::DeadlineFuseOnce`] arms — the same
    /// token the CPD driver and the kernels observe.
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Total MTTKRP calls observed.
    pub fn calls(&self) -> usize {
        self.calls
    }

    /// Faults actually injected so far.
    pub fn injected(&self) -> usize {
        self.injected
    }

    /// The wrapped engine.
    pub fn inner(&self) -> &E {
        &self.inner
    }

    fn apply_faults(&mut self, out: &mut Mat, call: usize) {
        for fault in &self.faults {
            let (row, col, value, fire) = match *fault {
                Fault::MttkrpOutputOnce {
                    at,
                    row,
                    col,
                    value,
                } => (row, col, value, call == at),
                Fault::MttkrpOutputAlways {
                    from,
                    row,
                    col,
                    value,
                } => (row, col, value, call >= from),
                Fault::WorkerPanicOnce { .. }
                | Fault::DeadlineFuseOnce { .. }
                | Fault::TransientErrorOnce { .. } => continue,
            };
            if fire && row < out.rows() && col < out.cols() {
                out[(row, col)] = value;
                self.injected += 1;
            }
        }
    }

    /// Fires the runtime-layer faults scheduled for `call`: arms the
    /// deadline fuse, then dispatches the panicking fan-out (which
    /// unwinds out of this frame, exactly like a real worker panic
    /// surfacing through `Executor::fanout`).
    fn fire_runtime_faults(&mut self, call: usize) {
        let mut panic_thread = None;
        let mut transient = false;
        for fault in &self.faults {
            match *fault {
                Fault::WorkerPanicOnce { at, thread } if call == at && self.exec.is_some() => {
                    panic_thread = Some(thread);
                }
                Fault::DeadlineFuseOnce { at, fuse } if call == at => {
                    if let Some(token) = &self.cancel {
                        token.set_deadline(fuse);
                        self.injected += 1;
                    }
                }
                Fault::TransientErrorOnce { at } if call == at => {
                    transient = true;
                }
                _ => {}
            }
        }
        if transient {
            self.injected += 1;
            panic!("injected transient fault (fault harness, call {call})");
        }
        if let Some(thread) = panic_thread {
            self.injected += 1;
            let exec = self.exec.as_ref().expect("checked above");
            let nthreads = exec.workers().max(thread + 1);
            exec.fanout(nthreads, |th| {
                if th == thread {
                    panic!("injected worker panic (fault harness, thread {th})");
                }
            });
        }
    }
}

impl<E: MttkrpEngine> MttkrpEngine for FaultyEngine<E> {
    fn dims(&self) -> &[usize] {
        self.inner.dims()
    }

    fn name(&self) -> String {
        format!("faulty({})", self.inner.name())
    }

    fn sweep_order(&self) -> Vec<usize> {
        self.inner.sweep_order()
    }

    fn norm_sq(&self) -> f64 {
        self.inner.norm_sq()
    }

    fn mttkrp(&mut self, factors: &[Mat], mode: usize) -> Mat {
        let call = self.calls;
        self.calls += 1;
        self.fire_runtime_faults(call);
        let mut out = self.inner.mttkrp(factors, mode);
        self.apply_faults(&mut out, call);
        out
    }

    fn degrade_to_unmemoized(&mut self) -> bool {
        let degraded = self.inner.degrade_to_unmemoized();
        if degraded && self.clear_on_degrade {
            self.faults
                .retain(|f| !matches!(f, Fault::MttkrpOutputOnce { .. }));
        }
        degraded
    }

    fn degradations(&self) -> Vec<crate::model::DegradationEvent> {
        self.inner.degradations()
    }

    fn last_mode_stats(&self, mode: usize) -> Option<crate::telemetry::ModeStats> {
        self.inner.last_mode_stats(mode)
    }

    fn predicted_mode_traffic(&self, mode: usize) -> Option<(f64, f64)> {
        self.inner.predicted_mode_traffic(mode)
    }

    fn telemetry_alloc_events(&self) -> u64 {
        self.inner.telemetry_alloc_events()
    }

    fn telemetry_runtime_counters(&self) -> Option<crate::runtime::RuntimeCounters> {
        self.inner.telemetry_runtime_counters()
    }

    fn executor(&self) -> &Executor {
        self.inner.executor()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ReferenceEngine;
    use sptensor::CooTensor;

    fn tiny() -> CooTensor {
        let mut t = CooTensor::new(vec![3, 3, 3]);
        t.push(&[0, 1, 2], 1.0);
        t.push(&[1, 2, 0], 2.0);
        t.push(&[2, 0, 1], 3.0);
        t.sort_dedup();
        t
    }

    #[test]
    fn injects_exactly_at_the_chosen_call() {
        let t = tiny();
        let mut eng = FaultyEngine::new(
            ReferenceEngine::new(t.clone()),
            vec![Fault::MttkrpOutputOnce {
                at: 1,
                row: 0,
                col: 0,
                value: f64::NAN,
            }],
        );
        let factors = crate::cpd::init_factors(t.dims(), 2, 1);
        let a = eng.mttkrp(&factors, 0); // call 0: clean
        assert!(a.as_slice().iter().all(|x| x.is_finite()));
        let b = eng.mttkrp(&factors, 1); // call 1: poisoned
        assert!(b[(0, 0)].is_nan());
        let c = eng.mttkrp(&factors, 2); // call 2: clean again
        assert!(c.as_slice().iter().all(|x| x.is_finite()));
        assert_eq!(eng.calls(), 3);
        assert_eq!(eng.injected(), 1);
    }

    #[test]
    fn persistent_fault_fires_on_every_call() {
        let t = tiny();
        let mut eng = FaultyEngine::new(
            ReferenceEngine::new(t.clone()),
            vec![Fault::MttkrpOutputAlways {
                from: 0,
                row: 1,
                col: 0,
                value: f64::INFINITY,
            }],
        );
        let factors = crate::cpd::init_factors(t.dims(), 2, 1);
        for mode in 0..3 {
            let out = eng.mttkrp(&factors, mode);
            assert!(out[(1, 0)].is_infinite());
        }
        assert_eq!(eng.injected(), 3);
    }

    #[test]
    fn degrade_clears_one_shot_faults_when_asked() {
        struct Memoish(ReferenceEngine);
        impl MttkrpEngine for Memoish {
            fn dims(&self) -> &[usize] {
                self.0.dims()
            }
            fn name(&self) -> String {
                "memoish".into()
            }
            fn sweep_order(&self) -> Vec<usize> {
                self.0.sweep_order()
            }
            fn norm_sq(&self) -> f64 {
                self.0.norm_sq()
            }
            fn mttkrp(&mut self, factors: &[Mat], mode: usize) -> Mat {
                self.0.mttkrp(factors, mode)
            }
            fn degrade_to_unmemoized(&mut self) -> bool {
                true
            }
        }
        let t = tiny();
        let mut eng = FaultyEngine::new(
            Memoish(ReferenceEngine::new(t.clone())),
            vec![Fault::MttkrpOutputOnce {
                at: 5,
                row: 0,
                col: 0,
                value: f64::NAN,
            }],
        )
        .with_clear_on_degrade();
        assert!(eng.degrade_to_unmemoized());
        let factors = crate::cpd::init_factors(t.dims(), 2, 1);
        for call in 0..8 {
            let out = eng.mttkrp(&factors, call % 3);
            assert!(out.as_slice().iter().all(|x| x.is_finite()));
        }
        assert_eq!(eng.injected(), 0);
    }

    #[test]
    fn transient_fault_panics_exactly_once() {
        let t = tiny();
        let mut eng = FaultyEngine::new(
            ReferenceEngine::new(t.clone()),
            vec![Fault::TransientErrorOnce { at: 1 }],
        );
        let factors = crate::cpd::init_factors(t.dims(), 2, 1);
        let _ = eng.mttkrp(&factors, 0); // call 0: clean
        let hit = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            eng.mttkrp(&factors, 1)
        }));
        assert!(hit.is_err(), "call 1 must panic");
        let _ = eng.mttkrp(&factors, 2); // call 2: clean again
        assert_eq!(eng.injected(), 1);
    }

    #[test]
    fn fault_directives_parse() {
        let faults = parse_fault_directives("2:panic@3, 5:fuse@1+50,0:transient@7").unwrap();
        assert_eq!(faults.len(), 3);
        assert!(matches!(
            faults[0],
            (2, Fault::WorkerPanicOnce { at: 3, thread: 0 })
        ));
        match faults[1] {
            (5, Fault::DeadlineFuseOnce { at: 1, fuse }) => {
                assert_eq!(fuse, Duration::from_millis(50));
            }
            ref other => panic!("bad fuse parse: {other:?}"),
        }
        assert!(matches!(faults[2], (0, Fault::TransientErrorOnce { at: 7 })));
        assert!(parse_fault_directives("").unwrap().is_empty());
        for bad in ["nope", "1:panic", "1:panic@x", "1:fuse@2", "1:magic@2"] {
            assert!(parse_fault_directives(bad).is_err(), "{bad}");
        }
    }
}
