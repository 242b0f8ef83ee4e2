//! One test per rung of the CPD driver's recovery ladder:
//!
//! * ridge retry — a singular solve that overflows is retried with a
//!   larger ridge and recovers; one that overflows whatever ridge is
//!   added is retried twice, then ends the run with a typed solve error;
//! * factor re-init — a resumed factor whose Gram overflows is replaced
//!   by a fresh initialization; the events are pinned, and on the
//!   reference engine (whose bits hold on every SIMD path) so are the
//!   fits, `λ` and factors;
//! * engine fallback — a NaN in a memoized MTTKRP drops memoization and
//!   recomputes, and the recomputation is recorded like any MTTKRP;
//!   an MTTKRP that overflows on a resumed checkpoint's huge factors is
//!   recomputed after their column scales are folded into `λ`.
//!
//! The `stef_mttkrp_seconds` histograms are process-wide, so every test
//! here holds one lock while it runs the driver.

use linalg::Mat;
use std::sync::Mutex;
use stef::{
    cpd_als, Checkpoint, CpdOptions, Fault, FaultyEngine, MemoPolicy, MttkrpEngine, RecoveryAction,
    ReferenceEngine, Stef, StefError, StefOptions,
};
use workloads::power_law_tensor;

static DRIVER: Mutex<()> = Mutex::new(());

fn driver_lock() -> std::sync::MutexGuard<'static, ()> {
    DRIVER.lock().unwrap_or_else(|e| e.into_inner())
}

fn test_tensor() -> sptensor::CooTensor {
    power_law_tensor(&[40, 35, 30], 3_000, &[0.6, 0.3, 0.1], 17)
}

fn opts(rank: usize, iters: usize) -> CpdOptions {
    CpdOptions {
        max_iters: iters,
        tol: 0.0,
        seed: 21,
        ..CpdOptions::new(rank)
    }
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// Order-sensitive fingerprint of every factor entry's bits.
fn factor_hash(r: &stef::CpdResult) -> u64 {
    r.factors
        .iter()
        .flat_map(|f| f.as_slice())
        .fold(0u64, |h, x| h.rotate_left(5) ^ x.to_bits())
}

fn events(r: &stef::RecoveryEvents) -> Vec<(usize, Option<usize>, RecoveryAction, String)> {
    r.events
        .iter()
        .map(|e| (e.iteration, e.mode, e.action, e.detail.clone()))
        .collect()
}

/// The reference engine, except that every MTTKRP returns `1e307` in
/// every entry: finite, but from the second mode on its solve overflows
/// whatever ridge is added.
struct Overflowing(ReferenceEngine);

impl MttkrpEngine for Overflowing {
    fn dims(&self) -> &[usize] {
        self.0.dims()
    }
    fn name(&self) -> String {
        "overflowing".into()
    }
    fn sweep_order(&self) -> Vec<usize> {
        self.0.sweep_order()
    }
    fn norm_sq(&self) -> f64 {
        self.0.norm_sq()
    }
    fn mttkrp(&mut self, factors: &[Mat], mode: usize) -> Mat {
        let out = self.0.mttkrp(factors, mode);
        Mat::from_fn(out.rows(), out.cols(), |_, _| 1e307)
    }
}

#[test]
fn overflowing_solve_retries_the_ridge_twice_then_fails_typed() {
    let _guard = driver_lock();
    let mut engine = Overflowing(ReferenceEngine::new(test_tensor()));
    // The first mode's solve still fits in range; the second one, whose
    // system holds the first mode's normalized Gram, overflows.
    let second = engine.sweep_order()[1];
    match cpd_als(&mut engine, &opts(4, 3)) {
        Err(StefError::Solve {
            iteration: 1,
            mode,
            source: linalg::SolveError::NonFiniteSolution,
        }) => assert_eq!(mode, second),
        other => panic!("expected a NonFiniteSolution solve error in iteration 1, got {other:?}"),
    }
}

/// The reference engine, except that its first MTTKRP adds
/// `1e300 · (1, -1, 1, -1)` to every row.
struct Spiked(ReferenceEngine, bool);

impl MttkrpEngine for Spiked {
    fn dims(&self) -> &[usize] {
        self.0.dims()
    }
    fn name(&self) -> String {
        "spiked".into()
    }
    fn sweep_order(&self) -> Vec<usize> {
        self.0.sweep_order()
    }
    fn norm_sq(&self) -> f64 {
        self.0.norm_sq()
    }
    fn mttkrp(&mut self, factors: &[Mat], mode: usize) -> Mat {
        let mut out = self.0.mttkrp(factors, mode);
        if !std::mem::replace(&mut self.1, true) {
            for i in 0..out.rows() {
                for j in 0..out.cols() {
                    out[(i, j)] += if j % 2 == 0 { 1e300 } else { -1e300 };
                }
            }
        }
        out
    }
}

#[test]
fn near_singular_solve_recovers_with_one_ridge_retry() {
    let _guard = driver_lock();
    let t = test_tensor();
    let cp = after_one_iteration(&mut ReferenceEngine::new(t.clone()));
    let mut engine = Spiked(ReferenceEngine::new(t), false);
    let sweep = engine.sweep_order();
    // Every column of the other factors is the first unit vector, so
    // the first mode's `V` is exactly the all-ones matrix: singular. The
    // solver's own small ridge leaves the spike's component off the
    // ones direction overflowing; the first retry's ridge (1e-6) does
    // not.
    let mut start = cp.clone();
    for &m in &sweep[1..] {
        start.factors[m] = Mat::from_fn(cp.dims[m], 4, |i, _| if i == 0 { 1.0 } else { 0.0 });
    }
    let o = CpdOptions {
        resume: Some(start),
        ..opts(4, 3)
    };
    let result = cpd_als(&mut engine, &o).expect("one ridge retry recovers");
    assert_eq!(
        events(&result.recovery),
        vec![(
            2,
            Some(sweep[0]),
            RecoveryAction::RidgeRetry,
            "solve failed (solve produced non-finite values); retrying with ridge 1.000e-6".into()
        )]
    );
    // The retried solve, plus the solves the singular systems sent past
    // plain Cholesky.
    assert_eq!(result.irregular_solves, 5);
    assert_eq!(
        bits(&result.fits),
        [
            4588826460553945376,
            4584130673132487808,
            4588432533392983840
        ]
    );
    assert_eq!(
        bits(&result.lambda),
        [
            4608238521738137555,
            4607182418800017408,
            4607182418800017408,
            4607182418800017408
        ]
    );
    assert_eq!(factor_hash(&result), 0x48d8_91bf_9c40_5ba7);
}

/// One clean iteration on `engine`, as the checkpoint a resumed run
/// starts from.
fn after_one_iteration<E: MttkrpEngine>(engine: &mut E) -> Checkpoint {
    let r = cpd_als(engine, &opts(4, 1)).expect("clean first iteration");
    Checkpoint {
        version: stef::checkpoint::CHECKPOINT_VERSION,
        iteration: 1,
        seed: 21,
        rank: 4,
        dims: engine.dims().to_vec(),
        engine: engine.name(),
        lambda: r.lambda,
        fits: r.fits,
        factors: r.factors,
    }
}

/// Resumes `engine` from `cp` with factor `poisoned` overwritten by
/// finite `1e200` entries, so its Gram overflows in the first update
/// that reads it.
fn resume_poisoned<E: MttkrpEngine>(
    engine: &mut E,
    cp: &Checkpoint,
    poisoned: usize,
) -> stef::CpdResult {
    let mut bad = cp.clone();
    bad.factors[poisoned] = Mat::from_fn(cp.dims[poisoned], 4, |_, _| 1e200);
    let o = CpdOptions {
        resume: Some(bad),
        ..opts(4, 4)
    };
    cpd_als(engine, &o).expect("run recovers")
}

#[test]
fn overflowing_gram_reinits_the_factor() {
    let _guard = driver_lock();
    let t = test_tensor();
    let cp = after_one_iteration(&mut ReferenceEngine::new(t.clone()));
    let mut engine = ReferenceEngine::new(t);
    let poisoned = engine.sweep_order()[1];
    let result = resume_poisoned(&mut engine, &cp, poisoned);
    // The reference engine has no memoization to drop.
    assert_eq!(
        events(&result.recovery),
        vec![(
            2,
            Some(poisoned),
            RecoveryAction::FactorReinit,
            "non-finite Gram matrix".into()
        )]
    );
    assert_eq!(result.recovery.factor_reinits, 1);
    // The reference engine's MTTKRP is scalar and the dense update is
    // bitwise on every SIMD path, so these bits hold on any host.
    assert_eq!(
        bits(&result.fits),
        [
            4588826460553945376,
            4589202763400415400,
            4589454134648460832,
            4589503753820387080
        ]
    );
    assert_eq!(
        bits(&result.lambda),
        [
            4609863095525192851,
            4607182418800017408,
            4607182418800017408,
            4610159627830716739
        ]
    );
    assert_eq!(factor_hash(&result), 0x54b2_3a77_53ab_80ea);
}

#[test]
fn huge_resumed_factors_are_folded_into_lambda_and_the_run_completes() {
    let _guard = driver_lock();
    let t = test_tensor();
    let cp = after_one_iteration(&mut ReferenceEngine::new(t.clone()));
    // Factors 1 and 2 at finite 1e200: their product overflows mode 0's
    // MTTKRP, which the reference engine cannot answer by dropping
    // memoization.
    let mut huge = cp.clone();
    for m in [1, 2] {
        huge.factors[m] = Mat::from_fn(cp.dims[m], 4, |_, _| 1e200);
    }
    let o = CpdOptions {
        resume: Some(huge),
        ..opts(4, 4)
    };
    let result = cpd_als(&mut ReferenceEngine::new(t), &o).expect("huge resumed factors are folded");
    assert_eq!(result.iterations, 4);
    assert_eq!(result.fits.len(), 4);
    assert!(result.fits.iter().all(|f| f.is_finite()), "{:?}", result.fits);
    assert!(result.lambda.iter().all(|l| l.is_finite()), "{:?}", result.lambda);
    assert_eq!(result.recovery.factor_reinits, 0, "folding keeps the factors");
}

#[test]
fn reinit_on_a_memoized_engine_also_drops_memoization() {
    let _guard = driver_lock();
    let t = test_tensor();
    let mut sopts = StefOptions::new(4);
    sopts.memo = MemoPolicy::SaveAll;
    let cp = after_one_iteration(&mut Stef::prepare(&t, sopts.clone()));
    let mut engine = Stef::prepare(&t, sopts);
    let sweep = engine.sweep_order();
    let result = resume_poisoned(&mut engine, &cp, sweep[1]);
    assert_eq!(
        events(&result.recovery),
        vec![
            (
                2,
                Some(sweep[1]),
                RecoveryAction::FactorReinit,
                "non-finite Gram matrix".into()
            ),
            (
                2,
                Some(sweep[0]),
                RecoveryAction::EngineFallback,
                "memoized partials stale after factor re-init".into()
            ),
        ]
    );
}

#[test]
fn engine_fallback_retry_is_recorded_like_every_mttkrp() {
    let _guard = driver_lock();
    let t = test_tensor();
    let mut sopts = StefOptions::new(4);
    sopts.memo = MemoPolicy::SaveAll;
    let stef = Stef::prepare(&t, sopts);
    let sweep = stef.sweep_order();
    let d = sweep.len();
    // Call 4 (0-based) is iteration 2's update of sweep[1].
    let mode = sweep[1];
    let mut faulty = FaultyEngine::new(
        stef,
        vec![Fault::MttkrpOutputOnce {
            at: d + 1,
            row: 0,
            col: 0,
            value: f64::NAN,
        }],
    )
    .with_clear_on_degrade();
    let hist = stef::metrics::histogram(
        "stef_mttkrp_seconds",
        "Wall time of one MTTKRP pass, by target mode",
        &[("mode", &mode.to_string())],
        stef::metrics::TIME_BUCKETS,
    );
    let before = hist.count();
    let result = cpd_als(&mut faulty, &opts(4, 4)).expect("recovered run");
    assert_eq!(
        events(&result.recovery),
        vec![(
            2,
            Some(mode),
            RecoveryAction::EngineFallback,
            "non-finite MTTKRP output; disabled memoization and recomputed".into()
        )]
    );

    let records = &result.telemetry.records;
    assert_eq!(records.len(), 4);
    for (i, rec) in records.iter().enumerate() {
        let extra = usize::from(i == 1);
        assert_eq!(rec.modes.len(), d + extra, "iteration {}", i + 1);
        let of_mode = rec.modes.iter().filter(|s| s.mode == mode).count();
        assert_eq!(of_mode, 1 + extra, "iteration {}", i + 1);
    }
    let samples = records.iter().flat_map(|r| &r.modes);
    let of_mode = samples.clone().filter(|s| s.mode == mode).count() as u64;
    assert_eq!(
        hist.count() - before,
        of_mode,
        "histogram count rose by the samples"
    );
    let total: f64 = samples.map(|s| s.seconds).sum();
    assert_eq!(
        result.mttkrp_time(),
        std::time::Duration::from_secs_f64(total)
    );
}
