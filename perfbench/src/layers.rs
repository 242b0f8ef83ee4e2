//! Direct calls into single layers, timed for the traced run's
//! per-layer metrics, plus the checks shared by the ALS workloads.

use linalg::Mat;
use sptensor::CooTensor;
use stef::engine::MttkrpEngine;
use stef::model::{choose_plan, LevelProfile};
use stef::{EngineChoice, StefOptions};

use crate::report::Metrics;
use crate::stats::median;
use crate::timed::Sample;
use crate::trace::{now_ns, Recorder};

/// Median wall milliseconds of `reps` calls of `f`, each recorded as a
/// span named `name` under request id `id`.
pub fn time_ms<T>(rec: &Recorder, name: &str, id: u64, reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let mut ms = Vec::with_capacity(reps);
    for _ in 0..reps.max(1) {
        let t0 = now_ns();
        let out = f();
        let t1 = now_ns();
        drop(out);
        rec.push(name, id, None, t0, t1, 2);
        ms.push((t1 - t0) as f64 / 1e6);
    }
    median(&ms)
}

/// The kernel-boundary metrics of traced decompositions. Returns the
/// iteration, MTTKRP and dense-update medians in milliseconds.
pub fn kernel_metrics(samples: &[&Sample], m: &mut Metrics) -> (f64, f64, f64) {
    let pool = |f: fn(&Sample) -> &Vec<f64>| -> Vec<f64> {
        samples.iter().flat_map(|s| f(s).iter().copied()).collect()
    };
    let iter = median(&pool(|s| &s.iter_ms));
    let mttkrp = median(&pool(|s| &s.mttkrp_ms));
    let dense: Vec<f64> = samples
        .iter()
        .flat_map(|s| s.iter_ms.iter().zip(&s.mttkrp_ms).map(|(i, k)| i - k))
        .collect();
    let dense = median(&dense);
    m.set("engine.first_iter_ms", median(&samples.iter().map(|s| s.first_iter_ms).collect::<Vec<_>>()), "ms");
    m.set("engine.alloc_events_steady", samples.iter().map(|s| s.alloc_growth).sum::<u64>() as f64, "count");
    m.set("kernels.mttkrp_ms_p50", mttkrp, "ms");
    for mode in 0..3 {
        let v: Vec<f64> = samples
            .iter()
            .flat_map(|s| s.mode_ms.iter().filter(|x| x.0 == mode).map(|x| x.1))
            .collect();
        m.set(&format!("kernels.mode{mode}_ms_p50"), median(&v), "ms");
    }
    m.set("kernels.share", mttkrp / iter, "ratio");
    m.set("cpd.dense_ms_p50", dense, "ms");
    let rt: Vec<(f64, f64, f64)> = samples.iter().filter_map(|s| s.runtime_per_iter).collect();
    m.set("runtime.dispatches_per_iter", median(&rt.iter().map(|r| r.0).collect::<Vec<_>>()), "count");
    m.set("runtime.inline_runs_per_iter", median(&rt.iter().map(|r| r.1).collect::<Vec<_>>()), "count");
    m.set("runtime.chunks_per_iter", median(&rt.iter().map(|r| r.2).collect::<Vec<_>>()), "count");
    (iter, mttkrp, dense)
}

/// Replays the engine's set-up steps through their public functions:
/// the CSF build, Algorithm 9's swap count, the §IV-C plan and the
/// linearization, and reports them beside a whole `build_engine`.
/// Returns the picked engine's name and its §IV-C predicted bytes per
/// iteration.
pub fn setup_replay(rec: &Recorder, coo: &CooTensor, opts: &StefOptions, m: &mut Metrics) -> (String, f64) {
    // The sub-calls and the whole prepare are timed interleaved, so
    // memory-bandwidth drift over the run hits them alike.
    const REPS: usize = 5;
    let order = sptensor::sort_modes_by_length(coo.dims());
    let csf = sptensor::build_csf(coo, &order);
    let linearizable = sptensor::index_bits_for(coo.dims()) <= 128;
    let mut t: [Vec<f64>; 5] = Default::default();
    for _ in 0..REPS {
        t[0].push(time_ms(rec, "sptensor.build_csf", 0, 1, || sptensor::build_csf(coo, &order)));
        t[1].push(time_ms(rec, "sptensor.swapcount", 0, 1, || {
            sptensor::count_fibers_if_last_two_swapped(&csf)
        }));
        t[2].push(time_ms(rec, "model.plan", 0, 1, || {
            let base = LevelProfile::from_csf(&csf, opts.rank, opts.cache_bytes);
            let swapped = LevelProfile::swapped_from_csf(&csf, opts.rank, opts.cache_bytes);
            choose_plan(&base, &swapped)
        }));
        if linearizable {
            t[3].push(time_ms(rec, "sptensor.linearize", 0, 1, || sptensor::Linearized::build(coo)));
        }
        t[4].push(time_ms(rec, "engine.prepare", 0, 1, || stef::build_engine(coo, opts.clone())));
    }
    let [build_csf, swapcount, plan, linearize, prepare] = t.map(|v| median(&v));
    let (picked, predicted_bytes) = match stef::build_engine(coo, opts.clone()) {
        Ok(e) => (
            e.name(),
            (0..coo.ndim())
                .filter_map(|mode| e.predicted_mode_traffic(mode))
                .map(|(r, w)| (r + w) * 8.0)
                .sum(),
        ),
        Err(_) => (String::new(), f64::NAN),
    };
    // The CSF engine's arenas (the linearized engine prices against it).
    let mut csf_opts = opts.clone();
    csf_opts.engine = EngineChoice::Csf;
    let (csf_mb, partial_mb, workspace_mb, swapped) = match stef::Stef::try_prepare(coo, csf_opts) {
        Ok(s) => (
            s.csf().memory_bytes() as f64 / 1e6,
            s.partial_bytes() as f64 / 1e6,
            s.workspace_bytes() as f64 / 1e6,
            s.plan().swap_last_two,
        ),
        Err(_) => (f64::NAN, f64::NAN, f64::NAN, false),
    };
    // What prepare spends outside the replayed sub-calls: one CSF build
    // (two when the model swaps the last two modes), the plan (which
    // includes the swap count) and, for the linearized engine, the
    // linearization.
    let mut sub = build_csf * if swapped { 2.0 } else { 1.0 } + plan;
    if picked == "alto" {
        sub += linearize;
    }
    m.set("sptensor.build_csf_ms", build_csf, "ms");
    m.set("sptensor.swapcount_ms", swapcount, "ms");
    m.set("sptensor.linearize_ms", linearize, "ms");
    m.set("sptensor.csf_mb", csf_mb, "MB");
    m.set("model.plan_ms", plan, "ms");
    m.set("engine.prepare_ms", prepare, "ms");
    m.set("engine.prepare_self_ms", prepare - sub, "ms");
    m.set("engine.partial_mb", partial_mb, "MB");
    m.set("engine.workspace_mb", workspace_mb, "MB");
    m.set("model.predicted_gb_per_iter", predicted_bytes / 1e9, "GB");
    (picked, predicted_bytes)
}

/// Gram and normal-equations solve on the tallest factor's shape.
pub fn linalg_probe(rec: &Recorder, factors: &[Mat], m: &mut Metrics) {
    let Some(tall) = factors.iter().max_by_key(|f| f.rows()) else { return };
    let gram = time_ms(rec, "linalg.gram", 0, 5, || linalg::gram(tall));
    let mut v = linalg::gram(tall);
    for r in 0..v.cols() {
        v[(r, r)] += 1e-9;
    }
    let solve = time_ms(rec, "linalg.solve", 0, 5, || {
        let mut b = tall.clone();
        linalg::try_solve_gram_system(&v, &mut b).map(|_| b)
    });
    m.set("linalg.gram_ms", gram, "ms");
    m.set("linalg.solve_ms", solve, "ms");
}

/// Largest entry-wise difference of `got` from `want`, relative to the
/// largest magnitude in `want`.
pub fn rel_diff(got: &Mat, want: &Mat) -> f64 {
    if got.rows() != want.rows() || got.cols() != want.cols() {
        return f64::INFINITY;
    }
    let scale = want.as_slice().iter().fold(0.0f64, |a, &x| a.max(x.abs())).max(f64::MIN_POSITIVE);
    let diff = got
        .as_slice()
        .iter()
        .zip(want.as_slice())
        .fold(0.0f64, |a, (&x, &y)| a.max((x - y).abs()));
    diff / scale
}

/// Every mode's MTTKRP of `engine` at `factors`, in sweep order,
/// against the COO reference. Returns the worst relative difference.
pub fn reference_check(engine: &mut dyn MttkrpEngine, coo: &CooTensor, factors: &[Mat]) -> f64 {
    let mut reference = stef::ReferenceEngine::new(coo.clone());
    engine
        .sweep_order()
        .into_iter()
        .map(|mode| rel_diff(&engine.mttkrp(factors, mode), &reference.mttkrp(factors, mode)))
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rel_diff_is_scaled_by_the_reference() {
        let mut a = Mat::zeros(2, 2);
        let mut b = Mat::zeros(2, 2);
        b[(0, 0)] = 4.0;
        a[(0, 0)] = 4.0;
        a[(1, 1)] = 1e-3;
        assert!((rel_diff(&a, &b) - 2.5e-4).abs() < 1e-15);
        assert!(rel_diff(&Mat::zeros(1, 2), &b).is_infinite());
    }
}
