//! Timing utilities shared by the table/figure binaries.

use stef::{init_factors, MttkrpEngine};
use workloads::{paper_suite, SuiteScale, SuiteSpec};

/// Runtime configuration read from the environment.
#[derive(Clone, Debug)]
pub struct BenchConfig {
    /// Suite scale.
    pub scale: SuiteScale,
    /// Timed repetitions per measurement.
    pub reps: usize,
    /// Logical thread count handed to engines (0 = `default_threads()`).
    pub nthreads: usize,
}

impl BenchConfig {
    /// Reads `STEF_SCALE`, `STEF_REPS` and `STEF_THREADS`.
    pub fn from_env() -> Self {
        let scale = parse_scale(
            std::env::var("STEF_SCALE")
                .unwrap_or_else(|_| "small".into())
                .as_str(),
        );
        let reps = std::env::var("STEF_REPS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(3)
            .max(1);
        let nthreads = std::env::var("STEF_THREADS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(0);
        BenchConfig {
            scale,
            reps,
            nthreads,
        }
    }
}

/// Parses a scale name (defaults to `Small` for unknown strings).
pub fn parse_scale(s: &str) -> SuiteScale {
    match s.to_ascii_lowercase().as_str() {
        "tiny" => SuiteScale::Tiny,
        "full" => SuiteScale::Full,
        _ => SuiteScale::Small,
    }
}

/// The suite, filtered by the optional `STEF_TENSORS` comma list.
pub fn suite_selection() -> Vec<SuiteSpec> {
    let all = paper_suite();
    match std::env::var("STEF_TENSORS") {
        Ok(list) => {
            let wanted: Vec<String> = list
                .split(',')
                .map(|s| s.trim().to_string())
                .filter(|s| !s.is_empty())
                .collect();
            all.into_iter()
                .filter(|s| wanted.iter().any(|w| w == s.name))
                .collect()
        }
        Err(_) => all,
    }
}

/// Result of timing one engine's full MTTKRP sweep (all modes once — one
/// CPD iteration's worth, the unit the paper's Figures 3/4 report).
#[derive(Clone, Debug)]
pub struct SweepTiming {
    /// Engine name.
    pub name: String,
    /// Best (minimum) seconds over the timed repetitions.
    pub best_seconds: f64,
    /// Median seconds.
    pub median_seconds: f64,
}

/// Times `reps` full MTTKRP sweeps (after one untimed warm-up sweep that
/// also lets auto-tuners settle) with fixed factor matrices.
///
/// Factor updates are excluded on purpose: the paper's performance
/// comparison isolates the MTTKRP kernels, and keeping factors fixed
/// keeps every engine's memoized state valid sweep after sweep.
pub fn time_mttkrp_sweep(engine: &mut dyn MttkrpEngine, rank: usize, reps: usize) -> SweepTiming {
    let dims = engine.dims().to_vec();
    let factors = init_factors(&dims, rank, 7);
    let sweep = engine.sweep_order();
    // Warm-up (plus candidate settling for auto-tuned engines: TACO-like
    // needs one measured call per candidate per mode).
    for _ in 0..4 {
        for &m in &sweep {
            std::hint::black_box(engine.mttkrp(&factors, m));
        }
    }
    let mut times = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t0 = std::time::Instant::now();
        for &m in &sweep {
            std::hint::black_box(engine.mttkrp(&factors, m));
        }
        times.push(t0.elapsed().as_secs_f64());
    }
    times.sort_by(|a, b| a.partial_cmp(b).unwrap());
    SweepTiming {
        name: engine.name(),
        best_seconds: times[0],
        median_seconds: times[times.len() / 2],
    }
}

/// Geometric mean of strictly positive values (1.0 for an empty slice).
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 1.0;
    }
    let log_sum: f64 = xs.iter().map(|&x| x.max(1e-300).ln()).sum();
    (log_sum / xs.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use stef::{ReferenceEngine, Stef, StefOptions};
    use workloads::uniform_tensor;

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((geomean(&[3.0]) - 3.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 1.0);
    }

    #[test]
    fn parse_scale_accepts_all_names() {
        assert_eq!(parse_scale("tiny"), SuiteScale::Tiny);
        assert_eq!(parse_scale("FULL"), SuiteScale::Full);
        assert_eq!(parse_scale("anything"), SuiteScale::Small);
    }

    #[test]
    fn timing_returns_positive_times() {
        let t = uniform_tensor(&[20, 20, 20], 2_000, 1);
        let mut engine = Stef::prepare(&t, StefOptions::new(4));
        let timing = time_mttkrp_sweep(&mut engine, 4, 2);
        assert!(timing.best_seconds > 0.0);
        assert!(timing.median_seconds >= timing.best_seconds);
        assert_eq!(timing.name, "stef");
    }

    #[test]
    fn timing_works_on_reference_engine() {
        let t = uniform_tensor(&[10, 10, 10], 300, 2);
        let mut engine = ReferenceEngine::new(t);
        let timing = time_mttkrp_sweep(&mut engine, 2, 1);
        assert!(timing.best_seconds > 0.0);
    }

    #[test]
    fn suite_selection_returns_full_suite_without_env() {
        // (Assumes STEF_TENSORS is unset in the test environment.)
        if std::env::var("STEF_TENSORS").is_err() {
            assert_eq!(suite_selection().len(), 16);
        }
    }
}
