//! Subcommand implementations.

pub mod analyze;
pub mod batch;
pub mod bench;
pub mod decompose;
pub mod generate;
pub mod list;
pub mod serve;
pub mod top;
pub mod validate;

use crate::error::CliError;
use stef::{AccumStrategy, CancelToken, EngineChoice, Executor, MttkrpEngine, NumaPolicy, SimdPolicy};

/// Parses a `--simd` value and applies it process-wide (all engines in
/// the process share the kernel dispatch selection). A forced path that
/// the CPU cannot run degrades to the detected one with a warning from
/// the dispatch layer; an unrecognized name is a usage error (exit
/// code 2).
pub fn apply_simd_flag(name: &str) -> Result<SimdPolicy, String> {
    let policy = SimdPolicy::parse(name)
        .ok_or_else(|| format!("unknown --simd '{name}' (auto|scalar|avx2|neon)"))?;
    linalg::simd::apply(policy);
    Ok(policy)
}

/// Parses a `--accum` value. Errors are usage errors (exit code 2).
pub fn accum_by_name(name: &str) -> Result<AccumStrategy, String> {
    match name {
        "auto" => Ok(AccumStrategy::Auto),
        "privatized" => Ok(AccumStrategy::Privatized),
        "atomic" => Ok(AccumStrategy::Atomic),
        other => Err(format!(
            "unknown --accum '{other}' (auto|privatized|atomic)"
        )),
    }
}

/// Parses a `--numa` value. Errors are usage errors (exit code 2).
pub fn numa_by_name(name: &str) -> Result<NumaPolicy, String> {
    NumaPolicy::parse(name).ok_or_else(|| format!("unknown --numa '{name}' (auto|off)"))
}

/// Engine construction parameters shared by the subcommands. The budget
/// applies to the STeF engines; baselines manage their own memory and
/// ignore it.
pub struct EngineConfig {
    pub rank: usize,
    pub threads: usize,
    pub accum: AccumStrategy,
    /// Soft memory budget in bytes for workspace + memoized partials
    /// (0 = unlimited). The engine degrades its plan to fit; only an
    /// infeasible minimal plan is an error.
    pub memory_budget: usize,
    /// Cooperative cancellation token, installed on the engine's
    /// executor so in-flight kernels observe `--timeout`/Ctrl-C.
    pub cancel: Option<CancelToken>,
    /// NUMA worker-placement policy (`--numa`) of the run's executor.
    pub numa: NumaPolicy,
}

impl EngineConfig {
    pub fn new(rank: usize, threads: usize) -> Self {
        EngineConfig {
            rank,
            threads,
            accum: AccumStrategy::Auto,
            memory_budget: 0,
            cancel: None,
            numa: NumaPolicy::from_env(),
        }
    }
}

/// Builds an engine by CLI name. `accum` applies to the STeF engines;
/// baselines resolve output conflicts their own way and ignore it.
///
/// Every engine that fans out does so on a pool of its own, which
/// carries the run's cancel token: the STeF engines build theirs from
/// the options, and a baseline gets one built here.
pub fn engine_by_name(
    name: &str,
    tensor: &sptensor::CooTensor,
    cfg: &EngineConfig,
) -> Result<Box<dyn MttkrpEngine>, CliError> {
    let EngineConfig { rank, threads, .. } = *cfg;
    let mut opts = stef::StefOptions::new(rank);
    opts.num_threads = threads;
    opts.accum = cfg.accum;
    opts.memory_budget = cfg.memory_budget;
    opts.cancel = cfg.cancel.clone();
    opts.numa = cfg.numa;
    let baseline = |build: &dyn Fn(&Executor) -> Box<dyn MttkrpEngine>| {
        let exec = Executor::with_numa(stef::runtime::resolve_workers(threads), cfg.numa);
        let engine = build(&exec);
        if let Some(token) = &cfg.cancel {
            exec.set_cancel(token.clone());
        }
        engine
    };
    Ok(match name {
        "stef" | "csf" => Box::new(stef::Stef::try_prepare(tensor, opts)?),
        "alto" => {
            opts.engine = EngineChoice::Alto;
            Box::new(stef::build_engine(tensor, opts)?)
        }
        "auto" => {
            opts.engine = EngineChoice::Auto;
            Box::new(stef::build_engine(tensor, opts)?)
        }
        "stef2" => Box::new(stef::Stef2::try_prepare(tensor, opts)?),
        "splatt-1" | "splatt-2" | "splatt-all" => {
            let variant = match name {
                "splatt-1" => baselines::SplattVariant::One,
                "splatt-2" => baselines::SplattVariant::Two,
                _ => baselines::SplattVariant::All,
            };
            baseline(&|exec| Box::new(baselines::Splatt::prepare(tensor, variant, rank, threads, exec)))
        }
        "adatm" => baseline(&|exec| Box::new(baselines::AdaTm::prepare(tensor, rank, threads, exec))),
        "alto-baseline" => baseline(&|exec| Box::new(baselines::Alto::prepare(tensor, rank, threads, exec))),
        "taco" => baseline(&|exec| Box::new(baselines::TacoLike::prepare(tensor, rank, threads, exec))),
        "hicoo" => baseline(&|exec| Box::new(baselines::HiCoo::prepare(tensor, rank, threads, exec))),
        "reference" => Box::new(stef::ReferenceEngine::new(tensor.clone())),
        other => {
            return Err(CliError::Usage(format!(
                "unknown engine '{other}' (stef csf stef2 alto auto splatt-1 splatt-2 splatt-all adatm alto-baseline taco hicoo reference)"
            )))
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::uniform_tensor;

    #[test]
    fn every_engine_name_resolves() {
        let t = uniform_tensor(&[8, 8, 8], 100, 1);
        for name in [
            "stef",
            "csf",
            "stef2",
            "alto",
            "auto",
            "splatt-1",
            "splatt-2",
            "splatt-all",
            "adatm",
            "alto-baseline",
            "taco",
            "hicoo",
            "reference",
        ] {
            let e = engine_by_name(name, &t, &EngineConfig::new(2, 1)).unwrap();
            assert_eq!(e.dims(), t.dims());
        }
    }

    #[test]
    fn unknown_engine_errors() {
        let t = uniform_tensor(&[4, 4], 10, 2);
        let err = match engine_by_name("magic", &t, &EngineConfig::new(2, 1)) {
            Err(e) => e,
            Ok(_) => panic!("unknown engine must fail"),
        };
        assert_eq!(err.exit_code(), 2);
    }

    #[test]
    fn infeasible_budget_is_an_input_error() {
        let t = uniform_tensor(&[8, 8, 8], 100, 1);
        let mut cfg = EngineConfig::new(4, 2);
        cfg.memory_budget = 1; // nothing fits in one byte
        let err = match engine_by_name("stef", &t, &cfg) {
            Err(e) => e,
            Ok(_) => panic!("one-byte budget must be rejected"),
        };
        assert_eq!(err.exit_code(), 3, "{err}");
    }

    #[test]
    fn numa_names_parse() {
        assert_eq!(numa_by_name("auto").unwrap(), NumaPolicy::Auto);
        assert_eq!(numa_by_name("off").unwrap(), NumaPolicy::Off);
        assert!(numa_by_name("magic").is_err());
    }

    #[test]
    fn alto_name_builds_the_linearized_engine() {
        // "alto" is the first-class linearized engine; the differential
        // oracle stays reachable as "alto-baseline".
        let t = uniform_tensor(&[8, 8, 8], 100, 1);
        let e = engine_by_name("alto", &t, &EngineConfig::new(2, 1)).unwrap();
        assert_eq!(e.name(), "alto");
        let b = engine_by_name("alto-baseline", &t, &EngineConfig::new(2, 1)).unwrap();
        assert_ne!(b.name(), "alto");
    }

    #[test]
    fn simd_names_parse_and_apply() {
        use stef::SimdPath;
        assert_eq!(apply_simd_flag("auto").unwrap(), SimdPolicy::Auto);
        assert_eq!(
            apply_simd_flag("scalar").unwrap(),
            SimdPolicy::Force(SimdPath::Scalar)
        );
        // Forcing an ISA always parses; an unavailable one degrades to
        // the detected path inside the dispatch layer instead of
        // erroring, so both spellings are accepted here.
        assert_eq!(
            apply_simd_flag("avx2").unwrap(),
            SimdPolicy::Force(SimdPath::Avx2)
        );
        let err = apply_simd_flag("sse9").unwrap_err();
        assert!(err.contains("unknown --simd"), "{err}");
        // Leave the process on the detected path for other tests.
        linalg::simd::apply(SimdPolicy::Force(linalg::simd::detect()));
    }

    #[test]
    fn accum_names_parse() {
        assert_eq!(accum_by_name("auto").unwrap(), AccumStrategy::Auto);
        assert_eq!(
            accum_by_name("privatized").unwrap(),
            AccumStrategy::Privatized
        );
        assert_eq!(accum_by_name("atomic").unwrap(), AccumStrategy::Atomic);
        assert!(accum_by_name("magic").is_err());
    }
}
