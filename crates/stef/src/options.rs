//! User-facing configuration of the STeF engine.
//!
//! The defaults reproduce the paper's STeF: nnz-balanced scheduling,
//! model-chosen memoization, model-chosen last-two-mode switching. Every
//! knob exists because the paper's ablation study (Fig. 6) turns exactly
//! that optimization off.

pub use linalg::simd::{SimdPath, SimdPolicy};

/// How non-zeros are distributed across logical threads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LoadBalance {
    /// The paper's fine-grained scheme (Algorithm 3): equal leaf counts
    /// per thread, boundary fibers replicated.
    NnzBalanced,
    /// Prior work's scheme: contiguous root slices per thread, balanced
    /// greedily on per-slice nnz. Used by the Fig. 6 "work distribution
    /// off" ablation and by the SPLATT/AdaTM baselines.
    SliceBased,
}

/// Which partially contracted tensors `P^(i)` to save during the mode-0
/// MTTKRP.
#[derive(Clone, Debug, PartialEq)]
pub enum MemoPolicy {
    /// Minimize the data-movement model of §IV-C (the paper's choice).
    DataMovementModel,
    /// Memoize every level `1..d-2` (Fig. 6 ablation "save all").
    SaveAll,
    /// Memoize nothing (Fig. 6 ablation "save none").
    SaveNone,
    /// Minimize an arithmetic-operation-count model, ignoring data
    /// movement — the AdaTM-style objective.
    OpCountModel,
    /// Explicit per-level choice; index `i` controls `P^(i)`. Entries
    /// outside `1..d-2` are ignored.
    Fixed(Vec<bool>),
}

/// Whether to consider swapping the CSF's last two levels (§II-E).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ModeSwitchPolicy {
    /// Run Algorithm 9 and let the data-movement model decide.
    ModelChosen,
    /// Keep the mode-length order (baselines; part of Fig. 6 ablation).
    Never,
    /// Always swap.
    Always,
    /// Deliberately take the opposite of the model's choice — the Fig. 6
    /// "switch mode order off" ablation.
    OppositeOfModel,
}

/// How scatter conflicts on the output of non-root modes are resolved.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AccumStrategy {
    /// Let the cost model (`model::choose_accum`) price privatization
    /// against atomics per level; privatization is additionally subject
    /// to the [`StefOptions::privatize_cap_bytes`] memory cap.
    Auto,
    /// One output copy per logical thread, reduced after the join
    /// (paper Algorithm 4, lines 13–14).
    Privatized,
    /// A single shared output updated with atomic adds.
    Atomic,
}

/// Which MTTKRP engine backs the decomposition.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum EngineChoice {
    /// The memoized CSF engine ([`crate::Stef`]). The default — it is
    /// the paper's configuration and the right answer for tensors with
    /// fiber reuse.
    #[default]
    Csf,
    /// The adaptive linearized engine ([`crate::AltoEngine`]):
    /// bit-interleaved indices, no fiber structure, privatized or
    /// atomic scatter. Wins on irregular hypersparse tensors whose
    /// fibers barely collapse.
    Alto,
    /// Prepare the CSF plan, price both engines with the §IV-C
    /// data-movement model, and keep the cheaper one
    /// (`engine::build_engine`).
    Auto,
}

impl EngineChoice {
    /// Parses `csf` / `alto` / `auto` (case-insensitive).
    pub fn parse(s: &str) -> Option<EngineChoice> {
        match s.to_ascii_lowercase().as_str() {
            "csf" => Some(EngineChoice::Csf),
            "alto" => Some(EngineChoice::Alto),
            "auto" => Some(EngineChoice::Auto),
            _ => None,
        }
    }

    /// The canonical flag spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            EngineChoice::Csf => "csf",
            EngineChoice::Alto => "alto",
            EngineChoice::Auto => "auto",
        }
    }
}

/// Full engine configuration.
#[derive(Clone, Debug)]
pub struct StefOptions {
    /// Decomposition rank `R`.
    pub rank: usize,
    /// Logical thread count; 0 means "resolve a default": the
    /// `STEF_NUM_THREADS` env var if set, else all hardware threads.
    pub num_threads: usize,
    /// Cache size parameter of the data-movement model, in bytes
    /// (paper §IV-C `cachesize`). Defaults to 16 MiB, a typical L3 share.
    pub cache_bytes: usize,
    /// Work distribution scheme.
    pub load_balance: LoadBalance,
    /// Memoization policy.
    pub memo: MemoPolicy,
    /// Last-two-mode switching policy.
    pub mode_switch: ModeSwitchPolicy,
    /// Output conflict strategy for non-root modes.
    pub accum: AccumStrategy,
    /// Memory cap (bytes) for privatized outputs under
    /// [`AccumStrategy::Auto`].
    pub privatize_cap_bytes: usize,
    /// Memory budget (bytes) for the engine's own arenas — memoized
    /// partials `P^(i)`, workspace scratch, privatized outputs. 0 means
    /// unlimited. When a configuration does not fit, the engine
    /// *degrades* (drops memoized tensors largest-first, then falls
    /// back from privatized to atomic accumulation), recording
    /// [`crate::DegradationEvent`]s; only a budget too small for even
    /// the minimal plan yields `StefError::BudgetExceeded`.
    pub memory_budget: usize,
    /// Cooperative cancellation token, installed on the engine's
    /// executor at preparation so every chunk claim observes it.
    pub cancel: Option<crate::runtime::CancelToken>,
    /// Engine selection: memoized CSF, linearized ALTO-style, or
    /// model-priced auto pick (only consulted by
    /// [`crate::engine::build_engine`]; constructing [`crate::Stef`] or
    /// [`crate::AltoEngine`] directly ignores it).
    pub engine: EngineChoice,
    /// NUMA worker-placement policy, defaulting to the `STEF_NUMA` env
    /// override (else `auto`). Under `auto` the pool pins each worker
    /// to its node's CPUs when more than one node is detected;
    /// single-node machines are never touched.
    pub numa: crate::numa::NumaPolicy,
}

/// Best-effort detection of the per-core cache the data-movement model
/// should assume: the L2 size from sysfs on Linux, else 16 MiB. (The
/// last-level cache is shared and often enormous relative to one
/// thread's working set; L2 is the per-core reuse window the §IV-C
/// `cachesize` parameter models best.)
pub fn detect_cache_bytes() -> usize {
    const FALLBACK: usize = 16 << 20;
    let path = "/sys/devices/system/cpu/cpu0/cache/index2/size";
    let Ok(text) = std::fs::read_to_string(path) else {
        return FALLBACK;
    };
    let text = text.trim();
    let (num, mult) = if let Some(k) = text.strip_suffix('K') {
        (k, 1024)
    } else if let Some(m) = text.strip_suffix('M') {
        (m, 1024 * 1024)
    } else {
        (text, 1)
    };
    num.parse::<usize>()
        .map(|n| n * mult)
        .unwrap_or(FALLBACK)
        .max(64 << 10)
}

impl StefOptions {
    /// The paper's STeF configuration at the given rank.
    pub fn new(rank: usize) -> Self {
        StefOptions {
            rank,
            num_threads: 0,
            cache_bytes: detect_cache_bytes(),
            load_balance: LoadBalance::NnzBalanced,
            memo: MemoPolicy::DataMovementModel,
            mode_switch: ModeSwitchPolicy::ModelChosen,
            accum: AccumStrategy::Auto,
            privatize_cap_bytes: 512 << 20,
            memory_budget: 0,
            cancel: None,
            engine: EngineChoice::default(),
            numa: crate::numa::NumaPolicy::from_env(),
        }
    }

    /// Resolved logical thread count: `num_threads`, or — when 0 — the
    /// `STEF_NUM_THREADS` env override, falling back to all hardware
    /// workers (`runtime::default_threads`).
    pub fn threads(&self) -> usize {
        if self.num_threads == 0 {
            crate::runtime::default_threads()
        } else {
            self.num_threads
        }
    }

    /// Resolved OS worker count for the engine's executor: honors
    /// `num_threads` (capped at hardware parallelism) instead of the
    /// process-global probe the old `sync::physical_workers` used.
    pub fn workers(&self) -> usize {
        crate::runtime::resolve_workers(self.num_threads)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_configuration() {
        let o = StefOptions::new(32);
        assert_eq!(o.rank, 32);
        assert_eq!(o.load_balance, LoadBalance::NnzBalanced);
        assert_eq!(o.memo, MemoPolicy::DataMovementModel);
        assert_eq!(o.mode_switch, ModeSwitchPolicy::ModelChosen);
    }

    #[test]
    fn engine_choice_parses_all_spellings() {
        for e in [EngineChoice::Csf, EngineChoice::Alto, EngineChoice::Auto] {
            assert_eq!(EngineChoice::parse(e.as_str()), Some(e));
            assert_eq!(EngineChoice::parse(&e.as_str().to_uppercase()), Some(e));
        }
        assert_eq!(EngineChoice::parse("taco"), None);
        assert_eq!(StefOptions::new(4).engine, EngineChoice::Csf);
    }

    #[test]
    fn detect_cache_is_sane() {
        let c = detect_cache_bytes();
        assert!(c >= 64 << 10, "cache {c} too small");
        assert!(c <= 1 << 32, "cache {c} absurd");
    }

    #[test]
    fn zero_threads_resolves_to_default() {
        let o = StefOptions::new(8);
        assert_eq!(o.threads(), crate::runtime::default_threads());
        let mut o2 = o.clone();
        o2.num_threads = 3;
        assert_eq!(o2.threads(), 3);
    }

    #[test]
    fn workers_honor_num_threads() {
        let hw = crate::runtime::hardware_workers();
        let o = StefOptions::new(8);
        assert_eq!(o.workers(), crate::runtime::resolve_workers(0));
        let mut o2 = o.clone();
        o2.num_threads = 1;
        assert_eq!(o2.workers(), 1, "explicit --threads 1 must mean 1 worker");
        o2.num_threads = 2;
        assert_eq!(o2.workers(), 2.min(hw));
    }
}
