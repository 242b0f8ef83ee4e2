//! The sparsity-aware data-movement model (paper §IV) and configuration
//! search.
//!
//! For a candidate configuration — a set `M` of memoized levels and a
//! choice of last-two-mode order — the model estimates the total memory
//! traffic (in `f64` elements) of one CPD iteration's worth of MTTKRPs,
//! using only per-level fiber counts `m_i`, mode lengths `n_i`, the rank
//! `R` and a cache-size parameter:
//!
//! * factor-matrix traffic is `DM_factor_i(x)`: `x·R` when the matrix
//!   exceeds the cache, else at most one cold load `min(N_i·R, x·R)`;
//! * index-structure traffic is `2·m_l` per traversed level (fiber ids +
//!   pointers);
//! * memoized partials cost `m_i·R` to write during mode 0 (counted on
//!   both the read and write sides, following the paper's write-allocate
//!   accounting) and `m_k·R` to read back;
//! * a mode `i > 0` with a saved level `k ≥ i` only traverses levels
//!   `0..=k`; otherwise it traverses the whole tree.
//!
//! The search is exhaustive over `M ⊆ {1..=d-2}` × {base order, swapped
//! order} — at most `2^(d-1)` configurations, evaluated in microseconds —
//! exactly as the paper prescribes ("our model exhaustively checks every
//! configuration").
//!
//! One deviation from the paper's typeset formulas, recorded in
//! DESIGN.md: their `DM_mem_k_read` sums an `m_l·R` partial-read term
//! over *all* levels `l < k`; we charge the partial read once, `m_k·R`,
//! where the partial actually lives, and charge recompute factor reads
//! for levels `i+1..=k`. This keeps the model's units coherent without
//! changing any qualitative decision.

use sptensor::{count_fibers_if_last_two_swapped, Csf};

/// The per-level quantities the model consumes, for one mode order.
#[derive(Clone, Debug, PartialEq)]
pub struct LevelProfile {
    /// Mode length at each level, root to leaf.
    pub dims: Vec<usize>,
    /// Fiber count `m_l` at each level (`fibers[d-1] == nnz`).
    pub fibers: Vec<usize>,
    /// Decomposition rank `R`.
    pub rank: usize,
    /// Cache size in *elements* (`cache_bytes / 8`).
    pub cache_elems: usize,
}

impl LevelProfile {
    /// The profile of a CSF with `fibers[l]` fibers at the level of
    /// length `dims[l]`.
    pub fn new(dims: Vec<usize>, fibers: Vec<usize>, rank: usize, cache_bytes: usize) -> Self {
        LevelProfile {
            dims,
            fibers,
            rank,
            cache_elems: cache_bytes / std::mem::size_of::<f64>(),
        }
    }

    /// Reads the profile off a built CSF.
    pub fn from_csf(csf: &Csf, rank: usize, cache_bytes: usize) -> Self {
        Self::new(csf.level_dims().to_vec(), csf.fiber_counts(), rank, cache_bytes)
    }

    /// The profile of the same tensor with the last two levels swapped:
    /// levels `0..d-2` are unchanged, `m_{d-2}` is Algorithm 9's
    /// `swapped_fibers` and the leaf count stays `nnz`.
    pub fn swapped(&self, swapped_fibers: usize) -> Self {
        let d = self.d();
        let mut out = self.clone();
        out.dims.swap(d - 1, d - 2);
        out.fibers[d - 2] = swapped_fibers;
        out
    }

    /// The profile the CSF *would* have with its last two levels swapped,
    /// computed via Algorithm 9 without building that CSF.
    pub fn swapped_from_csf(csf: &Csf, rank: usize, cache_bytes: usize) -> Self {
        Self::from_csf(csf, rank, cache_bytes).swapped(count_fibers_if_last_two_swapped(csf))
    }

    fn d(&self) -> usize {
        self.dims.len()
    }

    /// `DM_factor_i(x)`: traffic of `x` row accesses to the level-`l`
    /// factor matrix.
    fn dm_factor(&self, l: usize, x: usize) -> f64 {
        let footprint = (self.dims[l] * self.rank) as f64;
        let demand = (x * self.rank) as f64;
        if footprint > self.cache_elems as f64 {
            demand
        } else {
            footprint.min(demand)
        }
    }

    /// Read traffic of a full-tree traversal (`DM_no_mem_read`).
    fn dm_no_mem_read(&self) -> f64 {
        (0..self.d())
            .map(|l| 2.0 * self.fibers[l] as f64 + self.dm_factor(l, self.fibers[l]))
            .sum()
    }

    /// Read traffic of computing mode `i > 0` from a saved level `k ≥ i`.
    fn dm_mem_read(&self, i: usize, k: usize) -> f64 {
        debug_assert!(i > 0 && k >= i && k <= self.d() - 2);
        let structure: f64 = (0..=k).map(|l| 2.0 * self.fibers[l] as f64).sum();
        let krp_factors: f64 = (0..i).map(|l| self.dm_factor(l, self.fibers[l])).sum();
        let recompute_factors: f64 = (i + 1..=k).map(|l| self.dm_factor(l, self.fibers[l])).sum();
        let partial = (self.fibers[k] * self.rank) as f64;
        structure + krp_factors + recompute_factors + partial
    }

    /// Total modeled traffic (elements) of one CPD iteration's MTTKRPs
    /// under memoization set `saved` (`saved[l]` = memoize `P^(l)`).
    pub fn total_traffic(&self, saved: &[bool]) -> f64 {
        let d = self.d();
        debug_assert_eq!(saved.len(), d);
        let memo_rows: f64 = (0..d)
            .filter(|&l| saved[l])
            .map(|l| (self.fibers[l] * self.rank) as f64)
            .sum();

        // Mode 0: full traversal, plus memo write-allocate traffic on
        // both sides (paper DM_read(0) / DM_write(0)).
        let mut total = self.dm_no_mem_read() + memo_rows; // reads
        total += (self.dims[0] * self.rank) as f64 + memo_rows; // writes

        for i in 1..d {
            let k = (i..=d.saturating_sub(2)).find(|&k| saved[k]);
            let read = match k {
                Some(k) => self.dm_mem_read(i, k),
                None => self.dm_no_mem_read(),
            };
            let write = self.dm_factor(i, self.fibers[i]);
            total += read + write;
        }
        total
    }

    /// Per-level breakdown of [`LevelProfile::total_traffic`]: entry
    /// `l` is the modeled `(reads, writes)` in elements of the MTTKRP
    /// for the mode at level `l` (index 0 = the root/mode-0 saving
    /// pass, which carries the memo write-allocate traffic on both
    /// sides). The component sums equal `total_traffic` exactly — the
    /// telemetry model audit joins these against the measured
    /// per-mode counts.
    pub fn traffic_by_level(&self, saved: &[bool]) -> Vec<(f64, f64)> {
        let d = self.d();
        debug_assert_eq!(saved.len(), d);
        let memo_rows: f64 = (0..d)
            .filter(|&l| saved[l])
            .map(|l| (self.fibers[l] * self.rank) as f64)
            .sum();
        let mut per_level = Vec::with_capacity(d);
        per_level.push((
            self.dm_no_mem_read() + memo_rows,
            (self.dims[0] * self.rank) as f64 + memo_rows,
        ));
        for i in 1..d {
            let k = (i..=d.saturating_sub(2)).find(|&k| saved[k]);
            let read = match k {
                Some(k) => self.dm_mem_read(i, k),
                None => self.dm_no_mem_read(),
            };
            per_level.push((read, self.dm_factor(i, self.fibers[i])));
        }
        per_level
    }

    /// Bytes of the memoized partials under `saved` (Table II's first
    /// column, excluding the `T` replica rows which are O(T·R)).
    pub fn partial_bytes(&self, saved: &[bool]) -> usize {
        (0..self.d())
            .filter(|&l| saved[l])
            .map(|l| self.fibers[l] * self.rank * std::mem::size_of::<f64>())
            .sum()
    }

    /// Bytes of the factor matrices at this rank.
    pub fn factor_bytes(&self) -> usize {
        self.dims
            .iter()
            .map(|&n| n * self.rank * std::mem::size_of::<f64>())
            .sum()
    }
}

/// A chosen configuration: which order to build the CSF in and which
/// levels to memoize.
#[derive(Clone, Debug, PartialEq)]
pub struct MemoPlan {
    /// Swap the last two CSF levels relative to the mode-length order?
    pub swap_last_two: bool,
    /// Per-level save flags (indices are levels of the *chosen* order).
    pub save: Vec<bool>,
    /// Modeled traffic of the chosen configuration (elements).
    pub predicted: f64,
    /// Modeled traffic of the best configuration of the *other* order —
    /// what Fig. 6's "opposite mode order" ablation runs.
    pub predicted_other_order: f64,
}

/// Enumerates every memoization subset for one order and returns the
/// best `(save, traffic)`.
pub fn best_memo_set(profile: &LevelProfile) -> (Vec<bool>, f64) {
    let d = profile.dims.len();
    let memoizable: Vec<usize> = if d >= 3 {
        (1..=d - 2).collect()
    } else {
        Vec::new()
    };
    let mut best: Option<(Vec<bool>, f64)> = None;
    for mask in 0..(1u32 << memoizable.len()) {
        let mut save = vec![false; d];
        for (bit, &l) in memoizable.iter().enumerate() {
            save[l] = mask & (1 << bit) != 0;
        }
        let traffic = profile.total_traffic(&save);
        if best.as_ref().is_none_or(|(_, t)| traffic < *t) {
            best = Some((save, traffic));
        }
    }
    best.expect("at least the empty set is evaluated")
}

/// Full model-driven choice across both orders (paper §IV-B/C).
pub fn choose_plan(base: &LevelProfile, swapped: &LevelProfile) -> MemoPlan {
    let (save_base, t_base) = best_memo_set(base);
    let (save_swap, t_swap) = best_memo_set(swapped);
    if t_swap < t_base {
        MemoPlan {
            swap_last_two: true,
            save: save_swap,
            predicted: t_swap,
            predicted_other_order: t_base,
        }
    } else {
        MemoPlan {
            swap_last_two: false,
            save: save_base,
            predicted: t_base,
            predicted_other_order: t_swap,
        }
    }
}

/// The AdaTM-style objective: minimize arithmetic operations only.
/// Saving a level never increases FLOPs, so pure op-count prefers saving
/// everything; AdaTM stores only Θ(√d) partials, so we keep the
/// `ceil(√(d-2))` levels with the largest op savings. (Mode order is not
/// considered — AdaTM does not model data movement.)
pub fn op_count_memo_set(profile: &LevelProfile) -> Vec<bool> {
    let d = profile.dims.len();
    let mut save = vec![false; d];
    if d < 3 {
        return save;
    }
    // Op savings of memoizing level l: every mode i <= l skips the
    // subtree below l, i.e. saves roughly Σ_{l' > l} m_l' · R ops per
    // consumer mode; consumers are modes 1..=l.
    let mut gains: Vec<(usize, f64)> = (1..=d - 2)
        .map(|l| {
            let below: f64 = (l + 1..d).map(|l2| profile.fibers[l2] as f64).sum();
            (l, below * l as f64)
        })
        .collect();
    gains.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
    let keep = ((d - 2) as f64).sqrt().ceil() as usize;
    for &(l, _) in gains.iter().take(keep.max(1)) {
        save[l] = true;
    }
    save
}

/// Raw (cache-oblivious) read/write element counts for one CPD
/// iteration under a memoization set — the quantities of the paper's
/// §IV-A motivating example ("saving all the intermediate results for
/// *uber* requires 62M reads and 22M writes; not saving the biggest
/// partial results in 24M reads and 238K writes").
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RawTraffic {
    /// Elements read from memory (index structure + factor rows +
    /// partial-result rows).
    pub reads: f64,
    /// Elements written (outputs + memoized partials).
    pub writes: f64,
}

impl LevelProfile {
    /// Computes [`RawTraffic`] for the given save set: the same
    /// accounting as [`LevelProfile::total_traffic`] but with no cache
    /// clamping and reads/writes reported separately.
    pub fn raw_traffic(&self, saved: &[bool]) -> RawTraffic {
        let d = self.d();
        let r = self.rank as f64;
        let structure_all: f64 = self.fibers.iter().map(|&m| 2.0 * m as f64).sum();
        let factors_all: f64 = self.fibers.iter().map(|&m| m as f64 * r).sum();
        let memo_rows: f64 = (0..d)
            .filter(|&l| saved[l])
            .map(|l| self.fibers[l] as f64 * r)
            .sum();

        // Mode 0: full traversal; memoized partials are written.
        let mut reads = structure_all + factors_all;
        let mut writes = self.dims[0] as f64 * r + memo_rows;

        for i in 1..d {
            let k = (i..=d.saturating_sub(2)).find(|&k| saved[k]);
            match k {
                Some(k) => {
                    let structure: f64 = (0..=k).map(|l| 2.0 * self.fibers[l] as f64).sum();
                    let krp: f64 = (0..i).map(|l| self.fibers[l] as f64 * r).sum();
                    let recompute: f64 = (i + 1..=k).map(|l| self.fibers[l] as f64 * r).sum();
                    reads += structure + krp + recompute + self.fibers[k] as f64 * r;
                }
                None => {
                    reads += structure_all + factors_all;
                }
            }
            writes += self.fibers[i] as f64 * r;
        }
        RawTraffic { reads, writes }
    }
}

/// One budget-driven relaxation of the execution plan, recorded on
/// `CpdResult::degradations` so callers can see *why* a constrained run
/// was slower than an unconstrained one (it is never less accurate —
/// every degraded schedule computes the same numbers).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DegradationEvent {
    /// The memoized partial `P^(level)` was dropped from the plan; its
    /// consumers recompute from scratch. `bytes` is the arena freed.
    MemoDropped {
        /// CSF level whose partial was dropped.
        level: usize,
        /// Arena bytes the drop freed.
        bytes: usize,
    },
    /// Privatized accumulation at `level` fell back to atomic adds on
    /// the shared output. `bytes` is the per-plan reduction in the
    /// privatized-output pool after the fallback.
    PrivatizedToAtomic {
        /// CSF level that fell back.
        level: usize,
        /// Pool bytes the fallback freed.
        bytes: usize,
    },
}

impl std::fmt::Display for DegradationEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DegradationEvent::MemoDropped { level, bytes } => {
                write!(f, "dropped memoized P^({level}) ({bytes} bytes)")
            }
            DegradationEvent::PrivatizedToAtomic { level, bytes } => write!(
                f,
                "level {level} accumulation fell back privatized -> atomic ({bytes} bytes)"
            ),
        }
    }
}

/// The memory-budget fit: possibly-degraded save flags and privatization
/// flags, plus the events describing each relaxation.
#[derive(Clone, Debug, PartialEq)]
pub struct BudgetFit {
    /// Per-level memoization flags after fitting.
    pub save: Vec<bool>,
    /// Per-level privatization flags after fitting (`false` = atomic).
    pub privatized: Vec<bool>,
    /// The relaxations applied, in order.
    pub events: Vec<DegradationEvent>,
}

/// Arena bytes of the memoized partial `P^(level)` — matches
/// `PartialStore::allocate` exactly: `(m_level + T)` rows of `R` f64s
/// (the `+T` is the boundary-replication shift of §II-D).
pub fn partial_arena_bytes(profile: &LevelProfile, level: usize, nthreads: usize) -> usize {
    (profile.fibers[level] + nthreads) * profile.rank * std::mem::size_of::<f64>()
}

/// Bytes of the privatized-output pool for the given privatization
/// flags — matches `Workspace`: one `max_n_u × R` block per logical
/// thread, padded to 8 elements. A level that owns its rows (the CSF
/// root) needs no pool and is passed as `false`.
pub fn priv_pool_bytes(profile: &LevelProfile, privatized: &[bool], nthreads: usize) -> usize {
    let max_rows = profile
        .dims
        .iter()
        .zip(privatized)
        .filter(|&(_, &p)| p)
        .map(|(&n, _)| n)
        .max()
        .unwrap_or(0);
    let stride = (max_rows * profile.rank + 7) & !7;
    nthreads * stride * std::mem::size_of::<f64>()
}

/// Fits the plan into `budget` bytes by degrading it (§IV-C pricing
/// applied in reverse): drop memoized partials largest-first, then flip
/// privatized levels to atomic accumulation largest-first. `fixed_bytes`
/// is the non-degradable floor (kernel scratch, traversal stacks, and
/// for the linearized engine its format). Both engines use it: the CSF
/// engine passes its root level as not privatized, the linearized
/// engine an all-`false` save set.
///
/// Returns the degraded plan, or `Err(required)` — the floor in bytes —
/// when even the minimal plan (no memoization, all-atomic) exceeds the
/// budget. A `budget` of 0 means unlimited and returns the input
/// unchanged.
pub fn fit_memory_budget(
    profile: &LevelProfile,
    save: Vec<bool>,
    privatized: Vec<bool>,
    nthreads: usize,
    fixed_bytes: usize,
    budget: usize,
) -> Result<BudgetFit, usize> {
    let mut fit = BudgetFit {
        save,
        privatized,
        events: Vec::new(),
    };
    if budget == 0 {
        return Ok(fit);
    }
    let cost = |f: &BudgetFit| -> usize {
        let partials: usize = (0..profile.dims.len())
            .filter(|&l| f.save[l])
            .map(|l| partial_arena_bytes(profile, l, nthreads))
            .sum();
        fixed_bytes + partials + priv_pool_bytes(profile, &f.privatized, nthreads)
    };
    while cost(&fit) > budget {
        // Largest memoized partial first: biggest single win, and memo
        // only costs traffic — correctness is unaffected.
        if let Some(l) = (0..fit.save.len())
            .filter(|&l| fit.save[l])
            .max_by_key(|&l| partial_arena_bytes(profile, l, nthreads))
        {
            let bytes = partial_arena_bytes(profile, l, nthreads);
            fit.save[l] = false;
            fit.events.push(DegradationEvent::MemoDropped { level: l, bytes });
            continue;
        }
        // Then privatization, largest mode first (the pool is sized by
        // the largest privatized mode, so that flip shrinks it most).
        if let Some(l) = (0..fit.privatized.len())
            .filter(|&l| fit.privatized[l])
            .max_by_key(|&l| profile.dims[l])
        {
            let before = priv_pool_bytes(profile, &fit.privatized, nthreads);
            fit.privatized[l] = false;
            let after = priv_pool_bytes(profile, &fit.privatized, nthreads);
            fit.events.push(DegradationEvent::PrivatizedToAtomic {
                level: l,
                bytes: before - after,
            });
            continue;
        }
        return Err(cost(&fit));
    }
    Ok(fit)
}

/// Modeled cost (elements moved) of each output-conflict strategy for
/// one non-root mode — see [`accum_costs`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AccumCosts {
    /// Cost of per-thread privatized outputs + thread-order reduction.
    pub privatized: f64,
    /// Cost of a single shared output updated with atomic CAS adds.
    pub atomic: f64,
}

/// Prices the two conflict-resolution strategies for the mode at
/// `level` from the level profile.
///
/// Privatization pays for the replicated output regardless of how many
/// updates land in it: `T` zeroed copies, one `m_level·R` emit stream,
/// then a reduction that reads all `T` copies and writes the final one —
/// `(2T + 1)·n_level·R + m_level·R` in total. Atomics pay only for the
/// single output plus roughly two memory accesses per emitted element
/// (the CAS read-modify-write; the fused emitters stream each
/// contribution straight from registers into the sweep, so the former
/// third access — the scratch update-row write and read-back — is
/// gone), inflated by a contention factor that grows with the expected
/// collision rate `m/n` but saturates at `T`.
///
/// The crossover this captures: a *short* mode (small `n`) with many
/// updates amortizes the replicated copies and wants privatization; a
/// *long* sparse mode (`n ≫ m/T`) would mostly zero and reduce untouched
/// rows and wants atomics. The former bytes-only heuristic
/// (`T·n·R·8 ≤ cap`) modeled memory footprint, not time, and always
/// privatized small tensors even when `n ≫ m`.
pub fn accum_costs(profile: &LevelProfile, level: usize, nthreads: usize) -> AccumCosts {
    let t = nthreads.max(1) as f64;
    let n = profile.dims[level].max(1) as f64;
    let m = profile.fibers[level] as f64;
    let r = profile.rank as f64;
    let privatized = (2.0 * t + 1.0) * n * r + m * r;
    let contention = ((t - 1.0) / t) * (m / n).min(t);
    let atomic = n * r + 2.0 * m * r * (1.0 + contention);
    AccumCosts {
        privatized,
        atomic,
    }
}

/// `true` if the model prefers privatized accumulation for `level`.
/// Ties go to privatization (deterministic reduction order, no CAS
/// retries under contention).
pub fn prefer_privatized(profile: &LevelProfile, level: usize, nthreads: usize) -> bool {
    let c = accum_costs(profile, level, nthreads);
    c.privatized <= c.atomic
}

/// Relative error of a measured traffic total against this model's
/// prediction: `|measured − predicted| / max(predicted, 1)`. The floor
/// keeps a zero or degenerate prediction from dividing by zero. Shared
/// by the per-run audit ([`crate::TelemetryReport::model_audit`]) and
/// the daemon's continuous drift gauges so both report the same number.
pub fn drift_rel_err(measured: f64, predicted: f64) -> f64 {
    (measured - predicted).abs() / predicted.max(1.0)
}

/// Default cumulative relative error above which the continuous model
/// audit warns that §IV-C pricing (admission envelopes, `--engine
/// auto` bids) may be stale.
pub const DEFAULT_DRIFT_WARN_THRESHOLD: f64 = 0.5;

/// Models STeF2's trade (paper §VI-B): replace the base CSF's leaf-mode
/// MTTKRP (a full-tree traversal ending in a scatter) with a root-mode
/// pass over a second CSF rooted at that mode. Returns the predicted
/// traffic *saved* per CPD iteration (positive = STeF2 helps), ignoring
/// the one-time cost of building the second CSF.
///
/// `base` is the profile of the primary CSF; `second` the profile of the
/// CSF rooted at the base's leaf mode.
pub fn stef2_leaf_gain(base: &LevelProfile, second: &LevelProfile) -> f64 {
    let d = base.dims.len();
    debug_assert_eq!(second.dims.len(), d);
    // Leaf mode under the base CSF: full traversal + scatter writes.
    let base_cost = base.dm_no_mem_read() + base.dm_factor(d - 1, base.fibers[d - 1]);
    // Same mode as the root of the second CSF: full traversal of the
    // second tree + dense row writes.
    let second_cost = second.dm_no_mem_read() + (second.dims[0] * second.rank) as f64;
    base_cost - second_cost
}

/// The §IV-C pricing extended to the linearized (ALTO-style) layout.
///
/// A linearized MTTKRP for mode `u` is one flat pass over the sorted
/// non-zeros: per non-zero it reads the packed index (`idx_elems`
/// elements — 1 for a `u64` store, 2 for `u128`) and the value, plus one
/// row from each of the `d-1` input factors, and updates one output
/// row. Factor and output traffic get the same `DM_factor`-style cache
/// clamp as the CSF model: a matrix that fits in cache is charged at
/// most one cold load. There is no index *structure* beyond the packed
/// keys — that is the whole trade: ALTO pays `(idx_elems+1)·nnz` once
/// per mode where CSF pays `2·m_l` per level but amortizes factor reads
/// over fiber reuse. On irregular/hyper-sparse tensors where fiber
/// counts collapse to `m_l ≈ nnz` at every level, CSF's structure and
/// factor terms balloon past ALTO's flat cost, and
/// [`AltoProfile::total_traffic`] prices the crossover.
#[derive(Clone, Debug, PartialEq)]
pub struct AltoProfile {
    /// Mode lengths (natural mode order — linearization does not
    /// permute).
    pub dims: Vec<usize>,
    /// Number of stored non-zeros.
    pub nnz: usize,
    /// Decomposition rank `R`.
    pub rank: usize,
    /// Cache size in elements (`cache_bytes / 8`).
    pub cache_elems: usize,
    /// Index elements per non-zero (1 = `u64` store, 2 = `u128`).
    pub idx_elems: usize,
}

impl AltoProfile {
    /// Prices the linearized layout of a tensor with these mode lengths
    /// and non-zeros: one index element per non-zero when the
    /// interleaved index fits 64 bits, two otherwise.
    pub fn new(dims: &[usize], nnz: usize, rank: usize, cache_bytes: usize) -> Self {
        let bits = sptensor::index_bits_for(dims);
        AltoProfile {
            dims: dims.to_vec(),
            nnz,
            rank,
            cache_elems: cache_bytes / std::mem::size_of::<f64>(),
            idx_elems: if bits <= 64 { 1 } else { 2 },
        }
    }

    /// `DM_factor` for the mode-`m` factor under `nnz` row accesses.
    fn dm_factor(&self, m: usize) -> f64 {
        let footprint = (self.dims[m] * self.rank) as f64;
        let demand = (self.nnz * self.rank) as f64;
        if footprint > self.cache_elems as f64 {
            demand
        } else {
            footprint.min(demand)
        }
    }

    /// Modeled `(reads, writes)` in elements of the mode-`u` linearized
    /// MTTKRP.
    pub fn mode_traffic(&self, u: usize) -> RawTraffic {
        let mut reads = self.nnz as f64 * (self.idx_elems as f64 + 1.0);
        for m in 0..self.dims.len() {
            if m != u {
                reads += self.dm_factor(m);
            }
        }
        RawTraffic {
            reads,
            writes: self.dm_factor(u),
        }
    }

    /// Total modeled traffic (elements) of one CPD iteration's worth of
    /// linearized MTTKRPs — the number engine selection compares against
    /// [`MemoPlan::predicted`].
    pub fn total_traffic(&self) -> f64 {
        (0..self.dims.len())
            .map(|u| {
                let t = self.mode_traffic(u);
                t.reads + t.writes
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile(dims: &[usize], fibers: &[usize], rank: usize, cache_elems: usize) -> LevelProfile {
        LevelProfile {
            dims: dims.to_vec(),
            fibers: fibers.to_vec(),
            rank,
            cache_elems,
        }
    }

    #[test]
    fn dm_factor_cases() {
        let p = profile(&[100, 100, 100], &[10, 100, 1000], 8, 100 * 8);
        // Footprint 100*8 = 800 == cache: fits, min(800, x*8).
        assert_eq!(p.dm_factor(0, 10), 80.0);
        assert_eq!(p.dm_factor(0, 1000), 800.0);
        // Bigger matrix: footprint 800 > cache 640.
        let p2 = profile(&[100, 100, 100], &[10, 100, 1000], 8, 80 * 8);
        assert_eq!(p2.dm_factor(2, 1000), 8000.0);
    }

    #[test]
    fn saving_helps_when_fanout_is_high() {
        // Long leaf fibers: m_1 = 1000 but nnz = 100_000. Re-traversing
        // the leaves for mode 1 is expensive; saving P^(1) avoids it.
        let p = profile(
            &[100, 1000, 2000],
            &[100, 1_000, 100_000],
            32,
            1, // tiny cache: every access pays
        );
        let none = p.total_traffic(&[false, false, false]);
        let save1 = p.total_traffic(&[false, true, false]);
        assert!(save1 < none, "saving should win: save1={save1} none={none}");
        let (best, _) = best_memo_set(&p);
        assert_eq!(best, vec![false, true, false]);
    }

    #[test]
    fn saving_hurts_when_partials_are_as_big_as_the_tensor() {
        // freebase-like: almost every (i,j) pair unique -> m_1 ≈ nnz,
        // so P^(1) costs nnz·R traffic to write + read but only saves a
        // leaf re-traversal of ~3·nnz. With R = 32, saving loses.
        let p = profile(&[100_000, 100_000, 166], &[90_000, 99_000, 100_000], 32, 1);
        let none = p.total_traffic(&[false, false, false]);
        let save1 = p.total_traffic(&[false, true, false]);
        assert!(
            save1 > none,
            "saving should lose: save1={save1} none={none}"
        );
        let (best, _) = best_memo_set(&p);
        assert_eq!(best, vec![false, false, false]);
    }

    #[test]
    fn exhaustive_search_covers_all_subsets_4d() {
        let p = profile(&[50, 60, 70, 80], &[50, 500, 5_000, 50_000], 16, 1);
        // Brute-force over the 4 subsets must agree with best_memo_set.
        let subsets = [
            vec![false, false, false, false],
            vec![false, true, false, false],
            vec![false, false, true, false],
            vec![false, true, true, false],
        ];
        let brute = subsets
            .iter()
            .map(|s| (s.clone(), p.total_traffic(s)))
            .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
            .unwrap();
        let best = best_memo_set(&p);
        assert_eq!(best.0, brute.0);
        assert!((best.1 - brute.1).abs() < 1e-9);
    }

    #[test]
    fn choose_plan_prefers_lower_traffic_order() {
        let base = profile(&[10, 100, 1000], &[10, 50_000, 100_000], 32, 1);
        // Swapped order compresses much better at level d-2.
        let swapped = profile(&[10, 1000, 100], &[10, 5_000, 100_000], 32, 1);
        let plan = choose_plan(&base, &swapped);
        assert!(plan.swap_last_two);
        assert!(plan.predicted < plan.predicted_other_order);
        let plan2 = choose_plan(&swapped, &base);
        assert!(!plan2.swap_last_two);
    }

    #[test]
    fn matrix_case_has_no_memoizable_levels() {
        let p = profile(&[100, 200], &[100, 5_000], 8, 1);
        let (save, _) = best_memo_set(&p);
        assert_eq!(save, vec![false, false]);
    }

    #[test]
    fn op_count_model_saves_sqrt_many_levels() {
        let p = profile(
            &[10, 20, 30, 40, 50],
            &[10, 100, 1_000, 10_000, 100_000],
            16,
            1,
        );
        let save = op_count_memo_set(&p);
        let count = save.iter().filter(|&&s| s).count();
        // d-2 = 3 memoizable levels, ceil(sqrt(3)) = 2 kept.
        assert_eq!(count, 2);
        assert!(!save[0] && !save[4]);
    }

    #[test]
    fn traffic_by_level_sums_to_total() {
        for cache in [1usize, 100 * 8, 1 << 20] {
            let p = profile(&[100, 1000, 2000], &[100, 1_000, 100_000], 16, cache);
            for save in [
                vec![false, false, false],
                vec![false, true, false],
            ] {
                let per = p.traffic_by_level(&save);
                assert_eq!(per.len(), 3);
                let sum: f64 = per.iter().map(|&(r, w)| r + w).sum();
                let total = p.total_traffic(&save);
                assert!(
                    (sum - total).abs() < 1e-6,
                    "cache {cache}, save {save:?}: {sum} vs {total}"
                );
            }
        }
    }

    #[test]
    fn traffic_by_level_matches_raw_when_cache_disabled() {
        // With the clamp off, the per-level model breakdown and the raw
        // read/write split describe the same traversal.
        let p = profile(&[50, 60, 70, 80], &[50, 500, 5_000, 50_000], 8, 0);
        let save = vec![false, true, false, false];
        let per = p.traffic_by_level(&save);
        let raw = p.raw_traffic(&save);
        let reads: f64 = per.iter().map(|&(r, _)| r).sum();
        let writes: f64 = per.iter().map(|&(_, w)| w).sum();
        // Raw counts memo write-allocate only on the write side; the
        // §IV-C model charges it on both. Subtract it back out.
        let memo_rows = (500 * 8) as f64;
        assert!((reads - memo_rows - raw.reads).abs() < 1e-9);
        assert!((writes - raw.writes).abs() < 1e-9);
    }

    #[test]
    fn total_traffic_grows_with_rank() {
        let mk = |r| profile(&[100, 1000, 2000], &[100, 1_000, 100_000], r, 1);
        let t32 = mk(32).total_traffic(&[false, true, false]);
        let t64 = mk(64).total_traffic(&[false, true, false]);
        assert!(t64 > t32);
    }

    #[test]
    fn raw_traffic_hand_computed_3d() {
        // d=3, fibers [2, 10, 100], dims [4, 20, 50], R=2.
        let p = profile(&[4, 20, 50], &[2, 10, 100], 2, 1);
        // Save-none:
        //   structure_all = 2*(2+10+100) = 224; factors_all = (112)*2 = 224.
        //   mode0 reads 448; modes 1,2 read 448 each => reads = 1344.
        //   writes = n0*R + m1*R + m2*R = 8 + 20 + 200 = 228.
        let none = p.raw_traffic(&[false, false, false]);
        assert!((none.reads - 1344.0).abs() < 1e-9, "reads {}", none.reads);
        assert!((none.writes - 228.0).abs() < 1e-9, "writes {}", none.writes);
        // Save P^(1):
        //   mode0 reads 448; writes += m1*R = 20.
        //   mode1: structure 2*(2+10)=24 + krp m0*R=4 + partial m1*R=20 = 48.
        //   mode2: full 448.
        let saved = p.raw_traffic(&[false, true, false]);
        assert!(
            (saved.reads - (448.0 + 48.0 + 448.0)).abs() < 1e-9,
            "reads {}",
            saved.reads
        );
        assert!(
            (saved.writes - (228.0 + 20.0)).abs() < 1e-9,
            "writes {}",
            saved.writes
        );
    }

    #[test]
    fn raw_traffic_save_all_reads_grow_with_writes() {
        let p = profile(&[100, 1000, 2000], &[100, 1_000, 100_000], 32, 1);
        let none = p.raw_traffic(&[false, false, false]);
        let all = p.raw_traffic(&[false, true, false]);
        // Memoizing trades reads for writes on this high-fanout profile.
        assert!(all.reads < none.reads);
        assert!(all.writes > none.writes);
    }

    #[test]
    fn stef2_gain_positive_when_second_tree_compresses() {
        // Base: huge leaf level (expensive scatter). Second CSF rooted at
        // that mode compresses well -> gain should be positive.
        let base = profile(&[100, 1_000, 50_000], &[100, 10_000, 200_000], 32, 1);
        let second = profile(&[50_000, 100, 1_000], &[5_000, 50_000, 200_000], 32, 1);
        assert!(stef2_leaf_gain(&base, &second) > 0.0);
    }

    #[test]
    fn stef2_gain_negative_when_second_tree_is_no_better() {
        // Second CSF has the same fiber profile: its full traversal plus
        // dense writes of a huge root factor cannot beat the base.
        let base = profile(&[100, 1_000, 2_000], &[100, 5_000, 20_000], 8, 1 << 30);
        let second = profile(&[2_000, 100, 1_000], &[2_000, 20_000, 20_000], 8, 1 << 30);
        let gain = stef2_leaf_gain(&base, &second);
        assert!(gain < 0.0, "gain {gain} should be negative");
    }

    #[test]
    fn accum_model_prefers_privatized_for_short_hot_modes() {
        // n = 50 rows, m = 100k updates, 8 threads: replicating 50 rows
        // is nothing next to 100k atomic CAS adds.
        let p = profile(&[1000, 50, 2000], &[1000, 100_000, 500_000], 16, 1);
        assert!(prefer_privatized(&p, 1, 8));
        let c = accum_costs(&p, 1, 8);
        assert!(c.privatized < c.atomic);
    }

    #[test]
    fn accum_model_prefers_atomics_for_long_sparse_modes() {
        // n = 2M rows but only 10k updates: zeroing and reducing 8 × 2M
        // rows dwarfs 10k mostly-uncontended atomic adds.
        let p = profile(&[100, 2_000_000, 50], &[100, 10_000, 500_000], 16, 1);
        assert!(!prefer_privatized(&p, 1, 8));
    }

    #[test]
    fn accum_model_single_thread_prefers_privatized_when_dense() {
        // T = 1: privatization degenerates to a plain local output; it
        // wins whenever updates at least cover the rows.
        let p = profile(&[100, 500, 50], &[100, 5_000, 20_000], 8, 1);
        assert!(prefer_privatized(&p, 1, 1));
        // ... and still loses when the mode is nearly all untouched rows.
        let p2 = profile(&[100, 1_000_000, 50], &[100, 1_000, 20_000], 8, 1);
        assert!(!prefer_privatized(&p2, 1, 1));
    }

    #[test]
    fn accum_contention_penalizes_atomics_as_threads_grow() {
        let p = profile(&[100, 200, 50], &[100, 50_000, 200_000], 16, 1);
        let c1 = accum_costs(&p, 1, 1);
        let c16 = accum_costs(&p, 1, 16);
        assert!(c1.atomic < c16.atomic);
        // Privatized cost also grows with T (more copies), but linearly
        // in n rather than m.
        assert!(c16.privatized > c1.privatized);
    }

    #[test]
    fn budget_fit_unlimited_is_identity() {
        let p = profile(&[10, 20, 30], &[10, 200, 3_000], 4, 1);
        let fit = fit_memory_budget(
            &p,
            vec![false, true, false],
            vec![false, true, true],
            4,
            1024,
            0,
        )
        .unwrap();
        assert!(fit.events.is_empty());
        assert_eq!(fit.save, vec![false, true, false]);
    }

    #[test]
    fn budget_fit_drops_largest_memo_first() {
        let p = profile(&[10, 20, 30, 40], &[10, 100, 5_000, 50_000], 4, 1);
        let save = vec![false, true, true, false];
        let small = partial_arena_bytes(&p, 1, 2);
        let large = partial_arena_bytes(&p, 2, 2);
        assert!(large > small);
        // Budget admits the small partial but not both.
        let budget = small + 64;
        let fit = fit_memory_budget(&p, save, vec![false; 4], 2, 0, budget).unwrap();
        assert_eq!(fit.save, vec![false, true, false, false]);
        assert_eq!(
            fit.events,
            vec![DegradationEvent::MemoDropped {
                level: 2,
                bytes: large
            }]
        );
    }

    #[test]
    fn budget_fit_flips_privatized_after_memo() {
        let p = profile(&[10, 2_000, 30], &[10, 200, 3_000], 8, 1);
        let save = vec![false, true, false];
        let privatized = vec![false, true, true];
        // Tiny budget: memo goes, then the big privatized mode, then the
        // small one; floor is fixed_bytes = 100.
        let fit = fit_memory_budget(&p, save, privatized, 4, 100, 128).unwrap();
        assert!(!fit.save[1]);
        assert!(!fit.privatized[1] && !fit.privatized[2]);
        assert_eq!(fit.events.len(), 3);
        assert!(matches!(
            fit.events[1],
            DegradationEvent::PrivatizedToAtomic { level: 1, .. }
        ));
    }

    #[test]
    fn budget_fit_rejects_impossible_floor() {
        let p = profile(&[10, 20, 30], &[10, 200, 3_000], 4, 1);
        let err = fit_memory_budget(&p, vec![false; 3], vec![false; 3], 4, 4096, 100).unwrap_err();
        assert_eq!(err, 4096);
    }

    #[test]
    fn partial_and_factor_bytes() {
        let p = profile(&[10, 20, 30], &[10, 200, 3_000], 4, 1);
        assert_eq!(p.partial_bytes(&[false, true, false]), 200 * 4 * 8);
        assert_eq!(p.factor_bytes(), (10 + 20 + 30) * 4 * 8);
    }

    #[test]
    fn alto_mode_traffic_hand_computed() {
        // d=3, nnz=100, R=2, narrow index, cache off (cache_elems=0:
        // every footprint exceeds it, so factors charge nnz·R).
        let p = AltoProfile {
            dims: vec![4, 20, 50],
            nnz: 100,
            rank: 2,
            cache_elems: 0,
            idx_elems: 1,
        };
        let t = p.mode_traffic(1);
        // reads: 100·(1+1) index+value + 2 factors · 100·2 = 600.
        assert!((t.reads - 600.0).abs() < 1e-9, "reads {}", t.reads);
        assert!((t.writes - 200.0).abs() < 1e-9, "writes {}", t.writes);
        let total = p.total_traffic();
        assert!((total - 3.0 * 800.0).abs() < 1e-9, "total {total}");
    }

    #[test]
    fn alto_cache_clamp_caps_small_factors() {
        // Factor 0 (4·2 = 8 elements) fits a cache of 16: charged a
        // single cold load, not nnz·R.
        let p = AltoProfile {
            dims: vec![4, 20, 50],
            nnz: 100,
            rank: 2,
            cache_elems: 16,
            idx_elems: 1,
        };
        let t = p.mode_traffic(1);
        // reads: 200 (index+value) + 8 (mode 0 clamped) + 200 (mode 2).
        assert!((t.reads - 408.0).abs() < 1e-9, "reads {}", t.reads);
    }

    #[test]
    fn alto_beats_csf_when_fibers_collapse() {
        // Hyper-sparse: every level's fiber count ≈ nnz, so CSF pays
        // full structure + factor traffic per level with no fiber
        // reuse, while ALTO pays the flat 2·nnz index+value stream.
        let nnz = 100_000;
        let dims = vec![1 << 20, 1 << 20, 1 << 20];
        let csf = profile(&dims, &[nnz - 50, nnz - 10, nnz], 16, 1 << 16);
        let (_, csf_traffic) = best_memo_set(&csf);
        let alto = AltoProfile {
            dims,
            nnz,
            rank: 16,
            cache_elems: 1 << 16,
            idx_elems: 1,
        };
        assert!(
            alto.total_traffic() < csf_traffic,
            "alto {} vs csf {csf_traffic}",
            alto.total_traffic()
        );
    }

    #[test]
    fn csf_beats_alto_on_dense_regular_tensors() {
        // Strong fiber compression: m_0 ≪ m_1 ≪ nnz. CSF amortizes
        // factor reads over fibers; ALTO re-reads per non-zero.
        let nnz = 1_000_000;
        let dims = vec![100, 1000, 2000];
        let csf = profile(&dims, &[100, 20_000, nnz], 16, 1 << 16);
        let (_, csf_traffic) = best_memo_set(&csf);
        let alto = AltoProfile {
            dims,
            nnz,
            rank: 16,
            cache_elems: 1 << 16,
            idx_elems: 1,
        };
        assert!(
            alto.total_traffic() > csf_traffic,
            "alto {} vs csf {csf_traffic}",
            alto.total_traffic()
        );
    }
}
