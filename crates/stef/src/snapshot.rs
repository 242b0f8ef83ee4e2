//! Atomically-swapped factor snapshots: the serving read path.
//!
//! A decomposition service answers two very different kinds of request:
//! *writes* (submit a decomposition job, wait for it to converge) and
//! *reads* (look up a fitted factor row, score a batch of candidates).
//! Reads outnumber writes by orders of magnitude and must keep working
//! while a refit of the same model is in flight — or after that refit
//! *fails*. This module provides the piece that makes that safe:
//!
//! * [`FactorSnapshot`] — an immutable, internally-checksummed view of
//!   one fitted model (factors, `λ`, fit, generation; see
//!   [`FactorSnapshot::recompute_checksum`]). Once built it is never
//!   mutated; "updating" a model means building a new snapshot and
//!   swapping the `Arc`.
//! * [`SnapshotStore`] — a name → snapshot map whose swap is a single
//!   pointer store under a short critical section. Readers clone the
//!   `Arc` and then work entirely lock-free on data that can never be
//!   torn: a reader holds either the old snapshot or the new one, never
//!   a mix (the `Arc` indirection is the atomicity boundary — see
//!   DESIGN.md §11 for the memory-ordering argument).
//! * staleness — when a refit fails or is shed at admission, the store
//!   re-publishes the *last good* snapshot with a staleness marker
//!   instead of dropping it, so degraded serving is explicit in every
//!   response rather than silent.
//!
//! Query helpers ([`FactorSnapshot::factor_row`],
//! [`FactorSnapshot::top_k`]) implement the recommendation-style reads
//! the service exposes: factor-row lookup and batched top-k scoring of
//! one mode's rows against a row of another mode.
//!
//! Top-k is exact and reads only the rows that can matter. Building a
//! snapshot also builds a `RowIndex` per mode: every row's 2-norm and
//! the row ids sorted by norm, largest first. A query visits target rows
//! in that order and stops at the first row whose Cauchy–Schwarz bound
//! `‖λ∘q‖·‖t‖`, widened by a rounding slack, is strictly below the
//! current k-th score; every later row has a norm no larger, so none can
//! enter the answer. The best k sit in a fixed-size binary heap, so a
//! query costs O(rows scored · log k) plus one final sort of k hits.
//! Scores are computed exactly as the exhaustive scan computes them, and
//! the answer is ordered by score (`f64::total_cmp`, descending), then
//! by row id (ascending). DESIGN.md §11 gives the slack's derivation.

use crate::checkpoint::{fnv64_extend, FNV64_OFFSET};
use crate::cpd::CpdResult;
use crate::error::StefError;
use crate::metrics::Counter;
use crate::sync::lock_unpoisoned;
use linalg::Mat;
use std::cmp::{Ordering as CmpOrdering, Reverse};
use std::collections::{BinaryHeap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// An immutable view of one fitted model. Built once per (re)fit and
/// shared by `Arc`; all fields describe the same converged state, and
/// [`FactorSnapshot::content_fnv`] lets a reader (or a test) prove it
/// observed a consistent snapshot rather than a torn mix of two.
#[derive(Debug)]
pub struct FactorSnapshot {
    /// Model name the snapshot is published under.
    pub model: String,
    /// Monotone per-model generation (1 = first fit). A re-publish with
    /// a staleness marker keeps the generation of the data it serves.
    pub generation: u64,
    /// Supervisor job id of the fit that produced the factors.
    pub job_id: usize,
    /// Decomposition rank.
    pub rank: usize,
    /// Tensor dimensions (factor `u` has `dims[u]` rows).
    pub dims: Vec<usize>,
    /// Factor matrices, columns normalized (shared with any stale
    /// re-publication of the same data, so marking a model stale costs
    /// one small allocation, not a factor copy).
    pub factors: Arc<Vec<Mat>>,
    /// Component weights `λ`.
    pub lambda: Arc<Vec<f64>>,
    /// Final fit of the producing run.
    pub final_fit: f64,
    /// ALS iterations the producing run executed.
    pub iterations: usize,
    /// `true` when a *later* refit of this model failed or was shed:
    /// the data is the last good fit, served degraded.
    pub stale: bool,
    /// Why the model is stale, when it is.
    pub stale_reason: Option<String>,
    /// FNV-64 over the factor and `λ` bit patterns, computed at build
    /// time. Recomputing it on a served snapshot and comparing proves
    /// the reader did not observe a torn swap.
    pub checksum: u64,
    /// One [`RowIndex`] per mode, shared like `factors`.
    index: Arc<Vec<RowIndex>>,
}

/// Folds one value's exact bit pattern (big-endian) into an FNV-64 state.
fn fnv_value(h: u64, v: &f64) -> u64 {
    fnv64_extend(h, &v.to_bits().to_be_bytes())
}

/// FNV-64 over the exact f64 bit patterns (big-endian) of the factors
/// and weights, streamed value by value.
fn content_checksum(factors: &[Mat], lambda: &[f64]) -> u64 {
    factors
        .iter()
        .flat_map(Mat::as_slice)
        .chain(lambda)
        .fold(FNV64_OFFSET, fnv_value)
}

/// Stored norms never fall below this. A row whose squares underflow
/// would otherwise get a norm too small to bound its scores; at the
/// floor, a product of two norms (≥ 1e-288) is still far above the
/// subnormal range, so the bound's relative slack covers every rounding.
const NORM_FLOOR: f64 = 1e-144;

/// Rounding slack of the stop bound, in units of `(R + 2)·ε`. First-order
/// error analysis needs 2: the dot product (≤ R·ε/2), both norms
/// (≤ (R/2 + 1)·ε/2 each) and the two products forming the bound. 4
/// leaves a margin for the second-order terms.
const BOUND_SLACK: f64 = 4.0;

/// `sqrt(sum_sq)`, floored at [`NORM_FLOOR`]; NaN and ∞ pass through.
fn floored_norm(sum_sq: f64) -> f64 {
    let n = sum_sq.sqrt();
    if n < NORM_FLOOR {
        NORM_FLOOR
    } else {
        n
    }
}

/// `sqrt(Σ x²)`, floored at [`NORM_FLOOR`].
fn row_norm(x: &[f64]) -> f64 {
    floored_norm(x.iter().map(|v| v * v).sum())
}

/// The pruning index of one mode's factor: each row's 2-norm and the
/// row ids by norm descending, ties by id (12 bytes per row). Row ids
/// fit in `u32` because tensor coordinates are `u32`.
#[derive(Debug)]
struct RowIndex {
    norms: Vec<f64>,
    order: Vec<u32>,
    /// Every norm is finite; otherwise queries scan the whole mode.
    finite: bool,
}

impl RowIndex {
    /// Indexes `factor` in the same pass that folds its values, row-major
    /// as [`content_checksum`] reads them, into the checksum state `checksum`.
    /// The hash is one serial chain of multiplies, so the squares for the
    /// norms ride along at no extra cost.
    fn build(factor: &Mat, checksum: &mut u64) -> RowIndex {
        // A local state keeps the chain in a register.
        let mut h = *checksum;
        let norms: Vec<f64> = factor
            .rows_iter()
            .map(|(_, row)| {
                let mut sum_sq = 0.0;
                for v in row {
                    sum_sq += v * v;
                    h = fnv_value(h, v);
                }
                floored_norm(sum_sq)
            })
            .collect();
        *checksum = h;
        // Positive f64s order like their bit patterns, so the integer key
        // (!norm bits, id) sorts by norm descending, then id, without an
        // indirect lookup per comparison. (NaN keys sort anywhere; a NaN
        // norm turns pruning off.)
        let mut keys: Vec<u128> = norms
            .iter()
            .enumerate()
            .map(|(j, n)| {
                let id = u32::try_from(j).expect("factor rows are indexed by u32 coordinates");
                (u128::from(!n.to_bits()) << 32) | u128::from(id)
            })
            .collect();
        keys.sort_unstable();
        let order = keys.into_iter().map(|key| key as u32).collect();
        let finite = norms.iter().all(|n| n.is_finite());
        RowIndex { norms, order, finite }
    }
}

/// One scored target row. Greater is better: a higher score by
/// `f64::total_cmp`, then a smaller row id.
#[derive(Clone, Copy)]
struct Hit {
    score: f64,
    row: usize,
}

impl Ord for Hit {
    fn cmp(&self, other: &Hit) -> CmpOrdering {
        self.score.total_cmp(&other.score).then(other.row.cmp(&self.row))
    }
}

impl PartialOrd for Hit {
    fn partial_cmp(&self, other: &Hit) -> Option<CmpOrdering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Hit {
    fn eq(&self, other: &Hit) -> bool {
        self.cmp(other) == CmpOrdering::Equal
    }
}

impl Eq for Hit {}

/// `/metrics` counters of the pruned scan: target rows scored, and
/// target rows a full scan would have scored, summed over query rows.
fn topk_counters() -> (&'static Counter, &'static Counter) {
    static SCORED: OnceLock<&'static Counter> = OnceLock::new();
    static TARGET: OnceLock<&'static Counter> = OnceLock::new();
    (
        SCORED.get_or_init(|| {
            crate::metrics::counter(
                "stef_topk_rows_scored_total",
                "Target rows scored by top-k queries (the rest were pruned by their norm bound)",
                &[],
            )
        }),
        TARGET.get_or_init(|| {
            crate::metrics::counter(
                "stef_topk_target_rows_total",
                "Target rows a full top-k scan would score, summed over query rows",
                &[],
            )
        }),
    )
}

impl FactorSnapshot {
    /// Builds a snapshot from a converged run's result. The factors and
    /// weights are cloned out of the result (one copy per refit — the
    /// result may still be handed to `take_result` callers).
    pub fn from_result(
        model: impl Into<String>,
        generation: u64,
        job_id: usize,
        result: &CpdResult,
    ) -> FactorSnapshot {
        let factors: Vec<Mat> = result.factors.clone();
        let lambda = result.lambda.clone();
        let mut checksum = FNV64_OFFSET;
        let index = factors.iter().map(|f| RowIndex::build(f, &mut checksum)).collect();
        let checksum = lambda.iter().fold(checksum, fnv_value);
        FactorSnapshot {
            model: model.into(),
            generation,
            job_id,
            rank: factors.first().map_or(0, Mat::cols),
            dims: factors.iter().map(Mat::rows).collect(),
            factors: Arc::new(factors),
            lambda: Arc::new(lambda),
            final_fit: result.final_fit(),
            iterations: result.iterations,
            stale: false,
            stale_reason: None,
            checksum,
            index: Arc::new(index),
        }
    }

    /// Recomputes the content checksum from the data this snapshot
    /// actually holds. Equal to [`FactorSnapshot::checksum`] on every
    /// snapshot a reader can legitimately observe; a mismatch would
    /// mean a torn swap, which the `Arc` design makes impossible — the
    /// serving layer still exposes the comparison so the claim is
    /// continuously *tested* rather than merely asserted.
    pub fn recompute_checksum(&self) -> u64 {
        content_checksum(&self.factors, &self.lambda)
    }

    /// One factor row: the embedding of entity `row` in mode `mode`.
    pub fn factor_row(&self, mode: usize, row: usize) -> Result<&[f64], StefError> {
        let f = self.factors.get(mode).ok_or_else(|| {
            StefError::Input(format!(
                "mode {mode} out of range (model '{}' has {} modes)",
                self.model,
                self.factors.len()
            ))
        })?;
        if row >= f.rows() {
            return Err(StefError::Input(format!(
                "row {row} out of range (mode {mode} has {} rows)",
                f.rows()
            )));
        }
        Ok(f.row(row))
    }

    /// Batched top-k scoring: for each `row` of mode `mode`, ranks every
    /// row `j` of `target_mode` by `Σ_r λ_r · A⁽ᵐ⁾[row,r] · A⁽ᵗ⁾[j,r]`
    /// and returns the `k` best as `(j, score)`, best first: score by
    /// `f64::total_cmp` descending, then `j` ascending. This is the
    /// recommendation query: "given user `row`, which items score
    /// highest under the fitted model".
    ///
    /// The answer equals an exhaustive scan's, score bits included, but
    /// target rows are visited by norm and the scan stops once no
    /// remaining row can reach the k-th score (see the module doc). A
    /// non-finite weighted query or target norm scans every row.
    pub fn top_k(
        &self,
        mode: usize,
        rows: &[usize],
        target_mode: usize,
        k: usize,
    ) -> Result<Vec<Vec<(usize, f64)>>, StefError> {
        if target_mode == mode {
            return Err(StefError::Input(
                "target mode must differ from the query mode".into(),
            ));
        }
        let target = self.factors.get(target_mode).ok_or_else(|| {
            StefError::Input(format!("target mode {target_mode} out of range"))
        })?;
        let index = &self.index[target_mode];
        let k = k.min(target.rows());
        let slack = 1.0 + BOUND_SLACK * (self.rank as f64 + 2.0) * f64::EPSILON;
        let (scored_total, target_total) = topk_counters();
        let mut out = Vec::with_capacity(rows.len());
        for &row in rows {
            let q = self.factor_row(mode, row)?;
            // λ-weighted query vector, hoisted out of the scan.
            let weighted: Vec<f64> = q
                .iter()
                .zip(self.lambda.iter())
                .map(|(a, l)| a * l)
                .collect();
            let w_norm = row_norm(&weighted);
            let prune = index.finite && w_norm.is_finite();
            // Min-heap of the best k so far: its root is the k-th best.
            let mut best: BinaryHeap<Reverse<Hit>> = BinaryHeap::with_capacity(k);
            let mut scored = 0u64;
            let order: &[u32] = if k == 0 { &[] } else { &index.order };
            for &j in order {
                let j = j as usize;
                if prune && best.len() == k {
                    let kth = best.peek().expect("k > 0 while scanning").0.score;
                    if w_norm * index.norms[j] * slack < kth {
                        break;
                    }
                }
                let score: f64 = weighted.iter().zip(target.row(j)).map(|(w, t)| w * t).sum();
                scored += 1;
                let hit = Hit { score, row: j };
                if best.len() < k {
                    best.push(Reverse(hit));
                } else if let Some(mut worst) = best.peek_mut() {
                    if hit > worst.0 {
                        *worst = Reverse(hit);
                    }
                }
            }
            scored_total.add(scored);
            target_total.add(target.rows() as u64);
            // Ascending `Reverse<Hit>` is best first.
            out.push(best.into_sorted_vec().into_iter().map(|Reverse(h)| (h.row, h.score)).collect());
        }
        Ok(out)
    }
}

/// Per-model publication slot. The generation counter lives outside the
/// snapshot so staleness re-publication can keep the served data's
/// generation while still proving progress to pollers.
struct ModelCell {
    current: Option<Arc<FactorSnapshot>>,
    next_generation: u64,
}

/// Name → snapshot map with atomic swap semantics. All methods take
/// `&self`; the store is shared freely across the serving threads.
///
/// Swap protocol: writers build the complete new [`FactorSnapshot`]
/// *outside* any lock, then swap the `Arc` in a critical section that
/// contains exactly one pointer store. Readers clone the `Arc` inside
/// the same mutex (an uncontended lock plus a refcount increment) and
/// then never touch shared state again — so a refit can never block a
/// query on anything longer than the pointer swap itself, and a reader
/// can never observe half of an update.
pub struct SnapshotStore {
    models: Mutex<HashMap<String, ModelCell>>,
    /// Published snapshots across all models (telemetry).
    installs: AtomicU64,
}

impl Default for SnapshotStore {
    fn default() -> Self {
        Self::new()
    }
}

impl SnapshotStore {
    /// An empty store.
    pub fn new() -> SnapshotStore {
        SnapshotStore {
            models: Mutex::new(HashMap::new()),
            installs: AtomicU64::new(0),
        }
    }

    /// Publishes a fresh fit for `model`, allocating the next
    /// generation. Returns the generation the snapshot was published
    /// at. Any previous snapshot (stale or not) is replaced; readers
    /// holding it keep a consistent view until they drop their `Arc`.
    pub fn install(&self, model: &str, job_id: usize, result: &CpdResult) -> u64 {
        // Build outside the lock: the snapshot copy, checksum and row index are the
        // expensive part, and it must not serialize against readers.
        let mut snapshot = FactorSnapshot::from_result(model, 0, job_id, result);
        let mut models = lock_unpoisoned(&self.models);
        let cell = models.entry(model.to_string()).or_insert(ModelCell {
            current: None,
            next_generation: 1,
        });
        let generation = cell.next_generation;
        cell.next_generation += 1;
        snapshot.generation = generation;
        cell.current = Some(Arc::new(snapshot));
        self.installs.fetch_add(1, Ordering::Relaxed);
        generation
    }

    /// Marks `model` stale after a failed or shed refit: the last good
    /// snapshot is re-published with the staleness marker (sharing the
    /// factor data — no copy), so queries keep answering, degraded and
    /// labelled. Returns `false` when the model has no snapshot to
    /// keep serving (nothing was ever fitted).
    pub fn mark_stale(&self, model: &str, reason: &str) -> bool {
        let mut models = lock_unpoisoned(&self.models);
        let Some(cell) = models.get_mut(model) else {
            return false;
        };
        let Some(old) = cell.current.as_ref() else {
            return false;
        };
        let stale = FactorSnapshot {
            model: old.model.clone(),
            generation: old.generation,
            job_id: old.job_id,
            rank: old.rank,
            dims: old.dims.clone(),
            factors: Arc::clone(&old.factors),
            lambda: Arc::clone(&old.lambda),
            final_fit: old.final_fit,
            iterations: old.iterations,
            stale: true,
            stale_reason: Some(reason.to_string()),
            checksum: old.checksum,
            index: Arc::clone(&old.index),
        };
        cell.current = Some(Arc::new(stale));
        true
    }

    /// The current snapshot for `model`, if any. The returned `Arc` is
    /// a stable view: later installs do not affect it.
    pub fn get(&self, model: &str) -> Option<Arc<FactorSnapshot>> {
        lock_unpoisoned(&self.models)
            .get(model)
            .and_then(|c| c.current.clone())
    }

    /// Names of every model with a published snapshot.
    pub fn models(&self) -> Vec<String> {
        let mut names: Vec<String> = lock_unpoisoned(&self.models)
            .iter()
            .filter(|(_, c)| c.current.is_some())
            .map(|(name, _)| name.clone())
            .collect();
        names.sort();
        names
    }

    /// Snapshots published since the store was created.
    pub fn installs(&self) -> u64 {
        self.installs.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpd::{cpd_als, CpdOptions};
    use crate::engine::ReferenceEngine;
    use workloads::power_law_tensor;

    fn fitted(seed: u64) -> CpdResult {
        let t = power_law_tensor(&[10, 8, 6], 200, &[0.5, 0.5, 0.5], seed);
        let mut engine = ReferenceEngine::new(t);
        let mut opts = CpdOptions::new(3);
        opts.max_iters = 4;
        opts.tol = 0.0;
        opts.seed = seed;
        cpd_als(&mut engine, &opts).unwrap()
    }

    #[test]
    fn streamed_checksum_equals_the_byte_vector_construction() {
        // The construction the checksum is defined by: every factor
        // value's big-endian bits, then λ's, in one buffer, hashed once.
        fn byte_vector_checksum(factors: &[Mat], lambda: &[f64]) -> u64 {
            let mut bytes = Vec::new();
            for f in factors {
                for &v in f.as_slice() {
                    bytes.extend_from_slice(&v.to_bits().to_be_bytes());
                }
            }
            for &v in lambda {
                bytes.extend_from_slice(&v.to_bits().to_be_bytes());
            }
            crate::checkpoint::fnv64(&bytes)
        }
        let mut r = fitted(7);
        let odd = [f64::NAN, -0.0, f64::INFINITY, f64::MIN_POSITIVE / 8.0, -1e300];
        for (i, v) in odd.into_iter().enumerate() {
            r.factors[i % 3].row_mut(i)[i % 3] = v;
        }
        r.lambda[1] = -0.0;
        let got = content_checksum(&r.factors, &r.lambda);
        assert_eq!(got, byte_vector_checksum(&r.factors, &r.lambda));
        assert_eq!(FactorSnapshot::from_result("m", 1, 0, &r).checksum, got);
        assert_eq!(content_checksum(&[], &[]), byte_vector_checksum(&[], &[]));
    }

    #[test]
    fn install_get_and_generation_advance() {
        let store = SnapshotStore::new();
        assert!(store.get("m").is_none());
        let r1 = fitted(1);
        assert_eq!(store.install("m", 0, &r1), 1);
        let s1 = store.get("m").unwrap();
        assert_eq!(s1.generation, 1);
        assert_eq!(s1.dims, vec![10, 8, 6]);
        assert_eq!(s1.rank, 3);
        assert!(!s1.stale);
        assert_eq!(s1.checksum, s1.recompute_checksum());

        let r2 = fitted(2);
        assert_eq!(store.install("m", 1, &r2), 2);
        let s2 = store.get("m").unwrap();
        assert_eq!(s2.generation, 2);
        // The old Arc is still fully consistent.
        assert_eq!(s1.generation, 1);
        assert_eq!(s1.checksum, s1.recompute_checksum());
        assert_eq!(store.models(), vec!["m".to_string()]);
        assert_eq!(store.installs(), 2);
    }

    #[test]
    fn stale_republication_shares_data_and_keeps_generation() {
        let store = SnapshotStore::new();
        assert!(!store.mark_stale("m", "nothing fitted"), "no snapshot yet");
        let r = fitted(3);
        store.install("m", 0, &r);
        assert!(store.mark_stale("m", "refit shed: overloaded"));
        let s = store.get("m").unwrap();
        assert!(s.stale);
        assert_eq!(s.generation, 1, "stale serves the old data's generation");
        assert_eq!(s.stale_reason.as_deref(), Some("refit shed: overloaded"));
        assert_eq!(s.checksum, s.recompute_checksum());
        // A successful refit clears staleness and advances.
        let r2 = fitted(4);
        assert_eq!(store.install("m", 1, &r2), 2);
        assert!(!store.get("m").unwrap().stale);
    }

    #[test]
    fn factor_row_and_bounds() {
        let store = SnapshotStore::new();
        store.install("m", 0, &fitted(5));
        let s = store.get("m").unwrap();
        let row = s.factor_row(1, 3).unwrap();
        assert_eq!(row.len(), 3);
        assert!(row.iter().all(|v| v.is_finite()));
        assert!(s.factor_row(7, 0).is_err(), "bad mode");
        assert!(s.factor_row(0, 999).is_err(), "bad row");
    }

    #[test]
    fn top_k_matches_exhaustive_scoring() {
        let store = SnapshotStore::new();
        store.install("m", 0, &fitted(6));
        let s = store.get("m").unwrap();
        let got = s.top_k(0, &[2, 5], 1, 3).unwrap();
        assert_eq!(got.len(), 2);
        for (qi, &row) in [2usize, 5].iter().enumerate() {
            // Exhaustive oracle.
            let q = s.factor_row(0, row).unwrap();
            let mut all: Vec<(usize, f64)> = (0..s.dims[1])
                .map(|j| {
                    let t = s.factor_row(1, j).unwrap();
                    let score = q
                        .iter()
                        .zip(s.lambda.iter())
                        .zip(t)
                        .map(|((a, l), b)| a * l * b)
                        .sum();
                    (j, score)
                })
                .collect();
            all.sort_by(|a, b| b.1.total_cmp(&a.1));
            let want: Vec<usize> = all[..3].iter().map(|&(j, _)| j).collect();
            let got_ids: Vec<usize> = got[qi].iter().map(|&(j, _)| j).collect();
            assert_eq!(got_ids, want, "row {row}");
            assert!(got[qi].windows(2).all(|w| w[0].1 >= w[1].1), "sorted");
        }
        // k larger than the target mode clamps.
        assert_eq!(s.top_k(0, &[0], 1, 99).unwrap()[0].len(), s.dims[1]);
        assert!(s.top_k(0, &[0], 0, 2).is_err(), "same-mode query");
        assert!(s.top_k(0, &[0], 9, 2).is_err(), "bad target mode");
    }

    #[test]
    fn concurrent_install_and_get_never_tears() {
        use std::sync::atomic::AtomicBool;
        let store = Arc::new(SnapshotStore::new());
        let results: Vec<CpdResult> = (0..4).map(|i| fitted(10 + i)).collect();
        let stop = Arc::new(AtomicBool::new(false));
        store.install("m", 0, &results[0]);
        std::thread::scope(|scope| {
            let readers: Vec<_> = (0..4)
                .map(|_| {
                    let store = Arc::clone(&store);
                    let stop = Arc::clone(&stop);
                    scope.spawn(move || {
                        // Read at least once even if the writer wins
                        // the race and finishes before we start.
                        let mut seen = 0u64;
                        loop {
                            let s = store.get("m").expect("always published");
                            assert_eq!(
                                s.checksum,
                                s.recompute_checksum(),
                                "torn snapshot observed at generation {}",
                                s.generation
                            );
                            assert_eq!(s.dims.len(), s.factors.len());
                            assert!(s.generation >= seen, "generation went backwards");
                            seen = s.generation;
                            if stop.load(Ordering::Relaxed) {
                                break;
                            }
                        }
                        seen
                    })
                })
                .collect();
            for round in 0..50 {
                let r = &results[round % results.len()];
                store.install("m", round, r);
                if round % 8 == 0 {
                    store.mark_stale("m", "injected");
                }
            }
            stop.store(true, Ordering::Relaxed);
            for r in readers {
                assert!(r.join().unwrap() >= 1);
            }
        });
        assert_eq!(store.get("m").unwrap().generation, 51);
    }
}
