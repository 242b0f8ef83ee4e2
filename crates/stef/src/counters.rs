//! Instrumented traffic counting: validate the §IV model against an
//! actual traversal.
//!
//! [`count_sweep`] walks the CSF exactly the way the kernels do — the
//! mode-0 saving pass plus every mode-`u` consumer — but instead of
//! doing arithmetic it *tallies* the element reads and writes the
//! traversal performs, using the same unit conventions as
//! [`crate::model::LevelProfile::raw_traffic`]: 2 index elements per
//! visited node, `R` factor elements per visited node, `R` per partial
//! row stored or loaded, reads and writes kept strictly separate.
//!
//! With the cache clamp disabled (`cache_elems = 0` makes every access a
//! miss) and a tensor whose root level is fully populated
//! (`m_0 = n_0`), the analytic [`crate::model::LevelProfile::raw_traffic`]
//! must equal this count **exactly** — the test below asserts it. That
//! pins the model implementation to the traversal it claims to describe,
//! which is the strongest check available short of hardware counters.

use sptensor::Csf;

pub use crate::runtime::{RuntimeCounters, WorkerCounters};

/// Per-mode and total counted traffic.
#[derive(Clone, Debug)]
pub struct CountedTraffic {
    /// Total element reads across the sweep.
    pub reads: f64,
    /// Total element writes across the sweep.
    pub writes: f64,
    /// Per-level `(reads, writes)` for each mode's MTTKRP, in level
    /// order (index 0 = the root/mode-0 pass).
    pub per_mode: Vec<(f64, f64)>,
}

/// Traffic of the mode-0 (root) saving pass alone: full traversal
/// storing the `save`-flagged partials. Returns `(reads, writes)` in
/// elements.
pub fn count_mode0(csf: &Csf, save: &[bool], rank: usize) -> (f64, f64) {
    let d = csf.ndim();
    let r = rank as f64;
    let mut reads = 0.0;
    let mut writes = 0.0;
    for l in 0..d {
        let m = csf.nfibers(l) as f64;
        reads += 2.0 * m; // index structure
        reads += m * r; // factor rows
        if save.get(l).copied().unwrap_or(false) {
            writes += m * r; // stored partial rows
        }
    }
    // Output rows (the paper charges the full matrix height n_0).
    writes += (csf.level_dims()[0] * rank) as f64;
    (reads, writes)
}

/// Traffic of one mode-`u` consumer pass (`1 <= u < d` in level
/// order). `saved_at` is the level whose memoized partial the pass
/// consumed — `None` means a full from-scratch traversal — so callers
/// can count the path *actually executed*, not just the planned one.
/// Returns `(reads, writes)` in elements.
pub fn count_modeu(csf: &Csf, u: usize, saved_at: Option<usize>, rank: usize) -> (f64, f64) {
    let d = csf.ndim();
    let r = rank as f64;
    let mut reads = 0.0;
    match saved_at {
        Some(k) => {
            // Traverse levels 0..=k; KRP factors above u, recompute
            // factors between u and k, partial rows at k.
            for l in 0..=k {
                reads += 2.0 * csf.nfibers(l) as f64;
            }
            for l in 0..u {
                reads += csf.nfibers(l) as f64 * r;
            }
            for l in u + 1..=k {
                reads += csf.nfibers(l) as f64 * r;
            }
            reads += csf.nfibers(k) as f64 * r;
        }
        None => {
            for l in 0..d {
                let m = csf.nfibers(l) as f64;
                reads += 2.0 * m + m * r;
            }
        }
    }
    let writes = csf.nfibers(u) as f64 * r;
    (reads, writes)
}

/// Traffic of one mode-`u` linearized (ALTO-style) MTTKRP pass: per
/// non-zero the kernel reads the packed index (`idx_elems` elements),
/// the value, and one row from each of the `d-1` input factors, and
/// updates one output row. Same raw (cache-oblivious) convention as
/// [`count_modeu`]; with the clamp disabled
/// (`cache_elems = 0`) this must equal
/// [`crate::model::AltoProfile::mode_traffic`] exactly — the test below
/// pins it. Returns `(reads, writes)` in elements.
pub fn count_alto_mode(nnz: usize, ndim: usize, idx_elems: usize, rank: usize) -> (f64, f64) {
    let n = nnz as f64;
    let r = rank as f64;
    let reads = n * (idx_elems as f64 + 1.0) + (ndim - 1) as f64 * n * r;
    let writes = n * r;
    (reads, writes)
}

/// Counts the traffic of one full MTTKRP sweep (mode 0 storing the
/// `save`-flagged partials, then every mode `1..d` consuming them) with
/// the paper's unit conventions. `rank` is `R`.
pub fn count_sweep(csf: &Csf, save: &[bool], rank: usize) -> CountedTraffic {
    let d = csf.ndim();
    assert_eq!(save.len(), d);
    let mut per_mode: Vec<(f64, f64)> = Vec::with_capacity(d);
    per_mode.push(count_mode0(csf, save, rank));
    for u in 1..d {
        let k = (u..=d.saturating_sub(2)).find(|&k| save[k]);
        per_mode.push(count_modeu(csf, u, k, rank));
    }

    CountedTraffic {
        reads: per_mode.iter().map(|&(rd, _)| rd).sum(),
        writes: per_mode.iter().map(|&(_, wr)| wr).sum(),
        per_mode,
    }
}

/// Counts traffic by *actually walking the tree* node by node, rather
/// than multiplying fiber counts — the slow cross-check that makes sure
/// `count_sweep`'s per-level arithmetic matches a real traversal.
pub fn count_sweep_by_traversal(csf: &Csf, save: &[bool], rank: usize) -> CountedTraffic {
    let d = csf.ndim();
    let r = rank as f64;
    let mut per_mode: Vec<(f64, f64)> = Vec::with_capacity(d);

    /// Visit every node of levels `0..=max_level` once.
    fn visit(csf: &Csf, max_level: usize, on_node: &mut dyn FnMut(usize)) {
        for l in 0..=max_level {
            for _node in 0..csf.nfibers(l) {
                on_node(l);
            }
        }
    }

    // mode 0
    {
        let mut reads = 0.0;
        let mut writes = 0.0;
        visit(csf, d - 1, &mut |l| {
            reads += 2.0 + r;
            if save[l] {
                writes += r;
            }
        });
        writes += (csf.level_dims()[0] * rank) as f64;
        per_mode.push((reads, writes));
    }
    for u in 1..d {
        let mut reads = 0.0;
        let k = (u..=d.saturating_sub(2)).find(|&k| save[k]);
        let deepest = k.unwrap_or(d - 1);
        visit(csf, deepest, &mut |l| {
            reads += 2.0;
            let factor_read = match k {
                // Saved path: factors above u, recompute factors
                // strictly between u and k, partial at k.
                Some(k) => l < u || (l > u && l < k) || l == k,
                None => true,
            };
            if factor_read {
                reads += r;
            }
            if k == Some(l) && l > u {
                // Level k contributes both its factor (recompute
                // chain, unless k == u) and the stored partial.
                reads += r;
            }
        });
        // k == u: at level u we read ONLY the partial (counted above as
        // the `l == k` factor_read); nothing to adjust.
        let writes = csf.nfibers(u) as f64 * r;
        per_mode.push((reads, writes));
    }
    CountedTraffic {
        reads: per_mode.iter().map(|&(rd, _)| rd).sum(),
        writes: per_mode.iter().map(|&(_, wr)| wr).sum(),
        per_mode,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::LevelProfile;
    use sptensor::{build_csf, CooTensor};

    /// Tensor with a fully-populated root level (`m_0 == n_0`), so the
    /// model's `n_0·R` output charge matches the traversal.
    fn full_root_tensor(seed: u64) -> CooTensor {
        let dims = [6usize, 15, 20];
        let mut t = CooTensor::new(dims.to_vec());
        let mut x = seed | 1;
        let mut coord = [0u32; 3];
        for i in 0..6u32 {
            // Ensure every slice has at least one nnz.
            t.push(&[i, 0, 0], 1.0);
        }
        for _ in 0..400 {
            for (c, &d) in coord.iter_mut().zip(&dims) {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                *c = ((x >> 33) % d as u64) as u32;
            }
            t.push(&coord, 1.0);
        }
        t.sort_dedup();
        t
    }

    #[test]
    fn counted_equals_model_raw_traffic() {
        let t = full_root_tensor(1);
        let csf = build_csf(&t, &[0, 1, 2]);
        assert_eq!(csf.nfibers(0), t.dims()[0], "root must be full");
        let rank = 8;
        let profile = LevelProfile {
            dims: csf.level_dims().to_vec(),
            fibers: csf.fiber_counts(),
            rank,
            cache_elems: 0, // disable the clamp: every access a miss
        };
        for save in [
            vec![false, false, false],
            vec![false, true, false],
        ] {
            let model = profile.raw_traffic(&save);
            let counted = count_sweep(&csf, &save, rank);
            assert!(
                (model.reads - counted.reads).abs() < 1e-9,
                "reads: model {} vs counted {} (save {save:?})",
                model.reads,
                counted.reads
            );
            assert!(
                (model.writes - counted.writes).abs() < 1e-9,
                "writes: model {} vs counted {} (save {save:?})",
                model.writes,
                counted.writes
            );
        }
    }

    #[test]
    fn counted_equals_model_4d_all_subsets() {
        let dims = [5usize, 8, 9, 7];
        let mut t = CooTensor::new(dims.to_vec());
        let mut x = 3u64;
        let mut coord = [0u32; 4];
        for i in 0..5u32 {
            t.push(&[i, 0, 0, 0], 1.0);
        }
        for _ in 0..600 {
            for (c, &d) in coord.iter_mut().zip(&dims) {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                *c = ((x >> 33) % d as u64) as u32;
            }
            t.push(&coord, 1.0);
        }
        t.sort_dedup();
        let csf = build_csf(&t, &[0, 1, 2, 3]);
        assert_eq!(csf.nfibers(0), 5);
        let rank = 4;
        let profile = LevelProfile {
            dims: csf.level_dims().to_vec(),
            fibers: csf.fiber_counts(),
            rank,
            cache_elems: 0,
        };
        for mask in 0..4u32 {
            let save = vec![false, mask & 1 != 0, mask & 2 != 0, false];
            let model = profile.raw_traffic(&save);
            let counted = count_sweep(&csf, &save, rank);
            assert!((model.reads - counted.reads).abs() < 1e-9, "save {save:?}");
            assert!((model.writes - counted.writes).abs() < 1e-9, "save {save:?}");
        }
    }

    #[test]
    fn accum_model_emit_term_matches_counted_update_stream() {
        // The privatized accumulation cost is (2T+1)·n·R bookkeeping plus
        // the m·R emit stream. That emit stream is exactly the per-mode
        // write traffic the instrumented traversal counts, which pins the
        // cost model's `m` to the updates the kernels actually perform.
        let t = full_root_tensor(7);
        let csf = build_csf(&t, &[0, 1, 2]);
        let rank = 8;
        let profile = LevelProfile {
            dims: csf.level_dims().to_vec(),
            fibers: csf.fiber_counts(),
            rank,
            cache_elems: 0,
        };
        let counted = count_sweep(&csf, &[false; 3], rank);
        for nthreads in [1usize, 4] {
            for u in 1..3 {
                let c = crate::model::accum_costs(&profile, u, nthreads);
                let bookkeeping =
                    (2 * nthreads + 1) as f64 * (csf.level_dims()[u] * rank) as f64;
                let emit = c.privatized - bookkeeping;
                assert!(
                    (emit - counted.per_mode[u].1).abs() < 1e-9,
                    "level {u}, T={nthreads}: emit {emit} vs counted {}",
                    counted.per_mode[u].1
                );
            }
        }
    }

    #[test]
    fn per_node_traversal_matches_per_level_arithmetic() {
        let t = full_root_tensor(5);
        let csf = build_csf(&t, &[0, 1, 2]);
        let rank = 3;
        for save in [
            vec![false, false, false],
            vec![false, true, false],
        ] {
            let fast = count_sweep(&csf, &save, rank);
            let slow = count_sweep_by_traversal(&csf, &save, rank);
            assert!((fast.reads - slow.reads).abs() < 1e-9, "save {save:?}: {} vs {}", fast.reads, slow.reads);
            assert!((fast.writes - slow.writes).abs() < 1e-9, "save {save:?}");
            for (a, b) in fast.per_mode.iter().zip(&slow.per_mode) {
                assert!((a.0 - b.0).abs() < 1e-9 && (a.1 - b.1).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn alto_count_equals_model_with_clamp_disabled() {
        let p = crate::model::AltoProfile {
            dims: vec![40, 70, 60, 25],
            nnz: 5000,
            rank: 8,
            cache_elems: 0,
            idx_elems: 1,
        };
        for u in 0..4 {
            let model = p.mode_traffic(u);
            let (reads, writes) = count_alto_mode(5000, 4, 1, 8);
            assert!((model.reads - reads).abs() < 1e-9, "mode {u}");
            assert!((model.writes - writes).abs() < 1e-9, "mode {u}");
        }
        // Wide store: one extra index element per non-zero.
        let wide = crate::model::AltoProfile { idx_elems: 2, ..p };
        let (reads, _) = count_alto_mode(5000, 4, 2, 8);
        assert!((wide.mode_traffic(0).reads - reads).abs() < 1e-9);
    }

    #[test]
    fn memoizing_reduces_reads_on_high_fanout() {
        // Long fibers: memoized consumer skips the big leaf level.
        let mut t = CooTensor::new(vec![4, 6, 200]);
        for i in 0..4u32 {
            for j in 0..6u32 {
                for l in 0..150u32 {
                    t.push(&[i, j, l], 1.0);
                }
            }
        }
        let csf = build_csf(&t, &[0, 1, 2]);
        let none = count_sweep(&csf, &[false, false, false], 16);
        let saved = count_sweep(&csf, &[false, true, false], 16);
        assert!(saved.reads < none.reads);
        assert!(saved.writes > none.writes);
        // Mode 1 specifically collapses from a full traversal to the
        // tiny saved path.
        assert!(saved.per_mode[1].0 < none.per_mode[1].0 / 10.0);
    }
}
