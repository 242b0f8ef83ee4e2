//! Work distribution across logical threads (paper §II-D, Algorithm 3).
//!
//! The nnz-balanced schedule gives every thread an equal, contiguous
//! range of *leaves* (non-zeros) and derives, per CSF level, the range of
//! tree nodes whose subtrees intersect that leaf range. Because sibling
//! subtrees are contiguous at every level, each thread's node range is an
//! interval, and two adjacent threads can overlap in **at most one node
//! per level** — the boundary fiber. Those boundary fibers are the only
//! write-conflict sites, and the kernels handle them by replicating rows
//! (partial results) or by atomic adds (the root-mode output).
//!
//! The slice-based schedule reproduces prior work (SPLATT, AdaTM): a
//! greedy contiguous partition of root slices by nnz. It is expressed in
//! the same `(start, stop)` form so the kernels are oblivious to which
//! scheme is active; its boundaries never split a node, so replication
//! and atomics degenerate to no-ops.

use crate::options::LoadBalance;
use sptensor::Csf;

/// Per-thread, per-level node ranges driving every kernel.
#[derive(Clone, Debug)]
pub struct Schedule {
    nthreads: usize,
    d: usize,
    kind: LoadBalance,
    /// `start[th][l]`: first node at level `l` whose subtree intersects
    /// thread `th`'s leaf range. Row `nthreads` is a sentinel holding the
    /// node counts.
    start: Vec<Vec<usize>>,
    /// `stop[th][l]`: one past the last intersecting node (exclusive).
    /// `stop == start` for threads with an empty leaf range.
    stop: Vec<Vec<usize>>,
}

impl Schedule {
    /// Builds the paper's nnz-balanced schedule (Algorithm 3).
    pub fn nnz_balanced(csf: &Csf, nthreads: usize) -> Self {
        assert!(nthreads >= 1);
        let d = csf.ndim();
        let nnz = csf.nnz();
        let mut start = vec![vec![0usize; d]; nthreads + 1];
        let mut stop = vec![vec![0usize; d]; nthreads];
        for (th, row) in start.iter_mut().enumerate() {
            // Leaf starts: th * nnz / T (Algorithm 3, line 2).
            row[d - 1] = th * nnz / nthreads;
        }
        // Walk parents upward (Algorithm 3, lines 3-5).
        for th in 0..=nthreads {
            for l in (0..d - 1).rev() {
                let child_pos = start[th][l + 1];
                start[th][l] = csf.find_parent(l, child_pos);
            }
        }
        // stop[th] = inclusive parent chain of the last owned leaf, +1.
        for th in 0..nthreads {
            let leaf_lo = start[th][d - 1];
            let leaf_hi = start[th + 1][d - 1];
            if leaf_lo >= leaf_hi {
                stop[th].clone_from(&start[th]);
                continue;
            }
            let mut pos = leaf_hi - 1; // last owned leaf
            stop[th][d - 1] = leaf_hi;
            for l in (0..d - 1).rev() {
                pos = csf.find_parent(l, pos);
                stop[th][l] = pos + 1;
            }
        }
        Schedule {
            nthreads,
            d,
            kind: LoadBalance::NnzBalanced,
            start,
            stop,
        }
    }

    /// Builds the prior-work slice schedule: contiguous root slices,
    /// greedily balanced on per-slice nnz.
    pub fn slice_based(csf: &Csf, nthreads: usize) -> Self {
        assert!(nthreads >= 1);
        let d = csf.ndim();
        let nnz = csf.nnz();
        let nslices = csf.nfibers(0);
        // Greedy boundaries: slice s goes to the first thread th with
        // prefix_nnz(s) >= th * nnz / T.
        let mut boundaries = vec![0usize; nthreads + 1];
        let mut prefix = 0usize;
        let mut th = 1usize;
        for s in 0..nslices {
            let (lo, hi) = csf.leaf_range(0, s);
            prefix += hi - lo;
            while th < nthreads && prefix >= th * nnz / nthreads {
                boundaries[th] = s + 1;
                th += 1;
            }
        }
        for b in boundaries.iter_mut().skip(th) {
            *b = nslices;
        }
        boundaries[nthreads] = nslices;
        // Monotonicity is guaranteed by the construction.
        let mut start = vec![vec![0usize; d]; nthreads + 1];
        let mut stop = vec![vec![0usize; d]; nthreads];
        for t in 0..=nthreads {
            let s = boundaries[t];
            start[t][0] = s;
            // Descend the left edge: the first descendant at each level.
            for l in 0..d - 1 {
                let node = start[t][l];
                start[t][l + 1] = if node >= csf.nfibers(l) {
                    csf.nfibers(l + 1)
                } else {
                    csf.ptr(l)[node]
                };
            }
        }
        for t in 0..nthreads {
            // Clean boundaries: stop is simply the next thread's start.
            stop[t].clone_from(&start[t + 1]);
        }
        Schedule {
            nthreads,
            d,
            kind: LoadBalance::SliceBased,
            start,
            stop,
        }
    }

    /// Builds the schedule selected by `kind`.
    pub fn build(csf: &Csf, nthreads: usize, kind: LoadBalance) -> Self {
        match kind {
            LoadBalance::NnzBalanced => Self::nnz_balanced(csf, nthreads),
            LoadBalance::SliceBased => Self::slice_based(csf, nthreads),
        }
    }

    /// Logical thread count.
    #[inline]
    pub fn nthreads(&self) -> usize {
        self.nthreads
    }

    /// Which scheme built this schedule.
    #[inline]
    pub fn kind(&self) -> LoadBalance {
        self.kind
    }

    /// Thread `th`'s node range at the root level.
    #[inline]
    pub fn root_range(&self, th: usize) -> (usize, usize) {
        (self.start[th][0], self.stop[th][0])
    }

    /// Clamps a parent's child range `[lo, hi)` at `level` to the nodes
    /// thread `th` owns — the `MAX`/`MIN` of Algorithm 5, lines 1–2.
    #[inline]
    pub fn clamp(&self, th: usize, level: usize, lo: usize, hi: usize) -> (usize, usize) {
        let s = self.start[th][level].max(lo);
        let e = self.stop[th][level].min(hi);
        (s, e.max(s))
    }

    /// `true` if node `idx` at `level` sits on one of thread `th`'s range
    /// boundaries and may therefore be shared with a neighbouring thread.
    /// Conservative: boundary nodes are flagged even when the split is
    /// clean (the resulting extra atomic adds are a few per kernel call).
    #[inline]
    pub fn is_boundary(&self, th: usize, level: usize, idx: usize) -> bool {
        let s = self.start[th][level];
        let e = self.stop[th][level];
        idx == s || (e > 0 && idx == e - 1)
    }

    /// Total nodes touched by `th` at `level` (boundary nodes included).
    pub fn nodes_at(&self, th: usize, level: usize) -> usize {
        self.stop[th][level].saturating_sub(self.start[th][level])
    }

    /// Tree nodes (all levels) each thread traverses — the static work
    /// model behind the paper's Fig. 2 ("maximum number of nodes
    /// traversed by a thread").
    pub fn work_per_thread(&self) -> Vec<usize> {
        (0..self.nthreads)
            .map(|th| (0..self.d).map(|l| self.nodes_at(th, l)).sum())
            .collect()
    }

    /// Simulated parallel speedup on `nthreads` ideal cores:
    /// `total work / max per-thread work`. A slice schedule that starves
    /// most threads (e.g. a 2-slice root) scores ≈ 1–2 regardless of the
    /// thread count; the nnz-balanced schedule scores ≈ `nthreads`.
    ///
    /// This is the hardware-independent load-balance metric the
    /// reproduction uses where the paper used wall-clock on 18/64-core
    /// machines (see DESIGN.md substitutions).
    pub fn simulated_speedup(&self) -> f64 {
        let work = self.work_per_thread();
        let total: usize = work.iter().sum();
        let max = work.iter().copied().max().unwrap_or(0);
        if max == 0 {
            1.0
        } else {
            total as f64 / max as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sptensor::{build_csf, CooTensor};

    fn pseudo_tensor(dims: &[usize], nnz: usize, seed: u64) -> CooTensor {
        let mut t = CooTensor::new(dims.to_vec());
        let mut x = seed | 1;
        let mut coord = vec![0u32; dims.len()];
        for _ in 0..nnz {
            for (c, &d) in coord.iter_mut().zip(dims) {
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

    /// Simulates the kernels' traversal: returns (per-leaf visit counts,
    /// per-level per-node visit counts).
    fn traverse(csf: &Csf, sched: &Schedule) -> (Vec<usize>, Vec<Vec<usize>>) {
        let d = csf.ndim();
        let mut leaf_visits = vec![0usize; csf.nnz()];
        let mut node_visits: Vec<Vec<usize>> =
            (0..d).map(|l| vec![0usize; csf.nfibers(l)]).collect();
        for th in 0..sched.nthreads() {
            let (rlo, rhi) = sched.root_range(th);
            for idx0 in rlo..rhi {
                node_visits[0][idx0] += 1;
                rec(csf, sched, th, 1, idx0, &mut leaf_visits, &mut node_visits);
            }
        }
        return (leaf_visits, node_visits);

        fn rec(
            csf: &Csf,
            sched: &Schedule,
            th: usize,
            level: usize,
            pindex: usize,
            leaf_visits: &mut [usize],
            node_visits: &mut [Vec<usize>],
        ) {
            let d = csf.ndim();
            let (lo, hi) = (csf.ptr(level - 1)[pindex], csf.ptr(level - 1)[pindex + 1]);
            let (clo, chi) = sched.clamp(th, level, lo, hi);
            for idx in clo..chi {
                node_visits[level][idx] += 1;
                if level == d - 1 {
                    leaf_visits[idx] += 1;
                } else {
                    rec(csf, sched, th, level + 1, idx, leaf_visits, node_visits);
                }
            }
        }
    }

    fn check_cover(csf: &Csf, sched: &Schedule) {
        let (leaves, nodes) = traverse(csf, sched);
        assert!(
            leaves.iter().all(|&v| v == 1),
            "every leaf must be visited exactly once"
        );
        for (l, level_nodes) in nodes.iter().enumerate() {
            for (i, &v) in level_nodes.iter().enumerate() {
                assert!(v >= 1, "node ({l},{i}) never visited");
                assert!(
                    v <= sched.nthreads(),
                    "node ({l},{i}) visited {v} times (> thread count)"
                );
            }
        }
    }

    #[test]
    fn nnz_schedule_covers_exactly() {
        let t = pseudo_tensor(&[13, 9, 11], 300, 1);
        let csf = build_csf(&t, &[0, 1, 2]);
        for nt in [1, 2, 3, 5, 8, 16] {
            let s = Schedule::nnz_balanced(&csf, nt);
            check_cover(&csf, &s);
        }
    }

    #[test]
    fn nnz_schedule_covers_4d_and_5d() {
        for dims in [vec![6usize, 7, 8, 5], vec![4, 5, 6, 3, 4]] {
            let t = pseudo_tensor(&dims, 400, 2);
            let order: Vec<usize> = (0..dims.len()).collect();
            let csf = build_csf(&t, &order);
            for nt in [2, 4, 7] {
                let s = Schedule::nnz_balanced(&csf, nt);
                check_cover(&csf, &s);
            }
        }
    }

    #[test]
    fn slice_schedule_covers_exactly() {
        let t = pseudo_tensor(&[13, 9, 11], 300, 3);
        let csf = build_csf(&t, &[0, 1, 2]);
        for nt in [1, 2, 4, 20] {
            let s = Schedule::slice_based(&csf, nt);
            let (leaves, _) = traverse(&csf, &s);
            assert!(leaves.iter().all(|&v| v == 1), "nt={nt}");
        }
    }

    #[test]
    fn nnz_schedule_balances_leaves() {
        let t = pseudo_tensor(&[4, 50, 50], 4_000, 4);
        let csf = build_csf(&t, &[0, 1, 2]);
        let nt = 8;
        let s = Schedule::nnz_balanced(&csf, nt);
        let per_thread: Vec<usize> = (0..nt)
            .map(|th| s.start[th + 1][csf.ndim() - 1] - s.start[th][csf.ndim() - 1])
            .collect();
        let max = *per_thread.iter().max().unwrap();
        let min = *per_thread.iter().min().unwrap();
        assert!(
            max - min <= 1,
            "leaf counts {per_thread:?} must differ by at most 1"
        );
    }

    #[test]
    fn slice_schedule_starves_on_two_slices() {
        // 2 root slices, 8 threads: at most 2 threads get work — the
        // paper's §II-D motivation.
        let mut t = CooTensor::new(vec![2, 40, 40]);
        let mut x = 9u64;
        let mut coord = [0u32; 3];
        for _ in 0..800 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            coord[0] = ((x >> 20) % 2) as u32;
            coord[1] = ((x >> 30) % 40) as u32;
            coord[2] = ((x >> 40) % 40) as u32;
            t.push(&coord, 1.0);
        }
        t.sort_dedup();
        let csf = build_csf(&t, &[0, 1, 2]);
        let nt = 8;
        let slice = Schedule::slice_based(&csf, nt);
        let busy = (0..nt).filter(|&th| slice.nodes_at(th, 2) > 0).count();
        assert!(
            busy <= 2,
            "slice scheduling can use at most 2 of {nt} threads, used {busy}"
        );
        let nnzb = Schedule::nnz_balanced(&csf, nt);
        let busy_nnz = (0..nt).filter(|&th| nnzb.nodes_at(th, 2) > 0).count();
        assert_eq!(busy_nnz, nt, "nnz balancing must use all threads");
    }

    #[test]
    fn boundary_detection_flags_range_ends() {
        let t = pseudo_tensor(&[10, 10, 10], 500, 7);
        let csf = build_csf(&t, &[0, 1, 2]);
        let s = Schedule::nnz_balanced(&csf, 4);
        for th in 0..4 {
            let (lo, hi) = s.root_range(th);
            if lo < hi {
                assert!(s.is_boundary(th, 0, lo));
                assert!(s.is_boundary(th, 0, hi - 1));
                if hi - lo > 2 {
                    assert!(!s.is_boundary(th, 0, lo + 1));
                }
            }
        }
    }

    #[test]
    fn more_threads_than_nnz_is_fine() {
        let t = pseudo_tensor(&[3, 3, 3], 5, 8);
        let csf = build_csf(&t, &[0, 1, 2]);
        let s = Schedule::nnz_balanced(&csf, 16);
        check_cover(&csf, &s);
    }

    #[test]
    fn simulated_speedup_contrasts_schedules() {
        // 2 hot/cold root slices: slice scheduling caps at ~1-2x
        // simulated speedup while nnz balancing approaches T.
        let mut t = CooTensor::new(vec![2, 60, 60]);
        let mut x = 5u64;
        let mut coord = [0u32; 3];
        for _ in 0..3000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            coord[0] = if (x >> 20).is_multiple_of(10) { 1 } else { 0 };
            coord[1] = ((x >> 30) % 60) as u32;
            coord[2] = ((x >> 40) % 60) as u32;
            t.push(&coord, 1.0);
        }
        t.sort_dedup();
        let csf = build_csf(&t, &[0, 1, 2]);
        let nt = 18;
        let slice = Schedule::slice_based(&csf, nt).simulated_speedup();
        let nnzb = Schedule::nnz_balanced(&csf, nt).simulated_speedup();
        assert!(slice < 2.5, "slice speedup {slice}");
        assert!(nnzb > 10.0, "nnz speedup {nnzb}");
    }

    #[test]
    fn work_per_thread_sums_to_total_nodes_plus_shares() {
        let t = pseudo_tensor(&[10, 10, 10], 500, 6);
        let csf = build_csf(&t, &[0, 1, 2]);
        let s = Schedule::nnz_balanced(&csf, 4);
        let total: usize = s.work_per_thread().iter().sum();
        let nodes: usize = (0..3).map(|l| csf.nfibers(l)).sum();
        // Boundary nodes are counted once per sharing thread.
        assert!(total >= nodes);
        assert!(total <= nodes + 4 * 3);
    }

    #[test]
    fn single_thread_owns_everything() {
        let t = pseudo_tensor(&[6, 6, 6], 100, 10);
        let csf = build_csf(&t, &[0, 1, 2]);
        let s = Schedule::nnz_balanced(&csf, 1);
        assert_eq!(s.root_range(0), (0, csf.nfibers(0)));
        for l in 0..3 {
            assert_eq!(s.nodes_at(0, l), csf.nfibers(l));
        }
    }
}
