//! Compressed Sparse Fiber trees (paper §II-B).
//!
//! A CSF stores a *d*-way tensor as a forest of depth *d*: level 0 holds
//! the root slice indices, each internal level holds fiber indices, and
//! the leaf level holds the last-mode indices aligned with the value
//! array. Sibling ranges are encoded by `ptr` arrays, so the subtree of
//! any node occupies a *contiguous* range at every deeper level — the
//! property both the nnz-balanced scheduler (Algorithm 3) and the
//! swapped-order fiber counter (Algorithm 9) rely on.

use crate::permute::is_permutation;

/// [`Csf::memory_bytes`] of a CSF with `fibers[l]` fibers at level `l`
/// (so `fibers[d-1]` non-zeros), without building it.
pub fn memory_bytes_for(fibers: &[usize]) -> usize {
    let d = fibers.len();
    let fid_bytes: usize = fibers.iter().map(|&m| m * 4).sum();
    let ptr_bytes: usize = fibers[..d - 1].iter().map(|&m| (m + 1) * 8).sum();
    fid_bytes + ptr_bytes + fibers[d - 1] * 8
}

/// A sparse tensor in CSF form, for one fixed mode order.
#[derive(Clone, Debug)]
pub struct Csf {
    /// `mode_order[level]` = original tensor mode stored at this level.
    mode_order: Vec<usize>,
    /// Length of the mode at each level (i.e. `dims[mode_order[level]]`).
    level_dims: Vec<usize>,
    /// Fiber indices per level; `fids[d-1]` is aligned with `vals`.
    fids: Vec<Vec<u32>>,
    /// `ptr[l][i]..ptr[l][i+1]` is the child range of node `(l, i)` at
    /// level `l+1`; defined for `l ∈ 0..d-1`, with a trailing sentinel.
    ptr: Vec<Vec<usize>>,
    /// Non-zero values aligned with the leaf level.
    vals: Vec<f64>,
}

impl Csf {
    /// Assembles a CSF from raw parts, checking structural invariants.
    /// Most callers should use [`crate::build::build_csf`] instead.
    pub fn from_parts(
        mode_order: Vec<usize>,
        level_dims: Vec<usize>,
        fids: Vec<Vec<u32>>,
        ptr: Vec<Vec<usize>>,
        vals: Vec<f64>,
    ) -> Self {
        let d = mode_order.len();
        assert!(
            is_permutation(&mode_order, d),
            "mode_order not a permutation"
        );
        assert_eq!(level_dims.len(), d);
        assert_eq!(fids.len(), d);
        assert_eq!(ptr.len(), d.saturating_sub(1));
        assert_eq!(
            fids[d - 1].len(),
            vals.len(),
            "leaf level must align with values"
        );
        let csf = Csf {
            mode_order,
            level_dims,
            fids,
            ptr,
            vals,
        };
        csf.validate();
        csf
    }

    /// Structural invariant check (debug aid; O(total nodes)).
    ///
    /// # Panics
    /// Panics if any pointer array is non-monotonic or misaligned, or any
    /// fiber index is out of range, or siblings are not strictly sorted.
    pub fn validate(&self) {
        let d = self.ndim();
        for l in 0..d {
            let dim = self.level_dims[l];
            assert!(
                self.fids[l].iter().all(|&f| (f as usize) < dim),
                "level {l} fiber index out of range"
            );
        }
        for l in 0..d - 1 {
            let p = &self.ptr[l];
            assert_eq!(p.len(), self.fids[l].len() + 1, "ptr[{l}] length");
            assert_eq!(p[0], 0, "ptr[{l}] must start at 0");
            assert_eq!(
                *p.last().unwrap(),
                self.fids[l + 1].len(),
                "ptr[{l}] must cover level {}",
                l + 1
            );
            assert!(
                p.windows(2).all(|w| w[0] < w[1]),
                "ptr[{l}] must be strictly increasing (no empty fibers)"
            );
            // Siblings strictly increasing within each parent.
            for w in p.windows(2) {
                let sibs = &self.fids[l + 1][w[0]..w[1]];
                assert!(
                    sibs.windows(2).all(|s| s[0] < s[1]),
                    "level {} siblings must be strictly sorted",
                    l + 1
                );
            }
        }
        // Root fibers strictly increasing.
        assert!(
            self.fids[0].windows(2).all(|w| w[0] < w[1]),
            "root slices must be strictly sorted"
        );
    }

    /// Number of modes.
    #[inline]
    pub fn ndim(&self) -> usize {
        self.mode_order.len()
    }

    /// Number of non-zeros.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.vals.len()
    }

    /// The mode permutation, root to leaf.
    #[inline]
    pub fn mode_order(&self) -> &[usize] {
        &self.mode_order
    }

    /// Mode length at each level (permuted order).
    #[inline]
    pub fn level_dims(&self) -> &[usize] {
        &self.level_dims
    }

    /// Number of fibers (tree nodes) at `level` — the `m_i` of the
    /// paper's data-movement model.
    #[inline]
    pub fn nfibers(&self, level: usize) -> usize {
        self.fids[level].len()
    }

    /// Fiber counts for every level, root to leaf.
    pub fn fiber_counts(&self) -> Vec<usize> {
        (0..self.ndim()).map(|l| self.nfibers(l)).collect()
    }

    /// Fiber index array at `level`.
    #[inline]
    pub fn fids(&self, level: usize) -> &[u32] {
        &self.fids[level]
    }

    /// Child-pointer array for `level` (valid for `level < d-1`).
    #[inline]
    pub fn ptr(&self, level: usize) -> &[usize] {
        &self.ptr[level]
    }

    /// Values, aligned with the leaf level.
    #[inline]
    pub fn vals(&self) -> &[f64] {
        &self.vals
    }

    /// Bytes used by the index structure plus values (4-byte fids,
    /// 8-byte ptrs, 8-byte values) — the "Size of Tensor" column of the
    /// paper's Table II.
    pub fn memory_bytes(&self) -> usize {
        memory_bytes_for(&self.fiber_counts())
    }

    /// Leaf (non-zero) range covered by the subtree of node `idx` at
    /// `level`: walks the pointer arrays down, O(d).
    pub fn leaf_range(&self, level: usize, idx: usize) -> (usize, usize) {
        let (mut lo, mut hi) = (idx, idx + 1);
        for l in level..self.ndim() - 1 {
            lo = self.ptr[l][lo];
            hi = self.ptr[l][hi];
        }
        (lo, hi)
    }

    /// Number of non-zeros under each root slice — what slice-scheduled
    /// baselines (SPLATT, AdaTM) balance on.
    pub fn nnz_per_root_slice(&self) -> Vec<usize> {
        (0..self.nfibers(0))
            .map(|i| {
                let (lo, hi) = self.leaf_range(0, i);
                hi - lo
            })
            .collect()
    }

    /// Finds the parent position: the node index `i` at `level` such that
    /// `ptr[level][i] <= child_pos < ptr[level][i+1]` — the
    /// `find_parent_CSF` of Algorithm 3. Binary search, O(log m_level).
    ///
    /// `child_pos` may equal the total child count, in which case the
    /// (exclusive) node count at `level` is returned, keeping thread
    /// boundary arithmetic uniform.
    pub fn find_parent(&self, level: usize, child_pos: usize) -> usize {
        let p = &self.ptr[level];
        debug_assert!(child_pos <= *p.last().unwrap());
        if child_pos >= *p.last().unwrap() {
            return self.fids[level].len();
        }
        // partition_point returns the first i with p[i] > child_pos; the
        // parent is the one before it.
        p.partition_point(|&x| x <= child_pos) - 1
    }

    /// Calls `f(coords, val)` for every non-zero, with `coords` given in
    /// *level* (permuted) order. Sequential; used by tests, `to_coo` and
    /// format converters.
    pub fn for_each_leaf(&self, mut f: impl FnMut(&[u32], f64)) {
        let d = self.ndim();
        let mut coords = vec![0u32; d];
        // stack[l] = current node index at level l; iterate depth-first.
        self.walk_level(0, 0, self.fids[0].len(), &mut coords, &mut f);
    }

    fn walk_level(
        &self,
        level: usize,
        lo: usize,
        hi: usize,
        coords: &mut [u32],
        f: &mut impl FnMut(&[u32], f64),
    ) {
        let d = self.ndim();
        for i in lo..hi {
            coords[level] = self.fids[level][i];
            if level == d - 1 {
                f(coords, self.vals[i]);
            } else {
                let (clo, chi) = (self.ptr[level][i], self.ptr[level][i + 1]);
                self.walk_level(level + 1, clo, chi, coords, f);
            }
        }
    }

    /// Converts back to COO with coordinates in *original* mode order.
    pub fn to_coo(&self, original_dims: &[usize]) -> crate::CooTensor {
        assert_eq!(original_dims.len(), self.ndim());
        for (l, &m) in self.mode_order.iter().enumerate() {
            assert_eq!(
                original_dims[m], self.level_dims[l],
                "original_dims inconsistent with CSF level dims"
            );
        }
        let mut coo = crate::CooTensor::new(original_dims.to_vec());
        let d = self.ndim();
        let mut orig = vec![0u32; d];
        self.for_each_leaf(|coords, val| {
            for (l, &c) in coords.iter().enumerate() {
                orig[self.mode_order[l]] = c;
            }
            coo.push(&orig, val);
        });
        coo
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::build_csf;
    use crate::CooTensor;

    /// 3-way tensor used across the CSF tests:
    /// nnz: (0,0,0)=1 (0,0,2)=2 (0,1,1)=3 (2,0,0)=4 (2,1,1)=5
    fn sample() -> CooTensor {
        let mut t = CooTensor::new(vec![3, 2, 3]);
        for (c, v) in [
            ([0u32, 0, 0], 1.0),
            ([0, 0, 2], 2.0),
            ([0, 1, 1], 3.0),
            ([2, 0, 0], 4.0),
            ([2, 1, 1], 5.0),
        ] {
            t.push(&c, v);
        }
        t
    }

    #[test]
    fn build_identity_order_structure() {
        let t = sample();
        let csf = build_csf(&t, &[0, 1, 2]);
        assert_eq!(csf.ndim(), 3);
        assert_eq!(csf.nnz(), 5);
        assert_eq!(csf.fids(0), &[0, 2]);
        assert_eq!(csf.nfibers(1), 4); // (0,0) (0,1) (2,0) (2,1)
        assert_eq!(csf.fids(1), &[0, 1, 0, 1]);
        assert_eq!(csf.ptr(0), &[0, 2, 4]);
        assert_eq!(csf.fids(2), &[0, 2, 1, 0, 1]);
        assert_eq!(csf.ptr(1), &[0, 2, 3, 4, 5]);
        assert_eq!(csf.vals(), &[1.0, 2.0, 3.0, 4.0, 5.0]);
        csf.validate();
    }

    #[test]
    fn fiber_counts_and_memory() {
        let t = sample();
        let csf = build_csf(&t, &[0, 1, 2]);
        assert_eq!(csf.fiber_counts(), vec![2, 4, 5]);
        // fids: (2+4+5)*4 = 44; ptr: (3+5)*8 = 64; vals: 5*8 = 40.
        assert_eq!(csf.memory_bytes(), 44 + 64 + 40);
    }

    #[test]
    fn leaf_range_walks_down() {
        let t = sample();
        let csf = build_csf(&t, &[0, 1, 2]);
        assert_eq!(csf.leaf_range(0, 0), (0, 3)); // slice 0 has 3 nnz
        assert_eq!(csf.leaf_range(0, 1), (3, 5));
        assert_eq!(csf.leaf_range(1, 1), (2, 3)); // fiber (0,1)
        assert_eq!(csf.leaf_range(2, 4), (4, 5)); // a leaf is itself
    }

    #[test]
    fn nnz_per_root_slice_counts() {
        let t = sample();
        let csf = build_csf(&t, &[0, 1, 2]);
        assert_eq!(csf.nnz_per_root_slice(), vec![3, 2]);
    }

    #[test]
    fn find_parent_matches_linear_scan() {
        let t = sample();
        let csf = build_csf(&t, &[0, 1, 2]);
        for level in 0..2 {
            let nchildren = csf.nfibers(level + 1);
            for pos in 0..=nchildren {
                let expect = if pos >= nchildren {
                    csf.nfibers(level)
                } else {
                    (0..csf.nfibers(level))
                        .find(|&i| csf.ptr(level)[i] <= pos && pos < csf.ptr(level)[i + 1])
                        .unwrap()
                };
                assert_eq!(
                    csf.find_parent(level, pos),
                    expect,
                    "level {level} pos {pos}"
                );
            }
        }
    }

    #[test]
    fn to_coo_round_trips_any_order() {
        let mut t = sample();
        t.sort_dedup();
        for order in [[0usize, 1, 2], [2, 1, 0], [1, 2, 0], [1, 0, 2]] {
            let csf = build_csf(&t, &order);
            let mut back = csf.to_coo(t.dims());
            back.sort_dedup();
            assert_eq!(back.nnz(), t.nnz(), "order {order:?}");
            for e in 0..t.nnz() {
                assert_eq!(back.coord(e), t.coord(e), "order {order:?}");
                assert_eq!(back.values()[e], t.values()[e], "order {order:?}");
            }
        }
    }

    #[test]
    fn for_each_leaf_visits_in_sorted_order() {
        let t = sample();
        let csf = build_csf(&t, &[0, 1, 2]);
        let mut seen = Vec::new();
        csf.for_each_leaf(|c, v| seen.push((c.to_vec(), v)));
        assert_eq!(seen.len(), 5);
        let coords: Vec<_> = seen.iter().map(|(c, _)| c.clone()).collect();
        let mut sorted = coords.clone();
        sorted.sort();
        assert_eq!(coords, sorted);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn validate_rejects_empty_fiber() {
        // ptr with a repeated value = an empty fiber.
        let _ = Csf::from_parts(
            vec![0, 1],
            vec![2, 2],
            vec![vec![0, 1], vec![0]],
            vec![vec![0, 0, 1]],
            vec![1.0],
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn validate_rejects_bad_fid() {
        let _ = Csf::from_parts(
            vec![0, 1],
            vec![2, 2],
            vec![vec![5], vec![0]],
            vec![vec![0, 1]],
            vec![1.0],
        );
    }
}
