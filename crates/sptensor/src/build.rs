//! Building a CSF from a COO tensor.
//!
//! The construction is sort-and-scan on packed keys: [`LevelSort`] packs
//! each non-zero's coordinates, in the target level order, into one
//! record with its input index and sorts the records once
//! ([`crate::keysort`]). Everything a CSF engine needs before its first
//! MTTKRP is read from that sorted order:
//!
//! * the §IV-C profile — fibers per level, and Algorithm 9's level-(d−2)
//!   count for the order with the last two levels swapped — from one
//!   scan of the records, with no CSF built ([`LevelSort::fiber_counts`]);
//! * the swapped order, by re-sorting only inside each level-(d−3)
//!   parent's run ([`LevelSort::swap_last_two`]);
//! * the CSF itself ([`LevelSort::build`]): one scan reads each level's
//!   coordinate out of the sorted record, starts new fibers from the
//!   first level that differs from the previous record, fills arrays
//!   reserved to their final sizes, and gathers the values once.
//!
//! Everything runs inline on the calling thread.

use crate::coo::CooTensor;
use crate::csf::Csf;
use crate::keysort::{self, Columns, Cursor, Sorted};
use crate::permute::is_permutation;
use crate::with_cursor;

/// The non-zeros of a COO tensor sorted by their coordinates in one CSF
/// level order (root first), ties in input order.
pub struct LevelSort<'a> {
    coo: &'a CooTensor,
    mode_order: Vec<usize>,
    keys: Columns<'a>,
    sorted: Sorted,
}

/// Fiber counts read off a [`LevelSort`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FiberCounts {
    /// Fibers at each level, root to leaf (`levels[d-1]` = distinct
    /// non-zeros).
    pub levels: Vec<usize>,
    /// Algorithm 9: the level-(d−2) fiber count of the order with the
    /// last two levels swapped.
    pub swapped: usize,
}

impl<'a> LevelSort<'a> {
    /// Sorts `coo`'s non-zeros for `mode_order` (`mode_order[level]` is
    /// the original mode stored at that level).
    ///
    /// # Panics
    /// Panics if `mode_order` is not a permutation of the tensor's modes.
    pub fn new(coo: &'a CooTensor, mode_order: &[usize]) -> Self {
        let d = coo.ndim();
        assert!(
            is_permutation(mode_order, d),
            "mode_order must be a permutation of 0..{d}"
        );
        let cols = mode_order
            .iter()
            .map(|&m| coo.indices()[m].as_slice())
            .collect();
        let dims: Vec<usize> = mode_order.iter().map(|&m| coo.dims()[m]).collect();
        let keys = Columns::new(cols, &dims);
        let sorted = keysort::sort(&keys);
        LevelSort {
            coo,
            mode_order: mode_order.to_vec(),
            keys,
            sorted,
        }
    }

    /// Mode length at each level.
    pub fn level_dims(&self) -> Vec<usize> {
        self.mode_order
            .iter()
            .map(|&m| self.coo.dims()[m])
            .collect()
    }

    /// Fibers per level of the CSF [`Self::build`] would return, and
    /// Algorithm 9's count for the swapped order, from one scan: the
    /// distinct `(level-(d−3) node, leaf)` pairs (the whole tensor is one
    /// node when `d == 2`), counted by [`SwapCounter`].
    pub fn fiber_counts(&self) -> FiberCounts {
        let d = self.mode_order.len();
        let mut swapped = SwapCounter::new(self.level_dims()[d - 1], self.sorted.len());
        let levels = self.count_levels(|diff, leaf| swapped.visit(diff + 3 <= d, leaf));
        FiberCounts {
            levels,
            swapped: swapped.finish(),
        }
    }

    /// Fibers per level, calling `visit(first_differing_level, leaf)` for
    /// every sorted non-zero.
    fn count_levels(&self, mut visit: impl FnMut(usize, u64)) -> Vec<usize> {
        let d = self.mode_order.len();
        let mut levels = vec![0usize; d];
        with_cursor!(self.sorted.view(&self.keys), |c| {
            for i in 0..c.len() {
                let diff = if i == 0 { 0 } else { c.first_diff(i) };
                for count in &mut levels[diff..] {
                    *count += 1;
                }
                visit(diff, c.field(i, d - 1));
            }
        });
        levels
    }

    /// Re-sorts for the order with the last two levels swapped (paper
    /// §II-E), only inside each level-(d−3) parent's run: the runs'
    /// order is unchanged.
    pub fn swap_last_two(&mut self) {
        let d = self.mode_order.len();
        self.mode_order.swap(d - 2, d - 1);
        self.keys.swap_last_two();
        self.sorted.swap_last_two(&self.keys);
    }

    /// Builds the CSF: duplicates merge by summing their values in input
    /// order.
    pub fn build(&self) -> Csf {
        let d = self.mode_order.len();
        let fibers = self.count_levels(|_, _| {});
        let mut fids: Vec<Vec<u32>> = fibers.iter().map(|&m| Vec::with_capacity(m)).collect();
        let mut ptr: Vec<Vec<usize>> = fibers[..d - 1]
            .iter()
            .map(|&m| Vec::with_capacity(m + 1))
            .collect();
        let mut vals: Vec<f64> = Vec::with_capacity(fibers[d - 1]);
        let coo_vals = self.coo.values();
        with_cursor!(self.sorted.view(&self.keys), |c| {
            for i in 0..c.len() {
                let diff = if i == 0 { 0 } else { c.first_diff(i) };
                let v = coo_vals[c.src(i)];
                if diff == d {
                    *vals.last_mut().expect("a duplicate follows its first copy") += v;
                    continue;
                }
                for l in diff..d {
                    if l < d - 1 {
                        ptr[l].push(fids[l + 1].len());
                    }
                    fids[l].push(c.field(i, l) as u32);
                }
                vals.push(v);
            }
        });
        for l in 0..d - 1 {
            let sentinel = fids[l + 1].len();
            ptr[l].push(sentinel);
        }
        Csf::from_parts(self.mode_order.clone(), self.level_dims(), fids, ptr, vals)
    }
}

/// Algorithm 9's count of distinct `(node, leaf)` pairs, fed the sorted
/// non-zeros' leaf coordinates node by node. As in the paper, each leaf
/// coordinate is marked with the node that last saw it; when that
/// buffer (one word per leaf coordinate) would outsize the non-zeros, as
/// for a hypersparse leaf mode, each node's leaves are sorted and
/// counted instead.
enum SwapCounter {
    Marked {
        observed: Vec<usize>,
        node: usize,
        count: usize,
    },
    Sorted {
        leaves: Vec<u64>,
        count: usize,
    },
}

impl SwapCounter {
    fn new(leaf_dim: usize, nnz: usize) -> Self {
        if leaf_dim <= nnz {
            SwapCounter::Marked {
                observed: vec![usize::MAX; leaf_dim],
                node: 0,
                count: 0,
            }
        } else {
            SwapCounter::Sorted {
                leaves: Vec::new(),
                count: 0,
            }
        }
    }

    /// The next non-zero's leaf coordinate; `new_node` when it starts a
    /// level-(d−3) node.
    #[inline]
    fn visit(&mut self, new_node: bool, leaf: u64) {
        match self {
            SwapCounter::Marked {
                observed,
                node,
                count,
            } => {
                *node += new_node as usize;
                let slot = &mut observed[leaf as usize];
                if *slot != *node {
                    *slot = *node;
                    *count += 1;
                }
            }
            SwapCounter::Sorted { leaves, count } => {
                if new_node {
                    *count += distinct(leaves);
                }
                leaves.push(leaf);
            }
        }
    }

    fn finish(self) -> usize {
        match self {
            SwapCounter::Marked { count, .. } => count,
            SwapCounter::Sorted { mut leaves, count } => count + distinct(&mut leaves),
        }
    }
}

/// Number of distinct values in `xs`, which it empties.
fn distinct(xs: &mut Vec<u64>) -> usize {
    xs.sort_unstable();
    xs.dedup();
    let n = xs.len();
    xs.clear();
    n
}

/// Builds a CSF for `coo` with the given `mode_order` (root-to-leaf;
/// `mode_order[level]` is the original mode stored at that level).
///
/// Duplicate coordinates are merged by summing their values in input
/// order, so the result is deterministic. The input tensor is not
/// modified.
///
/// # Panics
/// Panics if `mode_order` is not a permutation of the tensor's modes.
pub fn build_csf(coo: &CooTensor, mode_order: &[usize]) -> Csf {
    LevelSort::new(coo, mode_order).build()
}

/// Builds the CSF in the paper's default order: modes sorted by
/// increasing length (§II-B heuristic).
pub fn build_csf_default_order(coo: &CooTensor) -> Csf {
    build_csf(coo, &crate::permute::sort_modes_by_length(coo.dims()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duplicates_are_merged() {
        let mut t = CooTensor::new(vec![2, 2]);
        t.push(&[1, 1], 1.0);
        t.push(&[1, 1], 2.0);
        t.push(&[0, 0], 5.0);
        let csf = build_csf(&t, &[0, 1]);
        assert_eq!(csf.nnz(), 2);
        assert_eq!(csf.vals(), &[5.0, 3.0]);
    }

    #[test]
    fn default_order_sorts_by_length() {
        let mut t = CooTensor::new(vec![100, 2, 10]);
        t.push(&[5, 1, 3], 1.0);
        let csf = build_csf_default_order(&t);
        assert_eq!(csf.mode_order(), &[1, 2, 0]);
        assert_eq!(csf.level_dims(), &[2, 10, 100]);
    }

    #[test]
    fn empty_input_not_supported_but_single_nnz_is() {
        let mut t = CooTensor::new(vec![4, 4, 4, 4]);
        t.push(&[3, 2, 1, 0], 7.0);
        let csf = build_csf(&t, &[0, 1, 2, 3]);
        assert_eq!(csf.fiber_counts(), vec![1, 1, 1, 1]);
        assert_eq!(csf.vals(), &[7.0]);
        assert_eq!(csf.fids(0), &[3]);
        assert_eq!(csf.fids(3), &[0]);
    }

    #[test]
    fn large_input_with_duplicates_merges() {
        // 65 636 nnz in a 32³ box: a deterministic pattern with many
        // duplicates, so merging runs at scale.
        let dims = vec![32, 32, 32];
        let mut t = CooTensor::new(dims.clone());
        let mut x = 1u64;
        for _ in 0..(1 << 16) + 100 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let a = ((x >> 10) % 32) as u32;
            let b = ((x >> 20) % 32) as u32;
            let c = ((x >> 30) % 32) as u32;
            t.push(&[a, b, c], 1.0);
        }
        let csf = build_csf(&t, &[0, 1, 2]);
        let mut dedup = t.clone();
        dedup.sort_dedup();
        assert_eq!(csf.nnz(), dedup.nnz());
        let total_from_csf: f64 = csf.vals().iter().sum();
        assert!((total_from_csf - t.nnz() as f64).abs() < 1e-9);
        csf.validate();
    }

    #[test]
    #[should_panic(expected = "permutation")]
    fn rejects_invalid_order() {
        let mut t = CooTensor::new(vec![2, 2]);
        t.push(&[0, 0], 1.0);
        let _ = build_csf(&t, &[0, 0]);
    }
}
