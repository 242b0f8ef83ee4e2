//! Algorithm 9: fiber counting for the swapped last-two-mode order, on a
//! built CSF.
//!
//! To decide whether the CSF's last two levels should be swapped (paper
//! §II-E), the data-movement model needs the fiber count profile of the
//! *swapped* order. Levels `0..d-2` are identical in both orders, the
//! leaf level is always `nnz`, so only `m_{d-2}` — the number of distinct
//! `(i_0, …, i_{d-3}, i_{d-1})` prefixes — has to be computed.
//!
//! Engine planning no longer needs a CSF for this: it reads the count
//! from the sorted keys in the same scan as the per-level counts
//! ([`crate::build::LevelSort::fiber_counts`]). The functions here count
//! it for callers that already hold a CSF (`stef analyze`, the
//! benchmark's set-up replay, tests), and must agree with it.
//!
//! The paper counts these by streaming non-zeros with a per-thread
//! `observed[l]` buffer that records the last `(i, j)` prefix seen for
//! leaf index `l` (Algorithm 9, lines 10–12). We exploit the CSF property
//! that each level-(d−3) node's subtree is a contiguous leaf range:
//! distinct `(prefix, leaf)` pairs = Σ over level-(d−3) nodes of the
//! number of distinct leaf indices inside that node's range. Each
//! parallel task keeps its own `observed` buffer storing the *node id*
//! as the marker, so buffers never need clearing between nodes — the
//! same trick the paper uses with `(i, j)` pairs. The tasks fan out on
//! the executor the caller passes in ([`count_fibers_if_last_two_swapped`]
//! runs them inline); the per-chunk counts land in disjoint slots and
//! are summed afterwards (integer sum — order-independent).

use crate::csf::Csf;
use linalg::par::{self, Cancelled, Fanout, SharedSlice};

/// Minimum leaf count before the parallel path is taken.
const PAR_THRESHOLD: usize = 1 << 14;

/// Number of nodes processed per parallel task; each task allocates one
/// `observed` buffer, so chunks are kept coarse.
const NODE_CHUNK: usize = 64;

/// Counts the fibers at level `d-2` the CSF would have if its last two
/// levels were swapped, without building that CSF (Algorithm 9).
///
/// For `d == 2` this is the number of distinct leaf (column) indices.
/// Runs inline; see [`count_fibers_if_last_two_swapped_on`].
pub fn count_fibers_if_last_two_swapped(csf: &Csf) -> usize {
    par::inline(count_fibers_if_last_two_swapped_on(&par::Inline, csf))
}

/// [`count_fibers_if_last_two_swapped`] with the node chunks fanned out
/// on `exec`.
pub fn count_fibers_if_last_two_swapped_on(exec: &dyn Fanout, csf: &Csf) -> Result<usize, Cancelled> {
    let d = csf.ndim();
    let leaf_dim = csf.level_dims()[d - 1];
    if d == 2 {
        // Distinct column indices overall.
        let mut observed = vec![false; leaf_dim];
        let mut count = 0usize;
        for &l in csf.fids(1) {
            if !observed[l as usize] {
                observed[l as usize] = true;
                count += 1;
            }
        }
        return Ok(count);
    }

    // Nodes whose subtrees partition the leaves into independent ranges:
    // level d-3 (the grandparent of the leaves).
    let anchor = d - 3;
    let n_nodes = csf.nfibers(anchor);
    if csf.nnz() < PAR_THRESHOLD {
        let mut observed = vec![u64::MAX; leaf_dim];
        return Ok(count_range(csf, anchor, 0, n_nodes, &mut observed));
    }

    let nchunks = n_nodes.div_ceil(NODE_CHUNK);
    let mut counts = vec![0usize; nchunks];
    {
        let shared = SharedSlice::new(&mut counts);
        exec.try_run(nchunks, &|ci| {
            let lo = ci * NODE_CHUNK;
            let hi = (lo + NODE_CHUNK).min(n_nodes);
            let mut observed = vec![u64::MAX; leaf_dim];
            // SAFETY: each task owns exactly its own count slot.
            let slot = unsafe { shared.range_mut(ci, ci + 1) };
            slot[0] = count_range(csf, anchor, lo, hi, &mut observed);
        })?;
    }
    Ok(counts.iter().sum())
}

/// Counts distinct `(node, leaf-fid)` pairs for nodes `[lo, hi)` at
/// `anchor` level, using `observed` as a node-id-stamped marker buffer.
fn count_range(csf: &Csf, anchor: usize, lo: usize, hi: usize, observed: &mut [u64]) -> usize {
    let mut count = 0usize;
    let leaf_fids = csf.fids(csf.ndim() - 1);
    for node in lo..hi {
        let (llo, lhi) = csf.leaf_range(anchor, node);
        let stamp = node as u64;
        for &l in &leaf_fids[llo..lhi] {
            let slot = &mut observed[l as usize];
            if *slot != stamp {
                *slot = stamp;
                count += 1;
            }
        }
    }
    count
}

/// Reference implementation: actually build the swapped-order CSF and
/// read off its fiber count. O(nnz log nnz); used to validate the fast
/// path in tests and available for callers that want certainty.
pub fn count_fibers_swapped_reference(coo: &crate::CooTensor, mode_order: &[usize]) -> usize {
    let swapped = crate::permute::swap_last_two(mode_order);
    let csf = crate::build::build_csf(coo, &swapped);
    csf.nfibers(csf.ndim() - 2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::build_csf;
    use crate::CooTensor;

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

    #[test]
    fn matches_reference_3d() {
        let t = pseudo_tensor(&[8, 12, 6], 200, 3);
        let order = [0usize, 1, 2];
        let csf = build_csf(&t, &order);
        assert_eq!(
            count_fibers_if_last_two_swapped(&csf),
            count_fibers_swapped_reference(&t, &order)
        );
    }

    #[test]
    fn matches_reference_4d_and_5d() {
        for dims in [vec![5usize, 7, 9, 4], vec![3, 4, 5, 6, 7]] {
            let t = pseudo_tensor(&dims, 500, 11);
            let order: Vec<usize> = (0..dims.len()).collect();
            let csf = build_csf(&t, &order);
            assert_eq!(
                count_fibers_if_last_two_swapped(&csf),
                count_fibers_swapped_reference(&t, &order),
                "dims {dims:?}"
            );
        }
    }

    #[test]
    fn matches_reference_2d() {
        let t = pseudo_tensor(&[10, 17], 60, 5);
        let csf = build_csf(&t, &[0, 1]);
        assert_eq!(
            count_fibers_if_last_two_swapped(&csf),
            count_fibers_swapped_reference(&t, &[0, 1])
        );
    }

    #[test]
    fn parallel_path_matches_reference() {
        let t = pseudo_tensor(&[40, 50, 30], 40_000, 17);
        let csf = build_csf(&t, &[0, 1, 2]);
        assert!(csf.nnz() >= PAR_THRESHOLD, "need the parallel path");
        assert_eq!(
            count_fibers_if_last_two_swapped(&csf),
            count_fibers_swapped_reference(&t, &[0, 1, 2])
        );
    }

    #[test]
    fn dense_fiber_structure_hand_checked() {
        // T[i,j,k] nonzero for k in {0,1}, all (i,j): swapping last two
        // modes gives fibers (i,k): 2 slices * 2 ks = 4... with 3 js each.
        let mut t = CooTensor::new(vec![2, 3, 2]);
        for i in 0..2u32 {
            for j in 0..3u32 {
                for k in 0..2u32 {
                    t.push(&[i, j, k], 1.0);
                }
            }
        }
        let csf = build_csf(&t, &[0, 1, 2]);
        // Original order: m_1 = 6 (i,j) fibers. Swapped: m_1 = 4 (i,k).
        assert_eq!(csf.nfibers(1), 6);
        assert_eq!(count_fibers_if_last_two_swapped(&csf), 4);
    }

    #[test]
    fn swap_can_also_increase_fibers() {
        // Long last mode with singleton fibers: swapping hurts.
        let mut t = CooTensor::new(vec![2, 2, 8]);
        for i in 0..2u32 {
            for l in 0..8u32 {
                t.push(&[i, 0, l], 1.0);
            }
        }
        let csf = build_csf(&t, &[0, 1, 2]);
        assert_eq!(csf.nfibers(1), 2); // (0,0), (1,0)
        assert_eq!(count_fibers_if_last_two_swapped(&csf), 16); // every (i,l)
    }
}
