//! Building a CSF from a COO tensor.
//!
//! The construction is the standard sort-and-scan: non-zeros are sorted
//! lexicographically in the target mode order (a permutation array is
//! sorted, not the tensor itself), duplicates are merged by summation,
//! and one linear scan emits the fiber/pointer arrays level by level.
//! Sorting dominates; it is a sequential unstable sort.

use crate::coo::CooTensor;
use crate::csf::Csf;
use crate::permute::is_permutation;

/// Builds a CSF for `coo` with the given `mode_order` (root-to-leaf;
/// `mode_order[level]` is the original mode stored at that level).
///
/// Duplicate coordinates are merged by summing values. The input tensor
/// is not modified.
///
/// # Panics
/// Panics if `mode_order` is not a permutation of the tensor's modes.
pub fn build_csf(coo: &CooTensor, mode_order: &[usize]) -> Csf {
    let d = coo.ndim();
    assert!(
        is_permutation(mode_order, d),
        "mode_order must be a permutation of 0..{d}"
    );
    let n = coo.nnz();
    // Column views in level order, so comparisons go root -> leaf.
    let cols: Vec<&[u32]> = mode_order
        .iter()
        .map(|&m| coo.indices()[m].as_slice())
        .collect();

    let mut order: Vec<u32> = (0..n as u32).collect();
    let cmp = |a: &u32, b: &u32| {
        let (a, b) = (*a as usize, *b as usize);
        for col in &cols {
            match col[a].cmp(&col[b]) {
                core::cmp::Ordering::Equal => continue,
                other => return other,
            }
        }
        core::cmp::Ordering::Equal
    };
    order.sort_unstable_by(cmp);

    // Single scan: emit fibers wherever a prefix changes.
    let mut fids: Vec<Vec<u32>> = vec![Vec::new(); d];
    let mut ptr: Vec<Vec<usize>> = vec![Vec::new(); d - 1];
    let mut vals: Vec<f64> = Vec::with_capacity(n);
    let mut prev: Option<usize> = None;
    let coo_vals = coo.values();
    for &eu in &order {
        let e = eu as usize;
        // First level at which this entry differs from the previous one;
        // d means identical coordinates (duplicate).
        let diff = match prev {
            None => 0,
            Some(p) => {
                let mut l = 0;
                while l < d && cols[l][p] == cols[l][e] {
                    l += 1;
                }
                l
            }
        };
        if diff == d {
            *vals.last_mut().unwrap() += coo_vals[e];
        } else {
            for l in diff..d {
                if l < d - 1 {
                    ptr[l].push(fids[l + 1].len());
                }
                fids[l].push(cols[l][e]);
            }
            vals.push(coo_vals[e]);
        }
        prev = Some(e);
    }
    for l in 0..d - 1 {
        let sentinel = fids[l + 1].len();
        ptr[l].push(sentinel);
    }

    let level_dims: Vec<usize> = mode_order.iter().map(|&m| coo.dims()[m]).collect();
    Csf::from_parts(mode_order.to_vec(), level_dims, fids, ptr, vals)
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
