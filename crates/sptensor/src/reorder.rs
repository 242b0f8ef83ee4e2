//! Lexi-Order-style mode reordering (Li, Uçar, Çatalyürek, Sun, Barker,
//! Vuduc — ICS 2019; discussed in the STeF paper's §V as complementary
//! to its contributions).
//!
//! Reordering renumbers the indices *within* each mode (a per-mode
//! bijection). Fiber counts — and therefore the data-movement model's
//! decisions — are invariant under renumbering; what changes is
//! **locality**: after Lexi-Order, rows of the factor matrices that are
//! accessed close together in the CSF traversal get nearby indices, so
//! factor-row reads hit warmer cache lines.
//!
//! The scheme implemented here is the practical core of Lexi-Order:
//! sweep the modes a few times; for each mode, sort the non-zeros
//! lexicographically by *all other* modes (in their current numbering)
//! and assign new ids to this mode's indices in order of first
//! appearance. Indices sharing fiber prefixes thus become contiguous.

use crate::coo::CooTensor;
use crate::keysort::{self, Columns, Cursor};
use crate::with_cursor;

/// The per-mode renumberings produced by [`lexi_order`].
#[derive(Clone, Debug)]
pub struct ModeRenumbering {
    /// `forward[m][old_id] = new_id`.
    pub forward: Vec<Vec<u32>>,
    /// `inverse[m][new_id] = old_id`.
    pub inverse: Vec<Vec<u32>>,
}

impl ModeRenumbering {
    /// The identity renumbering for the given mode lengths.
    pub fn identity(dims: &[usize]) -> Self {
        let forward: Vec<Vec<u32>> = dims.iter().map(|&n| (0..n as u32).collect()).collect();
        ModeRenumbering {
            inverse: forward.clone(),
            forward,
        }
    }

    /// Applies the renumbering to a tensor (coordinates only; values and
    /// entry order are preserved).
    pub fn apply(&self, t: &CooTensor) -> CooTensor {
        let mut out = CooTensor::new(t.dims().to_vec());
        let mut coord = vec![0u32; t.ndim()];
        for e in 0..t.nnz() {
            for (m, c) in coord.iter_mut().enumerate() {
                *c = self.forward[m][t.indices()[m][e] as usize];
            }
            out.push(&coord, t.values()[e]);
        }
        out
    }

    /// Reorders the *rows* of factor matrices computed on the renumbered
    /// tensor back into original index order: `out[old] = f[new]`.
    pub fn unapply_factor_rows(&self, mode: usize, rows: &[Vec<f64>]) -> Vec<Vec<f64>> {
        assert_eq!(rows.len(), self.forward[mode].len());
        (0..rows.len())
            .map(|old| rows[self.forward[mode][old] as usize].clone())
            .collect()
    }

    fn validate(&self) {
        for (f, i) in self.forward.iter().zip(&self.inverse) {
            debug_assert_eq!(f.len(), i.len());
            for (old, &new) in f.iter().enumerate() {
                debug_assert_eq!(i[new as usize] as usize, old);
            }
        }
    }
}

/// Runs Lexi-Order-style renumbering for `sweeps` passes over all modes
/// and returns the renumbered tensor plus the applied renumbering.
///
/// One sweep per mode is usually enough; the ICS'19 paper uses a few.
pub fn lexi_order(t: &CooTensor, sweeps: usize) -> (CooTensor, ModeRenumbering) {
    let d = t.ndim();
    let mut current = t.clone();
    let mut total = ModeRenumbering::identity(t.dims());
    for _ in 0..sweeps.max(1) {
        for mode in 0..d {
            let perm = renumber_one_mode(&current, mode);
            // Compose into the running renumbering…
            for old in 0..t.dims()[mode] {
                let mid = total.forward[mode][old] as usize;
                total.forward[mode][old] = perm[mid];
            }
            // …and rebuild the inverse.
            for (old, &new) in total.forward[mode].iter().enumerate() {
                total.inverse[mode][new as usize] = old as u32;
            }
            // Apply to the working tensor.
            let single = single_mode_renumbering(t.dims(), mode, &perm);
            current = single.apply(&current);
        }
    }
    total.validate();
    (current, total)
}

fn single_mode_renumbering(dims: &[usize], mode: usize, perm: &[u32]) -> ModeRenumbering {
    let mut r = ModeRenumbering::identity(dims);
    r.forward[mode] = perm.to_vec();
    for (old, &new) in perm.iter().enumerate() {
        r.inverse[mode][new as usize] = old as u32;
    }
    r
}

/// New ids for `mode`: sort entries by the other modes then by `mode`,
/// and number this mode's indices by first appearance. Unused indices
/// keep stable ids after all used ones.
fn renumber_one_mode(t: &CooTensor, mode: usize) -> Vec<u32> {
    let n = t.dims()[mode];
    let d = t.ndim();
    let inds = t.indices();
    let key_modes: Vec<usize> = (0..d).filter(|&m| m != mode).chain([mode]).collect();
    let keys = Columns::new(
        key_modes.iter().map(|&m| inds[m].as_slice()).collect(),
        &key_modes.iter().map(|&m| t.dims()[m]).collect::<Vec<_>>(),
    );
    let sorted = keysort::sort(&keys);
    let mut new_id = vec![u32::MAX; n];
    let mut next = 0u32;
    with_cursor!(sorted.view(&keys), |c| {
        for i in 0..c.len() {
            let slot = &mut new_id[c.field(i, d - 1) as usize];
            if *slot == u32::MAX {
                *slot = next;
                next += 1;
            }
        }
    });
    for slot in new_id.iter_mut() {
        if *slot == u32::MAX {
            *slot = next;
            next += 1;
        }
    }
    debug_assert_eq!(next as usize, n);
    new_id
}

/// Locality metric: the mean absolute difference between consecutive
/// index values per mode when the tensor is traversed in sorted order —
/// lower means factor rows are touched in tighter windows. Used to
/// verify that Lexi-Order actually improves layout.
pub fn mean_index_jump(t: &CooTensor) -> Vec<f64> {
    let mut sorted = t.clone();
    sorted.sort_dedup();
    let d = sorted.ndim();
    let mut out = vec![0.0; d];
    if sorted.nnz() < 2 {
        return out;
    }
    for (m, acc) in out.iter_mut().enumerate() {
        let col = &sorted.indices()[m];
        let mut sum = 0.0;
        for w in col.windows(2) {
            sum += (w[1] as i64 - w[0] as i64).unsigned_abs() as f64;
        }
        *acc = sum / (col.len() - 1) as f64;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scattered_tensor(seed: u64) -> CooTensor {
        // Block structure hidden behind a random shuffle of mode-1 ids:
        // Lexi-Order should (mostly) undo the shuffle.
        let mut t = CooTensor::new(vec![16, 64, 16]);
        let mut shuffle: Vec<u32> = (0..64).collect();
        let mut x = seed | 1;
        for i in (1..64usize).rev() {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            shuffle.swap(i, ((x >> 33) % (i as u64 + 1)) as usize);
        }
        for b in 0..4u32 {
            for i in 0..4u32 {
                for j in 0..16u32 {
                    for k in 0..4u32 {
                        t.push(&[b * 4 + i, shuffle[(b * 16 + j) as usize], b * 4 + k], 1.0);
                    }
                }
            }
        }
        t.sort_dedup();
        t
    }

    #[test]
    fn renumbering_is_a_bijection() {
        let t = scattered_tensor(3);
        let (_, r) = lexi_order(&t, 2);
        for m in 0..3 {
            let mut seen = vec![false; t.dims()[m]];
            for &new in &r.forward[m] {
                assert!(!seen[new as usize], "mode {m} maps twice to {new}");
                seen[new as usize] = true;
            }
            assert!(seen.iter().all(|&s| s));
            // forward/inverse consistency
            for old in 0..t.dims()[m] {
                assert_eq!(r.inverse[m][r.forward[m][old] as usize] as usize, old);
            }
        }
    }

    #[test]
    fn reordered_tensor_has_same_values_up_to_renaming() {
        let t = scattered_tensor(5);
        let (reordered, r) = lexi_order(&t, 1);
        assert_eq!(reordered.nnz(), t.nnz());
        assert!((reordered.norm_sq() - t.norm_sq()).abs() < 1e-9);
        // Spot-check: entry e maps coordinate-wise through `forward`.
        for e in (0..t.nnz()).step_by(13) {
            let c = t.coord(e);
            let mapped: Vec<u32> = c
                .iter()
                .enumerate()
                .map(|(m, &v)| r.forward[m][v as usize])
                .collect();
            assert_eq!(reordered.get(&mapped), t.values()[e]);
        }
    }

    #[test]
    fn fiber_counts_are_invariant() {
        let t = scattered_tensor(7);
        let (reordered, _) = lexi_order(&t, 2);
        let order = [0usize, 1, 2];
        let a = crate::build::build_csf(&t, &order);
        let b = crate::build::build_csf(&reordered, &order);
        assert_eq!(a.fiber_counts(), b.fiber_counts());
    }

    #[test]
    fn locality_improves_on_shuffled_blocks() {
        let t = scattered_tensor(9);
        let before = mean_index_jump(&t);
        let (reordered, _) = lexi_order(&t, 2);
        let after = mean_index_jump(&reordered);
        // Mode 1 was shuffled; Lexi-Order should tighten it noticeably.
        assert!(
            after[1] < before[1] * 0.8,
            "mode-1 jump should shrink: {before:?} -> {after:?}"
        );
    }

    #[test]
    fn identity_on_already_ordered_tensor() {
        // A perfectly blocked tensor: reordering must not make locality
        // worse.
        let mut t = CooTensor::new(vec![8, 8, 8]);
        for i in 0..8u32 {
            for j in 0..2u32 {
                t.push(&[i, (i + j) % 8, i], 1.0);
            }
        }
        t.sort_dedup();
        let before = mean_index_jump(&t);
        let (reordered, _) = lexi_order(&t, 1);
        let after = mean_index_jump(&reordered);
        for m in 0..3 {
            assert!(
                after[m] <= before[m] * 1.5 + 1.0,
                "mode {m}: {before:?} -> {after:?}"
            );
        }
    }

    #[test]
    fn unapply_factor_rows_round_trips() {
        let t = scattered_tensor(11);
        let (_, r) = lexi_order(&t, 1);
        let mode = 1;
        let n = t.dims()[mode];
        // Factor rows computed in NEW numbering: row new = [new as f64].
        let rows_new: Vec<Vec<f64>> = (0..n).map(|new| vec![new as f64]).collect();
        let rows_old = r.unapply_factor_rows(mode, &rows_new);
        for old in 0..n {
            assert_eq!(rows_old[old][0], r.forward[mode][old] as f64);
        }
    }

    #[test]
    fn mean_index_jump_handles_tiny_tensors() {
        let mut t = CooTensor::new(vec![4, 4]);
        t.push(&[1, 2], 1.0);
        assert_eq!(mean_index_jump(&t), vec![0.0, 0.0]);
    }
}
