//! Coordinate-format sparse tensors.
//!
//! COO is the interchange format: generators produce it, `.tns` files load
//! into it, and every compressed format (CSF, the ALTO-like linearized
//! format) is built from it. It also hosts the *reference* MTTKRP — a
//! direct transcription of the defining sum
//! `Ā(i,r) = Σ T(i,j,k,…) · B(j,r) · C(k,r) · …` — which is deliberately
//! naive: every optimized kernel in the workspace is property-tested
//! against it.

use crate::keysort::{self, Columns};
use linalg::Mat;

/// A sparse tensor in coordinate format (struct-of-arrays layout).
#[derive(Clone, Debug)]
pub struct CooTensor {
    dims: Vec<usize>,
    /// `inds[m][e]` is the mode-`m` coordinate of non-zero `e`.
    inds: Vec<Vec<u32>>,
    vals: Vec<f64>,
}

impl CooTensor {
    /// Creates an empty tensor with the given mode lengths.
    ///
    /// # Panics
    /// Panics if fewer than 2 modes, or any mode length is 0 or exceeds
    /// `u32::MAX`.
    pub fn new(dims: Vec<usize>) -> Self {
        assert!(dims.len() >= 2, "tensors need at least 2 modes");
        assert!(
            dims.iter().all(|&d| d > 0 && d <= u32::MAX as usize),
            "mode lengths must be in 1..=u32::MAX"
        );
        let nmodes = dims.len();
        CooTensor {
            dims,
            inds: vec![Vec::new(); nmodes],
            vals: Vec::new(),
        }
    }

    /// Appends a non-zero. Coordinates are 0-based.
    ///
    /// # Panics
    /// Panics if the coordinate arity or any coordinate is out of range.
    pub fn push(&mut self, coord: &[u32], val: f64) {
        assert_eq!(coord.len(), self.ndim(), "coordinate arity mismatch");
        for (m, (&c, &d)) in coord.iter().zip(&self.dims).enumerate() {
            assert!(
                (c as usize) < d,
                "coordinate {c} out of range for mode {m} (len {d})"
            );
        }
        for (store, &c) in self.inds.iter_mut().zip(coord) {
            store.push(c);
        }
        self.vals.push(val);
    }

    /// Number of modes (tensor order / dimensionality).
    #[inline]
    pub fn ndim(&self) -> usize {
        self.dims.len()
    }

    /// Mode lengths.
    #[inline]
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Number of stored non-zeros (duplicates, if any, count separately
    /// until [`Self::sort_dedup`] is called).
    #[inline]
    pub fn nnz(&self) -> usize {
        self.vals.len()
    }

    /// The coordinate arrays, one `Vec` per mode.
    #[inline]
    pub fn indices(&self) -> &[Vec<u32>] {
        &self.inds
    }

    /// The value array.
    #[inline]
    pub fn values(&self) -> &[f64] {
        &self.vals
    }

    /// Coordinate of non-zero `e` as an owned small vector.
    pub fn coord(&self, e: usize) -> Vec<u32> {
        self.inds.iter().map(|col| col[e]).collect()
    }

    /// Squared Frobenius norm `Σ v²` — needed by the CP fit computation.
    pub fn norm_sq(&self) -> f64 {
        self.vals.iter().map(|v| v * v).sum()
    }

    /// Density `nnz / Π dims` (may underflow to 0 for huge index spaces —
    /// informational only).
    pub fn density(&self) -> f64 {
        let space: f64 = self.dims.iter().map(|&d| d as f64).product();
        self.nnz() as f64 / space
    }

    /// Sorts non-zeros lexicographically by coordinate and merges
    /// duplicates by summing their values. Entries that merge to exactly
    /// 0.0 are kept (matching SPLATT, which treats explicit zeros as
    /// structural non-zeros). Duplicates sum in the order
    /// [`keysort::unstable_argsort`] leaves them, which the generated
    /// suite tensors' values depend on.
    pub fn sort_dedup(&mut self) {
        let n = self.nnz();
        let keys = Columns::new(self.inds.iter().map(|c| c.as_slice()).collect(), &self.dims);
        let order = keysort::unstable_argsort(&keys);
        let mut new_inds: Vec<Vec<u32>> = vec![Vec::with_capacity(n); self.ndim()];
        let mut new_vals: Vec<f64> = Vec::with_capacity(n);
        for &eu in &order {
            let e = eu as usize;
            let dup = !new_vals.is_empty()
                && self
                    .inds
                    .iter()
                    .zip(&new_inds)
                    .all(|(col, ncol)| col[e] == *ncol.last().unwrap());
            if dup {
                *new_vals.last_mut().unwrap() += self.vals[e];
            } else {
                for (col, ncol) in self.inds.iter().zip(new_inds.iter_mut()) {
                    ncol.push(col[e]);
                }
                new_vals.push(self.vals[e]);
            }
        }
        self.inds = new_inds;
        self.vals = new_vals;
    }

    /// Returns a new tensor with modes reordered so that new mode `m` is
    /// old mode `perm[m]`.
    pub fn permute_modes(&self, perm: &[usize]) -> CooTensor {
        assert_eq!(perm.len(), self.ndim());
        let dims = perm.iter().map(|&p| self.dims[p]).collect();
        let inds = perm.iter().map(|&p| self.inds[p].clone()).collect();
        CooTensor {
            dims,
            inds,
            vals: self.vals.clone(),
        }
    }

    /// Reference MTTKRP for mode `u` — the defining summation, one scratch
    /// row per non-zero. `factors[m]` must be `dims[m] × R` for every mode.
    ///
    /// This is the oracle the whole workspace is validated against; it is
    /// O(nnz · d · R) with no cleverness whatsoever.
    pub fn mttkrp_reference(&self, factors: &[Mat], mode: usize) -> Mat {
        assert_eq!(factors.len(), self.ndim(), "need one factor per mode");
        assert!(mode < self.ndim(), "mode out of range");
        for (m, f) in factors.iter().enumerate() {
            assert_eq!(f.rows(), self.dims[m], "factor {m} row count mismatch");
        }
        let r = factors[0].cols();
        assert!(factors.iter().all(|f| f.cols() == r));
        let mut out = Mat::zeros(self.dims[mode], r);
        let mut scratch = vec![0.0; r];
        for e in 0..self.nnz() {
            scratch.iter_mut().for_each(|s| *s = self.vals[e]);
            for m in 0..self.ndim() {
                if m == mode {
                    continue;
                }
                let row = factors[m].row(self.inds[m][e] as usize);
                for (s, &fv) in scratch.iter_mut().zip(row) {
                    *s *= fv;
                }
            }
            let orow = out.row_mut(self.inds[mode][e] as usize);
            for (o, &s) in orow.iter_mut().zip(&scratch) {
                *o += s;
            }
        }
        out
    }

    /// Inner product `⟨T, [[λ; A⁰, A¹, …]]⟩` between the tensor and a CP
    /// model — the cross term of the CP fit. O(nnz · d · R).
    pub fn inner_with_model(&self, lambda: &[f64], factors: &[Mat]) -> f64 {
        assert_eq!(factors.len(), self.ndim());
        let r = lambda.len();
        let mut total = 0.0;
        let mut scratch = vec![0.0; r];
        for e in 0..self.nnz() {
            scratch.copy_from_slice(lambda);
            for (m, f) in factors.iter().enumerate() {
                let row = f.row(self.inds[m][e] as usize);
                for (s, &fv) in scratch.iter_mut().zip(row) {
                    *s *= fv;
                }
            }
            total += self.vals[e] * scratch.iter().sum::<f64>();
        }
        total
    }

    /// Evaluates the dense value of the tensor at `coord` (slow; testing
    /// only). Duplicate coordinates must have been merged first.
    pub fn get(&self, coord: &[u32]) -> f64 {
        for e in 0..self.nnz() {
            if self.inds.iter().zip(coord).all(|(col, &c)| col[e] == c) {
                return self.vals[e];
            }
        }
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> CooTensor {
        let mut t = CooTensor::new(vec![2, 3, 2]);
        t.push(&[0, 0, 0], 1.0);
        t.push(&[0, 2, 1], 2.0);
        t.push(&[1, 1, 0], 3.0);
        t.push(&[1, 2, 1], -4.0);
        t
    }

    #[test]
    fn push_and_query() {
        let t = small();
        assert_eq!(t.nnz(), 4);
        assert_eq!(t.ndim(), 3);
        assert_eq!(t.dims(), &[2, 3, 2]);
        assert_eq!(t.coord(1), vec![0, 2, 1]);
        assert_eq!(t.get(&[1, 1, 0]), 3.0);
        assert_eq!(t.get(&[0, 1, 0]), 0.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn push_validates_coords() {
        let mut t = CooTensor::new(vec![2, 2]);
        t.push(&[0, 2], 1.0);
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn push_validates_arity() {
        let mut t = CooTensor::new(vec![2, 2]);
        t.push(&[0], 1.0);
    }

    #[test]
    fn norm_sq_sums_squares() {
        let t = small();
        assert!((t.norm_sq() - (1.0 + 4.0 + 9.0 + 16.0)).abs() < 1e-12);
    }

    #[test]
    fn sort_dedup_sorts_and_merges() {
        let mut t = CooTensor::new(vec![2, 2]);
        t.push(&[1, 1], 5.0);
        t.push(&[0, 1], 1.0);
        t.push(&[1, 1], 2.5);
        t.push(&[0, 0], 3.0);
        t.sort_dedup();
        assert_eq!(t.nnz(), 3);
        assert_eq!(t.coord(0), vec![0, 0]);
        assert_eq!(t.coord(1), vec![0, 1]);
        assert_eq!(t.coord(2), vec![1, 1]);
        assert_eq!(t.values(), &[3.0, 1.0, 7.5]);
    }

    #[test]
    fn permute_modes_round_trip() {
        let t = small();
        let p = t.permute_modes(&[2, 0, 1]);
        assert_eq!(p.dims(), &[2, 2, 3]);
        // nnz 1 was (0,2,1) -> becomes (1,0,2)
        assert_eq!(p.coord(1), vec![1, 0, 2]);
        let back = p.permute_modes(&crate::permute::inverse_permutation(&[2, 0, 1]));
        assert_eq!(back.coord(1), t.coord(1));
    }

    #[test]
    fn mttkrp_reference_matches_hand_computation() {
        // 2x2x2 tensor with a single nnz: T[1,0,1] = 2.
        let mut t = CooTensor::new(vec![2, 2, 2]);
        t.push(&[1, 0, 1], 2.0);
        let a = Mat::from_fn(2, 2, |i, j| (i + j + 1) as f64); // unused for mode 0
        let b = Mat::from_fn(2, 2, |i, j| (2 * i + j + 1) as f64);
        let c = Mat::from_fn(2, 2, |i, j| (i * j + 3) as f64);
        let out = t.mttkrp_reference(&[a.clone(), b.clone(), c.clone()], 0);
        // out[1,r] = 2 * B[0,r] * C[1,r]; B[0,:] = [1,2], C[1,:] = [3,4].
        assert_eq!(out.row(0), &[0.0, 0.0]);
        assert_eq!(out.row(1), &[6.0, 16.0]);
        // Mode 1: out[0,r] = 2 * A[1,r] * C[1,r]; A[1,:] = [2,3], C[1,:] = [3,4].
        let out1 = t.mttkrp_reference(&[a.clone(), b.clone(), c.clone()], 1);
        assert_eq!(out1.row(0), &[12.0, 24.0]);
        // Mode 2: out[1,r] = 2 * A[1,r] * B[0,r].
        let out2 = t.mttkrp_reference(&[a, b, c], 2);
        assert_eq!(out2.row(1), &[4.0, 12.0]);
    }

    #[test]
    fn mttkrp_reference_accumulates_across_nnz() {
        let mut t = CooTensor::new(vec![2, 2]);
        t.push(&[0, 0], 1.0);
        t.push(&[0, 1], 2.0);
        let b = Mat::from_fn(2, 1, |i, _| (i + 1) as f64); // [1],[2]
        let a = Mat::from_fn(2, 1, |_, _| 1.0);
        let out = t.mttkrp_reference(&[a, b], 0);
        // Matrix case: out[0] = 1*B[0] + 2*B[1] = 1 + 4 = 5.
        assert_eq!(out.row(0), &[5.0]);
    }

    #[test]
    fn inner_with_model_matches_reference() {
        let t = small();
        let r = 2;
        let factors: Vec<Mat> = t
            .dims()
            .iter()
            .map(|&n| Mat::from_fn(n, r, |i, j| ((i * 3 + j * 5) % 7) as f64 * 0.3 - 0.5))
            .collect();
        let lambda = vec![1.5, 0.5];
        // Brute force via dense evaluation.
        let mut expect = 0.0;
        for e in 0..t.nnz() {
            let c = t.coord(e);
            for rr in 0..r {
                let mut p = lambda[rr];
                for (m, f) in factors.iter().enumerate() {
                    p *= f[(c[m] as usize, rr)];
                }
                expect += t.values()[e] * p;
            }
        }
        assert!((t.inner_with_model(&lambda, &factors) - expect).abs() < 1e-10);
    }

    #[test]
    fn density_small_tensor() {
        let t = small();
        assert!((t.density() - 4.0 / 12.0).abs() < 1e-12);
    }
}
