//! ALTO-style linearized tensor engine (Helal et al., ICS 2021; paper
//! baseline `ALTO`).
//!
//! ALTO abandons tree formats entirely: each non-zero is one linearized
//! index formed by interleaving the bits of its mode coordinates
//! (round-robin, LSB up), and the non-zeros are kept sorted by that
//! index. The defining consequences, reproduced here:
//!
//! * a single representation serves every mode (no per-mode copies, no
//!   re-orientation between MTTKRPs);
//! * parallel work is split by equal non-zero ranges — inherently
//!   balanced, like STeF's scheduling but without a tree;
//! * every MTTKRP recomputes from scratch (no memoization), which is the
//!   FLOP overhead the paper calls out;
//! * bit-interleaving keeps nearby non-zeros nearby in *every* mode, the
//!   locality argument of the ALTO paper.
//!
//! Like the original, both a 64-bit and a 128-bit index variant exist;
//! the narrowest one that fits the tensor's concatenated index bits is
//! selected automatically (the paper reports whichever is faster — the
//! 64-bit one always is when it fits).
//!
//! Substitution note (DESIGN.md): the original resolves output conflicts
//! with a recursive interval-based scheme; we privatize per-thread
//! outputs, which preserves the load-balance behaviour this comparison
//! measures.

use linalg::Mat;
use sptensor::CooTensor;
use stef::sync::SharedSlice;
use stef::{Executor, MttkrpEngine};

/// A word type usable as a linearized index.
trait LinWord: Copy + Send + Sync {
    fn zero() -> Self;
    fn get_bit(self, p: u32) -> u64;
    fn or_bit(&mut self, p: u32, bit: u64);
    fn key(self) -> u128;
}

impl LinWord for u64 {
    fn zero() -> Self {
        0
    }
    #[inline]
    fn get_bit(self, p: u32) -> u64 {
        (self >> p) & 1
    }
    #[inline]
    fn or_bit(&mut self, p: u32, bit: u64) {
        *self |= bit << p;
    }
    fn key(self) -> u128 {
        self as u128
    }
}

impl LinWord for u128 {
    fn zero() -> Self {
        0
    }
    #[inline]
    fn get_bit(self, p: u32) -> u64 {
        ((self >> p) & 1) as u64
    }
    #[inline]
    fn or_bit(&mut self, p: u32, bit: u64) {
        *self |= (bit as u128) << p;
    }
    fn key(self) -> u128 {
        self
    }
}

/// The linearized payload at one index width.
struct AltoStore<T: LinWord> {
    /// Bit positions (in the linear index) of each mode's coordinate
    /// bits, LSB-first.
    positions: Vec<Vec<u32>>,
    /// Linearized indices, sorted ascending.
    lin: Vec<T>,
    vals: Vec<f64>,
}

impl<T: LinWord> AltoStore<T> {
    fn build(coo: &CooTensor, bits: &[u32]) -> Self {
        let d = coo.ndim();
        // Round-robin interleave from the LSB: at step k, every mode
        // that still has a k-th bit contributes it (the compacted
        // permutation of the ALTO paper).
        let mut positions: Vec<Vec<u32>> = vec![Vec::new(); d];
        let mut pos = 0u32;
        let max_bits = bits.iter().copied().max().unwrap_or(1);
        for b in 0..max_bits {
            for (m, mode_positions) in positions.iter_mut().enumerate() {
                if b < bits[m] {
                    mode_positions.push(pos);
                    pos += 1;
                }
            }
        }

        // Flat buffers end to end: encode every entry into one linear-
        // index array, argsort a u32 permutation over it, then gather.
        // Linearization is injective on coordinates, so equal linear
        // indices are exactly the duplicate entries `sort_dedup` would
        // merge — summing them during the gather deduplicates without
        // cloning the tensor or staging (index, value) tuple pairs.
        let nnz = coo.nnz();
        let mut encoded: Vec<T> = Vec::with_capacity(nnz);
        for e in 0..nnz {
            let mut lin = T::zero();
            for (m, mode_positions) in positions.iter().enumerate() {
                let c = coo.indices()[m][e] as u64;
                for (b, &p) in mode_positions.iter().enumerate() {
                    lin.or_bit(p, (c >> b) & 1);
                }
            }
            encoded.push(lin);
        }
        let mut order: Vec<u32> = (0..nnz as u32).collect();
        order.sort_unstable_by_key(|&e| encoded[e as usize].key());
        let mut lin: Vec<T> = Vec::with_capacity(nnz);
        let mut vals: Vec<f64> = Vec::with_capacity(nnz);
        let src = coo.values();
        for &eu in &order {
            let e = eu as usize;
            if lin.last().is_some_and(|l| l.key() == encoded[e].key()) {
                *vals.last_mut().expect("lin and vals grow together") += src[e];
            } else {
                lin.push(encoded[e]);
                vals.push(src[e]);
            }
        }
        AltoStore {
            positions,
            lin,
            vals,
        }
    }

    /// Extracts mode `m`'s coordinate from a linearized index.
    #[inline]
    fn decode(&self, lin: T, m: usize) -> usize {
        let mut c = 0u64;
        for (b, &p) in self.positions[m].iter().enumerate() {
            c |= lin.get_bit(p) << b;
        }
        c as usize
    }

    fn mttkrp(
        &self,
        factors: &[Mat],
        mode: usize,
        rank: usize,
        nthreads: usize,
        n_out: usize,
        exec: &Executor,
    ) -> Mat {
        let d = factors.len();
        let nnz = self.vals.len();
        let chunk = nnz.div_ceil(nthreads);
        let mut locals: Vec<Mat> = (0..nthreads).map(|_| Mat::zeros(n_out, rank)).collect();
        {
            let slots = SharedSlice::new(&mut locals);
            exec.fanout(nthreads, |th| {
                // SAFETY: each logical thread owns exactly its own slot.
                let local = &mut unsafe { slots.range_mut(th, th + 1) }[0];
                let lo = (th * chunk).min(nnz);
                let hi = ((th + 1) * chunk).min(nnz);
                let mut scratch = vec![0.0; rank];
                for e in lo..hi {
                    let lin = self.lin[e];
                    let v = self.vals[e];
                    scratch.iter_mut().for_each(|s| *s = v);
                    for m in 0..d {
                        if m == mode {
                            continue;
                        }
                        let row = factors[m].row(self.decode(lin, m));
                        for (s, &f) in scratch.iter_mut().zip(row) {
                            *s *= f;
                        }
                    }
                    let out_row = local.row_mut(self.decode(lin, mode));
                    for (o, &s) in out_row.iter_mut().zip(&scratch) {
                        *o += s;
                    }
                }
            });
        }
        let mut out = locals.remove(0);
        for l in locals {
            out.add_assign(&l);
        }
        out
    }

    fn memory_bytes(&self) -> usize {
        self.lin.len() * std::mem::size_of::<T>() + self.vals.len() * 8
    }
}

enum Store {
    Narrow(AltoStore<u64>),
    Wide(AltoStore<u128>),
}

/// The ALTO-like baseline engine.
pub struct Alto {
    dims: Vec<usize>,
    rank: usize,
    nthreads: usize,
    norm_sq: f64,
    store: Store,
    nnz: usize,
    exec: Executor,
}

impl Alto {
    /// Builds the linearized representation, auto-selecting the 64-bit
    /// or 128-bit index variant; MTTKRPs fan out on `exec`.
    ///
    /// # Panics
    /// Panics if the concatenated index bits exceed 128 or the tensor is
    /// empty.
    pub fn prepare(coo: &CooTensor, rank: usize, nthreads: usize, exec: &Executor) -> Self {
        assert!(coo.nnz() > 0, "empty tensors are not supported");
        let nthreads = if nthreads == 0 {
            stef::runtime::default_threads()
        } else {
            nthreads
        };
        let bits: Vec<u32> = coo
            .dims()
            .iter()
            .map(|&n| usize::BITS - (n - 1).max(1).leading_zeros())
            .collect();
        let total: u32 = bits.iter().sum();
        assert!(
            total <= 128,
            "linearized index needs {total} bits; ALTO supports at most the 128-bit variant"
        );
        let store = if total <= 64 {
            Store::Narrow(AltoStore::<u64>::build(coo, &bits))
        } else {
            Store::Wide(AltoStore::<u128>::build(coo, &bits))
        };
        let nnz = match &store {
            Store::Narrow(s) => s.vals.len(),
            Store::Wide(s) => s.vals.len(),
        };
        Alto {
            dims: coo.dims().to_vec(),
            rank,
            nthreads,
            norm_sq: coo.norm_sq(),
            store,
            nnz,
            exec: exec.clone(),
        }
    }

    /// `true` if the 128-bit index variant is in use.
    pub fn is_wide(&self) -> bool {
        matches!(self.store, Store::Wide(_))
    }

    /// Bytes of the linearized representation.
    pub fn memory_bytes(&self) -> usize {
        match &self.store {
            Store::Narrow(s) => s.memory_bytes(),
            Store::Wide(s) => s.memory_bytes(),
        }
    }

    /// Number of stored non-zeros.
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    #[cfg(test)]
    fn decode_entry(&self, e: usize, m: usize) -> usize {
        match &self.store {
            Store::Narrow(s) => s.decode(s.lin[e], m),
            Store::Wide(s) => s.decode(s.lin[e], m),
        }
    }
}

impl MttkrpEngine for Alto {
    fn dims(&self) -> &[usize] {
        &self.dims
    }

    fn name(&self) -> String {
        "alto-baseline".into()
    }

    fn sweep_order(&self) -> Vec<usize> {
        (0..self.dims.len()).collect()
    }

    fn norm_sq(&self) -> f64 {
        self.norm_sq
    }

    fn mttkrp(&mut self, factors: &[Mat], mode: usize) -> Mat {
        assert_eq!(factors.len(), self.dims.len());
        let n_out = self.dims[mode];
        match &self.store {
            Store::Narrow(s) => s.mttkrp(factors, mode, self.rank, self.nthreads, n_out, &self.exec),
            Store::Wide(s) => s.mttkrp(factors, mode, self.rank, self.nthreads, n_out, &self.exec),
        }
    }

    fn executor(&self) -> &Executor {
        &self.exec
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
            t.push(&coord, ((x >> 40) % 9) as f64 * 0.3 + 0.4);
        }
        t.sort_dedup();
        t
    }

    fn rand_factors(dims: &[usize], r: usize, seed: u64) -> Vec<Mat> {
        let mut x = seed | 1;
        dims.iter()
            .map(|&n| {
                Mat::from_fn(n, r, |_, _| {
                    x = x
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    ((x >> 35) % 1000) as f64 / 500.0 - 1.0
                })
            })
            .collect()
    }

    #[test]
    fn encode_decode_round_trips() {
        let dims = vec![100usize, 7, 1000, 3];
        let t = pseudo_tensor(&dims, 500, 1);
        let alto = Alto::prepare(&t, 2, 2, &Executor::new(2));
        assert!(!alto.is_wide());
        let mut dedup = t.clone();
        dedup.sort_dedup();
        for e in (0..alto.nnz()).step_by(17) {
            let coord: Vec<u32> = (0..dims.len())
                .map(|m| alto.decode_entry(e, m) as u32)
                .collect();
            let expect = dedup.get(&coord);
            assert_ne!(expect, 0.0, "decoded coord {coord:?} not in tensor");
        }
    }

    #[test]
    fn matches_reference_all_modes() {
        for dims in [vec![14usize, 9, 11], vec![7, 6, 9, 5], vec![4, 5, 6, 4, 5]] {
            let t = pseudo_tensor(&dims, 600, 2);
            let mut engine = Alto::prepare(&t, 4, 3, &Executor::new(2));
            let factors = rand_factors(&dims, 4, 3);
            for mode in 0..dims.len() {
                let got = engine.mttkrp(&factors, mode);
                linalg::assert_mat_approx_eq(&got, &t.mttkrp_reference(&factors, mode), 1e-9);
            }
        }
    }

    #[test]
    fn wide_variant_kicks_in_and_matches_reference() {
        // 5 modes × 2^20 = 100 bits > 64 -> the 128-bit variant.
        let dims = vec![1 << 20, 1 << 20, 1 << 20, 1 << 20, 1 << 20];
        let t = pseudo_tensor(&dims, 300, 4);
        let mut engine = Alto::prepare(&t, 3, 2, &Executor::new(2));
        assert!(engine.is_wide());
        let factors = rand_factors(&dims, 3, 5);
        for mode in 0..5 {
            let got = engine.mttkrp(&factors, mode);
            linalg::assert_mat_approx_eq(&got, &t.mttkrp_reference(&factors, mode), 1e-9);
        }
    }

    #[test]
    fn wide_costs_twice_the_index_memory() {
        let narrow = Alto::prepare(&pseudo_tensor(&[32, 32, 32], 400, 6), 2, 1, &Executor::new(2));
        assert!(!narrow.is_wide());
        let wide = Alto::prepare(
            &pseudo_tensor(&[1 << 22, 1 << 22, 1 << 22, 1 << 22], 400, 6),
            2,
            1,
            &Executor::new(2),
        );
        assert!(wide.is_wide());
        // Per-nnz: narrow 8+8 bytes, wide 16+8.
        let per_narrow = narrow.memory_bytes() as f64 / narrow.nnz() as f64;
        let per_wide = wide.memory_bytes() as f64 / wide.nnz() as f64;
        assert_eq!(per_narrow, 16.0);
        assert_eq!(per_wide, 24.0);
    }

    #[test]
    #[should_panic(expected = "128-bit variant")]
    fn rejects_index_space_beyond_128_bits() {
        // 5 modes × 2^30 = 150 bits.
        let mut t = CooTensor::new(vec![1 << 30; 5]);
        t.push(&[0, 0, 0, 0, 0], 1.0);
        let _ = Alto::prepare(&t, 2, 1, &Executor::new(2));
    }

    #[test]
    fn single_thread_matches_many_threads() {
        let t = pseudo_tensor(&[20, 20, 20], 800, 5);
        let factors = rand_factors(t.dims(), 3, 6);
        let mut e1 = Alto::prepare(&t, 3, 1, &Executor::new(2));
        let mut e8 = Alto::prepare(&t, 3, 8, &Executor::new(2));
        for mode in 0..3 {
            linalg::assert_mat_approx_eq(
                &e1.mttkrp(&factors, mode),
                &e8.mttkrp(&factors, mode),
                1e-12,
            );
        }
    }

    #[test]
    fn duplicate_entries_merge_during_the_gather() {
        // prepare no longer clones + sort_dedups the tensor; duplicates
        // must still collapse (summed) via equal linearized indices.
        let mut t = CooTensor::new(vec![8, 8, 8]);
        t.push(&[1, 2, 3], 1.5);
        t.push(&[4, 5, 6], 2.0);
        t.push(&[1, 2, 3], 0.5);
        let mut engine = Alto::prepare(&t, 2, 1, &Executor::new(2));
        assert_eq!(engine.nnz(), 2);
        let mut dedup = t.clone();
        dedup.sort_dedup();
        let factors = rand_factors(&[8, 8, 8], 2, 9);
        for mode in 0..3 {
            linalg::assert_mat_approx_eq(
                &engine.mttkrp(&factors, mode),
                &dedup.mttkrp_reference(&factors, mode),
                1e-12,
            );
        }
    }

    #[test]
    fn linear_indices_are_sorted_and_unique() {
        let t = pseudo_tensor(&[30, 30, 30], 1000, 4);
        let alto = Alto::prepare(&t, 2, 2, &Executor::new(2));
        match &alto.store {
            Store::Narrow(s) => assert!(s.lin.windows(2).all(|w| w[0] < w[1])),
            Store::Wide(_) => panic!("should be narrow"),
        }
    }
}
