//! Bit-interleaved linearized tensor format (ALTO-style).
//!
//! Each non-zero's coordinate tuple is packed into a single integer by
//! interleaving the coordinate bits round-robin, least-significant bit
//! first, across the modes that still have bits left. Sorting non-zeros
//! by that linearized index yields an order with good locality in
//! *every* mode simultaneously — short modes exhaust their bits early,
//! so nearby linearized indices share high-order coordinate bits in all
//! modes. That is the property that lets a mode-agnostic flat kernel
//! compete with CSF on irregular and hyper-sparse tensors, where CSF's
//! per-fiber reuse collapses to one non-zero per fiber.
//!
//! Delinearization is mask extraction: mode `m`'s coordinate bits live
//! at a fixed (ascending) set of global bit positions, recorded both as
//! a position list (portable decode) and as a pair of 64-bit masks
//! (`pext`-ready fast path on x86). Tensors whose total coordinate bits
//! fit in 64 use a `u64` index array; up to 128 bits uses `u128`;
//! beyond that construction fails with the required bit count so the
//! caller can fall back to CSF.

use crate::coo::CooTensor;
use crate::keysort::{self, Cursor, Word, WordKeys};
use crate::with_cursor;

/// Per-mode bit-extraction masks over the (lo, hi) halves of the
/// linearized index. `mask_lo` covers global bits `0..64`, `mask_hi`
/// bits `64..128` (shifted down by 64). A mode's coordinate is
/// `pext(lo, mask_lo) | pext(hi, mask_hi) << lo_bits` — positions are
/// assigned in ascending order, so parallel bit extraction recovers the
/// coordinate directly.
#[derive(Clone, Copy, Debug, Default)]
pub struct ModeMask {
    /// Extraction mask over bits 0..64 of the linearized index.
    pub mask_lo: u64,
    /// Extraction mask over bits 64..128 (as a shifted-down u64).
    pub mask_hi: u64,
    /// Number of this mode's bits that live in the low half
    /// (`mask_lo.count_ones()`).
    pub lo_bits: u32,
}

/// The linearized index array: `u64` when all coordinate bits fit in
/// 64, `u128` up to 128.
#[derive(Clone, Debug)]
pub enum LinStore {
    /// Total coordinate bits <= 64.
    Narrow(Vec<u64>),
    /// Total coordinate bits in 65..=128.
    Wide(Vec<u128>),
}

/// A linearized index word. Implemented for `u64` and `u128`; kernels
/// are generic over this so the narrow path never touches 128-bit
/// arithmetic.
pub trait LinIndex: Copy + Send + Sync {
    /// Bits 0..64 of the index.
    fn lo(self) -> u64;
    /// Bits 64..128 of the index (zero for `u64`).
    fn hi(self) -> u64;
    /// Portable decode: gather the bits at `positions` (ascending
    /// global bit numbers) into a coordinate.
    fn decode_mode(self, positions: &[u32]) -> u32;
}

impl LinIndex for u64 {
    #[inline(always)]
    fn lo(self) -> u64 {
        self
    }
    #[inline(always)]
    fn hi(self) -> u64 {
        0
    }
    #[inline(always)]
    fn decode_mode(self, positions: &[u32]) -> u32 {
        let mut c = 0u32;
        for (j, &p) in positions.iter().enumerate() {
            c |= (((self >> p) & 1) as u32) << j;
        }
        c
    }
}

impl LinIndex for u128 {
    #[inline(always)]
    fn lo(self) -> u64 {
        self as u64
    }
    #[inline(always)]
    fn hi(self) -> u64 {
        (self >> 64) as u64
    }
    #[inline(always)]
    fn decode_mode(self, positions: &[u32]) -> u32 {
        let mut c = 0u32;
        for (j, &p) in positions.iter().enumerate() {
            c |= (((self >> p) & 1) as u32) << j;
        }
        c
    }
}

/// A tensor in sorted linearized form: one packed index plus one value
/// per non-zero, in ascending linearized order.
#[derive(Clone, Debug)]
pub struct Linearized {
    dims: Vec<usize>,
    /// `positions[m]` = ascending global bit positions of mode `m`'s
    /// coordinate bits (bit `j` of the coordinate lives at global bit
    /// `positions[m][j]`).
    positions: Vec<Vec<u32>>,
    masks: Vec<ModeMask>,
    total_bits: u32,
    store: LinStore,
    vals: Vec<f64>,
}

/// Bits needed to represent coordinates `0..n` (at least 1).
#[inline]
fn mode_bits(n: usize) -> u32 {
    (usize::BITS - (n - 1).max(1).leading_zeros()).max(1)
}

/// Total interleaved index bits a tensor with these mode lengths needs —
/// the cheap eligibility probe (> 128 means [`Linearized::build`] would
/// fail) that engine selection runs before committing to a sort.
pub fn index_bits_for(dims: &[usize]) -> u32 {
    dims.iter().map(|&n| mode_bits(n)).sum()
}

/// Encodes every non-zero's interleaved key in a `W`, sorts the keys
/// stably ([`keysort`]) and gathers keys and values in that order.
fn sorted_by_key<W: Word>(t: &CooTensor, positions: &[Vec<u32>], bits: u32) -> (Vec<W>, Vec<f64>) {
    let mut keys = vec![W::ZERO; t.nnz()];
    for (col, ps) in t.indices().iter().zip(positions) {
        for (key, &c) in keys.iter_mut().zip(col) {
            let mut c = c as u64;
            for &p in ps {
                *key = key.or(W::from_u64(c & 1).shl(p));
                c >>= 1;
            }
        }
    }
    let keys = WordKeys::new(&keys, bits);
    let sorted = keysort::sort(&keys);
    let src_vals = t.values();
    with_cursor!(sorted.view(&keys), |c| {
        let lin = (0..c.len()).map(|i| keys.join(|f| c.field(i, f))).collect();
        let vals = (0..c.len()).map(|i| src_vals[c.src(i)]).collect();
        (lin, vals)
    })
}

impl Linearized {
    /// Builds the sorted linearized form of `t`. Duplicate coordinates,
    /// if present, stay adjacent after the sort and simply sum during
    /// MTTKRP. Fails with the required bit count when the interleaved
    /// index would exceed 128 bits.
    ///
    /// Construction works in flat buffers: one key per non-zero, in the
    /// narrowest word that holds it, stably sorted with its index by
    /// [`crate::keysort`] (so duplicates stay in input order), then one
    /// gather of keys and values.
    pub fn build(t: &CooTensor) -> Result<Linearized, u32> {
        let d = t.ndim();
        let dims = t.dims().to_vec();
        let bits: Vec<u32> = dims.iter().map(|&n| mode_bits(n)).collect();
        let total_bits: u32 = bits.iter().sum();
        if total_bits > 128 {
            return Err(total_bits);
        }

        // Round-robin LSB-up position assignment: walk bit levels and
        // hand the next global bit to each mode that still has
        // coordinate bits left at that level.
        let mut positions: Vec<Vec<u32>> = bits.iter().map(|&b| Vec::with_capacity(b as usize)).collect();
        let mut next = 0u32;
        let max_level = bits.iter().copied().max().unwrap_or(0);
        for level in 0..max_level {
            for m in 0..d {
                if level < bits[m] {
                    positions[m].push(next);
                    next += 1;
                }
            }
        }
        debug_assert_eq!(next, total_bits);

        let masks: Vec<ModeMask> = positions
            .iter()
            .map(|ps| {
                let mut mask_lo = 0u64;
                let mut mask_hi = 0u64;
                for &p in ps {
                    if p < 64 {
                        mask_lo |= 1u64 << p;
                    } else {
                        mask_hi |= 1u64 << (p - 64);
                    }
                }
                ModeMask {
                    mask_lo,
                    mask_hi,
                    lo_bits: mask_lo.count_ones(),
                }
            })
            .collect();

        let (store, vals) = if total_bits <= 64 {
            let (lin, vals) = sorted_by_key::<u64>(t, &positions, total_bits);
            (LinStore::Narrow(lin), vals)
        } else {
            let (lin, vals) = sorted_by_key::<u128>(t, &positions, total_bits);
            (LinStore::Wide(lin), vals)
        };

        Ok(Linearized {
            dims,
            positions,
            masks,
            total_bits,
            store,
            vals,
        })
    }

    /// Mode lengths.
    #[inline]
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Number of modes.
    #[inline]
    pub fn ndim(&self) -> usize {
        self.dims.len()
    }

    /// Number of stored non-zeros.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.vals.len()
    }

    /// Total interleaved coordinate bits.
    #[inline]
    pub fn total_bits(&self) -> u32 {
        self.total_bits
    }

    /// Index elements per non-zero in the paper's traffic-unit
    /// convention (1 for a `u64` store, 2 for `u128`).
    #[inline]
    pub fn index_elems(&self) -> usize {
        match self.store {
            LinStore::Narrow(_) => 1,
            LinStore::Wide(_) => 2,
        }
    }

    /// The index store.
    #[inline]
    pub fn store(&self) -> &LinStore {
        &self.store
    }

    /// The narrow (`u64`) index array, if this tensor fits in 64 bits.
    #[inline]
    pub fn narrow(&self) -> Option<&[u64]> {
        match &self.store {
            LinStore::Narrow(v) => Some(v),
            LinStore::Wide(_) => None,
        }
    }

    /// The wide (`u128`) index array, if this tensor needs 65..=128 bits.
    #[inline]
    pub fn wide(&self) -> Option<&[u128]> {
        match &self.store {
            LinStore::Wide(v) => Some(v),
            LinStore::Narrow(_) => None,
        }
    }

    /// Values in linearized order.
    #[inline]
    pub fn vals(&self) -> &[f64] {
        &self.vals
    }

    /// Per-mode extraction masks.
    #[inline]
    pub fn masks(&self) -> &[ModeMask] {
        &self.masks
    }

    /// Ascending global bit positions of mode `m`'s coordinate bits.
    #[inline]
    pub fn positions(&self, m: usize) -> &[u32] {
        &self.positions[m]
    }

    /// Heap footprint of the index + value arrays in bytes.
    pub fn memory_bytes(&self) -> usize {
        let idx = match &self.store {
            LinStore::Narrow(v) => v.len() * 8,
            LinStore::Wide(v) => v.len() * 16,
        };
        idx + self.vals.len() * 8
    }

    /// Decodes the mode-`m` coordinate of non-zero `e` (slow portable
    /// path, for tests and diagnostics).
    pub fn decode(&self, e: usize, m: usize) -> u32 {
        match &self.store {
            LinStore::Narrow(v) => v[e].decode_mode(&self.positions[m]),
            LinStore::Wide(v) => v[e].decode_mode(&self.positions[m]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pseudo(dims: &[usize], nnz: usize, seed: u64) -> CooTensor {
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
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            t.push(&coord, ((x >> 40) % 9) as f64 * 0.3 + 0.4);
        }
        t.sort_dedup();
        t
    }

    #[test]
    fn round_trips_every_coordinate() {
        for dims in [vec![7usize, 50, 31], vec![3, 3, 3, 3], vec![1000, 2, 90000]] {
            let t = pseudo(&dims, 300, 42);
            let lin = Linearized::build(&t).unwrap();
            assert_eq!(lin.nnz(), t.nnz());
            // Decoded coordinate multiset must equal the source multiset:
            // check via sorted (coords, value) pairs.
            let mut got: Vec<(Vec<u32>, u64)> = (0..lin.nnz())
                .map(|e| {
                    (
                        (0..dims.len()).map(|m| lin.decode(e, m)).collect(),
                        lin.vals()[e].to_bits(),
                    )
                })
                .collect();
            let mut want: Vec<(Vec<u32>, u64)> = (0..t.nnz())
                .map(|e| {
                    (
                        (0..dims.len()).map(|m| t.indices()[m][e]).collect(),
                        t.values()[e].to_bits(),
                    )
                })
                .collect();
            got.sort();
            want.sort();
            assert_eq!(got, want);
        }
    }

    #[test]
    fn indices_are_sorted_ascending() {
        let t = pseudo(&[40, 70, 60], 500, 7);
        let lin = Linearized::build(&t).unwrap();
        let v = lin.narrow().unwrap();
        assert!(v.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn masks_partition_the_index_bits() {
        let t = pseudo(&[100, 9, 5000, 17], 200, 3);
        let lin = Linearized::build(&t).unwrap();
        let mut seen_lo = 0u64;
        let mut seen_hi = 0u64;
        let mut total = 0;
        for mk in lin.masks() {
            assert_eq!(seen_lo & mk.mask_lo, 0, "overlapping masks");
            assert_eq!(seen_hi & mk.mask_hi, 0, "overlapping masks");
            seen_lo |= mk.mask_lo;
            seen_hi |= mk.mask_hi;
            total += mk.mask_lo.count_ones() + mk.mask_hi.count_ones();
            assert_eq!(mk.lo_bits, mk.mask_lo.count_ones());
        }
        assert_eq!(total, lin.total_bits());
        // Contiguous from bit 0.
        assert_eq!(seen_lo, (1u64 << lin.total_bits()) - 1);
        assert_eq!(seen_hi, 0);
    }

    #[test]
    fn wide_store_kicks_in_past_64_bits() {
        // 3 modes x 30 bits = 90 bits total.
        let dims = vec![1usize << 30, 1 << 30, 1 << 30];
        let mut t = CooTensor::new(dims.clone());
        let mut x = 9u64;
        let mut coord = [0u32; 3];
        for _ in 0..200 {
            for c in coord.iter_mut() {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                *c = ((x >> 33) % (1u64 << 30)) as u32;
            }
            t.push(&coord, 1.5);
        }
        t.sort_dedup();
        let lin = Linearized::build(&t).unwrap();
        assert_eq!(lin.total_bits(), 90);
        assert_eq!(lin.index_elems(), 2);
        let v = lin.wide().unwrap();
        assert!(v.windows(2).all(|w| w[0] <= w[1]));
        for e in 0..lin.nnz() {
            for m in 0..3 {
                assert!((lin.decode(e, m) as usize) < dims[m]);
            }
        }
        // hi-half masks are populated.
        assert!(lin.masks().iter().any(|mk| mk.mask_hi != 0));
    }

    #[test]
    fn over_128_bits_is_an_error() {
        // 5 modes x 31 bits = 155 bits.
        let dims = vec![1usize << 31; 5];
        let mut t = CooTensor::new(dims);
        t.push(&[1, 2, 3, 4, 5], 1.0);
        assert!(matches!(Linearized::build(&t), Err(155)));
    }

    #[test]
    fn singleton_modes_are_fine() {
        let t = pseudo(&[1, 8, 1, 12], 40, 11);
        let lin = Linearized::build(&t).unwrap();
        for e in 0..lin.nnz() {
            assert_eq!(lin.decode(e, 0), 0);
            assert_eq!(lin.decode(e, 2), 0);
        }
    }

    #[test]
    fn memory_is_index_plus_values() {
        let t = pseudo(&[20, 20, 20], 100, 1);
        let lin = Linearized::build(&t).unwrap();
        assert_eq!(lin.memory_bytes(), lin.nnz() * 16);
    }
}
