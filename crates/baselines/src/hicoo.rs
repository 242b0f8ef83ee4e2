//! HiCOO-style block-compressed COO engine (Li et al., SC 2018 —
//! the format family the Lexi-Order reordering paper targets; included
//! here as an extension beyond the paper's comparison set).
//!
//! HiCOO groups non-zeros into small dense-indexable blocks: each block
//! stores its base coordinates once at full width, and every non-zero
//! inside the block stores only a narrow (here `u8`) offset per mode.
//! For tensors with locality (natural or Lexi-Order-induced), this
//! shrinks index memory well below COO and even CSF, at the price of a
//! two-level indirection during MTTKRP.
//!
//! Strategy characteristics, mirroring the original:
//!
//! * one representation serves all modes (like ALTO, unlike SPLATT-all);
//! * no memoization — every mode recomputes;
//! * parallelism over *blocks* with privatized outputs (the original
//!   uses per-thread buffers with a block partition, same effect).

use linalg::Mat;
use sptensor::keysort::{self, Cursor, Keys};
use sptensor::{with_cursor, CooTensor};
use stef::sync::SharedSlice;
use stef::{Executor, MttkrpEngine};

/// Block edge length per mode (so a block spans `2^BLOCK_BITS` indices).
const BLOCK_BITS: u32 = 7; // 128 — offsets fit u8 with headroom

/// One compressed block.
struct Block {
    /// Base coordinate of the block (element coordinates are
    /// `base[m] + offsets[m][e]`).
    base: Vec<u32>,
    /// Per-mode narrow offsets, struct-of-arrays.
    offsets: Vec<Vec<u8>>,
    vals: Vec<f64>,
}

impl Block {
    fn nnz(&self) -> usize {
        self.vals.len()
    }
}

/// HiCOO's sort key: every mode's block index, then every mode's offset
/// inside its block.
struct BlockKeys<'a> {
    cols: &'a [Vec<u32>],
    widths: Vec<u32>,
}

impl<'a> BlockKeys<'a> {
    fn new(coo: &'a CooTensor) -> Self {
        let bits: Vec<u32> = coo.dims().iter().map(|&n| keysort::bits_for(n)).collect();
        let blocks = bits.iter().map(|&b| b.saturating_sub(BLOCK_BITS));
        let offsets = bits.iter().map(|&b| b.min(BLOCK_BITS));
        BlockKeys {
            cols: coo.indices(),
            widths: blocks.chain(offsets).collect(),
        }
    }
}

impl Keys for BlockKeys<'_> {
    fn len(&self) -> usize {
        self.cols[0].len()
    }
    fn widths(&self) -> &[u32] {
        &self.widths
    }
    fn field(&self, i: usize, f: usize) -> u64 {
        let d = self.cols.len();
        if f < d {
            (self.cols[f][i] >> BLOCK_BITS) as u64
        } else {
            (self.cols[f - d][i] & ((1 << BLOCK_BITS) - 1)) as u64
        }
    }
}

/// The HiCOO-like engine.
pub struct HiCoo {
    dims: Vec<usize>,
    rank: usize,
    nthreads: usize,
    norm_sq: f64,
    blocks: Vec<Block>,
    nnz: usize,
    exec: Executor,
}

impl HiCoo {
    /// Builds the block structure from one stable sort by block, then
    /// by offset inside the block, and one scan that starts a block
    /// wherever a block index changes; duplicate coordinates end up
    /// adjacent and merge in input order. MTTKRPs fan out on `exec`.
    pub fn prepare(coo: &CooTensor, rank: usize, nthreads: usize, exec: &Executor) -> Self {
        assert!(coo.nnz() > 0, "empty tensors are not supported");
        let nthreads = if nthreads == 0 {
            stef::runtime::default_threads()
        } else {
            nthreads
        };
        let d = coo.ndim();
        let keys = BlockKeys::new(coo);
        let sorted = keysort::sort(&keys);
        let mut blocks: Vec<Block> = Vec::new();
        let mut nnz = 0;
        with_cursor!(sorted.view(&keys), |c| {
            for i in 0..c.len() {
                let diff = if i == 0 { 0 } else { c.first_diff(i) };
                let v = coo.values()[c.src(i)];
                if diff < d {
                    blocks.push(Block {
                        base: (0..d)
                            .map(|m| (c.field(i, m) as u32) << BLOCK_BITS)
                            .collect(),
                        offsets: vec![Vec::new(); d],
                        vals: Vec::new(),
                    });
                }
                let blk = blocks.last_mut().expect("the first entry opens a block");
                if diff == 2 * d {
                    *blk.vals
                        .last_mut()
                        .expect("a duplicate follows its first copy") += v;
                    continue;
                }
                for m in 0..d {
                    blk.offsets[m].push(c.field(i, d + m) as u8);
                }
                blk.vals.push(v);
                nnz += 1;
            }
        });
        HiCoo {
            dims: coo.dims().to_vec(),
            rank,
            nthreads,
            norm_sq: coo.norm_sq(),
            nnz,
            blocks,
            exec: exec.clone(),
        }
    }

    /// Number of blocks.
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Stored non-zeros.
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// Index+value bytes: block bases at 4 bytes/mode, offsets at
    /// 1 byte/mode/nnz, values 8 bytes.
    pub fn memory_bytes(&self) -> usize {
        let d = self.dims.len();
        self.blocks.len() * d * 4 + self.nnz * d + self.nnz * 8
    }
}

impl MttkrpEngine for HiCoo {
    fn dims(&self) -> &[usize] {
        &self.dims
    }

    fn name(&self) -> String {
        "hicoo".into()
    }

    fn sweep_order(&self) -> Vec<usize> {
        (0..self.dims.len()).collect()
    }

    fn norm_sq(&self) -> f64 {
        self.norm_sq
    }

    fn mttkrp(&mut self, factors: &[Mat], mode: usize) -> Mat {
        let d = self.dims.len();
        assert_eq!(factors.len(), d);
        let r = self.rank;
        let n_out = self.dims[mode];
        let nblocks = self.blocks.len();
        let chunk = nblocks.div_ceil(self.nthreads);
        let mut locals: Vec<Mat> = (0..self.nthreads).map(|_| Mat::zeros(n_out, r)).collect();
        {
            let slots = SharedSlice::new(&mut locals);
            self.exec.fanout(self.nthreads, |th| {
                // SAFETY: each logical thread owns exactly its own slot.
                let local = &mut unsafe { slots.range_mut(th, th + 1) }[0];
                let lo = (th * chunk).min(nblocks);
                let hi = ((th + 1) * chunk).min(nblocks);
                let mut scratch = vec![0.0; r];
                for blk in &self.blocks[lo..hi] {
                    for e in 0..blk.nnz() {
                        scratch.iter_mut().for_each(|s| *s = blk.vals[e]);
                        for m in 0..d {
                            if m == mode {
                                continue;
                            }
                            let idx = blk.base[m] as usize + blk.offsets[m][e] as usize;
                            for (s, &f) in scratch.iter_mut().zip(factors[m].row(idx)) {
                                *s *= f;
                            }
                        }
                        let out_idx = blk.base[mode] as usize + blk.offsets[mode][e] as usize;
                        for (o, &s) in local.row_mut(out_idx).iter_mut().zip(&scratch) {
                            *o += s;
                        }
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

    fn executor(&self) -> &Executor {
        &self.exec
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sptensor::reorder::lexi_order;

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
    fn matches_reference_all_modes() {
        for dims in [vec![300usize, 200, 150], vec![90, 80, 70, 60]] {
            let t = pseudo_tensor(&dims, 800, 1);
            let mut engine = HiCoo::prepare(&t, 3, 3, &Executor::new(2));
            let factors = rand_factors(&dims, 3, 2);
            for mode in 0..dims.len() {
                let got = engine.mttkrp(&factors, mode);
                linalg::assert_mat_approx_eq(&got, &t.mttkrp_reference(&factors, mode), 1e-9);
            }
        }
    }

    #[test]
    fn block_structure_accounts_for_every_nnz() {
        let t = pseudo_tensor(&[500, 400, 300], 2_000, 3);
        let engine = HiCoo::prepare(&t, 2, 2, &Executor::new(2));
        let total: usize = engine.blocks.iter().map(|b| b.nnz()).sum();
        assert_eq!(total, t.nnz());
        assert!(engine.num_blocks() > 1);
        // Every offset fits the block width.
        for blk in &engine.blocks {
            for m in 0..3 {
                assert!(blk.offsets[m]
                    .iter()
                    .all(|&o| (o as u32) < (1 << BLOCK_BITS)));
                assert_eq!(blk.base[m] % (1 << BLOCK_BITS), 0);
            }
        }
    }

    #[test]
    fn lexi_order_reduces_block_count() {
        // Shuffle block structure, then check that Lexi-Order re-compacts
        // it: fewer blocks = denser blocks = the win HiCOO wants.
        let mut t = CooTensor::new(vec![1024, 1024, 64]);
        let mut x = 5u64;
        let mut coord = [0u32; 3];
        // Scattered samples of an underlying 8-block structure.
        for _ in 0..3000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let b = ((x >> 12) % 8) as u32;
            coord[0] = (b * 97 + ((x >> 22) % 32) as u32 * 13) % 1024;
            coord[1] = (b * 131 + ((x >> 32) % 32) as u32 * 17) % 1024;
            coord[2] = ((x >> 42) % 64) as u32;
            t.push(&coord, 1.0);
        }
        t.sort_dedup();
        let before = HiCoo::prepare(&t, 2, 1, &Executor::new(2)).num_blocks();
        let (reordered, _) = lexi_order(&t, 2);
        let after = HiCoo::prepare(&reordered, 2, 1, &Executor::new(2)).num_blocks();
        assert!(
            after < before,
            "Lexi-Order should compact blocks: {before} -> {after}"
        );
    }

    #[test]
    fn memory_is_below_plain_coo() {
        let t = pseudo_tensor(&[200, 200, 200], 5_000, 7);
        let engine = HiCoo::prepare(&t, 2, 1, &Executor::new(2));
        // Plain COO: 3×4 bytes index + 8 value = 20 B/nnz.
        let coo_bytes = t.nnz() * (3 * 4 + 8);
        assert!(
            engine.memory_bytes() < coo_bytes * 2,
            "block structure should not blow up memory: {} vs {}",
            engine.memory_bytes(),
            coo_bytes
        );
    }

    #[test]
    fn cpd_runs_through_hicoo() {
        let t = pseudo_tensor(&[100, 90, 80], 1_000, 9);
        let mut engine = HiCoo::prepare(&t, 4, 2, &Executor::new(2));
        let opts = stef::CpdOptions {
            max_iters: 3,
            tol: 0.0,
            seed: 1,
            ..stef::CpdOptions::new(4)
        };
        let result = stef::cpd_als(&mut engine, &opts).expect("cpd run");
        assert_eq!(result.iterations, 3);
        assert!(result.fits.iter().all(|f| f.is_finite()));
    }
}
