//! Storage for memoized partial MTTKRP results `P^(i)`.
//!
//! A memoized level `i` stores one length-`R` row per CSF node at that
//! level — the `t_i` vector of Algorithm 5 — plus `T` extra rows for
//! boundary replication (§II-D): thread `th` writes node `idx`'s row at
//! position `idx + th`. Because threads own increasing node ranges, the
//! shifted positions of two different (thread, node) pairs can never
//! collide, and a boundary node split between threads `th` and `th+1`
//! lands in two distinct rows whose *sum* is the true partial result.
//! Consumers run under the same schedule and read back exactly the rows
//! they wrote, so no reduction pass is ever needed.

use crate::sync::SharedRows;
use sptensor::Csf;

/// Buffers for every memoized level of one CSF.
pub struct PartialStore {
    rank: usize,
    nthreads: usize,
    /// `bufs[level]` is `Some` iff `P^(level)` is memoized; row count is
    /// `nfibers(level) + nthreads`.
    bufs: Vec<Option<Vec<f64>>>,
    /// Copy of the save flags for cheap queries.
    save: Vec<bool>,
}

impl PartialStore {
    /// Allocates buffers for the levels flagged in `save`.
    ///
    /// # Panics
    /// Panics if `save` flags the root (`0`) or the leaf (`d-1`) level:
    /// `P^(0)` *is* the mode-0 output and `P^(d-1)` is the tensor itself.
    pub fn allocate(csf: &Csf, save: &[bool], nthreads: usize, rank: usize) -> Self {
        match Self::try_allocate(csf, save, nthreads, rank) {
            Ok(store) => store,
            Err(bytes) => panic!("partial-store allocation of {bytes} bytes failed"),
        }
    }

    /// Fallible [`PartialStore::allocate`]: asks the allocator for each
    /// arena up front (`try_reserve`) and reports the failing request in
    /// bytes instead of aborting on OOM — the memory-budget machinery's
    /// last line of defense when the budget was set above what the
    /// machine can actually provide.
    pub fn try_allocate(
        csf: &Csf,
        save: &[bool],
        nthreads: usize,
        rank: usize,
    ) -> Result<Self, usize> {
        let d = csf.ndim();
        assert_eq!(save.len(), d);
        assert!(
            !save[0],
            "P^(0) is the mode-0 output, not a memoized partial"
        );
        assert!(!save[d - 1], "P^(d-1) is the tensor itself");
        let mut bufs = Vec::with_capacity(d);
        for (l, &s) in save.iter().enumerate() {
            if !s {
                bufs.push(None);
                continue;
            }
            let len = (csf.nfibers(l) + nthreads) * rank;
            // Probe with try_reserve for the typed-OOM contract, then
            // allocate fresh: `vec![0.0; len]` goes through
            // `alloc_zeroed`, whose lazily-mapped zero pages first-touch
            // on whichever worker writes them during the mode-0 pass —
            // NUMA-local placement — where `resize` on this (dispatching)
            // thread would fault every page onto its own node.
            let mut probe: Vec<f64> = Vec::new();
            probe
                .try_reserve_exact(len)
                .map_err(|_| len * std::mem::size_of::<f64>())?;
            drop(probe);
            bufs.push(Some(vec![0.0; len]));
        }
        Ok(PartialStore {
            rank,
            nthreads,
            bufs,
            save: save.to_vec(),
        })
    }

    /// An empty store (no level memoized) — used by the save-none
    /// configurations and the baselines.
    pub fn empty(d: usize, nthreads: usize, rank: usize) -> Self {
        PartialStore {
            rank,
            nthreads,
            bufs: (0..d).map(|_| None).collect(),
            save: vec![false; d],
        }
    }

    /// Whether level `l` is memoized.
    #[inline]
    pub fn is_saved(&self, l: usize) -> bool {
        self.save[l]
    }

    /// The save flags.
    #[inline]
    pub fn save_flags(&self) -> &[bool] {
        &self.save
    }

    /// Rank `R`.
    #[inline]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Thread count the row shifts were sized for.
    #[inline]
    pub fn nthreads(&self) -> usize {
        self.nthreads
    }

    /// Total bytes held by memoized buffers — the "Size of stored partial
    /// MTTKRP" column of the paper's Table II.
    pub fn bytes(&self) -> usize {
        self.bufs
            .iter()
            .flatten()
            .map(|b| b.len() * std::mem::size_of::<f64>())
            .sum()
    }

    /// Shared-row views for the kernels, one entry per level (`None`
    /// where not memoized). The views borrow `self` mutably, so the
    /// borrow checker serializes whole kernel invocations while the
    /// schedule guarantees row disjointness *within* one invocation.
    pub fn shared_views(&mut self) -> Vec<Option<SharedRows<'_>>> {
        let rank = self.rank;
        self.bufs
            .iter_mut()
            .map(|b| b.as_mut().map(|buf| SharedRows::new(buf, rank)))
            .collect()
    }

    /// **Fault-injection support**: fills every allocated buffer with
    /// `value` (typically NaN or Inf), simulating in-memory corruption of
    /// the memoized `P^(i)`. The store itself stays structurally valid —
    /// only the numbers are poisoned — which is exactly what a bad DIMM
    /// or a racing writer produces.
    pub fn poison_for_test(&mut self, value: f64) {
        for buf in self.bufs.iter_mut().flatten() {
            buf.fill(value);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::Schedule;
    use sptensor::{build_csf, CooTensor};

    fn csf3() -> Csf {
        let mut t = CooTensor::new(vec![4, 4, 4]);
        for i in 0..4u32 {
            for j in 0..3u32 {
                t.push(&[i, j, (i + j) % 4], 1.0);
                t.push(&[i, j, (i + j + 1) % 4], 2.0);
            }
        }
        t.sort_dedup();
        build_csf(&t, &[0, 1, 2])
    }

    #[test]
    fn allocates_only_saved_levels() {
        let csf = csf3();
        let store = PartialStore::allocate(&csf, &[false, true, false], 4, 8);
        assert!(!store.is_saved(0));
        assert!(store.is_saved(1));
        assert!(!store.is_saved(2));
        // 12 level-1 fibers + 4 replicas, rank 8, f64.
        assert_eq!(store.bytes(), (12 + 4) * 8 * 8);
    }

    #[test]
    fn empty_store_has_no_bytes() {
        let store = PartialStore::empty(4, 8, 16);
        assert_eq!(store.bytes(), 0);
        assert!(!store.is_saved(2));
    }

    #[test]
    #[should_panic(expected = "mode-0 output")]
    fn rejects_saving_root() {
        let csf = csf3();
        let _ = PartialStore::allocate(&csf, &[true, false, false], 2, 4);
    }

    #[test]
    #[should_panic(expected = "tensor itself")]
    fn rejects_saving_leaf() {
        let csf = csf3();
        let _ = PartialStore::allocate(&csf, &[false, false, true], 2, 4);
    }

    #[test]
    fn shared_views_expose_saved_levels() {
        let csf = csf3();
        let mut store = PartialStore::allocate(&csf, &[false, true, false], 2, 4);
        let views = store.shared_views();
        assert!(views[0].is_none());
        assert!(views[2].is_none());
        let v1 = views[1].as_ref().unwrap();
        assert_eq!(v1.rows(), 12 + 2);
        assert_eq!(v1.row_len(), 4);
    }

    #[test]
    fn shift_by_thread_id_never_collides() {
        // Formal property exercised numerically: for any two (th, idx)
        // pairs with th < th' and idx in th's range, idx' in th''s range,
        // idx + th != idx' + th' unless both refer to the same slot.
        let csf = csf3();
        let sched = Schedule::nnz_balanced(&csf, 3);
        let level = 1;
        let mut owners: Vec<Vec<(usize, usize)>> = vec![Vec::new(); csf.nfibers(level) + 3];
        for th in 0..3 {
            let (lo, hi) = sched.clamp(th, level, 0, csf.nfibers(level));
            for idx in lo..hi {
                owners[idx + th].push((th, idx));
            }
        }
        for (slot, writers) in owners.iter().enumerate() {
            assert!(
                writers.len() <= 1,
                "slot {slot} written by multiple (thread, node) pairs: {writers:?}"
            );
        }
    }
}
