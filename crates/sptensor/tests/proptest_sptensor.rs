//! Property-based tests for the sparse tensor substrate.

use proptest::collection::vec as pvec;
use proptest::prelude::*;
use std::collections::BTreeMap;
use stef_sptensor::keysort::bits_for;
use stef_sptensor::reorder::{lexi_order, mean_index_jump};
use stef_sptensor::swapcount::count_fibers_swapped_reference;
use stef_sptensor::{
    build_csf, count_fibers_if_last_two_swapped, inverse_permutation, sort_modes_by_length,
    CooTensor, Csf, LevelSort, TensorStats,
};

fn arb_tensor() -> impl Strategy<Value = CooTensor> {
    (2usize..=5)
        .prop_flat_map(|d| (pvec(2usize..=10, d..=d), pvec(any::<u64>(), 1..=150)))
        .prop_map(|(dims, seeds)| {
            let mut t = CooTensor::new(dims.clone());
            let mut coord = vec![0u32; dims.len()];
            for (k, &s) in seeds.iter().enumerate() {
                let mut x = s | 1;
                for (c, &dim) in coord.iter_mut().zip(&dims) {
                    x = x
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    *c = ((x >> 33) % dim as u64) as u32;
                }
                t.push(&coord, (k % 13) as f64 + 0.5);
            }
            t.sort_dedup();
            t
        })
        .prop_filter("non-empty", |t| t.nnz() > 0)
}

fn lcg(x: &mut u64) -> u64 {
    *x = x
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *x >> 11
}

/// Packed key widths (coordinate bits plus index bits) the sort must
/// cover: a `u64` record, a `u128` record, and the comparison fallback.
const WIDTH_CLASSES: [&str; 3] = ["<=64", "65-128", ">128"];

/// `n` entries in input order that is neither sorted nor deduplicated:
/// each mode draws from 3 coordinates, so duplicates are common, and
/// values of mixed magnitude make a duplicate's sum depend on its order.
/// Mode lengths put the packed key in `WIDTH_CLASSES[class]`.
fn keyed_tensor(class: usize, seed: u64, n: usize) -> CooTensor {
    let mut x = seed | 1;
    let d = if class == 2 {
        5
    } else {
        3 + (lcg(&mut x) % 2) as usize
    };
    let dims: Vec<usize> = (0..d)
        .map(|_| match class {
            0 => 2 + (lcg(&mut x) % 300) as usize,
            1 => (1 << 22) + (lcg(&mut x) % (1 << 22)) as usize,
            _ => (1 << 30) + (lcg(&mut x) % (1 << 30)) as usize,
        })
        .collect();
    let pools: Vec<[u32; 3]> = dims
        .iter()
        .map(|&n| [0, 1, 2].map(|_| (lcg(&mut x) % n as u64) as u32))
        .collect();
    let mut t = CooTensor::new(dims);
    let mut coord = vec![0u32; d];
    for _ in 0..n {
        for (c, pool) in coord.iter_mut().zip(&pools) {
            *c = pool[(lcg(&mut x) % 3) as usize];
        }
        let v = (lcg(&mut x) % 1000) as f64 * 10f64.powi((lcg(&mut x) % 9) as i32 - 4) + 0.1;
        t.push(&coord, v);
    }
    t
}

fn key_bits(t: &CooTensor) -> u32 {
    t.dims().iter().map(|&n| bits_for(n)).sum::<u32>() + bits_for(t.nnz())
}

fn random_order(d: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..d).collect();
    let mut x = seed | 1;
    for i in (1..d).rev() {
        order.swap(i, (lcg(&mut x) % (i as u64 + 1)) as usize);
    }
    order
}

/// Distinct coordinates in `order`'s level order, in lexicographic
/// order, each with its values summed in input order.
fn oracle(t: &CooTensor, order: &[usize]) -> Vec<(Vec<u32>, u64)> {
    let mut sums: BTreeMap<Vec<u32>, f64> = BTreeMap::new();
    for e in 0..t.nnz() {
        let key = order.iter().map(|&m| t.indices()[m][e]).collect();
        let v = t.values()[e];
        sums.entry(key).and_modify(|s| *s += v).or_insert(v);
    }
    sums.into_iter().map(|(k, v)| (k, v.to_bits())).collect()
}

fn leaves(csf: &Csf) -> Vec<(Vec<u32>, u64)> {
    let mut out = Vec::new();
    csf.for_each_leaf(|c, v| out.push((c.to_vec(), v.to_bits())));
    out
}

fn assert_same_csf(a: &Csf, b: &Csf) {
    assert_eq!(a.mode_order(), b.mode_order());
    assert_eq!(a.level_dims(), b.level_dims());
    for l in 0..a.ndim() {
        assert_eq!(a.fids(l), b.fids(l), "fids at level {l}");
    }
    for l in 0..a.ndim() - 1 {
        assert_eq!(a.ptr(l), b.ptr(l), "ptr at level {l}");
    }
    let bits = |c: &Csf| c.vals().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(a), bits(b));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn build_csf_equals_a_btreemap_oracle_at_every_key_width(
        class in 0usize..3, seed in any::<u64>(), n in 1usize..=300, order_seed in any::<u64>()
    ) {
        let t = keyed_tensor(class, seed, n);
        let bits = key_bits(&t);
        let in_class = match class { 0 => bits <= 64, 1 => (65..=128).contains(&bits), _ => bits > 128 };
        prop_assert!(in_class, "{} key bits outside {}", bits, WIDTH_CLASSES[class]);
        let order = random_order(t.ndim(), order_seed);
        let csf = build_csf(&t, &order);
        prop_assert_eq!(leaves(&csf), oracle(&t, &order));
    }

    #[test]
    fn swapped_rebuild_equals_build_csf_in_the_swapped_order(
        class in 0usize..3, seed in any::<u64>(), n in 1usize..=300, order_seed in any::<u64>()
    ) {
        let t = keyed_tensor(class, seed, n);
        let order = random_order(t.ndim(), order_seed);
        let mut levels = LevelSort::new(&t, &order);
        levels.swap_last_two();
        let mut swapped = order.clone();
        let d = swapped.len();
        swapped.swap(d - 2, d - 1);
        assert_same_csf(&levels.build(), &build_csf(&t, &swapped));
    }

    #[test]
    fn fiber_counts_from_the_keys_match_the_built_csf(
        class in 0usize..3, seed in any::<u64>(), n in 1usize..=300, order_seed in any::<u64>()
    ) {
        let t = keyed_tensor(class, seed, n);
        let order = random_order(t.ndim(), order_seed);
        let counts = LevelSort::new(&t, &order).fiber_counts();
        prop_assert_eq!(&counts.levels, &build_csf(&t, &order).fiber_counts());
        // The swapped CSF itself: `count_fibers_if_last_two_swapped`'s
        // marker buffer is as long as the leaf mode (2^30 here).
        prop_assert_eq!(counts.swapped, count_fibers_swapped_reference(&t, &order));
    }

    #[test]
    fn csf_preserves_value_sum_any_order(t in arb_tensor()) {
        let order = sort_modes_by_length(t.dims());
        let csf = build_csf(&t, &order);
        let sum_coo: f64 = t.values().iter().sum();
        let sum_csf: f64 = csf.vals().iter().sum();
        prop_assert!((sum_coo - sum_csf).abs() < 1e-9);
        prop_assert_eq!(csf.nnz(), t.nnz());
    }

    #[test]
    fn fiber_counts_are_monotone_down_the_tree(t in arb_tensor()) {
        let csf = build_csf(&t, &sort_modes_by_length(t.dims()));
        let counts = csf.fiber_counts();
        for w in counts.windows(2) {
            prop_assert!(w[0] <= w[1], "fiber counts must not shrink: {counts:?}");
        }
        prop_assert_eq!(*counts.last().unwrap(), t.nnz());
    }

    #[test]
    fn leaf_ranges_partition_the_leaves(t in arb_tensor()) {
        let csf = build_csf(&t, &sort_modes_by_length(t.dims()));
        for level in 0..csf.ndim() {
            let mut covered = 0usize;
            let mut prev_end = 0usize;
            for i in 0..csf.nfibers(level) {
                let (lo, hi) = csf.leaf_range(level, i);
                prop_assert_eq!(lo, prev_end, "gap before node {} at level {}", i, level);
                prop_assert!(hi > lo, "empty subtree");
                covered += hi - lo;
                prev_end = hi;
            }
            prop_assert_eq!(covered, csf.nnz());
        }
    }

    #[test]
    fn swapcount_bounded_by_structure(t in arb_tensor()) {
        let csf = build_csf(&t, &sort_modes_by_length(t.dims()));
        let d = csf.ndim();
        let swapped = count_fibers_if_last_two_swapped(&csf);
        // At least one fiber per level-(d-3) node (or 1 for d == 2),
        // at most nnz.
        prop_assert!(swapped <= csf.nnz());
        if d >= 3 {
            prop_assert!(swapped >= csf.nfibers(d - 3));
        } else {
            prop_assert!(swapped >= 1);
        }
    }

    #[test]
    fn permutation_inverse_composes_to_identity(t in arb_tensor(), seed in any::<u64>()) {
        let d = t.ndim();
        let mut perm: Vec<usize> = (0..d).collect();
        let mut x = seed | 1;
        for i in (1..d).rev() {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            perm.swap(i, ((x >> 33) % (i as u64 + 1)) as usize);
        }
        let p = t.permute_modes(&perm);
        let back = p.permute_modes(&inverse_permutation(&perm));
        prop_assert_eq!(back.dims(), t.dims());
        for e in 0..t.nnz() {
            prop_assert_eq!(back.coord(e), t.coord(e));
        }
    }

    #[test]
    fn stats_are_consistent(t in arb_tensor()) {
        let stats = TensorStats::from_coo(&t);
        prop_assert_eq!(stats.nnz, t.nnz());
        prop_assert!(stats.root_slices >= 1);
        prop_assert!(stats.slice_imbalance >= 1.0 - 1e-12);
        prop_assert_eq!(stats.fiber_counts.len(), t.ndim());
    }

    #[test]
    fn lexi_order_preserves_structure_constants(t in arb_tensor()) {
        let (reordered, _) = lexi_order(&t, 1);
        prop_assert_eq!(reordered.nnz(), t.nnz());
        prop_assert!((reordered.norm_sq() - t.norm_sq()).abs() < 1e-9);
        let order = sort_modes_by_length(t.dims());
        let a = build_csf(&t, &order).fiber_counts();
        let b = build_csf(&reordered, &order).fiber_counts();
        prop_assert_eq!(a, b);
    }

    #[test]
    fn tns_io_round_trips(t in arb_tensor()) {
        let mut buf = Vec::new();
        stef_sptensor::io::write_tns(&t, &mut buf).unwrap();
        let mut back = stef_sptensor::io::read_tns(buf.as_slice()).unwrap();
        back.sort_dedup();
        let mut orig = t.clone();
        orig.sort_dedup();
        prop_assert_eq!(back.nnz(), orig.nnz());
        for e in 0..orig.nnz() {
            prop_assert_eq!(back.coord(e), orig.coord(e));
            prop_assert!((back.values()[e] - orig.values()[e]).abs() < 1e-9);
        }
    }

    #[test]
    fn mean_index_jump_is_nonnegative_and_bounded(t in arb_tensor()) {
        for (m, j) in mean_index_jump(&t).into_iter().enumerate() {
            prop_assert!(j >= 0.0);
            prop_assert!(j <= t.dims()[m] as f64);
        }
    }
}
