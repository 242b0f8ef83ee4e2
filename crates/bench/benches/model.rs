//! Model benchmarks: Algorithm 9 (swapped-order fiber counting) and the
//! exhaustive configuration search — the preprocessing costs behind
//! Figure 5 and the claim that the model search is effectively free.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sptensor::{build_csf, count_fibers_if_last_two_swapped_on};
use stef::{
    model::{best_memo_set, choose_plan},
    LevelProfile,
};
use workloads::power_law_tensor;

fn bench_model(c: &mut Criterion) {
    let mut group = c.benchmark_group("model");

    for (label, dims, nnz) in [
        ("3d_200k", vec![2_000usize, 5_000, 8_000], 200_000usize),
        ("4d_200k", vec![1_000, 3_000, 5_000, 64], 200_000),
        ("5d_100k", vec![500, 800, 500, 100, 89], 100_000),
    ] {
        let skews = vec![0.5; dims.len()];
        let t = power_law_tensor(&dims, nnz, &skews, 11);
        let order: Vec<usize> = (0..dims.len()).collect();
        let csf = build_csf(&t, &order);
        group.bench_with_input(BenchmarkId::new("algorithm9", label), &csf, |b, csf| {
            // On the process-wide pool (`STEF_NUM_THREADS` wide).
            b.iter(|| count_fibers_if_last_two_swapped_on(stef::runtime::global(), csf))
        });
        let base = LevelProfile::from_csf(&csf, 32, 16 << 20);
        let swapped = LevelProfile::swapped_from_csf(&csf, 32, 16 << 20);
        group.bench_with_input(
            BenchmarkId::new("config_search", label),
            &(base, swapped),
            |b, (base, swapped)| b.iter(|| choose_plan(base, swapped)),
        );
    }

    // Search scaling with dimensionality (2^(d-2) subsets).
    for d in [3usize, 5, 8] {
        let profile = LevelProfile {
            dims: (0..d).map(|i| 100 * (i + 1)).collect(),
            fibers: (0..d).map(|i| 10usize.pow(i.min(6) as u32 + 1)).collect(),
            rank: 32,
            cache_elems: 1 << 20,
        };
        group.bench_with_input(BenchmarkId::new("subset_enum", d), &profile, |b, p| {
            b.iter(|| best_memo_set(p))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_model);
criterion_main!(benches);
