//! Format-construction benchmarks: CSF build (sort + scan) vs the
//! ALTO-style linearization, and the cost of the extra CSF copies the
//! splatt-2/splatt-all/STeF2 variants pay.

use baselines::{Alto, Splatt, SplattVariant};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sptensor::{build_csf, sort_modes_by_length};
use workloads::power_law_tensor;

fn bench_formats(c: &mut Criterion) {
    let dims = [2_000usize, 5_000, 8_000];
    let t = power_law_tensor(&dims, 200_000, &[0.8, 0.5, 0.3], 21);
    let order = sort_modes_by_length(t.dims());

    let pool = stef::Executor::new(stef::runtime::resolve_workers(0));
    let mut group = c.benchmark_group("format_build");
    group.sample_size(10);

    group.bench_function("csf_single", |b| {
        b.iter(|| build_csf(&t, &order));
    });
    group.bench_function("alto_linearize", |b| {
        b.iter(|| Alto::prepare(&t, 32, 0, &pool));
    });
    group.bench_function("hicoo_blocks", |b| {
        b.iter(|| baselines::HiCoo::prepare(&t, 32, 0, &pool));
    });
    for variant in [SplattVariant::One, SplattVariant::Two, SplattVariant::All] {
        group.bench_with_input(
            BenchmarkId::new("splatt_prepare", format!("{variant:?}")),
            &variant,
            |b, &v| b.iter(|| Splatt::prepare(&t, v, 32, 0, &pool)),
        );
    }
    group.bench_function("stef_prepare_with_model", |b| {
        b.iter(|| stef::Stef::prepare(&t, stef::StefOptions::new(32)));
    });
    group.finish();
}

criterion_group!(benches, bench_formats);
criterion_main!(benches);
