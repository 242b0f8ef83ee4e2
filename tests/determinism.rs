//! Run-to-run determinism: with a fixed seed, CPD-ALS must produce
//! bit-identical factors, weights and fit trajectories every time — for
//! every logical thread count and every accumulation strategy. The privatized reduction sums thread copies in thread
//! order and the schedule is a pure function of the tensor, so with a
//! sequential fan-out there is no legitimate source of run-to-run
//! variation; any flake here is a data race or an ordering bug in the
//! kernels.
//!
//! When the fan-out actually runs on multiple OS workers, atomic
//! accumulation (and the atomic boundary-row adds of the mode-0 pass)
//! commits in scheduling order, which legitimately perturbs the last
//! few bits. The assertions degrade to close-fit comparisons there and
//! stay bitwise on single-worker machines such as CI runners with one
//! core.

use linalg::Mat;
use stef::{cpd_als, AccumStrategy, CpdOptions, MttkrpEngine, Stef, StefOptions};
use workloads::power_law_tensor;

fn sequential_fanout() -> bool {
    stef::runtime::hardware_workers() == 1
}

fn factor_bits(factors: &[Mat]) -> Vec<u64> {
    factors
        .iter()
        .flat_map(|f| (0..f.rows()).flat_map(|i| f.row(i).iter().map(|v| v.to_bits())))
        .collect()
}

/// (factor bits, fit bits) of one seeded CPD run.
fn run_cpd(nthreads: usize, accum: AccumStrategy) -> (Vec<u64>, Vec<u64>) {
    let t = power_law_tensor(&[25, 18, 30], 1_200, &[0.6, 0.4, 0.5], 9);
    let mut opts = StefOptions::new(4);
    opts.num_threads = nthreads;
    opts.accum = accum;
    let mut engine = Stef::prepare(&t, opts);
    let cpd_opts = CpdOptions {
        max_iters: 4,
        tol: 0.0,
        seed: 42,
        ..CpdOptions::new(4)
    };
    let result = cpd_als(&mut engine, &cpd_opts).expect("cpd must run");
    let fit_bits = result.fits.iter().map(|f| f.to_bits()).collect();
    (factor_bits(&result.factors), fit_bits)
}

fn assert_same_run(a: &(Vec<u64>, Vec<u64>), b: &(Vec<u64>, Vec<u64>), what: &str) {
    if sequential_fanout() {
        assert_eq!(a, b, "not bit-identical: {what}");
    } else {
        assert_eq!(a.1.len(), b.1.len(), "fit trajectory length: {what}");
        for (&x, &y) in a.1.iter().zip(&b.1) {
            let (fx, fy) = (f64::from_bits(x), f64::from_bits(y));
            assert!((fx - fy).abs() < 1e-9, "fits diverged ({what}): {fx} vs {fy}");
        }
    }
}

#[test]
fn cpd_is_bitwise_reproducible_across_all_configurations() {
    for nthreads in [1usize, 2, 3, 7, 16] {
        for accum in [
            AccumStrategy::Auto,
            AccumStrategy::Privatized,
            AccumStrategy::Atomic,
        ] {
            let first = run_cpd(nthreads, accum);
            let second = run_cpd(nthreads, accum);
            assert_same_run(&first, &second, &format!("{nthreads} threads, {accum:?}"));
        }
    }
}

#[test]
fn single_mttkrp_is_bitwise_reproducible() {
    // Finer-grained than the CPD check: one raw MTTKRP per mode, run
    // twice, compared bit for bit (catches nondeterminism that ALS
    // normalization might otherwise mask).
    let t = power_law_tensor(&[20, 35, 15], 900, &[0.5, 0.5, 0.5], 13);
    let factors = stef::init_factors(t.dims(), 5, 21);
    for nthreads in [2usize, 7] {
        for accum in [AccumStrategy::Privatized, AccumStrategy::Atomic] {
            let run = || -> Vec<u64> {
                let mut opts = StefOptions::new(5);
                opts.num_threads = nthreads;
                opts.accum = accum;
                let mut engine = Stef::prepare(&t, opts);
                engine
                    .sweep_order()
                    .into_iter()
                    .flat_map(|m| {
                        let out = engine.mttkrp(&factors, m);
                        (0..out.rows())
                            .flat_map(|i| {
                                out.row(i).iter().map(|v| v.to_bits()).collect::<Vec<_>>()
                            })
                            .collect::<Vec<_>>()
                    })
                    .collect()
            };
            let (first, second) = (run(), run());
            if sequential_fanout() {
                assert_eq!(first, second, "{nthreads} threads, {accum:?}");
            } else {
                assert_eq!(first.len(), second.len());
                for (&a, &b) in first.iter().zip(&second) {
                    let (fa, fb) = (f64::from_bits(a), f64::from_bits(b));
                    assert!((fa - fb).abs() < 1e-9, "{nthreads} threads, {accum:?}");
                }
            }
        }
    }
}

#[test]
fn privatized_modeu_is_bitwise_identical_for_any_worker_count() {
    // The strongest determinism claim the runtime makes: on the
    // privatized (atomic-free) kernel path, the *number of pool workers*
    // is invisible — workers claim chunks dynamically, but every chunk
    // writes thread-private state keyed by logical thread, and the
    // reduction always combines copies in logical-thread order. So the
    // bits must match a one-worker pool (fully serial, logical-thread
    // order) at every worker count, even when the fan-out genuinely runs
    // on many OS threads.
    use linalg::Mat;
    use sptensor::build_csf;
    use stef::kernels::{modeu_with, KernelCtx, ResolvedAccum};
    use stef::{LoadBalance, PartialStore, Schedule, Workspace};

    let t = power_law_tensor(&[22, 28, 17], 1_000, &[0.5, 0.5, 0.5], 31);
    let csf = build_csf(&t, &[0, 1, 2]);
    let d = csf.ndim();
    let rank = 5;
    let nthreads = 7;
    let sched = Schedule::build(&csf, nthreads, LoadBalance::NnzBalanced);
    let factors = stef::init_factors(t.dims(), rank, 3);
    let refs: Vec<&Mat> = factors.iter().collect();
    let ctx = KernelCtx::new(&csf, &sched, refs, rank);
    let mut partials = PartialStore::allocate(&csf, &[false; 3], nthreads, rank);
    let max_dim = *csf.level_dims().iter().max().unwrap();

    let mut run = |rt: &stef::Executor| -> Vec<Vec<u64>> {
        let mut ws = Workspace::new(d, rank, nthreads, max_dim);
        let views = partials.shared_views();
        (1..d)
            .map(|u| {
                let mut out = Mat::zeros(csf.level_dims()[u], rank);
                modeu_with(
                    &ctx,
                    &views,
                    false,
                    u,
                    ResolvedAccum::Privatized,
                    rt,
                    &mut ws,
                    &mut out,
                );
                (0..out.rows())
                    .flat_map(|i| out.row(i).iter().map(|v| v.to_bits()).collect::<Vec<_>>())
                    .collect()
            })
            .collect()
    };

    let reference = run(&stef::Executor::new(1));
    for workers in [2usize, 4, 8] {
        let pool = stef::Executor::new(workers);
        assert_eq!(
            run(&pool),
            reference,
            "pool({workers} workers) diverged from the serial pool"
        );
    }
}
