//! Quickstart: decompose a synthetic sparse tensor with STeF.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use stef_repro::prelude::*;

fn main() {
    // A 3-way sparse tensor with per-mode skew (hot users, flat items).
    let dims = [2_000usize, 3_000, 150];
    let nnz = 60_000;
    println!("generating {dims:?} tensor with {nnz} non-zeros…");
    let tensor = workloads::power_law_tensor(&dims, nnz, &[1.0, 0.3, 0.5], 7);

    // Inspect the structure the model will reason about.
    let stats = TensorStats::from_coo(&tensor);
    println!(
        "CSF mode order {:?}, fibers per level {:?}, root slices {} (imbalance {:.2}x)",
        stats.mode_order, stats.fiber_counts, stats.root_slices, stats.slice_imbalance
    );

    // Prepare STeF: the data-movement model chooses which partial MTTKRP
    // results to memoize and whether to swap the last two CSF modes.
    let rank = 16;
    let mut engine = Stef::prepare(&tensor, StefOptions::new(rank));
    let plan = engine.plan();
    println!(
        "model decision: swap last two modes = {}, memoized levels = {:?}",
        plan.swap_last_two,
        plan.save
            .iter()
            .enumerate()
            .filter(|(_, &s)| s)
            .map(|(l, _)| l)
            .collect::<Vec<_>>()
    );
    println!(
        "predicted data movement: {:.1} M elements/iteration (other order: {:.1} M)",
        plan.predicted / 1e6,
        plan.predicted_other_order / 1e6
    );

    // Run CPD-ALS.
    let mut opts = CpdOptions::new(rank);
    opts.max_iters = 30;
    let result = cpd_als(&mut engine, &opts).expect("decomposition failed");
    println!(
        "\nCPD rank-{rank}: fit {:.4} after {} iterations (converged: {})",
        result.final_fit(),
        result.iterations,
        result.converged
    );
    println!(
        "time: {:?} total, {:?} inside MTTKRP",
        result.total_time, result.mttkrp_time()
    );
    println!("fit trajectory: {:?}", &result.fits);
    println!(
        "memoized partials use {:.2} MB (CSF + factors: {:.2} MB)",
        engine.partial_bytes() as f64 / 1e6,
        engine.csf_and_factor_bytes() as f64 / 1e6
    );
}
