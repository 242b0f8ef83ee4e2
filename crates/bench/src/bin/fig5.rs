//! Figure 5: preprocessing overhead of the mode-switch decision.
//!
//! Algorithm 9 computes the swapped-order fiber count so the model can
//! decide whether to switch the last two modes. The paper shows this
//! preprocessing as a fraction of one CPD iteration's MTTKRP time, for
//! R ∈ {32, 64} — always below 100%, i.e. amortized after one iteration.
//!
//! ```text
//! cargo run -p stef-bench --release --bin fig5
//! ```

use sptensor::{build_csf, sort_modes_by_length};
use stef::runtime::{resolve_workers, Executor};
use stef::{Stef, StefOptions};
use stef_bench::{render_bar_chart, suite_selection, time_mttkrp_sweep, BenchConfig, Table};

struct Fig5Row {
    tensor: String,
    preprocess_seconds: f64,
    sweep_seconds_r32: f64,
    sweep_seconds_r64: f64,
    overhead_pct_r32: f64,
    overhead_pct_r64: f64,
}
stef_bench::impl_to_json!(Fig5Row {
    tensor,
    preprocess_seconds,
    sweep_seconds_r32,
    sweep_seconds_r64,
    overhead_pct_r32,
    overhead_pct_r64,
});

fn main() {
    let config = BenchConfig::from_env();
    println!(
        "Figure 5 analogue: Algorithm 9 preprocessing vs one MTTKRP sweep (scale {:?})\n",
        config.scale
    );
    let mut rows = Vec::new();
    let mut table = Table::new(&[
        "Tensor",
        "Alg.9 (ms)",
        "Sweep R=32 (ms)",
        "Sweep R=64 (ms)",
        "Overhead R=32",
        "Overhead R=64",
    ]);
    // Algorithm 9 runs on a pool as wide as the sweeps it is set against.
    let exec = Executor::new(resolve_workers(config.nthreads));
    for spec in suite_selection() {
        let t = spec.generate(config.scale);
        let order = sort_modes_by_length(t.dims());
        let csf = build_csf(&t, &order);

        // Time Algorithm 9 (the swapped-profile computation).
        let reps = config.reps.max(3);
        let mut pre = f64::INFINITY;
        for _ in 0..reps {
            let t0 = std::time::Instant::now();
            std::hint::black_box(
                sptensor::count_fibers_if_last_two_swapped_on(&exec, &csf)
                    .expect("the pool has no cancel token"),
            );
            pre = pre.min(t0.elapsed().as_secs_f64());
        }

        let mut sweep = [0.0f64; 2];
        for (k, rank) in [32usize, 64].into_iter().enumerate() {
            let mut opts = StefOptions::new(rank);
            opts.num_threads = config.nthreads;
            let mut engine = Stef::prepare(&t, opts);
            sweep[k] = time_mttkrp_sweep(&mut engine, rank, config.reps).best_seconds;
        }
        let pct32 = 100.0 * pre / sweep[0];
        let pct64 = 100.0 * pre / sweep[1];
        table.row(vec![
            spec.name.to_string(),
            format!("{:.2}", pre * 1e3),
            format!("{:.2}", sweep[0] * 1e3),
            format!("{:.2}", sweep[1] * 1e3),
            format!("{pct32:.1}%"),
            format!("{pct64:.1}%"),
        ]);
        rows.push(Fig5Row {
            tensor: spec.name.to_string(),
            preprocess_seconds: pre,
            sweep_seconds_r32: sweep[0],
            sweep_seconds_r64: sweep[1],
            overhead_pct_r32: pct32,
            overhead_pct_r64: pct64,
        });
    }
    println!("{}", table.render());
    let avg32 = rows.iter().map(|r| r.overhead_pct_r32).sum::<f64>() / rows.len() as f64;
    let avg64 = rows.iter().map(|r| r.overhead_pct_r64).sum::<f64>() / rows.len() as f64;
    println!("Average overhead: {avg32:.1}% (R=32), {avg64:.1}% (R=64)");
    println!(
        "Paper shape check: averages ~19-25% (R=32) / ~10-14% (R=64); every\n\
         bar below 100% => the decision amortizes within one CPD iteration.\n"
    );
    let chart: Vec<(String, f64)> = rows
        .iter()
        .map(|r| (r.tensor.clone(), r.overhead_pct_r32))
        .collect();
    println!("Overhead %% at R=32:\n{}", render_bar_chart(&chart, 40));
    if let Some(path) = stef_bench::write_json("fig5", &rows) {
        println!("JSON written to {}", path.display());
    }
}
