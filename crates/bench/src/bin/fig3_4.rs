//! Figures 3 & 4: per-tensor MTTKRP performance of all eight algorithms
//! relative to `splatt-all`, for R ∈ {32, 64}.
//!
//! The paper shows one figure per machine (18-core Intel, 64-core AMD);
//! this binary runs on whatever host executes it and prints the host's
//! core count — run it on two machines to get both figures. Also prints
//! the geometric-mean speedups of STeF/STeF2 over every baseline
//! (the §VI-B headline numbers).
//!
//! ```text
//! cargo run -p stef-bench --release --bin fig3_4
//! STEF_SCALE=full STEF_REPS=5 cargo run -p stef-bench --release --bin fig3_4
//! ```

use stef_bench::{
    geomean, render_bar_chart, suite_selection, time_mttkrp_sweep, BenchConfig, Table,
};

struct FigRow {
    tensor: String,
    rank: usize,
    /// seconds per full MTTKRP sweep, keyed by algorithm name.
    seconds: Vec<(String, f64)>,
    /// speedup over splatt-all, keyed by algorithm name.
    relative: Vec<(String, f64)>,
}
stef_bench::impl_to_json!(FigRow { tensor, rank, seconds, relative });

fn main() {
    let config = BenchConfig::from_env();
    println!(
        "Figures 3/4 analogue on this host ({} threads, scale {:?}, {} reps)\n",
        stef::runtime::default_threads(),
        config.scale,
        config.reps
    );

    let mut all_rows: Vec<FigRow> = Vec::new();
    for rank in [32usize, 64] {
        println!("=== R = {rank} ===");
        let mut table_rel: Option<Table> = None;
        for spec in suite_selection() {
            let t = spec.generate(config.scale);
            let mut engines = baselines::all_engines(&t, rank, config.nthreads);
            let timings: Vec<(String, f64)> = engines
                .iter_mut()
                .map(|e| {
                    let timing = time_mttkrp_sweep(e.as_mut(), rank, config.reps);
                    (timing.name, timing.best_seconds)
                })
                .collect();
            let base = timings
                .iter()
                .find(|(n, _)| n == "splatt-all")
                .map(|&(_, s)| s)
                .expect("splatt-all must be among the engines");
            let relative: Vec<(String, f64)> =
                timings.iter().map(|(n, s)| (n.clone(), base / s)).collect();

            if table_rel.is_none() {
                let mut headers: Vec<&str> = vec!["Tensor"];
                let names: Vec<String> = relative.iter().map(|(n, _)| n.clone()).collect();
                let names_ref: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
                headers.extend(names_ref);
                table_rel = Some(Table::new(&headers));
            }
            let mut cells = vec![spec.name.to_string()];
            cells.extend(relative.iter().map(|(_, v)| format!("{v:.2}")));
            table_rel.as_mut().unwrap().row(cells);

            all_rows.push(FigRow {
                tensor: spec.name.to_string(),
                rank,
                seconds: timings,
                relative,
            });
        }
        if let Some(t) = table_rel {
            println!(
                "Speedup over splatt-all (higher is better):\n{}",
                t.render()
            );
        }
    }

    // §VI-B headline: geometric-mean speedup of stef / stef2 over each
    // baseline across all tensors and both ranks.
    let names: Vec<String> = all_rows[0].seconds.iter().map(|(n, _)| n.clone()).collect();
    println!("Geometric-mean speedups across all tensors and both ranks:");
    for ours in ["stef", "stef2"] {
        let mut chart = Vec::new();
        for other in &names {
            if other == ours {
                continue;
            }
            let ratios: Vec<f64> = all_rows
                .iter()
                .map(|row| {
                    let t_ours = row
                        .seconds
                        .iter()
                        .find(|(n, _)| n == ours)
                        .map(|&(_, s)| s)
                        .unwrap();
                    let t_other = row
                        .seconds
                        .iter()
                        .find(|(n, _)| n == other.as_str())
                        .map(|&(_, s)| s)
                        .unwrap();
                    t_other / t_ours
                })
                .collect();
            chart.push((format!("{ours} vs {other}"), geomean(&ratios)));
        }
        println!("{}", render_bar_chart(&chart, 40));
    }
    println!(
        "Paper shape check: STeF beats AdaTM/splatt-1/splatt-2/splatt-all/TACO\n\
         in geomean; STeF2 >= STeF; the vast-* rows should show the largest\n\
         STeF advantage over slice-scheduled baselines."
    );
    if let Some(path) = stef_bench::write_json("fig3_4", &all_rows) {
        println!("JSON written to {}", path.display());
    }
}
