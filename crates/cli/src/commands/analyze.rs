//! `stef analyze` — structure statistics and model decisions for one
//! tensor: what Table I reports, plus what STeF would do with it.

use crate::args::{parse, FlagSpec};
use crate::commands::apply_simd_flag;
use crate::tensor_source::load;
use sptensor::{build_csf, count_fibers_if_last_two_swapped_on, sort_modes_by_length, TensorStats};
use stef::{LevelProfile, MttkrpEngine, Stef, StefOptions};
use workloads::SuiteScale;

pub fn run(argv: &[String]) -> Result<(), String> {
    let spec = FlagSpec::new(&[
        ("--rank", "rank"),
        ("-r", "rank"),
        ("--cache-mb", "cache-mb"),
        ("--threads", "threads"),
        ("--simd", "simd"),
    ]);
    let p = parse(argv, &spec)?;
    let tensor_spec = p.one_positional("tensor")?;
    let rank: usize = p.num_or("rank", 32)?;
    let cache_mb: usize = p.num_or("cache-mb", 16)?;
    let threads: usize = p.num_or("threads", 0)?;
    apply_simd_flag(p.str_or("simd", "auto"))?;

    let (label, t) = load(tensor_spec, SuiteScale::Small)?;
    println!("tensor: {label}");
    println!(
        "  dims {:?}, nnz {}, density {:.3e}",
        t.dims(),
        t.nnz(),
        t.density()
    );

    let order = sort_modes_by_length(t.dims());
    let csf = build_csf(&t, &order);
    let stats = TensorStats::from_csf(&csf, t.dims());
    println!("  CSF order {:?} ({})", order, stats.dims_string());
    println!("  fibers per level: {:?}", stats.fiber_counts);
    println!(
        "  root slices: {} (imbalance {:.2}x) — slice scheduling would cap at {} busy threads",
        stats.root_slices, stats.slice_imbalance, stats.root_slices
    );
    let mut opts = StefOptions::new(rank);
    opts.cache_bytes = cache_mb << 20;
    opts.num_threads = threads;
    let mut engine = Stef::prepare(&t, opts.clone());
    let d = csf.ndim();
    // Fanned out on the engine's pool, `--threads` wide.
    let swapped = count_fibers_if_last_two_swapped_on(engine.executor(), &csf)
        .expect("the engine's pool has no cancel token");
    println!(
        "  Algorithm 9: level-{} fibers {} (base) vs {} (last two modes swapped)",
        d - 2,
        csf.nfibers(d - 2),
        swapped
    );

    let plan = engine.plan();
    println!("\nSTeF plan (R={rank}, cache {cache_mb} MiB):");
    println!("  swap last two modes: {}", plan.swap_last_two);
    println!(
        "  memoized levels: {:?}",
        plan.save
            .iter()
            .enumerate()
            .filter(|(_, &s)| s)
            .map(|(l, _)| l)
            .collect::<Vec<_>>()
    );
    println!(
        "  predicted traffic: {:.2} M elements/iter (best other order {:.2} M)",
        plan.predicted / 1e6,
        plan.predicted_other_order / 1e6
    );
    println!(
        "  partial storage: {:.2} MB vs CSF+factors {:.2} MB (ratio {:.2})",
        engine.partial_bytes() as f64 / 1e6,
        engine.csf_and_factor_bytes() as f64 / 1e6,
        engine.partial_bytes() as f64 / engine.csf_and_factor_bytes() as f64
    );

    // Extremes for context.
    let base_profile = LevelProfile::from_csf(engine.csf(), rank, opts.cache_bytes);
    let none = base_profile.total_traffic(&vec![false; d]);
    let mut all = vec![false; d];
    if d >= 3 {
        for flag in all.iter_mut().take(d - 1).skip(1) {
            *flag = true;
        }
    }
    let all_traffic = base_profile.total_traffic(&all);
    println!(
        "  traffic extremes on chosen order: save-none {:.2} M, save-all {:.2} M",
        none / 1e6,
        all_traffic / 1e6
    );

    // One warm MTTKRP sweep on the engine's executor, then surface the
    // worker-pool counters so imbalance is visible from the CLI.
    let factors = stef::init_factors(t.dims(), rank, 1);
    for mode in engine.sweep_order() {
        std::hint::black_box(engine.mttkrp(&factors, mode));
    }
    let rc = engine.runtime_counters();
    println!(
        "\nruntime ({} pool workers) after one warm sweep:",
        rc.workers
    );
    println!("  simd kernels: {}", linalg::simd::describe());
    let topo = stef::NumaTopology::detect();
    let cpus: Vec<usize> = topo.nodes().iter().map(|n| n.cpus.len()).collect();
    println!(
        "  numa topology: {} node{} (cpus per node {:?}), policy {}",
        topo.num_nodes(),
        if topo.num_nodes() == 1 { "" } else { "s" },
        cpus,
        opts.numa.as_str()
    );
    let placement = engine.executor().placement();
    if placement.is_empty() {
        println!("  numa placement: none (serial pool)");
    } else {
        let pinned = placement.iter().filter(|p| p.pinned).count();
        let mut per_node = vec![0usize; topo.num_nodes().max(1)];
        for p in &placement {
            if let Some(c) = per_node.get_mut(p.node) {
                *c += 1;
            }
        }
        println!(
            "  numa placement: {} workers over {} segment{} (per node {:?}), {} pinned",
            placement.len(),
            engine.executor().numa_nodes(),
            if engine.executor().numa_nodes() == 1 { "" } else { "s" },
            per_node,
            pinned
        );
    }
    println!(
        "  dispatches {} (inline {}), dispatcher claimed {} chunks",
        rc.dispatches, rc.inline_runs, rc.dispatcher_chunks
    );
    print!("{}", stef::telemetry::render_load_balance(&rc));
    Ok(())
}

#[cfg(test)]
mod tests {
    fn argv(items: &[&str]) -> Vec<String> {
        items.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn analyzes_suite_tensor() {
        super::run(&argv(&["suite:uber:tiny", "--rank", "8"])).unwrap();
    }

    #[test]
    fn analyzes_with_simd_flag() {
        super::run(&argv(&["suite:uber:tiny", "--rank", "4", "--simd", "auto"])).unwrap();
    }

    #[test]
    fn missing_tensor_errors() {
        assert!(super::run(&argv(&[])).is_err());
    }

    #[test]
    fn bad_rank_errors() {
        assert!(super::run(&argv(&["suite:uber:tiny", "--rank", "zero"])).is_err());
    }
}
