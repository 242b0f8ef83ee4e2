//! Format & model explorer: for one tensor (a suite analogue by name, or
//! any FROSTT `.tns` file), show what every storage/ordering choice
//! costs and what the data-movement model decides.
//!
//! ```text
//! cargo run --release --example format_explorer                # default tensor
//! cargo run --release --example format_explorer -- uber        # suite name
//! cargo run --release --example format_explorer -- path/to.tns # real data
//! ```

use sptensor::{count_fibers_if_last_two_swapped, sort_modes_by_length};
use stef::LevelProfile;
use stef_repro::prelude::*;

fn load_tensor(arg: Option<&str>) -> (String, CooTensor) {
    match arg {
        None => (
            "uber (suite analogue)".into(),
            workloads::suite_tensor("uber", workloads::SuiteScale::Small).unwrap(),
        ),
        Some(name) => {
            if let Some(t) = workloads::suite_tensor(name, workloads::SuiteScale::Small) {
                return (format!("{name} (suite analogue)"), t);
            }
            match sptensor::io::read_tns_file(name) {
                Ok(t) => (name.to_string(), t),
                Err(e) => {
                    eprintln!("'{name}' is neither a suite tensor nor a readable .tns file: {e}");
                    eprintln!("suite names:");
                    for s in workloads::paper_suite() {
                        eprintln!("  {}", s.name);
                    }
                    std::process::exit(1);
                }
            }
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let (label, tensor) = load_tensor(args.get(1).map(|s| s.as_str()));
    println!("tensor: {label}");
    println!("dims {:?}, nnz {}", tensor.dims(), tensor.nnz());

    let rank = 32;
    let cache = 16 << 20;
    let base_order = sort_modes_by_length(tensor.dims());

    // CSF in the heuristic order and its swap alternative (Algorithm 9).
    let csf = build_csf(&tensor, &base_order);
    println!(
        "\nCSF (mode order {base_order:?}): fibers per level {:?}, {:.2} MB",
        csf.fiber_counts(),
        csf.memory_bytes() as f64 / 1e6
    );
    let swapped_fibers = count_fibers_if_last_two_swapped(&csf);
    let d = csf.ndim();
    println!(
        "swapping the last two modes would change level-{} fibers: {} -> {}",
        d - 2,
        csf.nfibers(d - 2),
        swapped_fibers
    );

    // Model scores for every memoization subset, both orders.
    let base = LevelProfile::from_csf(&csf, rank, cache);
    let swapped = LevelProfile::swapped_from_csf(&csf, rank, cache);
    println!("\ndata-movement model (R={rank}, cache 16 MiB), traffic in M elements:");
    for (tag, profile) in [("base ", &base), ("swap ", &swapped)] {
        let memoizable: Vec<usize> = if d >= 3 {
            (1..=d - 2).collect()
        } else {
            vec![]
        };
        for mask in 0..(1u32 << memoizable.len()) {
            let mut save = vec![false; d];
            for (bit, &l) in memoizable.iter().enumerate() {
                save[l] = mask & (1 << bit) != 0;
            }
            let traffic = profile.total_traffic(&save);
            let saved: Vec<usize> = save
                .iter()
                .enumerate()
                .filter(|(_, &s)| s)
                .map(|(l, _)| l)
                .collect();
            println!("  {tag} save {saved:?}: {:>10.2}", traffic / 1e6);
        }
    }

    // What each engine's storage costs.
    println!("\nstorage comparison:");
    let pool = stef::Executor::new(stef::runtime::resolve_workers(0));
    let alto = Alto::prepare(&tensor, rank, 0, &pool);
    println!(
        "  ALTO linearized:   {:>8.2} MB",
        alto.memory_bytes() as f64 / 1e6
    );
    for variant in [SplattVariant::One, SplattVariant::Two, SplattVariant::All] {
        let s = Splatt::prepare(&tensor, variant, rank, 0, &pool);
        println!(
            "  {:<18} {:>8.2} MB",
            format!("{}:", s.name()),
            s.csf_bytes() as f64 / 1e6
        );
    }
    let stef_engine = Stef::prepare(&tensor, StefOptions::new(rank));
    println!(
        "  stef CSF+partials: {:>8.2} MB (plan: swap={}, save={:?})",
        (stef_engine.csf().memory_bytes() + stef_engine.partial_bytes()) as f64 / 1e6,
        stef_engine.plan().swap_last_two,
        stef_engine.plan().save
    );
}
