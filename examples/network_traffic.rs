//! Network-telemetry scenario: a VAST-like event tensor whose shortest
//! mode has only two values (e.g. protocol ∈ {tcp, udp}) and a heavy
//! hot/cold skew. Under the mode-length heuristic that mode becomes the
//! CSF *root*, so slice-parallel engines can use at most two threads —
//! the situation the paper's fine-grained scheduling (§II-D) fixes.
//!
//! ```text
//! cargo run --release --example network_traffic
//! ```

use std::time::Instant;
use stef_repro::prelude::*;

fn main() {
    // (src-ip, dst-ip, protocol, hour) events, 85% on one protocol.
    let spec = workloads::SuiteSpec {
        name: "traffic",
        dims: vec![40_000, 4_000, 2, 24],
        base_nnz: 120_000,
        kind: workloads::suite::GenKind::SplitRoot {
            hot_mode: 2,
            hot: 0.85,
            skews: vec![0.6, 0.6, 0.0, 0.2],
        },
        seed: 99,
    };
    let tensor = spec.generate(workloads::SuiteScale::Small);
    let stats = TensorStats::from_coo(&tensor);
    println!(
        "traffic tensor: dims {:?}, {} events, CSF root has {} slices \
         (imbalance {:.2}x)",
        tensor.dims(),
        tensor.nnz(),
        stats.root_slices,
        stats.slice_imbalance
    );

    let rank = 16;
    let reps = 3;
    let time_sweep = |engine: &mut dyn MttkrpEngine| {
        let factors = stef::init_factors(engine.dims(), rank, 5);
        let sweep = engine.sweep_order();
        for &m in &sweep {
            std::hint::black_box(engine.mttkrp(&factors, m)); // warm-up
        }
        let mut best = f64::INFINITY;
        for _ in 0..reps {
            let t0 = Instant::now();
            for &m in &sweep {
                std::hint::black_box(engine.mttkrp(&factors, m));
            }
            best = best.min(t0.elapsed().as_secs_f64());
        }
        best
    };

    // STeF (nnz-balanced) vs its slice-scheduled ablation vs SPLATT.
    let mut stef_engine = Stef::prepare(&tensor, StefOptions::new(rank));
    let t_stef = time_sweep(&mut stef_engine);

    let mut slice_opts = StefOptions::new(rank);
    slice_opts.load_balance = LoadBalance::SliceBased;
    let mut slice_engine = Stef::prepare(&tensor, slice_opts);
    let t_slice = time_sweep(&mut slice_engine);

    let pool = stef::Executor::new(stef::runtime::resolve_workers(0));
    let mut splatt = Splatt::prepare(&tensor, SplattVariant::One, rank, 0, &pool);
    let t_splatt = time_sweep(&mut splatt);

    println!(
        "\nMTTKRP sweep times ({} threads):",
        stef::runtime::default_threads()
    );
    println!("  stef (nnz-balanced):      {:>8.2} ms", t_stef * 1e3);
    println!("  stef (slice-scheduled):   {:>8.2} ms", t_slice * 1e3);
    println!("  splatt-1 (slice):         {:>8.2} ms", t_splatt * 1e3);
    println!(
        "\nnnz balancing measures {:.2}x vs slice scheduling on this host\n\
         (the gap needs real cores to show in wall time — with a 2-slice\n\
         root, slice scheduling can keep at most 2 threads busy).",
        t_slice / t_stef
    );

    // The hardware-independent statement of the same fact: critical-path
    // speedup of each schedule at the paper's thread counts.
    let csf = sptensor::build_csf(
        &tensor,
        &sptensor::sort_modes_by_length(tensor.dims()),
    );
    for threads in [18usize, 64] {
        let nnzb = stef::Schedule::nnz_balanced(&csf, threads).simulated_speedup();
        let slice = stef::Schedule::slice_based(&csf, threads).simulated_speedup();
        println!(
            "  at T={threads}: simulated speedup {nnzb:.1}x (nnz-balanced) vs {slice:.1}x (slice)"
        );
    }

    // Full decomposition still works on this awkward structure.
    let result = cpd_als(&mut stef_engine, &CpdOptions::new(rank)).expect("decomposition failed");
    println!(
        "CPD fit {:.4} in {} iterations",
        result.final_fit(),
        result.iterations
    );
}
