//! # stef-repro — Sparsity-Aware Tensor Decomposition in Rust
//!
//! An open-source reproduction of *"Sparsity-Aware Tensor Decomposition"*
//! (Kurt, Raje, Sukumaran-Rajam, Sadayappan — IPDPS 2022): the **STeF**
//! sparse CP decomposition system, its data-movement model, its
//! nnz-balanced parallel scheduler, and every baseline the paper
//! compares against.
//!
//! This crate is a facade that re-exports the workspace:
//!
//! * [`sptensor`] — COO / CSF sparse tensor substrate, FROSTT I/O,
//!   fiber statistics, Algorithm 9;
//! * [`linalg`] — dense small-matrix algebra (Grams, Cholesky solves,
//!   Khatri–Rao helpers);
//! * [`stef`] — the STeF and STeF2 engines, memoized MTTKRP kernels,
//!   the data-movement model, and the CPD-ALS driver;
//! * [`baselines`] — SPLATT-1/2/all, AdaTM-like, ALTO-like, TACO-like;
//! * [`workloads`] — seeded synthetic analogues of the paper's tensor
//!   suite.
//!
//! ## Five-minute tour
//!
//! ```
//! use stef_repro::prelude::*;
//!
//! // 1. Get a tensor: synthetic, from the paper suite, or a .tns file.
//! let tensor = workloads::power_law_tensor(&[300, 400, 500], 20_000, &[0.8, 0.4, 0.2], 1);
//!
//! // 2. Prepare the engine — the model picks memoization + mode order.
//! let mut engine = Stef::prepare(&tensor, StefOptions::new(16));
//! println!("memoized levels: {:?}", engine.plan().save);
//!
//! // 3. Decompose. Numerical failures surface as typed errors, never panics.
//! let result = cpd_als(&mut engine, &CpdOptions::new(16)).expect("decomposition failed");
//! println!("fit = {:.4} after {} iterations", result.final_fit(), result.iterations);
//! # assert!(result.final_fit() <= 1.0);
//! ```

pub use baselines;
pub use linalg;
pub use sptensor;
pub use stef;
pub use workloads;

/// The names most programs need, in one import.
pub mod prelude {
    pub use baselines::{AdaTm, Alto, Splatt, SplattVariant, TacoLike};
    pub use linalg::Mat;
    pub use sptensor::{build_csf, CooTensor, Csf, TensorStats};
    pub use stef::{
        cpd_als, Checkpoint, CheckpointPolicy, CpdOptions, CpdResult, LoadBalance, MemoPolicy,
        ModeSwitchPolicy, MttkrpEngine, Stef, StefError, Stef2, StefOptions,
    };
    pub use workloads;
}
