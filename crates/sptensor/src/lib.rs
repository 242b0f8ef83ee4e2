//! # stef-sptensor — sparse tensor substrate
//!
//! Everything the STeF reproduction needs to *represent* sparse tensors,
//! independent of any particular MTTKRP algorithm:
//!
//! * [`coo::CooTensor`] — coordinate-format tensor, the interchange format
//!   all generators and loaders produce, with a naive reference MTTKRP
//!   that every optimized kernel is tested against;
//! * [`csf::Csf`] — the Compressed Sparse Fiber tree (paper §II-B), built
//!   from COO by [`build`] for an arbitrary mode order;
//! * [`stats`] — per-level fiber counts, slice-imbalance metrics and the
//!   mode-length ordering heuristic that drive the paper's data-movement
//!   model;
//! * [`swapcount`] — Algorithm 9: the cheap parallel pass that counts how
//!   many level-(d−2) fibers the CSF would have *if the last two modes
//!   were swapped*, without building that CSF;
//! * [`io`] — FROSTT `.tns` text I/O so real datasets can be dropped in.
//!
//! Index convention: mode indices are `u32` (every tensor in the paper's
//! suite fits), pointer arrays are `usize`, values are `f64`.

#![allow(clippy::needless_range_loop)] // index loops over parallel arrays are the clearest form in these kernels

pub mod build;
pub mod coo;
pub mod csf;
pub mod io;
pub mod iter;
pub mod linearize;
pub mod permute;
pub mod reorder;
pub mod stats;
pub mod swapcount;

pub use build::build_csf;
pub use coo::CooTensor;
pub use csf::Csf;
pub use io::TnsError;
pub use iter::{NodeIter, NodeRef};
pub use linearize::{index_bits_for, LinIndex, LinStore, Linearized, ModeMask};
pub use permute::{inverse_permutation, sort_modes_by_length};
pub use stats::TensorStats;
pub use swapcount::{count_fibers_if_last_two_swapped, count_fibers_if_last_two_swapped_on};
