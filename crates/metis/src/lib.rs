//! # prema-metis — serial (Par)METIS-family graph partitioning
//!
//! The stop-and-repartition baseline of the SC'03 paper uses ParMETIS V3's
//! `AdaptiveRepart()` — the Unified Repartitioning Algorithm of Schloegel,
//! Karypis and Kumar (reference \[19\]). This crate reimplements that family
//! from scratch:
//!
//! * [`graph`] — CSR graphs with vertex weights (computation), vertex sizes
//!   (migration cost) and edge weights (communication);
//! * [`coarsen`] — heavy-edge matching and contraction;
//! * [`partition`] — multilevel k-way partitioning (greedy growing +
//!   Fiduccia–Mattheyses refinement, recursive bisection);
//! * [`kwayrefine`] — direct k-way boundary refinement applied after
//!   recursive bisection;
//! * [`repart`] — adaptive repartitioning: scratch-remap, diffusion, and the
//!   Unified Repartitioning Algorithm minimizing `|Ecut| + α·|Vmove|`
//!   (Equation 1 of the paper);
//! * [`metrics`] — edge cut, imbalance, migration volume.
//!
//! The stop-and-repartition *runtime driver* (global synchronization,
//! all-to-all load exchange, migration) lives in the evaluation harness; this
//! crate is the pure algorithmic substrate.

#![warn(missing_docs)]

pub mod coarsen;
pub mod graph;
pub mod kwayrefine;
pub mod metrics;
pub mod partition;
pub mod repart;

pub use graph::Graph;
pub use kwayrefine::{kway_refine, KwayRefineStats};
pub use metrics::{edge_cut, imbalance, part_weights, ura_cost, vmove};
pub use partition::{partition_kway, PartitionConfig};
pub use repart::{adaptive_repart, diffusive_repart, scratch_remap, RepartResult, UraChoice};
