//! # prema-harness — the paper's evaluation, reproduced
//!
//! Drives the §5 evaluation of the SC'03 paper: the synthetic microbenchmark
//! under six runtime configurations on a simulated 128-processor machine
//! (Figures 3–6), the load-quality and overhead tables quoted in the text,
//! and the 3-D advancing-front mesh generation study.
//!
//! * [`spec`] — the benchmark's parameters and work-unit generation;
//! * [`drivers`] — one per configuration: no-LB, PREMA explicit, PREMA
//!   implicit, ParMETIS stop-and-repartition, Charm++ with 0 and 4 sync
//!   points;
//! * [`simrank`] — the real PREMA stack (`ilb::Scheduler` over `MolNode`)
//!   on the simulator's clock, which the PREMA drivers hand their workload;
//! * [`scenarios`] — the two policy scenarios (`interact`, `wave`) as PREMA
//!   applications on that stack, one run per shipped policy;
//! * [`runner`] — runs a whole figure and checks the paper's shape claims;
//! * [`report`] — uniform per-processor breakdown tables;
//! * [`mesh_eval`] — the mesh-generator study (PREMA-implicit vs
//!   stop-and-repartition vs no LB on a moving crack front).
//!
//! Binaries: `figure <3|4|5|6|interact|wave>`, `quality`, `overhead`, `mesh_eval`,
//! `experiments` (regenerates the data behind EXPERIMENTS.md).

#![warn(missing_docs)]

pub mod drivers;
pub mod mesh_eval;
pub mod report;
pub mod runner;
pub mod scenarios;
pub mod simrank;
pub mod spec;

pub use report::{Config, FigureReport};
pub use runner::{run_figure, run_paper_figure, run_test_figure};
pub use spec::{BenchSpec, WorkUnit};
