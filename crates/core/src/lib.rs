//! # prema — the Parallel Runtime Environment for Multicomputer Applications
//!
//! A from-scratch Rust reproduction of PREMA, the runtime system evaluated in
//! *"An Evaluation of a Framework for the Dynamic Load Balancing of Highly
//! Adaptive and Irregular Parallel Applications"* (Barker & Chrisochoides,
//! SC'03). PREMA targets applications with no inherent global
//! synchronization, drastically varying work-unit weights, and unpredictable
//! load evolution — parallel adaptive mesh generation being the archetype.
//!
//! The design pillars (§4 of the paper), and where they live:
//!
//! * **single-sided Active-Messages communication** — [`prema_dcs`];
//! * **global name space** of mobile pointers — [`prema_mol`];
//! * **transparent object migration + automatic message forwarding** with
//!   preserved delivery order — [`prema_mol`];
//! * **a pluggable load-balancing framework** (Work Stealing, Diffusion,
//!   Multilist) — [`prema_ilb`];
//! * **explicit and implicit (preemptive) balancer invocation** — this
//!   crate's [`runtime`] module: the implicit mode runs a polling thread
//!   that processes *system* messages while work units execute, so load
//!   balancing decisions are always based on fresh information.
//!
//! # Quickstart
//!
//! ```
//! use prema::{launch, PremaConfig};
//! use bytes::Bytes;
//!
//! // A mobile object: any type that can pack/unpack itself.
//! struct Cell(u64);
//! impl prema::Migratable for Cell {
//!     fn pack(&self, buf: &mut Vec<u8>) { buf.extend(self.0.to_le_bytes()); }
//!     fn unpack(b: &[u8]) -> Self { Cell(u64::from_le_bytes(b[..8].try_into().unwrap())) }
//! }
//!
//! const H_BUMP: u32 = 1;
//! let results = launch::<Cell, u64, _>(PremaConfig::implicit(2), |rt| {
//!     rt.on_message(H_BUMP, |_ctx, cell, _item| cell.0 += 1);
//!     if rt.rank() == 0 {
//!         let ptr = rt.register(Cell(0));
//!         rt.message(ptr, H_BUMP, Bytes::new());
//!         rt.run_until(|s| s.stats().executed >= 1);
//!         return rt.with_scheduler(|s| s.node().get(ptr).map(|c| c.0).unwrap_or(0));
//!     }
//!     0
//! });
//! assert_eq!(results[0], 1);
//! ```

#![warn(missing_docs)]

pub mod affinity;
pub mod config;
pub mod phases;
pub mod runtime;
pub mod shutdown;
pub mod sync;
pub mod termination;

/// Whether this build carries the `check-invariants` oracles (DESIGN.md §7).
/// Benchmarks assert it is `false` before they measure.
pub const CHECK_INVARIANTS: bool = cfg!(feature = "check-invariants");

pub use config::{LbMode, PolicyKind, PremaConfig};
pub use phases::PhaseBarrier;
pub use runtime::{
    build_scheduler, launch, launch_single_rank, launch_with_trace, launch_with_transports, Runtime,
};
pub use termination::Completion;

// Re-export the component layers under their paper names.
pub use prema_dcs as dcs;
pub use prema_ilb as ilb;
pub use prema_mol as mol;

// Per-rank event tracing (`prema::trace::TraceSink` + `launch_with_trace`).
// Hooks record only into a sink a caller hands over.
pub use prema_trace as trace;

// The types applications touch constantly.
pub use prema_ilb::{HandlerCtx, LoadSnapshot, StabilityConfig};
pub use prema_mol::{Migratable, MobilePtr, WorkItem};

// The runtime-internal map flavor, for embedders extending the runtime.
// (Defined in `prema_dcs` — the bottom layer — so every crate above can share
// it; re-exported here so `prema::fxmap` is the one name to remember.)
pub use prema_dcs::fxmap;

#[cfg(test)]
mod tests {
    use crate::dcs::reliable::{H_REL_ACK, H_REL_DATA};
    use crate::ilb::{LB_NACK, LB_REQUEST, LB_STATUS, NODE_HANDLER_LIMIT};
    use crate::mol::proto::{
        H_MOL_DIR_ANSWER, H_MOL_DIR_LOOKUP, H_MOL_DIR_PUBLISH, H_MOL_MIGRATE, H_MOL_MSG, H_NODE_MSG,
    };
    use crate::phases::{H_PHASE_ARRIVE, H_PHASE_RELEASE};
    use crate::termination::{H_COMPLETE_DONE, H_COMPLETE_REPORT};
    use std::collections::BTreeSet;

    /// The runtime's 15 message ids, in the one crate that sees them all:
    /// no two are equal; the eight DCS handler ids are system ids; the load
    /// balancer's three node-message ids lie at or above
    /// `NODE_HANDLER_LIMIT`, where no application id may go; and the four
    /// of `Completion` and `PhaseBarrier` are the four just below it, which
    /// an application that installs either must leave free.
    #[test]
    fn runtime_message_ids_are_distinct_and_on_their_side_of_the_limits() {
        let reliable = [H_REL_DATA, H_REL_ACK];
        let dir = [H_MOL_DIR_PUBLISH, H_MOL_DIR_LOOKUP, H_MOL_DIR_ANSWER];
        let dcs = [&reliable[..], &[H_MOL_MSG, H_MOL_MIGRATE, H_NODE_MSG], &dir].concat();
        let lb = [LB_STATUS, LB_REQUEST, LB_NACK];
        let completion = [H_COMPLETE_REPORT, H_COMPLETE_DONE];
        let core = [completion, [H_PHASE_ARRIVE, H_PHASE_RELEASE]].concat();
        let all = dcs
            .iter()
            .map(|h| h.0)
            .chain(lb)
            .chain(core.iter().copied());
        assert_eq!(all.collect::<BTreeSet<u32>>().len(), 15, "two ids collide");
        assert!(dcs.iter().all(|h| h.is_system()), "{dcs:?}");
        assert!(lb.iter().all(|&id| id >= NODE_HANDLER_LIMIT), "{lb:x?}");
        let below = NODE_HANDLER_LIMIT - 4..NODE_HANDLER_LIMIT;
        assert!(core.iter().all(|id| below.contains(id)), "{core:x?}");
    }
}
