//! # prema-mol — the Mobile Object Layer
//!
//! The global-namespace and migration substrate of PREMA (Chrisochoides,
//! Barker, Nave, Hawblitzel — *Mobile object layer: a runtime substrate for
//! parallel adaptive and irregular computations*, 2000; reference [6] of the
//! SC'03 paper).
//!
//! Applications decompose their data domain into **mobile objects** (mesh
//! subdomains, tree nodes, ...), register them to obtain **mobile pointers**
//! ([`MobilePtr`]), and thereafter address all communication to pointers
//! rather than ranks. The MOL routes each message to wherever its target
//! object currently lives, forwarding along migration trails and preserving
//! per-sender delivery order — so the load balancer above may move objects at
//! will without the application noticing.
//!
//! * [`ptr`] — mobile pointers and per-rank allocation.
//! * [`migrate`] — the [`Migratable`] pack/unpack trait.
//! * [`proto`] — the wire protocol (messages, migration packets, directory
//!   publishes/lookups/answers).
//! * [`directory`] — the sharded location directory: the pointer→shard map,
//!   the bounded sender-side location cache, and the shard authority table
//!   (DESIGN.md §16).
//! * [`node`] — the per-rank runtime: routing, ordering, migration,
//!   application vs. system polling. Its ready-work index (the arrival-
//!   order queue, per-object lanes, O(1) load totals; DESIGN.md §17) is the
//!   crate-private `ready` module.

#![warn(missing_docs)]

pub mod directory;
pub mod migrate;
pub mod node;
#[cfg(feature = "check-invariants")]
pub(crate) mod oracle;
pub mod proto;
pub mod ptr;
pub(crate) mod ready;

/// Whether this build carries the `check-invariants` oracles (and the
/// ready-queue slot's sequence number, DESIGN.md §17). Benchmarks assert it
/// is `false` before they measure.
pub const CHECK_INVARIANTS: bool = cfg!(feature = "check-invariants");

pub use directory::{shard_of, LocCache, ShardAuthority, HARD_CHAIN_LIMIT, MAX_CHAIN};
pub use migrate::{pack_to_vec, Migratable};
pub use node::{MolConfig, MolEvent, MolNode, MolStats, WorkItem};
pub use proto::MolEnvelope;
pub use ptr::{MobilePtr, PtrAllocator};
