//! # prema-ilb — the Implicit Load Balancing framework
//!
//! PREMA's load-balancing layer (Barker, Chernikov, Chrisochoides, Pingali —
//! reference \[1\] of the SC'03 paper). It separates the dynamic load-balancing
//! problem into the three steps of §2 — information dissemination, decision
//! making, migration — and makes each pluggable:
//!
//! * [`policy`] — decision logic behind the [`LbPolicy`] trait: the paper's
//!   Work Stealing (paired neighbors + water-marks), Diffusion (Cybenko),
//!   and Multilist Scheduling. Policies are pure: the same objects drive the
//!   threaded runtime and the discrete-event evaluation harness.
//! * [`scheduler`] — the mechanism: a per-rank message-driven scheduler that
//!   routes work, executes handlers on *detached* objects (so a preemptive
//!   polling thread can keep balancing concurrently), answers work requests
//!   by migrating mobile objects together with their queued messages, and
//!   evaluates water-marks after every unit.
//! * [`stability`] — the migration stability governor (DESIGN.md §14):
//!   per-object minimum residency, a per-rank migration-rate cap, and grant
//!   hysteresis, enforced at the mechanism layer so every policy benefits.
//!
//! Explicit vs. implicit invocation (§4.1/§4.2) is composed one level up, in
//! the `prema` facade: explicit mode calls [`Scheduler::poll`] only from
//! application polling points; implicit mode additionally runs
//! [`Scheduler::poll_system`] from a periodic polling thread.

#![warn(missing_docs)]

pub mod policy;
pub mod scheduler;
pub mod stability;

/// Whether this build carries the `check-invariants` oracles, the
/// scheduler's conservation check among them. Benchmarks assert it is
/// `false` before they measure.
pub const CHECK_INVARIANTS: bool = cfg!(feature = "check-invariants");

pub use policy::{
    diffusion_neighborhood, pair_partner, Diffusion, Gradient, LbPolicy, LoadMap, LoadSnapshot,
    Multilist, WorkStealing,
};
pub use scheduler::{
    Execution, HandlerCtx, SchedStats, Scheduler, WorkHandler, LB_NACK, LB_REQUEST, LB_STATUS,
    NODE_HANDLER_LIMIT,
};
pub use stability::{Governor, StabilityConfig, VetoKind};
