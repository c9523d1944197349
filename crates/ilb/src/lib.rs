//! # prema-ilb — the Implicit Load Balancing framework
//!
//! PREMA's load-balancing layer (Barker, Chernikov, Chrisochoides, Pingali —
//! reference [1] of the SC'03 paper). It separates the dynamic load-balancing
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
//! * [`forecast`] — weight-history rings (EWMA + linear trend) whose
//!   [`Forecast`]s the scheduler feeds to policies for anticipatory
//!   balancing.
//!
//! Explicit vs. implicit invocation (§4.1/§4.2) is composed one level up, in
//! the `prema` facade: explicit mode calls [`Scheduler::poll`] only from
//! application polling points; implicit mode additionally runs
//! [`Scheduler::poll_system`] from a periodic polling thread.

#![warn(missing_docs)]

pub mod forecast;
pub mod policy;
pub mod scheduler;
pub mod stability;

pub use forecast::{Forecast, WeightHistory};
pub use policy::{
    diffusion_neighborhood, pair_partner, Anticipatory, Diffusion, Gradient, LbPolicy, LoadMap,
    LoadSnapshot, Multilist, WorkStealing,
};
pub use scheduler::{
    Execution, HandlerCtx, SchedStats, Scheduler, WorkHandler, NODE_HANDLER_LIMIT,
};
pub use stability::{Governor, StabilityConfig, VetoKind};
