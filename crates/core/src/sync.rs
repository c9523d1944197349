//! std-or-loom synchronization facade.
//!
//! The runtime's shutdown-critical code ([`crate::shutdown`], the scheduler
//! mutex in [`crate::runtime`]) imports its primitives from here so the
//! exact same code paths compile against the `loom` model checker when built
//! with `RUSTFLAGS="--cfg loom"`. Production builds get `parking_lot` /
//! `std`; model builds (`crates/core/tests/loom_shutdown.rs`) get loom's
//! instrumented versions, and every schedule of the shutdown protocol is
//! explored exhaustively.

#[cfg(loom)]
pub use loom::sync::atomic::{AtomicBool, Ordering};
#[cfg(loom)]
pub use loom::sync::{Arc, Mutex, MutexGuard};
#[cfg(loom)]
pub use loom::thread::{spawn, JoinHandle};

#[cfg(not(loom))]
pub use parking_lot::{Mutex, MutexGuard};
#[cfg(not(loom))]
pub use std::sync::atomic::{AtomicBool, Ordering};
#[cfg(not(loom))]
pub use std::sync::Arc;
#[cfg(not(loom))]
pub use std::thread::{spawn, JoinHandle};
