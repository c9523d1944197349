//! Per-configuration drivers for the synthetic benchmark on the simulated
//! 128-processor machine.
//!
//! Each baseline driver is a [`prema_sim::Process`] state machine
//! implementing one runtime model's behaviour for the §5 benchmark: how work
//! units are scheduled, when messages are noticed, and how load balancing
//! proceeds. The PREMA panels are not a model: [`prema_drv`] hands the
//! benchmark to the real runtime stack running on the simulator's clock
//! ([`crate::simrank`]). All share the cost model below so that differences
//! between panels come from the runtimes, not from tuning.

pub mod charm_drv;
pub mod nolb;
pub mod parmetis_drv;
pub mod prema_drv;

use prema_sim::SimTime;
use std::time::Duration;

/// The implicit-mode polling thread's period in every PREMA run of the
/// evaluation (the `ablate_poll_interval` bench sweeps it).
pub const POLL_INTERVAL: Duration = Duration::from_millis(100);

/// CPU cost of selecting the next work unit from the local queue.
pub fn sched_cpu() -> SimTime {
    SimTime::from_micros(5)
}

/// CPU cost of dispatching a work-unit handler (the paper's "Callback
/// Routine Time").
pub fn callback_cpu() -> SimTime {
    SimTime::from_micros(10)
}

/// CPU cost of one implicit-mode polling-thread wake-up (the paper's
/// "Polling Thread Time").
pub fn poll_wake_cpu() -> SimTime {
    SimTime::from_micros(25)
}

/// Wire size of a load-balancing request/refusal.
pub const CTRL_BYTES: usize = 64;

/// Wire size of one migrated work unit (a small mobile object).
pub const UNIT_BYTES: usize = 256;
