//! Per-configuration drivers on the simulated 128-processor machine.
//!
//! Each baseline driver is a [`prema_sim::Process`] state machine
//! implementing one runtime model's behaviour: how work units are scheduled,
//! when messages are noticed, and how load balancing proceeds. The no-LB and
//! stop-and-repartition models ([`nolb`], [`parmetis_drv`]) run any
//! [`Workload`]: the §5 benchmark ([`BenchSpec`]) and the mesh study
//! ([`crate::mesh_eval`]) execute on the same two models. The Charm++ model
//! ([`charm_drv`]) runs the benchmark as a chare array. The PREMA panels
//! are not a model: [`prema_drv`] hands the benchmark to the real runtime
//! stack running on the simulator's clock ([`crate::simrank`]). All share
//! the cost model below so that differences between panels come from the
//! runtimes, not from tuning.

pub mod charm_drv;
pub mod nolb;
pub mod parmetis_drv;
pub mod prema_drv;

use crate::spec::{BenchSpec, WorkUnit};
use prema_sim::{MachineConfig, SimTime};
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

/// The work a baseline model executes, and nothing of how it is balanced:
/// which units each processor starts with, what each really costs and what
/// the application says it costs, what its completion queues next, and the
/// graph the repartitioner cuts.
pub trait Workload: Clone + 'static {
    /// One schedulable unit of work. A unit names itself: migration orders
    /// find their unit in a queue by equality.
    type Unit: Copy + PartialEq + 'static;

    /// Wire size of one migrated unit.
    const UNIT_BYTES: usize;

    /// The simulated machine the work runs on.
    fn machine(&self) -> MachineConfig;

    /// Seed for the model's own randomness.
    fn seed(&self) -> u64;

    /// Processor `p`'s initial queue, in execution order.
    fn initial_queue(&self, p: usize) -> Vec<Self::Unit>;

    /// A unit's true cost, Mflop.
    fn mflop(&self, unit: &Self::Unit) -> f64;

    /// The cost the application tells a balancer, Mflop.
    fn hint_mflop(&self, unit: &Self::Unit) -> f64;

    /// The unit a completion queues, at the back of the same processor's
    /// queue, if any.
    fn follow_on(&self, unit: &Self::Unit) -> Option<Self::Unit>;

    /// The repartitioner's graph over `units`: weighted edges between
    /// indices into the slice.
    fn graph_edges(&self, units: &[Self::Unit]) -> Vec<(usize, usize, f64)>;

    /// Units the whole run executes, follow-ons included.
    fn total_units(&self) -> usize;

    /// Hint Mflop summed over every unit the run executes.
    fn total_hint_mflop(&self) -> f64;
}

/// The §5 benchmark: independent units, dealt block-wise, each run once.
impl Workload for BenchSpec {
    type Unit = WorkUnit;

    const UNIT_BYTES: usize = UNIT_BYTES;

    fn machine(&self) -> MachineConfig {
        self.machine
    }

    fn seed(&self) -> u64 {
        self.seed
    }

    fn initial_queue(&self, p: usize) -> Vec<WorkUnit> {
        self.units_of_proc(p)
    }

    fn mflop(&self, unit: &WorkUnit) -> f64 {
        unit.mflop
    }

    fn hint_mflop(&self, unit: &WorkUnit) -> f64 {
        unit.hint_mflop
    }

    fn follow_on(&self, _unit: &WorkUnit) -> Option<WorkUnit> {
        None
    }

    /// A chain by global index: the surrogate for mesh adjacency.
    fn graph_edges(&self, units: &[WorkUnit]) -> Vec<(usize, usize, f64)> {
        let mut order: Vec<usize> = (0..units.len()).collect();
        order.sort_by_key(|&i| units[i].id);
        order.windows(2).map(|w| (w[0], w[1], 0.01)).collect()
    }

    fn total_units(&self) -> usize {
        BenchSpec::total_units(self)
    }

    fn total_hint_mflop(&self) -> f64 {
        self.units().iter().map(|u| u.hint_mflop).sum()
    }
}
