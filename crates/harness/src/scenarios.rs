//! The two policy scenarios of DESIGN.md §14, as PREMA applications on the
//! real stack ([`crate::simrank`]): what changes between the rows of a table
//! is [`PremaConfig::policy`] and nothing else.
//!
//! * **interact** — mobile objects that message fixed partner groups after
//!   every task, all born on one rank. Balancing has to spread them;
//!   what it spreads decides how many of their messages cross ranks
//!   afterwards (metric: **remote notes**).
//! * **wave** — work arrives at one rank in escalating waves
//!   ([`simrank::Arrival`]). A diffusive policy waits for each wave's
//!   imbalance to clear its threshold; a begging one waits for a hungry
//!   rank to hear of the wave (metric: **makespan**).
//!
//! An object runs its tasks one at a time: the task handler posts the
//! object's next task to the object itself, hinted at one task's cost, so
//! the balancer weighs a rank by the tasks it could start now, not by the
//! work its objects still hold.

use crate::drivers::UNIT_BYTES;
use crate::simrank::{self, mflop_payload, Arrival, StackRun};
use prema::{PolicyKind, PremaConfig};
use prema_ilb::Scheduler;
use prema_mol::{Migratable, MobilePtr};
use prema_sim::{MachineConfig, SimTime};
use std::sync::atomic::{AtomicU64, Ordering::SeqCst};
use std::sync::{Arc, OnceLock};

/// One task of an [`Actor`].
const H_TASK: u32 = 1;
/// What an actor sends each partner after a task; costs nothing to run.
const H_NOTE: u32 = 2;

/// A scenario's mobile object: `remaining` identical tasks, and a name its
/// partners are worked out from.
struct Actor {
    id: u32,
    remaining: u32,
}

impl Migratable for Actor {
    fn pack(&self, buf: &mut Vec<u8>) {
        let end = buf.len() + UNIT_BYTES;
        buf.extend_from_slice(&self.id.to_le_bytes());
        buf.extend_from_slice(&self.remaining.to_le_bytes());
        buf.resize(end, 0);
    }
    fn unpack(b: &[u8]) -> Self {
        let word = |at: usize| u32::from_le_bytes(b[at..at + 4].try_into().expect("4 bytes"));
        Actor {
            id: word(0),
            remaining: word(4),
        }
    }
}

/// Register the two handlers. A task notes every partner of its actor
/// (`partners(id)`) and posts the next one; a note is counted in `remote`
/// when it was sent from another rank than the one that consumes it.
fn install(
    sched: &mut Scheduler<Actor>,
    task_mflop: f64,
    remote: Arc<AtomicU64>,
    partners: impl Fn(u32) -> Vec<MobilePtr> + Send + Sync + 'static,
) {
    sched.on_message(H_TASK, move |ctx, actor: &mut Actor, item| {
        actor.remaining -= 1;
        for to in partners(actor.id) {
            ctx.message_with_hint(to, H_NOTE, 0.0, mflop_payload(0.0));
        }
        if actor.remaining > 0 {
            ctx.message_with_hint(item.ptr, H_TASK, task_mflop, mflop_payload(task_mflop));
        }
    });
    sched.on_message(H_NOTE, move |ctx, _actor, item| {
        if item.sender != ctx.rank() {
            remote.fetch_add(1, SeqCst);
        }
    });
}

/// A new actor on this rank, its first task posted.
fn spawn(sched: &mut Scheduler<Actor>, id: u32, tasks: u32, task_mflop: f64) -> MobilePtr {
    let ptr = sched.node_mut().register(Actor {
        id,
        remaining: tasks,
    });
    sched
        .node_mut()
        .message_with_hint(ptr, H_TASK, task_mflop, mflop_payload(task_mflop));
    ptr
}

/// The shipped preset with `policy` plugged in.
fn preset(procs: usize, policy: PolicyKind) -> PremaConfig {
    PremaConfig {
        policy,
        ..PremaConfig::implicit(procs)
    }
}

/// Every shipped [`PolicyKind`], the rows of a scenario's table. `task` is
/// one task's hint, where the begging policies draw their water-marks
/// (`implicit_cfg`'s choice for the figures); `threshold` is the diffusive
/// policies' hysteresis and the gradient model's overload mark.
pub fn shipped_policies(task: f64, threshold: f64) -> [PolicyKind; 4] {
    [
        PolicyKind::WorkStealing { watermark: task },
        PolicyKind::Diffusion { threshold },
        PolicyKind::Multilist { low_units: 1 },
        PolicyKind::Gradient {
            low_weight: task,
            high_weight: threshold,
        },
    ]
}

/// `figure -- interact`'s table: the configuration, then a row per shipped
/// policy, the diffusive threshold one task.
pub fn interact_table() -> String {
    let cfg = InteractCfg::default();
    let head = format!("interact: {cfg:?}, {} notes", cfg.notes());
    let policies = shipped_policies(cfg.task_mflop, cfg.task_mflop);
    table(head, policies, |p| run_interact(&cfg, p))
}

/// `figure -- wave`'s table, the diffusive threshold twelve tasks.
pub fn wave_table() -> String {
    let cfg = WaveCfg::default();
    let policies = shipped_policies(cfg.task_mflop, 12.0 * cfg.task_mflop);
    table(format!("wave: {cfg:?}"), policies, |p| run_wave(&cfg, p))
}

/// A scenario's table under `head`: a row per policy.
fn table(head: String, policies: [PolicyKind; 4], run: impl Fn(PolicyKind) -> PolicyRun) -> String {
    let rows = policies.map(|policy| {
        let (out, name) = (run(policy), policy.build(0).name());
        let (notes, moved) = (out.remote_notes, out.migrations());
        let makespan = out.stack.report.makespan;
        format!("{name:<14} {notes:>12} {moved:>11} {makespan:>9}\n")
    });
    head + "\npolicy         remote-notes  migrations  makespan\n" + &rows.concat()
}

/// What one scenario run leaves behind.
pub struct PolicyRun {
    /// The engine's report and every rank's counters.
    pub stack: StackRun,
    /// Work units the run executed, notes included.
    pub units: u64,
    /// Notes consumed on another rank than the one that sent them.
    pub remote_notes: u64,
}

impl PolicyRun {
    /// Objects the balancer moved.
    pub fn migrations(&self) -> u64 {
        self.stack.sched.iter().map(|s| s.granted).sum()
    }
}

/// The interacting-objects scenario.
#[derive(Clone, Copy, Debug)]
pub struct InteractCfg {
    /// Machine size (power of two gives hypercube neighborhoods).
    pub procs: usize,
    /// Partner groups.
    pub groups: usize,
    /// Objects per group (each notes all its group partners).
    pub group_size: usize,
    /// Tasks per object.
    pub tasks_per_object: u32,
    /// Cost and hint of a task, Mflop.
    pub task_mflop: f64,
}

impl Default for InteractCfg {
    fn default() -> Self {
        InteractCfg {
            procs: 8,
            groups: 8,
            group_size: 4,
            tasks_per_object: 48,
            task_mflop: 20.0,
        }
    }
}

impl InteractCfg {
    /// Notes the run sends: one per task and partner.
    pub fn notes(&self) -> u64 {
        (self.groups * self.group_size * (self.group_size - 1)) as u64
            * u64::from(self.tasks_per_object)
    }
}

/// Run the interacting-objects scenario under `policy`. All objects are born
/// on rank 0. Group membership is *strided* across object ids
/// (`group = id % groups`), so registration order — which is queue order,
/// and the order of a weight-sorted summary of equal weights — splits every
/// group; only interaction affinity can see the grouping.
pub fn run_interact(cfg: &InteractCfg, policy: PolicyKind) -> PolicyRun {
    let n_objects = cfg.groups * cfg.group_size;
    let tasks = n_objects as u64 * u64::from(cfg.tasks_per_object);
    let units = tasks + cfg.notes();
    let ptrs: Arc<OnceLock<Vec<MobilePtr>>> = Arc::default();
    let remote = Arc::new(AtomicU64::new(0));
    let (groups, per_object, mflop) = (cfg.groups, cfg.tasks_per_object, cfg.task_mflop);
    let stack = simrank::run::<Actor>(
        MachineConfig::small(cfg.procs),
        &preset(cfg.procs, policy),
        units,
        None,
        Vec::new(),
        |sched| {
            let all = ptrs.clone();
            install(sched, mflop, remote.clone(), move |id| {
                let all = all.get().expect("registered before the first unit");
                (id as usize % groups..all.len())
                    .step_by(groups)
                    .filter(|&j| j != id as usize)
                    .map(|j| all[j])
                    .collect()
            });
            if sched.rank() == 0 {
                let born = (0..n_objects as u32)
                    .map(|id| spawn(sched, id, per_object, mflop))
                    .collect();
                ptrs.set(born).expect("rank 0 populates once");
            }
        },
    );
    PolicyRun {
        stack,
        units,
        remote_notes: remote.load(SeqCst),
    }
}

/// The escalating-waves scenario.
#[derive(Clone, Copy, Debug)]
pub struct WaveCfg {
    /// Machine size.
    pub procs: usize,
    /// Arrival waves, all at rank 0.
    pub waves: usize,
    /// Objects in the first wave (each wave brings one more than the last).
    pub objects_per_wave: usize,
    /// Tasks per object.
    pub tasks_per_object: u32,
    /// Cost and hint of a task, Mflop.
    pub task_mflop: f64,
    /// Gap between wave arrivals.
    pub wave_gap: SimTime,
}

impl Default for WaveCfg {
    fn default() -> Self {
        WaveCfg {
            procs: 8,
            waves: 10,
            objects_per_wave: 6,
            tasks_per_object: 4,
            task_mflop: 25.0,
            wave_gap: SimTime::from_millis(200),
        }
    }
}

/// Run the escalating-waves scenario under `policy`. Wave `w` lands at
/// `w * wave_gap` on rank 0 carrying `objects_per_wave + w` objects.
pub fn run_wave(cfg: &WaveCfg, policy: PolicyKind) -> PolicyRun {
    let (per_object, mflop) = (cfg.tasks_per_object, cfg.task_mflop);
    let mut born = 0u32;
    let arrivals = (0..cfg.waves)
        .map(|w| {
            let ids = born..born + (cfg.objects_per_wave + w) as u32;
            born = ids.end;
            Arrival {
                at: SimTime(cfg.wave_gap.0 * w as u64),
                rank: 0,
                post: Box::new(move |sched: &mut Scheduler<Actor>| {
                    for id in ids {
                        spawn(sched, id, per_object, mflop);
                    }
                }),
            }
        })
        .collect();
    let units = u64::from(born) * u64::from(per_object);
    let remote = Arc::new(AtomicU64::new(0));
    let stack = simrank::run::<Actor>(
        MachineConfig::small(cfg.procs),
        &preset(cfg.procs, policy),
        units,
        None,
        arrivals,
        |sched| install(sched, mflop, remote.clone(), |_| Vec::new()),
    );
    PolicyRun {
        stack,
        units,
        remote_notes: remote.load(SeqCst),
    }
}
