//! The mesh-generation study (§5's closing experiment).
//!
//! The paper reports, for a 3-D parallel advancing-front tetrahedral mesh
//! generator under PREMA with preemptive load balancing: **15%** overall
//! runtime improvement over stop-and-repartition, **42%** over no load
//! balancing, with PREMA runtime overheads **under 1%**.
//!
//! Reproduction: the `prema-mesh` mesher is run (for real) over a moving
//! crack front to produce the per-(subdomain, round) tetrahedron counts —
//! genuinely irregular, geometry-driven work. Those costs then drive three
//! runtime models on the simulated cluster:
//!
//! * **no LB** — subdomains stay where the decomposition put them;
//! * **stop-and-repartition** — a barrier after every refinement round,
//!   repartitioning on the *previous* round's measured costs (history-based
//!   — precisely what a moving crack invalidates);
//! * **PREMA implicit** — asynchronous work stealing with preemptive message
//!   processing, reacting to the real load as the round unfolds. Not a
//!   model: the runtime stack itself, on the simulator's clock.

use crate::drivers::{callback_cpu, sched_cpu, CTRL_BYTES, POLL_INTERVAL};
use crate::simrank::{self, mflop_payload};
use prema::{LbMode, PremaConfig};
use prema_mesh::{decompose_unit_cube, CrackFront, Subdomain};
use prema_metis::{adaptive_repart, Graph, PartitionConfig};
use prema_mol::Migratable;
use prema_sim::{Category, Ctx, Engine, MachineConfig, Process, SimReport, SimTime};
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;
use std::cell::Cell;
use std::collections::{HashMap, VecDeque};
use std::rc::Rc;

/// Parameters of the mesh study.
#[derive(Clone, Copy, Debug)]
pub struct MeshEvalSpec {
    /// Simulated machine.
    pub machine: MachineConfig,
    /// Subdomain grid edge (total subdomains = n³).
    pub grid: usize,
    /// Refinement rounds (crack positions).
    pub rounds: usize,
    /// Background element size.
    pub background: f64,
    /// Element size at the crack tip.
    pub refined: f64,
    /// Radius of the refined ball around the tip.
    pub radius: f64,
    /// Cost model: Mflop per generated tetrahedron.
    pub mflop_per_tet: f64,
    /// Seed for runtime policies.
    pub seed: u64,
}

impl MeshEvalSpec {
    /// Paper-scale study: 512 subdomains over 128 processors, 16 rounds.
    pub fn paper() -> Self {
        MeshEvalSpec {
            machine: MachineConfig::paper_testbed(),
            grid: 8,
            rounds: 16,
            background: 0.35,
            refined: 0.12,
            radius: 0.30,
            mflop_per_tet: 12.0,
            seed: 42,
        }
    }

    /// Small, fast study for tests: 27 subdomains over 4 processors.
    pub fn test_scale() -> Self {
        MeshEvalSpec {
            machine: MachineConfig::small(4),
            grid: 3,
            rounds: 3,
            background: 0.45,
            refined: 0.12,
            radius: 0.5,
            mflop_per_tet: 12.0,
            seed: 42,
        }
    }

    /// Total subdomains.
    pub fn subdomains(&self) -> usize {
        self.grid * self.grid * self.grid
    }
}

/// Per-(subdomain, round) computational costs, measured by actually running
/// the mesher.
pub struct CostMatrix {
    /// `costs[s][r]` = Mflop of re-meshing subdomain `s` in round `r`.
    pub costs: Vec<Vec<f64>>,
    /// Subdomain grid edge (for the adjacency graph).
    pub grid: usize,
}

impl CostMatrix {
    /// Run the real mesher over every (subdomain, round) pair.
    pub fn generate(spec: &MeshEvalSpec) -> CostMatrix {
        let mut subs: Vec<Subdomain> =
            decompose_unit_cube(spec.grid, spec.grid, spec.grid, spec.refined);
        let mut costs = vec![Vec::with_capacity(spec.rounds); subs.len()];
        for round in 0..spec.rounds {
            let sizing = CrackFront::at_round(
                spec.background,
                spec.refined,
                spec.radius,
                round,
                spec.rounds,
            );
            for (s, sub) in subs.iter_mut().enumerate() {
                sub.reseed();
                let stats = sub.mesh_all(&sizing);
                costs[s].push((stats.tets_created.max(1)) as f64 * spec.mflop_per_tet);
            }
        }
        CostMatrix {
            costs,
            grid: spec.grid,
        }
    }

    /// Number of subdomains.
    pub fn subdomains(&self) -> usize {
        self.costs.len()
    }

    /// Number of rounds.
    pub fn rounds(&self) -> usize {
        self.costs[0].len()
    }

    /// 6-neighborhood adjacency of the subdomain grid, as a graph edge list.
    pub fn adjacency(&self) -> Vec<(usize, usize, f64)> {
        let n = self.grid;
        let idx = |x: usize, y: usize, z: usize| (z * n + y) * n + x;
        let mut edges = Vec::new();
        for z in 0..n {
            for y in 0..n {
                for x in 0..n {
                    if x + 1 < n {
                        edges.push((idx(x, y, z), idx(x + 1, y, z), 1.0));
                    }
                    if y + 1 < n {
                        edges.push((idx(x, y, z), idx(x, y + 1, z), 1.0));
                    }
                    if z + 1 < n {
                        edges.push((idx(x, y, z), idx(x, y, z + 1), 1.0));
                    }
                }
            }
        }
        edges
    }

    /// Total Mflop across all subdomains and rounds.
    pub fn total_mflop(&self) -> f64 {
        self.costs.iter().flatten().sum()
    }
}

/// A subdomain task: which subdomain, and the next round to execute.
#[derive(Clone, Copy, Debug)]
struct Task {
    sub: u32,
    round: u32,
}

fn block_owner(sub: usize, nsubs: usize, nprocs: usize) -> usize {
    sub * nprocs / nsubs
}

// ---------------------------------------------------------------------------
// No load balancing
// ---------------------------------------------------------------------------

struct NoLbMesh {
    matrix: Rc<CostMatrix>,
    queue: VecDeque<Task>,
}

const T_NEXT: u64 = 1;
const T_WAIT: u64 = 2;

impl Process for NoLbMesh {
    fn on_start(&mut self, ctx: &mut Ctx) {
        ctx.schedule(SimTime::ZERO, T_NEXT);
    }
    fn on_timer(&mut self, ctx: &mut Ctx, _token: u64) {
        match self.queue.pop_front() {
            Some(t) => {
                ctx.consume(Category::Scheduling, sched_cpu());
                ctx.consume(Category::Callback, callback_cpu());
                let mflop = self.matrix.costs[t.sub as usize][t.round as usize];
                let dur = ctx.work_time(mflop);
                ctx.consume(Category::Computation, dur);
                if (t.round as usize) + 1 < self.matrix.rounds() {
                    self.queue.push_back(Task {
                        sub: t.sub,
                        round: t.round + 1,
                    });
                }
                ctx.schedule(SimTime::ZERO, T_NEXT);
            }
            None => ctx.finish(),
        }
    }
}

/// Run the mesh workload with no load balancing.
pub fn run_nolb(spec: &MeshEvalSpec, matrix: &Rc<CostMatrix>) -> SimReport {
    let nsubs = matrix.subdomains();
    Engine::build(spec.machine, |p| {
        let queue: VecDeque<Task> = (0..nsubs)
            .filter(|&s| block_owner(s, nsubs, spec.machine.procs) == p)
            .map(|s| Task {
                sub: s as u32,
                round: 0,
            })
            .collect();
        Box::new(NoLbMesh {
            matrix: matrix.clone(),
            queue,
        })
    })
    .run()
}

// ---------------------------------------------------------------------------
// PREMA implicit work stealing
// ---------------------------------------------------------------------------

/// Packed size of a subdomain mid-refinement: what one migration puts on the
/// wire.
const SUBDOMAIN_BYTES: usize = 4096;

/// The handler that re-meshes a subdomain for one refinement round.
const H_REFINE: u32 = 1;

/// A subdomain as a PREMA mobile object. Its row of the cost matrix travels
/// with it, standing in for the geometry that decides what each round's
/// re-meshing costs.
struct SubdomainObj {
    /// Rounds finished so far.
    round: usize,
    /// `costs[r]` = Mflop of re-meshing this subdomain in round `r`.
    costs: Vec<f64>,
}

impl Migratable for SubdomainObj {
    fn pack(&self, buf: &mut Vec<u8>) {
        let end = buf.len() + SUBDOMAIN_BYTES;
        buf.extend((self.round as u64).to_le_bytes());
        buf.extend((self.costs.len() as u64).to_le_bytes());
        for c in &self.costs {
            buf.extend(c.to_le_bytes());
        }
        assert!(buf.len() <= end, "cost row outgrew the packed subdomain");
        buf.resize(end, 0);
    }

    fn unpack(bytes: &[u8]) -> Self {
        let word = |i: usize| -> [u8; 8] {
            bytes[8 * i..8 * i + 8]
                .try_into()
                .expect("an 8-byte slice is an [u8; 8]")
        };
        let n = u64::from_le_bytes(word(1)) as usize;
        SubdomainObj {
            round: u64::from_le_bytes(word(0)) as usize,
            costs: (0..n).map(|i| f64::from_le_bytes(word(2 + i))).collect(),
        }
    }
}

/// Run the mesh workload under PREMA implicit work stealing: the real
/// runtime stack ([`crate::simrank`]) in its shipped implicit configuration,
/// each subdomain a mobile object that re-posts itself once per refinement
/// round. Hints are the runtime's default (1 per message: a processor knows
/// how many subdomains it holds, not what the moving crack will make them
/// cost), so it begs as it begins its last queued one.
pub fn run_prema(spec: &MeshEvalSpec, matrix: &Rc<CostMatrix>) -> SimReport {
    let nsubs = matrix.subdomains();
    let nprocs = spec.machine.procs;
    let cfg = PremaConfig {
        mode: LbMode::Implicit {
            poll_interval: POLL_INTERVAL,
        },
        seed: spec.seed,
        ..PremaConfig::implicit(nprocs)
    };
    let units = (nsubs * matrix.rounds()) as u64;
    simrank::run::<SubdomainObj>(spec.machine, &cfg, units, None, Vec::new(), |sched| {
        sched.on_message(H_REFINE, |ctx, sub: &mut SubdomainObj, item| {
            sub.round += 1;
            if let Some(&next) = sub.costs.get(sub.round) {
                ctx.message(item.ptr, H_REFINE, mflop_payload(next));
            }
        });
        let rank = sched.rank();
        for s in (0..nsubs).filter(|&s| block_owner(s, nsubs, nprocs) == rank) {
            let costs = matrix.costs[s].clone();
            let first = mflop_payload(costs[0]);
            let ptr = sched.node_mut().register(SubdomainObj { round: 0, costs });
            sched.node_mut().message(ptr, H_REFINE, first);
        }
    })
    .report
}

// ---------------------------------------------------------------------------
// Stop-and-repartition
// ---------------------------------------------------------------------------

const K_UNDER: u32 = 10; // worker -> root: starved
const K_DENY: u32 = 11; // root -> worker: keep waiting
const K_SYNC: u32 = 12; // root -> all: stop and exchange queues
const K_LOADS: u32 = 13; // worker -> root: queued tasks + stale hints
const K_ASSIGN: u32 = 14; // root -> worker: migration orders
const K_TASKS: u32 = 15; // worker -> worker: migrated tasks

struct SrLoads {
    epoch: u64,
    tasks: Vec<Task>,
}
struct SrAssign {
    orders: Vec<(Task, usize)>,
    incoming: usize,
    partition_cpu: SimTime,
}
struct SrTasks {
    tasks: Vec<Task>,
}
struct SrEmpty;

#[derive(PartialEq, Clone, Copy)]
enum SrPhase {
    Normal,
    AwaitVerdict,
    Barrier,
    Migrate { expect: usize },
}

struct SrRoot {
    syncing: bool,
    epoch: u64,
    last_sync_end: SimTime,
    loads: Vec<Option<Vec<Task>>>,
}

/// Stop-and-repartition over the same asynchronous task stream the PREMA
/// driver executes: processors run subdomain-round tasks independently;
/// when one starves it notifies the root, which (after its own polling
/// delay) may stop the world, gather every queue with its *stale* cost
/// hints (each task is priced at its subdomain's previous-round cost — the
/// only history available), repartition with the URA, and migrate tasks.
struct StopRepartMesh {
    matrix: Rc<CostMatrix>,
    queue: VecDeque<Task>,
    phase: SrPhase,
    cur_epoch: u64,
    sync_pending: bool,
    last_under: Option<SimTime>,
    cooldown: SimTime,
    /// Migrated tasks that arrived before their ASSIGN did.
    early_tasks: usize,
    root: Option<SrRoot>,
    units_left: Rc<Cell<u64>>,
    rng: StdRng,
}

impl StopRepartMesh {
    /// A task's (stale) cost hint: its subdomain's previous-round cost.
    fn hint(&self, t: &Task) -> f64 {
        let r = t.round as usize;
        if r == 0 {
            // Nothing measured yet: assume uniformity.
            self.matrix.total_mflop() / (self.matrix.subdomains() * self.matrix.rounds()) as f64
        } else {
            self.matrix.costs[t.sub as usize][r - 1]
        }
    }

    fn process_all(&mut self, ctx: &mut Ctx) {
        for msg in ctx.poll() {
            let src = msg.src;
            match msg.kind {
                K_UNDER => {
                    let _ = msg.take::<SrEmpty>();
                    self.root_consider_sync(ctx, src);
                }
                K_DENY => {
                    let _ = msg.take::<SrEmpty>();
                    if self.phase == SrPhase::AwaitVerdict {
                        self.phase = SrPhase::Normal;
                    }
                }
                K_SYNC => {
                    let epoch = msg.take::<u64>();
                    self.cur_epoch = epoch;
                    if matches!(self.phase, SrPhase::Normal | SrPhase::AwaitVerdict) {
                        self.enter_barrier(ctx);
                    } else {
                        self.sync_pending = true;
                    }
                }
                K_LOADS => {
                    let loads = msg.take::<SrLoads>();
                    let root = self.root.as_mut().expect("LOADS at non-root");
                    if loads.epoch != root.epoch || !root.syncing {
                        continue;
                    }
                    root.loads[src] = Some(loads.tasks);
                    if root.loads.iter().all(|l| l.is_some()) {
                        self.root_repartition(ctx);
                    }
                }
                K_ASSIGN => {
                    let assign = msg.take::<SrAssign>();
                    self.apply_assign(ctx, assign);
                }
                K_TASKS => {
                    let tasks = msg.take::<SrTasks>();
                    let n = tasks.tasks.len();
                    self.queue.extend(tasks.tasks);
                    if let SrPhase::Migrate { expect } = &mut self.phase {
                        *expect = expect.saturating_sub(n);
                        if *expect == 0 {
                            self.phase = SrPhase::Normal;
                            if self.sync_pending {
                                self.sync_pending = false;
                                self.enter_barrier(ctx);
                            }
                        }
                    } else {
                        // ASSIGN hasn't reached us yet; credit it later.
                        self.early_tasks += n;
                    }
                }
                other => panic!("stop-repartition mesh driver: unknown kind {other}"),
            }
        }
    }

    fn root_consider_sync(&mut self, ctx: &mut Ctx, src: usize) {
        let now = ctx.now();
        let n = ctx.num_procs();
        let me = ctx.pid();
        let root = self.root.as_mut().expect("UNDER at non-root");
        let mut deny = false;
        if root.syncing || now.saturating_sub(root.last_sync_end) < self.cooldown {
            deny = true;
        }
        if self.units_left.get() < (n as u64) {
            deny = true; // too little outstanding work to warrant balancing
        }
        if deny {
            if src != me {
                ctx.send(src, K_DENY, CTRL_BYTES, Box::new(SrEmpty));
            }
            return;
        }
        let root = self.root.as_mut().unwrap();
        root.syncing = true;
        root.epoch += 1;
        let epoch = root.epoch;
        root.loads = vec![None; n];
        self.cur_epoch = epoch;
        for dst in 0..n {
            if dst != me {
                ctx.send(dst, K_SYNC, CTRL_BYTES, Box::new(epoch));
            }
        }
        if matches!(self.phase, SrPhase::Normal | SrPhase::AwaitVerdict) {
            self.enter_barrier(ctx);
        }
    }

    fn enter_barrier(&mut self, ctx: &mut Ctx) {
        let mine: Vec<Task> = self.queue.iter().copied().collect();
        let size = CTRL_BYTES + 8 * mine.len();
        ctx.consume(Category::Synchronization, SimTime::from_micros(200));
        self.phase = SrPhase::Barrier;
        if ctx.pid() == 0 {
            let epoch = self.cur_epoch;
            let root = self.root.as_mut().unwrap();
            let _ = epoch;
            root.loads[0] = Some(mine);
            let root = self.root.as_ref().unwrap();
            if root.loads.iter().all(|l| l.is_some()) {
                self.root_repartition(ctx);
            }
        } else {
            ctx.send(
                0,
                K_LOADS,
                size,
                Box::new(SrLoads {
                    epoch: self.cur_epoch,
                    tasks: mine,
                }),
            );
        }
    }

    fn root_repartition(&mut self, ctx: &mut Ctx) {
        let n = ctx.num_procs();
        let me = ctx.pid();
        let (tasks, old_owner): (Vec<Task>, Vec<u32>) = {
            let root = self.root.as_mut().unwrap();
            let mut tasks = Vec::new();
            let mut owner = Vec::new();
            for (p, l) in root.loads.iter_mut().enumerate() {
                for t in l.take().expect("missing loads") {
                    tasks.push(t);
                    owner.push(p as u32);
                }
            }
            (tasks, owner)
        };
        let nv = tasks.len();
        let new_owner: Vec<u32> = if nv == 0 {
            Vec::new()
        } else {
            // Graph over queued tasks: subdomain-grid adjacency between the
            // tasks' subdomains, weighted by the stale hints.
            let vwgt: Vec<f64> = tasks.iter().map(|t| self.hint(t).max(1e-6)).collect();
            let mut by_sub: HashMap<u32, Vec<usize>> = HashMap::new();
            for (i, t) in tasks.iter().enumerate() {
                by_sub.entry(t.sub).or_default().push(i);
            }
            let mut edges = Vec::new();
            for (a, b, w) in self.matrix.adjacency() {
                if let (Some(xs), Some(ys)) = (by_sub.get(&(a as u32)), by_sub.get(&(b as u32))) {
                    for &x in xs {
                        for &y in ys {
                            edges.push((x, y, w));
                        }
                    }
                }
            }
            let g = Graph::from_edges(nv, &edges, vwgt);
            adaptive_repart(
                &g,
                &old_owner,
                n,
                1.0,
                &PartitionConfig {
                    seed: 0xBEEF,
                    ..PartitionConfig::default()
                },
            )
            .part
        };
        let partition_cpu = SimTime::from_micros(20 * nv as u64 + 5_000);
        let mut orders: Vec<Vec<(Task, usize)>> = vec![Vec::new(); n];
        let mut incoming = vec![0usize; n];
        for i in 0..nv {
            let (from, to) = (old_owner[i] as usize, new_owner[i] as usize);
            if from != to {
                orders[from].push((tasks[i], to));
                incoming[to] += 1;
            }
        }
        let root = self.root.as_mut().unwrap();
        root.syncing = false;
        root.last_sync_end = ctx.now();
        for dst in 0..n {
            let assign = SrAssign {
                orders: std::mem::take(&mut orders[dst]),
                incoming: incoming[dst],
                partition_cpu,
            };
            if dst == me {
                self.apply_assign(ctx, assign);
            } else {
                ctx.send(
                    dst,
                    K_ASSIGN,
                    CTRL_BYTES + 12 * assign.orders.len(),
                    Box::new(assign),
                );
            }
        }
    }

    fn apply_assign(&mut self, ctx: &mut Ctx, assign: SrAssign) {
        ctx.consume(Category::PartitionCalc, assign.partition_cpu);
        let credited = std::mem::take(&mut self.early_tasks);
        let mut by_dest: Vec<(usize, Vec<Task>)> = Vec::new();
        for (task, dest) in assign.orders {
            let pos = self
                .queue
                .iter()
                .position(|t| t.sub == task.sub && t.round == task.round)
                .expect("ordered to move a task we do not hold");
            let t = self.queue.remove(pos).unwrap();
            match by_dest.iter_mut().find(|(d, _)| *d == dest) {
                Some((_, v)) => v.push(t),
                None => by_dest.push((dest, vec![t])),
            }
        }
        for (dest, tasks) in by_dest {
            let size = CTRL_BYTES + 4096 * tasks.len();
            ctx.send(dest, K_TASKS, size, Box::new(SrTasks { tasks }));
        }
        let expect = assign.incoming.saturating_sub(credited);
        if expect > 0 {
            self.phase = SrPhase::Migrate { expect };
        } else {
            self.phase = SrPhase::Normal;
            if self.sync_pending {
                self.sync_pending = false;
                self.enter_barrier(ctx);
            }
        }
    }
}

impl Process for StopRepartMesh {
    fn on_start(&mut self, ctx: &mut Ctx) {
        ctx.schedule(SimTime::ZERO, T_NEXT);
    }
    fn on_timer(&mut self, ctx: &mut Ctx, _token: u64) {
        self.process_all(ctx);
        match self.phase {
            SrPhase::Barrier | SrPhase::Migrate { .. } | SrPhase::AwaitVerdict => {
                ctx.wait_msg_as(T_WAIT, Category::Synchronization);
                return;
            }
            SrPhase::Normal => {}
        }
        // Starved? Notify the root (rate-limited).
        if self.queue.is_empty() && self.units_left.get() > 0 {
            let due = self
                .last_under
                .is_none_or(|t| ctx.now().saturating_sub(t) >= self.cooldown);
            if due {
                self.last_under = Some(ctx.now());
                if self.root.is_some() {
                    let me = ctx.pid();
                    self.root_consider_sync(ctx, me);
                } else {
                    ctx.send(0, K_UNDER, CTRL_BYTES, Box::new(SrEmpty));
                    self.phase = SrPhase::AwaitVerdict;
                    ctx.wait_msg_as(T_WAIT, Category::Synchronization);
                    return;
                }
            }
        }
        match self.queue.pop_front() {
            Some(t) => {
                ctx.consume(Category::Scheduling, sched_cpu());
                ctx.consume(Category::Callback, callback_cpu());
                let mflop = self.matrix.costs[t.sub as usize][t.round as usize];
                let dur = ctx.work_time(mflop);
                ctx.consume(Category::Computation, dur);
                self.units_left.set(self.units_left.get() - 1);
                if (t.round as usize) + 1 < self.matrix.rounds() {
                    self.queue.push_back(Task {
                        sub: t.sub,
                        round: t.round + 1,
                    });
                }
                ctx.schedule(SimTime::ZERO, T_NEXT);
            }
            None => {
                if self.units_left.get() == 0 {
                    ctx.finish();
                } else {
                    let step = SimTime::from_millis(self.rng.gen_range(300..700));
                    ctx.consume(Category::Idle, step);
                    ctx.schedule(SimTime::ZERO, T_NEXT);
                }
            }
        }
    }
}

/// Run the mesh workload under stop-and-repartition.
pub fn run_stop_repartition(spec: &MeshEvalSpec, matrix: &Rc<CostMatrix>) -> SimReport {
    let nsubs = matrix.subdomains();
    let nprocs = spec.machine.procs;
    let units_left = Rc::new(Cell::new((nsubs * matrix.rounds()) as u64));
    let initial_owner: Vec<u32> = (0..nsubs)
        .map(|s| block_owner(s, nsubs, nprocs) as u32)
        .collect();
    Engine::build(spec.machine, |p| {
        let queue: VecDeque<Task> = (0..nsubs as u32)
            .filter(|&s| initial_owner[s as usize] == p as u32)
            .map(|s| Task { sub: s, round: 0 })
            .collect();
        Box::new(StopRepartMesh {
            matrix: matrix.clone(),
            queue,
            phase: SrPhase::Normal,
            cur_epoch: 0,
            sync_pending: false,
            last_under: None,
            cooldown: SimTime::from_millis(2500),
            early_tasks: 0,
            root: if p == 0 {
                Some(SrRoot {
                    syncing: false,
                    epoch: 0,
                    last_sync_end: SimTime::ZERO,
                    loads: vec![None; nprocs],
                })
            } else {
                None
            },
            units_left: units_left.clone(),
            rng: StdRng::seed_from_u64(spec.seed.wrapping_add(p as u64 * 104729)),
        })
    })
    .run()
}

/// The three-way study result.
pub struct MeshEvalResult {
    /// No load balancing.
    pub nolb: SimReport,
    /// Stop-and-repartition.
    pub stop_repart: SimReport,
    /// PREMA implicit.
    pub prema: SimReport,
}

impl MeshEvalResult {
    /// PREMA's saving over no LB (paper: 42%).
    pub fn saving_vs_nolb(&self) -> f64 {
        1.0 - self.prema.makespan.as_secs_f64() / self.nolb.makespan.as_secs_f64()
    }

    /// PREMA's saving over stop-and-repartition (paper: 15%).
    pub fn saving_vs_stop_repart(&self) -> f64 {
        1.0 - self.prema.makespan.as_secs_f64() / self.stop_repart.makespan.as_secs_f64()
    }

    /// PREMA runtime overhead fraction (paper: < 1%).
    pub fn prema_overhead(&self) -> f64 {
        self.prema.overhead_fraction()
    }

    /// Human-readable summary.
    pub fn render(&self) -> String {
        format!(
            "==== 3-D advancing-front mesh generation study ====\n\
             no load balancing:     {:>9.1}s\n\
             stop-and-repartition:  {:>9.1}s\n\
             PREMA implicit:        {:>9.1}s\n\
             PREMA saving vs no LB:            {:>5.1}%  (paper: 42%)\n\
             PREMA saving vs stop-repartition: {:>5.1}%  (paper: 15%)\n\
             PREMA runtime overhead:           {:>6.3}% (paper: <1%)\n",
            self.nolb.makespan.as_secs_f64(),
            self.stop_repart.makespan.as_secs_f64(),
            self.prema.makespan.as_secs_f64(),
            self.saving_vs_nolb() * 100.0,
            self.saving_vs_stop_repart() * 100.0,
            self.prema_overhead() * 100.0,
        )
    }
}

/// Run the full three-way study.
pub fn run_mesh_eval(spec: &MeshEvalSpec) -> MeshEvalResult {
    let matrix = Rc::new(CostMatrix::generate(spec));
    MeshEvalResult {
        nolb: run_nolb(spec, &matrix),
        stop_repart: run_stop_repartition(spec, &matrix),
        prema: run_prema(spec, &matrix),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn matrix() -> (MeshEvalSpec, Rc<CostMatrix>) {
        let spec = MeshEvalSpec::test_scale();
        (spec, Rc::new(CostMatrix::generate(&spec)))
    }

    #[test]
    fn cost_matrix_is_irregular_and_moving() {
        let (spec, m) = matrix();
        assert_eq!(m.subdomains(), 27);
        assert_eq!(m.rounds(), spec.rounds);
        // Within a round, costs vary strongly (crack vs far-away).
        let r0: Vec<f64> = m.costs.iter().map(|c| c[0]).collect();
        let max = r0.iter().cloned().fold(0.0, f64::max);
        let min = r0.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(max > min * 2.0, "round 0 not irregular: {min}..{max}");
        // The hot subdomain moves between rounds.
        let hot_of = |r: usize| {
            (0..m.subdomains())
                .max_by(|&a, &b| m.costs[a][r].partial_cmp(&m.costs[b][r]).unwrap())
                .unwrap()
        };
        assert_ne!(hot_of(0), hot_of(m.rounds() - 1), "crack never moved");
    }

    #[test]
    fn all_three_drivers_conserve_work() {
        let (spec, m) = matrix();
        let expect = m.total_mflop() / spec.machine.mflops;
        for rep in [
            run_nolb(&spec, &m),
            run_prema(&spec, &m),
            run_stop_repartition(&spec, &m),
        ] {
            let got = rep.total_of(Category::Computation).as_secs_f64();
            assert!((got - expect).abs() < 1e-6, "{got} vs {expect}");
        }
    }

    #[test]
    fn prema_beats_nolb_and_stop_repartition() {
        let spec = MeshEvalSpec::test_scale();
        let result = run_mesh_eval(&spec);
        assert!(
            result.saving_vs_nolb() > 0.05,
            "vs nolb only {:.1}%",
            result.saving_vs_nolb() * 100.0
        );
        assert!(
            result.saving_vs_stop_repart() > 0.0,
            "vs stop-repart {:.1}%",
            result.saving_vs_stop_repart() * 100.0
        );
    }

    #[test]
    fn prema_overhead_is_below_one_percent() {
        let spec = MeshEvalSpec::test_scale();
        let result = run_mesh_eval(&spec);
        assert!(
            result.prema_overhead() < 0.01,
            "overhead {:.3}%",
            result.prema_overhead() * 100.0
        );
    }

    #[test]
    fn stop_repartition_pays_synchronization() {
        let (spec, m) = matrix();
        let rep = run_stop_repartition(&spec, &m);
        assert!(rep.total_of(Category::Synchronization) > SimTime::ZERO);
        assert!(rep.total_of(Category::PartitionCalc) > SimTime::ZERO);
    }
}
