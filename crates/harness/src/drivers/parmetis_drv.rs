//! Configuration (d): ParMETIS-style stop-and-repartition.
//!
//! The protocol the paper describes for its ParMETIS tests (§5):
//!
//! 1. processors execute their units, reporting progress to a root;
//! 2. when a processor's (hint-estimated) remaining load falls below a
//!    water-mark it notifies the root;
//! 3. the root, if it judges enough outstanding work remains, asks *all*
//!    processors to exchange workload information — a global synchronization
//!    that busy processors only notice at their next unit boundary;
//! 4. the remaining work units are repartitioned with the **Unified
//!    Repartitioning Algorithm** (`prema_metis::adaptive_repart`, run on the
//!    *inaccurate hint weights* the application supplies) and migrated;
//! 5. execution resumes; further underload notifications can trigger the
//!    whole cycle again — synchronization costs are paid each time.
//!
//! Before the exchange, the root applies the paper's observed failure mode:
//! if too little work remains, or it sits on too few processors, for a
//! repartitioning to be effective, the units are "mandated to remain" — the
//! starved processor having already paid its wait for the verdict (the
//! Figure 4(d) situation).
//!
//! The model runs any [`Workload`]: the figures' benchmark and the mesh
//! study ([`crate::mesh_eval`]) differ only in their work and in
//! [`ParMetisCfg`] values.

use super::{callback_cpu, sched_cpu, Workload, CTRL_BYTES};
use prema_metis::{adaptive_repart, Graph, PartitionConfig};
use prema_sim::{Category, Ctx, Engine, Process, SimReport, SimTime, TraceSink};
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;
use std::cell::Cell;
use std::collections::VecDeque;
use std::rc::Rc;
use std::sync::Arc;

const K_PROGRESS: u32 = 1; // worker → root: units completed since last report
const K_UNDER: u32 = 2; // worker → root: below water-mark
const K_SYNC: u32 = 3; // root → all: stop and exchange loads
const K_LOADS: u32 = 4; // worker → root: remaining units (hints)
const K_ASSIGN: u32 = 5; // root → worker: migration orders + partition cost
const K_UNITS: u32 = 6; // worker → worker: migrated units
const K_DENY: u32 = 7; // root → worker: not enough outstanding work to sync

const T_NEXT: u64 = 1;
const T_WAIT: u64 = 2;

/// Driver tuning.
#[derive(Clone, Copy, Debug)]
pub struct ParMetisCfg {
    /// Water-mark (hint Mflop): notify root below this remaining load. At
    /// `0.0` a processor notifies only once its queue has run dry.
    pub watermark_mflop: f64,
    /// Root triggers a sync only if this much virtual time has passed since
    /// the last one (prevents back-to-back syncs, allows repeated ones).
    pub cooldown: SimTime,
    /// Repartition only if at least this fraction of processors still hold
    /// meaningful work ("enough outstanding work in the system"): with the
    /// sources concentrated on a sliver of the machine, the URA's movement
    /// cost dominates and units are mandated to remain (the paper's
    /// Figure 4(d)/6(d) behaviour).
    pub min_source_coverage: f64,
    /// ParMETIS Relative Cost Factor α in `|Ecut| + α·|Vmove|`.
    pub alpha: f64,
    /// Report progress to the root every this many completed units.
    pub progress_batch: u64,
}

impl Default for ParMetisCfg {
    fn default() -> Self {
        ParMetisCfg {
            watermark_mflop: 800.0,
            cooldown: SimTime::from_millis(2200),
            min_source_coverage: 0.25,
            alpha: 1.0,
            progress_batch: 16,
        }
    }
}

struct Loads<U> {
    epoch: u64,
    units: Vec<U>,
}
struct Assign<U> {
    /// Units this worker must ship, each with its destination.
    orders: Vec<(U, usize)>,
    /// How many units this worker will receive.
    incoming: usize,
    /// Modelled partition-computation time, charged on every processor.
    partition_cpu: SimTime,
}

#[derive(PartialEq, Debug, Clone, Copy)]
enum Phase {
    Normal,
    /// Underload notification sent; waiting for the root's verdict.
    AwaitVerdict,
    /// Told to sync; loads sent; waiting for ASSIGN.
    Barrier,
    /// ASSIGN received; waiting for `expect` incoming unit messages.
    Migrate {
        expect: usize,
    },
}

/// Root-only bookkeeping.
struct RootState<U> {
    total_initial_mflop: f64,
    executed_mflop_reported: f64,
    /// Reported executed Mflop per processor (root "is kept aware of which
    /// work units have completed").
    executed_per_proc: Vec<f64>,
    /// Hint-Mflop per processor over the whole run, were it evenly spread.
    initial_per_proc: f64,
    syncing: bool,
    /// Current synchronization round; LOADS from other rounds are stale.
    epoch: u64,
    last_sync_end: SimTime,
    loads: Vec<Option<Vec<U>>>,
}

impl<U> RootState<U> {
    /// "The root processor is kept aware of which work units have
    /// completed …, and is therefore able to make a determination of
    /// whether or not there is enough outstanding work in the system to
    /// warrant load balancing" (§5): the enough-work determination runs
    /// *before* the machine is disturbed. Past the cooldown, two parts:
    /// some work must be left at all, and it must not be concentrated on a
    /// sliver of the machine (in which case the repartitioner cannot
    /// produce an effective partitioning and units are mandated to remain).
    fn warrants_sync(&self, now: SimTime, cfg: &ParMetisCfg) -> bool {
        if self.syncing || now.saturating_sub(self.last_sync_end) < cfg.cooldown {
            return false;
        }
        let remaining = self.total_initial_mflop - self.executed_mflop_reported;
        if remaining <= self.total_initial_mflop * 0.01 {
            return false;
        }
        let meaningful = self.initial_per_proc * 0.02 + 2.0 * 500.0;
        let sources = self
            .executed_per_proc
            .iter()
            .filter(|&&e| self.initial_per_proc - e > meaningful)
            .count();
        sources as f64 >= cfg.min_source_coverage * self.executed_per_proc.len() as f64
    }
}

/// Per-processor driver.
pub struct ParMetisProc<W: Workload> {
    cfg: ParMetisCfg,
    work: Rc<W>,
    queue: VecDeque<W::Unit>,
    phase: Phase,
    last_under: Option<SimTime>,
    unreported: u64,
    unreported_mflop: f64,
    /// Buffered early-arriving migrations (UNITS before ASSIGN).
    early_units: usize,
    root: Option<RootState<W::Unit>>,
    /// Machine-wide unexecuted units (application-level completion oracle).
    units_left: Rc<Cell<u64>>,
    /// A sync request arrived while migrating; honor it once settled.
    sync_pending: bool,
    /// Epoch of the sync round this worker is (or will be) part of.
    cur_epoch: u64,
    rng: StdRng,
}

impl<W: Workload> ParMetisProc<W> {
    fn remaining_hint(&self) -> f64 {
        self.queue.iter().map(|u| self.work.hint_mflop(u)).sum()
    }

    fn process_all(&mut self, ctx: &mut Ctx) {
        for msg in ctx.poll() {
            let src = msg.src;
            match msg.kind {
                K_PROGRESS => {
                    let mflop = msg.take::<f64>();
                    let root = self.root.as_mut().expect("PROGRESS at non-root");
                    root.executed_mflop_reported += mflop;
                    root.executed_per_proc[src] += mflop;
                }
                K_UNDER => {
                    msg.take::<()>();
                    self.root_consider_sync(ctx, src);
                }
                K_DENY => {
                    msg.take::<()>();
                    if self.phase == Phase::AwaitVerdict {
                        self.phase = Phase::Normal;
                    }
                }
                K_SYNC => {
                    let epoch = msg.take::<u64>();
                    self.cur_epoch = epoch;
                    if self.phase == Phase::Normal || self.phase == Phase::AwaitVerdict {
                        self.enter_barrier(ctx);
                    } else {
                        // Still migrating from the previous round: join the
                        // new barrier as soon as that completes. Dropping the
                        // sync would wedge the root forever.
                        self.sync_pending = true;
                    }
                }
                K_LOADS => {
                    let loads = msg.take::<Loads<W::Unit>>();
                    let root = self.root.as_mut().expect("LOADS at non-root");
                    if loads.epoch != root.epoch || !root.syncing {
                        // Stale contribution from an earlier round.
                        continue;
                    }
                    root.loads[src] = Some(loads.units);
                    if root.loads.iter().all(|l| l.is_some()) {
                        self.root_repartition(ctx);
                    }
                }
                K_ASSIGN => {
                    let assign = msg.take::<Assign<W::Unit>>();
                    self.apply_assign(ctx, assign);
                }
                K_UNITS => {
                    let units = msg.take::<Vec<W::Unit>>();
                    let n = units.len();
                    self.queue.extend(units);
                    match &mut self.phase {
                        Phase::Migrate { expect } => {
                            *expect = expect.saturating_sub(n);
                            if *expect == 0 {
                                self.phase = Phase::Normal;
                                if self.sync_pending {
                                    self.sync_pending = false;
                                    self.enter_barrier(ctx);
                                }
                            }
                        }
                        _ => {
                            // ASSIGN hasn't reached us yet; remember.
                            self.early_units += n;
                        }
                    }
                }
                other => panic!("ParMETIS driver got unknown message kind {other}"),
            }
        }
    }

    /// Root: decide whether to start a global sync in response to an
    /// underload notification from `src` (or from the root itself). If the
    /// determination is negative, the requester gets an explicit refusal —
    /// which, for a busy root, it has already waited a unit boundary for.
    fn root_consider_sync(&mut self, ctx: &mut Ctx, src: usize) {
        let n = ctx.num_procs();
        let me = ctx.pid();
        let root = self.root.as_mut().expect("UNDER at non-root");
        if !root.warrants_sync(ctx.now(), &self.cfg) {
            if src != me {
                ctx.send(src, K_DENY, CTRL_BYTES, Box::new(()));
            }
            return;
        }
        root.syncing = true;
        root.epoch += 1;
        let epoch = root.epoch;
        root.loads = vec![None; n];
        self.cur_epoch = epoch;
        for dst in 0..n {
            if dst == me {
                continue;
            }
            ctx.send(dst, K_SYNC, CTRL_BYTES, Box::new(epoch));
        }
        // Root itself joins the barrier at its next boundary; since we are
        // at a boundary now, enter directly.
        if self.phase == Phase::Normal {
            self.enter_barrier(ctx);
        }
    }

    fn enter_barrier(&mut self, ctx: &mut Ctx) {
        // Describe the remaining units to the root; the units themselves
        // stay put until migration orders arrive.
        let mine: Vec<W::Unit> = self.queue.iter().copied().collect();
        let size = CTRL_BYTES + 16 * mine.len();
        ctx.consume(Category::Synchronization, SimTime::from_micros(200));
        self.phase = Phase::Barrier;
        if let Some(root) = self.root.as_mut() {
            root.loads[0] = Some(mine);
            if root.loads.iter().all(|l| l.is_some()) {
                self.root_repartition(ctx);
            }
        } else {
            let loads = Loads {
                epoch: self.cur_epoch,
                units: mine,
            };
            ctx.send(0, K_LOADS, size, Box::new(loads));
        }
    }

    /// Root: all loads in; run the Unified Repartitioning Algorithm on the
    /// hint weights and scatter assignments.
    fn root_repartition(&mut self, ctx: &mut Ctx) {
        let n = ctx.num_procs();
        let me = ctx.pid();
        let mut units = Vec::new();
        let mut old_owner = Vec::new();
        let root = self.root.as_mut().expect("repartition at non-root");
        for (p, l) in root.loads.iter_mut().enumerate() {
            for u in l.take().expect("missing loads") {
                units.push(u);
                old_owner.push(p as u32);
            }
        }

        // The unit graph the workload describes, weighted by the
        // application's hints.
        let nv = units.len();
        let new_owner: Vec<u32> = if nv == 0 {
            old_owner.clone()
        } else {
            let vwgt = units.iter().map(|u| self.work.hint_mflop(u)).collect();
            let g = Graph::from_edges(nv, &self.work.graph_edges(&units), vwgt);
            let result = adaptive_repart(
                &g,
                &old_owner,
                n,
                self.cfg.alpha,
                &PartitionConfig {
                    seed: 0xA11CE,
                    ..PartitionConfig::default()
                },
            );
            result.part
        };

        // Modelled cost of the (parallel) repartitioning computation.
        let partition_cpu = SimTime::from_micros(5 * nv as u64 + 20_000);

        // Scatter per-worker migration orders; units move directly between
        // workers (the root only saw descriptions).
        let mut per_proc_orders: Vec<Vec<(W::Unit, usize)>> = vec![Vec::new(); n];
        let mut per_proc_incoming = vec![0usize; n];
        for i in 0..nv {
            let (from, to) = (old_owner[i] as usize, new_owner[i] as usize);
            if from != to {
                per_proc_orders[from].push((units[i], to));
                per_proc_incoming[to] += 1;
            }
        }
        root.syncing = false;
        root.last_sync_end = ctx.now();
        for dst in 0..n {
            let assign = Assign {
                orders: std::mem::take(&mut per_proc_orders[dst]),
                incoming: per_proc_incoming[dst],
                partition_cpu,
            };
            if dst == me {
                self.apply_assign(ctx, assign);
            } else {
                ctx.send(
                    dst,
                    K_ASSIGN,
                    CTRL_BYTES + 16 * assign.orders.len(),
                    Box::new(assign),
                );
            }
        }
    }

    fn apply_assign(&mut self, ctx: &mut Ctx, assign: Assign<W::Unit>) {
        // Everyone pays the (parallel) partition computation.
        ctx.consume(Category::PartitionCalc, assign.partition_cpu);
        // Ship ordered units.
        let mut by_dest: Vec<(usize, Vec<W::Unit>)> = Vec::new();
        for (unit, dest) in assign.orders {
            let pos = self
                .queue
                .iter()
                .position(|u| *u == unit)
                .expect("ordered to move a unit we do not hold");
            let unit = self.queue.remove(pos).unwrap();
            match by_dest.iter_mut().find(|(d, _)| *d == dest) {
                Some((_, v)) => v.push(unit),
                None => by_dest.push((dest, vec![unit])),
            }
        }
        for (dest, units) in by_dest {
            let size = CTRL_BYTES + W::UNIT_BYTES * units.len();
            ctx.send(dest, K_UNITS, size, Box::new(units));
        }
        let expect = assign.incoming.saturating_sub(self.early_units);
        self.early_units = 0;
        if expect > 0 {
            self.phase = Phase::Migrate { expect };
        } else {
            self.phase = Phase::Normal;
            if self.sync_pending {
                self.sync_pending = false;
                self.enter_barrier(ctx);
            }
        }
    }

    /// Record completed work in *hint* currency — the only currency the
    /// root can reconcile against the initial assignment it knows about.
    fn report_progress(&mut self, ctx: &mut Ctx, mflop: f64) {
        self.unreported += 1;
        self.unreported_mflop += mflop;
        if self.unreported >= self.cfg.progress_batch {
            self.flush_progress(ctx);
        }
    }

    fn flush_progress(&mut self, ctx: &mut Ctx) {
        if self.unreported == 0 {
            return;
        }
        if let Some(root) = self.root.as_mut() {
            // The root is processor 0; record its own progress directly.
            root.executed_mflop_reported += self.unreported_mflop;
            root.executed_per_proc[0] += self.unreported_mflop;
        } else {
            ctx.send(0, K_PROGRESS, CTRL_BYTES, Box::new(self.unreported_mflop));
        }
        self.unreported = 0;
        self.unreported_mflop = 0.0;
    }
}

impl<W: Workload> Process for ParMetisProc<W> {
    fn on_start(&mut self, ctx: &mut Ctx) {
        ctx.schedule(SimTime::ZERO, T_NEXT);
    }

    fn on_timer(&mut self, ctx: &mut Ctx, _token: u64) {
        self.process_all(ctx);
        match self.phase {
            Phase::Barrier | Phase::Migrate { .. } | Phase::AwaitVerdict => {
                // Parked at the global synchronization (or awaiting the
                // root's verdict): every tick of this wait is the price of
                // stop-and-repartition.
                ctx.wait_msg_as(T_WAIT, Category::Synchronization);
                return;
            }
            Phase::Normal => {}
        }
        // Below the water-mark? Tell the root — and keep renotifying every
        // cooldown period while still starved, which is what makes the
        // repartitioning machinery (and its synchronization bill) recur.
        let starving = self.remaining_hint() <= self.cfg.watermark_mflop;
        let due = self
            .last_under
            .is_none_or(|t| ctx.now().saturating_sub(t) >= self.cfg.cooldown);
        if starving && due {
            self.flush_progress(ctx);
            self.last_under = Some(ctx.now());
            if self.root.is_some() {
                let me = ctx.pid();
                self.root_consider_sync(ctx, me);
            } else {
                ctx.send(0, K_UNDER, CTRL_BYTES, Box::new(()));
                // The verdict wait is the synchronization price of the
                // stop-and-repartition protocol for a starved processor.
                if self.phase == Phase::Normal && self.queue.is_empty() {
                    self.phase = Phase::AwaitVerdict;
                }
            }
        }
        // The root's own underload report may have moved it into the
        // barrier; never execute a unit that was just described to the
        // repartitioner.
        if self.phase != Phase::Normal {
            ctx.wait_msg_as(T_WAIT, Category::Synchronization);
            return;
        }
        match self.queue.pop_front() {
            Some(unit) => {
                ctx.consume(Category::Scheduling, sched_cpu());
                ctx.consume(Category::Callback, callback_cpu());
                let dur = ctx.work_time(self.work.mflop(&unit));
                ctx.consume(Category::Computation, dur);
                self.units_left.set(self.units_left.get() - 1);
                self.queue.extend(self.work.follow_on(&unit));
                self.report_progress(ctx, self.work.hint_mflop(&unit));
                ctx.schedule(SimTime::ZERO, T_NEXT);
            }
            None => {
                self.flush_progress(ctx);
                if self.units_left.get() == 0 {
                    ctx.finish();
                } else {
                    // Idle polling loop: an out-of-work processor keeps
                    // posting receives (and re-notifying the root per the
                    // cooldown above) until work arrives or the job ends.
                    // Jittered so processors do not phase-lock on a grid.
                    let step = SimTime::from_millis(self.rng.gen_range(700..1300));
                    ctx.consume(Category::Idle, step);
                    ctx.schedule(SimTime::ZERO, T_NEXT);
                }
            }
        }
    }
}

/// Run a workload under stop-and-repartition.
pub fn run<W: Workload>(work: &W, cfg: ParMetisCfg) -> SimReport {
    run_traced(work, cfg, None)
}

/// [`run`] with an optional trace sink recording spans, messages, and
/// finishes at simulated-time stamps.
pub fn run_traced<W: Workload>(
    work: &W,
    cfg: ParMetisCfg,
    trace: Option<Arc<TraceSink>>,
) -> SimReport {
    let work = Rc::new(work.clone());
    let total_mflop = work.total_hint_mflop();
    let machine = work.machine();
    let n = machine.procs;
    let units_left = Rc::new(Cell::new(work.total_units() as u64));
    Engine::build(machine, |p| {
        Box::new(ParMetisProc {
            cfg,
            queue: work.initial_queue(p).into(),
            work: work.clone(),
            phase: Phase::Normal,
            last_under: None,
            units_left: units_left.clone(),
            sync_pending: false,
            cur_epoch: 0,
            rng: StdRng::seed_from_u64(work.seed().wrapping_add(p as u64 * 7919)),
            unreported: 0,
            unreported_mflop: 0.0,
            early_units: 0,
            root: (p == 0).then(|| RootState {
                total_initial_mflop: total_mflop,
                executed_mflop_reported: 0.0,
                executed_per_proc: vec![0.0; n],
                initial_per_proc: total_mflop / n as f64,
                syncing: false,
                epoch: 0,
                last_sync_end: SimTime::ZERO,
                loads: vec![None; n],
            }),
        })
    })
    .with_trace(trace)
    .run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drivers::nolb;
    use crate::spec::BenchSpec;

    #[test]
    fn repartition_helps_at_fifty_percent_imbalance() {
        let spec = BenchSpec::test_scale(3);
        let base = nolb::run(&spec);
        let pm = run(&spec, ParMetisCfg::default());
        assert!(
            pm.makespan < base.makespan,
            "ParMETIS {} !< NoLB {}",
            pm.makespan,
            base.makespan
        );
        // Synchronization and partition-calculation time must be visible.
        assert!(pm.total_of(Category::Synchronization) > SimTime::ZERO);
        assert!(pm.total_of(Category::PartitionCalc) > SimTime::ZERO);
    }

    #[test]
    fn work_is_conserved() {
        let spec = BenchSpec::test_scale(3);
        let base = nolb::run(&spec);
        let pm = run(&spec, ParMetisCfg::default());
        let t0 = base.total_of(Category::Computation).as_secs_f64();
        let t1 = pm.total_of(Category::Computation).as_secs_f64();
        assert!((t0 - t1).abs() < 1e-6, "{t0} vs {t1}");
    }

    #[test]
    fn spike_case_pays_sync_without_winning_much() {
        // Figure 4(d): at 10% imbalance the repartitioner fires late and the
        // mandate-stay rule kicks in; sync costs pile up with little gain.
        let spec = BenchSpec::test_scale(4);
        let pm = run(&spec, ParMetisCfg::default());
        let base = nolb::run(&spec);
        // Must not be dramatically better than no LB (the paper's point)…
        let save = 1.0 - pm.makespan.as_secs_f64() / base.makespan.as_secs_f64();
        assert!(save < 0.25, "unexpectedly large saving {:.2}", save);
        // …but the synchronization price was still paid.
        assert!(pm.sync_fraction() > 0.0);
    }

    #[test]
    fn driver_terminates_with_all_units_executed() {
        for fig in [3u32, 4, 5, 6] {
            let spec = BenchSpec::test_scale(fig);
            let pm = run(&spec, ParMetisCfg::default());
            let expect: f64 = spec
                .units()
                .iter()
                .map(|u| u.mflop / spec.machine.mflops)
                .sum();
            let got = pm.total_of(Category::Computation).as_secs_f64();
            assert!((got - expect).abs() < 1e-6, "fig {fig}: {got} vs {expect}");
        }
    }
}
