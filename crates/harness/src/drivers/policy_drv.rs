//! Policy-in-the-loop scenario drivers: the *real* [`LbPolicy`] objects from
//! `prema-ilb` making every balancing decision inside the discrete-event
//! machine.
//!
//! The §5 figure drivers model the runtime's *mechanisms*; these two
//! scenarios instead evaluate the *policies* the framework ships, on the
//! workload shapes DESIGN.md §14 adds them for:
//!
//! * **interact** — mobile objects exchange messages with fixed partner
//!   groups, and everything is born on one processor. A weight-only policy
//!   scatters partner groups across the machine; communication-aware
//!   diffusion reunites them, so its steady state sends fewer **remote**
//!   application messages for the same balance.
//! * **wave** — work arrives at one hotspot in escalating waves. A reactive
//!   policy waits for each wave's imbalance to materialize before pushing;
//!   the anticipatory wrapper sees the rising weight-history trend and sheds
//!   early, finishing the whole workload sooner (**makespan**).
//!
//! Every decision — status gossip neighborhoods, flow volumes, candidate
//! preference — comes from the policy object itself, exactly as the threaded
//! runtime would consult it; the driver only supplies the mechanism (status
//! messages, object pushes, execution, and the MOL-style per-sender
//! interaction counters that feed [`CommSummary`]).

use super::{callback_cpu, sched_cpu, CTRL_BYTES, UNIT_BYTES};
use prema_ilb::{CommSummary, LbPolicy, LoadMap, LoadSnapshot, WeightHistory};
use prema_sim::{Category, Ctx, Engine, MachineConfig, Process, SimReport, SimTime, TraceEvent};
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::collections::VecDeque;
use std::rc::Rc;

/// Message kinds (driver-local wire ids).
const K_STATUS: u32 = 10;
const K_PUSH: u32 = 11;
const K_APP: u32 = 12;
const K_TEACH: u32 = 13;

/// The modeled steady-state forwarding bound — the driver-side mirror of
/// `prema_mol::MAX_CHAIN` (asserted equal in the tests below): with sender
/// caches and piggybacked teaching, no delivery should ride more than this
/// many forward hops once the schedule settles.
pub const MODELED_MAX_CHAIN: u32 = 4;

/// How each processor resolves a mobile object's location when addressing
/// application messages (DESIGN.md §16 models).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RouteMode {
    /// Ground-truth addressing (the pre-directory drivers' idealization):
    /// every sender reads a magically consistent location table.
    Oracle,
    /// PREMA's classic scheme: senders only know the birth rank; messages
    /// go home and chase per-processor forward pointers from there.
    HomeForward,
    /// The sharded directory: per-processor location caches consulted
    /// first; misses pay a lookup round trip to the id-hashed home shard;
    /// forwarded deliveries teach the original sender.
    Sharded,
}

/// Timer token: the per-processor polling round.
const T_NEXT: u64 = 1;

/// Idle processors re-poll at this period (mirrors the implicit-mode polling
/// thread's wake-up granularity).
fn poll_period() -> SimTime {
    SimTime::from_millis(1)
}

/// Forecast look-ahead, in rounds. Shorter than the scheduler default (32):
/// a busy processor's round here is one whole task, not a 1 ms poll, so 32
/// rounds would predict far past the horizon the trend is good for.
const FORECAST_HORIZON: u64 = 8;

/// Minimum residency for a migrated-in object, in local rounds — the
/// driver-side mirror of [`prema_ilb::StabilityConfig::min_residency_polls`].
/// A busy processor's round is one whole task here (not a 1 ms poll), so the
/// window is proportionally shorter than the runtime default.
const MIN_RESIDENCY_ROUNDS: u64 = 2;

/// A mobile object in the scenario: a queue of identical tasks plus the
/// MOL-style per-sender consumption counters that travel with it.
struct Obj {
    id: u64,
    /// Object ids this object messages after every executed task.
    partners: Vec<u64>,
    /// Tasks left to execute.
    remaining: u32,
    /// Weight hint per task, in Mflop.
    task_mflop: f64,
    /// Messages consumed per sender rank (the MOL `expected` counters).
    from: HashMap<usize, u64>,
    /// Not grantable before this local round — the mechanism-side minimum
    /// residency of the stability governor (DESIGN.md §14), set by the
    /// receiving processor at install time and cleared on execution.
    hold_until: u64,
}

impl Obj {
    fn weight(&self) -> f64 {
        f64::from(self.remaining) * self.task_mflop
    }
}

struct Status {
    snap: LoadSnapshot,
}
struct Push {
    objs: Vec<Obj>,
}
struct AppMsg {
    to: u64,
    /// Rank that originated the message (forwarders preserve it so the
    /// interaction counters and teaching target the true sender).
    orig: usize,
    /// Wire legs travelled so far; `hops - 1` is the forwarding chain.
    hops: u32,
}
/// Sharded mode: a delivery that arrived via forwards tells the original
/// sender where the object lives now (the piggybacked `DirAnswer`).
struct Teach {
    obj: u64,
    rank: usize,
    epoch: u64,
}

/// State shared by every processor of one scenario run (the simulation is
/// single-threaded, so `Rc<Cell>` is the established idiom — see the other
/// drivers).
struct Shared {
    /// Object id → current rank: ground truth, updated at push time by the
    /// sender. `Oracle` mode addresses from it directly; the other modes
    /// consult it only to detect in-flight pushes (the `pending` buffer).
    directory: RefCell<Vec<usize>>,
    /// Object id → birth rank (the PREMA home).
    home: Vec<usize>,
    /// Object id → migration epoch (bumped at each push).
    epoch: RefCell<Vec<u64>>,
    /// Sharded mode: the shard authority's view, `(rank, epoch)` per object.
    /// Kept synchronously coherent for model simplicity; the *cost* of each
    /// publish and lookup is still charged as directory messages.
    authority: RefCell<Vec<(usize, u64)>>,
    /// Unexecuted tasks machine-wide (application-level completion).
    units_left: Cell<u64>,
    /// Application messages that crossed ranks (includes forwards).
    remote_app: Cell<u64>,
    /// All application messages, local deliveries included.
    total_app: Cell<u64>,
    /// Directory control traffic: publishes, lookup round trips, teaches.
    dir_msgs: Cell<u64>,
    /// Location-cache consultations at send time (sharded mode).
    cache_hits: Cell<u64>,
    cache_misses: Cell<u64>,
    /// Forwarding chain lengths at delivery: bucket `c` counts deliveries
    /// that rode `c` forward hops (last bucket saturates).
    chain_hist: RefCell<[u64; 17]>,
    /// Objects pushed between ranks.
    migrations: Cell<u64>,
}

/// Per-processor driver: one policy object, its resident objects, and the
/// status/push mechanism around it.
struct PolicyProc {
    policy: Box<dyn LbPolicy>,
    objects: Vec<Obj>,
    known: LoadMap,
    history: WeightHistory,
    tick: u64,
    /// Round-robin cursor over resident objects.
    next_exec: usize,
    /// Local load changed since the last status broadcast.
    dirty: bool,
    /// How this processor resolves object locations at send time.
    route: RouteMode,
    /// Sharded mode: this processor's location cache, `(rank, epoch)`.
    loc_cache: HashMap<u64, (usize, u64)>,
    /// Forward pointer left behind for every object pushed away from here,
    /// `(rank, epoch)` — the per-processor trail the non-oracle modes chase.
    fwd: HashMap<u64, (usize, u64)>,
    /// App messages that raced ahead of the push carrying their target:
    /// `(object, original sender, hops so far)`.
    pending: Vec<(u64, usize, u32)>,
    /// Future work injections (the wave scenario's hotspot arrivals).
    waves: VecDeque<(SimTime, Vec<Obj>)>,
    /// This processor's clock at the top of the current round (waves are
    /// checked against it; `Ctx::now` needs the context the checker lacks).
    now_cache: SimTime,
    shared: Rc<Shared>,
}

impl PolicyProc {
    fn local(&self) -> LoadSnapshot {
        let units = self.objects.iter().filter(|o| o.remaining > 0).count();
        let weight = self.objects.iter().map(Obj::weight).sum();
        LoadSnapshot { units, weight }
    }

    /// Fold the resident objects' consumption counters into the rank-level
    /// interaction summary, excluding self-traffic — exactly what
    /// `Scheduler::comm_summary` does with the MOL directory.
    fn comm_summary(&self, me: usize) -> CommSummary {
        let mut sum = CommSummary::default();
        for o in &self.objects {
            for (&rank, &n) in &o.from {
                if rank != me {
                    sum.note(rank, n);
                }
            }
        }
        sum
    }

    /// Receive (or locally inject, `hops == 0`) an application message:
    /// deliver if the target is resident, otherwise chase the trail.
    fn deliver_or_forward(&mut self, ctx: &mut Ctx, to: u64, orig: usize, hops: u32) {
        let me = ctx.pid();
        if let Some(o) = self.objects.iter_mut().find(|o| o.id == to) {
            *o.from.entry(orig).or_insert(0) += 1;
            if hops > 0 {
                let mut hist = self.shared.chain_hist.borrow_mut();
                let last = hist.len() - 1;
                hist[((hops - 1) as usize).min(last)] += 1;
            }
            // A forwarded delivery in sharded mode teaches the original
            // sender where the object lives now (piggybacked DirAnswer).
            if self.route == RouteMode::Sharded && hops > 1 && orig != me {
                self.shared.dir_msgs.set(self.shared.dir_msgs.get() + 1);
                let epoch = self.shared.epoch.borrow()[to as usize];
                ctx.send(
                    orig,
                    K_TEACH,
                    CTRL_BYTES,
                    Box::new(Teach {
                        obj: to,
                        rank: me,
                        epoch,
                    }),
                );
            }
            return;
        }
        if self.shared.directory.borrow()[to as usize] == me {
            // The push carrying the target is still in flight to us: buffer
            // and retry next round (the MOL would do the same reordering).
            self.pending.push((to, orig, hops));
            return;
        }
        // Forward. Oracle mode reads ground truth; the realistic modes chase
        // the forward pointer this processor left when it pushed the object
        // away (every non-oracle arrival here targeted a past residence).
        let next = match self.route {
            RouteMode::Oracle => self.shared.directory.borrow()[to as usize],
            RouteMode::HomeForward | RouteMode::Sharded => self
                .fwd
                .get(&to)
                .map(|&(r, _)| r)
                .unwrap_or_else(|| self.shared.directory.borrow()[to as usize]),
        };
        self.shared.remote_app.set(self.shared.remote_app.get() + 1);
        ctx.send(
            next,
            K_APP,
            CTRL_BYTES,
            Box::new(AppMsg {
                to,
                orig,
                hops: hops + 1,
            }),
        );
    }

    /// Originate an application message to `to` (not resident here): pick
    /// the first wire destination according to the routing mode.
    fn send_app(&mut self, ctx: &mut Ctx, to: u64) {
        let me = ctx.pid();
        let first = match self.route {
            RouteMode::Oracle => self.shared.directory.borrow()[to as usize],
            RouteMode::HomeForward => self.shared.home[to as usize],
            RouteMode::Sharded => {
                if let Some(&(rank, _)) = self.loc_cache.get(&to) {
                    self.shared.cache_hits.set(self.shared.cache_hits.get() + 1);
                    rank
                } else {
                    // Miss: one lookup round trip to the id-hashed shard,
                    // answered from the authority; the answer primes the
                    // cache so each (sender, object) pair misses once.
                    self.shared
                        .cache_misses
                        .set(self.shared.cache_misses.get() + 1);
                    let shard = to as usize % ctx.num_procs();
                    if shard != me {
                        self.shared.dir_msgs.set(self.shared.dir_msgs.get() + 2);
                    }
                    let (rank, epoch) = self.shared.authority.borrow()[to as usize];
                    self.loc_cache.insert(to, (rank, epoch));
                    rank
                }
            }
        };
        if first == me {
            // Local knowledge (or ground truth) says "here": inject into the
            // receive path, which delivers, buffers, or starts the chase.
            self.deliver_or_forward(ctx, to, me, 0);
        } else {
            self.shared.remote_app.set(self.shared.remote_app.get() + 1);
            ctx.send(
                first,
                K_APP,
                CTRL_BYTES,
                Box::new(AppMsg {
                    to,
                    orig: me,
                    hops: 1,
                }),
            );
        }
    }

    fn process_all(&mut self, ctx: &mut Ctx) {
        for msg in ctx.poll() {
            let src = msg.src;
            match msg.kind {
                K_STATUS => {
                    let s = msg.take::<Status>();
                    self.known.insert(src, s.snap);
                }
                K_PUSH => {
                    let mut p = msg.take::<Push>();
                    ctx.trace(TraceEvent::LbGrantRecv {
                        src,
                        units: p.objs.len() as u32,
                    });
                    for o in &mut p.objs {
                        o.hold_until = self.tick + MIN_RESIDENCY_ROUNDS;
                    }
                    self.objects.extend(p.objs);
                    self.dirty = true;
                }
                K_APP => {
                    let m = msg.take::<AppMsg>();
                    self.deliver_or_forward(ctx, m.to, m.orig, m.hops);
                }
                K_TEACH => {
                    let t = msg.take::<Teach>();
                    // Fresher epoch wins; a stale teach never regresses the
                    // cache (answers can arrive out of order).
                    let e = self.loc_cache.entry(t.obj).or_insert((t.rank, t.epoch));
                    if t.epoch >= e.1 {
                        *e = (t.rank, t.epoch);
                    }
                }
                other => panic!("policy driver got unknown message kind {other}"),
            }
        }
        let pending = std::mem::take(&mut self.pending);
        for (to, orig, hops) in pending {
            self.deliver_or_forward(ctx, to, orig, hops);
        }
    }

    fn inject_due_waves(&mut self) {
        while let Some((at, _)) = self.waves.front() {
            if *at <= self.now_cache {
                let (_, objs) = self.waves.pop_front().expect("wave front exists");
                self.objects.extend(objs);
                self.dirty = true;
            } else {
                break;
            }
        }
    }

    fn lb_round(&mut self, ctx: &mut Ctx) {
        let me = ctx.pid();
        let n = ctx.num_procs();
        self.tick += 1;
        let local = self.local();

        // Mechanism feedback: sample the weight history and report the
        // forecast, as `Scheduler::lb_evaluate` does each poll (it skips the
        // fit when no one consumes it; here the trace event always does).
        self.history.record(self.tick, local.weight);
        let fc = self.history.forecast(FORECAST_HORIZON);
        self.policy.note_forecast(self.tick, &local, &fc);
        if self.tick.is_multiple_of(64) {
            ctx.trace(TraceEvent::LbForecast {
                weight_milli: (local.weight.max(0.0) * 1000.0) as u64,
                predicted_milli: (fc.predicted.max(0.0) * 1000.0) as u64,
                rising: fc.rising(0.0),
            });
        }

        // Status gossip to the policy's own neighborhood, on change only.
        if self.dirty {
            for nb in self.policy.neighborhood(me, n) {
                ctx.send(nb, K_STATUS, CTRL_BYTES, Box::new(Status { snap: local }));
            }
            self.dirty = false;
        }

        // Sender-initiated flows, comm-aware when the policy asks for it.
        let flows = if self.policy.uses_comm() {
            let comm = self.comm_summary(me);
            self.policy.flows_comm(me, &local, &self.known, &comm)
        } else {
            self.policy.flows(me, &local, &self.known)
        };
        for (dst, want) in flows {
            self.push_toward(ctx, dst, want);
        }
    }

    /// Surrender up to `want` weight of objects to `dst`. Candidate order is
    /// the model's own: communication-aware policies get the objects that
    /// heard most from `dst` first, weight-only policies a stable arbitrary
    /// order. (The real scheduler's order is the same for every policy:
    /// `grant_candidates`, DESIGN.md §21.)
    fn push_toward(&mut self, ctx: &mut Ctx, dst: usize, want: f64) {
        let mut staged: Vec<Obj> = Vec::new();
        let mut sent = 0.0;
        while sent < want {
            let working = self.objects.iter().filter(|o| o.remaining > 0).count();
            let mut candidates: Vec<usize> = (0..self.objects.len())
                .filter(|&i| {
                    self.objects[i].remaining > 0 && self.objects[i].hold_until <= self.tick
                })
                .collect();
            if candidates.is_empty() || working <= 1 {
                break; // nothing grantable, or it would strip the last worker
            }
            if self.policy.uses_comm() {
                candidates.sort_by(|&a, &b| {
                    let af = self.objects[a].from.get(&dst).copied().unwrap_or(0);
                    let bf = self.objects[b].from.get(&dst).copied().unwrap_or(0);
                    bf.cmp(&af)
                        .then(self.objects[a].id.cmp(&self.objects[b].id))
                });
            } else {
                candidates.sort_by_key(|&i| self.objects[i].id);
            }
            let pick = candidates[0];
            let obj = self.objects.swap_remove(pick);
            sent += obj.weight();
            self.shared.directory.borrow_mut()[obj.id as usize] = dst;
            // Leave a forward pointer here and bump the migration epoch —
            // the non-oracle modes route by these.
            let epoch = {
                let mut epochs = self.shared.epoch.borrow_mut();
                epochs[obj.id as usize] += 1;
                epochs[obj.id as usize]
            };
            self.fwd.insert(obj.id, (dst, epoch));
            if self.route == RouteMode::Sharded {
                // Publish the new location to the object's home shard (one
                // directory message unless we *are* the shard).
                self.shared.authority.borrow_mut()[obj.id as usize] = (dst, epoch);
                let shard = obj.id as usize % ctx.num_procs();
                if shard != ctx.pid() {
                    self.shared.dir_msgs.set(self.shared.dir_msgs.get() + 1);
                }
            }
            staged.push(obj);
        }
        if staged.is_empty() {
            return;
        }
        self.shared
            .migrations
            .set(self.shared.migrations.get() + staged.len() as u64);
        // Optimistically age our view of the receiver so consecutive rounds
        // don't re-push against a stale report.
        if let Some(s) = self.known.get_mut(&dst) {
            s.weight += sent;
            s.units += staged.len();
        }
        ctx.trace(TraceEvent::LbGrant {
            dst,
            units: staged.len() as u32,
            // The model orders by absolute count; it classes nothing.
            affine: 0,
        });
        let size = CTRL_BYTES + UNIT_BYTES * staged.len();
        ctx.send(dst, K_PUSH, size, Box::new(Push { objs: staged }));
        self.dirty = true;
    }

    /// Execute one task of one resident object; returns false when idle.
    fn execute_one(&mut self, ctx: &mut Ctx) -> bool {
        let busy: Vec<usize> = (0..self.objects.len())
            .filter(|&i| self.objects[i].remaining > 0)
            .collect();
        if busy.is_empty() {
            return false;
        }
        let pick = busy[self.next_exec % busy.len()];
        self.next_exec = self.next_exec.wrapping_add(1);
        ctx.consume(Category::Scheduling, sched_cpu());
        ctx.consume(Category::Callback, callback_cpu());
        let t = ctx.work_time(self.objects[pick].task_mflop);
        ctx.consume(Category::Computation, t);
        self.objects[pick].remaining -= 1;
        self.objects[pick].hold_until = 0; // executed here: residency satisfied
        self.shared.units_left.set(self.shared.units_left.get() - 1);
        self.dirty = true;

        // Post-task communication: one message to every partner object,
        // addressed by the run's routing mode.
        let partners = self.objects[pick].partners.clone();
        for p in partners {
            self.shared.total_app.set(self.shared.total_app.get() + 1);
            if self.objects.iter().any(|o| o.id == p) {
                // Resident partner: local delivery, no routing needed.
                let me = ctx.pid();
                let o = self
                    .objects
                    .iter_mut()
                    .find(|o| o.id == p)
                    .expect("checked resident");
                *o.from.entry(me).or_insert(0) += 1;
            } else {
                self.send_app(ctx, p);
            }
        }
        true
    }
}

impl PolicyProc {
    fn round(&mut self, ctx: &mut Ctx) {
        self.now_cache = ctx.now();
        self.process_all(ctx);
        self.inject_due_waves();
        if self.shared.units_left.get() == 0 {
            ctx.finish();
            return;
        }
        self.lb_round(ctx);
        if !self.execute_one(ctx) {
            ctx.consume(Category::Idle, poll_period());
        }
        ctx.schedule(SimTime::ZERO, T_NEXT);
    }
}

impl Process for PolicyProc {
    fn on_start(&mut self, ctx: &mut Ctx) {
        self.dirty = true;
        ctx.schedule(SimTime::ZERO, T_NEXT);
    }

    fn on_timer(&mut self, ctx: &mut Ctx, _token: u64) {
        self.round(ctx);
    }
}

/// Outcome of one scenario run: the usual simulation report plus the
/// scenario's own metrics.
pub struct ScenarioOutcome {
    /// Per-processor accounting, makespan, message totals.
    pub report: SimReport,
    /// Application messages that crossed ranks (the interact metric).
    pub remote_app_msgs: u64,
    /// All application messages sent, local deliveries included.
    pub total_app_msgs: u64,
    /// Directory control traffic: publishes, lookup round trips, teaches.
    pub dir_msgs: u64,
    /// Location-cache hits at send time (sharded mode only).
    pub cache_hits: u64,
    /// Location-cache misses at send time (sharded mode only).
    pub cache_misses: u64,
    /// Deliveries by forwarding-chain length (bucket = forward hops; the
    /// last bucket saturates).
    pub chain_hist: [u64; 17],
    /// Objects migrated between ranks.
    pub migrations: u64,
}

impl ScenarioOutcome {
    /// Everything that crossed ranks: application legs plus directory
    /// control traffic — the fair basis for comparing routing modes.
    pub fn remote_total(&self) -> u64 {
        self.remote_app_msgs + self.dir_msgs
    }

    /// Send-time location-cache hit rate (1.0 when the mode never consults
    /// a cache).
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            1.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    /// Forwarding-chain length at quantile `q` (e.g. 0.99), from the
    /// delivery histogram.
    pub fn chain_percentile(&self, q: f64) -> u32 {
        let total: u64 = self.chain_hist.iter().sum();
        if total == 0 {
            return 0;
        }
        let want = (q * total as f64).ceil() as u64;
        let mut seen = 0;
        for (chain, &n) in self.chain_hist.iter().enumerate() {
            seen += n;
            if seen >= want {
                return chain as u32;
            }
        }
        (self.chain_hist.len() - 1) as u32
    }

    /// Longest forwarding chain observed at delivery.
    pub fn max_chain(&self) -> u32 {
        self.chain_hist
            .iter()
            .rposition(|&n| n > 0)
            .map_or(0, |c| c as u32)
    }
}

/// The interacting-objects scenario (DESIGN.md §14).
#[derive(Clone, Copy, Debug)]
pub struct InteractCfg {
    /// Machine size (power of two gives hypercube neighborhoods).
    pub procs: usize,
    /// Partner groups.
    pub groups: usize,
    /// Objects per group (each messages all its group partners).
    pub group_size: usize,
    /// Tasks per object.
    pub tasks_per_object: u32,
    /// Weight per task, Mflop.
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

/// The escalating-waves scenario (DESIGN.md §14).
#[derive(Clone, Copy, Debug)]
pub struct WaveCfg {
    /// Machine size.
    pub procs: usize,
    /// Arrival waves, all at processor 0.
    pub waves: usize,
    /// Objects injected per wave (each wave adds one more than the last).
    pub objects_per_wave: usize,
    /// Tasks per object.
    pub tasks_per_object: u32,
    /// Weight per task, Mflop.
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

fn run_scenario(
    procs: usize,
    born: Vec<Vec<Obj>>,
    waves0: Vec<(SimTime, Vec<Obj>)>,
    total_tasks: u64,
    route: RouteMode,
    mk_policy: &dyn Fn(usize) -> Box<dyn LbPolicy>,
) -> ScenarioOutcome {
    let n_objects: usize = born.iter().map(Vec::len).sum::<usize>()
        + waves0.iter().map(|(_, w)| w.len()).sum::<usize>();
    let mut directory = vec![0usize; n_objects];
    for (rank, objs) in born.iter().enumerate() {
        for o in objs {
            directory[o.id as usize] = rank;
        }
    }
    // Wave objects are born on processor 0 when their wave lands.
    let home = directory.clone();
    let authority: Vec<(usize, u64)> = directory.iter().map(|&r| (r, 0)).collect();
    let shared = Rc::new(Shared {
        directory: RefCell::new(directory),
        home,
        epoch: RefCell::new(vec![0; n_objects]),
        authority: RefCell::new(authority),
        units_left: Cell::new(total_tasks),
        remote_app: Cell::new(0),
        total_app: Cell::new(0),
        dir_msgs: Cell::new(0),
        cache_hits: Cell::new(0),
        cache_misses: Cell::new(0),
        chain_hist: RefCell::new([0; 17]),
        migrations: Cell::new(0),
    });
    let born = RefCell::new(born);
    let waves0 = RefCell::new(Some(waves0));
    let report = Engine::build(MachineConfig::small(procs), |p| {
        let objects = std::mem::take(&mut born.borrow_mut()[p]);
        let waves = if p == 0 {
            waves0.borrow_mut().take().unwrap_or_default()
        } else {
            Vec::new()
        };
        Box::new(PolicyProc {
            policy: mk_policy(p),
            objects,
            known: LoadMap::default(),
            history: WeightHistory::new(32, 0.25),
            tick: 0,
            next_exec: 0,
            dirty: false,
            route,
            loc_cache: HashMap::new(),
            fwd: HashMap::new(),
            pending: Vec::new(),
            waves: waves.into(),
            shared: shared.clone(),
            now_cache: SimTime::ZERO,
        })
    })
    .run();
    let chain_hist = *shared.chain_hist.borrow();
    ScenarioOutcome {
        report,
        remote_app_msgs: shared.remote_app.get(),
        total_app_msgs: shared.total_app.get(),
        dir_msgs: shared.dir_msgs.get(),
        cache_hits: shared.cache_hits.get(),
        cache_misses: shared.cache_misses.get(),
        chain_hist,
        migrations: shared.migrations.get(),
    }
}

/// Run the interacting-objects scenario under `mk_policy`. All objects are
/// born on processor 0. Group membership is *strided* across object ids
/// (`group = id % groups`), so any id-ordered or queue-ordered selection — a
/// weight-only policy's view — splits every group; only interaction affinity
/// can see the grouping.
pub fn run_interact(
    cfg: &InteractCfg,
    mk_policy: &dyn Fn(usize) -> Box<dyn LbPolicy>,
) -> ScenarioOutcome {
    run_interact_routed(cfg, RouteMode::Oracle, mk_policy)
}

/// [`run_interact`] with an explicit location-resolution mode — the basis
/// for the home-forwarding vs sharded-directory comparison (DESIGN.md §16).
pub fn run_interact_routed(
    cfg: &InteractCfg,
    route: RouteMode,
    mk_policy: &dyn Fn(usize) -> Box<dyn LbPolicy>,
) -> ScenarioOutcome {
    let n_objects = cfg.groups * cfg.group_size;
    let mut objs = Vec::with_capacity(n_objects);
    for id in 0..n_objects as u64 {
        let partners = (0..n_objects as u64)
            .filter(|&p| p != id && p % cfg.groups as u64 == id % cfg.groups as u64)
            .collect();
        objs.push(Obj {
            id,
            partners,
            remaining: cfg.tasks_per_object,
            task_mflop: cfg.task_mflop,
            from: HashMap::new(),
            hold_until: 0,
        });
    }
    let mut born: Vec<Vec<Obj>> = (0..cfg.procs).map(|_| Vec::new()).collect();
    born[0] = objs;
    let total = (n_objects as u64) * u64::from(cfg.tasks_per_object);
    run_scenario(cfg.procs, born, Vec::new(), total, route, mk_policy)
}

/// Run the escalating-waves scenario under `mk_policy`. Wave `w` lands at
/// `w * wave_gap` on processor 0 carrying `objects_per_wave + w` objects.
pub fn run_wave(cfg: &WaveCfg, mk_policy: &dyn Fn(usize) -> Box<dyn LbPolicy>) -> ScenarioOutcome {
    let mut waves = Vec::new();
    let mut id = 0u64;
    let mut total = 0u64;
    for w in 0..cfg.waves {
        let count = cfg.objects_per_wave + w;
        let at = SimTime::from_secs_f64(cfg.wave_gap.as_secs_f64() * w as f64);
        let objs: Vec<Obj> = (0..count)
            .map(|_| {
                let o = Obj {
                    id,
                    partners: Vec::new(),
                    remaining: cfg.tasks_per_object,
                    task_mflop: cfg.task_mflop,
                    from: HashMap::new(),
                    hold_until: 0,
                };
                id += 1;
                total += u64::from(cfg.tasks_per_object);
                o
            })
            .collect();
        waves.push((at, objs));
    }
    let born: Vec<Vec<Obj>> = (0..cfg.procs).map(|_| Vec::new()).collect();
    run_scenario(cfg.procs, born, waves, total, RouteMode::Oracle, mk_policy)
}

#[cfg(test)]
mod tests {
    use super::*;
    use prema_ilb::{Anticipatory, CommAwareDiffusion, Diffusion};

    #[test]
    fn interact_scenario_conserves_work_and_terminates() {
        let cfg = InteractCfg::default();
        let out = run_interact(&cfg, &|_| Box::new(Diffusion::new(20.0)));
        assert!(out.migrations > 0, "no balancing happened at all");
        assert!(out.total_app_msgs > 0);
    }

    #[test]
    fn comm_aware_beats_weight_only_on_remote_messages() {
        let cfg = InteractCfg::default();
        let plain = run_interact(&cfg, &|_| Box::new(Diffusion::new(20.0)));
        let comm = run_interact(&cfg, &|_| Box::new(CommAwareDiffusion::new(20.0, 1.0)));
        eprintln!(
            "interact: plain remote {} / {} total (makespan {}), comm remote {} / {} total (makespan {})",
            plain.remote_app_msgs, plain.total_app_msgs, plain.report.makespan,
            comm.remote_app_msgs, comm.total_app_msgs, comm.report.makespan,
        );
        assert!(
            comm.remote_app_msgs < plain.remote_app_msgs,
            "comm-aware sent {} remote msgs, weight-only {}",
            comm.remote_app_msgs,
            plain.remote_app_msgs
        );
    }

    #[test]
    fn sharded_directory_beats_home_forwarding_on_interact() {
        // The modeled bound must track the real protocol's constant.
        assert_eq!(MODELED_MAX_CHAIN, prema::mol::MAX_CHAIN);
        let cfg = InteractCfg::default();
        let hf = run_interact_routed(&cfg, RouteMode::HomeForward, &|_| {
            Box::new(CommAwareDiffusion::new(20.0, 1.0))
        });
        let sh = run_interact_routed(&cfg, RouteMode::Sharded, &|_| {
            Box::new(CommAwareDiffusion::new(20.0, 1.0))
        });
        eprintln!(
            "interact routing: home-forward remote {} (+{} dir), sharded remote {} (+{} dir), \
             hit rate {:.3}, chain p99 {} max {}",
            hf.remote_app_msgs,
            hf.dir_msgs,
            sh.remote_app_msgs,
            sh.dir_msgs,
            sh.cache_hit_rate(),
            sh.chain_percentile(0.99),
            sh.max_chain(),
        );
        // Same workload either way.
        assert_eq!(sh.total_app_msgs, hf.total_app_msgs);
        assert_eq!(hf.dir_msgs, 0, "home-forwarding pays no directory traffic");
        // Fewer remote messages than home-forwarding even after charging
        // every publish, lookup round trip, and teach to the directory.
        assert!(
            sh.remote_total() < hf.remote_total(),
            "sharded total {} not below home-forward total {}",
            sh.remote_total(),
            hf.remote_total()
        );
        // Forwarding chains stay under the documented constant bound.
        assert!(
            sh.chain_percentile(0.99) <= MODELED_MAX_CHAIN,
            "sharded p99 chain {} exceeds bound {}",
            sh.chain_percentile(0.99),
            MODELED_MAX_CHAIN
        );
        // The sender caches stay hot.
        assert!(
            sh.cache_hit_rate() >= 0.90,
            "cache hit rate {:.3} below 0.90",
            sh.cache_hit_rate()
        );
    }

    #[test]
    fn anticipatory_beats_reactive_on_makespan() {
        let cfg = WaveCfg::default();
        let reactive = run_wave(&cfg, &|_| Box::new(Diffusion::new(300.0)));
        let ant = run_wave(&cfg, &|_| {
            Box::new(Anticipatory::new(Box::new(Diffusion::new(300.0))))
        });
        eprintln!(
            "wave: reactive makespan {} ({} migrations), anticipatory makespan {} ({} migrations)",
            reactive.report.makespan, reactive.migrations, ant.report.makespan, ant.migrations,
        );
        assert!(
            ant.report.makespan < reactive.report.makespan,
            "anticipatory {} not better than reactive {}",
            ant.report.makespan,
            reactive.report.makespan
        );
    }
}
