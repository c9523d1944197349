//! The real PREMA stack on the simulator's clock.
//!
//! The PREMA panels of Figures 3–6 and the mesh study do not model the
//! runtime: they run it. Each simulated processor owns the `ilb::Scheduler`
//! (over a `MolNode`, over a `dcs::Communicator`) that [`prema::launch`]
//! would give that rank, assembled by the same [`prema::build_scheduler`],
//! and two pieces stand in for what has no meaning without a wall clock:
//!
//! * `SimTransport` is the rank's wire: a `send` lands in an outbox that
//!   `SimRank` ships through the engine ([`Ctx::send`], so transit time,
//!   per-message CPU and per-pair FIFO are the machine model's), and a
//!   receive pops an inbox that `SimRank` fills from [`Ctx::poll`].
//! * `SimRank` is the application thread and the polling thread of
//!   `prema::Runtime` as one [`Process`]: at a unit boundary it does what
//!   `Runtime::step` does (`poll`, `begin`, run the handler, and once the
//!   unit's compute time has passed, `finish`); in [`LbMode::Implicit`] the
//!   compute time passes one `poll_interval` per engine event, each followed
//!   by the polling thread's `poll_system`. A unit is one event per segment
//!   because the engine delivers an arrival only when it pops it in global
//!   time order: a callback that consumed the whole unit and polled along the
//!   way would look into an inbox that still holds only what was there
//!   before the unit began.
//!
//! The workload is ordinary PREMA application code: mobile objects and
//! handlers registered on the scheduler. One convention carries the cost
//! model: a work message's payload begins with the unit's true cost in Mflop
//! ([`mflop_payload`]), which the handler is free to ignore and `SimRank`
//! charges as computation. The load balancer sees only the hint.
//!
//! Work that is not there at the start is an [`Arrival`]: application code
//! run on one rank's scheduler at a simulated time, as a generator thread
//! posting into a running rank would (the ledger's `arrivals_open`). A rank
//! inside a unit finds it queued at its next boundary; an idle one is woken
//! by it and starts on it at that instant.

use crate::drivers::{callback_cpu, poll_wake_cpu, sched_cpu};
use bytes::Bytes;
use prema::{build_scheduler, LbMode, PremaConfig};
use prema_dcs::{Clock, Envelope, Rank, Transport};
use prema_ilb::{Execution, SchedStats, Scheduler};
use prema_mol::{Migratable, MolStats, WorkItem};
use prema_sim::{
    Category, Ctx, Engine, MachineConfig, Process, SimReport, SimTime, TraceEvent, TraceSink,
};
use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::rc::Rc;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Timer token: a unit boundary (also an idle rank's wake-up).
const T_UNIT: u64 = 1;
/// Timer token: the end of one compute segment of the executing unit.
const T_SEG: u64 = 2;
/// Timer token: this rank's next [`Arrival`] is due.
const T_ARRIVAL: u64 = 3;

/// Work posted on `rank` at simulated time `at`: `post` registers objects
/// and sends them messages, like [`run`]'s `populate` at start-up. The units
/// it creates count toward `run`'s `units`.
pub struct Arrival<O: Migratable> {
    /// When the work appears.
    pub at: SimTime,
    /// The rank it appears on.
    pub rank: Rank,
    /// What creates it.
    pub post: Post<O>,
}

/// An [`Arrival`]'s application code.
pub type Post<O> = Box<dyn FnOnce(&mut Scheduler<O>)>;

/// The payload of a work message costing `mflop` to execute.
pub fn mflop_payload(mflop: f64) -> Bytes {
    Bytes::copy_from_slice(&mflop.to_le_bytes())
}

fn mflop_of(item: &WorkItem) -> f64 {
    let head = item.payload.get(..8).and_then(|b| b.try_into().ok());
    f64::from_le_bytes(head.expect("work payload does not begin with the unit's Mflop"))
}

/// The two queues between one rank's `SimTransport` and its `SimRank`.
#[derive(Default)]
struct Wire {
    inbox: VecDeque<Envelope>,
    outbox: Vec<Envelope>,
}

/// A rank's [`Transport`] inside the simulator. Never blocks: there is no
/// wall clock to wait on, so `recv_timeout` is `try_recv`.
struct SimTransport {
    rank: Rank,
    nprocs: usize,
    // `Transport: Send` rules out `Rc<RefCell<_>>`; the lock is never
    // contended, the engine runs one callback at a time.
    wire: Arc<Mutex<Wire>>,
}

impl Transport for SimTransport {
    fn rank(&self) -> Rank {
        self.rank
    }
    fn nprocs(&self) -> usize {
        self.nprocs
    }
    fn send(&self, env: Envelope) {
        lock(&self.wire).outbox.push(env);
    }
    fn try_recv(&self) -> Option<Envelope> {
        lock(&self.wire).inbox.pop_front()
    }
    fn recv_timeout(&self, _timeout: Duration) -> Option<Envelope> {
        self.try_recv()
    }
}

fn lock(wire: &Mutex<Wire>) -> std::sync::MutexGuard<'_, Wire> {
    wire.lock()
        .expect("no panic can happen under the wire lock: its holders only push and pop")
}

/// One simulated processor running the PREMA stack (see the module docs).
struct SimRank<O: Migratable> {
    /// Shared with [`run`], which reads the counters once the engine is done.
    sched: Rc<RefCell<Scheduler<O>>>,
    wire: Arc<Mutex<Wire>>,
    /// The polling thread's period; `None` outside [`LbMode::Implicit`].
    poll_interval: Option<SimTime>,
    /// The executing unit and how much of its compute time is still to pass.
    current: Option<(Execution<O>, SimTime)>,
    /// Units not yet finished anywhere in the machine: the application's own
    /// completion detection (the benchmark knows its unit count).
    units_left: Rc<Cell<u64>>,
    /// The manual clock handed to the scheduler, set to the simulated time
    /// at every call into it.
    clock: Clock,
    /// The manually clocked sink the stack's tracer stamps from, if any.
    trace_clock: Option<Arc<TraceSink>>,
    /// This rank's arrivals not yet due, earliest first; each has a
    /// `T_ARRIVAL` timer set at start-up.
    arrivals: VecDeque<Arrival<O>>,
}

impl<O: Migratable> SimRank<O> {
    /// Call into the scheduler at the current simulated time, then put what
    /// it sent on the engine's wire.
    fn call<R>(&mut self, ctx: &mut Ctx, f: impl FnOnce(&mut Scheduler<O>) -> R) -> R {
        self.clock
            .set_now(Duration::from_nanos(ctx.now().as_nanos()));
        if let Some(sink) = &self.trace_clock {
            sink.set_now(ctx.now().as_nanos());
        }
        let r = f(&mut self.sched.borrow_mut());
        let sent = std::mem::take(&mut lock(&self.wire).outbox);
        for env in sent {
            ctx.send(env.dst, env.handler.0, env.wire_size(), Box::new(env));
        }
        r
    }

    /// Move what the engine has delivered into the transport's inbox.
    fn receive(&mut self, ctx: &mut Ctx) {
        let arrived = ctx.poll();
        lock(&self.wire)
            .inbox
            .extend(arrived.into_iter().map(|m| m.take::<Envelope>()));
    }

    /// `Runtime::step` up to the handler's return: the polling operation,
    /// then the next unit if there is one. An idle rank parks until a
    /// message arrives, or stops once no unit is left anywhere. The poll
    /// runs at every boundary, which is what `Runtime::step`'s slice gate
    /// does for units a `WIRE_SLICE` long or longer.
    fn unit_boundary(&mut self, ctx: &mut Ctx) {
        self.receive(ctx);
        self.call(ctx, |s| s.poll());
        match self.call(ctx, |s| s.begin()) {
            Some(mut exec) => {
                ctx.consume(Category::Scheduling, sched_cpu());
                ctx.consume(Category::Callback, callback_cpu());
                // The handler's sends stay in its `HandlerCtx` until `finish`.
                exec.run();
                let compute = ctx.work_time(mflop_of(&exec.item));
                self.current = Some((exec, compute));
                self.compute_segment(ctx);
            }
            None if self.units_left.get() == 0 => ctx.finish(),
            None => ctx.wait_msg(T_UNIT),
        }
    }

    /// Let the executing unit compute until the polling thread's next
    /// wake-up, or to its end when there is no polling thread.
    fn compute_segment(&mut self, ctx: &mut Ctx) {
        let (_, left) = self.current.as_mut().expect("no unit is executing");
        let seg = self.poll_interval.map_or(*left, |i| i.min(*left));
        *left -= seg;
        ctx.consume(Category::Computation, seg);
        ctx.schedule(SimTime::ZERO, T_SEG);
    }

    /// A segment ended: mid-unit that is the polling thread's wake-up
    /// (`spawn_poller`'s `poll_system`), at the unit's end it is `finish`
    /// and the next boundary.
    fn segment_end(&mut self, ctx: &mut Ctx) {
        let (exec, left) = self.current.take().expect("no unit is executing");
        if left > SimTime::ZERO {
            self.current = Some((exec, left));
            ctx.consume(Category::PollingThread, poll_wake_cpu());
            self.receive(ctx);
            let events = self.call(ctx, |s| s.poll_system());
            ctx.trace(TraceEvent::PollWake {
                events: events as u32,
            });
            self.compute_segment(ctx);
        } else {
            self.call(ctx, |s| s.finish(exec));
            self.units_left.set(self.units_left.get() - 1);
            self.unit_boundary(ctx);
        }
    }

    /// The next arrival is due. An executing unit is left alone: what was
    /// posted waits in the queue for its boundary (and for the polling
    /// thread's next pass to weigh). Otherwise the rank was parked, the timer
    /// has ended that wait, and this is a boundary.
    fn arrival(&mut self, ctx: &mut Ctx) {
        let due = self.arrivals.pop_front().expect("a timer per arrival");
        self.call(ctx, |s| (due.post)(s));
        if self.current.is_none() {
            self.unit_boundary(ctx);
        }
    }
}

impl<O: Migratable> Process for SimRank<O> {
    fn on_start(&mut self, ctx: &mut Ctx) {
        for a in &self.arrivals {
            ctx.schedule(a.at, T_ARRIVAL);
        }
        self.unit_boundary(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Ctx, token: u64) {
        match token {
            T_SEG => self.segment_end(ctx),
            T_ARRIVAL => self.arrival(ctx),
            _ => self.unit_boundary(ctx),
        }
    }
}

/// What a run leaves behind: the engine's report and each rank's own
/// counters, in rank order.
pub struct StackRun {
    /// Per-processor time accounting, message counts, makespan.
    pub report: SimReport,
    /// Each rank's scheduler counters.
    pub sched: Vec<SchedStats>,
    /// Each rank's MOL counters.
    pub mol: Vec<MolStats>,
}

/// Run `units` work units on `machine` under the runtime `cfg` describes.
/// `populate` is each rank's start-up code: it registers the handlers and
/// that rank's (`Scheduler::rank`) mobile objects and posts their first
/// messages. `arrivals` is the work that appears later.
///
/// The engine records its spans and messages into `trace`; the stack's own
/// tracer is attached too if the sink is manually clocked
/// ([`TraceSink::manual`]), its stamps then simulated nanoseconds, and left
/// off otherwise, a wall-clock stamp meaning nothing here.
pub fn run<O: Migratable>(
    machine: MachineConfig,
    cfg: &PremaConfig,
    units: u64,
    trace: Option<Arc<TraceSink>>,
    mut arrivals: Vec<Arrival<O>>,
    populate: impl Fn(&mut Scheduler<O>),
) -> StackRun {
    assert_eq!(cfg.nprocs, machine.procs, "one rank per processor");
    // Stable: arrivals due together are posted in the order given.
    arrivals.sort_by_key(|a| a.at);
    let mut due: Vec<VecDeque<Arrival<O>>> = (0..machine.procs).map(|_| VecDeque::new()).collect();
    for a in arrivals {
        assert!(a.rank < machine.procs, "an arrival on rank {}", a.rank);
        due[a.rank].push_back(a);
    }
    let poll_interval = match cfg.mode {
        LbMode::Implicit { poll_interval } => Some(SimTime(
            u64::try_from(poll_interval.as_nanos()).expect("poll interval fits in u64 ns"),
        )),
        LbMode::Explicit | LbMode::Disabled => None,
    };
    let trace_clock = trace.clone().filter(|s| s.is_manual());
    let units_left = Rc::new(Cell::new(units));
    let mut scheds = Vec::with_capacity(machine.procs);
    let report = Engine::build(machine, |rank| {
        let wire = Arc::new(Mutex::new(Wire::default()));
        let transport = SimTransport {
            rank,
            nprocs: machine.procs,
            wire: wire.clone(),
        };
        let tracer = trace_clock
            .as_ref()
            .map_or_else(prema::trace::Tracer::off, |s| s.tracer(rank));
        let clock = Clock::manual();
        let mut sched = build_scheduler(cfg, rank, Box::new(transport), clock.clone(), tracer);
        populate(&mut sched);
        let sched = Rc::new(RefCell::new(sched));
        scheds.push(sched.clone());
        Box::new(SimRank {
            sched,
            wire,
            poll_interval,
            current: None,
            units_left: units_left.clone(),
            clock,
            trace_clock: trace_clock.clone(),
            arrivals: std::mem::take(&mut due[rank]),
        })
    })
    .with_trace(trace)
    .run();
    StackRun {
        report,
        sched: scheds.iter().map(|s| s.borrow().stats()).collect(),
        mol: scheds.iter().map(|s| s.borrow().node().stats()).collect(),
    }
}
