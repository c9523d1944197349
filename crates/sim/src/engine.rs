//! The discrete-event engine.
//!
//! The engine models a distributed-memory machine: `P` processors, each with a
//! private inbox, connected by a latency/bandwidth network. Each processor is
//! driven by a [`Process`] — a state machine representing *the runtime system
//! plus application* running on that node (a PREMA scheduler, a Charm++
//! pick-and-process loop, a stop-and-repartition driver, ...).
//!
//! # Execution model
//!
//! A processor is always in exactly one of three states:
//!
//! * **running a callback** — the engine has invoked one of its [`Process`]
//!   hooks; any virtual time the callback consumes (via [`Ctx::consume`]) moves
//!   that processor's local clock forward and is attributed to an accounting
//!   [`Category`];
//! * **busy until a scheduled continuation** — the callback scheduled a timer
//!   ([`Ctx::schedule`]) and returned; messages arriving in the interim queue
//!   up in the inbox *without* interrupting the processor (this is what makes
//!   explicit polling vs. preemptive polling an observable difference);
//! * **idle-waiting** — the callback called [`Ctx::wait_msg`] with an empty
//!   inbox; the next message arrival, or a timer the processor had set
//!   beforehand, wakes the processor and the gap is attributed to
//!   [`Category::Idle`].
//!
//! Messages are delivered **only when the process polls** ([`Ctx::poll`]);
//! the engine never pushes a message into a callback.
//! This mirrors the polling-based message-passing substrate of the paper
//! (LAM/MPI) and is the property whose consequences the paper evaluates.
//!
//! Determinism: events are ordered by `(time, sequence-number)`, and per-pair
//! message FIFO order is enforced, so a simulation is a pure function of its
//! inputs.

use crate::account::{Category, TimeBreakdown};
use crate::net::MachineConfig;
use crate::stats::SimReport;
use crate::time::SimTime;
use prema_trace::{TraceEvent, TraceSink};
use std::any::Any;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::sync::Arc;

/// The runaway-simulation guard: a run that pops more events than this is
/// taken for a driver livelock and panics.
const MAX_EVENTS: u64 = 500_000_000;

/// Index of a simulated processor.
pub type ProcId = usize;

/// A message in flight or queued at a receiver.
pub struct SimMessage {
    /// Sending processor.
    pub src: ProcId,
    /// Destination processor.
    pub dst: ProcId,
    /// Driver-defined message kind (used e.g. to separate system-generated
    /// load-balancing traffic from application traffic, as PREMA does with
    /// message tags).
    pub kind: u32,
    /// Bytes on the wire (used for transit-time modelling; the `data` payload
    /// itself is an in-memory object).
    pub wire_size: usize,
    /// When the message reached the destination inbox.
    pub arrival: SimTime,
    /// Payload.
    pub data: Box<dyn Any>,
}

impl SimMessage {
    /// Downcast the payload to a concrete type, panicking with a useful
    /// message on driver bugs.
    pub fn take<T: 'static>(self) -> T {
        *self.data.downcast::<T>().unwrap_or_else(|_| {
            panic!(
                "SimMessage kind {} carried unexpected payload type",
                self.kind
            )
        })
    }
}

/// Per-processor driver: the "software" running on one simulated node.
pub trait Process {
    /// Called once at time zero.
    fn on_start(&mut self, ctx: &mut Ctx);

    /// Called when a timer scheduled via [`Ctx::schedule`] fires, or when a
    /// [`Ctx::wait_msg`] wait is satisfied (with the token passed to
    /// `wait_msg`).
    fn on_timer(&mut self, ctx: &mut Ctx, token: u64);
}

enum EvKind {
    Start,
    Timer { token: u64 },
    Arrive { msg: SimMessage },
}

struct Ev {
    time: SimTime,
    seq: u64,
    proc: ProcId,
    kind: EvKind,
}

// Order events by (time, seq) — BinaryHeap is a max-heap so we wrap in
// `Reverse` at the push site and only need Ord here.
impl PartialEq for Ev {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for Ev {}
impl PartialOrd for Ev {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Ev {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

struct ProcMeta {
    clock: SimTime,
    inbox: VecDeque<SimMessage>,
    waiting: Option<u64>,
    wait_cat: Category,
    idle_since: SimTime,
    acct: TimeBreakdown,
    done: bool,
    finish: SimTime,
    msgs_sent: u64,
    bytes_sent: u64,
}

impl ProcMeta {
    fn new() -> Self {
        ProcMeta {
            clock: SimTime::ZERO,
            inbox: VecDeque::new(),
            waiting: None,
            wait_cat: Category::Idle,
            idle_since: SimTime::ZERO,
            acct: TimeBreakdown::new(),
            done: false,
            finish: SimTime::ZERO,
            msgs_sent: 0,
            bytes_sent: 0,
        }
    }
}

/// Shared engine state that [`Ctx`] mutates on behalf of the running process.
struct Core {
    cfg: MachineConfig,
    heap: BinaryHeap<Reverse<Ev>>,
    seq: u64,
    metas: Vec<ProcMeta>,
    /// Last scheduled arrival per (src, dst), to enforce per-pair FIFO.
    fifo: HashMap<(ProcId, ProcId), SimTime>,
    events: u64,
    /// Optional trace recorder; events are stamped with simulated time.
    /// Pure observation — attaching a sink never changes a run's behavior.
    sink: Option<Arc<TraceSink>>,
}

impl Core {
    fn trace(&self, pid: ProcId, t: SimTime, ev: TraceEvent) {
        if let Some(sink) = &self.sink {
            sink.record(pid, t.0, ev);
        }
    }

    /// End `pid`'s idle wait at `at`, if it is in one: the gap is attributed
    /// to the category the wait named, and the wait's token is returned.
    fn end_wait(&mut self, pid: ProcId, at: SimTime) -> Option<u64> {
        let meta = &mut self.metas[pid];
        let token = meta.waiting.take()?;
        let idle = at.saturating_sub(meta.idle_since);
        let idle_since = meta.idle_since;
        let cat = meta.wait_cat;
        meta.acct.add(cat, idle);
        meta.wait_cat = Category::Idle;
        meta.clock = meta.clock.max(at);
        if idle.0 > 0 {
            self.trace(
                pid,
                idle_since,
                TraceEvent::Span {
                    cat: cat as u8,
                    dur: idle.0,
                },
            );
        }
        Some(token)
    }

    fn push(&mut self, time: SimTime, proc: ProcId, kind: EvKind) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Reverse(Ev {
            time,
            seq,
            proc,
            kind,
        }));
    }
}

/// The simulation context handed to [`Process`] hooks.
///
/// All interaction with the machine — consuming time, sending messages,
/// polling the inbox, scheduling continuations — goes through this handle.
pub struct Ctx<'a> {
    core: &'a mut Core,
    pid: ProcId,
}

impl<'a> Ctx<'a> {
    /// This processor's id.
    pub fn pid(&self) -> ProcId {
        self.pid
    }

    /// Number of processors in the machine.
    pub fn num_procs(&self) -> usize {
        self.core.cfg.procs
    }

    /// The machine configuration (cost model).
    pub fn machine(&self) -> &MachineConfig {
        &self.core.cfg
    }

    /// This processor's local clock.
    pub fn now(&self) -> SimTime {
        self.core.metas[self.pid].clock
    }

    /// Spend `dur` of CPU time attributed to `cat`, advancing the local clock.
    pub fn consume(&mut self, cat: Category, dur: SimTime) {
        let meta = &mut self.core.metas[self.pid];
        let start = meta.clock;
        meta.acct.add(cat, dur);
        meta.clock += dur;
        if dur.0 > 0 {
            self.core.trace(
                self.pid,
                start,
                TraceEvent::Span {
                    cat: cat as u8,
                    dur: dur.0,
                },
            );
        }
    }

    /// Record a driver-level trace event stamped at the current local clock.
    /// No-op unless a sink is attached ([`Engine::with_trace`]). Drivers use
    /// this for protocol events the engine cannot see (LB request / grant /
    /// refusal rounds).
    pub fn trace(&mut self, ev: TraceEvent) {
        let t = self.now();
        self.core.trace(self.pid, t, ev);
    }

    /// Virtual time to execute `mflop` million flops on this machine.
    pub fn work_time(&self, mflop: f64) -> SimTime {
        self.core.cfg.work_time(mflop)
    }

    /// Send a message. The sender is charged the per-message software send
    /// overhead ([`Category::Messaging`]); the message arrives at `dst` after
    /// the network transit time, respecting per-(src,dst) FIFO order.
    pub fn send(&mut self, dst: ProcId, kind: u32, wire_size: usize, data: Box<dyn Any>) {
        assert!(
            dst < self.core.cfg.procs,
            "send to nonexistent processor {dst}"
        );
        let send_cpu = self.core.cfg.send_cpu;
        self.consume(Category::Messaging, send_cpu);
        let now = self.now();
        let mut arrival = now + self.core.cfg.net.transit(wire_size);
        let fifo = self
            .core
            .fifo
            .entry((self.pid, dst))
            .or_insert(SimTime::ZERO);
        if arrival <= *fifo {
            arrival = *fifo + SimTime(1);
        }
        *fifo = arrival;
        let meta = &mut self.core.metas[self.pid];
        meta.msgs_sent += 1;
        meta.bytes_sent += wire_size as u64;
        let msg = SimMessage {
            src: self.pid,
            dst,
            kind,
            wire_size,
            arrival,
            data,
        };
        self.core.push(arrival, dst, EvKind::Arrive { msg });
        self.core.trace(
            self.pid,
            now,
            TraceEvent::Send {
                dst,
                handler: kind,
                bytes: wire_size,
                system: false,
            },
        );
    }

    /// Drain every message currently in the inbox, charging the per-message
    /// receive overhead. Returns messages in arrival order.
    pub fn poll(&mut self) -> Vec<SimMessage> {
        let taken: Vec<SimMessage> = self.core.metas[self.pid].inbox.drain(..).collect();
        let recv_cpu = self.core.cfg.recv_cpu;
        for _ in 0..taken.len() {
            self.consume(Category::Messaging, recv_cpu);
        }
        if self.core.sink.is_some() {
            let now = self.now();
            for m in &taken {
                self.core.trace(
                    self.pid,
                    now,
                    TraceEvent::Recv {
                        src: m.src,
                        handler: m.kind,
                        bytes: m.wire_size,
                        system: false,
                    },
                );
            }
        }
        taken
    }

    /// Schedule `on_timer(token)` to run after `dur` of *busy* time has
    /// passed. (To model a long work unit, consume its duration and schedule a
    /// zero-delay continuation, or schedule the continuation at the duration —
    /// both keep the processor unavailable in between.)
    pub fn schedule(&mut self, dur: SimTime, token: u64) {
        let t = self.now() + dur;
        self.core.push(t, self.pid, EvKind::Timer { token });
    }

    /// Go idle until a message arrives; `on_timer(token)` then fires at the
    /// arrival time and the gap is attributed to [`Category::Idle`]. If the
    /// inbox is already non-empty the wake-up fires immediately. A timer
    /// scheduled earlier and due first ends the wait instead, with its own
    /// token.
    pub fn wait_msg(&mut self, token: u64) {
        self.wait_msg_as(token, Category::Idle);
    }

    /// [`Ctx::wait_msg`], but the waiting span is attributed to `cat` —
    /// e.g. [`Category::Synchronization`] for time spent parked at a
    /// stop-and-repartition barrier.
    pub fn wait_msg_as(&mut self, token: u64, cat: Category) {
        let now = self.now();
        if !self.core.metas[self.pid].inbox.is_empty() {
            self.core.push(now, self.pid, EvKind::Timer { token });
            return;
        }
        let meta = &mut self.core.metas[self.pid];
        assert!(meta.waiting.is_none(), "proc {} double-waits", self.pid);
        meta.waiting = Some(token);
        meta.wait_cat = cat;
        meta.idle_since = now;
    }

    /// Mark this processor finished. Its local clock freezes as its finish
    /// time; remaining inbox messages are ignored.
    pub fn finish(&mut self) {
        let meta = &mut self.core.metas[self.pid];
        meta.done = true;
        meta.finish = meta.clock;
        let t = self.core.metas[self.pid].finish;
        self.core.trace(self.pid, t, TraceEvent::ProcFinish);
    }
}

/// The simulated machine plus its per-processor drivers.
///
/// ```
/// use prema_sim::{Category, Ctx, Engine, MachineConfig, Process, SimTime};
///
/// /// Each processor burns (pid+1) × 100 Mflop and stops.
/// struct Burn;
/// impl Process for Burn {
///     fn on_start(&mut self, ctx: &mut Ctx) {
///         let t = ctx.work_time(100.0 * (ctx.pid() + 1) as f64);
///         ctx.consume(Category::Computation, t);
///         ctx.finish();
///     }
///     fn on_timer(&mut self, _ctx: &mut Ctx, _t: u64) {}
/// }
///
/// let report = Engine::build(MachineConfig::small(4), |_| Box::new(Burn)).run();
/// assert_eq!(report.makespan, MachineConfig::small(4).work_time(400.0));
/// ```
pub struct Engine {
    core: Core,
    procs: Vec<Option<Box<dyn Process>>>,
}

impl Engine {
    /// Build a machine whose processor `p` runs `make(p)`.
    pub fn build<F>(cfg: MachineConfig, mut make: F) -> Self
    where
        F: FnMut(ProcId) -> Box<dyn Process>,
    {
        let n = cfg.procs;
        let mut core = Core {
            cfg,
            heap: BinaryHeap::new(),
            seq: 0,
            metas: (0..n).map(|_| ProcMeta::new()).collect(),
            fifo: HashMap::new(),
            events: 0,
            sink: None,
        };
        for p in 0..n {
            core.push(SimTime::ZERO, p, EvKind::Start);
        }
        Engine {
            core,
            procs: (0..n).map(|p| Some(make(p))).collect(),
        }
    }

    /// Attach a trace sink: every consumed span, attributed wait, message
    /// send/receive, and processor finish is recorded with simulated-time
    /// stamps (plus whatever the drivers record via [`Ctx::trace`]).
    /// Recording is pure observation; the run's outcome is unchanged.
    pub fn with_trace(mut self, sink: Option<Arc<TraceSink>>) -> Self {
        self.core.sink = sink;
        self
    }

    /// Run to completion: until every processor has called [`Ctx::finish`] or
    /// no events remain. Returns the per-processor accounting report.
    pub fn run(mut self) -> SimReport {
        while let Some(Reverse(ev)) = self.core.heap.pop() {
            self.core.events += 1;
            assert!(
                self.core.events <= MAX_EVENTS,
                "simulation exceeded {MAX_EVENTS} events — driver livelock?"
            );
            let pid = ev.proc;
            if self.core.metas[pid].done {
                continue;
            }
            match ev.kind {
                EvKind::Start => {
                    debug_assert_eq!(self.core.metas[pid].clock, SimTime::ZERO);
                    self.dispatch(pid, ev.time, None);
                }
                EvKind::Timer { token } => {
                    // A timer the processor set before it went idle ends
                    // the wait as an arrival would; the wait's own token is
                    // dropped, the timer's is the one delivered.
                    self.core.end_wait(pid, ev.time);
                    self.dispatch(pid, ev.time, Some(token));
                }
                EvKind::Arrive { msg } => {
                    self.core.metas[pid].inbox.push_back(msg);
                    if let Some(token) = self.core.end_wait(pid, ev.time) {
                        self.dispatch(pid, ev.time, Some(token));
                    }
                }
            }
            if self.core.metas.iter().all(|m| m.done) {
                break;
            }
        }
        // A processor that never called `finish` (the heap drained while it
        // was still waiting) reports its last clock as its finish time;
        // mirror that into the trace so a replay reconstructs the same
        // finish column (`Ctx::finish` already recorded the explicit ones).
        for pid in 0..self.core.metas.len() {
            if !self.core.metas[pid].done {
                let t = self.core.metas[pid].clock;
                self.core.trace(pid, t, TraceEvent::ProcFinish);
            }
        }
        let makespan = self
            .core
            .metas
            .iter()
            .map(|m| if m.done { m.finish } else { m.clock })
            .fold(SimTime::ZERO, SimTime::max);
        SimReport {
            breakdowns: self.core.metas.iter().map(|m| m.acct.clone()).collect(),
            finish: self
                .core
                .metas
                .iter()
                .map(|m| if m.done { m.finish } else { m.clock })
                .collect(),
            makespan,
            msgs_sent: self.core.metas.iter().map(|m| m.msgs_sent).collect(),
            bytes_sent: self.core.metas.iter().map(|m| m.bytes_sent).collect(),
            events: self.core.events,
        }
    }

    fn dispatch(&mut self, pid: ProcId, at: SimTime, token: Option<u64>) {
        // A timer can only fire at or after the local clock (timers are
        // scheduled at `now + dur`), so advancing to `at` never rewinds.
        {
            let meta = &mut self.core.metas[pid];
            meta.clock = meta.clock.max(at);
        }
        let mut proc = self.procs[pid].take().expect("process re-entered");
        {
            let mut ctx = Ctx {
                core: &mut self.core,
                pid,
            };
            match token {
                None => proc.on_start(&mut ctx),
                Some(t) => proc.on_timer(&mut ctx, t),
            }
        }
        self.procs[pid] = Some(proc);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Sends one message to the peer, waits for one, then finishes.
    struct PingPong {
        peer: ProcId,
        initiator: bool,
    }

    impl Process for PingPong {
        fn on_start(&mut self, ctx: &mut Ctx) {
            if self.initiator {
                ctx.send(self.peer, 1, 100, Box::new(42u64));
            }
            ctx.wait_msg(0);
        }
        fn on_timer(&mut self, ctx: &mut Ctx, _token: u64) {
            let msgs = ctx.poll();
            assert_eq!(msgs.len(), 1);
            let v: u64 = msgs.into_iter().next().unwrap().take();
            assert_eq!(v, 42);
            if !self.initiator {
                ctx.send(self.peer, 1, 100, Box::new(42u64));
            }
            ctx.finish();
        }
    }

    #[test]
    fn ping_pong_completes_with_idle_accounting() {
        let cfg = MachineConfig::small(2);
        let report = Engine::build(cfg, |p| {
            Box::new(PingPong {
                peer: 1 - p,
                initiator: p == 0,
            })
        })
        .run();
        // Proc 0 idles for a round trip; proc 1 idles for a one-way transit.
        assert!(report.breakdowns[0][Category::Idle] > report.breakdowns[1][Category::Idle]);
        assert!(report.breakdowns[1][Category::Idle] >= cfg.net.transit(100) - cfg.send_cpu);
        assert_eq!(report.msgs_sent, vec![1, 1]);
        assert_eq!(report.bytes_sent, vec![100, 100]);
        assert!(report.makespan > SimTime::ZERO);
    }

    /// Worker that consumes compute time and finishes.
    struct Cruncher {
        mflop: f64,
    }

    impl Process for Cruncher {
        fn on_start(&mut self, ctx: &mut Ctx) {
            let t = ctx.work_time(self.mflop);
            ctx.consume(Category::Computation, t);
            ctx.finish();
        }
        fn on_timer(&mut self, _ctx: &mut Ctx, _token: u64) {
            unreachable!()
        }
    }

    #[test]
    fn compute_time_matches_cost_model() {
        let cfg = MachineConfig::small(3);
        let report = Engine::build(cfg, |p| {
            Box::new(Cruncher {
                mflop: 100.0 * (p + 1) as f64,
            })
        })
        .run();
        for p in 0..3 {
            let expect = cfg.work_time(100.0 * (p + 1) as f64);
            assert_eq!(report.breakdowns[p][Category::Computation], expect);
            assert_eq!(report.finish[p], expect);
        }
        assert_eq!(report.makespan, cfg.work_time(300.0));
    }

    /// Messages queued while busy are only seen at the explicit poll.
    struct BusyThenPoll {
        polled_at: SimTime,
    }

    impl Process for BusyThenPoll {
        fn on_start(&mut self, ctx: &mut Ctx) {
            if ctx.pid() == 0 {
                // Sends arrive at proc 1 quickly...
                for _ in 0..5 {
                    ctx.send(1, 7, 10, Box::new(()));
                }
                ctx.finish();
            } else {
                // ...but proc 1 is busy for 1 s before it polls.
                ctx.consume(Category::Computation, SimTime::from_secs(1));
                ctx.schedule(SimTime::ZERO, 1);
            }
        }
        fn on_timer(&mut self, ctx: &mut Ctx, _token: u64) {
            let msgs = ctx.poll();
            assert_eq!(msgs.len(), 5);
            for m in &msgs {
                // All five arrived long before we looked.
                assert!(m.arrival < SimTime::from_secs(1));
            }
            self.polled_at = ctx.now();
            assert!(self.polled_at >= SimTime::from_secs(1));
            ctx.finish();
        }
    }

    #[test]
    fn busy_processor_defers_message_processing() {
        let report = Engine::build(MachineConfig::small(2), |_| {
            Box::new(BusyThenPoll {
                polled_at: SimTime::ZERO,
            })
        })
        .run();
        // Proc 1 never idled: it was busy the whole time before the poll.
        assert_eq!(report.breakdowns[1][Category::Idle], SimTime::ZERO);
    }

    /// Parks with a timer set for 1 s, parks again when it fires, and is woken
    /// for good by the message proc 1 sends at 2 s.
    struct TimedWaiter;

    impl Process for TimedWaiter {
        fn on_start(&mut self, ctx: &mut Ctx) {
            if ctx.pid() == 0 {
                ctx.schedule(SimTime::from_secs(1), 1);
                ctx.wait_msg(0);
            } else {
                ctx.consume(Category::Computation, SimTime::from_secs(2));
                ctx.send(0, 1, 0, Box::new(()));
                ctx.finish();
            }
        }
        fn on_timer(&mut self, ctx: &mut Ctx, token: u64) {
            if token == 1 {
                assert_eq!(ctx.now(), SimTime::from_secs(1));
                ctx.wait_msg(0);
            } else {
                assert_eq!(ctx.poll().len(), 1);
                ctx.finish();
            }
        }
    }

    #[test]
    fn a_timer_ends_a_wait_and_the_processor_may_wait_again() {
        let report = Engine::build(MachineConfig::small(2), |_| Box::new(TimedWaiter)).run();
        assert!(report.finish[0] > SimTime::from_secs(2));
        // Both waits are idle time, and nothing else happened but one receive.
        let idle = report.breakdowns[0][Category::Idle];
        assert_eq!(idle + MachineConfig::small(2).recv_cpu, report.finish[0]);
    }

    /// Per-pair FIFO: a large message sent before a small one still arrives first.
    struct FifoSender;
    struct FifoReceiver {
        seen: Vec<u32>,
    }

    impl Process for FifoSender {
        fn on_start(&mut self, ctx: &mut Ctx) {
            ctx.send(1, 1, 1 << 20, Box::new(1u32)); // 1 MiB: slow transit
            ctx.send(1, 2, 1, Box::new(2u32)); // 1 B: fast transit
            ctx.finish();
        }
        fn on_timer(&mut self, _ctx: &mut Ctx, _token: u64) {}
    }

    impl Process for FifoReceiver {
        fn on_start(&mut self, ctx: &mut Ctx) {
            ctx.wait_msg(0);
        }
        fn on_timer(&mut self, ctx: &mut Ctx, _token: u64) {
            for m in ctx.poll() {
                self.seen.push(m.take::<u32>());
            }
            if self.seen.len() == 2 {
                assert_eq!(self.seen, vec![1, 2], "FIFO violated");
                ctx.finish();
            } else {
                ctx.wait_msg(0);
            }
        }
    }

    #[test]
    fn per_pair_fifo_is_enforced() {
        let report = Engine::build(MachineConfig::small(2), |p| -> Box<dyn Process> {
            if p == 0 {
                Box::new(FifoSender)
            } else {
                Box::new(FifoReceiver { seen: vec![] })
            }
        })
        .run();
        assert_eq!(report.msgs_sent[0], 2);
    }

    #[test]
    fn determinism_same_inputs_same_report() {
        let run = || {
            Engine::build(MachineConfig::small(2), |p| {
                Box::new(PingPong {
                    peer: 1 - p,
                    initiator: p == 0,
                })
            })
            .run()
        };
        let a = run();
        let b = run();
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.finish, b.finish);
        assert_eq!(a.events, b.events);
        assert_eq!(a.breakdowns, b.breakdowns);
    }

    #[test]
    #[should_panic(expected = "nonexistent processor")]
    fn send_out_of_range_panics() {
        struct Bad;
        impl Process for Bad {
            fn on_start(&mut self, ctx: &mut Ctx) {
                ctx.send(99, 0, 0, Box::new(()));
            }
            fn on_timer(&mut self, _: &mut Ctx, _: u64) {}
        }
        Engine::build(MachineConfig::small(2), |_| Box::new(Bad)).run();
    }
}
