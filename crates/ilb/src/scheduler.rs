//! The ILB scheduler: PREMA's message-driven execution engine plus the
//! load-balancing protocol.
//!
//! One [`Scheduler`] runs per rank. It owns the rank's [`MolNode`] and drives
//! the PREMA cycle the paper describes in §4: receive and route messages,
//! schedule the next work unit, execute its handler, evaluate the local work
//! level, and exchange load-balancing traffic with the policy's neighborhood.
//!
//! The scheduler is a plain (single-threaded) state machine; the `prema`
//! facade composes it with OS threads and, in implicit mode, a preemptive
//! polling thread that calls [`Scheduler::poll_system`] concurrently. It
//! reads no clock of its own: the one it is handed ([`Scheduler::set_clock`])
//! paces the polling operation ([`Scheduler::poll_due`]). What a call sends
//! is handed to the node's transport before it returns; the facade flushes
//! that transport ([`prema_dcs::Transport::flush`]) before it releases the
//! rank's lock, so a pass's sends leave together.

use crate::policy::{LbPolicy, LoadMap, LoadSnapshot};
use crate::stability::{Governor, StabilityConfig, VetoKind};
use bytes::Bytes;
use prema_dcs::{Clock, FxHashMap, Rank, Tag, WireReader, WireWriter, WIRE_SLICE};
use prema_mol::{Migratable, MobilePtr, MolEvent, MolNode, WorkItem};
use prema_trace::{TraceEvent, Tracer};
use std::sync::Arc;
use std::time::Duration;

/// Node-message id of a load report (top of the u32 space, above
/// [`NODE_HANDLER_LIMIT`]; `lb_wire_layout_is_pinned` pins all three).
pub const LB_STATUS: u32 = 0xFFFF_F001;
/// Node-message id of a work request.
pub const LB_REQUEST: u32 = 0xFFFF_F002;
/// Node-message id of a refused work request.
pub const LB_NACK: u32 = 0xFFFF_F003;

/// First runtime-reserved node-message handler id; application node-message
/// handlers must stay below this.
pub const NODE_HANDLER_LIMIT: u32 = 0xFFFF_F000;

/// The load balancer's three node messages, each with its node-message id
/// ([`LbMsg::id`]) and its codec ([`LbMsg::encode`], [`LbMsg::decode`]); all
/// three travel as [`Tag::System`] ([`LbMsg::send`]). `handle_event`
/// dispatches on this type with one `match`.
#[derive(Clone, Copy, Debug, PartialEq)]
enum LbMsg {
    /// The sender's load, to a neighbour it is due to (DESIGN.md §18).
    Status(LoadSnapshot),
    /// A plea for work, carrying the requester's load.
    Request(LoadSnapshot),
    /// A refused request.
    Nack,
}

impl LbMsg {
    fn id(self) -> u32 {
        match self {
            LbMsg::Status(_) => LB_STATUS,
            LbMsg::Request(_) => LB_REQUEST,
            LbMsg::Nack => LB_NACK,
        }
    }

    /// A snapshot is written into a pooled buffer, which `node_message`
    /// copies into its frame and hands back; a NACK is empty.
    fn encode(self) -> Bytes {
        match self {
            LbMsg::Status(load) | LbMsg::Request(load) => WireWriter::pooled(16)
                .u64(load.units as u64)
                .f64(load.weight)
                .finish(),
            LbMsg::Nack => Bytes::new(),
        }
    }

    /// `None` if `id` names no LB message, or a snapshot is truncated, has
    /// a unit count that does not fit in `usize` (checked narrowing: a
    /// corrupt count must not truncate silently on 32-bit targets) or a
    /// weight that is not finite and non-negative. A NACK's payload is not
    /// read.
    fn decode(id: u32, payload: Bytes) -> Option<LbMsg> {
        let snapshot = || {
            let mut r = WireReader::new(payload);
            let (units, weight) = (r.try_usize()?, r.try_f64()?);
            (weight.is_finite() && weight >= 0.0).then_some(LoadSnapshot { units, weight })
        };
        match id {
            LB_STATUS => snapshot().map(LbMsg::Status),
            LB_REQUEST => snapshot().map(LbMsg::Request),
            LB_NACK => Some(LbMsg::Nack),
            _ => None,
        }
    }

    fn send<O: Migratable>(self, node: &mut MolNode<O>, dst: Rank) {
        node.node_message(dst, self.id(), Tag::System, self.encode());
    }
}

/// How far a rank's weight may drift from what a neighbour was last told
/// before that neighbour is told again, as a fraction of the told weight (see
/// [`status_due`]).
const STATUS_DRIFT: f64 = 0.125;

/// Whether an `LB_STATUS` is due to one neighbour (DESIGN.md §18): `told` is
/// what it was last told (`None`: nothing yet, or nothing since an object
/// last moved between the two — due whatever the load), `local` the load now,
/// `theirs` its own last report. A neighbour holding work acts on this rank's load only at the lines tested
/// here — empty or not, under the water-mark or not, and the weight to within
/// [`STATUS_DRIFT`] — so it is told when one is crossed. A hungry neighbour
/// (under its water-mark, or of unknown load) is told of every change: it is
/// the one about to beg, and a status showing work is the only thing that
/// re-opens a begging round that ran into its attempt cap.
fn status_due(
    policy: &dyn LbPolicy,
    told: Option<&LoadSnapshot>,
    local: &LoadSnapshot,
    theirs: Option<&LoadSnapshot>,
) -> bool {
    let Some(told) = told else {
        return true;
    };
    told != local
        && ((told.units == 0) != (local.units == 0)
            || policy.is_underloaded(told) != policy.is_underloaded(local)
            || (local.weight - told.weight).abs() > told.weight * STATUS_DRIFT
            || theirs.is_none_or(|t| policy.is_underloaded(t)))
}

/// A work-unit handler: runs with the (detached) object, a context for
/// sending messages, and the triggering work item.
pub type WorkHandler<O> = Arc<dyn Fn(&mut HandlerCtx, &mut O, &WorkItem) + Send + Sync>;

/// Buffered send context handed to work handlers. Handlers run with the
/// object *detached* from the node (so the preemptive polling thread can keep
/// balancing everything else); their sends are buffered here and applied when
/// the unit completes, a unit's object messages for other ranks leaving with
/// the rank's next poll ([`Scheduler::finish`]).
pub struct HandlerCtx {
    rank: Rank,
    nprocs: usize,
    outgoing: Vec<Outgoing>,
}

enum Outgoing {
    Object {
        ptr: MobilePtr,
        handler: u32,
        hint: f64,
        payload: Bytes,
    },
    Node {
        dst: Rank,
        handler: u32,
        payload: Bytes,
    },
}

// `#[inline]`: a handler lives in the application's crate, and the
// workspace builds without LTO; each send is a push onto the buffer.
impl HandlerCtx {
    /// This rank.
    #[inline]
    pub fn rank(&self) -> Rank {
        self.rank
    }

    /// Machine size.
    #[inline]
    pub fn nprocs(&self) -> usize {
        self.nprocs
    }

    /// Send a message to a mobile object (the paper's `ilb_message`).
    #[inline]
    pub fn message(&mut self, ptr: MobilePtr, handler: u32, payload: Bytes) {
        self.message_with_hint(ptr, handler, 1.0, payload);
    }

    /// [`HandlerCtx::message`] with a computational weight hint.
    #[inline]
    pub fn message_with_hint(&mut self, ptr: MobilePtr, handler: u32, hint: f64, payload: Bytes) {
        self.outgoing.push(Outgoing::Object {
            ptr,
            handler,
            hint,
            payload,
        });
    }

    /// Send a rank-targeted application message. `handler` must lie below
    /// [`NODE_HANDLER_LIMIT`]; the `prema` facade's `Completion` and
    /// `PhaseBarrier`, once installed, also take the four ids just below it,
    /// `NODE_HANDLER_LIMIT - 4 .. NODE_HANDLER_LIMIT`.
    pub fn node_message(&mut self, dst: Rank, handler: u32, payload: Bytes) {
        assert!(
            handler < NODE_HANDLER_LIMIT,
            "handler id collides with runtime"
        );
        self.outgoing.push(Outgoing::Node {
            dst,
            handler,
            payload,
        });
    }
}

/// Counters for one scheduler.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// Work units executed.
    pub executed: u64,
    /// Work requests sent.
    pub requests_sent: u64,
    /// Refusals received.
    pub nacks_recv: u64,
    /// Objects granted away in response to requests or flows.
    pub granted: u64,
    /// Of `granted`, the objects that left in the net-affine class: they had
    /// heard more from their destination than from this rank (DESIGN.md §21).
    pub granted_affine: u64,
    /// Status updates sent.
    pub status_sent: u64,
    /// Work items dropped because no handler was registered for their id
    /// (malformed or hostile remote message; dropping beats aborting the
    /// rank).
    pub dropped_work: u64,
    /// Node messages dropped: unregistered handler id or undecodable
    /// load-balancer payload.
    pub dropped_node_msgs: u64,
    /// Begging rounds abandoned because the victim never answered (lost
    /// request or lost grant); the round re-issues to another victim.
    pub request_timeouts: u64,
    /// Work requests refused by grant hysteresis: the weight gap to the
    /// requester did not clear the stability governor's band.
    pub hysteresis_refusals: u64,
    /// Object migrations vetoed by the minimum-residency guard (the object
    /// arrived too recently and has not executed yet).
    pub residency_vetoes: u64,
    /// Object migrations vetoed by the per-window migration-rate cap.
    pub rate_cap_vetoes: u64,
}

/// A rank-targeted message handler.
pub type NodeHandler = Arc<dyn Fn(&mut HandlerCtx, Rank, Bytes) + Send + Sync>;

/// The per-rank PREMA scheduler.
pub struct Scheduler<O: Migratable> {
    node: MolNode<O>,
    handlers: FxHashMap<u32, WorkHandler<O>>,
    node_handlers: FxHashMap<u32, NodeHandler>,
    policy: Box<dyn LbPolicy>,
    known: LoadMap,
    /// Victim of the outstanding work request, if any.
    outstanding: Option<Rank>,
    /// Polls elapsed since the outstanding request was sent.
    outstanding_polls: u64,
    /// Polls to wait for an answer (grant or NACK) before declaring the
    /// request lost and re-issuing. See
    /// [`Scheduler::set_request_timeout_polls`].
    request_timeout_polls: u64,
    /// Consecutive refusals in the current begging round.
    attempt: u32,
    /// Object currently detached for execution, if any.
    executing: Option<MobilePtr>,
    /// Weight hint of the executing unit; published statuses must account
    /// for in-flight work or diffusive policies see an under-report.
    executing_weight: f64,
    stats: SchedStats,
    lb_enabled: bool,
    /// Monotone poll counter: the governor's clock (never
    /// wall time — polls keep the scheduler deterministic).
    polls: u64,
    /// The time this scheduler is handed (see [`Scheduler::set_clock`]).
    clock: Clock,
    /// When [`Scheduler::poll`] last ran, on `clock`; `None` before the
    /// first.
    last_poll: Option<Duration>,
    /// `k`: [`Scheduler::poll_due`] reads `clock` on every k-th call with
    /// work queued ([`clock_stride`]).
    clock_every: u32,
    /// Calls to [`Scheduler::poll_due`] left until its next reading.
    clock_left: u32,
    /// The reading by which [`Scheduler::poll_due`] last found the poll
    /// due, for the [`Scheduler::poll`] that follows it to reuse.
    due_reading: Option<Duration>,
    /// [`Scheduler::units_begun`] at the last poll.
    begun_at_poll: u64,
    /// Migration stability governor (DESIGN.md §14).
    governor: Governor,
    /// `policy.neighborhood(rank, nprocs)`, fixed for the run, each rank with
    /// the load snapshot last published to it: `None` until the first, and
    /// again when an object arrived from it or a flow shipped one to it. A
    /// status goes to a neighbour when [`status_due`] says so.
    neighborhood: Vec<(Rank, Option<LoadSnapshot>)>,
    /// The send buffer of the last finished unit, emptied, for the next
    /// [`Scheduler::begin`] to hand its [`HandlerCtx`].
    spare_outgoing: Vec<Outgoing>,
    /// The last finished unit's handler, under its id: the next
    /// [`Scheduler::begin`] for the same id hands it on as it is, so a rank
    /// running one handler neither looks it up nor counts a reference to
    /// it per unit. Handlers are never replaced, so it is always the one
    /// `handlers` holds.
    spare_handler: Option<(u32, WorkHandler<O>)>,
    tracer: Tracer,
}

impl<O: Migratable> Scheduler<O> {
    /// Build a scheduler over a MOL node with the given policy. Its clock is
    /// a manual one standing at zero until [`Scheduler::set_clock`].
    pub fn new(node: MolNode<O>, policy: Box<dyn LbPolicy>) -> Self {
        let neighborhood = policy
            .neighborhood(node.rank(), node.nprocs())
            .into_iter()
            .map(|nb| (nb, None))
            .collect();
        Scheduler {
            node,
            handlers: FxHashMap::default(),
            node_handlers: FxHashMap::default(),
            policy,
            known: LoadMap::default(),
            outstanding: None,
            outstanding_polls: 0,
            request_timeout_polls: 256,
            attempt: 0,
            executing: None,
            executing_weight: 0.0,
            stats: SchedStats::default(),
            lb_enabled: true,
            polls: 0,
            clock: Clock::manual(),
            last_poll: None,
            clock_every: 1,
            clock_left: 1,
            due_reading: None,
            begun_at_poll: 0,
            governor: Governor::new(StabilityConfig::default()),
            neighborhood,
            spare_outgoing: Vec::new(),
            spare_handler: None,
            tracer: Tracer::off(),
        }
    }

    /// Replace the stability governor's limits (see [`StabilityConfig`]).
    /// Existing residency holds and window budgets are reset.
    pub fn set_stability(&mut self, cfg: StabilityConfig) {
        self.governor = Governor::new(cfg);
    }

    /// The stability limits currently enforced.
    pub fn stability(&self) -> StabilityConfig {
        self.governor.config()
    }

    /// Attach a trace recorder. Propagates down through the MOL node to the
    /// communicator so the whole rank records into one sink.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.node.set_tracer(tracer.clone());
        self.tracer = tracer;
    }

    /// Disable load balancing entirely (the "no load balancing" baseline).
    pub fn set_lb_enabled(&mut self, enabled: bool) {
        self.lb_enabled = enabled;
    }

    /// Hand the scheduler its time: [`Clock::monotonic`] on a thread, a
    /// manual clock where a test or the simulator decides what time it is.
    /// It paces [`Scheduler::poll_due`]; the governor and the request
    /// watchdog still count polls.
    pub fn set_clock(&mut self, clock: Clock) {
        self.clock = clock;
    }

    /// How many polls a begging request may stay unanswered before the round
    /// declares it lost, forgets the victim's stale load snapshot, and
    /// re-issues to the next candidate. The clock is the *requester's own*
    /// polls. An empty rank polls on every step, about once a microsecond on
    /// the threaded runtime: the default 256 is ~240 µs there, against a
    /// donor that answers from its polling thread every `poll_interval`
    /// (1 ms) while it sits in a handler. So it fires on wires that lose
    /// nothing (DESIGN.md §19), and is also, under chaos, the liveness
    /// backstop for a lost GRANT. (A requester with work queued polls once
    /// per [`WIRE_SLICE`], so the same count lasts ~13 ms there.)
    pub fn set_request_timeout_polls(&mut self, polls: u64) {
        assert!(polls > 0, "request timeout must be at least one poll");
        self.request_timeout_polls = polls;
    }

    /// This rank.
    pub fn rank(&self) -> Rank {
        self.node.rank()
    }

    /// Machine size.
    pub fn nprocs(&self) -> usize {
        self.node.nprocs()
    }

    /// Scheduler counters.
    pub fn stats(&self) -> SchedStats {
        self.stats
    }

    /// The latest load report held for each rank that sent one: a neighbour's
    /// `LB_STATUS`, or the snapshot its last work request carried.
    pub fn known(&self) -> &LoadMap {
        &self.known
    }

    /// The underlying MOL node.
    pub fn node(&self) -> &MolNode<O> {
        &self.node
    }

    /// Mutable access to the underlying MOL node (registration etc.).
    pub fn node_mut(&mut self) -> &mut MolNode<O> {
        &mut self.node
    }

    /// Register the handler for work-unit messages with id `id`.
    pub fn on_message(
        &mut self,
        id: u32,
        f: impl Fn(&mut HandlerCtx, &mut O, &WorkItem) + Send + Sync + 'static,
    ) {
        let prev = self.handlers.insert(id, Arc::new(f));
        assert!(prev.is_none(), "work handler {id} registered twice");
    }

    /// Register a handler for rank-targeted application messages.
    pub fn on_node_message(
        &mut self,
        id: u32,
        f: impl Fn(&mut HandlerCtx, Rank, Bytes) + Send + Sync + 'static,
    ) {
        assert!(id < NODE_HANDLER_LIMIT, "handler id collides with runtime");
        let prev = self.node_handlers.insert(id, Arc::new(f));
        assert!(prev.is_none(), "node handler {id} registered twice");
    }

    /// Current local load: queued work plus the unit in execution.
    pub fn local_load(&self) -> LoadSnapshot {
        let mut s = LoadSnapshot {
            units: self.node.ready_len(),
            weight: self.node.ready_load(),
        };
        if self.executing.is_some() {
            s.units += 1;
            s.weight += self.executing_weight;
        }
        s
    }

    /// Whether nothing is queued or executing locally.
    pub fn is_idle(&self) -> bool {
        self.node.ready_len() == 0 && self.executing.is_none()
    }

    /// Work units begun so far: those executed plus the one executing, if
    /// any.
    pub fn units_begun(&self) -> u64 {
        self.stats.executed + u64::from(self.executing.is_some())
    }

    /// PREMA's *polling operation* (§4): receive and process messages,
    /// handle system load-balancing traffic, and evaluate the local work
    /// level — the balancer's one evaluation point besides
    /// [`Scheduler::poll_system`]. Polls whenever called; a caller that
    /// wants it paced asks [`Scheduler::poll_due`] first. Returns the number
    /// of protocol events handled.
    pub fn poll(&mut self) -> usize {
        self.polls += 1;
        self.start_slice();
        let events = self.node.pump();
        let n = events.len();
        self.tracer.emit(|| TraceEvent::Poll { events: n as u32 });
        for ev in events {
            self.handle_event(ev);
        }
        if self.lb_enabled {
            self.lb_evaluate();
        }
        #[cfg(feature = "check-invariants")]
        self.verify_invariants();
        n
    }

    /// Whether the polling operation is due before the next unit (DESIGN.md
    /// §8): always when nothing is queued locally — the rank has nothing
    /// better to do, and must beg now — and before the first
    /// [`Scheduler::poll`]; otherwise once [`WIRE_SLICE`] has passed on the
    /// scheduler's clock since the last. A rank working through
    /// sub-microsecond units thus pumps its wire and weighs its load once per
    /// slice, not once per unit, while a unit a slice long or longer polls
    /// before every unit as before. `prema::Runtime::step` asks this before
    /// every unit; every other caller polls unconditionally.
    ///
    /// With work queued it reads the clock on every k-th call only, k =
    /// clamp(units per slice ÷ 4, 1, 8), the units counted over the last
    /// slice that ended by the clock and scaled to one [`WIRE_SLICE`] of its
    /// time. k is 1 before the first such slice, after any other poll, and
    /// while units are a slice long, so those polls come exactly as if the
    /// clock were read every call. The bound: after units suddenly
    /// lengthen, a poll comes at most k − 1 units late, and the slice it
    /// ends counts the longer units at the rate they ran, so the next k
    /// fits them (1 once they are over an eighth of a slice). A call that
    /// finds the poll due keeps its reading for the [`Scheduler::poll`]
    /// that follows, which takes no reading of its own.
    pub fn poll_due(&mut self) -> bool {
        if self.node.ready_len() == 0 {
            return true;
        }
        let Some(last) = self.last_poll else {
            return true;
        };
        if self.clock_left > 1 {
            self.clock_left -= 1;
            return false;
        }
        self.clock_left = self.clock_every;
        let now = self.clock.now();
        let due = now >= last + WIRE_SLICE;
        if due {
            self.due_reading = Some(now);
        }
        due
    }

    /// A poll starts a slice: take the time — the reading
    /// [`Scheduler::poll_due`] found it due by, if it did, else the clock's
    /// — and set the next slice's k from the one that just ended, if that
    /// one ended by the clock, else to 1.
    fn start_slice(&mut self) {
        let reading = self.due_reading.take();
        let now = reading.unwrap_or_else(|| self.clock.now());
        let begun = self.units_begun();
        self.clock_every = match (reading, self.last_poll) {
            (Some(_), Some(last)) => clock_stride(begun - self.begun_at_poll, now - last),
            _ => 1,
        };
        self.clock_left = self.clock_every;
        self.begun_at_poll = begun;
        self.last_poll = Some(now);
    }

    /// The *preemptive* poll: processes only system-generated traffic
    /// (migrations, location updates, load-balancer messages), never
    /// application messages. In implicit mode the `prema` facade calls this
    /// from the polling thread while a work unit executes (§4.2). Each pass
    /// also starts a new migration-rate window ([`StabilityConfig`]), so call
    /// it at the polling thread's cadence, not in a loop.
    pub fn poll_system(&mut self) -> usize {
        self.polls += 1;
        // The polling thread's wake-up is the governor's one wall-clock edge:
        // the rate window ends here, before this pass answers anything
        // (DESIGN.md §19).
        self.governor.roll_window(self.polls);
        let events = self.node.poll_system();
        let n = events.len();
        self.tracer
            .emit(|| TraceEvent::PollSystem { events: n as u32 });
        for ev in events {
            self.handle_event(ev);
        }
        if self.lb_enabled {
            self.lb_evaluate();
        }
        #[cfg(feature = "check-invariants")]
        self.verify_invariants();
        n
    }

    /// Begin the next queued work unit, detaching its object. Returns `None`
    /// if the queue is empty. The caller runs the returned [`Execution`]'s
    /// handler (possibly without holding any lock on this scheduler) and then
    /// calls [`Scheduler::finish`].
    pub fn begin(&mut self) -> Option<Execution<O>> {
        assert!(
            self.executing.is_none(),
            "begin() while a unit is executing"
        );
        // A reading `poll_due` kept for a poll that did not follow is stale.
        self.due_reading = None;
        loop {
            let item = self.node.pop_work()?;
            // Resolve the handler before detaching the object: a work item
            // for an unregistered handler id (one malformed or hostile
            // remote message) must be droppable without aborting the rank —
            // and without leaving its object detached.
            let handler = match self.spare_handler.take() {
                Some((id, h)) if id == item.handler => Some(h),
                _ => self.handlers.get(&item.handler).cloned(),
            };
            let Some(handler) = handler else {
                self.stats.dropped_work += 1;
                let peer = item.sender;
                let handler = item.handler;
                self.tracer
                    .emit(|| TraceEvent::DcsDropped { peer, handler });
                continue;
            };
            let Some(obj) = self.node.take_object(item.ptr) else {
                // The object is resident but detached — impossible here since
                // we are the only executor. Treat defensively as a skip.
                debug_assert!(false, "popped work for a detached object");
                continue;
            };
            self.executing = Some(item.ptr);
            self.executing_weight = item.hint;
            // Execution earns residency: the object did real work here, so
            // the governor's anti-ping-pong hold no longer applies.
            self.governor.note_executed(item.ptr);
            self.tracer.emit(|| TraceEvent::ExecBegin {
                home: item.ptr.home,
                index: item.ptr.index,
                handler: item.handler,
            });
            return Some(Execution {
                item,
                obj: Some(obj),
                handler: Some(handler),
                ctx: HandlerCtx {
                    rank: self.rank(),
                    nprocs: self.nprocs(),
                    outgoing: std::mem::take(&mut self.spare_outgoing),
                },
            });
        }
    }

    /// Complete an execution started by [`Scheduler::begin`]: re-attach the
    /// object, apply the handler's buffered sends and update counters. The
    /// load balancer is not evaluated here, and the object messages the
    /// handler sent to other ranks do not leave here: the next polling
    /// operation weighs the load and sends them, at most a [`WIRE_SLICE`]
    /// away under `prema::Runtime::step`, and at once if the queue ran dry.
    /// A [`Scheduler::poll_system`] in between sends them too.
    pub fn finish(&mut self, mut exec: Execution<O>) {
        self.finish_in_place(&mut exec);
    }

    /// [`Scheduler::finish`] on an execution the caller keeps, which is
    /// spent afterwards: it gives back the object, its send buffer and its
    /// handler, and what is left is the work item. The caller moves nothing
    /// across the lock but a reference: `prema::Runtime::step` runs a unit
    /// where [`Scheduler::begin`] wrote it.
    pub fn finish_in_place(&mut self, exec: &mut Execution<O>) {
        let obj = exec.obj.take().expect("execution finished twice");
        let ptr = exec.item.ptr;
        assert_eq!(self.executing, Some(ptr), "finish() does not match begin()");
        self.node.put_object(ptr, obj);
        self.executing = None;
        self.executing_weight = 0.0;
        self.stats.executed += 1;
        self.tracer.emit(|| TraceEvent::ExecFinish {
            home: ptr.home,
            index: ptr.index,
        });
        let mut outgoing = std::mem::take(&mut exec.ctx.outgoing);
        self.apply_outgoing(&mut outgoing);
        self.spare_outgoing = outgoing;
        self.spare_handler = exec.handler.take().map(|h| (exec.item.handler, h));
        #[cfg(feature = "check-invariants")]
        self.verify_invariants();
    }

    /// Assert the scheduler's work-conservation invariant: every work unit
    /// the MOL has delivered to this scheduler either finished executing or
    /// is the single unit currently detached for execution — migration in
    /// either direction must never lose or duplicate one. Also re-checks the
    /// MOL-level queue conservation. Called internally after every
    /// poll/finish; public so tests can check at their own boundaries.
    /// Panics on violation.
    #[cfg(feature = "check-invariants")]
    pub fn verify_invariants(&self) {
        self.node.verify_conservation();
        let delivered = self.node.stats().delivered;
        let in_flight = self.executing.is_some() as u64;
        assert_eq!(
            delivered,
            self.stats.executed + in_flight + self.stats.dropped_work,
            "scheduler conservation oracle: MOL delivered {} work units but \
             {} executed + {} in flight + {} dropped (unroutable)",
            delivered,
            self.stats.executed,
            in_flight,
            self.stats.dropped_work
        );
    }

    /// Convenience: begin + run + finish in one call (single-threaded /
    /// explicit-mode use). Returns `false` if no work was queued. It does
    /// not poll, so nothing it does reaches the balancer until the caller
    /// next does.
    pub fn step(&mut self) -> bool {
        let mut exec = self.begin();
        let Some(exec) = &mut exec else {
            return false;
        };
        exec.run();
        self.finish_in_place(exec);
        true
    }

    /// Send what a handler buffered, leaving the buffer empty (and its
    /// allocation reusable). Object messages go to
    /// [`MolNode::stage_message`]: a local target has its message at once,
    /// a remote one's record joins the frame this rank sends that peer at
    /// its next poll (DESIGN.md §11). Node messages are sent at once, after
    /// that peer's frame.
    fn apply_outgoing(&mut self, outgoing: &mut Vec<Outgoing>) {
        for out in outgoing.drain(..) {
            match out {
                Outgoing::Object {
                    ptr,
                    handler,
                    hint,
                    payload,
                } => self.node.stage_message(ptr, handler, hint, payload),
                Outgoing::Node {
                    dst,
                    handler,
                    payload,
                } => self.node.node_message(dst, handler, Tag::App, payload),
            }
        }
    }

    fn handle_event(&mut self, ev: MolEvent) {
        match ev {
            MolEvent::Node {
                src,
                handler,
                payload,
                ..
            } if handler < NODE_HANDLER_LIMIT => {
                if let Some(h) = self.node_handlers.get(&handler).cloned() {
                    let mut ctx = HandlerCtx {
                        rank: self.rank(),
                        nprocs: self.nprocs(),
                        outgoing: Vec::new(),
                    };
                    h(&mut ctx, src, payload);
                    self.apply_outgoing(&mut ctx.outgoing);
                    // This poll has sent its frames already: what a node
                    // handler sends leaves now, not at the next one.
                    self.node.flush();
                } else {
                    // An unregistered handler id is one bad remote
                    // message; dropping it beats aborting the rank.
                    self.drop_node_msg(src, handler);
                }
            }
            // The ids at and above the limit are the load balancer's: one
            // that names no LB message, or does not decode, is dropped.
            MolEvent::Node {
                src,
                handler,
                payload,
                ..
            } => match LbMsg::decode(handler, payload) {
                Some(LbMsg::Status(snap)) => {
                    self.known.insert(src, snap);
                    // Begging liveness: a rank that exhausted its attempt
                    // cap would otherwise never beg again until work arrives
                    // by luck. Fresh evidence of an overloaded neighbor
                    // re-opens the round.
                    if snap.units > 0 && self.attempt >= self.attempt_cap() {
                        self.attempt = 0;
                    }
                }
                Some(LbMsg::Request(requester)) => {
                    self.tracer.emit(|| TraceEvent::LbRequestRecv { src });
                    // The requester's own load rides on the request: with
                    // statuses sent on demand it is the freshest evidence
                    // that `src` is hungry, and `status_due` reads it. Only
                    // for a neighbour — work stealing begs anyone, and a
                    // diffusive policy pushes flows at every rank in `known`.
                    if self.told_mut(src).is_some() {
                        self.known.insert(src, requester);
                    }
                    self.handle_request(src, requester);
                }
                Some(LbMsg::Nack) => {
                    self.stats.nacks_recv += 1;
                    // Only a refusal from the victim of the *outstanding*
                    // request ends the round: a delayed NACK from an earlier
                    // round must not cancel a newer request to a different
                    // victim (or burn an attempt).
                    let stale = self.outstanding != Some(src);
                    self.tracer.emit(|| TraceEvent::LbNackRecv { src, stale });
                    if !stale {
                        // Burn the refuser's load report: whatever snapshot
                        // made it look like a victim is evidently stale, and
                        // keeping it would re-beg the same deterministic
                        // refuser on every retry. Its next real status
                        // re-inserts it.
                        self.known.remove(&src);
                        self.outstanding = None;
                        self.attempt += 1;
                    }
                }
                None => self.drop_node_msg(src, handler),
            },
            MolEvent::Installed { ptr, from } => {
                // Work arrived: the begging round (if any) succeeded. The
                // governor starts the object's minimum-residency hold so it
                // cannot be granted straight back out (migration ping-pong).
                self.governor.note_install(ptr, self.polls);
                if self.outstanding.take().is_some() {
                    self.tracer.emit(|| TraceEvent::LbGrantRecv {
                        src: from,
                        units: 1,
                    });
                }
                self.attempt = 0;
                // The rank that shipped it is owed a report, however little
                // the object weighs: it goes by an estimate of this rank's
                // load since (see the flow loop in `lb_evaluate`), and keeps
                // pushing at it until told the truth.
                if let Some(told) = self.told_mut(from) {
                    *told = None;
                }
            }
            MolEvent::Object { .. } => {
                unreachable!("pump()/poll_system() never emit Object events")
            }
        }
    }

    /// What neighbour `nb` was last told of this rank's load; `None` when `nb`
    /// is not in the neighbourhood.
    fn told_mut(&mut self, nb: Rank) -> Option<&mut Option<LoadSnapshot>> {
        self.neighborhood
            .iter_mut()
            .find(|(r, _)| *r == nb)
            .map(|(_, told)| told)
    }

    /// Count and trace an unroutable or undecodable node message.
    fn drop_node_msg(&mut self, src: Rank, handler: u32) {
        self.stats.dropped_node_msgs += 1;
        self.tracer
            .emit(|| TraceEvent::DcsDropped { peer: src, handler });
    }

    /// Answer a work request: migrate objects (with their queued messages)
    /// to the requester, or send a refusal.
    fn handle_request(&mut self, src: Rank, requester: LoadSnapshot) {
        let local = self.local_load();
        // Grant hysteresis (stability governor): refuse outright unless the
        // weight gap clears the band. On an oversubscribed host near-equal
        // ranks otherwise trade the same objects endlessly.
        if !self.governor.hysteresis_ok(local.weight, requester.weight) {
            self.stats.hysteresis_refusals += 1;
            self.tracer.emit(|| TraceEvent::LbVeto {
                peer: src,
                kind: VetoKind::Hysteresis.code(),
            });
            self.tracer.emit(|| TraceEvent::LbNackSent { dst: src });
            LbMsg::Nack.send(&mut self.node, src);
            return;
        }
        let want = self.policy.grant_units(&local, &requester);
        if want == 0 {
            self.tracer.emit(|| TraceEvent::LbNackSent { dst: src });
            LbMsg::Nack.send(&mut self.node, src);
            return;
        }
        let affine_before = self.stats.granted_affine;
        let granted = self.grant_objects(src, want, requester.units == 0);
        if granted == 0 {
            self.tracer.emit(|| TraceEvent::LbNackSent { dst: src });
            LbMsg::Nack.send(&mut self.node, src);
        } else {
            let affine = self.stats.granted_affine - affine_before;
            self.tracer.emit(|| TraceEvent::LbGrant {
                dst: src,
                units: granted as u32,
                affine: affine as u32,
            });
        }
    }

    /// Per-object candidates for a migration toward `dst`, grant or flow,
    /// whatever the policy: `(object, queued messages, summed weight,
    /// net-affine)`. The *net-affine* objects come first — those that over
    /// their lifetime have consumed more messages sent from `dst` than from
    /// this rank, which is what an object displaced from `dst` looks like
    /// while its partners stay behind — and everything else after; inside each
    /// class the order is the ready summary's, heaviest first. Where no object
    /// has heard from `dst` that is the ready summary itself (DESIGN.md §21).
    fn grant_candidates(&self, dst: Rank) -> Vec<(MobilePtr, usize, f64, bool)> {
        let me = self.rank();
        // Nothing resident has ever heard from `dst` (a hotspot's donor facing
        // its first thief): no lookup below could say otherwise.
        let heard = self.node.interactions_with(dst) > 0;
        let mut candidates: Vec<_> = self
            .node
            .ready_summary()
            .into_iter()
            .map(|(ptr, units, weight)| {
                let affine = heard && {
                    let [theirs, mine] = self.node.interactions_from(ptr, [dst, me]);
                    theirs > mine
                };
                (ptr, units, weight, affine)
            })
            .collect();
        if heard {
            // Stable, and the key was read once per candidate above.
            candidates.sort_by_key(|&(.., affine)| !affine);
        }
        candidates
    }

    /// Governor check common to grants and flows: `true` if `ptr` may leave
    /// for `dst` right now. Counts and traces vetoes; `rate_exhausted` is
    /// latched so callers can stop iterating once the window budget is gone.
    fn may_migrate(&mut self, ptr: MobilePtr, dst: Rank, rate_exhausted: &mut bool) -> bool {
        if self.governor.residency_held(ptr, self.polls) {
            self.stats.residency_vetoes += 1;
            self.tracer.emit(|| TraceEvent::LbVeto {
                peer: dst,
                kind: VetoKind::Residency.code(),
            });
            return false;
        }
        if !self.governor.migration_allowed(self.polls) {
            self.stats.rate_cap_vetoes += 1;
            self.tracer.emit(|| TraceEvent::LbVeto {
                peer: dst,
                kind: VetoKind::RateCap.code(),
            });
            *rate_exhausted = true;
            return false;
        }
        true
    }

    /// Migrate `ptr` to `dst` if the governor allows it and the object is
    /// free to go, and book the move.
    fn ship(&mut self, ptr: MobilePtr, dst: Rank, affine: bool, rate_exhausted: &mut bool) -> bool {
        if !self.may_migrate(ptr, dst, rate_exhausted) || !self.node.migrate(ptr, dst) {
            return false;
        }
        self.governor.note_departed(ptr);
        self.governor.note_migration();
        self.stats.granted += 1;
        self.stats.granted_affine += u64::from(affine);
        true
    }

    /// Migrate objects covering roughly `want_units` queued messages to
    /// `dst`. Returns the number of units actually covered.
    fn grant_objects(&mut self, dst: Rank, want_units: usize, requester_idle: bool) -> usize {
        let mut covered = 0usize;
        let mut rate_exhausted = false;
        for (ptr, units, _weight, affine) in self.grant_candidates(dst) {
            if covered >= want_units || rate_exhausted {
                break;
            }
            if Some(ptr) == self.executing {
                continue; // never migrate the executing unit
            }
            // Don't strip ourselves bare: keep at least one queued unit
            // unless the requester is completely empty. (`covered > 0` was
            // the old guard — it let the *first* grant empty the donor even
            // for a non-idle requester.)
            if self.node.ready_len() <= units && !requester_idle {
                break;
            }
            if self.ship(ptr, dst, affine, &mut rate_exhausted) {
                covered += units;
            }
        }
        covered
    }

    /// Evaluate the local work level and act: publish status to the
    /// neighborhood, push diffusive flows, and beg for work when under the
    /// water-mark (§4.1's water-mark logic).
    fn lb_evaluate(&mut self) {
        let local = self.local_load();
        let me = self.rank();
        let n = self.nprocs();

        // Publish status to the neighbours it is due to.
        for (nb, told) in &mut self.neighborhood {
            if status_due(&*self.policy, told.as_ref(), &local, self.known.get(nb)) {
                LbMsg::Status(local).send(&mut self.node, *nb);
                self.stats.status_sent += 1;
                *told = Some(local);
            }
        }

        // Sender-initiated flows (diffusive policies). Ship only objects
        // that fit wholly within the prescribed flow: overshooting ships the
        // last object back and forth between near-balanced neighbors.
        // The policy sizes a flow; which objects it takes is
        // `grant_candidates`' order under every policy.
        let flows = self.policy.flows(me, &local, &self.known);
        let mut rate_exhausted = false;
        for (dst, weight) in flows {
            if rate_exhausted {
                break;
            }
            let mut remaining = weight;
            for (ptr, units, w, affine) in self.grant_candidates(dst) {
                if rate_exhausted {
                    break;
                }
                if Some(ptr) == self.executing || w > remaining {
                    continue;
                }
                if self.ship(ptr, dst, affine, &mut rate_exhausted) {
                    remaining -= w.max(1e-9);
                    // Book the shipment against `dst`: its own report of it
                    // is a round trip away, and until then every evaluation
                    // would push the same flow again at a load that is
                    // already history. And owe `dst` a report in turn: a flow
                    // is sized on both loads, whatever the weight it moved.
                    if let Some(theirs) = self.known.get_mut(&dst) {
                        theirs.units += units;
                        theirs.weight += w;
                    }
                    if let Some(told) = self.told_mut(dst) {
                        *told = None;
                    }
                }
            }
        }

        // Outstanding-request watchdog: on a reliable wire every request is
        // answered with a grant or a NACK, but a lossy wire can eat either —
        // and a starving rank that waits forever on a lost GRANT is wedged.
        // After `request_timeout_polls` unanswered polls, declare the request
        // lost: forget the victim's (evidently stale) load snapshot so the
        // next round falls back to the next-most-loaded candidate, and burn
        // an attempt. The polls are this rank's own, so an idle rank times
        // out in ~240 µs and re-sends to a victim that has not looked yet
        // (see `set_request_timeout_polls`). What keeps that duplicate from
        // taking a second helping is the victim's rate cap, not this code:
        // the duplicate is answered in the same poller pass as its original
        // and draws on the one window budget, which the original has spent
        // (DESIGN.md §19; a late NACK is ignored as stale). A design that
        // exempts an idle requester from the cap grants once per duplicate.
        if let Some(victim) = self.outstanding {
            self.outstanding_polls += 1;
            if self.outstanding_polls >= self.request_timeout_polls {
                self.stats.request_timeouts += 1;
                let attempt = self.attempt;
                self.tracer.emit(|| TraceEvent::DcsRetry {
                    peer: victim,
                    seq: 0,
                    attempt,
                });
                self.known.remove(&victim);
                self.outstanding = None;
                self.outstanding_polls = 0;
                self.attempt += 1;
            }
        }

        // Receiver-initiated begging.
        if self.outstanding.is_none()
            && self.policy.is_underloaded(&local)
            && self.attempt < self.attempt_cap()
        {
            if let Some(victim) = self.policy.choose_victim(me, n, &self.known, self.attempt) {
                let attempt = self.attempt;
                self.tracer
                    .emit(|| TraceEvent::LbRequest { victim, attempt });
                LbMsg::Request(local).send(&mut self.node, victim);
                // The request told the victim this rank's load, like a status.
                if let Some(told) = self.told_mut(victim) {
                    *told = Some(local);
                }
                self.outstanding = Some(victim);
                self.outstanding_polls = 0;
                self.stats.requests_sent += 1;
            }
        }
    }

    /// Maximum consecutive refusals before a begging round gives up (until
    /// fresh status shows an overloaded neighbor or new work arrives).
    fn attempt_cap(&self) -> u32 {
        (self.nprocs() as u32).max(4) * 2
    }
}

/// An in-progress work unit: the detached object plus its handler. Produced
/// by [`Scheduler::begin`]; run with [`Execution::run`]; completed with
/// [`Scheduler::finish`].
pub struct Execution<O: Migratable> {
    /// The triggering message.
    pub item: WorkItem,
    /// The object, and the handler: both `None` once finished.
    obj: Option<O>,
    handler: Option<WorkHandler<O>>,
    ctx: HandlerCtx,
}

impl<O: Migratable> Execution<O> {
    /// Execute the handler. May be called exactly once, from any thread.
    pub fn run(&mut self) {
        let (Some(obj), Some(handler)) = (&mut self.obj, &self.handler) else {
            panic!("run() after finish");
        };
        handler(&mut self.ctx, obj, &self.item);
    }
}

/// `k` of [`Scheduler::poll_due`]: a quarter of the units `held` over a
/// slice that ended `elapsed` after it began, scaled to one [`WIRE_SLICE`],
/// within 1..=8. A slice that ran late because its units lengthened
/// (`elapsed` well past a slice) counts its units at the rate they ran.
fn clock_stride(held: u64, elapsed: Duration) -> u32 {
    const MAX: u64 = 8;
    let slice = WIRE_SLICE.as_nanos() as u64;
    let elapsed = (elapsed.as_nanos() as u64).max(slice);
    (held.saturating_mul(slice) / elapsed / 4).clamp(1, MAX) as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::WorkStealing;
    use prema_dcs::{Communicator, LocalFabric};
    use proptest::prelude::{any, prop_assert, prop_assert_eq, prop_oneof, Just};
    use std::time::Duration;

    struct Unit;

    impl Migratable for Unit {
        fn pack(&self, _buf: &mut Vec<u8>) {}
        fn unpack(_b: &[u8]) -> Self {
            Unit
        }
    }

    fn snap(units: usize, weight: f64) -> LoadSnapshot {
        LoadSnapshot { units, weight }
    }

    proptest::proptest! {
        /// Each message decodes back to itself under its own id, whatever
        /// its load. Arbitrary bytes under an arbitrary id decode to `Some`
        /// or `None` with no panic; a NACK whatever its payload, a snapshot
        /// only from 16 bytes with a weight that is finite and non-negative.
        #[test]
        fn every_message_round_trips_and_arbitrary_bytes_never_panic(
            (units, weight) in (any::<usize>(), prop_oneof![Just(0.0), Just(f64::MAX), 0.0..1e9]),
            id in prop_oneof![LB_STATUS..LB_NACK + 1, any::<u32>()],
            raw in proptest::collection::vec(any::<u8>(), 0..32),
        ) {
            let load = snap(units, weight);
            for m in [LbMsg::Status(load), LbMsg::Request(load), LbMsg::Nack] {
                prop_assert_eq!(LbMsg::decode(m.id(), m.encode()), Some(m));
            }
            let len = raw.len();
            match LbMsg::decode(id, Bytes::from(raw)) {
                Some(LbMsg::Status(s) | LbMsg::Request(s)) => {
                    prop_assert!(len >= 16 && s.weight.is_finite() && s.weight >= 0.0)
                }
                Some(LbMsg::Nack) => prop_assert_eq!(id, LB_NACK),
                None => prop_assert!(id != LB_NACK),
            }
        }
    }

    /// The bytes of the three LB messages, ids included, as a scheduler
    /// sends them and reads them: each rides in an `H_NODE_MSG` frame as the
    /// node-message id, then a length-prefixed body.
    #[test]
    fn lb_wire_layout_is_pinned() {
        use prema_dcs::{Envelope, Transport};
        use prema_mol::proto::H_NODE_MSG;
        let frame = |id: u32, body: &[u8]| {
            let mut out = id.to_le_bytes().to_vec();
            out.extend_from_slice(&(body.len() as u32).to_le_bytes());
            out.extend_from_slice(body);
            out
        };
        let snapshot =
            |units: u64, weight: f64| [units.to_le_bytes(), weight.to_le_bytes()].concat();
        let mut eps = LocalFabric::new(2);
        let raw = eps.pop().expect("two endpoints");
        let node = MolNode::new(Communicator::new(Box::new(eps.remove(0))));
        let mut s: Scheduler<Unit> = Scheduler::new(node, Box::new(WorkStealing::new(1.0, 1)));
        let sent = || {
            let e = raw.try_recv().expect("a frame");
            assert_eq!((e.handler, e.tag), (H_NODE_MSG, Tag::System));
            e.payload.to_vec()
        };
        let deliver = |id: u32, body: &[u8]| {
            raw.send(Envelope {
                src: 1,
                dst: 0,
                handler: H_NODE_MSG,
                tag: Tag::System,
                payload: Bytes::from(frame(id, body)),
            })
        };
        assert_eq!(
            (LB_STATUS, LB_REQUEST, LB_NACK),
            (0xFFFF_F001, 0xFFFF_F002, 0xFFFF_F003)
        );

        s.poll();
        assert_eq!(sent(), frame(LB_STATUS, &snapshot(0, 0.0)));
        deliver(LB_STATUS, &snapshot(9, 9.0));
        s.poll();
        assert_eq!(s.known[&1], snap(9, 9.0));
        assert_eq!(sent(), frame(LB_REQUEST, &snapshot(0, 0.0)));
        deliver(LB_REQUEST, &snapshot(0, 0.0));
        s.poll();
        assert_eq!(sent(), frame(LB_NACK, &[]));
        deliver(LB_NACK, &[]);
        s.poll();
        assert_eq!(s.stats().nacks_recv, 1);
        assert_eq!(s.stats().dropped_node_msgs, 0);
    }

    #[test]
    fn a_status_is_due_at_each_line_a_neighbour_acts_on() {
        let p = WorkStealing::new(2.0, 1);
        let due = |told, local, theirs: Option<LoadSnapshot>| {
            status_due(&p, Some(&told), &local, theirs.as_ref())
        };
        let loaded = Some(snap(9, 9.0));
        // Never told anything: due, whatever the load.
        assert!(status_due(&p, None, &snap(0, 0.0), loaded.as_ref()));
        // Nothing changed: never due, not even to a hungry neighbour.
        assert!(!due(snap(8, 8.0), snap(8, 8.0), None));
        // A loaded neighbour is left alone within an eighth of the report...
        assert!(!due(snap(80, 80.0), snap(70, 70.0), loaded));
        assert!(!due(snap(80, 80.0), snap(90, 90.0), loaded));
        // ...and told past it (c), in either direction,
        assert!(due(snap(80, 80.0), snap(69, 69.0), loaded));
        assert!(due(snap(80, 80.0), snap(91, 91.0), loaded));
        // at the water-mark, however small the step (b),
        assert!(due(snap(2, 2.1), snap(2, 2.0), loaded));
        assert!(due(snap(2, 2.0), snap(2, 2.1), loaded));
        // and at empty, which weightless units would hide from (b) and (c).
        assert!(due(snap(1, 0.0), snap(0, 0.0), loaded));
        assert!(due(snap(0, 0.0), snap(1, 0.0), loaded));
        assert!(!due(snap(2, 0.0), snap(1, 0.0), loaded));
        // A hungry neighbour, or one never heard from, hears every change (d).
        assert!(due(snap(80, 80.0), snap(79, 79.0), Some(snap(2, 2.0))));
        assert!(due(snap(80, 80.0), snap(79, 79.0), None));
    }

    /// The staleness bound is one on `told`, so it holds for what the
    /// neighbour *holds* only if a request, whose snapshot the neighbour also
    /// stores, counts as having told it.
    #[test]
    fn a_neighbour_holds_exactly_what_it_was_last_told() {
        let mut scheds: Vec<Scheduler<Unit>> = LocalFabric::new(2)
            .into_iter()
            .map(|ep| {
                let node = MolNode::new(Communicator::new(Box::new(ep)));
                let mut s = Scheduler::new(node, Box::new(WorkStealing::new(16.0, 1)));
                s.on_message(1, |_ctx, _obj: &mut Unit, _item| {});
                s
            })
            .collect();
        let mut victim = scheds.pop().expect("two ranks");
        let mut s = scheds.pop().expect("two ranks");
        // The victim is loaded and refuses everything: `s`, under its
        // water-mark throughout, begs it round after round while its own
        // load shrinks in steps too small for a status. (The victim has to
        // work too: a refusal burns its report, and until its load changes
        // and it sends another, `s` owes a rank it knows nothing of every
        // change.)
        victim.set_stability(StabilityConfig {
            hysteresis_band: f64::INFINITY,
            ..StabilityConfig::off()
        });
        for (sched, units) in [(&mut s, 12), (&mut victim, 64)] {
            for _ in 0..units {
                let ptr = sched.node_mut().register(Unit);
                sched.node_mut().message(ptr, 1, Bytes::new());
            }
        }
        let mut by_request = 0;
        while !s.is_idle() {
            let before = (s.neighborhood[0].1, s.stats().status_sent);
            // PREMA's cycle, each unit followed by the polling operation that
            // weighs it (`finish` does not).
            s.step();
            s.poll();
            victim.step();
            victim.poll();
            let told = s.neighborhood[0].1;
            assert_eq!(victim.known.get(&0), told.as_ref());
            assert_eq!(told.map(|t| t.units == 0), Some(s.is_idle()));
            if told != before.0 && s.stats().status_sent == before.1 {
                by_request += 1;
            }
        }
        assert!(by_request > 0, "no request carried news: {:?}", s.stats());
    }

    /// One rank on a manual clock with `units` messages queued for one
    /// object, and the clock.
    fn lone_rank(units: usize) -> (Scheduler<Unit>, Clock) {
        let ep = LocalFabric::new(1).pop().expect("one rank");
        let node = MolNode::new(Communicator::new(Box::new(ep)));
        let mut s = Scheduler::new(node, Box::new(WorkStealing::new(1.0, 1)));
        s.on_message(1, |_ctx, _obj: &mut Unit, _item| {});
        let clock = Clock::manual();
        s.set_clock(clock.clone());
        let ptr = s.node_mut().register(Unit);
        for _ in 0..units {
            s.node_mut().message(ptr, 1, Bytes::new());
        }
        (s, clock)
    }

    #[test]
    fn with_work_queued_the_polling_operation_is_due_once_a_slice() {
        let (mut s, clock) = lone_rank(3);
        clock.set_now(Duration::from_millis(7));
        assert!(s.poll_due(), "nothing polled yet");
        s.poll();
        assert!(!s.poll_due(), "inside the slice");
        assert!(s.step());
        clock.advance(WIRE_SLICE - Duration::from_nanos(1));
        assert!(!s.poll_due(), "a nanosecond early");
        clock.advance(Duration::from_nanos(1));
        assert!(s.poll_due(), "a slice after the last poll");
        s.poll();
        assert!(!s.poll_due(), "poll() starts the next slice");
    }

    #[test]
    fn an_empty_queue_is_always_due() {
        let (mut s, _clock) = lone_rank(0);
        s.poll();
        assert!(s.poll_due(), "the clock has not moved");
        let (mut s, _clock) = lone_rank(2);
        s.poll();
        assert!(s.step());
        assert!(!s.poll_due());
        assert!(s.step());
        assert!(s.poll_due(), "the last unit emptied the queue");
    }

    /// `Runtime::step`'s turn on a lone rank: the poll if it is due, then
    /// one unit that takes `unit` on the clock. Returns whether it polled.
    fn paced_step(s: &mut Scheduler<Unit>, clock: &Clock, unit: Duration) -> bool {
        let polled = s.poll_due();
        if polled {
            s.poll();
        }
        assert!(s.step(), "work queued");
        clock.advance(unit);
        polled
    }

    #[test]
    fn the_clock_is_read_every_k_units_and_a_switch_to_long_units_polls_within_k_minus_one() {
        let (mut s, clock) = lone_rank(1_000);
        s.poll();
        // A slice of 1 µs units: 50 to the slice, a quarter of that capped.
        for _ in 0..60 {
            paced_step(&mut s, &clock, Duration::from_micros(1));
        }
        assert_eq!(s.clock_every, 8, "k after a slice of short units");
        // The worst case: the clock was read (or a poll taken) just now.
        while s.clock_left != s.clock_every {
            paced_step(&mut s, &clock, Duration::from_micros(1));
        }
        let k = s.clock_every as usize;
        // Units suddenly a slice long: every unit from here on ends past
        // the slice, and a clock read each call would poll before each.
        let late = (0..)
            .take_while(|_| !paced_step(&mut s, &clock, WIRE_SLICE))
            .count();
        assert_eq!(late, k - 1, "at most k - 1 units late, and no fewer here");
        assert_eq!(s.clock_every, 1, "the late slice counts the long units");
        for _ in 0..20 {
            assert!(paced_step(&mut s, &clock, WIRE_SLICE), "k = 1 again");
        }
    }

    #[test]
    fn a_poll_the_clock_did_not_call_for_sets_k_to_one() {
        let (mut s, clock) = lone_rank(1_000);
        s.poll();
        for _ in 0..60 {
            paced_step(&mut s, &clock, Duration::from_micros(1));
        }
        assert_eq!(s.clock_every, 8);
        for _ in 0..20 {
            paced_step(&mut s, &clock, Duration::from_micros(1));
        }
        assert_eq!(s.clock_every, 8, "no slice has ended by the clock since");
        // The application's own poll, 20-odd units into a slice.
        s.poll();
        assert_eq!(s.clock_every, 1);
    }

    #[test]
    fn slice_long_units_poll_before_every_unit() {
        let (mut s, clock) = lone_rank(100);
        for _ in 0..99 {
            assert!(paced_step(&mut s, &clock, WIRE_SLICE));
            assert_eq!(s.clock_every, 1);
        }
    }

    /// The peer of a draining rank must be able to read every load report on
    /// the way down, and the last one must say "empty" exactly: a report
    /// whose weight went a hair negative is dropped undecoded, and the peer
    /// would go on believing the last positive one.
    #[test]
    fn every_status_of_a_long_jittered_drain_decodes_and_the_last_is_zero() {
        const UNITS: usize = 100_000;
        let mut scheds: Vec<Scheduler<Unit>> = LocalFabric::new(2)
            .into_iter()
            .map(|ep| {
                let node = MolNode::new(Communicator::new(Box::new(ep)));
                let mut s = Scheduler::new(node, Box::new(WorkStealing::new(1.0, 1)));
                s.on_message(1, |_ctx, _obj: &mut Unit, _item| {});
                s
            })
            .collect();
        let mut peer = scheds.pop().expect("two ranks");
        let mut s = scheds.pop().expect("two ranks");
        // The peer only listens: it records statuses but never begs, so the
        // whole queue drains where it was posted.
        peer.set_lb_enabled(false);

        let ptrs: Vec<MobilePtr> = (0..64).map(|_| s.node_mut().register(Unit)).collect();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for i in 0..UNITS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            // Hints with full mantissas around 1.0, no two alike.
            let hint = 0.9 + 0.2 * (x >> 11) as f64 / (1u64 << 53) as f64;
            s.node_mut()
                .message_with_hint(ptrs[i % ptrs.len()], 1, hint, Bytes::new());
        }
        assert_eq!(s.local_load().units, UNITS);

        loop {
            s.poll();
            let ran = s.step();
            peer.poll();
            if let Some(seen) = peer.known.get(&0) {
                assert!(seen.weight >= 0.0 && seen.weight.is_finite());
            }
            if !ran {
                break;
            }
        }
        peer.poll();
        assert_eq!(s.stats().executed, UNITS as u64);
        // The peer never said a word, so it is owed every change.
        assert!(s.stats().status_sent > UNITS as u64, "a status per change");
        assert_eq!(peer.stats().dropped_node_msgs, 0, "a status did not decode");
        let last = peer.known[&0];
        assert_eq!(last.units, 0);
        assert_eq!(last.weight.to_bits(), 0.0f64.to_bits());
        assert_eq!(
            s.local_load(),
            LoadSnapshot {
                units: 0,
                weight: 0.0
            }
        );
    }
}
