//! The PREMA runtime facade: threads, locking, and the implicit polling
//! thread.
//!
//! [`launch`] starts one OS thread per rank and hands each application
//! thread a [`Runtime`] — the paper's user-facing API: register mobile
//! objects, send `ilb_message`s, post polling operations, and let the
//! framework balance. In implicit mode each rank also gets one polling
//! thread, started when the rank begins its first work unit — through
//! [`Runtime::step`], [`Runtime::run_until`], or a unit begun inside
//! [`Runtime::with_scheduler`] — since before that there is no unit for it
//! to preempt (DESIGN.md §23). Registering, posting and polling never start
//! it, and a `main` that runs no unit never has one.
//!
//! # Locking discipline
//!
//! Each rank's [`ilb::Scheduler`] sits behind a mutex shared by the
//! application thread and the polling thread. Crucially, **work-unit handlers
//! execute with the lock released**: [`ilb::Scheduler::begin`] detaches the
//! target object and returns an [`ilb::Execution`]; the handler then runs
//! outside the lock; [`ilb::Scheduler::finish`] re-attaches under the lock.
//! The polling thread can therefore process system messages — including
//! migrating *other* objects away — in the middle of a long work unit,
//! exactly the preemption PREMA's implicit mode provides (§4.2). The
//! executing object itself is never migrated, preserving the paper's
//! guarantee that preemptive load balancing "in no way affects the execution
//! of the application".
//!
//! # The polling operation's slice
//!
//! [`Runtime::step`] runs PREMA's cycle — poll, schedule, execute — but
//! polls only when [`ilb::Scheduler::poll_due`] says so: before every unit
//! while the rank's queue is empty or its units are a
//! [`prema_dcs::WIRE_SLICE`] long, and once per slice (on the rank's
//! monotonic [`Clock`]) while it works through shorter ones. It reads that
//! clock on every k-th unit only, k = clamp(units per slice ÷ 4, 1, 8)
//! from the last slice that ended by the clock, so k is 1 while units are a
//! slice long; after units suddenly lengthen, a poll comes at most k − 1
//! units late. What arrives for the rank waits at most one slice, those
//! k − 1 units aside, and so do the object messages its units send to
//! other ranks: a unit's `finish` appends each to its peer's frame, and
//! every frame leaves at the rank's next polling operation, one frame a
//! peer (DESIGN.md §11). That is within one slice while the rank runs short
//! units, at once when its queue runs dry or its units are a slice long,
//! and at the polling thread's next pass if a long unit starts first. Every
//! other poll — [`Runtime::poll`], the polling thread's pass — runs
//! whenever it is called, and what is still staged when a rank's `main`
//! returns leaves then.
//!
//! # One flush per lock hold
//!
//! Everything a rank sends — the frames a polling operation sends, messages
//! posted through this handle, migrations, load-balancing traffic — is
//! handed to its transport during a hold of the scheduler lock, and every
//! hold ends with [`Transport::flush`]: the lock is only ever taken through
//! `Locked`, whose drop flushes before it unlocks. So what one polling
//! pass, unit completion, registration or migration sent leaves together,
//! in one `sendmmsg` on the UDP wire, and a polling thread's reply does not
//! wait for a later receive call while the application thread sits in a
//! handler.

use crate::config::{LbMode, PremaConfig};
use crate::shutdown::{run_started_poller, PollerSlot, StopFlag};
use crate::sync::{Arc, Mutex, MutexGuard};
use bytes::Bytes;
use prema_dcs::{Clock, Communicator, LocalFabric, Rank, Transport};
use prema_ilb as ilb;
use prema_ilb::LoadSnapshot;
use prema_mol::{Migratable, MobilePtr, MolNode, MolStats, WorkItem};
use std::ops::{Deref, DerefMut};
use std::thread::JoinHandle;
use std::time::Duration;

/// A rank's scheduler, locked. Dropping it flushes the rank's transport
/// ([`Transport::flush`]) and then releases the lock (module docs: "One
/// flush per lock hold").
struct Locked<'a, O: Migratable>(MutexGuard<'a, ilb::Scheduler<O>>);

impl<'a, O: Migratable> Locked<'a, O> {
    fn new(sched: &'a Mutex<ilb::Scheduler<O>>) -> Self {
        Locked(sched.lock())
    }

    /// The lock if it is free now; never blocks.
    fn try_new(sched: &'a Mutex<ilb::Scheduler<O>>) -> Option<Self> {
        sched.try_lock().map(Locked)
    }
}

impl<O: Migratable> Deref for Locked<'_, O> {
    type Target = ilb::Scheduler<O>;
    fn deref(&self) -> &Self::Target {
        &self.0
    }
}

impl<O: Migratable> DerefMut for Locked<'_, O> {
    fn deref_mut(&mut self) -> &mut Self::Target {
        &mut self.0
    }
}

impl<O: Migratable> Drop for Locked<'_, O> {
    fn drop(&mut self) {
        self.0.node().comm().flush();
    }
}

/// A rank's scheduler seen from code that cannot name its object type:
/// [`crate::Completion`] keeps one to send from a call that has no
/// [`Runtime`] in hand.
pub(crate) trait TrySend: Send + Sync {
    /// Send a rank-targeted application message if the scheduler lock is
    /// free right now. Returns `false`, having sent nothing, if it is held —
    /// by another thread or by the caller itself — so it never blocks.
    fn try_node_message(&self, dst: Rank, handler: u32, payload: Bytes) -> bool;
}

impl<O: Migratable> TrySend for Mutex<ilb::Scheduler<O>> {
    fn try_node_message(&self, dst: Rank, handler: u32, payload: Bytes) -> bool {
        let Some(mut s) = Locked::try_new(self) else {
            return false;
        };
        s.node_mut()
            .node_message(dst, handler, prema_dcs::Tag::App, payload);
        true
    }
}

/// Handle to one rank's PREMA runtime, used from that rank's application
/// thread.
pub struct Runtime<O: Migratable> {
    sched: Arc<Mutex<ilb::Scheduler<O>>>,
    rank: Rank,
    nprocs: usize,
    /// The rank's polling thread, in [`LbMode::Implicit`] mode.
    poller: Option<Arc<Poller>>,
}

/// What a rank in [`LbMode::Implicit`] mode needs to start its polling
/// thread at its first unit.
struct Poller {
    slot: PollerSlot<JoinHandle<()>>,
    stop: Arc<StopFlag>,
    interval: Duration,
    tracer: prema_trace::Tracer,
}

impl<O: Migratable> Runtime<O> {
    /// This rank.
    pub fn rank(&self) -> Rank {
        self.rank
    }

    /// Machine size.
    pub fn nprocs(&self) -> usize {
        self.nprocs
    }

    /// Register a mobile object with the runtime (the paper's
    /// `mol_register`), returning its global mobile pointer.
    pub fn register(&self, obj: O) -> MobilePtr {
        self.lock().node_mut().register(obj)
    }

    /// Register the handler that work messages with id `id` invoke (the
    /// paper's handler-function argument to `ilb_message`).
    pub fn on_message(
        &self,
        id: u32,
        f: impl Fn(&mut ilb::HandlerCtx, &mut O, &WorkItem) + Send + Sync + 'static,
    ) {
        self.lock().on_message(id, f);
    }

    /// Register a handler for rank-targeted application messages. Ids at
    /// and above [`ilb::NODE_HANDLER_LIMIT`] are the runtime's, and once a
    /// [`crate::Completion`] or [`crate::PhaseBarrier`] is installed so are
    /// the four just below it, `NODE_HANDLER_LIMIT - 4 .. NODE_HANDLER_LIMIT`.
    pub fn on_node_message(
        &self,
        id: u32,
        f: impl Fn(&mut ilb::HandlerCtx, Rank, Bytes) + Send + Sync + 'static,
    ) {
        self.lock().on_node_message(id, f);
    }

    /// Send a message to a mobile object (the paper's `ilb_message`).
    pub fn message(&self, ptr: MobilePtr, handler: u32, payload: Bytes) {
        self.lock().node_mut().message(ptr, handler, payload);
    }

    /// [`Runtime::message`] with a computational weight hint.
    pub fn message_with_hint(&self, ptr: MobilePtr, handler: u32, hint: f64, payload: Bytes) {
        self.lock()
            .node_mut()
            .message_with_hint(ptr, handler, hint, payload);
    }

    /// Send a rank-targeted application message.
    pub fn node_message(&self, dst: Rank, handler: u32, payload: Bytes) {
        self.lock()
            .node_mut()
            .node_message(dst, handler, prema_dcs::Tag::App, payload);
    }

    /// The application-posted *polling operation* (§4): receives and
    /// processes messages, evaluates the work level, and triggers explicit
    /// load balancing. Runs whenever called, slice or not. Returns the
    /// number of protocol events processed.
    pub fn poll(&self) -> usize {
        self.lock().poll()
    }

    /// One turn of PREMA's cycle: the polling operation if it is due
    /// ([`ilb::Scheduler::poll_due`]: always on an empty queue, else once
    /// per [`prema_dcs::WIRE_SLICE`], the clock read every k-th unit), then
    /// one queued work unit, if any.
    /// The handler runs **without** holding the runtime lock; what it sent
    /// is applied when it returns and leaves the rank at its next polling
    /// operation (see module docs). Returns `false` if the local queue was
    /// empty.
    pub fn step(&self) -> bool {
        let mut exec = {
            let mut s = self.lock();
            if s.poll_due() {
                s.poll();
            }
            s.begin()
        };
        // The unit stays where `begin` wrote it: run and finish take it by
        // reference.
        let Some(exec) = &mut exec else {
            return false;
        };
        self.start_poller();
        exec.run(); // lock released: polling thread is live here
        self.lock().finish_in_place(exec);
        true
    }

    /// Poll and execute until `done` returns true. Parks briefly when idle
    /// so other ranks' threads get CPU.
    pub fn run_until(&self, done: impl Fn(&ilb::Scheduler<O>) -> bool) {
        loop {
            {
                let s = self.lock();
                if done(&s) {
                    return;
                }
            }
            if !self.step() {
                self.poll();
                std::thread::yield_now();
            }
        }
    }

    /// Explicitly migrate a local mobile object to another rank, bypassing
    /// the load balancer — for applications that know placement better than
    /// any policy (e.g. co-locating subdomains with a solver's partition).
    /// Returns `false` if the object is not local or is currently executing.
    pub fn migrate(&self, ptr: MobilePtr, dst: Rank) -> bool {
        self.lock().node_mut().migrate(ptr, dst)
    }

    /// Current local load (queued + executing units).
    pub fn local_load(&self) -> LoadSnapshot {
        self.lock().local_load()
    }

    /// Whether this rank has no queued or executing work.
    pub fn is_idle(&self) -> bool {
        self.lock().is_idle()
    }

    /// Mobile Object Layer statistics for this rank.
    pub fn mol_stats(&self) -> MolStats {
        self.lock().node().stats()
    }

    /// Scheduler statistics for this rank.
    pub fn sched_stats(&self) -> ilb::SchedStats {
        self.lock().stats()
    }

    /// Run `f` with the scheduler locked (escape hatch for tests and tools).
    /// A unit begun inside `f` starts the rank's polling thread, as
    /// [`Runtime::step`] does.
    pub fn with_scheduler<R>(&self, f: impl FnOnce(&mut ilb::Scheduler<O>) -> R) -> R {
        let mut s = self.lock();
        let result = f(&mut s);
        if self.poller.as_ref().is_some_and(|p| !p.slot.is_started()) && s.units_begun() > 0 {
            drop(s);
            self.start_poller();
        }
        result
    }

    /// Start the rank's polling thread if it has one and it has not started:
    /// one atomic load once it has. Called with the scheduler lock released.
    #[inline]
    fn start_poller(&self) {
        if let Some(p) = &self.poller {
            p.slot.start(|| {
                spawn_poller(
                    self.sched.clone(),
                    p.stop.clone(),
                    p.interval,
                    p.tracer.clone(),
                )
            });
        }
    }

    /// The rank's scheduler, locked until the result drops.
    fn lock(&self) -> Locked<'_, O> {
        Locked::new(&self.sched)
    }

    /// A non-blocking send handle on this rank's scheduler.
    pub(crate) fn try_sender(&self) -> Arc<dyn TrySend> {
        self.sched.clone()
    }
}

/// Launch a PREMA machine: `cfg.nprocs` ranks, each running `main(runtime)`
/// on its own thread. Returns each rank's result, in rank order.
///
/// In [`LbMode::Implicit`] mode a polling thread per rank preemptively
/// processes system messages every `poll_interval` — this is the
/// configuration the paper's evaluation crowns (§5). It starts when its rank
/// begins its first work unit and is stopped, woken and joined after every
/// rank's `main` has returned.
pub fn launch<O, R, F>(cfg: PremaConfig, main: F) -> Vec<R>
where
    O: Migratable,
    R: Send + 'static,
    F: Fn(Runtime<O>) -> R + Send + Sync + 'static,
{
    launch_with_trace(cfg, None, main)
}

/// [`launch`], recording runtime events into `trace` (when `Some`). Each
/// rank's scheduler, MOL node, communicator, and polling thread get a
/// per-rank tracer stamping events with wall time since the sink's epoch.
///
/// With `None` every tracer stays detached, and each trace hook costs one
/// branch. The wire is the in-process [`LocalFabric`]; a caller wanting
/// another stack (chaos, reliable, UDP) builds it and calls
/// [`launch_with_transports`].
pub fn launch_with_trace<O, R, F>(
    cfg: PremaConfig,
    trace: Option<std::sync::Arc<prema_trace::TraceSink>>,
    main: F,
) -> Vec<R>
where
    O: Migratable,
    R: Send + 'static,
    F: Fn(Runtime<O>) -> R + Send + Sync + 'static,
{
    let transports = LocalFabric::new(cfg.nprocs)
        .into_iter()
        .enumerate()
        .map(|(rank, mut ep)| {
            if let Some(sink) = &trace {
                ep.set_tracer(sink.tracer(rank));
            }
            Box::new(ep) as Box<dyn Transport>
        })
        .collect();
    launch_with_transports(cfg, transports, trace, main)
}

/// [`launch_with_trace`] over caller-provided transports — one boxed
/// [`Transport`] per rank, in rank order. This is the entry point for wiring
/// custom transport stacks (chaos soak tests with partition control, future
/// real interconnects) under the full runtime.
pub fn launch_with_transports<O, R, F>(
    cfg: PremaConfig,
    transports: Vec<Box<dyn Transport>>,
    trace: Option<std::sync::Arc<prema_trace::TraceSink>>,
    main: F,
) -> Vec<R>
where
    O: Migratable,
    R: Send + 'static,
    F: Fn(Runtime<O>) -> R + Send + Sync + 'static,
{
    assert_eq!(
        transports.len(),
        cfg.nprocs,
        "need exactly one transport per rank"
    );
    let stop = Arc::new(StopFlag::new());
    let main = Arc::new(main);

    let app_threads: Vec<_> = transports
        .into_iter()
        .enumerate()
        .map(|(rank, transport)| {
            let runtime = start_rank(&cfg, rank, transport, trace.as_ref(), &stop);
            let main = main.clone();
            std::thread::spawn(move || run_main(runtime, &*main))
        })
        .collect();

    // Join app threads first (no lock held — a join while holding a
    // scheduler mutex would deadlock against the pollers; see the loom model
    // in tests/loom_shutdown.rs), then request stop and reap the pollers
    // the ranks handed back.
    let mut results = Vec::with_capacity(cfg.nprocs);
    let mut pollers = Vec::new();
    for t in app_threads {
        let (result, poller) = t.join().expect("rank thread panicked");
        results.push(result);
        pollers.extend(poller);
    }
    stop_pollers(&stop, pollers);
    results
}

/// Run **one** rank of a multi-process machine on the calling thread: the
/// entry point for out-of-process deployments (`prema-launch` spawns one OS
/// process per rank, each of which calls this with a socket transport such
/// as [`prema_dcs::UdpTransport`]). `cfg.nprocs` is the *whole machine's*
/// size; `transport.nprocs()` must agree. In [`LbMode::Implicit`] mode the
/// rank gets its preemptive polling thread when it begins its first work
/// unit; it is stopped, woken and joined before this returns.
pub fn launch_single_rank<O, R, F>(
    cfg: PremaConfig,
    rank: usize,
    transport: Box<dyn Transport>,
    trace: Option<std::sync::Arc<prema_trace::TraceSink>>,
    main: F,
) -> R
where
    O: Migratable,
    F: FnOnce(Runtime<O>) -> R,
{
    assert!(rank < cfg.nprocs, "rank {rank} outside 0..{}", cfg.nprocs);
    assert_eq!(
        transport.nprocs(),
        cfg.nprocs,
        "transport world size disagrees with cfg.nprocs"
    );
    assert_eq!(
        transport.rank(),
        rank,
        "transport bound to a different rank"
    );
    let stop = Arc::new(StopFlag::new());
    let runtime = start_rank(&cfg, rank, transport, trace.as_ref(), &stop);
    let (result, poller) = run_main(runtime, main);
    stop_pollers(&stop, poller);
    result
}

/// Run a rank's `main`, then send the frames its last units staged. Returns
/// `main`'s result and the rank's polling thread, if its first unit started
/// one, for the launcher to stop once every rank has returned.
fn run_main<O: Migratable, R>(
    runtime: Runtime<O>,
    main: impl FnOnce(Runtime<O>) -> R,
) -> (R, Option<JoinHandle<()>>) {
    let sched = runtime.sched.clone();
    let poller = runtime.poller.clone();
    let result = main(runtime);
    Locked::new(&sched).node_mut().flush();
    (result, poller.and_then(|p| p.slot.take()))
}

/// Request stop, wake every poller out of its wait, and join them. A woken
/// poller still runs the pass it was waiting for, then sees the stop.
fn stop_pollers(stop: &StopFlag, pollers: impl IntoIterator<Item = JoinHandle<()>>) {
    stop.request_stop();
    let pollers: Vec<_> = pollers.into_iter().collect();
    for t in &pollers {
        t.thread().unpark();
    }
    for t in pollers {
        t.join().expect("polling thread panicked");
    }
}

/// Assemble one rank's scheduler stack from `cfg`: communicator → MOL node
/// → policy (seeded `cfg.seed + rank`) → clock → stability governor →
/// [`LbMode::Disabled`] → tracer. Applies no environment knob to
/// `cfg` — what it says is what runs — and reads no time but `clock`
/// ([`Clock::monotonic`] under [`launch`]), so a caller with its own clock
/// (the harness's discrete-event `SimRank`, which hands it a manual one)
/// builds exactly what [`launch`] runs, as a function of its inputs. (The
/// one variable still read on the way is the MOL's own `PREMA_LOC_CACHE`, in
/// [`MolNode::new`].)
pub fn build_scheduler<O: Migratable>(
    cfg: &PremaConfig,
    rank: usize,
    transport: Box<dyn Transport>,
    clock: Clock,
    tracer: prema_trace::Tracer,
) -> ilb::Scheduler<O> {
    let node: MolNode<O> = MolNode::new(Communicator::new(transport));
    let policy = cfg.policy.build(cfg.seed.wrapping_add(rank as u64));
    let mut sched = ilb::Scheduler::new(node, policy);
    sched.set_clock(clock);
    sched.set_stability(cfg.stability);
    if cfg.mode == LbMode::Disabled {
        sched.set_lb_enabled(false);
    }
    sched.set_tracer(tracer);
    sched
}

/// Bring one rank up — the preamble every launch path shares:
/// [`build_scheduler`] the stack and, in [`LbMode::Implicit`] mode, arm its
/// polling thread to start at the rank's first unit; [`run_main`] hands it
/// back for the caller to stop.
fn start_rank<O: Migratable>(
    cfg: &PremaConfig,
    rank: usize,
    transport: Box<dyn Transport>,
    trace: Option<&std::sync::Arc<prema_trace::TraceSink>>,
    stop: &Arc<StopFlag>,
) -> Runtime<O> {
    let tracer = trace
        .map(|s| s.tracer(rank))
        .unwrap_or_else(prema_trace::Tracer::off);
    let sched = build_scheduler(cfg, rank, transport, Clock::monotonic(), tracer.clone());
    let poller = match cfg.mode {
        LbMode::Implicit { poll_interval } => Some(Arc::new(Poller {
            slot: PollerSlot::new(),
            stop: stop.clone(),
            interval: poll_interval,
            tracer,
        })),
        _ => None,
    };
    Runtime {
        sched: Arc::new(Mutex::new(sched)),
        rank,
        nprocs: cfg.nprocs,
        poller,
    }
}

/// Spawn one rank's preemptive polling thread ([`LbMode::Implicit`]):
/// waits `poll_interval`, processes system messages, emits a `PollWake`
/// trace event, and again until stopped; the first pass runs even if stop
/// came first ([`run_started_poller`]). [`stop_pollers`] unparks it, so the
/// wait ends at a stop request rather than at its deadline.
fn spawn_poller<O: Migratable>(
    sched: Arc<Mutex<ilb::Scheduler<O>>>,
    stop: Arc<StopFlag>,
    poll_interval: Duration,
    tracer: prema_trace::Tracer,
) -> JoinHandle<()> {
    std::thread::spawn(move || {
        let clock = Clock::monotonic();
        run_started_poller(&stop, || {
            let deadline = clock.now() + poll_interval;
            // `park_timeout` may return early, for no reason at all.
            while !stop.is_requested() {
                let left = deadline.saturating_sub(clock.now());
                if left.is_zero() {
                    break;
                }
                std::thread::park_timeout(left);
            }
            let events = Locked::new(&sched).poll_system();
            tracer.emit(|| prema_trace::TraceEvent::PollWake {
                events: events as u32,
            });
            true
        });
    })
}
