//! The PREMA runtime facade: threads, locking, and the implicit polling
//! thread.
//!
//! [`launch`] starts one OS thread per rank (plus, in implicit mode, one
//! polling thread per rank) and hands each application thread a
//! [`Runtime`] — the paper's user-facing API: register mobile objects, send
//! `ilb_message`s, post polling operations, and let the framework balance.
//!
//! # Locking discipline
//!
//! Each rank's [`Scheduler`] sits behind a mutex shared by the application
//! thread and the polling thread. Crucially, **work-unit handlers execute
//! with the lock released**: [`ilb::Scheduler::begin`] detaches the target
//! object and returns an [`ilb::Execution`]; the handler then runs outside
//! the lock; [`ilb::Scheduler::finish`] re-attaches under the lock. The
//! polling thread can therefore process system messages — including
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
//! monotonic [`Clock`]) while it works through shorter ones. What a unit
//! sends still leaves at its `finish`; what arrives for the rank waits at
//! most one slice. Every other poll — [`Runtime::poll`], the polling
//! thread's pass — runs whenever it is called.

use crate::config::{LbMode, PremaConfig};
use crate::shutdown::{run_poll_loop, StopFlag};
use crate::sync::{Arc, Mutex};
use bytes::Bytes;
use prema_dcs::{
    ChaosConfig, ChaosHandle, ChaosTransport, Clock, Communicator, LocalFabric, Rank,
    ReliableTransport, Transport,
};
use prema_ilb as ilb;
use prema_ilb::LoadSnapshot;
use prema_mol::{Migratable, MobilePtr, MolNode, MolStats, WorkItem};

/// Handle to one rank's PREMA runtime, used from that rank's application
/// thread.
pub struct Runtime<O: Migratable> {
    sched: Arc<Mutex<ilb::Scheduler<O>>>,
    rank: Rank,
    nprocs: usize,
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
        self.sched.lock().node_mut().register(obj)
    }

    /// Register the handler that work messages with id `id` invoke (the
    /// paper's handler-function argument to `ilb_message`).
    pub fn on_message(
        &self,
        id: u32,
        f: impl Fn(&mut ilb::HandlerCtx, &mut O, &WorkItem) + Send + Sync + 'static,
    ) {
        self.sched.lock().on_message(id, f);
    }

    /// Register a handler for rank-targeted application messages.
    pub fn on_node_message(
        &self,
        id: u32,
        f: impl Fn(&mut ilb::HandlerCtx, Rank, Bytes) + Send + Sync + 'static,
    ) {
        self.sched.lock().on_node_message(id, f);
    }

    /// Send a message to a mobile object (the paper's `ilb_message`).
    pub fn message(&self, ptr: MobilePtr, handler: u32, payload: Bytes) {
        self.sched.lock().node_mut().message(ptr, handler, payload);
    }

    /// [`Runtime::message`] with a computational weight hint.
    pub fn message_with_hint(&self, ptr: MobilePtr, handler: u32, hint: f64, payload: Bytes) {
        self.sched
            .lock()
            .node_mut()
            .message_with_hint(ptr, handler, hint, payload);
    }

    /// Send a rank-targeted application message.
    pub fn node_message(&self, dst: Rank, handler: u32, payload: Bytes) {
        self.sched
            .lock()
            .node_mut()
            .node_message(dst, handler, prema_dcs::Tag::App, payload);
    }

    /// The application-posted *polling operation* (§4): receives and
    /// processes messages, evaluates the work level, and triggers explicit
    /// load balancing. Runs whenever called, slice or not. Returns the
    /// number of protocol events processed.
    pub fn poll(&self) -> usize {
        self.sched.lock().poll()
    }

    /// One turn of PREMA's cycle: the polling operation if it is due
    /// ([`ilb::Scheduler::poll_due`]: always on an empty queue, else once
    /// per [`prema_dcs::WIRE_SLICE`]), then one queued work unit, if any.
    /// The handler runs **without** holding the runtime lock, and what it
    /// sent leaves when it returns (see module docs). Returns `false` if the
    /// local queue was empty.
    pub fn step(&self) -> bool {
        let exec = {
            let mut s = self.sched.lock();
            if s.poll_due() {
                s.poll();
            }
            s.begin()
        };
        match exec {
            Some(mut exec) => {
                exec.run(); // lock released: polling thread is live here
                self.sched.lock().finish(exec);
                true
            }
            None => false,
        }
    }

    /// Poll and execute until `done` returns true. Parks briefly when idle
    /// so other ranks' threads get CPU.
    pub fn run_until(&self, done: impl Fn(&ilb::Scheduler<O>) -> bool) {
        loop {
            {
                let s = self.sched.lock();
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
        self.sched.lock().node_mut().migrate(ptr, dst)
    }

    /// Current local load (queued + executing units).
    pub fn local_load(&self) -> LoadSnapshot {
        self.sched.lock().local_load()
    }

    /// Whether this rank has no queued or executing work.
    pub fn is_idle(&self) -> bool {
        self.sched.lock().is_idle()
    }

    /// Mobile Object Layer statistics for this rank.
    pub fn mol_stats(&self) -> MolStats {
        self.sched.lock().node().stats()
    }

    /// Scheduler statistics for this rank.
    pub fn sched_stats(&self) -> ilb::SchedStats {
        self.sched.lock().stats()
    }

    /// Run `f` with the scheduler locked (escape hatch for tests and tools).
    pub fn with_scheduler<R>(&self, f: impl FnOnce(&mut ilb::Scheduler<O>) -> R) -> R {
        f(&mut self.sched.lock())
    }
}

/// The core `rank`'s threads are pinned to, if pinning is on: the
/// `PREMA_PIN_CORES` environment variable, when set, wins over
/// [`PremaConfig::pin_cores`] in either direction (`1`/`true`/`on`/`yes`
/// enables, `0`/`false`/`off`/`no` — or, with a warning, anything else —
/// disables). Parsed via [`prema_dcs::env`]. Each rank's threads go to core
/// `rank % ncores` (see `crate::affinity`); the app thread and its poller
/// share a core so a pair's ring lines stay between two caches.
fn pin_core(cfg: &PremaConfig, rank: usize) -> Option<usize> {
    let pin = prema_dcs::env::flag_var("PREMA_PIN_CORES").unwrap_or(cfg.pin_cores);
    let ncores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    pin.then_some(rank % ncores)
}

/// Launch a PREMA machine: `cfg.nprocs` ranks, each running `main(runtime)`
/// on its own thread. Returns each rank's result, in rank order.
///
/// In [`LbMode::Implicit`] mode a polling thread per rank preemptively
/// processes system messages every `poll_interval` — this is the
/// configuration the paper's evaluation crowns (§5).
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
/// Tracing hooks are compiled out unless the `trace` cargo feature is on;
/// without it the sink simply stays empty.
///
/// When `PREMA_CHAOS_SEED` is set in the environment the wire is wrapped in
/// a [`ChaosTransport`] (seeded fault injection) under a
/// [`ReliableTransport`] (ack/retry recovery), so any run can be soaked
/// against an adversarial wire without code changes. See
/// [`ChaosConfig::from_env`] for the knobs.
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
    let endpoints = LocalFabric::new(cfg.nprocs);
    let tracer_for = |rank: usize| {
        trace
            .as_ref()
            .map(|s| s.tracer(rank))
            .unwrap_or_else(prema_trace::Tracer::off)
    };
    let transports: Vec<Box<dyn Transport>> = match ChaosConfig::from_env() {
        Some(chaos_cfg) => {
            let handle = ChaosHandle::new();
            endpoints
                .into_iter()
                .enumerate()
                .map(|(rank, mut ep)| {
                    let tracer = tracer_for(rank);
                    ep.set_tracer(tracer.clone());
                    let mut chaos = ChaosTransport::new(ep, chaos_cfg, handle.clone());
                    chaos.set_tracer(tracer.clone());
                    let mut reliable = ReliableTransport::new(chaos);
                    reliable.set_tracer(tracer);
                    Box::new(reliable) as Box<dyn Transport>
                })
                .collect()
        }
        None => endpoints
            .into_iter()
            .enumerate()
            .map(|(rank, mut ep)| {
                ep.set_tracer(tracer_for(rank));
                Box::new(ep) as Box<dyn Transport>
            })
            .collect(),
    };
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

    let mut app_threads = Vec::with_capacity(cfg.nprocs);
    let mut poll_threads = Vec::new();

    for (rank, transport) in transports.into_iter().enumerate() {
        let (runtime, poller) = start_rank(&cfg, rank, transport, trace.as_ref(), &stop);
        poll_threads.extend(poller);

        let main = main.clone();
        let core = pin_core(&cfg, rank);
        app_threads.push(std::thread::spawn(move || {
            if let Some(core) = core {
                crate::affinity::pin_current_thread(core);
            }
            main(runtime)
        }));
    }

    // Join app threads first (no lock held — a join while holding a
    // scheduler mutex would deadlock against the pollers; see the loom model
    // in tests/loom_shutdown.rs), then request stop and reap the pollers.
    let results: Vec<R> = app_threads
        .into_iter()
        .map(|t| t.join().expect("rank thread panicked"))
        .collect();
    stop.request_stop();
    for t in poll_threads {
        t.join().expect("polling thread panicked");
    }
    results
}

/// Run **one** rank of a multi-process machine on the calling thread: the
/// entry point for out-of-process deployments (`prema-launch` spawns one OS
/// process per rank, each of which calls this with a socket transport such
/// as [`prema_dcs::UdpTransport`]). `cfg.nprocs` is the *whole machine's*
/// size; `transport.nprocs()` must agree. Environment knobs
/// (`PREMA_MIN_RESIDENCY`, `PREMA_MIGRATION_CAP`, `PREMA_PIN_CORES`) apply
/// exactly as in [`launch_with_transports`]; in [`LbMode::Implicit`] mode
/// the rank gets its preemptive polling thread, reaped before this returns.
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
    let (runtime, poller) = start_rank(&cfg, rank, transport, trace.as_ref(), &stop);
    if let Some(core) = pin_core(&cfg, rank) {
        crate::affinity::pin_current_thread(core);
    }
    let result = main(runtime);
    stop.request_stop();
    if let Some(t) = poller {
        t.join().expect("polling thread panicked");
    }
    result
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

/// Bring one rank up — the preamble every launch path shares: resolve the
/// environment-over-config knobs (`PREMA_MIN_RESIDENCY`,
/// `PREMA_MIGRATION_CAP`, when set, win over the config fields, so any
/// binary can be tuned without a rebuild), [`build_scheduler`] the stack
/// and, in [`LbMode::Implicit`] mode, spawn its polling thread, which the
/// caller reaps after `stop.request_stop()`.
fn start_rank<O: Migratable>(
    cfg: &PremaConfig,
    rank: usize,
    transport: Box<dyn Transport>,
    trace: Option<&std::sync::Arc<prema_trace::TraceSink>>,
    stop: &Arc<StopFlag>,
) -> (Runtime<O>, Option<std::thread::JoinHandle<()>>) {
    let cfg = PremaConfig {
        stability: cfg.stability.from_env(),
        ..*cfg
    };
    let tracer = trace
        .map(|s| s.tracer(rank))
        .unwrap_or_else(prema_trace::Tracer::off);
    let sched = build_scheduler(&cfg, rank, transport, Clock::monotonic(), tracer.clone());
    let sched = Arc::new(Mutex::new(sched));

    let poller = match cfg.mode {
        LbMode::Implicit { poll_interval } => Some(spawn_poller(
            sched.clone(),
            stop.clone(),
            poll_interval,
            tracer,
            pin_core(&cfg, rank),
        )),
        _ => None,
    };
    let runtime = Runtime {
        sched,
        rank,
        nprocs: cfg.nprocs,
    };
    (runtime, poller)
}

/// Spawn one rank's preemptive polling thread ([`LbMode::Implicit`]):
/// wakes every `poll_interval`, processes system messages, emits a
/// `PollWake` trace event. `pin_core` pins the poller next to its app
/// thread (see `crate::affinity`).
fn spawn_poller<O: Migratable>(
    sched: Arc<Mutex<ilb::Scheduler<O>>>,
    stop: Arc<StopFlag>,
    poll_interval: std::time::Duration,
    tracer: prema_trace::Tracer,
    pin_core: Option<usize>,
) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || {
        if let Some(core) = pin_core {
            crate::affinity::pin_current_thread(core);
        }
        run_poll_loop(&stop, || {
            std::thread::sleep(poll_interval);
            let events = sched.lock().poll_system();
            tracer.emit(|| prema_trace::TraceEvent::PollWake {
                events: events as u32,
            });
            true
        });
    })
}
