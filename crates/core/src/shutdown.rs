//! The implicit-mode polling thread's lifecycle, isolated for model
//! checking.
//!
//! [`launch`](crate::launch) gives every rank in implicit mode a
//! [`PollerSlot`] and all of them one shared [`StopFlag`]. A rank's polling
//! thread starts when the rank begins its first work unit — before that it
//! has nothing to preempt — and its handle goes back to the launcher with
//! the rank's result. App threads run to completion, the launcher requests
//! stop, and each poller observes the request and exits before being joined.
//! The protocol lives here — behind the [`crate::sync`] facade — so that
//! `crates/core/tests/loom_shutdown.rs` can explore **every** interleaving
//! of start, hand-off, flag store, flag load, scheduler-mutex handoff, and
//! join under the loom model checker. Keeping it a leaf module keeps the
//! model's state space small enough to exhaust.
//!
//! # Memory ordering
//!
//! The store uses `Release` and the load `Acquire`, so everything the
//! requester wrote before [`StopFlag::request_stop`] is visible to the
//! poller when it observes the stop — the poller's final `poll_system` pass
//! must see the app threads' completed sends. `Relaxed` would be flagged by
//! `cargo xtask lint` (and is not verified by the SC-only loom stand-in).
//! [`PollerSlot`]'s `started` latch is written only under its mutex; the
//! lock-free load is a fast path that may only skip work already done.

use crate::sync::{AtomicBool, Mutex, Ordering};

/// A one-way latch telling polling threads to wind down.
#[derive(Debug, Default)]
pub struct StopFlag {
    stop: AtomicBool,
}

impl StopFlag {
    /// A new, un-requested flag.
    pub fn new() -> StopFlag {
        StopFlag {
            stop: AtomicBool::new(false),
        }
    }

    /// Request shutdown. All writes made before this call happen-before any
    /// [`StopFlag::is_requested`] call that observes it.
    pub fn request_stop(&self) {
        self.stop.store(true, Ordering::Release);
    }

    /// Has shutdown been requested?
    pub fn is_requested(&self) -> bool {
        self.stop.load(Ordering::Acquire)
    }
}

/// One rank's polling thread: started by the first caller of
/// [`PollerSlot::start`], handed back once by [`PollerSlot::take`].
///
/// `H` is the thread's join handle — `std::thread::JoinHandle` in the
/// runtime, loom's in the model. Once started the slot stays started, also
/// after the handle was taken, so a rank never gets a second poller.
pub struct PollerSlot<H> {
    started: AtomicBool,
    handle: Mutex<Option<H>>,
}

impl<H> Default for PollerSlot<H> {
    fn default() -> Self {
        PollerSlot::new()
    }
}

impl<H> PollerSlot<H> {
    /// A slot whose thread has not started.
    pub fn new() -> PollerSlot<H> {
        PollerSlot {
            started: AtomicBool::new(false),
            handle: Mutex::new(None),
        }
    }

    /// Has the thread been started? One atomic load.
    #[inline]
    pub fn is_started(&self) -> bool {
        self.started.load(Ordering::Acquire)
    }

    /// Start the thread with `spawn`, unless some caller already has. Safe to
    /// race: `spawn` runs at most once per slot. After the first start this
    /// is one atomic load.
    #[inline]
    pub fn start(&self, spawn: impl FnOnce() -> H) {
        if !self.is_started() {
            self.start_slow(spawn);
        }
    }

    #[cold]
    fn start_slow(&self, spawn: impl FnOnce() -> H) {
        let mut handle = self.handle.lock();
        if !self.is_started() {
            *handle = Some(spawn());
            self.started.store(true, Ordering::Release);
        }
    }

    /// The started thread's handle, for the launcher to join after
    /// [`StopFlag::request_stop`]; `None` if it never started or was taken.
    pub fn take(&self) -> Option<H> {
        self.handle.lock().take()
    }
}

/// Drive one polling thread until `stop` is requested.
///
/// `step` performs one poll pass (in production: pace, lock the scheduler,
/// `poll_system`) and returns whether to keep polling — production steps
/// always return `true`; model tests use the return value to bound the loop
/// for the explorer. The stop check precedes every step, so a poller never
/// touches the scheduler after it has observed the stop request.
pub fn run_poll_loop(stop: &StopFlag, mut step: impl FnMut() -> bool) {
    while !stop.is_requested() && step() {}
}

/// Drive a polling thread its rank's first unit has just started: one
/// `step`, whether or not stop has been requested — the pass the thread was
/// started for — and then [`run_poll_loop`]. A rank that began a unit thus
/// always gets at least one preemptive pass, even when its `main` returns
/// before the new thread is first scheduled.
pub fn run_started_poller(stop: &StopFlag, mut step: impl FnMut() -> bool) {
    if step() {
        run_poll_loop(stop, step);
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;

    #[test]
    fn poll_loop_exits_once_stop_is_requested() {
        let stop = StopFlag::new();
        let mut steps = 0;
        run_poll_loop(&stop, || {
            steps += 1;
            if steps == 3 {
                stop.request_stop();
            }
            true
        });
        assert_eq!(steps, 3);
    }

    #[test]
    fn poll_loop_never_steps_after_prior_stop() {
        let stop = StopFlag::new();
        stop.request_stop();
        let mut steps = 0;
        run_poll_loop(&stop, || {
            steps += 1;
            true
        });
        assert_eq!(steps, 0);
    }

    #[test]
    fn a_started_poller_steps_once_after_a_prior_stop() {
        let stop = StopFlag::new();
        stop.request_stop();
        let mut steps = 0;
        run_started_poller(&stop, || {
            steps += 1;
            true
        });
        assert_eq!(steps, 1);
    }

    #[test]
    fn a_slot_spawns_once_and_hands_its_handle_back_once() {
        let slot = PollerSlot::new();
        assert!(!slot.is_started());
        assert_eq!(slot.take(), None::<u32>);
        let mut spawns = 0;
        for _ in 0..3 {
            slot.start(|| {
                spawns += 1;
                7
            });
        }
        assert_eq!(spawns, 1);
        assert!(slot.is_started());
        assert_eq!(slot.take(), Some(7));
        assert_eq!(slot.take(), None);
        slot.start(|| unreachable!("a taken slot stays started"));
    }

    #[test]
    fn step_can_end_the_loop_itself() {
        let stop = StopFlag::new();
        let mut steps = 0;
        run_poll_loop(&stop, || {
            steps += 1;
            steps < 2
        });
        assert_eq!(steps, 2);
    }
}
