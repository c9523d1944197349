//! Model-checks the implicit-mode shutdown protocol under loom.
//!
//! Run with:
//!
//! ```text
//! RUSTFLAGS="--cfg loom" cargo test -p prema --test loom_shutdown --release
//! ```
//!
//! `prema::sync` re-exports loom's instrumented `Mutex`/atomics under
//! `--cfg loom`, so [`prema::shutdown::StopFlag`],
//! [`prema::shutdown::PollerSlot`], [`prema::shutdown::run_started_poller`]
//! and [`prema::shutdown::run_poll_loop`] here are the *same code* the
//! runtime executes — only the primitives
//! underneath change. The explorer runs every schedule of poller start,
//! handle hand-off, flag store, flag load, scheduler-mutex handoff, and join;
//! a lost stop request, a post-join poll, a lost or doubled poller, or a
//! lock-order deadlock in any interleaving fails the test with the offending
//! schedule.
//!
//! The wake at stop is outside the model: the runtime's poller waits with
//! `std::thread::park_timeout` and the launcher unparks it after requesting
//! stop, but the vendored loom stand-in has no `park`. A poller here takes
//! its passes back to back; what the model proves about the stop check
//! holds however long each wait would have been, since a wait only delays
//! the next check.
#![cfg(loom)]

use prema::shutdown::{run_poll_loop, run_started_poller, PollerSlot, StopFlag};
use prema::sync::{Arc, Mutex};

/// The launch() lifecycle of one implicit-mode rank: the app thread starts
/// its poller through [`PollerSlot::start`] when it begins a unit (if
/// `runs_unit`), finishes the unit under the scheduler lock, and returns the
/// handle from [`PollerSlot::take`]; the launcher joins the app thread,
/// requests stop with no lock held, then joins the poller it was handed.
/// Returns the scheduler's final count.
fn rank_lifecycle(runs_unit: bool) -> u64 {
    let stop = Arc::new(StopFlag::new());
    // Stand-in for Mutex<Scheduler>: counts poll_system passes.
    let sched = Arc::new(Mutex::new(0u64));

    let (s1, f1) = (sched.clone(), stop.clone());
    let app = loom::thread::spawn(move || {
        let slot = PollerSlot::new();
        if runs_unit {
            let s2 = s1.clone();
            slot.start(|| {
                loom::thread::spawn(move || {
                    // Production steps always return true; the model bounds
                    // the poller at 2 passes (the first, run whatever the
                    // flag says, and one more) so the schedule tree stays
                    // finite.
                    let mut budget = 2u32;
                    run_started_poller(&f1, || {
                        *s2.lock() += 1;
                        budget -= 1;
                        budget > 0
                    });
                })
            });
            *s1.lock() += 100;
        }
        slot.take()
    });

    let poller = app.join().expect("app thread panicked in model");
    assert_eq!(poller.is_some(), runs_unit, "poller started without a unit");
    stop.request_stop();
    if let Some(poller) = poller {
        poller.join().expect("poller thread panicked in model");
    }
    let total = *sched.lock();
    total
}

/// A rank that runs a unit starts its poller from the app thread and hands
/// it back: no deadlock, and after the join the launcher owns the scheduler
/// exclusively and observes both the app's work and every completed poll
/// pass (the mutex handoff publishes the poller's writes) — at least one,
/// even when the stop came before the poller first ran.
#[test]
fn shutdown_is_deadlock_free_and_hands_off_the_scheduler() {
    loom::model(|| {
        let total = rank_lifecycle(true);
        assert!(
            (100..=102).contains(&total),
            "scheduler state lost in handoff: {total}"
        );
        assert!(total > 100, "a started poller made no pass");
    });
}

/// A rank that runs no unit never has a poller: nothing to stop or join,
/// and nothing touched the scheduler.
#[test]
fn a_rank_without_units_has_no_poller() {
    loom::model(|| {
        assert_eq!(rank_lifecycle(false), 0);
    });
}

/// `Runtime` is `Sync`: two threads of one rank may begin units at once.
/// Exactly one of them runs the spawn, in every schedule, and its handle is
/// the one handed back. (The spawn counter is a plain std atomic, not a
/// scheduling point: the model runs one thread at a time.)
#[test]
fn racing_starts_spawn_one_poller() {
    loom::model(|| {
        let slot = Arc::new(PollerSlot::new());
        let spawns = Arc::new(std::sync::atomic::AtomicU32::new(0));
        let racer = |id: u32| {
            let (slot, spawns) = (slot.clone(), spawns.clone());
            loom::thread::spawn(move || {
                slot.start(|| {
                    spawns.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                    id
                });
            })
        };
        let (a, b) = (racer(1), racer(2));
        a.join().expect("racer panicked in model");
        b.join().expect("racer panicked in model");
        assert_eq!(spawns.load(std::sync::atomic::Ordering::SeqCst), 1);
        assert!(
            matches!(slot.take(), Some(1 | 2)),
            "the spawned handle was lost"
        );
    });
}

/// A stop requested before the poller ever runs must be observed by the
/// very first loop check — the poller performs zero steps, in every
/// schedule. This is the ordering the Release store / Acquire load pair
/// guarantees (a Relaxed pair would still pass under the SC-only explorer,
/// which is why `cargo xtask lint` enforces the ordering discipline
/// statically).
#[test]
fn prior_stop_means_zero_poll_steps() {
    loom::model(|| {
        let stop = Arc::new(StopFlag::new());
        let steps = Arc::new(Mutex::new(0u32));
        stop.request_stop();

        let (s2, f2) = (steps.clone(), stop.clone());
        let poller = loom::thread::spawn(move || {
            run_poll_loop(&f2, || {
                *s2.lock() += 1;
                false
            });
        });
        poller.join().expect("poller thread panicked in model");
        assert_eq!(*steps.lock(), 0, "poller stepped after stop was requested");
    });
}

/// The hazard the launch() ordering comment warns about, demonstrated: if
/// the launcher joined the poller while holding the scheduler lock, the
/// poller blocks on that lock, the launcher blocks on the join, and the
/// model must report the deadlock.
#[test]
fn join_under_scheduler_lock_would_deadlock() {
    let caught = std::panic::catch_unwind(|| {
        loom::model(|| {
            let stop = Arc::new(StopFlag::new());
            let sched = Arc::new(Mutex::new(0u64));

            let (s2, f2) = (sched.clone(), stop.clone());
            let poller = loom::thread::spawn(move || {
                run_poll_loop(&f2, || {
                    *s2.lock() += 1;
                    true
                });
            });

            let guard = sched.lock();
            // BUG under test: join before releasing the scheduler.
            poller.join().expect("poller thread panicked in model");
            drop(guard);
            stop.request_stop();
        });
    });
    let msg = match caught {
        Err(p) => p
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| "non-string model failure".to_string()),
        Ok(()) => panic!("model missed the join-under-lock deadlock"),
    };
    assert!(msg.contains("deadlock"), "unexpected model failure: {msg}");
}
