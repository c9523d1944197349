//! The time a layer is handed instead of reading one itself.
//!
//! Timers in the runtime are durations, but the layers that own them
//! (`reliable` today; `ilb`'s governor window, residency hold and request
//! watchdog are next — ROADMAP item 1) must stay runnable in lock step and
//! inside the discrete-event simulator, so none of them may call
//! `Instant::now()`. A [`Clock`] is what they are given at construction
//! instead: [`Clock::monotonic`] on threads and in worker processes,
//! [`Clock::manual`] where a test or a simulator decides what time it is —
//! the `TraceSink::manual` / `set_now` shape, for the same reason.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A source of "now", as time elapsed since the clock was made. Clones of a
/// manual clock share its reading, so one stepper can drive every rank of a
/// lock-step machine.
#[derive(Clone, Debug)]
pub struct Clock(Source);

#[derive(Clone, Debug)]
enum Source {
    /// Wall time since this origin.
    Monotonic(Instant),
    /// Whatever [`Clock::set_now`] last said, in nanoseconds (0 until then).
    Manual(Arc<AtomicU64>),
}

impl Clock {
    /// The machine's monotonic clock.
    pub fn monotonic() -> Self {
        Clock(Source::Monotonic(Instant::now()))
    }

    /// A clock that stands at zero until it is stepped.
    pub fn manual() -> Self {
        Clock(Source::Manual(Arc::default()))
    }

    /// The current reading. `#[inline]`: the scheduler reads it from
    /// another crate, and the workspace builds without LTO.
    #[inline]
    pub fn now(&self) -> Duration {
        match &self.0 {
            Source::Monotonic(origin) => origin.elapsed(),
            Source::Manual(ns) => Duration::from_nanos(ns.load(Ordering::SeqCst)),
        }
    }

    /// Set a manual clock's reading. Panics on a monotonic clock, and if it
    /// would run the clock backwards: every timer above assumes it cannot.
    pub fn set_now(&self, t: Duration) {
        let t = nanos(t);
        let before = self.manual_ns().fetch_max(t, Ordering::SeqCst);
        assert!(
            before <= t,
            "manual clock stepped backwards: {before} -> {t} ns"
        );
    }

    /// Step a manual clock forward by `dt`.
    pub fn advance(&self, dt: Duration) {
        self.manual_ns().fetch_add(nanos(dt), Ordering::SeqCst);
    }

    fn manual_ns(&self) -> &AtomicU64 {
        match &self.0 {
            Source::Manual(ns) => ns,
            Source::Monotonic(_) => panic!("stepping a monotonic Clock"),
        }
    }
}

fn nanos(t: Duration) -> u64 {
    u64::try_from(t.as_nanos()).expect("a manual clock's reading fits 584 years")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_manual_clock_reads_what_it_was_last_given_and_clones_share_it() {
        let clock = Clock::manual();
        let twin = clock.clone();
        assert_eq!(clock.now(), Duration::ZERO);
        clock.set_now(Duration::from_micros(1500));
        clock.advance(Duration::from_micros(500));
        assert_eq!(twin.now(), Duration::from_millis(2));
    }

    #[test]
    fn a_monotonic_clock_moves_on_its_own() {
        let clock = Clock::monotonic();
        let t0 = clock.now();
        std::thread::sleep(Duration::from_millis(2));
        assert!(clock.now() - t0 >= Duration::from_millis(2));
    }

    #[test]
    #[should_panic(expected = "stepped backwards")]
    fn a_manual_clock_refuses_to_run_backwards() {
        let clock = Clock::manual();
        clock.set_now(Duration::from_millis(2));
        clock.set_now(Duration::from_millis(1));
    }
}
