//! Model checks for the ring transport's lock-free protocols.
//!
//! The vendored loom explorer (see `vendor/loom`) enumerates thread
//! interleavings under sequential consistency, so these tests exercise the
//! *protocol logic* — index handshakes, clear-then-recheck, waiter
//! registration — against every schedule, not just the ones a stress test
//! happens to hit. Each model mirrors one structure from `dcs::ring` and
//! keeps its name (`SpscRing`, `ReadySet`, `Parker`) so `cargo xtask
//! lint`'s atomics audit can tie the production declarations to their
//! models.
//!
//! The models run under plain `cargo test`: vendored loom is a normal
//! dependency, no `--cfg loom` required.

use loom::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use loom::thread;
use std::sync::Arc;

/// SC fetch_or for the modeled readiness word (vendored loom only provides
/// compare_exchange on `AtomicU64`).
fn rmw_or(word: &AtomicU64, bits: u64) {
    let mut cur = word.load(Ordering::SeqCst);
    loop {
        match word.compare_exchange(cur, cur | bits, Ordering::SeqCst, Ordering::SeqCst) {
            Ok(_) => return,
            Err(now) => cur = now,
        }
    }
}

/// SC decrement (vendored loom's `AtomicUsize` has no fetch_sub).
fn rmw_dec(count: &AtomicUsize) {
    // Wrapping add of MAX is subtract-one in a single RMW step — the
    // vendored explorer has no fetch_sub, and a CAS loop would multiply
    // the schedule count of every model that deregisters a waiter.
    count.fetch_add(usize::MAX, Ordering::SeqCst);
}

/// SC fetch_and for the modeled readiness word.
fn rmw_and(word: &AtomicU64, bits: u64) {
    let mut cur = word.load(Ordering::SeqCst);
    loop {
        match word.compare_exchange(cur, cur & bits, Ordering::SeqCst, Ordering::SeqCst) {
            Ok(_) => return,
            Err(now) => cur = now,
        }
    }
}

/// Model of `ring::SpscRing`: two slots, free-running head/tail, the
/// slot-publish-by-tail-store handshake. Slot contents are modeled as
/// atomics (loom has no UnsafeCell shim); what the model checks is the
/// index protocol — a slot is never read before the tail store publishes
/// it, never overwritten before the head store retires it, and values come
/// out exactly once, in order.
struct SpscRing {
    slots: [AtomicU64; 2],
    head: AtomicUsize,
    tail: AtomicUsize,
}

impl SpscRing {
    fn new() -> Self {
        SpscRing {
            slots: [AtomicU64::new(0), AtomicU64::new(0)],
            head: AtomicUsize::new(0),
            tail: AtomicUsize::new(0),
        }
    }

    /// Sole-owner pop, used by the main thread after joining the consumer
    /// to drain what is left.
    fn drain_pop(&self) -> Option<u64> {
        let head = self.head.load(Ordering::SeqCst);
        let tail = self.tail.load(Ordering::SeqCst);
        if tail == head {
            return None;
        }
        let v = self.slots[head & 1].load(Ordering::SeqCst);
        self.head.store(head.wrapping_add(1), Ordering::SeqCst);
        Some(v)
    }
}

#[test]
fn spsc_ring_index_handshake_delivers_exactly_once_in_order() {
    loom::model(|| {
        let ring = Arc::new(SpscRing::new());
        let producer = {
            let ring = Arc::clone(&ring);
            thread::spawn(move || {
                // Three pushes through a 2-slot ring with the production
                // cached-index protocol (own index is a local, the peer's
                // is refreshed only when the ring looks full): the third
                // push fits only if it observes the consumer's head store.
                let mut tail = 0usize;
                let mut head_cache = 0usize;
                let mut pushed = 0u64;
                // `tail` deliberately mirrors the production free-running
                // index (mutated after the publishing store), not a loop
                // counter — keep the model's shape aligned with the code.
                #[allow(clippy::explicit_counter_loop)]
                for v in 1..=3u64 {
                    if tail - head_cache == 2 {
                        head_cache = ring.head.load(Ordering::SeqCst);
                        if tail - head_cache == 2 {
                            break;
                        }
                    }
                    ring.slots[tail & 1].store(v, Ordering::SeqCst);
                    ring.tail.store(tail + 1, Ordering::SeqCst);
                    tail += 1;
                    pushed = v;
                }
                pushed
            })
        };
        let consumer = {
            let ring = Arc::clone(&ring);
            thread::spawn(move || {
                // One concurrent pop attempt, same cached-index protocol.
                let tail_cache = ring.tail.load(Ordering::SeqCst);
                if tail_cache == 0 {
                    return None;
                }
                let v = ring.slots[0].load(Ordering::SeqCst);
                ring.head.store(1, Ordering::SeqCst);
                Some(v)
            })
        };
        let pushed = producer.join().expect("producer thread panicked");
        let mut got = Vec::new();
        got.extend(consumer.join().expect("consumer thread panicked"));
        // Drain the remainder from the main thread (sole consumer now).
        while let Some(v) = ring.drain_pop() {
            got.push(v);
        }
        // Exactly the pushed prefix, in order, no loss, no duplication —
        // and a concurrent pop never observes an unpublished slot.
        let expect: Vec<u64> = (1..=pushed).collect();
        assert_eq!(got, expect, "pushed {pushed}, got {got:?}");
    });
}

/// Model of `ring::ReadySet` + ring occupancy for one pair: the sender
/// publishes (count += 1, then mark), the receiver sweeps with the
/// clear-then-recheck protocol. The checked invariant: a message is never
/// stranded behind a clear bit — at quiescence, pending > 0 implies the
/// bit is set.
struct ReadySet {
    word: AtomicU64,
    pending: AtomicUsize,
}

#[test]
fn ready_bit_clear_then_recheck_never_strands_a_message() {
    loom::model(|| {
        let rs = Arc::new(ReadySet {
            word: AtomicU64::new(0),
            pending: AtomicUsize::new(0),
        });
        let sender = {
            let rs = Arc::clone(&rs);
            thread::spawn(move || {
                // Push then mark — the production send() order.
                rs.pending.fetch_add(1, Ordering::SeqCst);
                rmw_or(&rs.word, 1);
            })
        };
        let receiver = {
            let rs = Arc::clone(&rs);
            thread::spawn(move || {
                let mut consumed = 0;
                if rs.word.load(Ordering::SeqCst) & 1 != 0 {
                    let got = rs.pending.swap(0, Ordering::SeqCst);
                    if got > 0 {
                        consumed += got;
                    } else {
                        // Stale bit: clear, then re-probe, re-marking if
                        // the re-probe caught a racing push.
                        rmw_and(&rs.word, !1);
                        let again = rs.pending.swap(0, Ordering::SeqCst);
                        if again > 0 {
                            rmw_or(&rs.word, 1);
                            consumed += again;
                        }
                    }
                }
                consumed
            })
        };
        sender.join().expect("sender thread panicked");
        let consumed = receiver.join().expect("receiver thread panicked");
        let left = rs.pending.load(Ordering::SeqCst);
        assert_eq!(consumed + left, 1, "message lost or duplicated");
        if left > 0 {
            assert_eq!(
                rs.word.load(Ordering::SeqCst) & 1,
                1,
                "pending message stranded behind a cleared readiness bit"
            );
        }
    });
}

/// Model of `ring::Parker`: the Dekker-style waiter registration plus the
/// one-shot `signaled` latch. The receiver registers, re-arms the latch,
/// re-probes, and decides to sleep on its generation snapshot; a sender
/// publishes, consults `waiters`, and bumps the generation only if it is
/// the first to latch the episode. Lost wakeup = receiver decided to sleep
/// on a generation no sender will advance.
/// Two modeling abstractions keep the state space inside the explorer's
/// schedule budget, and neither weakens the checked property. First, the
/// production generation lives under a mutex only to make the condvar wait
/// atomic with the `gen == epoch` check; the model's sleep decision is a
/// single read at one point in the interleaving, which is exactly that
/// atomicity, so `generation` can be a plain SC atomic. Second, the
/// production receiver deregisters from `waiters` on the no-sleep paths —
/// but every execution that takes those paths returns `would_sleep =
/// false`, making the lost-wakeup assertion vacuous there, so the model
/// skips the deregistration (senders then at worst over-wake, which can
/// only be observed in vacuous executions).
struct Parker {
    waiters: AtomicUsize,
    signaled: AtomicBool,
    generation: AtomicU64,
    msgs: AtomicUsize,
}

impl Parker {
    /// The production `unpark` after an `msgs` publish.
    fn unpark(&self) {
        if self.waiters.load(Ordering::SeqCst) == 0 {
            return;
        }
        if self.signaled.swap(true, Ordering::SeqCst) {
            return;
        }
        self.generation.fetch_add(1, Ordering::SeqCst);
    }

    /// The production receiver: prepare (register, re-arm latch, snapshot),
    /// SeqCst re-probe, then the sleep decision. Returns
    /// `(would_sleep, epoch)`; a thread that decides to sleep stays
    /// registered (the real condvar wait holds the registration).
    fn receive(&self) -> (bool, u64) {
        self.waiters.fetch_add(1, Ordering::SeqCst);
        self.signaled.store(false, Ordering::SeqCst);
        let epoch = self.generation.load(Ordering::SeqCst);
        if self.msgs.swap(0, Ordering::SeqCst) > 0 {
            return (false, epoch);
        }
        // park(): the sleep decision — atomic with the condvar wait in the
        // real code (see the mutex note above), so "would sleep here" is
        // exactly the lost-wakeup hazard.
        let would_sleep = self.generation.load(Ordering::SeqCst) == epoch;
        (would_sleep, epoch)
    }
}

#[test]
fn parker_registration_cannot_lose_a_wakeup() {
    loom::model(|| {
        let p = Arc::new(Parker {
            waiters: AtomicUsize::new(0),
            signaled: AtomicBool::new(false),
            generation: AtomicU64::new(0),
            msgs: AtomicUsize::new(0),
        });
        // Two senders so the latch is exercised: one of them can find it
        // already set and skip the bump — the skip is only safe if the
        // earlier latcher's wake (or the receiver's re-probe) covers both
        // envelopes.
        let senders: Vec<_> = (0..2)
            .map(|_| {
                let p = Arc::clone(&p);
                thread::spawn(move || {
                    // Publish, then wake-if-registered: the production order.
                    p.msgs.fetch_add(1, Ordering::SeqCst);
                    p.unpark();
                })
            })
            .collect();
        // The receiver runs on the model's main thread: one fewer thread
        // keeps the three-way interleaving inside the schedule budget.
        let (would_sleep, epoch) = p.receive();
        for s in senders {
            s.join().expect("sender thread panicked");
        }
        if would_sleep && p.msgs.load(Ordering::SeqCst) > 0 {
            // Both senders have completed; if the receiver went to sleep
            // with envelopes still pending, the generation must have moved
            // past its snapshot, i.e. a condvar notify was (or will be,
            // before the wait begins under the same lock) issued. Equal
            // generations here would be a lost wakeup.
            let final_gen = p.generation.load(Ordering::SeqCst);
            assert_ne!(
                final_gen, epoch,
                "receiver slept on a generation no sender advanced"
            );
        }
    });
}

/// A previous sleep episode can leave `signaled` latched (e.g. a wake that
/// raced a timeout). The re-arm in `prepare` happens *after* the waiter
/// registration, which is what makes the stale value harmless: an unpark
/// that reads latched-true before the re-arm published its envelope before
/// the receiver's re-probe. Model that exact scenario: latch starts true.
#[test]
fn parker_stale_latch_from_previous_episode_cannot_mask_a_wakeup() {
    loom::model(|| {
        let p = Arc::new(Parker {
            waiters: AtomicUsize::new(0),
            signaled: AtomicBool::new(true),
            generation: AtomicU64::new(0),
            msgs: AtomicUsize::new(0),
        });
        let sender = {
            let p = Arc::clone(&p);
            thread::spawn(move || {
                p.msgs.fetch_add(1, Ordering::SeqCst);
                p.unpark();
            })
        };
        let receiver = {
            let p = Arc::clone(&p);
            thread::spawn(move || p.receive())
        };
        sender.join().expect("sender thread panicked");
        let (would_sleep, epoch) = receiver.join().expect("receiver thread panicked");
        if would_sleep && p.msgs.load(Ordering::SeqCst) > 0 {
            let final_gen = p.generation.load(Ordering::SeqCst);
            assert_ne!(
                final_gen, epoch,
                "stale latch masked the only wakeup for a pending envelope"
            );
        }
    });
}

#[test]
fn parker_shutdown_wake_is_unconditional_and_cannot_be_missed() {
    loom::model(|| {
        let p = Arc::new(Parker {
            waiters: AtomicUsize::new(0),
            signaled: AtomicBool::new(false),
            generation: AtomicU64::new(0),
            msgs: AtomicUsize::new(0),
        });
        let stop = Arc::new(AtomicBool::new(false));
        let stopper = {
            let p = Arc::clone(&p);
            let stop = Arc::clone(&stop);
            thread::spawn(move || {
                // Shutdown wake: set the flag, then advance the generation
                // unconditionally — no waiter check and no latch consult,
                // so a receiver that registers after the load (or a sender
                // that latched without bumping) cannot mask it.
                stop.store(true, Ordering::SeqCst);
                p.generation.fetch_add(1, Ordering::SeqCst);
            })
        };
        let receiver = {
            let p = Arc::clone(&p);
            let stop = Arc::clone(&stop);
            thread::spawn(move || {
                p.waiters.fetch_add(1, Ordering::SeqCst);
                p.signaled.store(false, Ordering::SeqCst);
                let epoch = p.generation.load(Ordering::SeqCst);
                if stop.load(Ordering::SeqCst) {
                    rmw_dec(&p.waiters);
                    return (false, epoch);
                }
                // A thread that decides to sleep stays registered until it
                // is woken (the real condvar wait holds the registration);
                // the no-sleep deregistration is modeled in rmw_dec above.
                let would_sleep = p.generation.load(Ordering::SeqCst) == epoch;
                if !would_sleep {
                    rmw_dec(&p.waiters);
                }
                (would_sleep, epoch)
            })
        };
        stopper.join().expect("stopper thread panicked");
        let (would_sleep, epoch) = receiver.join().expect("receiver thread panicked");
        if would_sleep {
            let final_gen = p.generation.load(Ordering::SeqCst);
            assert_ne!(
                final_gen, epoch,
                "receiver slept through an unconditional shutdown wake"
            );
        }
    });
}
