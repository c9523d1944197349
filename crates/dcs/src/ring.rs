//! Lock-free building blocks for the shared-nothing ring transport.
//!
//! The ring-mesh substrate (DESIGN.md §13) gives every ordered rank pair its
//! own bounded single-producer/single-consumer ring, so the steady-state
//! send/receive path crosses **no** lock and **no** contended compare-and-swap:
//! the producer touches only the tail index, the consumer only the head, and
//! each caches the other's last-observed position to avoid even uncontended
//! atomic loads while the ring is comfortably non-empty/non-full (the
//! classic cached-index SPSC construction).
//!
//! Four pieces live here, all consumed by [`crate::transport`]:
//!
//! - [`SpscRing`] / [`Producer`] / [`Consumer`] — the bounded ring itself.
//! - [`ReadySet`] — a per-receiver readiness bitmask (one bit per peer) that
//!   keeps the *empty* poll O(words) instead of O(n): a sweep loads
//!   ⌈n/64⌉ words and stops if all are zero.
//! - [`Parker`] — an eventcount so a blocking `recv_timeout` can sleep
//!   without a shared condvar-per-message cost on the send path: senders pay
//!   one relaxed-cheap `waiters` load per send, and only take the generation
//!   lock when a receiver is actually parked.
//! - [`Overflow`] — the unbounded spill side channel that preserves the
//!   transport's "send never blocks, never drops" contract under ring-full
//!   backpressure while keeping per-pair FIFO intact.
//!
//! The index handshake, the readiness clear-then-recheck protocol, and the
//! parker's Dekker-style waiter registration are model-checked in
//! `tests/loom_ring.rs` under the vendored loom explorer.

use crate::envelope::Envelope;
use parking_lot::{Condvar, Mutex};
use std::cell::{Cell, UnsafeCell};
use std::collections::VecDeque;
use std::mem::MaybeUninit;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Pads and aligns a value to a cache line so the producer-owned tail and
/// consumer-owned head indices of one ring never false-share.
#[repr(align(128))]
pub(crate) struct CachePadded<T> {
    value: T,
}

impl<T> CachePadded<T> {
    pub(crate) const fn new(value: T) -> Self {
        CachePadded { value }
    }
}

impl<T> Deref for CachePadded<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.value
    }
}

impl<T> DerefMut for CachePadded<T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.value
    }
}

// ---------------------------------------------------------------------------
// Bounded SPSC ring
// ---------------------------------------------------------------------------

/// One ring slot: an envelope padded to 64 bytes. Smaller slots lower glibc's
/// dynamic heap-trim threshold, and ranks' arenas then shrink and fault back
/// in between runtimes launched in one process (DESIGN.md §13).
struct Slot {
    env: UnsafeCell<MaybeUninit<Envelope>>,
    _pad: MaybeUninit<[u8; 64 - std::mem::size_of::<Envelope>()]>,
}

impl Slot {
    fn get(&self) -> *mut MaybeUninit<Envelope> {
        self.env.get()
    }
}

/// Shared state of one bounded SPSC ring. Constructed only through [`spsc`],
/// which hands out exactly one [`Producer`] and one [`Consumer`]; all slot
/// access goes through those two ends.
pub(crate) struct SpscRing {
    /// `capacity - 1`; capacity is always a power of two so `index & mask`
    /// replaces the modulo.
    mask: usize,
    /// Slot storage. A slot is initialized exactly when its index lies in
    /// `[head, tail)` of the free-running counters.
    slots: Box<[Slot]>,
    /// Consumer position (free-running). Written only by the consumer
    /// (Release), read by the producer (Acquire) when it looks full.
    head: CachePadded<AtomicUsize>,
    /// Producer position (free-running). Written only by the producer
    /// (Release) after the slot write, read by the consumer (Acquire) when
    /// it looks empty — the Release/Acquire pair is what publishes the slot
    /// contents.
    tail: CachePadded<AtomicUsize>,
}

// SAFETY: the ring is shared between exactly two threads — the unique
// `Producer` writes slots at `tail` and the unique `Consumer` reads slots at
// `head`, and the Release-store/Acquire-load handshake on the indices
// guarantees a slot is never read before its write is published nor
// overwritten before its read has retired. `Envelope` is `Send`, which is
// all that moving one through the ring requires.
unsafe impl Send for SpscRing {}
unsafe impl Sync for SpscRing {}

impl Drop for SpscRing {
    fn drop(&mut self) {
        // Exclusive access: drain whatever is still in flight so payload
        // refcounts are released. The counters are free-running, so walk
        // with wrapping increments rather than a `head..tail` range.
        let mut i = *self.head.get_mut();
        let tail = *self.tail.get_mut();
        while i != tail {
            unsafe { (*self.slots[i & self.mask].get()).assume_init_drop() };
            i = i.wrapping_add(1);
        }
    }
}

/// Build one ring of the given capacity (rounded up to a power of two, min
/// 2) and return its two ends.
pub(crate) fn spsc(capacity: usize) -> (Producer, Consumer) {
    let cap = capacity.next_power_of_two().max(2);
    let slots = (0..cap)
        .map(|_| Slot {
            env: UnsafeCell::new(MaybeUninit::uninit()),
            _pad: MaybeUninit::uninit(),
        })
        .collect::<Vec<_>>()
        .into_boxed_slice();
    let ring = Arc::new(SpscRing {
        mask: cap - 1,
        slots,
        head: CachePadded::new(AtomicUsize::new(0)),
        tail: CachePadded::new(AtomicUsize::new(0)),
    });
    (
        Producer {
            ring: Arc::clone(&ring),
            tail: Cell::new(0),
            head_cache: Cell::new(0),
        },
        Consumer {
            ring,
            head: Cell::new(0),
            tail_cache: Cell::new(0),
        },
    )
}

/// The sending end of a ring. `!Sync` by construction (the cached indices
/// are `Cell`s): a producer belongs to exactly one thread at a time, which
/// is the single-producer half of the SPSC contract. In the runtime the
/// endpoint is shared between the worker and the polling thread *above*
/// this layer, under the scheduler lock, which serializes all uses.
pub(crate) struct Producer {
    ring: Arc<SpscRing>,
    /// Local copy of the authoritative `ring.tail` (we are its only writer).
    tail: Cell<usize>,
    /// Last observed consumer position; refreshed only when the ring looks
    /// full, so steady-state pushes do no cross-cacheline atomic load.
    head_cache: Cell<usize>,
}

impl Producer {
    /// Push without blocking. Returns the envelope back when the ring is
    /// full — the caller decides the backpressure policy (the transport
    /// spills to its [`Overflow`] channel).
    pub(crate) fn push(&self, env: Envelope) -> Result<(), Envelope> {
        let ring = &*self.ring;
        let cap = ring.mask + 1;
        let tail = self.tail.get();
        if tail.wrapping_sub(self.head_cache.get()) == cap {
            self.head_cache.set(ring.head.load(Ordering::Acquire));
            if tail.wrapping_sub(self.head_cache.get()) == cap {
                return Err(env);
            }
        }
        // SAFETY: `tail` is strictly less than `head + cap`, so this slot is
        // outside the initialized `[head, tail)` window and unobservable by
        // the consumer until the Release store below publishes it.
        unsafe { (*ring.slots[tail & ring.mask].get()).write(env) };
        ring.tail.store(tail.wrapping_add(1), Ordering::Release);
        self.tail.set(tail.wrapping_add(1));
        Ok(())
    }
}

/// The receiving end of a ring (see [`Producer`] for the ownership rules).
pub(crate) struct Consumer {
    ring: Arc<SpscRing>,
    /// Local copy of the authoritative `ring.head` (we are its only writer).
    head: Cell<usize>,
    /// Last observed producer position; refreshed only when the ring looks
    /// empty.
    tail_cache: Cell<usize>,
}

impl Consumer {
    /// Pop the oldest envelope, if any.
    pub(crate) fn pop(&self) -> Option<Envelope> {
        let ring = &*self.ring;
        let head = self.head.get();
        if self.tail_cache.get() == head {
            self.tail_cache.set(ring.tail.load(Ordering::Acquire));
            if self.tail_cache.get() == head {
                return None;
            }
        }
        // SAFETY: `head < tail` was just established, and the Acquire load
        // of `tail` ordered this read after the producer's slot write.
        let env = unsafe { (*ring.slots[head & ring.mask].get()).assume_init_read() };
        ring.head.store(head.wrapping_add(1), Ordering::Release);
        self.head.set(head.wrapping_add(1));
        Some(env)
    }
}

// ---------------------------------------------------------------------------
// Readiness bitmask
// ---------------------------------------------------------------------------

/// One readiness bit per peer of a receiving rank. A sender marks its bit
/// after every push; the receiver's sweep loads ⌈n/64⌉ words and returns
/// immediately when all are zero, which is what keeps the empty poll O(1)
/// in machine size for all practical n.
///
/// A set bit means "this pair *may* have traffic"; a clear bit means "this
/// pair was observed empty after the last mark". The receiver clears a bit
/// only via the clear-then-recheck protocol in the transport sweep, which
/// closes the race with a push that lands between the failed pop and the
/// clear: the clearing `fetch_and` is an AcqRel RMW, so when it observes the
/// sender's `fetch_or` the subsequent re-probe observes the pushed envelope
/// too; when it does not, the sender's mark survives the clear and the next
/// sweep finds it.
pub(crate) struct ReadySet {
    words: Vec<AtomicU64>,
}

impl ReadySet {
    pub(crate) fn new(n: usize) -> Self {
        ReadySet {
            words: (0..n.div_ceil(64)).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Mark peer `i` as possibly-ready (sender side, after a push).
    pub(crate) fn mark(&self, i: usize) {
        self.words[i >> 6].fetch_or(1 << (i & 63), Ordering::AcqRel);
    }

    /// Clear peer `i`'s bit (receiver side, only within clear-then-recheck).
    pub(crate) fn clear(&self, i: usize) {
        self.words[i >> 6].fetch_and(!(1 << (i & 63)), Ordering::AcqRel);
    }

    /// Whether peer `i`'s bit is set, at the caller's chosen strength (the
    /// polling sweep probes Relaxed; the pre-park double-check re-probes
    /// SeqCst so a parked receiver can never miss a registered send).
    pub(crate) fn is_marked(&self, i: usize, ord: Ordering) -> bool {
        self.words[i >> 6].load(ord) & (1 << (i & 63)) != 0
    }

    /// Whether any bit is set — the empty-poll fast path.
    pub(crate) fn any(&self, ord: Ordering) -> bool {
        self.words.iter().any(|w| w.load(ord) != 0)
    }
}

// ---------------------------------------------------------------------------
// Parker (eventcount)
// ---------------------------------------------------------------------------

/// An eventcount for the blocking receive path.
///
/// Protocol (receiver): [`prepare`](Parker::prepare) registers the waiter
/// and snapshots the wake generation → re-probe the rings at SeqCst → if
/// still empty, [`park`](Parker::park) sleeps until the generation moves or
/// the deadline passes. Protocol (sender): after publishing an envelope and
/// its readiness bit, [`unpark`](Parker::unpark) checks `waiters` and only
/// then takes the lock to advance the generation.
///
/// The SeqCst `waiters` increment before the receiver's re-probe and the
/// sender's SeqCst `waiters` read after its publish form the Dekker-style
/// store-buffering pair that makes a lost wakeup impossible: either the
/// receiver's re-probe sees the envelope, or the sender sees the registered
/// waiter and advances the generation the receiver is about to sleep on —
/// with the generation check and the sleep made atomic by the mutex.
///
/// `signaled` makes the wake one-shot per sleep episode: the first unpark
/// to latch it pays the mutex and the condvar notify; every later unpark in
/// the same episode (the woken receiver can stay registered for a whole
/// scheduler quantum before it runs, during which a bulk sender keeps
/// calling unpark) sees the latch and returns after two atomic ops. The
/// latch is safe because it is re-armed in `prepare` *after* the waiter
/// registration: in the SeqCst total order, an unpark whose swap follows
/// the re-arm reads `false` and performs the full wake, and an unpark whose
/// swap precedes it published its envelope before the receiver's re-probe.
/// Model-checked in `tests/loom_ring.rs`.
pub(crate) struct Parker {
    /// Receivers registered between `prepare` and the end of `park`/`cancel`.
    waiters: AtomicUsize,
    /// One-shot wake latch for the current sleep episode; armed (cleared)
    /// by `prepare`, consumed by the first effective `unpark`.
    signaled: AtomicBool,
    /// Wake generation; advances on every effective unpark.
    generation: Mutex<u64>,
    cv: Condvar,
}

impl Parker {
    pub(crate) fn new() -> Self {
        Parker {
            waiters: AtomicUsize::new(0),
            signaled: AtomicBool::new(false),
            generation: Mutex::new(0),
            cv: Condvar::new(),
        }
    }

    /// Register as a waiter and snapshot the generation. Must be paired
    /// with exactly one `park` or `cancel`.
    pub(crate) fn prepare(&self) -> u64 {
        self.waiters.fetch_add(1, Ordering::SeqCst);
        // Re-arm the one-shot latch only after the registration above: a
        // stale latch value can then only be read by an unpark that
        // published before this point, i.e. before the caller's re-probe.
        self.signaled.store(false, Ordering::SeqCst);
        *self.generation.lock()
    }

    /// Deregister without sleeping (the post-`prepare` re-probe found work).
    pub(crate) fn cancel(&self) {
        self.waiters.fetch_sub(1, Ordering::SeqCst);
    }

    /// Sleep until the generation moves past `epoch` or `deadline` passes.
    /// Returns `true` on timeout. Deregisters the waiter either way.
    pub(crate) fn park(&self, epoch: u64, deadline: Instant) -> bool {
        let mut gen = self.generation.lock();
        let mut timed_out = false;
        while *gen == epoch {
            let now = Instant::now();
            if now >= deadline {
                timed_out = true;
                break;
            }
            gen = match self.cv.wait_timeout(gen, deadline - now) {
                Ok((g, _)) => g,
                Err(poisoned) => poisoned.into_inner().0,
            };
        }
        drop(gen);
        self.waiters.fetch_sub(1, Ordering::SeqCst);
        timed_out
    }

    /// Wake any parked receiver. The fast path — no waiter registered — is
    /// a single atomic load, which is all a steady-state send pays; with a
    /// waiter registered, only the first unpark of the sleep episode takes
    /// the lock and notifies (see the latch discussion on [`Parker`]).
    pub(crate) fn unpark(&self) {
        if self.waiters.load(Ordering::SeqCst) == 0 {
            return;
        }
        if self.signaled.swap(true, Ordering::SeqCst) {
            return;
        }
        let mut gen = self.generation.lock();
        *gen = gen.wrapping_add(1);
        self.cv.notify_all();
    }
}

// ---------------------------------------------------------------------------
// Overflow spill channel
// ---------------------------------------------------------------------------

/// Unbounded per-pair spill queue backing the ring's backpressure policy.
///
/// The transport's invariant: once a pair has spilled, the sender keeps
/// appending to the overflow (never the ring) until the receiver has
/// drained it empty — and the receiver drains the ring before the overflow
/// in every probe. Together those two rules keep per-pair FIFO across spill
/// episodes: everything in the ring predates everything in the overflow.
///
/// `len` mirrors the queue length so the steady-state probes on both sides
/// are a single atomic load; only the sender ever grows it, so its own
/// `is_empty` check is exact, and the mutex remains the true arbiter for
/// the queue contents themselves.
pub(crate) struct Overflow {
    queue: Mutex<VecDeque<Envelope>>,
    len: AtomicUsize,
}

impl Overflow {
    pub(crate) fn new() -> Self {
        Overflow {
            queue: Mutex::new(VecDeque::new()),
            len: AtomicUsize::new(0),
        }
    }

    /// Whether the spill queue is empty (exact for the sender — it is the
    /// only writer that grows the queue; a hint for the receiver, whose
    /// next probe re-checks).
    pub(crate) fn is_empty(&self) -> bool {
        self.len.load(Ordering::SeqCst) == 0
    }

    pub(crate) fn push(&self, env: Envelope) {
        let mut q = self.queue.lock();
        q.push_back(env);
        self.len.store(q.len(), Ordering::SeqCst);
    }

    pub(crate) fn pop(&self) -> Option<Envelope> {
        if self.is_empty() {
            return None;
        }
        let mut q = self.queue.lock();
        let env = q.pop_front();
        self.len.store(q.len(), Ordering::SeqCst);
        env
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::envelope::{HandlerId, Rank, Tag};
    use bytes::Bytes;
    use std::time::Duration;

    fn env(src: Rank, dst: Rank, n: u32) -> Envelope {
        Envelope {
            src,
            dst,
            handler: HandlerId(n),
            tag: Tag::App,
            payload: Bytes::new(),
        }
    }

    #[test]
    fn ring_roundtrips_in_order_and_reports_full() {
        let (tx, rx) = spsc(4);
        assert!(rx.pop().is_none());
        for i in 0..4 {
            assert!(tx.push(env(0, 1, i)).is_ok());
        }
        // Capacity 4: the fifth push bounces back intact.
        let bounced = tx.push(env(0, 1, 99)).unwrap_err();
        assert_eq!(bounced.handler, HandlerId(99));
        for i in 0..4 {
            assert_eq!(rx.pop().unwrap().handler, HandlerId(i));
        }
        assert!(rx.pop().is_none());
        // Space freed: the bounced envelope now fits.
        assert!(tx.push(bounced).is_ok());
        assert_eq!(rx.pop().unwrap().handler, HandlerId(99));
    }

    #[test]
    fn ring_wraps_many_times_without_confusion() {
        let (tx, rx) = spsc(2);
        for i in 0..1000 {
            assert!(tx.push(env(0, 0, i)).is_ok());
            assert_eq!(rx.pop().unwrap().handler, HandlerId(i));
        }
    }

    #[test]
    fn ring_drop_releases_in_flight_payloads() {
        let payload = Bytes::from(vec![7u8; 100]);
        let (tx, rx) = spsc(8);
        for i in 0..5 {
            let mut e = env(0, 1, i);
            e.payload = payload.clone();
            tx.push(e).map_err(|_| "full").unwrap();
        }
        drop(rx);
        drop(tx);
        // All ring-held clones released: we are the sole owner again, which
        // is exactly what a successful `try_reclaim` certifies.
        assert!(payload.try_reclaim().is_ok());
    }

    #[test]
    fn ring_spsc_across_threads_preserves_order() {
        let (tx, rx) = spsc(8);
        let h = std::thread::spawn(move || {
            let mut pending = None;
            for i in 0..10_000 {
                let mut e = pending.take().unwrap_or_else(|| env(0, 1, i));
                loop {
                    match tx.push(e) {
                        Ok(()) => break,
                        Err(back) => {
                            e = back;
                            std::thread::yield_now();
                        }
                    }
                }
                pending = None;
            }
        });
        let mut next = 0u32;
        while next < 10_000 {
            if let Some(e) = rx.pop() {
                assert_eq!(e.handler, HandlerId(next));
                next += 1;
            } else {
                std::thread::yield_now();
            }
        }
        h.join().unwrap();
    }

    #[test]
    fn ready_set_marks_clears_and_sweeps() {
        let rs = ReadySet::new(130); // 3 words
        assert!(!rs.any(Ordering::SeqCst));
        rs.mark(0);
        rs.mark(64);
        rs.mark(129);
        assert!(rs.any(Ordering::SeqCst));
        assert!(rs.is_marked(64, Ordering::SeqCst));
        assert!(!rs.is_marked(63, Ordering::SeqCst));
        rs.clear(64);
        assert!(!rs.is_marked(64, Ordering::SeqCst));
        assert!(rs.is_marked(0, Ordering::SeqCst));
        assert!(rs.is_marked(129, Ordering::SeqCst));
        rs.clear(0);
        rs.clear(129);
        assert!(!rs.any(Ordering::SeqCst));
    }

    #[test]
    fn parker_times_out_without_signal() {
        let p = Parker::new();
        let epoch = p.prepare();
        let start = Instant::now();
        assert!(p.park(epoch, start + Duration::from_millis(20)));
        assert!(start.elapsed() >= Duration::from_millis(15));
    }

    #[test]
    fn parker_wakes_on_unpark() {
        let p = Arc::new(Parker::new());
        let p2 = Arc::clone(&p);
        let epoch = p.prepare();
        let h = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            p2.unpark();
        });
        let timed_out = p.park(epoch, Instant::now() + Duration::from_secs(5));
        assert!(!timed_out, "unpark must beat the 5s deadline");
        h.join().unwrap();
    }

    #[test]
    fn parker_unpark_before_park_is_not_lost() {
        let p = Parker::new();
        let epoch = p.prepare();
        p.unpark(); // generation advances: the sleep below must not block
        let start = Instant::now();
        assert!(!p.park(epoch, start + Duration::from_secs(5)));
        assert!(start.elapsed() < Duration::from_secs(1));
    }

    #[test]
    fn overflow_is_fifo_and_tracks_len() {
        let o = Overflow::new();
        assert!(o.is_empty());
        assert!(o.pop().is_none());
        for i in 0..10 {
            o.push(env(0, 1, i));
        }
        assert!(!o.is_empty());
        for i in 0..10 {
            assert_eq!(o.pop().unwrap().handler, HandlerId(i));
        }
        assert!(o.is_empty());
    }
}
