//! Wire transports.
//!
//! The paper's PREMA sat on LAM/MPI. Here the wire is abstracted behind
//! [`Transport`]; the provided [`RingFabric`] connects N ranks (one OS
//! thread each) through a shared-nothing mesh of bounded lock-free SPSC
//! rings, giving a real concurrent message-passing machine inside one
//! process.
//!
//! # The shared-nothing ring mesh
//!
//! Every ordered rank pair (including self-sends) owns a private
//! single-producer/single-consumer ring (the crate-private `ring` module):
//! the sender holds the producer end, the receiver the consumer end, and the
//! steady-state path crosses **no** lock and **no** contended RMW — a send
//! is a slot write plus three uncontended atomics (tail publish, readiness
//! mark, parked-waiter probe), and it allocates nothing. Two earlier
//! designs are retired by this one: the original n×n channel mesh paid an
//! O(n) scan per *empty* poll, and the single shared MPSC inbox that
//! replaced it made the empty poll O(1) but pushed every bulk send through
//! one contended channel (BENCH_substrate.json: p2p *slower* than
//! the scan it replaced). The ring mesh keeps both properties at once:
//!
//! - **Empty poll**: a receiver-side readiness bitmask (one bit per peer,
//!   marked by senders after each push) lets `try_recv` answer "nothing
//!   pending" from ⌈n/64⌉ relaxed word loads — no ring is touched.
//! - **Blocking receive**: a per-rank `ring::Parker` eventcount gives
//!   `recv_timeout` a sleep that senders can wake for the cost of one
//!   atomic load on the no-waiter fast path, preserving the prompt-wake
//!   and bounded-timeout behavior the model-checked shutdown relies on.
//! - **Backpressure**: a full ring spills to that pair's unbounded
//!   `ring::Overflow` side channel, so `send` keeps the never-blocks /
//!   never-drops contract the decorators (`ReliableTransport`,
//!   `ChaosTransport`) assume. Spill order invariant:
//!   from the first spill until the receiver drains the overflow empty, the
//!   sender keeps appending to the overflow — and every receive probes the
//!   ring before the overflow — so everything in the ring predates
//!   everything in the overflow and per-pair FIFO survives spill episodes.
//!
//! The per-pair FIFO guarantee of MPI — which the MOL's sequence-numbered
//! delivery ordering builds on — is now *structural per pair*: one sender,
//! one ring, one receiver. Interleaving *between* pairs is arbitrary (it
//! always was), which is all the MOL assumes; the receive sweep
//! round-robins across ready peers so no pair starves behind another's
//! backlog. A multi-sender proptest (`ring_mesh_preserves_per_pair_fifo` in
//! `tests/proptest_dcs.rs`) pins the guarantee under randomized thread
//! interleavings, and `tests/loom_ring.rs` model-checks the ring index
//! handshake, the readiness clear-then-recheck, and the parker wakeup.

use crate::envelope::{Envelope, Rank};
use crate::ring::{self, Consumer, Overflow, Parker, Producer, ReadySet};
use prema_trace::{TraceEvent, Tracer};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The wire slice: how often a rank with queued work runs its polling
/// operation (`prema::Runtime::step` through `ilb::Scheduler::poll_due`) —
/// it pumps its wire and weighs its load once per slice, not once per unit
/// — and how often [`crate::udp`] services its socket while a rank keeps
/// receiving without flushing: open datagrams leave, and the socket is
/// drained, at the first `try_recv` at least this long after the last
/// service.
///
/// A constant, not configuration. Swept on `chat_udp` (benchmark/README.md;
/// 8 s runs, seed 1, two rounds, 2-vCPU Xeon VM) against servicing the
/// socket on every receive call (723–876 k units/s): 10 µs read
/// 1.01–1.05 M, 20 µs 1.13–1.14 M, 50 µs 1.29–1.37 M, 100 µs 1.26–1.30 M,
/// and 250 µs 1.02–1.10 M with `on_time_share` slipping to 0.99997. The
/// slice only has to be long against a unit (so a datagram collects a
/// slice's records) and short against `reliable::ACK_DELAY` and the 1 ms
/// polling interval (so nothing above notices it). Swept on `chat_fine`
/// as the polling pace (5–100 µs all within noise), so one constant serves
/// both.
pub const WIRE_SLICE: Duration = Duration::from_micros(50);

/// A node's connection to the machine.
pub trait Transport: Send {
    /// This node's rank.
    fn rank(&self) -> Rank;
    /// Number of ranks in the machine.
    fn nprocs(&self) -> usize;
    /// Enqueue an envelope for delivery (non-blocking, unbounded buffering —
    /// the semantics of MPI eager sends for the small messages DCS carries).
    fn send(&self, env: Envelope);
    /// Non-blocking receive.
    fn try_recv(&self) -> Option<Envelope>;
    /// Blocking receive with a timeout; `None` on timeout.
    fn recv_timeout(&self, timeout: Duration) -> Option<Envelope>;
    /// Put on the wire everything `send` has accepted and is still holding.
    /// The runtime calls it before it releases a rank's scheduler lock, so
    /// what one lock hold sent leaves together. A transport whose `send`
    /// delivers at once holds nothing, and the default does nothing; a
    /// decorator forwards it to the transport it wraps.
    fn flush(&self) {}
}

/// Per-receiver state every sender needs a handle on: the readiness bits it
/// marks, the parker it pokes, and the teardown latch it consults.
struct RankShared {
    /// Bit `s` set ⇒ pair (s → this rank) may hold traffic.
    ready: ReadySet,
    /// Eventcount for this rank's blocking receives.
    parker: Parker,
    /// Set when this rank's endpoint drops; senders then count the message
    /// as undeliverable instead of writing into a ring nobody will drain.
    closed: AtomicBool,
}

/// State shared by every endpoint of one fabric.
struct FabricShared {
    ranks: Vec<RankShared>,
    /// Fabric-wide count of sends to an already-torn-down rank. Shared by
    /// every endpoint so a teardown race anywhere in the machine is visible
    /// from any surviving rank.
    undeliverable: AtomicU64,
}

/// Sender-side handle on one ordered pair: the ring's producer end plus the
/// shared spill queue.
struct TxPair {
    prod: Producer,
    overflow: Arc<Overflow>,
}

/// Receiver-side handle on one ordered pair.
struct RxPair {
    cons: Consumer,
    overflow: Arc<Overflow>,
}

/// One endpoint of a [`RingFabric`].
pub struct RingEndpoint {
    rank: Rank,
    /// `tx[d]` is this rank's private producer for the (rank → d) ring.
    tx: Vec<TxPair>,
    /// `rx[s]` is this rank's private consumer for the (s → rank) ring.
    rx: Vec<RxPair>,
    /// Round-robin sweep position, advanced past each delivering peer so no
    /// pair starves behind another's backlog.
    cursor: Cell<usize>,
    shared: Arc<FabricShared>,
    /// Emits [`TraceEvent::DcsDropped`] for undeliverable sends.
    tracer: Tracer,
}

/// Compatibility alias from the shared-inbox era; the ring mesh is the only
/// local transport now.
pub type LocalEndpoint = RingEndpoint;

impl RingEndpoint {
    /// Attach a tracer so undeliverable sends show up in the event stream.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Fabric-wide number of envelopes that could not be delivered because
    /// the destination rank had already been torn down.
    pub fn undeliverable_count(&self) -> u64 {
        self.shared.undeliverable.load(Ordering::SeqCst)
    }

    /// Probe the (src → self) pair: ring first, then spill queue — the
    /// order the FIFO-across-spill invariant requires.
    fn pop_pair(&self, src: usize) -> Option<Envelope> {
        let pair = &self.rx[src];
        pair.cons.pop().or_else(|| pair.overflow.pop())
    }

    /// One round-robin sweep over the ready peers at the caller's chosen
    /// load strength: `Relaxed` for the polling fast path (a mark published
    /// concurrently is caught by the next poll), `SeqCst` for the pre-park
    /// double-check (a registered waiter must observe any send that
    /// preceded its registration — see [`Parker`]).
    fn sweep(&self, ord: Ordering) -> Option<Envelope> {
        let ready = &self.shared.ranks[self.rank].ready;
        if !ready.any(ord) {
            return None;
        }
        let n = self.rx.len();
        let start = self.cursor.get();
        for k in 0..n {
            let src = {
                let s = start + k;
                if s >= n {
                    s - n
                } else {
                    s
                }
            };
            if !ready.is_marked(src, ord) {
                continue;
            }
            if let Some(env) = self.pop_pair(src) {
                self.cursor.set(if src + 1 >= n { 0 } else { src + 1 });
                return Some(env);
            }
            // Stale bit. Clear it, then re-probe: the clearing fetch_and is
            // an AcqRel RMW, so if it observed a concurrent sender's mark
            // the re-probe observes that sender's push too; if it did not,
            // the mark lands after the clear and survives for the next
            // sweep. Either way nothing is lost.
            ready.clear(src);
            if let Some(env) = self.pop_pair(src) {
                ready.mark(src);
                self.cursor.set(if src + 1 >= n { 0 } else { src + 1 });
                return Some(env);
            }
        }
        None
    }
}

impl Transport for RingEndpoint {
    fn rank(&self) -> Rank {
        self.rank
    }

    fn nprocs(&self) -> usize {
        self.tx.len()
    }

    fn send(&self, env: Envelope) {
        let dst = env.dst;
        assert!(dst < self.tx.len(), "send to nonexistent rank {dst}");
        let peer = &self.shared.ranks[dst];
        // A rank that already tore down will never drain its rings. That
        // loss must not be silent — count it and trace it so a vanished
        // message is diagnosable instead of a mystery hang.
        if peer.closed.load(Ordering::SeqCst) {
            self.shared.undeliverable.fetch_add(1, Ordering::SeqCst);
            let handler = env.handler.0;
            self.tracer
                .emit(|| TraceEvent::DcsDropped { peer: dst, handler });
            return;
        }
        let pair = &self.tx[dst];
        // Steady state: one slot write into the private ring, no lock, no
        // allocation. Ring full — or an earlier spill not yet drained —
        // diverts to the overflow queue (see the module docs for why this
        // preserves per-pair FIFO).
        if pair.overflow.is_empty() {
            if let Err(env) = pair.prod.push(env) {
                pair.overflow.push(env);
            }
        } else {
            pair.overflow.push(env);
        }
        peer.ready.mark(self.rank);
        peer.parker.unpark();
    }

    fn try_recv(&self) -> Option<Envelope> {
        // Empty poll: ⌈n/64⌉ relaxed word loads and out. The relaxed
        // strength is safe because polling repeats: a mark this poll
        // misses, the next poll (or the SeqCst pre-park re-probe) sees.
        self.sweep(Ordering::Relaxed)
    }

    fn recv_timeout(&self, timeout: Duration) -> Option<Envelope> {
        if let Some(env) = self.sweep(Ordering::Relaxed) {
            return Some(env);
        }
        let deadline = saturating_deadline(timeout);
        let parker = &self.shared.ranks[self.rank].parker;
        loop {
            // Register-then-recheck (the eventcount protocol): after the
            // waiter registration, a SeqCst sweep; only if that still finds
            // nothing do we sleep on the generation we snapshotted. A
            // sender either lands before the re-probe (we consume it) or
            // after our registration (it advances the generation and the
            // park returns immediately). See `ring::Parker`.
            let epoch = parker.prepare();
            if let Some(env) = self.sweep(Ordering::SeqCst) {
                parker.cancel();
                return Some(env);
            }
            let timed_out = parker.park(epoch, deadline);
            if let Some(env) = self.sweep(Ordering::SeqCst) {
                return Some(env);
            }
            if timed_out {
                return None;
            }
        }
    }
}

impl Drop for RingEndpoint {
    fn drop(&mut self) {
        // Teardown latch: peers still holding producer ends switch to the
        // undeliverable-accounting path instead of queueing into rings that
        // will never be drained.
        self.shared.ranks[self.rank]
            .closed
            .store(true, Ordering::SeqCst);
    }
}

/// Builds the ring-mesh fabric for `n` ranks.
pub struct RingFabric;

/// Compatibility alias from the shared-inbox era (see [`RingFabric`]).
pub type LocalFabric = RingFabric;

/// `Instant::now() + timeout` without the overflow panic: a timeout too
/// large to represent (e.g. `Duration::MAX`, the idiomatic "block forever")
/// saturates to a deadline ~30 years out, which is "never" for any PREMA
/// run. Every `recv_timeout` implementation in this crate routes through
/// here.
pub(crate) fn saturating_deadline(timeout: Duration) -> Instant {
    let now = Instant::now();
    now.checked_add(timeout)
        .unwrap_or_else(|| now + Duration::from_secs(60 * 60 * 24 * 365 * 30))
}

/// Per-pair ring capacity: `8192 / n` slots, clamped and rounded up to a
/// power of two, so the n² mesh stays affordable (n=2 → 4096 slots, n=128 →
/// 64).
fn scaled_ring_capacity(n: usize) -> usize {
    (8192 / n).clamp(32, 4096).next_power_of_two()
}

impl RingFabric {
    /// Create `n` endpoints with the default per-pair ring capacity.
    /// Endpoint `i` must be moved to the thread acting as rank `i`.
    /// (Deliberately returns the endpoints rather than `Self`: the fabric
    /// has no identity beyond its endpoints.)
    #[allow(clippy::new_ret_no_self)]
    pub fn new(n: usize) -> Vec<RingEndpoint> {
        Self::with_capacity(n, scaled_ring_capacity(n))
    }

    /// Create `n` endpoints whose per-pair rings hold `capacity` envelopes
    /// (rounded up to a power of two, min 2). Tests use tiny capacities to
    /// exercise the overflow spill path deterministically.
    pub fn with_capacity(n: usize, capacity: usize) -> Vec<RingEndpoint> {
        assert!(n > 0, "fabric needs at least one rank");
        let shared = Arc::new(FabricShared {
            ranks: (0..n)
                .map(|_| RankShared {
                    ready: ReadySet::new(n),
                    parker: Parker::new(),
                    closed: AtomicBool::new(false),
                })
                .collect(),
            undeliverable: AtomicU64::new(0),
        });
        // Build the n² mesh: ring (s → d) hands its producer to endpoint s
        // and its consumer to endpoint d; both share that pair's overflow.
        // Outer loop over destinations, inner over sources, so txs[s] gains
        // its dst-th entry and rx_row collects in src order — txs[s][d] and
        // rxs[d][s] index the same wire.
        let mut txs: Vec<Vec<TxPair>> = (0..n).map(|_| Vec::with_capacity(n)).collect();
        let mut rxs: Vec<Vec<RxPair>> = Vec::with_capacity(n);
        for _dst in 0..n {
            let mut rx_row = Vec::with_capacity(n);
            for tx_row in txs.iter_mut() {
                let (prod, cons) = ring::spsc(capacity);
                let overflow = Arc::new(Overflow::new());
                tx_row.push(TxPair {
                    prod,
                    overflow: Arc::clone(&overflow),
                });
                rx_row.push(RxPair { cons, overflow });
            }
            rxs.push(rx_row);
        }
        txs.into_iter()
            .zip(rxs)
            .enumerate()
            .map(|(rank, (tx, rx))| RingEndpoint {
                rank,
                tx,
                rx,
                cursor: Cell::new(0),
                shared: Arc::clone(&shared),
                tracer: Tracer::off(),
            })
            .collect()
    }
}

// Endpoints move to their rank's thread. They are deliberately !Sync (the
// sweep cursor and the ring ends' cached indices are Cells): sharing between
// the worker and the polling thread happens above this layer, under a lock,
// which serializes all uses — the single-producer/single-consumer contract
// each ring end requires.
#[allow(unused)]
fn _assert_endpoint_send(e: RingEndpoint) -> impl Send {
    e
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::envelope::{HandlerId, Tag};
    use bytes::Bytes;

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
    fn saturating_deadline_survives_duration_max() {
        // `Instant::now() + Duration::MAX` panics; the saturating helper
        // must not, and must land far enough out to mean "never".
        let d = saturating_deadline(Duration::MAX);
        assert!(d > Instant::now() + Duration::from_secs(60 * 60 * 24 * 365));
        // Representable timeouts are exact (within scheduling slop).
        let exact = saturating_deadline(Duration::from_secs(5));
        assert!(exact <= Instant::now() + Duration::from_secs(5));
    }

    #[test]
    fn recv_timeout_accepts_duration_max() {
        // The classic foot-gun: "block forever" spelled as Duration::MAX.
        // Must compute a saturated deadline (not panic) and still wake on
        // arrival.
        let mut eps = RingFabric::new(2);
        let b = eps.pop().unwrap();
        let a = eps.pop().unwrap();
        let h = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            a.send(env(0, 1, 9));
        });
        let got = b.recv_timeout(Duration::MAX).unwrap();
        assert_eq!(got.handler, HandlerId(9));
        h.join().unwrap();
    }

    #[test]
    fn point_to_point_delivery() {
        let mut eps = RingFabric::new(2);
        let b = eps.pop().unwrap();
        let a = eps.pop().unwrap();
        assert_eq!(a.rank(), 0);
        assert_eq!(b.rank(), 1);
        a.send(env(0, 1, 7));
        let got = b.recv_timeout(Duration::from_secs(1)).unwrap();
        assert_eq!(got.handler, HandlerId(7));
        assert!(b.try_recv().is_none());
    }

    #[test]
    fn per_pair_fifo_under_concurrency() {
        let mut eps = RingFabric::new(3);
        let c = eps.pop().unwrap();
        let b = eps.pop().unwrap();
        let a = eps.pop().unwrap();
        let ha = std::thread::spawn(move || {
            for i in 0..1000 {
                a.send(env(0, 2, i));
            }
        });
        let hb = std::thread::spawn(move || {
            for i in 1000..2000 {
                b.send(env(1, 2, i));
            }
        });
        ha.join().unwrap();
        hb.join().unwrap();
        let mut last_a = None;
        let mut last_b = None;
        let mut count = 0;
        while let Some(e) = c.try_recv() {
            count += 1;
            let v = e.handler.0;
            if e.src == 0 {
                assert!(last_a.is_none_or(|p| v > p), "fifo from rank 0 violated");
                last_a = Some(v);
            } else {
                assert!(last_b.is_none_or(|p| v > p), "fifo from rank 1 violated");
                last_b = Some(v);
            }
        }
        assert_eq!(count, 2000);
    }

    #[test]
    fn recv_timeout_times_out_when_empty() {
        let eps = RingFabric::new(1);
        let a = &eps[0];
        let start = std::time::Instant::now();
        assert!(a.recv_timeout(Duration::from_millis(20)).is_none());
        assert!(start.elapsed() >= Duration::from_millis(15));
    }

    #[test]
    fn self_send_works() {
        let eps = RingFabric::new(1);
        eps[0].send(env(0, 0, 5));
        assert_eq!(eps[0].try_recv().unwrap().handler, HandlerId(5));
    }

    #[test]
    fn arrival_order_preserved_across_senders() {
        let mut eps = RingFabric::new(3);
        let c = eps.pop().unwrap();
        let b = eps.pop().unwrap();
        let a = eps.pop().unwrap();
        for i in 0..10 {
            a.send(env(0, 2, i));
            b.send(env(1, 2, 100 + i));
        }
        // The sweep round-robins across ready peers, so no sender can be
        // starved behind another's backlog: both sources show up
        // immediately.
        let mut seen_src = Vec::new();
        for _ in 0..4 {
            seen_src.push(c.try_recv().unwrap().src);
        }
        assert!(
            seen_src.contains(&0) && seen_src.contains(&1),
            "{seen_src:?}"
        );
    }

    #[test]
    fn ring_full_spills_to_overflow_and_preserves_fifo() {
        // Capacity 4 and no receiver draining: sends 4.. spill. Everything
        // must still arrive, in order, with nothing counted undeliverable.
        let mut eps = RingFabric::with_capacity(2, 4);
        let b = eps.pop().unwrap();
        let a = eps.pop().unwrap();
        for i in 0..100 {
            a.send(env(0, 1, i));
        }
        for i in 0..100 {
            assert_eq!(b.try_recv().unwrap().handler, HandlerId(i), "at {i}");
        }
        assert!(b.try_recv().is_none());
        assert_eq!(a.undeliverable_count(), 0);
    }

    #[test]
    fn fifo_survives_interleaved_spill_episodes() {
        // Drain partially between bursts so the pair oscillates between
        // in-ring and spilled states; order must hold across the seams.
        let mut eps = RingFabric::with_capacity(2, 2);
        let b = eps.pop().unwrap();
        let a = eps.pop().unwrap();
        let mut next = 0u32;
        let mut sent = 0u32;
        for round in 0..50 {
            for _ in 0..(round % 5 + 1) {
                a.send(env(0, 1, sent));
                sent += 1;
            }
            for _ in 0..(round % 3) {
                if let Some(e) = b.try_recv() {
                    assert_eq!(e.handler, HandlerId(next));
                    next += 1;
                }
            }
        }
        while let Some(e) = b.try_recv() {
            assert_eq!(e.handler, HandlerId(next));
            next += 1;
        }
        assert_eq!(next, sent);
    }

    #[test]
    fn send_to_torn_down_rank_is_counted_not_silent() {
        let mut eps = RingFabric::new(2);
        let b = eps.pop().unwrap();
        let a = eps.pop().unwrap();
        assert_eq!(a.undeliverable_count(), 0);
        // Rank 1 tears down while rank 0 still holds its producer ends —
        // the shutdown race the runtime hits when a worker finishes before
        // a straggler's last messages drain.
        drop(b);
        a.send(env(0, 1, 3));
        a.send(env(0, 1, 4));
        assert_eq!(a.undeliverable_count(), 2);
        // Deliverable traffic (self-send) is unaffected and not counted.
        a.send(env(0, 0, 5));
        assert_eq!(a.try_recv().unwrap().handler, HandlerId(5));
        assert_eq!(a.undeliverable_count(), 2);
    }

    #[test]
    fn undeliverable_send_emits_dropped_event() {
        use prema_trace::TraceSink;
        let sink = std::sync::Arc::new(TraceSink::new(2));
        let mut eps = RingFabric::new(2);
        let b = eps.pop().unwrap();
        let mut a = eps.pop().unwrap();
        a.set_tracer(sink.tracer(0));
        drop(b);
        a.send(env(0, 1, 9));
        let recs = sink.drain();
        assert_eq!(recs.first().map(|r| r.ev.name()), Some("dcs_dropped"));
        assert_eq!(a.undeliverable_count(), 1);
    }

    #[test]
    fn recv_timeout_wakes_on_concurrent_send() {
        let mut eps = RingFabric::new(2);
        let b = eps.pop().unwrap();
        let a = eps.pop().unwrap();
        let h = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            a.send(env(0, 1, 9));
        });
        // The blocking receive must be woken by the send, well before the
        // generous timeout.
        let got = b.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(got.handler, HandlerId(9));
        h.join().unwrap();
    }

    #[test]
    fn ring_capacity_scales_down_with_machine_size() {
        // Checked via the env-independent helper — mutating the process
        // env in a multithreaded test harness is racy.
        assert_eq!(scaled_ring_capacity(2), 4096);
        assert_eq!(scaled_ring_capacity(8), 1024);
        assert_eq!(scaled_ring_capacity(128), 64);
        assert_eq!(scaled_ring_capacity(100_000), 32);
        for n in [1, 2, 3, 7, 64, 1000] {
            assert!(scaled_ring_capacity(n).is_power_of_two());
        }
    }
}
