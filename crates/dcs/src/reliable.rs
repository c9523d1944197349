//! An opt-in reliable-delivery transport decorator.
//!
//! [`ReliableTransport`] restores the wire contract the protocols above DCS
//! were written against — every message delivered exactly once, per-pair
//! FIFO — on top of a transport that may drop, duplicate, reorder, or delay
//! (typically a [`ChaosTransport`](crate::ChaosTransport), ultimately a real
//! unreliable interconnect). The mechanism is the classic one:
//!
//! * every outgoing envelope is wrapped in a **data frame** carrying a
//!   per-destination sequence number and kept until acknowledged;
//! * receivers deliver frames in sequence order per source, buffering
//!   out-of-order arrivals and **deduplicating** by sequence number, so
//!   duplicated frames (including retransmissions that crossed an ACK) are
//!   idempotent;
//! * acknowledgements are **cumulative** (the next sequence number expected)
//!   and senders retransmit everything unacknowledged, oldest first, when a
//!   timer runs out, backing off exponentially until an ACK makes progress.
//!
//! # Time is passed in
//!
//! Both timers — the retransmit timer and the ACK delay below — are
//! durations on the [`Clock`] handed to the constructor; the layer reads no
//! clock of its own, so a lock-step test or the simulator decides what time
//! it is ([`Clock::manual`]) and threads and worker processes run on
//! [`Clock::monotonic`]. A **look** — one receive pass over the inner
//! transport — reads the clock once: it drains what has arrived, then
//! retransmits what has waited [`RetryConfig::retry_after`] (doubling per
//! silent round) and sends the ACKs that have waited [`ACK_DELAY`]. A frame's
//! timer starts at the first look after it was sent, never before, so a
//! rank that sends at the end of a long handler does not find the timer
//! already spent. `recv_timeout` blocks in the inner transport until its
//! deadline or the earliest timer, whichever is first, so retransmission
//! fires under total silence — when it is the only way forward — and a quiet,
//! fully acknowledged wire sleeps the whole timeout.
//!
//! # Who acknowledges, and when
//!
//! Every data frame carries, besides its own sequence number, the sender's
//! cumulative ACK for the reverse direction, so two ranks that talk to each
//! other acknowledge for free. An in-order delivery only marks the source
//! *owed*; a standalone [`H_REL_ACK`] is sent when
//!
//! * an owed ACK has waited [`ACK_DELAY`], or [`ACK_EVERY`] frames have been
//!   delivered, without a data frame to ride on; or
//! * a frame arrives that is a duplicate or leaves a gap — at once, because
//!   either means the sender's picture is wrong and its timer is running.
//!
//! Liveness when both sides fall silent: whoever received the last in-order
//! frame is owed, sends nothing to ride on, and so sends a standalone ACK at
//! its first look after the delay (or when `recv_timeout`'s sleep, which is
//! bounded by that timer, ends). If that ACK is lost the sender's timer runs
//! out, the retransmission arrives as a duplicate and is acknowledged at
//! once; the pair settles as long as both keep looking at the wire.
//! Standalone ACKs are sent raw (not themselves sequence-numbered): a lost
//! one costs a retransmission, which the dedup absorbs. A retransmitted
//! frame carries the ACK it was encoded with; cumulative ACKs only grow, so
//! a stale one is ignored.
//!
//! # One look per receive pass
//!
//! `try_recv` hands up everything its last look delivered before looking
//! again, and the `None` that ends such a burst is answered without touching
//! the inner transport: a pump that receives K envelopes costs one look, not
//! K + 1. The exception keeps the contract callers rely on — *after a `None`,
//! everything sent before it has been offered to the inner transport's
//! receive path*: if anything was sent during the burst the burst ends with
//! a real look, and a look that fired timers looks once more. What the
//! inner transport does with that offer is its own rule. Over an in-process
//! fabric (`Chaos(LocalFabric)` in the lock-step tests) the second look is
//! what finds a reply that is already receivable and what advances the
//! chaos layer's logical tick. Over [`crate::udp`], which services its
//! socket once per wire slice, a frame leaves at the sender's next
//! [`Transport::flush`] (forwarded by this layer; the runtime flushes before
//! it releases a rank's scheduler lock) or at the first receive call a
//! slice after the last service, so the look costs a clock reading, not a
//! syscall.

use crate::clock::Clock;
use crate::envelope::{Envelope, HandlerId, Rank, Tag};
use crate::transport::Transport;
use crate::wire::{WireReader, WireWriter};
use bytes::Bytes;
use prema_trace::{TraceEvent, Tracer};
use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::time::{Duration, Instant};

/// Reliable-layer data frame: wraps one application/system envelope with a
/// per-destination sequence number and the reverse direction's ACK.
pub const H_REL_DATA: HandlerId = HandlerId(HandlerId::SYSTEM_BASE + 48);
/// Reliable-layer standalone cumulative acknowledgement.
pub const H_REL_ACK: HandlerId = HandlerId(HandlerId::SYSTEM_BASE + 49);

/// How long an owed ACK waits for a reverse data frame to ride on before it
/// is sent by itself.
///
/// This and [`ACK_EVERY`] are constants, not configuration: on `chat_udp`
/// (benchmark/README.md) ACK delays of 50 µs … 1 ms crossed with
/// `retry_after` 2 … 20 ms all read 440–520 k units/s against 375 k for the
/// same build acknowledging every frame. The delay only has to be short
/// against `retry_after` (the sender must hear before its timer runs out)
/// and long against a poll (so a conversation's reverse frame usually gets
/// there first).
pub const ACK_DELAY: Duration = Duration::from_micros(250);
/// How many in-order frames may be delivered to one source before it is sent
/// an ACK regardless of the delay, so a one-way stream's unacknowledged tail
/// stays short however fast it runs.
pub const ACK_EVERY: u32 = 32;

/// The layer's two frames, each with its handler id ([`Frame::id`]), its
/// tag ([`Frame::tag`]) and its codec ([`Frame::encode`],
/// [`Frame::decode`]); `frame_layout_is_pinned` pins the bytes.
/// `handle_incoming` dispatches on this type with one `match`.
#[derive(Clone, Debug, PartialEq)]
enum Frame {
    /// One wrapped envelope, with its sequence number to this peer and the
    /// ACK riding on it. Its handler, tag and payload travel; its source
    /// and destination are the frame's own.
    Data { seq: u64, ack: u64, env: Envelope },
    /// A standalone cumulative ACK: the next sequence number expected.
    Ack { expected: u64 },
}

impl Frame {
    fn id(&self) -> HandlerId {
        match self {
            Frame::Data { .. } => H_REL_DATA,
            Frame::Ack { .. } => H_REL_ACK,
        }
    }

    /// A data frame shares the inner tag so chaos layers that filter by tag
    /// see representative traffic; the receiver restores the decoded tag
    /// anyway.
    fn tag(&self) -> Tag {
        match self {
            Frame::Data { env, .. } => env.tag,
            Frame::Ack { .. } => Tag::System,
        }
    }

    /// Pooled: frame buffers cycle constantly under load (wrapped at send,
    /// dropped at ACK), the exact pattern the freelist serves.
    fn encode(self) -> Bytes {
        match self {
            Frame::Data { seq, ack, env } => WireWriter::pooled(28 + env.payload.len())
                .u64(seq)
                .u64(ack)
                .u32(env.handler.0)
                .u32(match env.tag {
                    Tag::App => 0,
                    Tag::System => 1,
                })
                .bytes(&env.payload)
                .finish(),
            Frame::Ack { expected } => WireWriter::pooled(8).u64(expected).finish(),
        }
    }

    /// The frame `outer` carries; `None` if its handler is neither frame's
    /// or its payload is truncated.
    fn decode(outer: Envelope) -> Option<Frame> {
        let (src, dst) = (outer.src, outer.dst);
        let mut r = WireReader::new(outer.payload);
        Some(match outer.handler {
            H_REL_DATA => Frame::Data {
                seq: r.try_u64()?,
                ack: r.try_u64()?,
                env: Envelope {
                    src,
                    dst,
                    handler: HandlerId(r.try_u32()?),
                    tag: match r.try_u32()? {
                        0 => Tag::App,
                        _ => Tag::System,
                    },
                    payload: r.try_bytes()?,
                },
            },
            H_REL_ACK => Frame::Ack {
                expected: r.try_u64()?,
            },
            _ => return None,
        })
    }

    /// The frame as an envelope from `src` to `dst`.
    fn envelope(self, src: Rank, dst: Rank) -> Envelope {
        Envelope {
            src,
            dst,
            handler: self.id(),
            tag: self.tag(),
            payload: self.encode(),
        }
    }
}

/// Retransmission schedule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryConfig {
    /// How long the oldest unacknowledged frame waits for an ACK before the
    /// first retransmission.
    pub retry_after: Duration,
    /// Backoff cap: the wait doubles per silent round up to
    /// `retry_after << max_backoff_shift`.
    pub max_backoff_shift: u32,
}

impl Default for RetryConfig {
    /// 10 ms, backing off to 640 ms. On loopback a reply takes tens of
    /// microseconds, so the wait is there for a peer that lost the CPU: at
    /// 2 ms a descheduled `chat_udp` peer drew 1.6–51 k go-back-N
    /// retransmissions per 8 s run (0.2–5% of frames), at 10–20 ms 4–1.7 k
    /// (≤ 0.25%).
    fn default() -> Self {
        RetryConfig {
            retry_after: Duration::from_millis(10),
            max_backoff_shift: 6,
        }
    }
}

impl RetryConfig {
    /// The wait before retransmission round `round` (0 = the first).
    pub fn wait(&self, round: u32) -> Duration {
        self.retry_after * (1u32 << round.min(self.max_backoff_shift))
    }
}

/// Counters for the recovery machinery, snapshot via
/// [`ReliableTransport::stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReliableStats {
    /// Data frames retransmitted.
    pub retries: u64,
    /// Duplicate data frames suppressed by sequence dedup.
    pub duplicates: u64,
    /// In-order data frames delivered up the stack.
    pub delivered: u64,
    /// Out-of-order frames parked until the gap filled.
    pub buffered: u64,
    /// Standalone ACK frames sent (ACKs riding on data frames are free and
    /// not counted).
    pub acks_sent: u64,
    /// Frames with undecodable payloads dropped defensively, and ACKs for
    /// sequence numbers never sent.
    pub malformed: u64,
}

/// Per-destination sender book-keeping.
#[derive(Default)]
struct SendState {
    /// Next sequence number to assign.
    next_seq: u64,
    /// Unacknowledged frames, oldest first (stored pre-wrapped so a
    /// retransmit is a plain `send`). Sequence numbers are contiguous: the
    /// front is `next_seq - unacked.len()`.
    unacked: VecDeque<Envelope>,
    /// Consecutive retransmission rounds without ACK progress.
    rounds: u32,
    /// When the next retransmission fires; `None` until the first look after
    /// `unacked` stopped being empty.
    retry_at: Option<Duration>,
}

/// Per-source receiver book-keeping.
#[derive(Default)]
struct RecvState {
    /// Next sequence number expected from this source.
    expected: u64,
    /// Frames that arrived ahead of the gap, by sequence number.
    ooo: BTreeMap<u64, Envelope>,
    /// In-order frames delivered since `expected` was last told to the
    /// source, on a data frame or by itself.
    owed: u32,
    /// When `owed` left zero.
    owed_since: Duration,
}

struct ReliableState {
    send: Vec<SendState>,
    recv: Vec<RecvState>,
    /// In-order envelopes ready for delivery up the stack.
    ready: VecDeque<Envelope>,
    /// The last look delivered something and no `None` has ended it yet.
    in_burst: bool,
    /// Something was sent since the inner transport's receive path last ran.
    unflushed: bool,
    stats: ReliableStats,
}

/// The reliable-delivery decorator. See the module docs for the protocol.
pub struct ReliableTransport<T: Transport> {
    pub(crate) inner: T,
    retry: RetryConfig,
    clock: Clock,
    state: RefCell<ReliableState>,
    tracer: Tracer,
}

impl<T: Transport> ReliableTransport<T> {
    /// Wrap `inner` with the default retransmission schedule on the
    /// monotonic clock.
    pub fn new(inner: T) -> Self {
        Self::with_retry(inner, RetryConfig::default(), Clock::monotonic())
    }

    /// Wrap `inner` with an explicit retransmission schedule, timed by
    /// `clock`.
    pub fn with_retry(inner: T, retry: RetryConfig, clock: Clock) -> Self {
        let n = inner.nprocs();
        ReliableTransport {
            inner,
            retry,
            clock,
            state: RefCell::new(ReliableState {
                send: (0..n).map(|_| SendState::default()).collect(),
                recv: (0..n).map(|_| RecvState::default()).collect(),
                ready: VecDeque::new(),
                in_burst: false,
                unflushed: false,
                stats: ReliableStats::default(),
            }),
            tracer: Tracer::off(),
        }
    }

    /// Attach a tracer so retransmissions and suppressed duplicates show up
    /// in the event stream.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Snapshot the recovery counters.
    pub fn stats(&self) -> ReliableStats {
        self.state.borrow().stats
    }

    /// Whether every frame sent so far has been acknowledged.
    pub fn all_acked(&self) -> bool {
        self.state
            .borrow()
            .send
            .iter()
            .all(|s| s.unacked.is_empty())
    }

    /// Tell `dst` by itself what is expected from it next.
    fn send_ack(&self, state: &mut ReliableState, dst: Rank) {
        let r = &mut state.recv[dst];
        r.owed = 0;
        state.stats.acks_sent += 1;
        state.unflushed = true;
        let ack = Frame::Ack {
            expected: r.expected,
        };
        self.inner.send(ack.envelope(self.inner.rank(), dst));
    }

    /// `src` expects `ack` next: everything below it is done for good.
    fn on_ack(&self, state: &mut ReliableState, src: Rank, ack: u64, now: Duration) {
        let s = &mut state.send[src];
        if ack > s.next_seq {
            // Acknowledges a frame never sent: corrupt, not late.
            state.stats.malformed += 1;
            return;
        }
        let oldest = s.next_seq - s.unacked.len() as u64;
        if ack <= oldest {
            return; // stale: cumulative ACKs only grow
        }
        // Progress: the backoff starts over.
        s.rounds = 0;
        s.retry_at = Some(now + self.retry.wait(0));
        // Each frame's buffer goes back to the pool as it drops here, or
        // later if a retransmit clone still shares it.
        s.unacked.drain(..(ack - oldest) as usize);
    }

    /// Process one raw envelope from the inner transport.
    fn handle_incoming(&self, state: &mut ReliableState, env: Envelope, now: Duration) {
        let src = env.src;
        if src >= state.send.len() {
            // No such rank: only a corrupt frame names one.
            state.stats.malformed += 1;
            return;
        }
        let id = env.handler;
        if id != H_REL_DATA && id != H_REL_ACK {
            // Raw traffic from an unwrapped peer (or a layer below): pass it
            // through untouched rather than wedging interop.
            state.ready.push_back(env);
            return;
        }
        let (seq, ack, inner_env) = match Frame::decode(env) {
            Some(Frame::Ack { expected }) => return self.on_ack(state, src, expected, now),
            Some(Frame::Data { seq, ack, env }) => (seq, ack, env),
            None => {
                state.stats.malformed += 1;
                if id == H_REL_DATA {
                    self.tracer.emit(|| TraceEvent::DcsDropped {
                        peer: src,
                        handler: id.0,
                    });
                }
                return;
            }
        };
        self.on_ack(state, src, ack, now);
        let handler = inner_env.handler;
        let r = &mut state.recv[src];
        if seq < r.expected || r.ooo.contains_key(&seq) {
            // Duplicate (a retransmission that crossed our ACK, or injected
            // by the wire): suppress and re-ACK so the sender settles.
            state.stats.duplicates += 1;
            self.tracer.emit(|| TraceEvent::DcsDuplicate {
                peer: src,
                handler: handler.0,
            });
            self.send_ack(state, src);
            return;
        }
        if seq > r.expected {
            // A gap: park until the missing frames arrive. The repeated
            // cumulative ACK tells the sender where the gap starts.
            r.ooo.insert(seq, inner_env);
            state.stats.buffered += 1;
            self.send_ack(state, src);
            return;
        }
        // In order: deliver, then drain any now-contiguous parked frames.
        // The source is owed an ACK; it rides on the next frame sent there
        // unless the delay or the count runs out first.
        if r.owed == 0 {
            r.owed_since = now;
        }
        let mut next = Some(inner_env);
        while let Some(env) = next {
            r.expected += 1;
            r.owed += 1;
            state.ready.push_back(env);
            state.stats.delivered += 1;
            next = r.ooo.remove(&r.expected);
        }
        if r.owed >= ACK_EVERY {
            self.send_ack(state, src);
        }
    }

    /// Hand everything the inner transport has to `handle_incoming`. Its
    /// receive path is also where a staging transport sends what it holds,
    /// by its own rule (module docs: "One look per receive pass").
    fn drain(&self, state: &mut ReliableState, now: Duration) {
        while let Some(env) = self.inner.try_recv() {
            self.handle_incoming(state, env, now);
        }
        state.unflushed = false;
    }

    /// Retransmit what has waited out its timer and send the ACKs that have
    /// waited out theirs; start the timer of frames first seen unacknowledged
    /// by this look.
    fn fire_timers(&self, state: &mut ReliableState, now: Duration) {
        let ReliableState {
            send,
            stats,
            unflushed,
            ..
        } = state;
        for (dst, s) in send.iter_mut().enumerate() {
            if s.unacked.is_empty() {
                continue;
            }
            match s.retry_at {
                None => s.retry_at = Some(now + self.retry.wait(0)),
                Some(due) if now >= due => {
                    s.rounds += 1;
                    s.retry_at = Some(now + self.retry.wait(s.rounds));
                    // Go-back-N: resend every unacked frame, oldest first.
                    // Each was encoded once at `send`; a resend clones that
                    // buffer (and so carries the ACK of its first sending).
                    let oldest = s.next_seq - s.unacked.len() as u64;
                    for (seq, frame) in (oldest..).zip(&s.unacked) {
                        stats.retries += 1;
                        self.tracer.emit(|| TraceEvent::DcsRetry {
                            peer: dst,
                            seq,
                            attempt: s.rounds,
                        });
                        self.inner.send(frame.clone());
                    }
                    *unflushed = true;
                }
                Some(_) => {}
            }
        }
        for src in 0..state.recv.len() {
            let r = &state.recv[src];
            if r.owed > 0 && now >= r.owed_since + ACK_DELAY {
                self.send_ack(state, src);
            }
        }
    }

    /// One receive pass: a single clock reading, arrivals first (an ACK that
    /// is already here must stop the timer it answers), then timers — and if
    /// those sent anything, once more through the inner receive path, which
    /// sends it by the inner transport's rule. Returns the reading.
    fn look(&self, state: &mut ReliableState) -> Duration {
        let now = self.clock.now();
        self.drain(state, now);
        self.fire_timers(state, now);
        if state.unflushed {
            self.drain(state, now);
        }
        state.in_burst = !state.ready.is_empty();
        now
    }

    /// The earliest moment a timer can fire, if any is running.
    fn next_timer(&self, state: &ReliableState) -> Option<Duration> {
        let retries = state
            .send
            .iter()
            .filter(|s| !s.unacked.is_empty())
            .filter_map(|s| s.retry_at);
        let acks = state
            .recv
            .iter()
            .filter(|r| r.owed > 0)
            .map(|r| r.owed_since + ACK_DELAY);
        retries.chain(acks).min()
    }
}

impl<T: Transport> Transport for ReliableTransport<T> {
    fn rank(&self) -> Rank {
        self.inner.rank()
    }

    fn nprocs(&self) -> usize {
        self.inner.nprocs()
    }

    fn send(&self, env: Envelope) {
        let mut state = self.state.borrow_mut();
        let state = &mut *state;
        let dst = env.dst;
        let s = &mut state.send[dst];
        let r = &mut state.recv[dst];
        let data = Frame::Data {
            seq: s.next_seq,
            ack: r.expected,
            env,
        };
        // The frame tells `dst` everything a standalone ACK would.
        r.owed = 0;
        s.next_seq += 1;
        if s.unacked.is_empty() {
            // First outstanding frame to this peer: the next look starts
            // the retry timer.
            s.retry_at = None;
        }
        let frame = data.envelope(self.inner.rank(), dst);
        s.unacked.push_back(frame.clone());
        state.unflushed = true;
        self.inner.send(frame);
    }

    fn flush(&self) {
        self.inner.flush();
    }

    fn try_recv(&self) -> Option<Envelope> {
        let mut state = self.state.borrow_mut();
        if state.ready.is_empty() {
            if std::mem::take(&mut state.in_burst) && !state.unflushed {
                return None;
            }
            self.look(&mut state);
        }
        state.ready.pop_front()
    }

    fn recv_timeout(&self, timeout: Duration) -> Option<Envelope> {
        let deadline = crate::transport::saturating_deadline(timeout);
        loop {
            let (now, timer) = {
                let mut state = self.state.borrow_mut();
                if let Some(env) = state.ready.pop_front() {
                    return Some(env);
                }
                let now = self.look(&mut state);
                if let Some(env) = state.ready.pop_front() {
                    return Some(env);
                }
                (now, self.next_timer(&state))
            };
            let wall = Instant::now();
            if wall >= deadline {
                return None;
            }
            // Sleep in the inner transport until the deadline or the
            // earliest timer: a partitioned peer sends nothing, so only the
            // timer's expiry can retransmit into the silence. Arrivals cut
            // the wait short; with every frame acknowledged and no ACK owed
            // it spans the whole remainder.
            let wait = timer.map_or(deadline - wall, |due| {
                (deadline - wall).min(due.saturating_sub(now))
            });
            if let Some(env) = self.inner.recv_timeout(wait) {
                let mut state = self.state.borrow_mut();
                self.handle_incoming(&mut state, env, self.clock.now());
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::chaos::{ChaosConfig, ChaosHandle, ChaosTransport};
    use crate::transport::{LocalEndpoint, LocalFabric};
    use proptest::prelude::*;
    use std::cell::Cell;

    /// One step of the lock-step tests' clock: shorter than [`ACK_DELAY`],
    /// an eighth of the test `retry_after`.
    const TICK: Duration = Duration::from_micros(100);
    const RETRY: RetryConfig = RetryConfig {
        retry_after: Duration::from_micros(800),
        max_backoff_shift: 3,
    };

    fn env(src: Rank, dst: Rank, n: u32) -> Envelope {
        Envelope {
            src,
            dst,
            handler: HandlerId(n),
            tag: Tag::App,
            payload: Bytes::from(vec![n as u8; 3]),
        }
    }

    /// Ranks 0 and 1 of a two-rank fabric, each endpoint dressed by `under`
    /// and wrapped in the layer, on one hand-stepped clock.
    fn pair_over<T: Transport>(
        mut under: impl FnMut(LocalEndpoint) -> T,
    ) -> (ReliableTransport<T>, ReliableTransport<T>, Clock) {
        let mut eps = LocalFabric::new(2);
        let clock = Clock::manual();
        let mut stack =
            || ReliableTransport::with_retry(under(eps.pop().unwrap()), RETRY, clock.clone());
        let b = stack();
        let a = stack();
        (a, b, clock)
    }

    type Stack = ReliableTransport<ChaosTransport<LocalEndpoint>>;

    /// Both reliable over chaos, sharing one handle.
    fn reliable_pair(cfg: ChaosConfig) -> (Stack, Stack, ChaosHandle, Clock) {
        let handle = ChaosHandle::new();
        let (a, b, clock) = pair_over(|ep| ChaosTransport::new(ep, cfg, handle.clone()));
        (a, b, handle, clock)
    }

    /// Without the chaos layer (which, a test instrument, trusts the rank a
    /// frame claims to come from).
    fn plain_pair() -> (
        ReliableTransport<LocalEndpoint>,
        ReliableTransport<LocalEndpoint>,
        Clock,
    ) {
        pair_over(|ep| ep)
    }

    /// Everything one look hands up.
    fn pump(t: &impl Transport) -> Vec<u32> {
        std::iter::from_fn(|| t.try_recv())
            .map(|e| e.handler.0)
            .collect()
    }

    #[test]
    fn lossless_wire_delivers_in_order() {
        let (a, b, _, clock) = reliable_pair(ChaosConfig::quiet(1));
        for i in 0..50 {
            a.send(env(0, 1, i));
        }
        let mut got = Vec::new();
        for _ in 0..20 {
            clock.advance(TICK);
            got.extend(pump(&b));
            pump(&a); // ACKs
        }
        assert_eq!(got, (0..50).collect::<Vec<_>>());
        assert_eq!(b.stats().duplicates, 0);
        assert_eq!(a.stats().retries, 0);
        assert!(a.all_acked());
    }

    /// (a) The bug this layer used to have: the retry timer counted the
    /// sender's own polls, so a rank polling fast retransmitted into a wire
    /// that had lost nothing. Ten thousand polls inside one `retry_after`
    /// are no time at all.
    #[test]
    fn polling_fast_is_not_the_passage_of_time() {
        let (a, b, _, clock) = reliable_pair(ChaosConfig::quiet(21));
        for i in 0..50 {
            a.send(env(0, 1, i));
        }
        let step = RETRY.retry_after / 10_001;
        let mut got = Vec::new();
        for _ in 0..10_000 {
            clock.advance(step);
            got.extend(pump(&b));
            pump(&a);
        }
        assert!(clock.now() < RETRY.retry_after);
        assert_eq!(got, (0..50).collect::<Vec<_>>());
        assert_eq!((a.stats().retries, b.stats().duplicates), (0, 0));
        assert!(a.all_acked(), "the delayed ACK arrived inside the window");
    }

    /// (b) The schedule, to the nanosecond: the timer starts at the first
    /// look after the send, fires after `retry_after`, then after twice
    /// that, capped at `<< max_backoff_shift`; progress starts it over.
    #[test]
    fn retransmission_follows_the_backoff_schedule_and_progress_resets_it() {
        let (a, b, _, clock) = reliable_pair(ChaosConfig::quiet(22));
        let ns = Duration::from_nanos(1);
        let mut fired = 0;
        for round in [0, 1] {
            // `b` is not looking, so nothing acknowledges this frame.
            a.send(env(0, 1, round));
            clock.advance(TICK);
            assert!(a.try_recv().is_none()); // starts the timer
            for k in 0..RETRY.max_backoff_shift + 2 {
                let wait = RETRY.retry_after * (1 << k.min(RETRY.max_backoff_shift));
                assert_eq!(wait, RETRY.wait(k));
                clock.advance(wait - ns);
                assert!(a.try_recv().is_none());
                assert_eq!(a.stats().retries, fired, "round {k}: a nanosecond early");
                clock.advance(ns);
                assert!(a.try_recv().is_none());
                fired += 1;
                assert_eq!(a.stats().retries, fired, "round {k}: due");
            }
            // `b` looks: one delivery, the rest duplicates, each ACKed at
            // once; `a` hears it and its next frame starts from round 0.
            assert_eq!(pump(&b), vec![round]);
            pump(&a);
            assert!(a.all_acked());
        }
    }

    /// (c) Two ranks that talk to each other acknowledge for free; the one
    /// standalone ACK each sends is for the last frame it received, after
    /// both fell silent.
    #[test]
    fn a_two_way_stream_acknowledges_on_its_own_data_frames() {
        let (a, b, _, clock) = reliable_pair(ChaosConfig::quiet(23));
        for i in 0..200 {
            a.send(env(0, 1, i));
            b.send(env(1, 0, i));
            clock.advance(TICK);
            assert_eq!(pump(&a), vec![i]);
            assert_eq!(pump(&b), vec![i]);
        }
        assert_eq!((a.stats().acks_sent, b.stats().acks_sent), (0, 0));
        assert!(!a.all_acked() && !b.all_acked(), "the last frames are open");
        clock.advance(ACK_DELAY);
        for _ in 0..2 {
            assert!(pump(&a).is_empty() && pump(&b).is_empty());
        }
        assert_eq!((a.stats().acks_sent, b.stats().acks_sent), (1, 1));
        assert!(a.all_acked() && b.all_acked());
        assert_eq!((a.stats().retries, b.stats().retries), (0, 0));
    }

    /// (d) With nothing to ride on, a stream is acknowledged once per
    /// [`ACK_EVERY`] frames, and its tail once [`ACK_DELAY`] has passed.
    #[test]
    fn a_one_way_stream_is_acknowledged_every_so_many_frames_and_after_the_delay() {
        const N: u32 = 100;
        let (a, b, _, clock) = reliable_pair(ChaosConfig::quiet(24));
        let mut got = Vec::new();
        for i in 0..N {
            a.send(env(0, 1, i));
            if i % 7 == 0 {
                got.extend(pump(&b));
                pump(&a);
            }
        }
        got.extend(pump(&b));
        assert_eq!(got, (0..N).collect::<Vec<_>>());
        let counted = (N / ACK_EVERY) as u64;
        assert_eq!(b.stats().acks_sent, counted);
        clock.advance(ACK_DELAY - Duration::from_nanos(1));
        pump(&b);
        pump(&a);
        assert_eq!(b.stats().acks_sent, counted);
        assert!(!a.all_acked());
        clock.advance(Duration::from_nanos(1));
        pump(&b);
        pump(&a);
        assert_eq!(b.stats().acks_sent, counted + 1);
        assert!(b.stats().acks_sent <= N.div_ceil(ACK_EVERY) as u64 + 1);
        assert!(a.all_acked());
    }

    /// The bytes `send` wraps `env` in as frame `seq` carrying `ack`.
    fn encode_data(seq: u64, ack: u64, env: &Envelope) -> Bytes {
        let env = env.clone();
        Frame::Data { seq, ack, env }.encode()
    }

    /// The bytes of a standalone ACK of everything below `expected`.
    fn encode_ack(expected: u64) -> Bytes {
        Frame::Ack { expected }.encode()
    }

    /// A raw frame from rank 0 as `b` would see it off the wire.
    fn raw_data(seq: u64, ack: u64, n: u32) -> Envelope {
        Envelope {
            handler: H_REL_DATA,
            payload: encode_data(seq, ack, &env(0, 1, n)),
            ..env(0, 1, n)
        }
    }

    /// (e) A gap and a duplicate both mean the sender's picture is wrong:
    /// each is ACKed by the pass that sees it, not after the delay.
    #[test]
    fn a_gap_and_a_duplicate_are_acknowledged_in_the_same_pass() {
        let (a, b, _, _clock) = reliable_pair(ChaosConfig::quiet(25));
        let ack_seen = || {
            let raw = a.inner.try_recv().expect("an ACK on the wire");
            match Frame::decode(raw) {
                Some(Frame::Ack { expected }) => expected,
                other => panic!("not an ACK: {other:?}"),
            }
        };
        a.inner.send(raw_data(1, 0, 1));
        assert!(pump(&b).is_empty(), "parked behind the gap");
        assert_eq!(b.stats().acks_sent, 1);
        assert_eq!(ack_seen(), 0);
        a.inner.send(raw_data(0, 0, 0));
        assert_eq!(pump(&b), vec![0, 1]);
        assert_eq!(b.stats().acks_sent, 1, "in order: owed, not sent");
        a.inner.send(raw_data(0, 0, 0));
        assert!(pump(&b).is_empty());
        assert_eq!((b.stats().duplicates, b.stats().acks_sent), (1, 2));
        assert_eq!(ack_seen(), 2);
    }

    /// Counts how often the layer above looks at this one.
    pub(crate) struct Counted<T>(pub(crate) T, pub(crate) Cell<u32>);

    impl<T: Transport> Transport for Counted<T> {
        fn rank(&self) -> Rank {
            self.0.rank()
        }
        fn nprocs(&self) -> usize {
            self.0.nprocs()
        }
        fn send(&self, env: Envelope) {
            self.0.send(env)
        }
        fn try_recv(&self) -> Option<Envelope> {
            self.1.set(self.1.get() + 1);
            self.0.try_recv()
        }
        fn recv_timeout(&self, timeout: Duration) -> Option<Envelope> {
            self.0.recv_timeout(timeout)
        }
    }

    /// (f) A burst of K frames is handed up from one look: the inner
    /// transport is asked K + 1 times (K frames and the `None` that ends its
    /// drain), where every `try_recv` used to drain it afresh; and the
    /// `None` that ends the burst asks it nothing.
    #[test]
    fn a_burst_is_handed_up_from_one_look() {
        const K: u32 = 10;
        let (a, b, _clock) = pair_over(|ep| Counted(ep, Cell::new(0)));
        for i in 0..K {
            a.send(env(0, 1, i));
        }
        assert_eq!(pump(&b), (0..K).collect::<Vec<_>>());
        assert_eq!(b.inner.1.get(), K + 1);
        // The next pass is a look again: one question, answered "nothing".
        assert!(b.try_recv().is_none());
        assert_eq!(b.inner.1.get(), K + 2);
        // A send during the burst must not wait for the next pass: the
        // burst then ends with a look, the inner receive path being where
        // a staging transport sends what it holds.
        a.send(env(0, 1, K));
        assert_eq!(b.try_recv().map(|e| e.handler.0), Some(K));
        b.send(env(1, 0, 0));
        let before = b.inner.1.get();
        assert!(b.try_recv().is_none());
        assert_eq!(b.inner.1.get(), before + 1);
    }

    #[test]
    fn heavy_chaos_still_delivers_exactly_once_in_order() {
        // 20% loss + dup + reorder: brutal wire, perfect stream above.
        let (a, b, _, clock) = reliable_pair(ChaosConfig::adversarial(0xBAD5EED, 0.20));
        for i in 0..100 {
            a.send(env(0, 1, i));
        }
        let mut got = Vec::new();
        let mut polls = 0;
        while got.len() < 100 && polls < 200_000 {
            polls += 1;
            clock.advance(TICK);
            if let Some(e) = b.try_recv() {
                assert_eq!(e.src, 0);
                got.push(e.handler.0);
            }
            let _ = a.try_recv();
        }
        assert_eq!(got, (0..100).collect::<Vec<_>>(), "after {polls} polls");
        let stats = a.stats();
        assert!(
            stats.retries > 0,
            "loss must have forced retries: {stats:?}"
        );
        while !a.all_acked() && polls < 400_000 {
            polls += 1;
            clock.advance(TICK);
            let _ = b.try_recv();
            let _ = a.try_recv();
        }
        assert!(a.all_acked(), "all frames eventually acknowledged");
    }

    #[test]
    fn duplicates_are_suppressed_not_delivered() {
        let mut cfg = ChaosConfig::quiet(7);
        cfg.dup_p = 1.0; // every frame duplicated by the wire
        let (a, b, _, clock) = reliable_pair(cfg);
        for i in 0..20 {
            a.send(env(0, 1, i));
        }
        let mut got = Vec::new();
        for _ in 0..400 {
            clock.advance(TICK);
            if let Some(e) = b.try_recv() {
                got.push(e.handler.0);
            }
            let _ = a.try_recv();
        }
        assert_eq!(got, (0..20).collect::<Vec<_>>());
        assert!(b.stats().duplicates >= 20, "{:?}", b.stats());
    }

    #[test]
    fn payload_and_metadata_survive_the_wrap() {
        let (a, b, _, _clock) = reliable_pair(ChaosConfig::quiet(3));
        a.send(Envelope {
            src: 0,
            dst: 1,
            handler: HandlerId(0xFEED),
            tag: Tag::System,
            payload: Bytes::from_static(b"payload bytes"),
        });
        let e = b.try_recv().expect("frame must be delivered");
        assert_eq!(e.src, 0);
        assert_eq!(e.dst, 1);
        assert_eq!(e.handler, HandlerId(0xFEED));
        assert_eq!(e.tag, Tag::System);
        assert_eq!(&e.payload[..], b"payload bytes");
    }

    #[test]
    fn partition_then_heal_recovers_via_retransmit() {
        let (a, b, handle, clock) = reliable_pair(ChaosConfig::quiet(9));
        handle.partition(0, 1);
        for i in 0..5 {
            a.send(env(0, 1, i));
        }
        // While severed: nothing arrives, frames stay unacked.
        for _ in 0..100 {
            clock.advance(TICK);
            assert!(b.try_recv().is_none());
            let _ = a.try_recv();
        }
        assert!(!a.all_acked());
        assert!(a.stats().retries >= 5, "{:?}", a.stats());
        handle.heal(0, 1);
        let mut got = Vec::new();
        for _ in 0..20_000 {
            clock.advance(TICK);
            if let Some(e) = b.try_recv() {
                got.push(e.handler.0);
            }
            let _ = a.try_recv();
            if got.len() == 5 && a.all_acked() {
                break;
            }
        }
        assert_eq!(got, (0..5).collect::<Vec<_>>());
        assert!(a.all_acked());
    }

    /// Regression: retransmission must fire *inside* a single long
    /// `recv_timeout` with a silent (partitioned) peer — over a real socket,
    /// a lost frame would otherwise stay lost until unrelated traffic
    /// happened to arrive. The sleep is bounded by the earliest timer. On
    /// the monotonic clock, because what is tested is that wall time spent
    /// asleep counts.
    #[test]
    fn retransmit_fires_during_one_long_recv_timeout() {
        let mut eps = LocalFabric::new(2);
        let handle = ChaosHandle::new();
        let _b = eps.pop();
        let chaos = ChaosTransport::new(eps.pop().unwrap(), ChaosConfig::quiet(13), handle.clone());
        let retry = RetryConfig {
            retry_after: Duration::from_millis(4),
            max_backoff_shift: 3,
        };
        let a = ReliableTransport::with_retry(chaos, retry, Clock::monotonic());
        handle.partition(0, 1);
        for i in 0..5 {
            a.send(env(0, 1, i));
        }
        assert_eq!(a.stats().retries, 0);
        // One blocking call, no other polls: the peer is severed, so no
        // data and no ACKs can cut the wait short. 200 ms ≫ the first
        // retry point (4 ms), so backoff must have fired several times.
        assert!(a.recv_timeout(Duration::from_millis(200)).is_none());
        let stats = a.stats();
        assert!(
            stats.retries >= 10,
            "a silent peer must not stall the retry clock: {stats:?}"
        );
        assert!(!a.all_acked(), "partitioned frames stay unacked");
    }

    /// A manual clock nobody steps stands still however long the layer
    /// sleeps: `recv_timeout` still returns at its (wall) deadline and no
    /// timer fires.
    #[test]
    fn recv_timeout_on_a_standing_clock_ends_at_its_deadline() {
        let (a, _b, handle, _clock) = reliable_pair(ChaosConfig::quiet(15));
        handle.partition(0, 1);
        a.send(env(0, 1, 0));
        assert!(a.recv_timeout(Duration::from_millis(20)).is_none());
        assert_eq!(a.stats().retries, 0);
    }

    #[test]
    fn recv_timeout_duration_max_returns_on_arrival() {
        // Saturating-deadline regression (`Instant::now() + Duration::MAX`
        // panicked): the reliable layer must accept "block forever".
        let (a, b, _, clock) = reliable_pair(ChaosConfig::quiet(14));
        let h = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(10));
            a.send(env(0, 1, 3));
            // Drain ACKs until the frame is acknowledged.
            let deadline = Instant::now() + Duration::from_secs(10);
            while !a.all_acked() && Instant::now() < deadline {
                clock.advance(TICK);
                let _ = a.try_recv();
            }
            a.all_acked()
        });
        let got = b.recv_timeout(Duration::MAX).expect("must deliver");
        assert_eq!(got.handler, HandlerId(3));
        // The ACK is owed, not sent: keep looking until the delay, on the
        // clock the sender steps, has passed.
        while !h.is_finished() {
            let _ = b.try_recv();
        }
        assert!(h.join().expect("sender thread"));
    }

    #[test]
    fn malformed_frame_is_dropped_not_fatal() {
        let (_a, b, _, _clock) = reliable_pair(ChaosConfig::quiet(2));
        // Hand-craft a truncated data frame straight onto the wire.
        b.inner.send(Envelope {
            src: 1,
            dst: 1,
            handler: H_REL_DATA,
            tag: Tag::App,
            payload: Bytes::from_static(&[1, 2, 3]),
        });
        for _ in 0..10 {
            assert!(b.try_recv().is_none());
        }
        assert_eq!(b.stats().malformed, 1);
    }

    /// An ACK, riding or standalone, for a frame never sent is counted and
    /// ignored; one below the oldest unacknowledged frame is just late. A
    /// frame from a rank that does not exist is dropped.
    #[test]
    fn impossible_and_stale_acks_are_ignored() {
        let (a, b, _clock) = plain_pair();
        for i in 0..3 {
            b.send(env(1, 0, i));
        }
        // Rides on a frame that is itself fine: delivered, ACK ignored.
        a.inner.send(raw_data(0, u64::MAX, 7));
        assert_eq!(pump(&b), vec![7]);
        assert_eq!(b.stats().malformed, 1);
        a.inner.send(Envelope {
            handler: H_REL_ACK,
            payload: encode_ack(4),
            ..env(0, 1, 0)
        });
        pump(&b);
        assert_eq!(b.stats().malformed, 2);
        assert!(!b.all_acked());
        a.inner.send(raw_data(1, 2, 8));
        assert_eq!(pump(&b), vec![8]);
        a.inner.send(raw_data(2, 1, 9)); // stale: 2 was already heard
        assert_eq!(pump(&b), vec![9]);
        assert_eq!(b.stats().malformed, 2);
        assert_eq!(b.state.borrow().send[0].unacked.len(), 1);
        b.inner.send(Envelope {
            src: 5,
            ..raw_data(3, 3, 1)
        });
        assert!(pump(&b).is_empty());
        assert_eq!(b.stats().malformed, 3);
    }

    #[test]
    fn recv_timeout_rides_out_loss() {
        let (a, b, _, clock) = reliable_pair(ChaosConfig::adversarial(0x5EED, 0.30));
        let h = std::thread::spawn(move || {
            for i in 0..10 {
                a.send(env(0, 1, i));
            }
            // Keep the sender looking, and time passing, so retransmits
            // fire until everything is acknowledged.
            let deadline = Instant::now() + Duration::from_secs(10);
            while !a.all_acked() && Instant::now() < deadline {
                clock.advance(TICK);
                let _ = a.try_recv();
                std::hint::spin_loop();
            }
            a.all_acked()
        });
        let mut got = Vec::new();
        while got.len() < 10 {
            match b.recv_timeout(Duration::from_secs(10)) {
                Some(e) => got.push(e.handler.0),
                None => break,
            }
        }
        assert_eq!(got, (0..10).collect::<Vec<_>>());
        // Whatever is still owed goes out once its delay has passed.
        while !h.is_finished() {
            let _ = b.try_recv();
        }
        assert!(h.join().expect("sender thread must not panic"));
    }

    /// The bytes of both frames, field by field: a change here is a change of
    /// every DATA payload on the UDP wire, and bumps `udp::PROTO_VERSION`.
    #[test]
    fn frame_layout_is_pinned() {
        let env = Envelope {
            src: 0,
            dst: 1,
            handler: HandlerId(0x0A0B),
            tag: Tag::System,
            payload: Bytes::from_static(b"xy"),
        };
        let mut want = Vec::new();
        want.extend_from_slice(&3u64.to_le_bytes());
        want.extend_from_slice(&9u64.to_le_bytes());
        want.extend_from_slice(&[0x0B, 0x0A, 0, 0, 1, 0, 0, 0, 2, 0, 0, 0, b'x', b'y']);
        assert_eq!(
            &encode_data(3, 9, &env)[..],
            &want[..],
            "data frame layout changed: bump udp::PROTO_VERSION"
        );
        assert_eq!(&encode_ack(9)[..], &9u64.to_le_bytes());
    }

    proptest! {
        /// Each frame decodes back to itself under its own id. Arbitrary
        /// bytes under either id, or any other, decode to `Some` or `None`
        /// with no panic; a data frame's payload is a slice of what came in,
        /// and an ACK decodes whenever eight bytes are there.
        #[test]
        fn every_frame_round_trips_and_arbitrary_bytes_never_panic(
            (seq, ack) in (any::<u64>(), prop_oneof![Just(0), Just(u64::MAX), any::<u64>()]),
            (handler, system) in (any::<u32>(), any::<bool>()),
            payload in proptest::collection::vec(any::<u8>(), 0..64),
            id in prop_oneof![Just(H_REL_DATA.0), Just(H_REL_ACK.0), any::<u32>()],
            raw in proptest::collection::vec(any::<u8>(), 0..96),
        ) {
            let tag = if system { Tag::System } else { Tag::App };
            let (handler, payload) = (HandlerId(handler), Bytes::from(payload));
            let inner = Envelope { handler, tag, payload, ..env(0, 1, 0) };
            for f in [Frame::Data { seq, ack, env: inner }, Frame::Ack { expected: ack }] {
                prop_assert_eq!(Frame::decode(f.clone().envelope(0, 1)), Some(f));
            }
            let len = raw.len();
            let handler = HandlerId(id);
            match Frame::decode(Envelope { handler, payload: Bytes::from(raw), ..env(0, 1, 0) }) {
                Some(Frame::Data { env, .. }) => {
                    prop_assert!(id == H_REL_DATA.0 && env.payload.len() + 28 <= len)
                }
                Some(Frame::Ack { .. }) => prop_assert!(id == H_REL_ACK.0 && len >= 8),
                None => prop_assert!(id == H_REL_DATA.0 || id != H_REL_ACK.0 || len < 8),
            }
        }

        /// Whatever arrives under the layer's two handler ids, from
        /// whichever rank it claims, the layer neither panics nor delivers
        /// more than it was sent.
        #[test]
        fn the_layer_survives_arbitrary_frames(
            frames in proptest::collection::vec(
                (any::<bool>(), 0..4usize, proptest::collection::vec(any::<u8>(), 0..48)),
                1..24,
            ),
        ) {
            let (a, b, clock) = plain_pair();
            b.send(env(1, 0, 0));
            let n = frames.len();
            for (data, src, raw) in frames {
                a.inner.send(Envelope {
                    src,
                    handler: if data { H_REL_DATA } else { H_REL_ACK },
                    payload: Bytes::from(raw),
                    ..env(0, 1, 0)
                });
                clock.advance(TICK);
                prop_assert!(pump(&b).len() <= n);
            }
        }
    }
}
