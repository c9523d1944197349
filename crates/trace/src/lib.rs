//! Per-rank event tracing for the PREMA runtime.
//!
//! The paper's evaluation (§5, Figures 3–6) is built from *per-processor*
//! time breakdowns. This crate records the raw material for those tables as
//! a stream of typed events — substrate sends/receives, mobile-object
//! migrations and forwarding hops, load-balancing protocol rounds, poll-thread
//! wakeups, and simulator time spans — one lock-free ring buffer per rank.
//!
//! Two recording paths share the same [`TraceEvent`] vocabulary:
//!
//! * **Always available:** the [`TraceSink`] API. The discrete-event
//!   simulator and the harness drivers call [`TraceSink::record`] directly
//!   with explicit *simulated* timestamps; `cargo xtask trace-report` replays
//!   a dumped run back into the Figure 3–6 tables.
//! * **Attached on demand:** the [`Tracer`] handle every component of the
//!   real runtime (dcs / mol / ilb / core) holds, detached until a caller
//!   hands the runtime a sink. A detached [`Tracer::emit`] is one load and
//!   one branch and never builds its event (the `trace_overhead` bench in
//!   `prema-bench` measures it); an attached one stamps with its sink's
//!   clock: wall nanoseconds since the sink's epoch, or simulated time.
//!
//! Rings are bounded: when a rank's ring fills, further events are counted
//! in [`TraceSink::dropped`] rather than blocking or reallocating, so tracing
//! can never distort the run it observes.

#![warn(missing_docs)]

use std::cell::UnsafeCell;
use std::fmt::Write as _;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// One traced runtime occurrence. `Copy`, flat, and small: events live in
/// pre-allocated ring slots and must be cheap to stamp on the fast path.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum TraceEvent {
    /// An active message left this rank (dcs `am_send`).
    Send {
        /// Destination rank.
        dst: usize,
        /// Handler id the message will run at the destination.
        handler: u32,
        /// Wire size in bytes (header + payload).
        bytes: usize,
        /// Sent on the system tag (LB / runtime traffic) rather than app.
        system: bool,
    },
    /// An active message was delivered to this rank.
    Recv {
        /// Source rank.
        src: usize,
        /// Handler id carried by the message.
        handler: u32,
        /// Wire size in bytes (header + payload).
        bytes: usize,
        /// Received on the system tag.
        system: bool,
    },
    /// A mobile object was packed and shipped from this rank (mol `migrate`).
    Migrate {
        /// Object's home rank (identity, not location).
        home: usize,
        /// Object's per-home index.
        index: u64,
        /// Rank the object was sent to.
        dst: usize,
    },
    /// A mobile object arrived and was installed on this rank.
    Install {
        /// Object's home rank.
        home: usize,
        /// Object's per-home index.
        index: u64,
        /// Rank the object came from.
        from: usize,
    },
    /// A mobile-object message missed here and was forwarded along the
    /// location chain; `hops` is its hop count *after* this forward.
    ForwardHop {
        /// Target object's home rank.
        home: usize,
        /// Target object's per-home index.
        index: u64,
        /// Rank the message was forwarded to.
        next: usize,
        /// Total forwarding hops the message has taken so far.
        hops: u32,
    },
    /// A sender's location cache (or forward trail) named an owner for a
    /// mobile pointer, so the message was sent directly (DESIGN.md §16).
    LocCacheHit {
        /// Target object's home rank.
        home: usize,
        /// Target object's per-home index.
        index: u64,
        /// Cached owner rank the message was sent to.
        owner: usize,
    },
    /// No local knowledge for a mobile pointer: the message was routed to
    /// the pointer's home shard for authoritative resolution.
    LocCacheMiss {
        /// Target object's home rank.
        home: usize,
        /// Target object's per-home index.
        index: u64,
        /// Home shard rank the message was routed to.
        shard: usize,
    },
    /// A directory answer flagged this rank's knowledge stale (the answer's
    /// epoch exceeded the epoch the rank sent with); the fresher location
    /// was merged into the cache.
    LocCacheStale {
        /// Target object's home rank.
        home: usize,
        /// Target object's per-home index.
        index: u64,
        /// Authoritative owner rank from the answer.
        owner: usize,
        /// Migration epoch of the answer.
        epoch: u64,
    },
    /// An explicit `resolve()` missed locally and issued a `DirLookup` to
    /// the pointer's home shard.
    HomeLookup {
        /// Target object's home rank.
        home: usize,
        /// Target object's per-home index.
        index: u64,
        /// Home shard rank the lookup was sent to.
        shard: usize,
    },
    /// The scheduler started executing one unit of mobile-object work.
    ExecBegin {
        /// Executing object's home rank.
        home: usize,
        /// Executing object's per-home index.
        index: u64,
        /// Application handler id being run.
        handler: u32,
    },
    /// The scheduler finished the unit started by the matching
    /// [`TraceEvent::ExecBegin`].
    ExecFinish {
        /// Executing object's home rank.
        home: usize,
        /// Executing object's per-home index.
        index: u64,
    },
    /// A full scheduler poll (`Scheduler::poll`) drained `events` messages.
    Poll {
        /// Messages processed by this poll.
        events: u32,
    },
    /// A system-only poll (`Scheduler::poll_system`) drained `events`
    /// system messages, sidelining application traffic.
    PollSystem {
        /// System messages processed.
        events: u32,
    },
    /// One wakeup of the preemptive polling thread (implicit LB mode).
    PollWake {
        /// System messages the wakeup's `poll_system` processed.
        events: u32,
    },
    /// This rank went begging: it sent an `LB_REQUEST` to `victim`.
    LbRequest {
        /// Rank asked for work.
        victim: usize,
        /// Begging attempt number at send time (0 = first try).
        attempt: u32,
    },
    /// An `LB_REQUEST` from `src` arrived at this rank.
    LbRequestRecv {
        /// Requesting rank.
        src: usize,
    },
    /// This rank granted work: `units` mobile objects migrate to `dst`.
    LbGrant {
        /// Rank receiving the granted objects.
        dst: usize,
        /// Number of objects granted.
        units: u32,
        /// How many of them left in the net-affine class: they had heard
        /// more from `dst` than from the granting rank (DESIGN.md §21).
        affine: u32,
    },
    /// A grant from `src` started arriving, ending this rank's begging round.
    LbGrantRecv {
        /// Granting rank.
        src: usize,
        /// Objects arrived so far (the stack reports the first: 1).
        units: u32,
    },
    /// This rank refused an `LB_REQUEST`: it sent an `LB_NACK` to `dst`.
    LbNackSent {
        /// Refused requester.
        dst: usize,
    },
    /// An `LB_NACK` from `src` arrived at this rank.
    LbNackRecv {
        /// Refusing rank.
        src: usize,
        /// The NACK did not match our outstanding request (late/duplicate)
        /// and was ignored rather than cancelling the current round.
        stale: bool,
    },
    /// The migration stability governor vetoed a grant or flow migration
    /// (DESIGN.md §14).
    LbVeto {
        /// The would-be destination (flows/grants) or requester (hysteresis).
        peer: usize,
        /// Veto cause: `prema_ilb::VetoKind::code()` — 0 = hysteresis band,
        /// 1 = minimum residency, 2 = migration-rate cap.
        kind: u32,
    },
    /// A message was dropped rather than delivered. Emitted by any layer
    /// that discards traffic: the chaos transport (injected loss or a
    /// partitioned pair), a send into a torn-down rank's inbox, a MOL node
    /// that received an envelope for a DCS handler it does not own, or a
    /// scheduler that received a message it cannot route (unregistered
    /// handler id, malformed payload).
    DcsDropped {
        /// The other end of the dropped message (destination when dropped
        /// on send, source when dropped on receive).
        peer: usize,
        /// Raw handler id of the dropped envelope.
        handler: u32,
    },
    /// The reliable-delivery layer retransmitted an unacknowledged frame.
    DcsRetry {
        /// Destination rank of the retransmission.
        peer: usize,
        /// Sequence number of the retransmitted frame.
        seq: u64,
        /// Retry attempt for this backoff round (1 = first retransmit).
        attempt: u32,
    },
    /// A duplicate message was suppressed (reliable-layer sequence dedup)
    /// or observed (MOL sequence replay); the duplicate was not delivered.
    DcsDuplicate {
        /// Source rank of the duplicate.
        peer: usize,
        /// Raw handler id of the duplicate envelope.
        handler: u32,
    },
    /// The simulator charged `dur` nanoseconds of simulated time to cost
    /// category `cat` (`prema_sim::Category as usize`).
    Span {
        /// Cost category index (see `prema_sim::Category::ALL`).
        cat: u8,
        /// Duration in simulated nanoseconds.
        dur: u64,
    },
    /// This processor finished its part of the run (simulator `finish`).
    ProcFinish,
}

impl TraceEvent {
    /// Stable snake_case name used as the `"ev"` field in JSONL dumps.
    pub fn name(&self) -> &'static str {
        match self {
            TraceEvent::Send { .. } => "send",
            TraceEvent::Recv { .. } => "recv",
            TraceEvent::Migrate { .. } => "migrate",
            TraceEvent::Install { .. } => "install",
            TraceEvent::ForwardHop { .. } => "forward_hop",
            TraceEvent::LocCacheHit { .. } => "loc_cache_hit",
            TraceEvent::LocCacheMiss { .. } => "loc_cache_miss",
            TraceEvent::LocCacheStale { .. } => "loc_cache_stale",
            TraceEvent::HomeLookup { .. } => "home_lookup",
            TraceEvent::ExecBegin { .. } => "exec_begin",
            TraceEvent::ExecFinish { .. } => "exec_finish",
            TraceEvent::Poll { .. } => "poll",
            TraceEvent::PollSystem { .. } => "poll_system",
            TraceEvent::PollWake { .. } => "poll_wake",
            TraceEvent::LbRequest { .. } => "lb_request",
            TraceEvent::LbRequestRecv { .. } => "lb_request_recv",
            TraceEvent::LbGrant { .. } => "lb_grant",
            TraceEvent::LbGrantRecv { .. } => "lb_grant_recv",
            TraceEvent::LbNackSent { .. } => "lb_nack_sent",
            TraceEvent::LbNackRecv { .. } => "lb_nack_recv",
            TraceEvent::LbVeto { .. } => "lb_veto",
            TraceEvent::DcsDropped { .. } => "dcs_dropped",
            TraceEvent::DcsRetry { .. } => "dcs_retry",
            TraceEvent::DcsDuplicate { .. } => "dcs_duplicate",
            TraceEvent::Span { .. } => "span",
            TraceEvent::ProcFinish => "proc_finish",
        }
    }

    /// Append the event-specific JSON fields (everything after `"ev"`) to a
    /// line under construction. Fields are flat scalars only, so the
    /// `trace-report` parser in xtask can stay a hand-rolled splitter.
    fn write_fields(&self, out: &mut String) {
        match *self {
            TraceEvent::Send {
                dst,
                handler,
                bytes,
                system,
            } => {
                let _ = write!(
                    out,
                    ",\"dst\":{dst},\"handler\":{handler},\"bytes\":{bytes},\"system\":{system}"
                );
            }
            TraceEvent::Recv {
                src,
                handler,
                bytes,
                system,
            } => {
                let _ = write!(
                    out,
                    ",\"src\":{src},\"handler\":{handler},\"bytes\":{bytes},\"system\":{system}"
                );
            }
            TraceEvent::Migrate { home, index, dst } => {
                let _ = write!(out, ",\"home\":{home},\"index\":{index},\"dst\":{dst}");
            }
            TraceEvent::Install { home, index, from } => {
                let _ = write!(out, ",\"home\":{home},\"index\":{index},\"from\":{from}");
            }
            TraceEvent::ForwardHop {
                home,
                index,
                next,
                hops,
            } => {
                let _ = write!(
                    out,
                    ",\"home\":{home},\"index\":{index},\"next\":{next},\"hops\":{hops}"
                );
            }
            TraceEvent::LocCacheHit { home, index, owner } => {
                let _ = write!(out, ",\"home\":{home},\"index\":{index},\"owner\":{owner}");
            }
            TraceEvent::LocCacheMiss { home, index, shard }
            | TraceEvent::HomeLookup { home, index, shard } => {
                let _ = write!(out, ",\"home\":{home},\"index\":{index},\"shard\":{shard}");
            }
            TraceEvent::LocCacheStale {
                home,
                index,
                owner,
                epoch,
            } => {
                let _ = write!(
                    out,
                    ",\"home\":{home},\"index\":{index},\"owner\":{owner},\"epoch\":{epoch}"
                );
            }
            TraceEvent::ExecBegin {
                home,
                index,
                handler,
            } => {
                let _ = write!(
                    out,
                    ",\"home\":{home},\"index\":{index},\"handler\":{handler}"
                );
            }
            TraceEvent::ExecFinish { home, index } => {
                let _ = write!(out, ",\"home\":{home},\"index\":{index}");
            }
            TraceEvent::Poll { events }
            | TraceEvent::PollSystem { events }
            | TraceEvent::PollWake { events } => {
                let _ = write!(out, ",\"events\":{events}");
            }
            TraceEvent::LbRequest { victim, attempt } => {
                let _ = write!(out, ",\"victim\":{victim},\"attempt\":{attempt}");
            }
            TraceEvent::LbRequestRecv { src } => {
                let _ = write!(out, ",\"src\":{src}");
            }
            TraceEvent::LbGrant { dst, units, affine } => {
                let _ = write!(out, ",\"dst\":{dst},\"units\":{units},\"affine\":{affine}");
            }
            TraceEvent::LbGrantRecv { src, units } => {
                let _ = write!(out, ",\"src\":{src},\"units\":{units}");
            }
            TraceEvent::LbNackSent { dst } => {
                let _ = write!(out, ",\"dst\":{dst}");
            }
            TraceEvent::LbNackRecv { src, stale } => {
                let _ = write!(out, ",\"src\":{src},\"stale\":{stale}");
            }
            TraceEvent::LbVeto { peer, kind } => {
                let _ = write!(out, ",\"peer\":{peer},\"kind\":{kind}");
            }
            TraceEvent::DcsDropped { peer, handler }
            | TraceEvent::DcsDuplicate { peer, handler } => {
                let _ = write!(out, ",\"peer\":{peer},\"handler\":{handler}");
            }
            TraceEvent::DcsRetry { peer, seq, attempt } => {
                // `seq` is already the record-level sequence key; the frame's
                // own sequence number serializes as `frame` to keep the flat
                // JSON object free of duplicate keys.
                let _ = write!(
                    out,
                    ",\"peer\":{peer},\"frame\":{seq},\"attempt\":{attempt}"
                );
            }
            TraceEvent::Span { cat, dur } => {
                let _ = write!(out, ",\"cat\":{cat},\"dur\":{dur}");
            }
            TraceEvent::ProcFinish => {}
        }
    }
}

/// A recorded event with its full stamp: which rank, its logical sequence
/// number on that rank, and a timestamp (simulated nanoseconds when recorded
/// by the simulator, wall nanoseconds since the sink's epoch when recorded
/// by a live [`Tracer`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Record {
    /// Recording rank (simulated processor id in sim runs).
    pub rank: usize,
    /// Per-rank logical sequence number, dense from 0 in recording order.
    pub seq: u64,
    /// Timestamp in nanoseconds (sim time or wall time since sink epoch).
    pub t: u64,
    /// The event itself.
    pub ev: TraceEvent,
}

impl Record {
    /// Render this record as one line of flat JSON (no trailing newline),
    /// the on-disk format consumed by `cargo xtask trace-report`.
    pub fn to_jsonl(&self) -> String {
        let mut line = String::with_capacity(96);
        let _ = write!(
            line,
            "{{\"rank\":{},\"seq\":{},\"t\":{},\"ev\":\"{}\"",
            self.rank,
            self.seq,
            self.t,
            self.ev.name()
        );
        self.ev.write_fields(&mut line);
        line.push('}');
        line
    }
}

/// One rank's bounded event ring. Writers claim a slot with a single
/// `fetch_add` on `cursor`, fill it, then publish with a `Release` store on
/// the slot's `ready` flag; the reader observes slots with `Acquire` loads.
/// Once the ring is full further events only bump `dropped`.
struct RankRing {
    slots: Box<[Slot]>,
    cursor: AtomicU64,
    dropped: AtomicU64,
}

struct Slot {
    ready: AtomicBool,
    data: UnsafeCell<MaybeUninit<(u64, TraceEvent)>>,
}

// SAFETY: each slot's `data` is written at most once, by the unique claimant
// of its index (cursor `fetch_add` hands out each index exactly once), and
// is only read after the claimant's `Release` store of `ready` is observed
// with `Acquire`. There is no aliased mutable access.
unsafe impl Sync for RankRing {}

impl RankRing {
    fn new(capacity: usize) -> Self {
        let mut slots = Vec::with_capacity(capacity);
        for _ in 0..capacity {
            slots.push(Slot {
                ready: AtomicBool::new(false),
                data: UnsafeCell::new(MaybeUninit::uninit()),
            });
        }
        RankRing {
            slots: slots.into_boxed_slice(),
            cursor: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    fn push(&self, t: u64, ev: TraceEvent) {
        let idx = self.cursor.fetch_add(1, Ordering::AcqRel);
        match self.slots.get(idx as usize) {
            Some(slot) => {
                // SAFETY: `idx` was handed to this thread alone; see the
                // `unsafe impl Sync` justification above.
                unsafe { (*slot.data.get()).write((t, ev)) };
                slot.ready.store(true, Ordering::Release);
            }
            None => {
                self.dropped.fetch_add(1, Ordering::AcqRel);
            }
        }
    }

    fn snapshot(&self, rank: usize, out: &mut Vec<Record>) {
        let claimed = self.cursor.load(Ordering::Acquire) as usize;
        let n = claimed.min(self.slots.len());
        for (seq, slot) in self.slots[..n].iter().enumerate() {
            if slot.ready.load(Ordering::Acquire) {
                // SAFETY: `ready` was stored with `Release` after the write;
                // our `Acquire` load makes the initialized value visible.
                let (t, ev) = unsafe { (*slot.data.get()).assume_init_read() };
                out.push(Record {
                    rank,
                    seq: seq as u64,
                    t,
                    ev,
                });
            }
        }
    }
}

/// Default per-rank ring capacity (events). Roughly 40 bytes per slot, so
/// the default costs ~1.3 MiB per rank; callers recording long runs should
/// size explicitly with [`TraceSink::with_capacity`].
pub const DEFAULT_RING_CAPACITY: usize = 1 << 15;

/// A whole machine's trace: one bounded lock-free ring per rank plus a
/// wall-clock epoch for live (non-simulated) recording.
///
/// Constructors return `Arc<TraceSink>` because recording handles on other
/// threads (live [`Tracer`]s, the core poll thread) each hold a reference.
pub struct TraceSink {
    rings: Vec<RankRing>,
    epoch: Instant,
    /// The time a manually clocked sink ([`TraceSink::manual`]) reports, in
    /// nanoseconds; `None` on a wall-clocked one.
    manual_now: Option<AtomicU64>,
}

impl TraceSink {
    /// A sink for `nprocs` ranks with [`DEFAULT_RING_CAPACITY`] slots each.
    pub fn new(nprocs: usize) -> Arc<Self> {
        Self::with_capacity(nprocs, DEFAULT_RING_CAPACITY)
    }

    /// A sink for `nprocs` ranks with `capacity` slots per rank. Events past
    /// a rank's capacity are dropped (and counted), never reallocated.
    pub fn with_capacity(nprocs: usize, capacity: usize) -> Arc<Self> {
        Self::build(nprocs, capacity, None)
    }

    fn build(nprocs: usize, capacity: usize, manual_now: Option<AtomicU64>) -> Arc<Self> {
        Arc::new(TraceSink {
            rings: (0..nprocs).map(|_| RankRing::new(capacity)).collect(),
            epoch: Instant::now(),
            manual_now,
        })
    }

    /// A sink whose clock is whatever [`TraceSink::set_now`] last said (0
    /// until then) rather than wall time: for a run on simulated time, where
    /// the driver sets the clock before each call into traced code so live
    /// [`Tracer`] stamps share the simulator's own time line.
    pub fn manual(nprocs: usize, capacity: usize) -> Arc<Self> {
        Self::build(nprocs, capacity, Some(AtomicU64::new(0)))
    }

    /// Whether this sink was built by [`TraceSink::manual`].
    pub fn is_manual(&self) -> bool {
        self.manual_now.is_some()
    }

    /// Set a manually clocked sink's time, in nanoseconds. Panics on a
    /// wall-clocked sink: that clock is not the caller's to set.
    pub fn set_now(&self, t: u64) {
        self.manual_now
            .as_ref()
            .expect("set_now on a wall-clocked TraceSink")
            .store(t, Ordering::SeqCst);
    }

    /// Number of ranks this sink records.
    pub fn nprocs(&self) -> usize {
        self.rings.len()
    }

    /// Record `ev` for `rank` at timestamp `t` (nanoseconds; the caller
    /// picks the clock — the simulator passes sim time). Events for ranks
    /// this sink does not know are a caller bug and are dropped.
    pub fn record(&self, rank: usize, t: u64, ev: TraceEvent) {
        debug_assert!(rank < self.rings.len(), "trace record for unknown rank");
        if let Some(ring) = self.rings.get(rank) {
            ring.push(t, ev);
        }
    }

    /// The clock live tracers stamp events with: nanoseconds of wall time
    /// since this sink was created, or, on a manually clocked sink, the time
    /// last given to [`TraceSink::set_now`].
    pub fn elapsed_nanos(&self) -> u64 {
        match &self.manual_now {
            Some(t) => t.load(Ordering::SeqCst),
            None => self.epoch.elapsed().as_nanos() as u64,
        }
    }

    /// Total events lost to full rings across all ranks.
    pub fn dropped(&self) -> u64 {
        self.rings
            .iter()
            .map(|r| r.dropped.load(Ordering::Acquire))
            .sum()
    }

    /// Copy out every published record, globally ordered by `(t, rank, seq)`.
    /// Safe to call while recording continues (a consistent prefix per rank).
    pub fn drain(&self) -> Vec<Record> {
        let mut out = Vec::new();
        for (rank, ring) in self.rings.iter().enumerate() {
            ring.snapshot(rank, &mut out);
        }
        out.sort_by_key(|r| (r.t, r.rank, r.seq));
        out
    }

    /// Write the full trace as JSONL (one flat object per line) — the input
    /// format of `cargo xtask trace-report`.
    pub fn write_jsonl(&self, out: &mut dyn std::io::Write) -> std::io::Result<()> {
        for rec in self.drain() {
            writeln!(out, "{}", rec.to_jsonl())?;
        }
        Ok(())
    }

    /// A recording handle for `rank`, stamping events with this sink's
    /// clock ([`TraceSink::elapsed_nanos`]).
    pub fn tracer(self: &Arc<Self>, rank: usize) -> Tracer {
        Tracer(Some(TracerInner {
            sink: Arc::clone(self),
            rank,
        }))
    }
}

/// A per-rank recording handle embedded in the live runtime (communicator,
/// mobile-object node, scheduler, poll thread).
///
/// Detached ([`Tracer::off`], the default) until built by
/// [`TraceSink::tracer`]: tracing is on exactly when a caller hands the
/// runtime a sink. A detached [`Tracer::emit`] is one load and one branch in
/// its caller, and the closure building the event never runs.
#[derive(Clone, Default)]
pub struct Tracer(Option<TracerInner>);

#[derive(Clone)]
struct TracerInner {
    sink: Arc<TraceSink>,
    rank: usize,
}

impl Tracer {
    /// A detached tracer: emits are dropped. The default state of every
    /// runtime component until a sink is attached.
    pub fn off() -> Self {
        Tracer(None)
    }

    /// Record the event built by `f` if this tracer is attached to a sink.
    #[inline]
    pub fn emit(&self, f: impl FnOnce() -> TraceEvent) {
        if let Some(inner) = &self.0 {
            inner.record(f());
        }
    }
}

impl TracerInner {
    /// The attached path, stamp and record, kept out of line so a detached
    /// emit site stays a load and a branch. Building the event stays in the
    /// caller's branch: a closure handed here would make its captures'
    /// addresses escape and cost the detached path a copy.
    #[cold]
    #[inline(never)]
    fn record(&self, ev: TraceEvent) {
        self.sink.record(self.rank, self.sink.elapsed_nanos(), ev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_drain_orders_globally() {
        let sink = TraceSink::with_capacity(2, 8);
        sink.record(1, 30, TraceEvent::ProcFinish);
        sink.record(0, 10, TraceEvent::Poll { events: 2 });
        sink.record(0, 20, TraceEvent::Span { cat: 0, dur: 10 });
        let recs = sink.drain();
        assert_eq!(recs.len(), 3);
        // Ordered by timestamp across ranks.
        assert_eq!(recs[0].t, 10);
        assert_eq!(recs[0].rank, 0);
        assert_eq!(recs[0].seq, 0);
        assert_eq!(recs[1].t, 20);
        assert_eq!(recs[1].seq, 1);
        assert_eq!(recs[2].rank, 1);
        assert_eq!(sink.dropped(), 0);
    }

    #[test]
    fn full_ring_counts_drops_instead_of_growing() {
        let sink = TraceSink::with_capacity(1, 4);
        for i in 0..10 {
            sink.record(0, i, TraceEvent::ProcFinish);
        }
        assert_eq!(sink.drain().len(), 4);
        assert_eq!(sink.dropped(), 6);
    }

    #[test]
    fn out_of_range_rank_is_dropped_in_release() {
        let sink = TraceSink::with_capacity(1, 4);
        if cfg!(debug_assertions) {
            // debug builds assert; exercise only the in-range path there
            sink.record(0, 1, TraceEvent::ProcFinish);
        } else {
            sink.record(7, 1, TraceEvent::ProcFinish);
            assert_eq!(sink.drain().len(), 0);
        }
    }

    #[test]
    fn jsonl_lines_are_flat_and_stable() {
        let rec = Record {
            rank: 3,
            seq: 5,
            t: 1234,
            ev: TraceEvent::Send {
                dst: 1,
                handler: 7,
                bytes: 88,
                system: true,
            },
        };
        assert_eq!(
            rec.to_jsonl(),
            "{\"rank\":3,\"seq\":5,\"t\":1234,\"ev\":\"send\",\"dst\":1,\"handler\":7,\"bytes\":88,\"system\":true}"
        );
        let fin = Record {
            rank: 0,
            seq: 0,
            t: 9,
            ev: TraceEvent::ProcFinish,
        };
        assert_eq!(
            fin.to_jsonl(),
            "{\"rank\":0,\"seq\":0,\"t\":9,\"ev\":\"proc_finish\"}"
        );
    }

    #[test]
    fn chaos_events_serialize_flat() {
        let drop = Record {
            rank: 2,
            seq: 0,
            t: 7,
            ev: TraceEvent::DcsDropped {
                peer: 5,
                handler: 9,
            },
        };
        assert_eq!(
            drop.to_jsonl(),
            "{\"rank\":2,\"seq\":0,\"t\":7,\"ev\":\"dcs_dropped\",\"peer\":5,\"handler\":9}"
        );
        let retry = Record {
            rank: 1,
            seq: 1,
            t: 8,
            ev: TraceEvent::DcsRetry {
                peer: 3,
                seq: 42,
                attempt: 2,
            },
        };
        assert_eq!(
            retry.to_jsonl(),
            "{\"rank\":1,\"seq\":1,\"t\":8,\"ev\":\"dcs_retry\",\"peer\":3,\"frame\":42,\"attempt\":2}"
        );
        let dup = Record {
            rank: 0,
            seq: 2,
            t: 9,
            ev: TraceEvent::DcsDuplicate {
                peer: 4,
                handler: 1,
            },
        };
        assert_eq!(
            dup.to_jsonl(),
            "{\"rank\":0,\"seq\":2,\"t\":9,\"ev\":\"dcs_duplicate\",\"peer\":4,\"handler\":1}"
        );
    }

    #[test]
    fn directory_events_serialize_flat() {
        let hit = Record {
            rank: 2,
            seq: 0,
            t: 5,
            ev: TraceEvent::LocCacheHit {
                home: 1,
                index: 9,
                owner: 6,
            },
        };
        assert_eq!(
            hit.to_jsonl(),
            "{\"rank\":2,\"seq\":0,\"t\":5,\"ev\":\"loc_cache_hit\",\"home\":1,\"index\":9,\"owner\":6}"
        );
        let miss = Record {
            rank: 2,
            seq: 1,
            t: 6,
            ev: TraceEvent::LocCacheMiss {
                home: 1,
                index: 9,
                shard: 3,
            },
        };
        assert_eq!(
            miss.to_jsonl(),
            "{\"rank\":2,\"seq\":1,\"t\":6,\"ev\":\"loc_cache_miss\",\"home\":1,\"index\":9,\"shard\":3}"
        );
        let stale = Record {
            rank: 2,
            seq: 2,
            t: 7,
            ev: TraceEvent::LocCacheStale {
                home: 1,
                index: 9,
                owner: 7,
                epoch: 4,
            },
        };
        assert_eq!(
            stale.to_jsonl(),
            "{\"rank\":2,\"seq\":2,\"t\":7,\"ev\":\"loc_cache_stale\",\"home\":1,\"index\":9,\"owner\":7,\"epoch\":4}"
        );
        let lookup = Record {
            rank: 2,
            seq: 3,
            t: 8,
            ev: TraceEvent::HomeLookup {
                home: 1,
                index: 9,
                shard: 3,
            },
        };
        assert_eq!(
            lookup.to_jsonl(),
            "{\"rank\":2,\"seq\":3,\"t\":8,\"ev\":\"home_lookup\",\"home\":1,\"index\":9,\"shard\":3}"
        );
    }

    #[test]
    fn governor_events_serialize_flat() {
        let veto = Record {
            rank: 1,
            seq: 0,
            t: 4,
            ev: TraceEvent::LbVeto { peer: 3, kind: 1 },
        };
        assert_eq!(
            veto.to_jsonl(),
            "{\"rank\":1,\"seq\":0,\"t\":4,\"ev\":\"lb_veto\",\"peer\":3,\"kind\":1}"
        );
    }

    #[test]
    fn write_jsonl_emits_one_line_per_record() {
        let sink = TraceSink::with_capacity(1, 4);
        sink.record(0, 1, TraceEvent::Poll { events: 1 });
        sink.record(0, 2, TraceEvent::ProcFinish);
        let mut buf = Vec::new();
        sink.write_jsonl(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert!(text.lines().all(|l| l.starts_with('{') && l.ends_with('}')));
    }

    #[test]
    fn concurrent_pushes_all_land_or_count_as_dropped() {
        let sink = TraceSink::with_capacity(1, 1024);
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let s = Arc::clone(&sink);
                std::thread::spawn(move || {
                    for i in 0..512u64 {
                        s.record(0, i, TraceEvent::Span { cat: 0, dur: i });
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let recs = sink.drain();
        assert_eq!(recs.len() as u64 + sink.dropped(), 4 * 512);
        assert_eq!(recs.len(), 1024);
        // Sequence numbers are dense per rank.
        let mut seqs: Vec<u64> = recs.iter().map(|r| r.seq).collect();
        seqs.sort_unstable();
        assert!(seqs.iter().enumerate().all(|(i, s)| *s == i as u64));
    }

    #[test]
    fn a_manual_sink_reports_the_time_it_was_last_given() {
        let sink = TraceSink::manual(1, 4);
        assert!(sink.is_manual() && !TraceSink::new(1).is_manual());
        assert_eq!(sink.elapsed_nanos(), 0);
        sink.set_now(1_500_000_000);
        assert_eq!(sink.elapsed_nanos(), 1_500_000_000);
        // A live tracer stamps with that time.
        sink.tracer(0).emit(|| TraceEvent::PollWake { events: 0 });
        let recs = sink.drain();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].t, 1_500_000_000);
    }

    #[test]
    fn enabled_tracer_records_with_wall_stamps() {
        let sink = TraceSink::with_capacity(2, 16);
        let t1 = sink.tracer(1);
        t1.emit(|| TraceEvent::PollWake { events: 3 });
        let recs = sink.drain();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].rank, 1);
        assert_eq!(recs[0].ev, TraceEvent::PollWake { events: 3 });
        // Detached tracers drop events silently.
        Tracer::off().emit(|| TraceEvent::ProcFinish);
        assert_eq!(sink.drain().len(), 1);
    }

    #[test]
    fn a_detached_tracer_never_calls_the_closure_and_records_nothing() {
        /// A runtime component before any sink is handed to it.
        #[derive(Default)]
        struct Component {
            tracer: Tracer,
        }
        let sink = TraceSink::with_capacity(1, 4);
        let attached = Component {
            tracer: sink.tracer(0),
        };
        Tracer::off().emit(|| unreachable!("closure must not run when detached"));
        Component::default()
            .tracer
            .emit(|| unreachable!("a default tracer is detached"));
        attached.tracer.emit(|| TraceEvent::ProcFinish);
        // The sink holds the attached component's record alone.
        let recs = sink.drain();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].ev, TraceEvent::ProcFinish);
        assert_eq!(sink.dropped(), 0);
    }
}
