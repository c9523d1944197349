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
//!   with explicit *simulated* timestamps; the harness's `trace-report`
//!   binary replays a dumped run back into the Figure 3–6 tables.
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
use std::str::FromStr;
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

/// The key a field is written under: its own name, or the one given.
macro_rules! jsonl_key {
    ($field:ident) => {
        stringify!($field)
    };
    ($field:ident $key:literal) => {
        $key
    };
}

/// The JSONL form of every variant, stated once: its `"ev"` name, then its
/// fields in the order they are written, each under its own name unless a
/// key is given. Expands to [`TraceEvent::name`] and to the writer and the
/// reader behind [`Record::to_jsonl`] and [`Record::from_jsonl`], so the two
/// cannot disagree. `name` and the writer `match` on the variant with no
/// wildcard arm, so a variant missing from the table does not build.
macro_rules! jsonl_forms {
    ($($variant:ident $name:literal { $($field:ident $(= $key:literal)?),* })*) => {
        impl TraceEvent {
            /// Stable snake_case name used as the `"ev"` field in JSONL dumps.
            pub fn name(&self) -> &'static str {
                match self {
                    $(TraceEvent::$variant { .. } => $name,)*
                }
            }

            /// Append the event-specific JSON fields (everything after
            /// `"ev"`) to a line under construction. Fields are flat scalars
            /// only.
            fn write_fields(&self, out: &mut String) {
                match *self {
                    $(TraceEvent::$variant { $($field),* } => {
                        $(let _ = write!(out, ",\"{}\":{}", jsonl_key!($field $($key)?), $field);)*
                    })*
                }
            }

            /// Every variant in table order, each field cut from one `draw`:
            /// the roundtrip proptest's events, so a new row is tested too.
            #[cfg(test)]
            fn every(draw: &mut dyn FnMut() -> u64) -> Vec<TraceEvent> {
                vec![$(TraceEvent::$variant {
                    $($field: tests::Drawn::from_draw(draw()),)*
                }),*]
            }

            /// The event named `name`, its fields taken out of `f`.
            fn read_fields(name: &str, f: &mut Fields) -> Option<TraceEvent> {
                Some(match name {
                    $($name => TraceEvent::$variant {
                        $($field: f.value(jsonl_key!($field $($key)?))?,)*
                    },)*
                    _ => return None,
                })
            }
        }
    };
}

jsonl_forms! {
    Send "send" { dst, handler, bytes, system }
    Recv "recv" { src, handler, bytes, system }
    Migrate "migrate" { home, index, dst }
    Install "install" { home, index, from }
    ForwardHop "forward_hop" { home, index, next, hops }
    LocCacheHit "loc_cache_hit" { home, index, owner }
    LocCacheMiss "loc_cache_miss" { home, index, shard }
    LocCacheStale "loc_cache_stale" { home, index, owner, epoch }
    HomeLookup "home_lookup" { home, index, shard }
    ExecBegin "exec_begin" { home, index, handler }
    ExecFinish "exec_finish" { home, index }
    Poll "poll" { events }
    PollSystem "poll_system" { events }
    PollWake "poll_wake" { events }
    LbRequest "lb_request" { victim, attempt }
    LbRequestRecv "lb_request_recv" { src }
    LbGrant "lb_grant" { dst, units, affine }
    LbGrantRecv "lb_grant_recv" { src, units }
    LbNackSent "lb_nack_sent" { dst }
    LbNackRecv "lb_nack_recv" { src, stale }
    LbVeto "lb_veto" { peer, kind }
    DcsDropped "dcs_dropped" { peer, handler }
    // `seq` is already the record-level sequence key; the frame's own
    // sequence number serializes as `frame` to keep the flat JSON object
    // free of duplicate keys.
    DcsRetry "dcs_retry" { peer, seq = "frame", attempt }
    DcsDuplicate "dcs_duplicate" { peer, handler }
    Span "span" { cat, dur }
    ProcFinish "proc_finish" {}
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
    /// the on-disk format [`Record::from_jsonl`] reads back.
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

    /// Read back one line written by [`Record::to_jsonl`]. `None` when the
    /// line is not a record: an unknown `"ev"`, a missing or extra key, a
    /// value out of range for its field, a non-bool flag.
    pub fn from_jsonl(line: &str) -> Option<Record> {
        let mut f = Fields::parse(line)?;
        let rank = f.value("rank")?;
        let seq = f.value("seq")?;
        let t = f.value("t")?;
        let name = f.take("ev")?.strip_prefix('"')?.strip_suffix('"')?;
        let ev = TraceEvent::read_fields(name, &mut f)?;
        f.0.is_empty().then_some(Record { rank, seq, t, ev })
    }
}

/// The `"key":value` pairs of one flat JSON line, taken out key by key so
/// that what is left over at the end is an extra key.
struct Fields<'a>(Vec<(&'a str, &'a str)>);

impl<'a> Fields<'a> {
    fn parse(line: &'a str) -> Option<Self> {
        let inner = line.trim().strip_prefix('{')?.strip_suffix('}')?;
        inner
            .split(',')
            .map(|pair| {
                let (k, v) = pair.split_once(':')?;
                Some((k.trim().strip_prefix('"')?.strip_suffix('"')?, v.trim()))
            })
            .collect::<Option<_>>()
            .map(Fields)
    }

    fn take(&mut self, key: &str) -> Option<&'a str> {
        let at = self.0.iter().position(|&(k, _)| k == key)?;
        Some(self.0.swap_remove(at).1)
    }

    /// The value under `key`, if it parses as a `T`: an unsigned integer in
    /// `T`'s range, or `true` / `false`.
    fn value<T: FromStr>(&mut self, key: &str) -> Option<T> {
        self.take(key)?.parse().ok()
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
    /// Zeroed slots: the allocator hands back untouched pages, so a ring
    /// costs memory only as far as it is written.
    fn new(capacity: usize) -> Self {
        // SAFETY: all-zero bytes are a valid `Slot`: `ready` is `false` and
        // `data` is `MaybeUninit`, valid whatever its bytes.
        let slots = unsafe { Box::<[Slot]>::new_zeroed_slice(capacity).assume_init() };
        RankRing {
            slots,
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

/// Default per-rank ring capacity (events). A slot is 56 bytes, so the
/// default reserves 1.75 MiB per rank, of which only the written slots'
/// pages are touched; callers recording long runs should size explicitly
/// with [`TraceSink::with_capacity`].
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
    /// format of the harness's `trace-report` binary.
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

    /// Whether this tracer is attached to a sink, for a caller that must
    /// choose its path before it has what the event would carry.
    #[inline]
    pub fn is_on(&self) -> bool {
        self.0.is_some()
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

    /// A field value cut from a drawn `u64`.
    pub(super) trait Drawn {
        fn from_draw(x: u64) -> Self;
    }

    macro_rules! drawn_as {
        ($($t:ty),*) => {$(
            impl Drawn for $t {
                fn from_draw(x: u64) -> Self {
                    x as $t
                }
            }
        )*};
    }
    drawn_as!(u8, u32, u64, usize);

    impl Drawn for bool {
        fn from_draw(x: u64) -> Self {
            x & 1 == 1
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(2048))]

        #[test]
        fn from_jsonl_reads_back_every_record_to_jsonl_writes(
            stamp in (proptest::prelude::any::<usize>(), proptest::prelude::any::<u64>(), proptest::prelude::any::<u64>()),
            values in proptest::collection::vec(proptest::prelude::any::<u64>(), 1..128),
        ) {
            let mut next = values.iter().copied().cycle();
            for ev in TraceEvent::every(&mut || next.next().unwrap_or(0)) {
                let r = Record {
                    rank: stamp.0,
                    seq: stamp.1,
                    t: stamp.2,
                    ev,
                };
                proptest::prop_assert_eq!(Record::from_jsonl(&r.to_jsonl()), Some(r));
            }
        }

        #[test]
        fn from_jsonl_never_panics_on_arbitrary_or_damaged_lines(
            bytes in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..96),
            tag in proptest::prelude::any::<usize>(),
            cut in proptest::prelude::any::<usize>(),
            splice in proptest::prelude::any::<u8>(),
        ) {
            let _ = Record::from_jsonl(&String::from_utf8_lossy(&bytes));
            // A real line, cut short or with one byte replaced.
            let mut events = TraceEvent::every(&mut || 7);
            let ev = events.swap_remove(tag % events.len());
            let line = Record { rank: 1, seq: 2, t: 3, ev }.to_jsonl().into_bytes();
            let at = cut % (line.len() + 1);
            let _ = Record::from_jsonl(&String::from_utf8_lossy(&line[..at]));
            let mut damaged = line.clone();
            damaged[at.min(line.len() - 1)] = splice;
            let _ = Record::from_jsonl(&String::from_utf8_lossy(&damaged));
        }
    }

    #[test]
    fn event_names_are_distinct() {
        let events = TraceEvent::every(&mut || 0);
        let mut names: Vec<&str> = events.iter().map(TraceEvent::name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 26, "{names:?}");
    }

    #[test]
    fn from_jsonl_rejects_an_unknown_event() {
        assert_eq!(
            Record::from_jsonl("{\"rank\":0,\"seq\":0,\"t\":0,\"ev\":\"proc_start\"}"),
            None
        );
    }

    #[test]
    fn from_jsonl_rejects_a_missing_or_an_extra_key() {
        let line =
            "{\"rank\":0,\"seq\":0,\"t\":0,\"ev\":\"lb_request\",\"victim\":1,\"attempt\":0}";
        assert!(Record::from_jsonl(line).is_some());
        let missing = line.replace(",\"attempt\":0", "");
        assert_eq!(Record::from_jsonl(&missing), None);
        let no_seq = line.replace("\"seq\":0,", "");
        assert_eq!(Record::from_jsonl(&no_seq), None);
        let extra = line.replace("}", ",\"units\":2}");
        assert_eq!(Record::from_jsonl(&extra), None);
        let twice = line.replace("}", ",\"attempt\":0}");
        assert_eq!(Record::from_jsonl(&twice), None);
    }

    #[test]
    fn from_jsonl_rejects_a_value_out_of_range_for_its_field() {
        let send = |handler: u64| {
            format!("{{\"rank\":0,\"seq\":0,\"t\":0,\"ev\":\"send\",\"dst\":1,\"handler\":{handler},\"bytes\":8,\"system\":false}}")
        };
        assert!(Record::from_jsonl(&send(u32::MAX.into())).is_some());
        assert_eq!(Record::from_jsonl(&send(u64::from(u32::MAX) + 1)), None);
        let span = |cat: u64| {
            format!("{{\"rank\":0,\"seq\":0,\"t\":0,\"ev\":\"span\",\"cat\":{cat},\"dur\":5}}")
        };
        assert!(Record::from_jsonl(&span(255)).is_some());
        assert_eq!(Record::from_jsonl(&span(256)), None);
        assert_eq!(Record::from_jsonl(&span(1).replace(":1,", ":-1,")), None);
    }

    #[test]
    fn from_jsonl_rejects_a_non_bool_flag() {
        let recv = |system: &str| {
            format!("{{\"rank\":0,\"seq\":0,\"t\":0,\"ev\":\"recv\",\"src\":1,\"handler\":2,\"bytes\":8,\"system\":{system}}}")
        };
        assert!(Record::from_jsonl(&recv("true")).is_some());
        for bad in ["1", "\"true\"", "True", ""] {
            assert_eq!(Record::from_jsonl(&recv(bad)), None, "system:{bad}");
        }
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
