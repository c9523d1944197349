//! The per-rank Mobile Object Layer node.
//!
//! [`MolNode`] owns a rank's [`Communicator`] and implements the three MOL
//! guarantees the paper relies on (§4):
//!
//! 1. **Global name space** — [`MolNode::register`] assigns fresh
//!    [`MobilePtr`]s; a pointer works from any rank, forever.
//! 2. **Transparent migration** — [`MolNode::migrate`] packs an object (plus
//!    its in-flight ordering state) and ships it; the source keeps a forward
//!    pointer so the name never dangles.
//! 3. **Automatic forwarding with preserved order** — messages chase the
//!    object along forward pointers; per-(sender, object) sequence numbers
//!    make delivery order identical to send order regardless of the path
//!    each message took. Lazy location updates collapse forwarding chains.
//!
//! Everything a rank knows about one mobile pointer — residency, the cached
//! location, the forward pointer, the outgoing sequence counter, parked
//! messages — lives in a single `DirEntry` inside one Fx-hashed directory,
//! so the per-message fast paths (send, receive, forward) pay **one** map
//! probe instead of one per concern. This is the MOL half of the O(1)
//! message fast path; the transport half is `prema_dcs::transport`.
//!
//! The node is deliberately *mechanism only*: [`MolNode::poll`] returns
//! [`MolEvent`]s and the layer above (the ILB scheduler / the `prema` facade)
//! decides when to execute them. That split is what lets PREMA process
//! system-generated load-balancing traffic preemptively
//! ([`MolNode::poll_system`]) without ever running application handlers
//! behind the application's back.

use crate::directory::{
    shard_of, LocCache, ShardAuthority, CHAIN_HIST_BUCKETS, LOC_CACHE_DEFAULT, REPAIR_HOPS,
};
use crate::migrate::Migratable;
use crate::proto::{
    frame_records, Frame, MigratePacket, MolEnvelope, Wire, FRAME_CAP, H_MOL_MIGRATE,
};
use crate::ptr::{MobilePtr, PtrAllocator};
use crate::ready::{Queued, ReadyIndex, NO_LANE};
use bytes::Bytes;
use prema_dcs::{env, pool, Communicator, Envelope, FxHashMap, Rank, Tag};
use prema_trace::{TraceEvent, Tracer};
use std::collections::BTreeMap;

/// MOL sizing. Location resolution itself has no knobs: every node runs the
/// sharded directory of DESIGN.md §16 (constant chain bound, lazy teaching
/// through piggybacked answers), with forward pointers as the loss-recovery
/// trail.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MolConfig {
    /// Capacity (entries) of the bounded sender-side location cache.
    /// Overridden by `PREMA_LOC_CACHE` in [`MolNode::new`].
    pub loc_cache: usize,
}

impl Default for MolConfig {
    fn default() -> Self {
        MolConfig {
            loc_cache: LOC_CACHE_DEFAULT,
        }
    }
}

impl MolConfig {
    /// Apply the environment knob (`PREMA_LOC_CACHE`) on top of this config,
    /// through `dcs::env`'s validated warn-once parser. Called by
    /// [`MolNode::new`]; [`MolNode::with_config`] deliberately does not, so
    /// tests and benches that pass an explicit config stay
    /// environment-independent.
    pub fn from_env(mut self) -> Self {
        if let Some(cap) = env::usize_var("PREMA_LOC_CACHE") {
            // Floor of 2: the two-generation cache needs one entry per
            // generation to function at all.
            self.loc_cache = cap.max(2);
        }
        self
    }
}

/// Counters describing a node's MOL activity.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MolStats {
    /// Object messages sent from this rank.
    pub sent: u64,
    /// Object messages delivered to local objects.
    pub delivered: u64,
    /// Object messages forwarded because the target had migrated away.
    pub forwarded: u64,
    /// Objects migrated out.
    pub migrations_out: u64,
    /// Objects installed via migration.
    pub migrations_in: u64,
    /// Location updates sent.
    pub locupd_sent: u64,
    /// Messages buffered out-of-order (sequence gap) at arrival.
    pub reordered: u64,
    /// Duplicate object messages dropped (sequence number already consumed).
    /// Always zero on a reliable wire.
    pub duplicates: u64,
    /// Migration packets dropped because their epoch was not newer than what
    /// this rank already knew (a replayed or duplicated packet). Always zero
    /// on a reliable wire.
    pub stale_installs: u64,
    /// Sends/resolves answered by local knowledge (location cache or a
    /// forward pointer) — the message went out directly.
    pub loc_cache_hits: u64,
    /// Sends/resolves with no local knowledge — routed to the birth rank
    /// (sends) or asked of the home shard (resolves).
    pub loc_cache_misses: u64,
    /// Times this rank's cached guess proved stale (a forwarder or the home
    /// shard sent back a newer-epoch correction).
    pub loc_cache_stale: u64,
    /// Explicit `DirLookup` queries sent to a home shard.
    pub home_lookups: u64,
    /// `DirPublish` messages sent to home shards (migrations + repairs).
    pub dir_publishes: u64,
    /// Wire envelopes dropped because their DCS handler id is not one of
    /// the MOL's or their payload does not decode (malformed or hostile
    /// traffic; dropping beats aborting the rank).
    pub dropped_wire: u64,
    /// Longest forwarding chain of any message delivered on this rank.
    pub max_chain: u32,
    /// Histogram of delivered forwarding-chain lengths: bucket `i` counts
    /// messages accepted after exactly `i` hops; the last bucket counts
    /// "that long or longer".
    pub chain_hist: [u64; CHAIN_HIST_BUCKETS],
}

impl MolStats {
    fn note_chain(&mut self, hops: u32) {
        self.max_chain = self.max_chain.max(hops);
        self.chain_hist[(hops as usize).min(CHAIN_HIST_BUCKETS - 1)] += 1;
    }

    /// The `q`-quantile (`0.0..=1.0`) of the delivered chain-length
    /// histogram, in hops. Returns 0 when nothing has been delivered. The
    /// last bucket is open-ended, so a result of
    /// `CHAIN_HIST_BUCKETS - 1` means "at least that many".
    pub fn chain_percentile(&self, q: f64) -> u32 {
        let total: u64 = self.chain_hist.iter().sum();
        if total == 0 {
            return 0;
        }
        let want = ((total as f64) * q.clamp(0.0, 1.0)).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (hops, &n) in self.chain_hist.iter().enumerate() {
            seen += n;
            if seen >= want {
                return hops as u32;
            }
        }
        (CHAIN_HIST_BUCKETS - 1) as u32
    }

    /// Fraction of location consultations answered locally
    /// (`hits / (hits + misses)`); 1.0 when nothing was consulted.
    pub fn loc_hit_rate(&self) -> f64 {
        let total = self.loc_cache_hits + self.loc_cache_misses;
        if total == 0 {
            1.0
        } else {
            self.loc_cache_hits as f64 / total as f64
        }
    }
}

/// What [`MolNode::poll`] hands to the layer above.
#[derive(Debug)]
pub enum MolEvent {
    /// A message for a local object, delivered in per-sender send order.
    /// Execute it with [`MolNode::with_object`].
    Object {
        /// Target object.
        ptr: MobilePtr,
        /// Original sender.
        sender: Rank,
        /// Application handler id.
        handler: u32,
        /// Application payload.
        payload: Bytes,
    },
    /// A rank-targeted message (e.g. load-balancer traffic).
    Node {
        /// Sender rank.
        src: Rank,
        /// Application/runtime handler id.
        handler: u32,
        /// Payload.
        payload: Bytes,
        /// Whether it was sent with [`Tag::System`].
        system: bool,
    },
    /// An object just arrived via migration and is now local.
    Installed {
        /// The object.
        ptr: MobilePtr,
        /// The rank it came from.
        from: Rank,
    },
}

/// Residency state of a *local* object: the object itself plus the in-flight
/// ordering state that travels with it on migration.
struct Entry<O> {
    /// The object itself; `None` while detached for execution
    /// ([`MolNode::take_object`]). A detached object still receives and
    /// orders messages, but cannot migrate — PREMA never migrates an
    /// executing work unit (§4.2).
    obj: Option<O>,
    /// Migration epoch: number of times this object has moved.
    epoch: u64,
    /// Next expected sequence number per original sender.
    expected: FxHashMap<Rank, u64>,
    /// Out-of-order buffer per original sender.
    ooo: FxHashMap<Rank, BTreeMap<u64, MolEnvelope>>,
    /// The [`ReadyIndex`] lane that last accounted for this object's queued
    /// messages ([`NO_LANE`] before the first), remembered here so a push
    /// finds it without a lookup.
    lane: u32,
}

impl<O> Entry<O> {
    fn new(obj: O, epoch: u64, expected: FxHashMap<Rank, u64>) -> Self {
        Entry {
            obj: Some(obj),
            epoch,
            expected,
            ooo: FxHashMap::default(),
            lane: NO_LANE,
        }
    }
}

/// Everything this rank knows about one mobile pointer, unified so the
/// per-message paths pay a single directory probe. An earlier design kept
/// four parallel maps (`objects`, `location`, `forwards`, `seq_out`) and
/// probed each per message.
struct DirEntry<O> {
    /// `Some` iff the object is resident on this rank.
    entry: Option<Entry<O>>,
    /// Forward pointer left behind when the object migrated away from here.
    /// Correctness state (the trail that makes every name reachable even
    /// when all caches and publishes are lost), so it is never evicted —
    /// unlike cached third-party locations, which live in the bounded
    /// [`LocCache`].
    forward: Option<(Rank, u64)>,
    /// Outgoing sequence counter for messages this rank sends to the object.
    /// Survives migrations — the counter is per (sender rank, object), not
    /// per residency.
    seq_out: u64,
    /// Messages parked (at the home rank or home shard) until the object's
    /// location is known.
    limbo: Vec<MolEnvelope>,
}

// Manual impl: `derive(Default)` would needlessly require `O: Default`.
impl<O> Default for DirEntry<O> {
    fn default() -> Self {
        DirEntry {
            entry: None,
            forward: None,
            seq_out: 0,
            limbo: Vec::new(),
        }
    }
}

/// What accepting a message touches besides its target's [`Entry`]: the
/// node's other fields, borrowed apart from the directory by
/// [`MolNode::dir_entry`] so the caller holding the entry from that one
/// probe needs no second.
struct Accept<'a> {
    ready: &'a mut ReadyIndex,
    consumed: &'a mut [u64],
    stats: &'a mut MolStats,
    tracer: &'a Tracer,
    #[cfg(feature = "check-invariants")]
    oracle: &'a mut crate::oracle::NodeOracle,
}

impl Accept<'_> {
    /// Accept `env` into its resident target's `entry`: queue it if it is
    /// the next in its sender's order (with any buffered successors it
    /// unblocks), buffer it if it is early, drop it if it is a duplicate.
    fn accept<O>(self, entry: &mut Entry<O>, env: MolEnvelope) {
        let exp = entry.expected.entry(env.sender).or_insert(0);
        use std::cmp::Ordering::*;
        match env.seq.cmp(exp) {
            Equal => {
                let before = *exp;
                *exp += 1;
                let (sender, target) = (env.sender, env.target);
                self.stats.note_chain(env.hops);
                self.ready.push(&mut entry.lane, target, env.into());
                #[cfg(feature = "check-invariants")]
                self.oracle.on_accept();
                // Drain any now-in-order buffered messages from this sender.
                if let Some(buf) = entry.ooo.get_mut(&sender) {
                    while let Some(next) = buf.remove(exp) {
                        *exp += 1;
                        self.stats.note_chain(next.hops);
                        self.ready.push(&mut entry.lane, target, next.into());
                        #[cfg(feature = "check-invariants")]
                        self.oracle.on_accept();
                    }
                    if buf.is_empty() {
                        entry.ooo.remove(&sender);
                    }
                }
                if let Some(total) = self.consumed.get_mut(sender) {
                    *total = total.wrapping_add(*exp - before);
                }
            }
            Greater => {
                self.stats.reordered += 1;
                entry
                    .ooo
                    .entry(env.sender)
                    .or_default()
                    .insert(env.seq, env);
            }
            Less => {
                // Duplicate: this sequence number was already consumed. On a
                // reliable wire this cannot happen; under an unreliable one
                // (chaos without the reliable shim) dropping it is exactly
                // the idempotency the sequence numbers exist to provide.
                self.stats.duplicates += 1;
                let peer = env.sender;
                self.tracer.emit(|| TraceEvent::DcsDuplicate {
                    peer,
                    handler: env.handler,
                });
            }
        }
    }
}

/// A routing decision for a message that is not deliverable locally.
#[derive(Clone, Copy, Debug)]
struct Route {
    /// Where to send it.
    dst: Rank,
    /// The `(owner, epoch)` knowledge backing the choice, if any — what a
    /// forwarder piggybacks back to the original sender.
    know: Option<(Rank, u64)>,
    /// Whether authoritative shard information has now routed this message
    /// (propagated into [`MolEnvelope::anchored`]).
    anchored: bool,
    /// Epoch of the knowledge backing this decision (propagated into
    /// [`MolEnvelope::route_epoch`]): later hops may only follow knowledge
    /// at least this fresh, keeping chains monotone in migration history.
    epoch: u64,
}

/// Freshest of two optional `(owner, epoch)` facts.
fn fresher(a: Option<(Rank, u64)>, b: Option<(Rank, u64)>) -> Option<(Rank, u64)> {
    match (a, b) {
        (Some((ar, ae)), Some((_, be))) if ae >= be => Some((ar, ae)),
        (_, Some(b)) => Some(b),
        (a, None) => a,
    }
}

/// Fold one object's per-sender consumed counts into (`wrapping_add`: it was
/// installed) or out of (`wrapping_sub`: it was packed out) the rank's
/// per-peer totals. Wrapping, because an installed packet's counts come off
/// the wire: what went in comes out again exactly, whatever it was.
fn note_consumed(totals: &mut [u64], expected: &FxHashMap<Rank, u64>, fold: fn(u64, u64) -> u64) {
    for (&src, &n) in expected {
        if let Some(total) = totals.get_mut(src) {
            *total = fold(*total, n);
        }
    }
}

/// The per-rank MOL runtime. Generic over the application's mobile object
/// type `O`; applications with several kinds of objects use an enum.
///
/// ```
/// use prema_dcs::{Communicator, LocalFabric};
/// use prema_mol::{Migratable, MolEvent, MolNode};
/// use bytes::Bytes;
///
/// struct Counter(u64);
/// impl Migratable for Counter {
///     fn pack(&self, buf: &mut Vec<u8>) { buf.extend(self.0.to_le_bytes()); }
///     fn unpack(b: &[u8]) -> Self { Counter(u64::from_le_bytes(b[..8].try_into().unwrap())) }
/// }
///
/// // Two ranks on one thread for illustration.
/// let mut eps = LocalFabric::new(2).into_iter();
/// let mut a: MolNode<Counter> = MolNode::new(Communicator::new(Box::new(eps.next().unwrap())));
/// let mut b: MolNode<Counter> = MolNode::new(Communicator::new(Box::new(eps.next().unwrap())));
///
/// let ptr = a.register(Counter(0));
/// assert!(a.migrate(ptr, 1));              // move the object to rank 1...
/// a.message(ptr, 7, Bytes::new());          // ...and message it by name.
/// let _ = a.poll();                         // (routes the send)
/// let events = b.poll();                    // rank 1 installs + receives
/// assert!(events.iter().any(|e| matches!(e, MolEvent::Object { handler: 7, .. })));
/// assert!(b.is_local(ptr));
/// ```
pub struct MolNode<O: Migratable> {
    comm: Communicator,
    alloc: PtrAllocator,
    /// The unified per-pointer directory (see [`DirEntry`]).
    directory: FxHashMap<MobilePtr, DirEntry<O>>,
    /// Bounded sender-side location cache (DESIGN.md §16).
    cache: LocCache,
    /// Shard-side location authority for the pointers this rank is the home
    /// shard of.
    authority: ShardAuthority,
    /// Number of directory entries with a resident object (kept so
    /// [`MolNode::local_count`] — called per scheduling decision — does not
    /// scan the directory).
    resident: usize,
    /// In-order messages awaiting execution, in arrival order, with their
    /// count and weight — overall and per object — kept up to date.
    ready: ReadyIndex,
    /// Messages the resident objects have consumed from each rank of the
    /// machine: the sum of their `expected` maps, kept as they change (a
    /// message accepted, an object packed out or installed) so
    /// [`MolNode::interactions_with`] never walks the directory. A sender
    /// outside the machine — only a corrupt frame names one — is no peer and
    /// is left out.
    consumed: Vec<u64>,
    /// The open `H_MOL_MSG` frame of each peer: the records
    /// [`MolNode::stage_message`] has staged for it and not yet sent.
    frames: Vec<Option<Frame>>,
    stats: MolStats,
    tracer: Tracer,
    /// Shadow state asserting ordering/conservation invariants (see
    /// [`crate::oracle`]).
    #[cfg(feature = "check-invariants")]
    oracle: crate::oracle::NodeOracle,
}

impl<O: Migratable> MolNode<O> {
    /// Build a node over a communicator endpoint with the default cache
    /// size, with the `PREMA_LOC_CACHE` environment knob applied.
    pub fn new(comm: Communicator) -> Self {
        Self::with_config(comm, MolConfig::default().from_env())
    }

    /// Build a node with an explicit config (no environment overrides — what
    /// you pass is what runs).
    pub fn with_config(comm: Communicator, cfg: MolConfig) -> Self {
        let rank = comm.rank();
        let consumed = vec![0; comm.nprocs()];
        let frames = std::iter::repeat_with(|| None)
            .take(comm.nprocs())
            .collect();
        MolNode {
            comm,
            alloc: PtrAllocator::new(rank),
            directory: FxHashMap::default(),
            cache: LocCache::new(cfg.loc_cache),
            authority: ShardAuthority::default(),
            resident: 0,
            ready: ReadyIndex::default(),
            consumed,
            frames,
            stats: MolStats::default(),
            tracer: Tracer::off(),
            #[cfg(feature = "check-invariants")]
            oracle: crate::oracle::NodeOracle::default(),
        }
    }

    /// Attach a trace recorder, propagated down to the communicator so the
    /// rank's substrate traffic is recorded too.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.comm.set_tracer(tracer.clone());
        self.tracer = tracer;
    }

    /// This rank.
    pub fn rank(&self) -> Rank {
        self.comm.rank()
    }

    /// Machine size.
    pub fn nprocs(&self) -> usize {
        self.comm.nprocs()
    }

    /// MOL activity counters.
    pub fn stats(&self) -> MolStats {
        self.stats
    }

    /// Access the underlying communicator (traffic counters etc.).
    pub fn comm(&self) -> &Communicator {
        &self.comm
    }

    // ---- name space & object store -------------------------------------

    /// Register a new mobile object, returning its global name.
    pub fn register(&mut self, obj: O) -> MobilePtr {
        let ptr = self.alloc.alloc();
        let d = self.directory.entry(ptr).or_default();
        d.entry = Some(Entry::new(obj, 0, FxHashMap::default()));
        self.resident += 1;
        ptr
    }

    /// Whether `ptr` currently lives on this rank.
    pub fn is_local(&self, ptr: MobilePtr) -> bool {
        self.directory.get(&ptr).is_some_and(|d| d.entry.is_some())
    }

    /// Number of local objects.
    pub fn local_count(&self) -> usize {
        self.resident
    }

    /// The names of all local objects (unspecified order).
    pub fn local_ptrs(&self) -> Vec<MobilePtr> {
        self.directory
            .iter()
            .filter(|(_, d)| d.entry.is_some())
            .map(|(p, _)| *p)
            .collect()
    }

    /// Borrow a local object (`None` if remote or currently detached).
    pub fn get(&self, ptr: MobilePtr) -> Option<&O> {
        self.directory
            .get(&ptr)
            .and_then(|d| d.entry.as_ref())
            .and_then(|e| e.obj.as_ref())
    }

    /// Mutably borrow a local object (`None` if remote or detached).
    pub fn get_mut(&mut self, ptr: MobilePtr) -> Option<&mut O> {
        self.directory
            .get_mut(&ptr)
            .and_then(|d| d.entry.as_mut())
            .and_then(|e| e.obj.as_mut())
    }

    /// Detach a local object for execution. While detached the object keeps
    /// receiving (and ordering) messages but [`MolNode::migrate`] refuses to
    /// move it — PREMA never migrates an executing work unit (§4.2). Pair
    /// with [`MolNode::put_object`].
    pub fn take_object(&mut self, ptr: MobilePtr) -> Option<O> {
        self.directory
            .get_mut(&ptr)
            .and_then(|d| d.entry.as_mut())
            .and_then(|e| e.obj.take())
    }

    /// Re-attach an object detached by [`MolNode::take_object`].
    pub fn put_object(&mut self, ptr: MobilePtr, obj: O) {
        let entry = self
            .directory
            .get_mut(&ptr)
            .and_then(|d| d.entry.as_mut())
            .expect("put_object for an object that is not resident");
        assert!(entry.obj.is_none(), "put_object over a present object");
        entry.obj = Some(obj);
    }

    /// Run `f` with mutable access to a local object *and* the node, so the
    /// body can send further MOL messages (the paper's handler execution
    /// model). Returns `None` if `ptr` is not local or already detached.
    ///
    /// The body must not migrate `ptr` itself — [`MolNode::migrate`] will
    /// return `false` for a detached object.
    pub fn with_object<R>(
        &mut self,
        ptr: MobilePtr,
        f: impl FnOnce(&mut Self, &mut O) -> R,
    ) -> Option<R> {
        let mut obj = self.take_object(ptr)?;
        let r = f(self, &mut obj);
        self.put_object(ptr, obj);
        Some(r)
    }

    // ---- messaging ------------------------------------------------------

    /// Send an application message to a mobile object, wherever it lives.
    /// `handler` is an application-level id dispatched by the caller when the
    /// message comes back out of [`MolNode::poll`] at the destination. A
    /// remote target's message leaves at once, as a frame of its own.
    pub fn message(&mut self, ptr: MobilePtr, handler: u32, payload: Bytes) {
        self.message_with_hint(ptr, handler, 1.0, payload);
    }

    /// [`MolNode::message`] with an explicit computational-weight hint for
    /// the load balancer (the paper's programmer-supplied hints, §2).
    ///
    /// One directory probe covers the sequence-number bump, residency, the
    /// local accept, and the trail knowledge feeding the routing decision;
    /// the bounded location cache is one further O(1) probe on the remote
    /// path.
    pub fn message_with_hint(&mut self, ptr: MobilePtr, handler: u32, hint: f64, payload: Bytes) {
        self.send_object(ptr, handler, hint, payload, false);
    }

    /// [`MolNode::message_with_hint`] for a sender that polls, as the ILB
    /// scheduler does after a handler returns (DESIGN.md §11). A local
    /// target accepts the message at once; a remote one gets it as a record
    /// appended to that peer's open `H_MOL_MSG` [`Frame`]. The frame is sent
    /// at the end of this node's next [`MolNode::pump`], [`MolNode::poll`]
    /// or [`MolNode::poll_system`], after the pass has drained the wire, so
    /// it shares the pass's [`Communicator::flush`] with every reply the
    /// pass sends; before any other send to that peer (so the pair's FIFO
    /// order is the order of the sends); as soon as it is full; and at
    /// [`MolNode::flush`]. Routing, sequence number and counters are settled
    /// here, as for an eager send.
    pub fn stage_message(&mut self, ptr: MobilePtr, handler: u32, hint: f64, payload: Bytes) {
        self.send_object(ptr, handler, hint, payload, true);
    }

    /// Send every open frame (see [`MolNode::stage_message`]), in rank
    /// order.
    pub fn flush(&mut self) {
        for dst in 0..self.frames.len() {
            self.flush_to(dst);
        }
    }

    /// Send `dst`'s open frame, if it has one.
    fn flush_to(&mut self, dst: Rank) {
        if let Some(frame) = self.frames.get_mut(dst).and_then(Option::take) {
            let frame = Wire::Msg(frame.finish());
            self.comm
                .am_send(dst, frame.id(), frame.tag(), frame.encode());
        }
    }

    /// Every send of this node but a staged record: `dst`'s open frame goes
    /// first.
    fn send(&mut self, dst: Rank, msg: Wire) {
        self.flush_to(dst);
        self.comm.am_send(dst, msg.id(), msg.tag(), msg.encode());
    }

    /// Append `env` to `dst`'s open frame, opening one if there is none
    /// and sending the old one first if `env` does not fit, and send the
    /// frame once it is full. A record too large for any frame goes alone.
    fn stage(&mut self, dst: Rank, env: &MolEnvelope) {
        if env.wire_len() > FRAME_CAP || dst >= self.frames.len() {
            return self.send(dst, Wire::Msg(env.encode()));
        }
        if self.frames[dst].as_ref().is_some_and(|f| !f.fits(env)) {
            self.flush_to(dst);
        }
        let frame = self.frames[dst].get_or_insert_with(Frame::new);
        frame.push(env);
        if frame.is_full() {
            self.flush_to(dst);
        }
    }

    /// The body of [`MolNode::message_with_hint`] and
    /// [`MolNode::stage_message`]: `stage` picks how a remote message leaves.
    fn send_object(
        &mut self,
        ptr: MobilePtr,
        handler: u32,
        hint: f64,
        payload: Bytes,
        stage: bool,
    ) {
        assert!(!ptr.is_null(), "message to NULL mobile pointer");
        let me = self.comm.rank();
        self.stats.sent += 1;
        let (d, acc) = self.dir_entry(ptr);
        let seq = d.seq_out;
        d.seq_out += 1;
        let mut env = MolEnvelope {
            target: ptr,
            sender: me,
            seq,
            handler,
            hops: 0,
            anchored: false,
            route_epoch: 0,
            hint,
            payload,
        };
        if let Some(entry) = &mut d.entry {
            acc.accept(entry, env);
            return;
        }
        let fwd = d.forward;
        match self.plan_route(ptr, fwd, false, 0, true) {
            Some(route) => {
                if route.know.is_some() {
                    self.stats.loc_cache_hits += 1;
                    self.tracer.emit(|| TraceEvent::LocCacheHit {
                        home: ptr.home,
                        index: ptr.index,
                        owner: route.dst,
                    });
                } else {
                    self.stats.loc_cache_misses += 1;
                    self.tracer.emit(|| TraceEvent::LocCacheMiss {
                        home: ptr.home,
                        index: ptr.index,
                        shard: route.dst,
                    });
                }
                env.anchored = route.anchored;
                env.route_epoch = route.epoch;
                if stage {
                    self.stage(route.dst, &env);
                } else {
                    self.send(route.dst, Wire::Msg(env.encode()));
                }
            }
            None => {
                // We are the home (and shard) and have never seen the
                // object: park the message until a publish or installation.
                self.directory
                    .get_mut(&ptr)
                    .expect("entry created above")
                    .limbo
                    .push(env);
            }
        }
    }

    /// Resolve a mobile pointer to this rank's best idea of its current
    /// owner. Resident objects and cache/trail hits answer immediately; a
    /// miss sends a `DirLookup` to the pointer's home shard and returns
    /// `None` — the answer lands in the cache during a later poll, after
    /// which `resolve` hits.
    pub fn resolve(&mut self, ptr: MobilePtr) -> Option<Rank> {
        assert!(!ptr.is_null(), "resolve of NULL mobile pointer");
        let me = self.comm.rank();
        if self.is_local(ptr) {
            return Some(me);
        }
        let fwd = self.directory.get(&ptr).and_then(|d| d.forward);
        if let Some((owner, _)) = fresher(fwd, self.cache.get(ptr)) {
            if owner != me {
                self.stats.loc_cache_hits += 1;
                self.tracer.emit(|| TraceEvent::LocCacheHit {
                    home: ptr.home,
                    index: ptr.index,
                    owner,
                });
                return Some(owner);
            }
            // Knowledge says "here" but the object is not resident: it is in
            // flight toward us — fall through to the miss path.
        }
        self.stats.loc_cache_misses += 1;
        let shard = shard_of(ptr, self.comm.nprocs());
        self.tracer.emit(|| TraceEvent::LocCacheMiss {
            home: ptr.home,
            index: ptr.index,
            shard,
        });
        if shard == me {
            return match self.authority.lookup(ptr) {
                Some((owner, _)) if owner != me => Some(owner),
                Some(_) => None,
                None => Some(ptr.home).filter(|&h| h != me),
            };
        }
        self.stats.home_lookups += 1;
        self.tracer.emit(|| TraceEvent::HomeLookup {
            home: ptr.home,
            index: ptr.index,
            shard,
        });
        self.send(shard, Wire::DirLookup { ptr, epoch: 0 });
        None
    }

    /// Send a rank-targeted message (bypasses object routing). System-tagged
    /// messages are visible to [`MolNode::poll_system`].
    pub fn node_message(&mut self, dst: Rank, handler: u32, tag: Tag, payload: Bytes) {
        let msg = Wire::Node {
            handler,
            payload,
            system: tag == Tag::System,
        };
        self.send(dst, msg);
    }

    /// Route a (re-)considered envelope: accept locally, send toward the best
    /// guess, or park in limbo. Used when limbo messages are unlocked; the
    /// send path inlines the same logic next to its sequence bump.
    fn route(&mut self, mut env: MolEnvelope) {
        let ptr = env.target;
        let (d, acc) = self.dir_entry(ptr);
        if let Some(entry) = &mut d.entry {
            acc.accept(entry, env);
            return;
        }
        let fwd = d.forward;
        match self.plan_route(ptr, fwd, env.anchored, env.route_epoch, true) {
            Some(route) => {
                env.anchored = route.anchored;
                env.route_epoch = route.epoch;
                self.send(route.dst, Wire::Msg(env.encode()));
            }
            None => self
                .directory
                .get_mut(&ptr)
                .expect("entry created above")
                .limbo
                .push(env),
        }
    }

    /// The routing decision for a message (or resolve) whose target is not
    /// resident here. `fwd` is this rank's forward pointer for the target
    /// (from the directory probe the caller already paid), `anchored` /
    /// `route_epoch` the envelope's routing state, and `origin` whether this
    /// rank is sending fresh / re-routing parked traffic (as opposed to
    /// forwarding a message received off the wire).
    ///
    /// The shape (DESIGN.md §16):
    /// * at the home shard, the authority answers — and the message becomes
    ///   *anchored*, stamped with the answer's epoch;
    /// * an anchored message that still misses follows this rank's own
    ///   knowledge, but only if it is at least as fresh as the stamp — older
    ///   knowledge would walk *backward* in migration history (the
    ///   ping-pong a stale cache entry can cause), so the message parks in
    ///   limbo instead until the in-flight install or a fresher answer
    ///   arrives. Anchored messages never return to the shard, which is
    ///   what keeps shard routing loop-free;
    /// * an unanchored *forwarded* message is redirected through the shard
    ///   rather than down this rank's trail — one bounded redirect instead
    ///   of a history-length walk;
    /// * an unanchored *fresh* send uses local knowledge (cache/trail hit),
    ///   falling back on a cold miss to the birth rank — always a safe
    ///   epoch-0 guess, cached at the sender so it pays at most one miss
    ///   per object: either the guess is right (the 1-hop fast path) or
    ///   the birth rank heads the forwarding trail and the shard's
    ///   correction overwrites it.
    ///
    /// `None` means "park in limbo": this rank is where the knowledge chain
    /// ends (home/shard with nothing recorded, or the object is in flight
    /// toward this very rank).
    fn plan_route(
        &mut self,
        ptr: MobilePtr,
        fwd: Option<(Rank, u64)>,
        anchored: bool,
        route_epoch: u64,
        origin: bool,
    ) -> Option<Route> {
        let me = self.comm.rank();
        let know = fresher(fwd, self.cache.get(ptr));
        let shard = shard_of(ptr, self.comm.nprocs());
        if me == shard {
            let best = fresher(know, self.authority.lookup(ptr));
            return match best {
                Some((r, e)) if r != me => Some(Route {
                    dst: r,
                    know: best,
                    anchored: true,
                    epoch: e,
                }),
                Some(_) => None, // in flight toward us: limbo until install
                // Nothing recorded means the object never migrated, so it
                // lives at its birth rank — an authoritative answer (the
                // same fallback `answer_lookup` gives), carried as `know`
                // so the forward path teaches the sender and its next
                // message skips the shard entirely.
                None => Some(Route {
                    dst: ptr.home,
                    know: Some((ptr.home, 0)),
                    anchored: true,
                    epoch: 0,
                })
                .filter(|r| r.dst != me),
            };
        }
        if anchored {
            return match know {
                Some((r, e)) if r != me && e >= route_epoch => Some(Route {
                    dst: r,
                    know,
                    anchored: true,
                    epoch: e,
                }),
                Some(_) => None,
                None if route_epoch == 0 => Some(Route {
                    dst: ptr.home,
                    know: None,
                    anchored: true,
                    epoch: 0,
                })
                .filter(|r| r.dst != me),
                // The stamp names an owner this rank has not heard of yet:
                // the install (or a fresher answer) is in flight. Park.
                None => None,
            };
        }
        if origin {
            return match know {
                Some((r, e)) if r != me => Some(Route {
                    dst: r,
                    know,
                    anchored: false,
                    epoch: e,
                }),
                Some(_) => None,
                // Cold miss: "never migrated, so it lives at its birth
                // rank" is always a safe epoch-0 guess — cache it so the
                // next send hits. Right, it is the 1-hop fast path; wrong,
                // the birth rank heads the trail and redirects through the
                // shard, whose answer overwrites the guess.
                None => {
                    if ptr.home != me {
                        self.cache.insert_max(ptr, ptr.home, 0);
                    }
                    Some(Route {
                        dst: ptr.home,
                        know: None,
                        anchored: false,
                        epoch: 0,
                    })
                    .filter(|r| r.dst != me)
                }
            };
        }
        // Forwarding an unanchored message: the sender's guess was stale.
        // Redirect through the shard — the constant-bound step.
        Some(Route {
            dst: shard,
            know,
            anchored: false,
            epoch: 0,
        })
    }

    /// One directory probe: `ptr`'s entry (created empty if this rank has
    /// none) and, borrowed beside it, what accepting a message into it
    /// touches.
    fn dir_entry(&mut self, ptr: MobilePtr) -> (&mut DirEntry<O>, Accept<'_>) {
        let d = self.directory.entry(ptr).or_default();
        let acc = Accept {
            ready: &mut self.ready,
            consumed: &mut self.consumed,
            stats: &mut self.stats,
            tracer: &self.tracer,
            #[cfg(feature = "check-invariants")]
            oracle: &mut self.oracle,
        };
        (d, acc)
    }

    /// Accept `env` if its target is resident here; hand it back if not.
    fn accept_local(&mut self, env: MolEnvelope) -> Result<(), MolEnvelope> {
        let (d, acc) = self.dir_entry(env.target);
        let Some(entry) = &mut d.entry else {
            return Err(env);
        };
        acc.accept(entry, env);
        Ok(())
    }

    // ---- migration ------------------------------------------------------

    /// Uninstall a local object and ship it to `dst`. In-flight ordering
    /// state and queued messages travel with it (moved, not copied); this
    /// rank keeps a forward pointer so stale sends still find the object.
    ///
    /// Returns `false` if `ptr` is not local (e.g. it already migrated) or is
    /// currently detached for execution — an executing work unit must finish
    /// before it can move (§4.2).
    pub fn migrate(&mut self, ptr: MobilePtr, dst: Rank) -> bool {
        assert_ne!(dst, self.comm.rank(), "migrate to self");
        let Some(d) = self.directory.get_mut(&ptr) else {
            return false;
        };
        if d.entry.as_ref().is_none_or(|e| e.obj.is_none()) {
            return false;
        }
        let entry = d
            .entry
            .take()
            .expect("presence checked just above with no intervening mutation");
        self.resident -= 1;
        note_consumed(&mut self.consumed, &entry.expected, u64::wrapping_sub);
        // The object's accepted-but-unexecuted messages leave with it, in
        // order, taken from the ready queue by position.
        let pending = self.ready.take_all(entry.lane, ptr, &entry.expected);
        let buffered: Vec<MolEnvelope> = entry
            .ooo
            .into_values()
            .flat_map(|m| m.into_values())
            .collect();
        #[cfg(feature = "check-invariants")]
        self.oracle.on_migrate_out(ptr, pending.len());
        let epoch = entry.epoch + 1;
        let obj = entry
            .obj
            .as_ref()
            .expect("obj is Some: is_none_or guard above");
        let packet = MigratePacket {
            ptr,
            epoch,
            // Packed into a pooled scratch buffer: migrations under churn
            // reuse the same allocation instead of growing a fresh Vec.
            object: pool::build(64, |buf| obj.pack(buf)),
            expected: entry.expected.into_iter().collect(),
            pending,
            buffered,
        };
        d.forward = Some((dst, epoch));
        self.cache.remove(ptr);
        self.stats.migrations_out += 1;
        self.tracer.emit(|| TraceEvent::Migrate {
            home: ptr.home,
            index: ptr.index,
            dst,
        });
        self.send(dst, Wire::Migrate(packet));
        // Publish the move to the pointer's home shard so cold senders and
        // stale-send redirects resolve in one bounded hop (DESIGN.md §16).
        let shard = shard_of(ptr, self.comm.nprocs());
        if shard == self.comm.rank() {
            self.publish_local(ptr, dst, epoch);
        } else {
            self.stats.dir_publishes += 1;
            let owner = dst;
            self.send(shard, Wire::DirPublish { ptr, owner, epoch });
        }
        #[cfg(feature = "check-invariants")]
        self.verify_conservation();
        true
    }

    /// Merge a publish into this rank's shard authority; a freshly advanced
    /// location releases limbo traffic.
    fn publish_local(&mut self, ptr: MobilePtr, owner: Rank, epoch: u64) {
        if !self.authority.publish(ptr, owner, epoch) {
            return;
        }
        if let Some(d) = self.directory.get_mut(&ptr) {
            let parked = std::mem::take(&mut d.limbo);
            for env in parked {
                self.route(env);
            }
        }
    }

    fn install(&mut self, from: Rank, packet: MigratePacket) -> Option<MolEvent> {
        let ptr = packet.ptr;
        // Replay guard: every genuine migration carries a strictly newer
        // epoch, so a packet whose epoch is not beyond everything this rank
        // knows about the object is a duplicate or a stale retransmission.
        // Installing it would resurrect an object that already moved on (or
        // double-install one that is resident) — drop it before the oracle,
        // whose history model assumes only genuine installs.
        let prior_epoch = {
            // Cached knowledge naming *this* rank at exactly the packet's
            // epoch is the publish or answer for this very install racing
            // ahead of the packet — it predicts the install rather than
            // superseding it, so it must not trip the replay guard.
            let me = self.comm.rank();
            let cached = self
                .cache
                .peek(ptr)
                .filter(|&(owner, e)| !(owner == me && e == packet.epoch))
                .map(|(_, e)| e);
            self.directory
                .get(&ptr)
                .and_then(|d| {
                    d.forward
                        .map(|(_, e)| e)
                        .into_iter()
                        .chain(d.entry.as_ref().map(|e| e.epoch))
                        .max()
                })
                .into_iter()
                .chain(cached)
                .max()
        };
        if prior_epoch.is_some_and(|prior| packet.epoch <= prior) {
            self.stats.stale_installs += 1;
            self.tracer.emit(|| TraceEvent::DcsDuplicate {
                peer: from,
                handler: H_MOL_MIGRATE.0,
            });
            return None;
        }
        let obj = O::unpack(&packet.object);
        #[cfg(feature = "check-invariants")]
        self.oracle.on_install(
            ptr,
            packet.epoch,
            prior_epoch,
            &packet.expected,
            &packet.pending,
        );
        let d = self.directory.entry(ptr).or_default();
        // If this object once lived here and left, the stale forward pointer
        // must die: it is local again — and any cached location for it too.
        d.forward = None;
        self.cache.remove(ptr);
        let mut entry = Entry::new(obj, packet.epoch, packet.expected.into_iter().collect());
        note_consumed(&mut self.consumed, &entry.expected, u64::wrapping_add);
        match d.entry.take() {
            // (Past the replay guard nothing should be resident; if something
            // were, its queued work stays queued under the same lane.)
            Some(replaced) => {
                entry.lane = replaced.lane;
                note_consumed(&mut self.consumed, &replaced.expected, u64::wrapping_sub);
            }
            None => self.resident += 1,
        }
        let entry = d.entry.insert(entry);
        for p in packet.pending {
            self.ready.push(&mut entry.lane, ptr, p);
        }
        // Any messages parked here (we may be the home) can be routed once
        // installation finishes below.
        let parked = std::mem::take(&mut d.limbo);
        self.stats.migrations_in += 1;
        // (Conservation: these re-queued messages were counted by the
        // oracle's on_install as `installed`, not `accepted`.)
        for env in packet.buffered {
            self.accept_local(env)
                .expect("the object was installed above");
        }
        // The migration *source* already published the move; the shard
        // itself just folds the installation into its own authority.
        if shard_of(ptr, self.nprocs()) == self.rank() {
            self.publish_local(ptr, self.rank(), packet.epoch);
        }
        for env in parked {
            self.route(env);
        }
        self.tracer.emit(|| TraceEvent::Install {
            home: ptr.home,
            index: ptr.index,
            from,
        });
        Some(MolEvent::Installed { ptr, from })
    }

    // ---- polling ---------------------------------------------------------

    /// Process every queued incoming message, send the open frames
    /// ([`MolNode::flush`]), and return the resulting events: in-order
    /// application messages for local objects, node messages, and
    /// installation notices. This is PREMA's *application-posted* polling
    /// operation.
    ///
    /// **Contract:** every [`MolEvent::Object`] in the returned batch must be
    /// executed (or deliberately discarded) *before* its object migrates
    /// again — the deliveries have left the runtime's custody and would not
    /// travel with the object. The [`MolNode::pump`]/[`MolNode::pop_work`]
    /// pair (used by the ILB scheduler) sidesteps the issue by keeping
    /// undelivered work inside the node.
    pub fn poll(&mut self) -> Vec<MolEvent> {
        let mut events = Vec::new();
        while let Some(env) = self.comm.try_recv() {
            self.handle_wire(env, &mut events);
        }
        self.flush();
        self.drain_ready(&mut events);
        #[cfg(feature = "check-invariants")]
        self.verify_conservation();
        events
    }

    /// Process only *system-generated* traffic — migrations, location
    /// updates, and system-tagged node messages — sidelining application
    /// messages untouched (their order is preserved for the next
    /// [`MolNode::poll`]), then send the open frames ([`MolNode::flush`]).
    /// This is what PREMA's preemptive polling thread runs at its periodic
    /// wake-ups (§4.2): load-balancing messages are seen promptly, yet no
    /// application handler ever runs preemptively.
    pub fn poll_system(&mut self) -> Vec<MolEvent> {
        let mut events = Vec::new();
        while let Some(env) = self.comm.try_recv_transport() {
            let is_system = env.tag == Tag::System;
            if is_system {
                self.handle_wire(env, &mut events);
            } else {
                self.comm.sideline(env);
            }
        }
        self.flush();
        #[cfg(feature = "check-invariants")]
        self.verify_conservation();
        events
    }

    /// Handle one wire envelope; its buffer goes back to the pool as it
    /// drops here. Decoding copies every small payload out of the frame
    /// ([`prema_dcs::WireReader::try_bytes`]), so unless a long one still
    /// shares it the buffer has no other owner and serves this rank's next
    /// send. An envelope that names no MOL handler, or does not decode, is
    /// dropped and counted.
    ///
    /// A migration packet is discarded, not pooled: packets flow toward the
    /// thief, which seldom sends one back, so its pool would keep up to
    /// [`pool::PER_CLASS_CAP`] of them that it never reuses.
    fn handle_wire(&mut self, env: Envelope, events: &mut Vec<MolEvent>) {
        if self.dispatch(&env, events).is_none() {
            self.stats.dropped_wire += 1;
            self.tracer.emit(|| TraceEvent::DcsDropped {
                peer: env.src,
                handler: env.handler.0,
            });
        }
        if env.handler == H_MOL_MIGRATE {
            pool::discard(env.payload);
        }
    }

    /// Decode and act on one wire envelope; `None` if it is not MOL traffic
    /// or does not decode. A frame's records are acted on one by one, so a
    /// record that does not decode drops only itself and what follows it.
    fn dispatch(&mut self, env: &Envelope, events: &mut Vec<MolEvent>) -> Option<()> {
        match Wire::decode(env.handler, env.tag, env.payload.clone())? {
            Wire::Msg(frame) => frame_records(frame, |menv| {
                if let Err(menv) = self.accept_local(menv) {
                    self.forward(menv);
                }
            })?,
            Wire::Migrate(packet) => {
                if let Some(ev) = self.install(env.src, packet) {
                    events.push(ev);
                }
            }
            Wire::Node {
                handler,
                payload,
                system,
            } => events.push(MolEvent::Node {
                src: env.src,
                handler,
                payload,
                system,
            }),
            Wire::DirPublish { ptr, owner, epoch } => self.publish_local(ptr, owner, epoch),
            Wire::DirLookup { ptr, epoch } => self.answer_lookup(env.src, ptr, epoch),
            Wire::DirAnswer {
                ptr,
                owner,
                epoch,
                stale,
            } => {
                if stale {
                    self.stats.loc_cache_stale += 1;
                    self.tracer.emit(|| TraceEvent::LocCacheStale {
                        home: ptr.home,
                        index: ptr.index,
                        owner,
                        epoch,
                    });
                }
                self.learn_location(ptr, owner, epoch);
            }
        }
        Some(())
    }

    fn forward(&mut self, mut menv: MolEnvelope) {
        let ptr = menv.target;
        let sender = menv.sender;
        let me = self.comm.rank();
        let d = self.directory.entry(ptr).or_default();
        let fwd = d.forward;
        match self.plan_route(ptr, fwd, menv.anchored, menv.route_epoch, false) {
            Some(route) => {
                let next = route.dst;
                menv.hops += 1;
                menv.anchored = route.anchored;
                menv.route_epoch = route.epoch;
                self.stats.forwarded += 1;
                self.tracer.emit(|| TraceEvent::ForwardHop {
                    home: ptr.home,
                    index: ptr.index,
                    next,
                    hops: menv.hops,
                });
                #[cfg(feature = "check-invariants")]
                self.oracle.on_forward(me, next, menv.hops);
                // Lazily teach the original sender where the object went so
                // its next message takes the short path. At the home shard
                // this piggybacked answer is authoritative.
                if let Some((owner, epoch)) = route.know {
                    if sender != me && sender != owner {
                        self.stats.locupd_sent += 1;
                        // Epoch 0 is a cold fill ("never migrated, lives at
                        // home"), not a stale correction.
                        let ans = Wire::DirAnswer {
                            ptr,
                            owner,
                            epoch,
                            stale: epoch > 0,
                        };
                        self.send(sender, ans);
                    }
                    // A chase this deep means the shard missed a publish
                    // (lost under chaos): repair it with our knowledge.
                    let shard = shard_of(ptr, self.comm.nprocs());
                    if menv.hops >= REPAIR_HOPS && shard != me {
                        self.stats.dir_publishes += 1;
                        self.send(shard, Wire::DirPublish { ptr, owner, epoch });
                    }
                }
                self.send(next, Wire::Msg(menv.encode()));
            }
            None => self
                .directory
                .get_mut(&ptr)
                .expect("entry created above")
                .limbo
                .push(menv),
        }
    }

    /// Answer a `DirLookup` with this shard's freshest knowledge: the
    /// authority table, residency, or the trail — falling back to "never
    /// migrated, so it is at its birth rank" (epoch 0), which is always a
    /// safe answer because the birth rank either hosts the object or heads
    /// its forwarding trail.
    fn answer_lookup(&mut self, src: Rank, ptr: MobilePtr, known: u64) {
        let me = self.comm.rank();
        let resident = self
            .directory
            .get(&ptr)
            .and_then(|d| d.entry.as_ref())
            .map(|e| (me, e.epoch));
        let fwd = self.directory.get(&ptr).and_then(|d| d.forward);
        let best = fresher(
            resident,
            fresher(
                fwd,
                fresher(self.cache.get(ptr), self.authority.lookup(ptr)),
            ),
        );
        let (owner, epoch) = best.unwrap_or((ptr.home, 0));
        self.stats.locupd_sent += 1;
        let ans = Wire::DirAnswer {
            ptr,
            owner,
            epoch,
            stale: known > 0 && epoch > known,
        };
        self.send(src, ans);
    }

    /// Merge a location fact learned from the wire (a `DirAnswer`) and
    /// release anything it unblocks.
    fn learn_location(&mut self, ptr: MobilePtr, owner: Rank, epoch: u64) {
        let d = self.directory.entry(ptr).or_default();
        if d.entry.is_some() {
            return; // it's here; any cached location is stale by definition
        }
        if let Some((_, fe)) = d.forward {
            if epoch > fe {
                d.forward = Some((owner, epoch));
            }
        }
        self.cache.insert_max(ptr, owner, epoch);
        if shard_of(ptr, self.comm.nprocs()) == self.comm.rank() {
            self.authority.publish(ptr, owner, epoch);
        }
        let parked = std::mem::take(
            &mut self
                .directory
                .get_mut(&ptr)
                .expect("entry created above")
                .limbo,
        );
        for env in parked {
            self.route(env);
        }
    }

    /// Dequeue the oldest queued message, with its target.
    fn pop_ready(&mut self) -> Option<(MobilePtr, Queued)> {
        let (ptr, q) = self.ready.pop()?;
        self.stats.delivered += 1;
        #[cfg(feature = "check-invariants")]
        self.oracle.on_deliver(q.sender as Rank, ptr, q.seq);
        Some((ptr, q))
    }

    fn drain_ready(&mut self, events: &mut Vec<MolEvent>) {
        while let Some((ptr, q)) = self.pop_ready() {
            events.push(MolEvent::Object {
                ptr,
                sender: q.sender as Rank,
                handler: q.handler,
                payload: q.payload,
            });
        }
    }

    /// Number of in-order messages queued for local execution.
    pub fn ready_len(&self) -> usize {
        self.ready.len()
    }

    /// Assert the work-conservation invariant: every message accepted on (or
    /// installed into) this node has either been delivered, shipped out with
    /// a migration, or is still in the ready queue — and, at a cost amortised
    /// to O(1) per call, that the incrementally maintained queue length,
    /// weights, per-object lanes and per-peer consumed totals equal a
    /// from-scratch recount.
    /// Called internally after every poll/pump/migrate; public so schedulers
    /// and tests can check at their own boundaries too. Panics on violation.
    #[cfg(feature = "check-invariants")]
    pub fn verify_conservation(&self) {
        self.oracle.verify(self.ready.len());
        if self
            .oracle
            .recount_due(self.directory.len() + self.ready.slots())
        {
            crate::oracle::verify_ready(&self.ready, |ptr| self.is_local(ptr));
            let mut recount = vec![0; self.consumed.len()];
            for entry in self.directory.values().filter_map(|d| d.entry.as_ref()) {
                note_consumed(&mut recount, &entry.expected, u64::wrapping_add);
            }
            assert_eq!(
                self.consumed, recount,
                "interaction oracle: per-peer consumed totals drifted"
            );
        }
    }

    /// Sum of the weight hints of all queued work (the load estimate PREMA's
    /// balancer compares against its water-mark). Maintained incrementally
    /// and exactly: `0.0` whenever nothing is queued, never negative or NaN
    /// (hints that are count as zero).
    pub fn ready_load(&self) -> f64 {
        self.ready.weight().get()
    }

    /// Process incoming wire traffic *without* draining the work queue,
    /// then send the open frames ([`MolNode::flush`]): routed application
    /// messages stay queued (visible via [`MolNode::pop_work`]); only node
    /// messages and installation notices are returned. This is the
    /// scheduler's ingest step.
    pub fn pump(&mut self) -> Vec<MolEvent> {
        let mut events = Vec::new();
        while let Some(env) = self.comm.try_recv() {
            self.handle_wire(env, &mut events);
        }
        self.flush();
        #[cfg(feature = "check-invariants")]
        self.verify_conservation();
        events
    }

    /// Pop the oldest queued work unit (an in-order application message for a
    /// local object), if any.
    pub fn pop_work(&mut self) -> Option<WorkItem> {
        let (ptr, q) = self.pop_ready()?;
        Some(WorkItem {
            ptr,
            sender: q.sender as Rank,
            handler: q.handler,
            hint: q.hint,
            payload: q.payload,
        })
    }

    /// Per-object summary of queued work: `(object, queued messages, summed
    /// weight hints)`, heaviest first. The load balancer uses this to decide
    /// which mobile objects to hand over when granting a work request.
    pub fn ready_summary(&self) -> Vec<(MobilePtr, usize, f64)> {
        let mut out: Vec<(MobilePtr, usize, f64)> = self
            .ready
            .lanes()
            .map(|l| (l.ptr, l.count, l.weight.get()))
            .collect();
        out.sort_by(|a, b| b.2.total_cmp(&a.2).then(a.0.cmp(&b.0)));
        out
    }

    /// Messages the resident object `ptr` has consumed from each rank of
    /// `srcs` over its lifetime — the object-interaction counters behind the
    /// load balancer's choice of what to move (DESIGN.md §21). Read straight
    /// off the per-sender sequence state that already travels with the object
    /// on migration, so it costs no extra bookkeeping or wire bytes, and
    /// however many ranks are asked about, one directory lookup. Zeros for a
    /// non-resident object.
    pub fn interactions_from<const N: usize>(&self, ptr: MobilePtr, srcs: [Rank; N]) -> [u64; N] {
        let expected = self
            .directory
            .get(&ptr)
            .and_then(|d| d.entry.as_ref())
            .map(|e| &e.expected);
        srcs.map(|src| expected.and_then(|e| e.get(&src)).copied().unwrap_or(0))
    }

    /// Messages all resident objects together have consumed from rank `src`
    /// (which may be this rank). O(1): the totals are kept, not recounted.
    pub fn interactions_with(&self, src: Rank) -> u64 {
        self.consumed.get(src).copied().unwrap_or(0)
    }
}

/// A unit of queued work: one in-order message for one local object.
#[derive(Debug, Clone)]
pub struct WorkItem {
    /// Target object (guaranteed resident when popped, though it may be
    /// detached if the caller interleaves).
    pub ptr: MobilePtr,
    /// Original sender.
    pub sender: Rank,
    /// Application handler id.
    pub handler: u32,
    /// Computational weight hint.
    pub hint: f64,
    /// Payload.
    pub payload: Bytes,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::H_MOL_MSG;
    use prema_dcs::{HandlerId, LocalFabric};

    struct Unit;

    impl Migratable for Unit {
        fn pack(&self, _buf: &mut Vec<u8>) {}
        fn unpack(_b: &[u8]) -> Self {
            Unit
        }
    }

    /// An object that keeps leaving and returning while nothing is popped
    /// leaves a fresh set of holes each round trip; compaction keeps the
    /// queue within twice its live messages (plus slack) regardless.
    #[test]
    fn holes_stay_bounded_while_an_object_ping_pongs() {
        let mut nodes: Vec<MolNode<Unit>> = LocalFabric::new(2)
            .into_iter()
            .map(|ep| MolNode::with_config(Communicator::new(Box::new(ep)), MolConfig::default()))
            .collect();
        let mover = nodes[0].register(Unit);
        let stayer = nodes[0].register(Unit);
        for _ in 0..100 {
            nodes[0].message(mover, 1, Bytes::new());
        }
        for _ in 0..10 {
            nodes[0].message(stayer, 1, Bytes::new());
        }
        for _ in 0..50 {
            for (src, dst) in [(0, 1), (1, 0)] {
                assert!(nodes[src].migrate(mover, dst));
                let ready = &nodes[src].ready;
                assert!(ready.slots() <= ready.len() + ready.len() / 2 + 64);
                nodes[dst].pump();
                assert!(nodes[dst].is_local(mover));
            }
        }
        assert_eq!(nodes[0].ready_len(), 110);
        // The stayer's messages are still ahead of the returned mover's.
        for _ in 0..10 {
            assert_eq!(nodes[0].pop_work().map(|w| w.ptr), Some(stayer));
        }
        assert_eq!(nodes[0].pop_work().map(|w| w.ptr), Some(mover));
    }

    fn two_nodes() -> Vec<MolNode<Unit>> {
        LocalFabric::new(2)
            .into_iter()
            .map(|ep| MolNode::with_config(Communicator::new(Box::new(ep)), MolConfig::default()))
            .collect()
    }

    /// What has reached `node`'s wire since it last looked, as (handler,
    /// records in the frame) pairs; a frame other than `H_MOL_MSG` counts
    /// as one record.
    fn wire_of(node: &MolNode<Unit>) -> Vec<(HandlerId, usize)> {
        std::iter::from_fn(|| node.comm.try_recv())
            .map(|env| {
                let mut n = 0;
                if env.handler == H_MOL_MSG {
                    frame_records(env.payload, |_| n += 1).expect("the frame decodes");
                } else {
                    n = 1;
                }
                (env.handler, n)
            })
            .collect()
    }

    /// What a node's transport was asked to do, in order.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    enum Call {
        Recv,
        Send(HandlerId),
    }

    /// A transport that records each receive and send it is asked for.
    struct Logged<T> {
        inner: T,
        log: std::sync::Arc<std::sync::Mutex<Vec<Call>>>,
    }

    impl<T: prema_dcs::Transport> prema_dcs::Transport for Logged<T> {
        fn rank(&self) -> Rank {
            self.inner.rank()
        }
        fn nprocs(&self) -> usize {
            self.inner.nprocs()
        }
        fn send(&self, env: Envelope) {
            self.log.lock().unwrap().push(Call::Send(env.handler));
            self.inner.send(env);
        }
        fn try_recv(&self) -> Option<Envelope> {
            self.log.lock().unwrap().push(Call::Recv);
            self.inner.try_recv()
        }
        fn recv_timeout(&self, timeout: std::time::Duration) -> Option<Envelope> {
            self.inner.recv_timeout(timeout)
        }
    }

    /// A staged record waits for the sender's next poll and shares its
    /// peer's frame with the records staged after it; the poll sends the
    /// frame after it has drained the wire, so the frame and every reply
    /// the pass makes reach the transport within one pass's sends. A full
    /// frame leaves at once; a local target has its message at once, and a
    /// record too large for any frame goes alone.
    #[test]
    fn a_frame_leaves_after_the_next_polls_drain_or_once_full() {
        let mut eps = LocalFabric::new(2);
        let log = std::sync::Arc::default();
        let one = eps.pop().expect("rank 1");
        let zero = Logged {
            inner: eps.pop().expect("rank 0"),
            log: std::sync::Arc::clone(&log),
        };
        let mut nodes: Vec<MolNode<Unit>> = [
            Box::new(zero) as Box<dyn prema_dcs::Transport>,
            Box::new(one),
        ]
        .into_iter()
        .map(|t| MolNode::with_config(Communicator::new(t), MolConfig::default()))
        .collect();
        let there = nodes[1].register(Unit);
        let here = nodes[0].register(Unit);
        nodes[0].stage_message(here, 1, 1.0, Bytes::new());
        assert_eq!(nodes[0].ready_len(), 1, "a local target waits for nothing");
        for _ in 0..3 {
            nodes[0].stage_message(there, 1, 1.0, Bytes::new());
        }
        assert_eq!(wire_of(&nodes[1]), []);
        nodes[1].node_message(0, 5, Tag::App, Bytes::new());
        log.lock().unwrap().clear();
        nodes[0].pump();
        assert_eq!(
            *log.lock().unwrap(),
            [Call::Recv, Call::Recv, Call::Send(H_MOL_MSG)],
            "the drain, then the frame"
        );
        assert_eq!(wire_of(&nodes[1]), [(H_MOL_MSG, 3)]);
        // Empty payloads: 64-byte records, sixteen to a 1 KiB frame, which
        // leaves with the sixteenth.
        let fill = FRAME_CAP / 64;
        for _ in 0..fill {
            nodes[0].stage_message(there, 1, 1.0, Bytes::new());
        }
        assert_eq!(wire_of(&nodes[1]), [(H_MOL_MSG, fill)]);
        // 16-byte payloads: 80-byte records, twelve to a frame; the
        // thirteenth sends them and opens the next.
        for i in 0..=12 {
            nodes[0].stage_message(there, 1, 1.0, Bytes::copy_from_slice(&[i as u8; 16]));
        }
        assert_eq!(wire_of(&nodes[1]), [(H_MOL_MSG, 12)]);
        nodes[0].stage_message(there, 1, 1.0, Bytes::from(vec![7; FRAME_CAP]));
        assert_eq!(wire_of(&nodes[1]), [(H_MOL_MSG, 1), (H_MOL_MSG, 1)]);
        assert!(nodes[0].frames.iter().all(Option::is_none));
    }

    /// Records staged for a peer leave before anything else this rank sends
    /// it: an object that migrates there arrives after them.
    #[test]
    fn records_staged_for_a_peer_arrive_before_a_migration_to_it() {
        let mut nodes = two_nodes();
        let there = nodes[1].register(Unit);
        let mover = nodes[0].register(Unit);
        for _ in 0..3 {
            nodes[0].stage_message(there, 1, 1.0, Bytes::new());
        }
        assert!(nodes[0].migrate(mover, 1));
        let wire = wire_of(&nodes[1]);
        let at = |h| wire.iter().position(|&(handler, _)| handler == h);
        assert_eq!(wire[0], (H_MOL_MSG, 3), "the frame went first: {wire:?}");
        assert!(at(H_MOL_MIGRATE) > at(H_MOL_MSG), "{wire:?}");
    }

    /// Pops between departures may leave more holes than a departure would
    /// allow, since only a departure that takes messages compacts; moving an
    /// object with nothing queued must not trip over them.
    #[test]
    fn an_idle_object_leaves_after_pops_outran_the_holes() {
        let mut nodes: Vec<MolNode<Unit>> = LocalFabric::new(2)
            .into_iter()
            .map(|ep| MolNode::with_config(Communicator::new(Box::new(ep)), MolConfig::default()))
            .collect();
        let [stayer, leaver, idle] = [(); 3].map(|_| nodes[0].register(Unit));
        for target in [stayer, leaver] {
            for _ in 0..100 {
                nodes[0].message(target, 1, Bytes::new());
            }
        }
        // 100 holes among 200 slots: under the compaction trigger.
        assert!(nodes[0].migrate(leaver, 1));
        assert_eq!(nodes[0].ready.slots(), 200);
        for _ in 0..30 {
            assert_eq!(nodes[0].pop_work().map(|w| w.ptr), Some(stayer));
        }
        let ready = &nodes[0].ready;
        assert!(ready.slots() > ready.len() + ready.len() / 2 + 64);
        assert!(nodes[0].migrate(idle, 1));
        nodes[1].pump();
        assert!(nodes[1].is_local(idle) && nodes[1].is_local(leaver));
        assert_eq!(nodes[0].ready_len(), 70);
        assert!(nodes[0].migrate(stayer, 1));
        assert_eq!(nodes[0].ready.slots(), 0);
    }
}
