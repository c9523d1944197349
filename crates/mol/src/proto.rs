//! The Mobile Object Layer wire protocol: six message kinds ride on DCS,
//! one variant each of the crate-private `Wire` enum, which states each
//! kind's handler id, tag and codec once, so a kind that nobody handles does
//! not compile and one that nobody builds is dead code. Object messages
//! travel as `H_MOL_MSG` frames of [`MolEnvelope`] records, each carrying a
//! per-(sender, object) sequence number so delivery order is preserved even
//! across migrations and forwarding chains: what a rank's units send one
//! peer between two polls shares a [`Frame`], every other message is a frame
//! of one. The `H_*` ids stay public for tests that put raw frames on a
//! fabric.

use crate::ptr::MobilePtr;
use bytes::Bytes;
use prema_dcs::{HandlerId, Rank, Tag, WireReader, WireWriter};

/// DCS handler id for object-targeted messages.
pub const H_MOL_MSG: HandlerId = HandlerId(HandlerId::SYSTEM_BASE + 16);
/// DCS handler id for object migrations.
pub const H_MOL_MIGRATE: HandlerId = HandlerId(HandlerId::SYSTEM_BASE + 17);
/// DCS handler id for rank-targeted (non-object) messages.
pub const H_NODE_MSG: HandlerId = HandlerId(HandlerId::SYSTEM_BASE + 19);
/// DCS handler id for directory publishes (migration → home shard).
pub const H_MOL_DIR_PUBLISH: HandlerId = HandlerId(HandlerId::SYSTEM_BASE + 20);
/// DCS handler id for directory lookups (sender → home shard).
pub const H_MOL_DIR_LOOKUP: HandlerId = HandlerId(HandlerId::SYSTEM_BASE + 21);
/// DCS handler id for directory answers (home shard → sender).
pub const H_MOL_DIR_ANSWER: HandlerId = HandlerId(HandlerId::SYSTEM_BASE + 22);

/// An object-targeted application message, as routed by the MOL.
#[derive(Clone, Debug, PartialEq)]
pub struct MolEnvelope {
    /// The mobile object this message is for.
    pub target: MobilePtr,
    /// Original sender rank (not the last forwarder).
    pub sender: Rank,
    /// Per-(sender, target) sequence number, assigned at send time.
    pub seq: u64,
    /// Application-level handler id (dispatched by the layer above MOL).
    pub handler: u32,
    /// Times this message has been forwarded.
    pub hops: u32,
    /// Whether the home shard has already routed this message. Once set, a
    /// rank that still cannot deliver it follows its *own* knowledge instead
    /// of redirecting back through the shard — which is what keeps shard
    /// routing loop-free (DESIGN.md §16).
    pub anchored: bool,
    /// Migration epoch backing the current routing decision (meaningful only
    /// while `anchored`). A rank forwards an anchored message only along
    /// knowledge at least this fresh, and parks it otherwise (the object —
    /// or a fresher answer — is in flight toward this rank). Epochs along a
    /// chain are therefore monotone: no hop can walk backward in migration
    /// history, which is what makes the chain bound a constant instead of a
    /// trail-length walk.
    pub route_epoch: u64,
    /// Application-supplied computational weight hint for the work this
    /// message triggers. The load balancer sums hints to estimate queue
    /// load; the paper stresses that hints may be wildly inaccurate for
    /// adaptive applications, so nothing correctness-critical may depend on
    /// them.
    pub hint: f64,
    /// Application payload.
    pub payload: Bytes,
}

impl MolEnvelope {
    /// Encode for the wire (into a pooled buffer — this runs once per
    /// application message, the hottest encoder in the stack).
    pub fn encode(&self) -> Bytes {
        write_env(WireWriter::pooled(ENV_HEADER + self.payload.len()), self).finish()
    }

    /// Bytes this envelope takes as a frame record.
    pub fn wire_len(&self) -> usize {
        ENV_HEADER + self.payload.len()
    }
}

/// Byte budget of a [`Frame`]: the pooled buffer it fills, which it never
/// outgrows.
pub const FRAME_CAP: usize = 1024;

/// An `H_MOL_MSG` frame being filled with records for one peer, in a pooled
/// buffer of [`FRAME_CAP`] bytes that takes only records that
/// [fit](Frame::fits), so it never reallocates; a record larger than the
/// whole budget travels as a frame of its own ([`MolEnvelope::encode`]).
pub struct Frame {
    w: WireWriter,
    len: usize,
}

impl Frame {
    /// An empty frame.
    pub fn new() -> Self {
        Frame {
            w: WireWriter::pooled(FRAME_CAP),
            len: 0,
        }
    }

    /// Whether `e` fits as the next record.
    pub fn fits(&self, e: &MolEnvelope) -> bool {
        self.len + e.wire_len() <= FRAME_CAP
    }

    /// Append `e` as the next record. Panics if it does not
    /// [fit](Frame::fits).
    pub fn push(&mut self, e: &MolEnvelope) {
        assert!(self.fits(e), "a record past the frame's budget");
        self.w = write_env(std::mem::take(&mut self.w), e);
        self.len += e.wire_len();
    }

    /// Whether no further record, even one with an empty payload, fits.
    pub fn is_full(&self) -> bool {
        self.len + ENV_HEADER > FRAME_CAP
    }

    /// The frame's bytes, ready to send.
    pub fn finish(self) -> Bytes {
        self.w.finish()
    }
}

impl Default for Frame {
    fn default() -> Self {
        Frame::new()
    }
}

/// Hand each record of an `H_MOL_MSG` frame to `each`, in order. `None` at
/// the first record that does not decode, every record before it having
/// been handed over once; an empty frame is `None` as well.
pub fn frame_records(payload: Bytes, mut each: impl FnMut(MolEnvelope)) -> Option<()> {
    let mut r = WireReader::new(payload);
    loop {
        each(read_env(&mut r)?);
        if r.remaining() == 0 {
            return Some(());
        }
    }
}

/// Encoded size of a [`MolEnvelope`] minus its payload: 5×u64 + 3×u32 +
/// f64 + the payload length prefix.
const ENV_HEADER: usize = 8 * 5 + 4 * 3 + 8 + 4;

fn write_env(w: WireWriter, e: &MolEnvelope) -> WireWriter {
    w.u64(e.target.home as u64)
        .u64(e.target.index)
        .u64(e.sender as u64)
        .u64(e.seq)
        .u32(e.handler)
        .u32(e.hops)
        .u32(u32::from(e.anchored))
        .u64(e.route_epoch)
        .f64(e.hint)
        .bytes(&e.payload)
}

/// A message's sender as read off the wire. A rank is kept as a `u32` once
/// its message is queued, so a sender past `u32::MAX` marks a corrupt frame.
fn sender_rank(raw: u64) -> Option<Rank> {
    u32::try_from(raw).ok().map(|s| s as Rank)
}

fn read_env(r: &mut WireReader) -> Option<MolEnvelope> {
    Some(MolEnvelope {
        target: MobilePtr {
            home: r.try_usize()?,
            index: r.try_u64()?,
        },
        sender: sender_rank(r.try_u64()?)?,
        seq: r.try_u64()?,
        handler: r.try_u32()?,
        hops: r.try_u32()?,
        anchored: r.try_u32()? != 0,
        route_epoch: r.try_u64()?,
        hint: r.try_f64()?,
        payload: r.try_bytes()?,
    })
}

/// A message accepted in order on its target's rank but not yet executed:
/// what running it, or re-homing it with its object, needs. The target is
/// known from where the record is kept (the object's ready-queue lane, the
/// migration packet that carries the object), and the routing state —
/// `hops`, `anchored`, `route_epoch` — is dead once the message has been
/// accepted, so neither is kept (DESIGN.md §17).
#[derive(Clone, Debug, PartialEq)]
pub struct Pending {
    /// Original sender rank.
    pub sender: Rank,
    /// Per-(sender, target) sequence number.
    pub seq: u64,
    /// Application-level handler id.
    pub handler: u32,
    /// Computational weight hint.
    pub hint: f64,
    /// Application payload.
    pub payload: Bytes,
}

impl From<MolEnvelope> for Pending {
    fn from(e: MolEnvelope) -> Self {
        Pending {
            sender: e.sender,
            seq: e.seq,
            handler: e.handler,
            hint: e.hint,
            payload: e.payload,
        }
    }
}

/// Encoded size of a [`Pending`] record minus its payload: 2×u64 + u32 +
/// f64 + the payload length prefix.
const PENDING_HEADER: usize = 8 * 2 + 4 + 8 + 4;

fn write_pending(w: WireWriter, p: &Pending) -> WireWriter {
    w.u64(p.sender as u64)
        .u64(p.seq)
        .u32(p.handler)
        .f64(p.hint)
        .bytes(&p.payload)
}

fn read_pending(r: &mut WireReader) -> Option<Pending> {
    Some(Pending {
        sender: sender_rank(r.try_u64()?)?,
        seq: r.try_u64()?,
        handler: r.try_u32()?,
        hint: r.try_f64()?,
        payload: r.try_bytes()?,
    })
}

/// Room to reserve for `n` records of at least `min_len` bytes each, `n`
/// being a count read off the wire: no more than the bytes left in `r` could
/// hold, so a corrupt count makes a short read (and `None`), never a huge
/// allocation.
fn reserve_for(n: usize, min_len: usize, r: &WireReader) -> usize {
    n.min(r.remaining() / min_len)
}

/// A migrating object plus its ordering state.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct MigratePacket {
    /// The object's name.
    pub ptr: MobilePtr,
    /// Migration epoch after this move (monotonically increasing per object).
    pub epoch: u64,
    /// The packed object.
    pub object: Bytes,
    /// Per-sender next-expected sequence numbers.
    pub expected: Vec<(Rank, u64)>,
    /// Messages already accepted in order but not yet executed; they must be
    /// delivered at the destination before anything else.
    pub pending: Vec<Pending>,
    /// Out-of-order buffered messages; re-enter sequence checking at the
    /// destination.
    pub buffered: Vec<MolEnvelope>,
}

/// The MOL's six message kinds (module docs), each with its DCS handler id
/// ([`Wire::id`]), its tag ([`Wire::tag`]) and its codec ([`Wire::encode`],
/// [`Wire::decode`]). [`crate::MolNode`] sends nothing else and dispatches
/// on this type with one `match`.
#[derive(Clone, Debug, PartialEq)]
pub(crate) enum Wire {
    /// An `H_MOL_MSG` frame of one or more [`MolEnvelope`] records, built by
    /// a [`Frame`] or [`MolEnvelope::encode`] and read by [`frame_records`]:
    /// its bytes pass through the codec as they are.
    Msg(Bytes),
    /// A packed object moving to a new owner, with its ordering state
    /// (per-sender expected sequence numbers), its accepted but not yet
    /// executed messages and its out-of-order buffered ones.
    Migrate(MigratePacket),
    /// A rank-targeted message, not object-routed (load-balancer traffic
    /// and the like), under the tag its sender chose.
    Node {
        handler: u32,
        payload: Bytes,
        /// Whether it travels as [`Tag::System`].
        system: bool,
    },
    /// A migration publishing its outcome to the pointer's home shard
    /// (DESIGN.md §16): "object `ptr` now lives at `owner`, as of migration
    /// epoch `epoch`". Shards merge by epoch-max, so duplicated or
    /// reordered publishes are harmless.
    DirPublish {
        ptr: MobilePtr,
        owner: Rank,
        epoch: u64,
    },
    /// An explicit location query to a pointer's home shard (the
    /// [`crate::MolNode::resolve`] miss path). `epoch` is the
    /// freshest the inquirer already holds for the object (0 if none): it
    /// lets the shard mark its answer as a stale-cache correction.
    DirLookup { ptr: MobilePtr, epoch: u64 },
    /// The home shard's location answer: `ptr` lives at `owner` as of
    /// `epoch` (receivers keep the max). Sent in reply to a `DirLookup` and
    /// piggybacked to the original sender whenever a rank forwards its
    /// message; `stale` says the receiver's earlier guess was stale (its
    /// message had to be forwarded, or it looked up with an older epoch).
    DirAnswer {
        ptr: MobilePtr,
        owner: Rank,
        epoch: u64,
        stale: bool,
    },
}

impl Wire {
    /// The DCS handler id this kind travels under.
    pub(crate) fn id(&self) -> HandlerId {
        match self {
            Wire::Msg(_) => H_MOL_MSG,
            Wire::Migrate(_) => H_MOL_MIGRATE,
            Wire::Node { .. } => H_NODE_MSG,
            Wire::DirPublish { .. } => H_MOL_DIR_PUBLISH,
            Wire::DirLookup { .. } => H_MOL_DIR_LOOKUP,
            Wire::DirAnswer { .. } => H_MOL_DIR_ANSWER,
        }
    }

    /// The tag it travels under: object messages are application traffic,
    /// the protocol's own messages system traffic.
    pub(crate) fn tag(&self) -> Tag {
        match self {
            Wire::Msg(_) | Wire::Node { system: false, .. } => Tag::App,
            Wire::Migrate(_)
            | Wire::Node { system: true, .. }
            | Wire::DirPublish { .. }
            | Wire::DirLookup { .. }
            | Wire::DirAnswer { .. } => Tag::System,
        }
    }

    /// Encode for the wire, into a pooled buffer sized to what is written.
    pub(crate) fn encode(self) -> Bytes {
        let home = |ptr: MobilePtr| ptr.home as u64;
        match self {
            Wire::Msg(frame) => frame,
            Wire::Migrate(p) => {
                let pending: usize = p
                    .pending
                    .iter()
                    .map(|p| PENDING_HEADER + p.payload.len())
                    .sum();
                let buffered: usize = p.buffered.iter().map(MolEnvelope::wire_len).sum();
                let len = 8 * 3 + 4 * 4 + p.object.len() + 16 * p.expected.len();
                let mut w = WireWriter::pooled(len + pending + buffered)
                    .u64(home(p.ptr))
                    .u64(p.ptr.index)
                    .u64(p.epoch)
                    .bytes(&p.object)
                    .u32(p.expected.len() as u32);
                for &(rank, seq) in &p.expected {
                    w = w.u64(rank as u64).u64(seq);
                }
                w = w.u32(p.pending.len() as u32);
                for pending in &p.pending {
                    w = write_pending(w, pending);
                }
                w = w.u32(p.buffered.len() as u32);
                for e in &p.buffered {
                    w = write_env(w, e);
                }
                w.finish()
            }
            Wire::Node {
                handler, payload, ..
            } => WireWriter::pooled(8 + payload.len())
                .u32(handler)
                .bytes(&payload)
                .finish(),
            Wire::DirPublish { ptr, owner, epoch } => WireWriter::pooled(32)
                .u64(home(ptr))
                .u64(ptr.index)
                .u64(owner as u64)
                .u64(epoch)
                .finish(),
            Wire::DirLookup { ptr, epoch } => WireWriter::pooled(24)
                .u64(home(ptr))
                .u64(ptr.index)
                .u64(epoch)
                .finish(),
            Wire::DirAnswer {
                ptr,
                owner,
                epoch,
                stale,
            } => WireWriter::pooled(40)
                .u64(home(ptr))
                .u64(ptr.index)
                .u64(owner as u64)
                .u64(epoch)
                .u32(u32::from(stale))
                .finish(),
        }
    }

    /// Decode what arrived under handler `id` and `tag`; `None` if `id`
    /// names no MOL kind, the frame is truncated, a count promises more
    /// records than follow, or a message names a sender past `u32::MAX`.
    /// An `H_MOL_MSG` frame is not read here: [`frame_records`] reads its
    /// records one by one.
    pub(crate) fn decode(id: HandlerId, tag: Tag, payload: Bytes) -> Option<Self> {
        if id == H_MOL_MSG {
            return Some(Wire::Msg(payload));
        }
        let mut r = WireReader::new(payload);
        let r = &mut r;
        let ptr = |r: &mut WireReader| {
            Some(MobilePtr {
                home: r.try_usize()?,
                index: r.try_u64()?,
            })
        };
        Some(match id {
            H_MOL_MIGRATE => {
                let (ptr, epoch, object) = (ptr(r)?, r.try_u64()?, r.try_bytes()?);
                let n = r.try_u32()? as usize;
                let mut expected = Vec::with_capacity(reserve_for(n, 16, r));
                for _ in 0..n {
                    expected.push((r.try_usize()?, r.try_u64()?));
                }
                let n = r.try_u32()? as usize;
                let mut pending = Vec::with_capacity(reserve_for(n, PENDING_HEADER, r));
                for _ in 0..n {
                    pending.push(read_pending(r)?);
                }
                let n = r.try_u32()? as usize;
                let mut buffered = Vec::with_capacity(reserve_for(n, ENV_HEADER, r));
                for _ in 0..n {
                    buffered.push(read_env(r)?);
                }
                Wire::Migrate(MigratePacket {
                    ptr,
                    epoch,
                    object,
                    expected,
                    pending,
                    buffered,
                })
            }
            H_NODE_MSG => Wire::Node {
                handler: r.try_u32()?,
                payload: r.try_bytes()?,
                system: tag == Tag::System,
            },
            H_MOL_DIR_PUBLISH => Wire::DirPublish {
                ptr: ptr(r)?,
                owner: r.try_usize()?,
                epoch: r.try_u64()?,
            },
            H_MOL_DIR_LOOKUP => Wire::DirLookup {
                ptr: ptr(r)?,
                epoch: r.try_u64()?,
            },
            H_MOL_DIR_ANSWER => Wire::DirAnswer {
                ptr: ptr(r)?,
                owner: r.try_usize()?,
                epoch: r.try_u64()?,
                stale: r.try_u32()? != 0,
            },
            _ => return None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;

    fn env(seq: u64) -> MolEnvelope {
        MolEnvelope {
            target: MobilePtr { home: 3, index: 9 },
            sender: 5,
            seq,
            handler: 2,
            hops: 1,
            anchored: true,
            route_epoch: 7,
            hint: 2.5,
            payload: Bytes::from_static(b"payload"),
        }
    }

    /// A migration packet's frame decoded back, if it decodes.
    fn packet(frame: Bytes) -> Option<MigratePacket> {
        match Wire::decode(H_MOL_MIGRATE, Tag::System, frame)? {
            Wire::Migrate(p) => Some(p),
            other => panic!("a packet decoded as {other:?}"),
        }
    }

    /// The records of an `H_MOL_MSG` frame, if every one decodes.
    fn records(frame: Bytes) -> Option<Vec<MolEnvelope>> {
        let mut got = Vec::new();
        frame_records(frame, |e| got.push(e))?;
        Some(got)
    }

    /// Decode `frame` under `id`, down to an `H_MOL_MSG` frame's records:
    /// it must return, whatever it says.
    fn decode_all(id: HandlerId, tag: Tag, frame: Bytes) {
        if let Some(Wire::Msg(frame)) = Wire::decode(id, tag, frame) {
            frame_records(frame, drop);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Each of the six kinds, built from arbitrary field values, decodes
        /// back to itself under its own id and tag, and every strict prefix
        /// of one that is not an `H_MOL_MSG` frame is refused. Arbitrary
        /// bytes under an arbitrary id, or a valid frame with any 4-byte
        /// word overwritten (a corrupt length or record count among them),
        /// decode to `None` or a value, never a panic or a huge reservation.
        #[test]
        fn every_kind_round_trips_and_arbitrary_frames_never_panic(
            (home, index, owner, epoch) in (0usize..64, any::<u64>(), 0usize..64, any::<u64>()),
            (seqs, hint, flag) in (vec(any::<u64>(), 1..4), -1e9..1e9f64, any::<bool>()),
            bytes in vec(any::<u8>(), 0..48),
            id in prop_oneof![(16u32..23).prop_map(|k| HandlerId::SYSTEM_BASE + k), any::<u32>()],
            raw in vec(any::<u8>(), 0..128),
            (at, word) in (any::<usize>(), any::<u32>()),
        ) {
            let (ptr, payload) = (MobilePtr { home, index }, Bytes::from(bytes));
            let envs: Vec<MolEnvelope> = seqs
                .iter()
                .map(|&seq| MolEnvelope {
                    target: ptr,
                    sender: owner,
                    handler: index as u32,
                    anchored: flag,
                    route_epoch: epoch,
                    hint,
                    payload: payload.clone(),
                    ..env(seq)
                })
                .collect();
            let mut frame = Frame::new();
            envs.iter().for_each(|e| frame.push(e));
            let packet = MigratePacket {
                ptr,
                epoch,
                object: payload.clone(),
                expected: vec![(owner, epoch)],
                pending: envs.iter().cloned().map(Pending::from).collect(),
                buffered: envs,
            };
            let (stale, system, handler) = (flag, flag, index as u32);
            let kinds = [
                Wire::Msg(frame.finish()),
                Wire::Migrate(packet),
                Wire::Node { handler, payload, system },
                Wire::DirPublish { ptr, owner, epoch },
                Wire::DirLookup { ptr, epoch },
                Wire::DirAnswer { ptr, owner, epoch, stale },
            ];
            for m in kinds {
                let (own, tag) = (m.id(), m.tag());
                let frame = m.clone().encode();
                prop_assert_eq!(Wire::decode(own, tag, frame.clone()), Some(m));
                if own != H_MOL_MSG {
                    for len in 0..frame.len() {
                        prop_assert_eq!(Wire::decode(own, tag, frame.slice(0..len)), None);
                    }
                }
                let mut bad = frame.to_vec();
                let at = at % (bad.len() - 3);
                bad[at..at + 4].copy_from_slice(&word.to_le_bytes());
                decode_all(own, tag, Bytes::from(bad));
            }
            let tag = if flag { Tag::System } else { Tag::App };
            decode_all(HandlerId(id), tag, Bytes::from(raw));
        }
    }

    /// A pending record carries no target and no routing state: 48 bytes
    /// for a 16-byte payload, where the full envelope takes 80.
    #[test]
    fn a_pending_record_is_48_bytes_for_a_16_byte_payload() {
        let mut e = env(0);
        e.payload = Bytes::copy_from_slice(&[1; 16]);
        let record = write_pending(WireWriter::new(), &e.clone().into()).finish();
        assert_eq!(record.len(), 48);
        assert_eq!(e.encode().len(), 80);
    }

    /// Small pending payloads are copied out at decode, so once the object
    /// (the one long string) is gone the packet's buffer has a single owner
    /// again, however long its messages stay queued.
    #[test]
    fn decoded_pending_payloads_do_not_pin_the_packet() {
        let p = MigratePacket {
            ptr: MobilePtr { home: 0, index: 1 },
            epoch: 1,
            object: Bytes::from(vec![5; 4096]),
            expected: vec![(5, 60)],
            pending: (0..60)
                .map(|seq| {
                    let mut e = env(seq);
                    e.payload = Bytes::copy_from_slice(&[seq as u8; 16]);
                    e.into()
                })
                .collect(),
            buffered: vec![],
        };
        let wire = Wire::Migrate(p.clone()).encode();
        let decoded = packet(wire.clone()).expect("a whole packet");
        assert_eq!(decoded, p);
        let MigratePacket {
            object, pending, ..
        } = decoded;
        drop(object);
        assert!(
            wire.try_reclaim().is_ok(),
            "pending payloads pin the packet"
        );
        drop(pending);
    }

    #[test]
    fn a_packet_sizes_its_buffer_to_what_it_writes() {
        let p = MigratePacket {
            ptr: MobilePtr { home: 0, index: 1 },
            epoch: 1,
            object: Bytes::from(vec![5; 4096]),
            expected: vec![(5, 60)],
            pending: (0..60).map(|seq| env(seq).into()).collect(),
            buffered: vec![env(61)],
        };
        // 4 KiB of object and 60 pending messages fit the 8 KiB class.
        let wire = Wire::Migrate(p).encode();
        assert!(wire.len() < 8192);
        let v = wire.try_reclaim().expect("sole owner");
        assert!((8192..16384).contains(&v.capacity()), "{}", v.capacity());
    }

    #[test]
    fn truncated_frames_decode_to_none() {
        let e = env(3).encode();
        assert_eq!(records(e.slice(0..e.len() - 1)), None);
        // A count of 2^32 - 1 pending records and nothing after it must be
        // a short read, not a 446 GB reservation.
        let hostile = WireWriter::new()
            .u64(0)
            .u64(1)
            .u64(1)
            .bytes(b"")
            .u32(0)
            .u32(u32::MAX)
            .finish();
        assert_eq!(packet(hostile), None);
    }

    #[test]
    fn a_sender_past_u32_decodes_to_none() {
        let mut e = env(3);
        e.sender = u32::MAX as Rank;
        assert_eq!(records(e.encode()), Some(vec![e.clone()]));
        e.sender += 1;
        assert_eq!(records(e.encode()), None);
        let p = MigratePacket {
            ptr: MobilePtr { home: 0, index: 1 },
            epoch: 1,
            object: Bytes::new(),
            expected: vec![(e.sender, 4)],
            pending: vec![e.into()],
            buffered: vec![],
        };
        assert_eq!(packet(Wire::Migrate(p).encode()), None);
    }

    /// Little-endian bytes of `fields`, in order: a `u64`, `u32` or `f64`
    /// each, or a length-prefixed byte string.
    fn le(fields: &[Field]) -> Vec<u8> {
        let mut out = Vec::new();
        for f in fields {
            match *f {
                Field::U64(v) => out.extend_from_slice(&v.to_le_bytes()),
                Field::U32(v) => out.extend_from_slice(&v.to_le_bytes()),
                Field::F64(v) => out.extend_from_slice(&v.to_le_bytes()),
                Field::Str(s) => {
                    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
                    out.extend_from_slice(s);
                }
            }
        }
        out
    }

    #[derive(Clone, Copy)]
    enum Field {
        U64(u64),
        U32(u32),
        F64(f64),
        Str(&'static [u8]),
    }

    /// The bytes of one frame of each of the six kinds, field by field, as a
    /// [`crate::MolNode`] puts them on the wire and reads them off it: a
    /// change here is a change of the MOL's wire.
    #[test]
    fn wire_layout_is_pinned() {
        use crate::{shard_of, Migratable, MolNode};
        use prema_dcs::{Communicator, Envelope, LocalFabric, Tag, Transport};
        use Field::*;

        struct Blob;
        impl Migratable for Blob {
            fn pack(&self, buf: &mut Vec<u8>) {
                buf.extend_from_slice(b"obj");
            }
            fn unpack(_: &[u8]) -> Self {
                Blob
            }
        }
        let mut eps = LocalFabric::new(2);
        let raw = eps.pop().expect("two endpoints");
        let mut node: MolNode<Blob> = MolNode::new(Communicator::new(Box::new(eps.remove(0))));
        let sent = || {
            let e = raw.try_recv().expect("a frame");
            (e.handler, e.tag, e.payload.to_vec())
        };
        // Rank 1 is the shard of `far` and `cold`, rank 0 that of `near`.
        let far = MobilePtr { home: 1, index: 3 };
        let near = MobilePtr { home: 1, index: 1 };
        assert_eq!((shard_of(far, 2), shard_of(near, 2)), (1, 0));

        node.message_with_hint(far, 6, 2.5, Bytes::from_static(b"ab"));
        let msg = [U64(1), U64(3), U64(0), U64(0), U32(6), U32(0), U32(0)];
        let msg = [&msg[..], &[U64(0), F64(2.5), Str(b"ab")]].concat();
        assert_eq!(sent(), (H_MOL_MSG, Tag::App, le(&msg)));

        node.node_message(1, 7, Tag::System, Bytes::from_static(b"hi"));
        let want = le(&[U32(7), Str(b"hi")]);
        assert_eq!(sent(), (H_NODE_MSG, Tag::System, want));

        let cold = MobilePtr { home: 1, index: 6 };
        assert_eq!((shard_of(cold, 2), node.resolve(cold)), (1, None));
        let want = le(&[U64(1), U64(6), U64(0)]);
        assert_eq!(sent(), (H_MOL_DIR_LOOKUP, Tag::System, want));

        raw.send(Envelope {
            src: 1,
            dst: 0,
            handler: H_MOL_DIR_LOOKUP,
            tag: Tag::System,
            payload: Bytes::from(le(&[U64(1), U64(1), U64(4)])),
        });
        assert!(node.poll_system().is_empty());
        let want = le(&[U64(1), U64(1), U64(1), U64(0), U32(0)]);
        assert_eq!(sent(), (H_MOL_DIR_ANSWER, Tag::System, want));

        let obj = node.register(Blob);
        assert_eq!(
            (obj, shard_of(obj, 2)),
            (MobilePtr { home: 0, index: 1 }, 1)
        );
        node.message_with_hint(obj, 9, 0.5, Bytes::from_static(b"p"));
        assert!(node.migrate(obj, 1));
        let packet = [U64(0), U64(1), U64(1), Str(b"obj"), U32(1), U64(0), U64(1)];
        let pending = [U32(1), U64(0), U64(0), U32(9), F64(0.5), Str(b"p"), U32(0)];
        let want = le(&[&packet[..], &pending[..]].concat());
        assert_eq!(sent(), (H_MOL_MIGRATE, Tag::System, want));
        let want = le(&[U64(0), U64(1), U64(1), U64(1)]);
        assert_eq!(sent(), (H_MOL_DIR_PUBLISH, Tag::System, want));
        assert!(raw.try_recv().is_none());
    }
}
