//! The Mobile Object Layer wire protocol.
//!
//! Six message kinds ride on DCS:
//!
//! * `MOL_MSG` — application messages targeted at mobile objects, each
//!   carrying a per-(sender, object) sequence number so delivery order is
//!   preserved even across migrations and forwarding chains. A frame holds
//!   one or more [`MolEnvelope`] records back to back: what a rank's units
//!   send one peer between two polls shares a [`Frame`], every other
//!   message is a frame of one;
//! * `MOL_MIGRATE` — a packed object moving to a new owner, together with its
//!   ordering state (per-sender expected sequence numbers), any accepted but
//!   not-yet-executed messages, and any out-of-order buffered messages;
//! * `NODE_MSG` — a plain rank-targeted message (used by the load-balancing
//!   framework for status/request traffic; not object-routed);
//! * `MOL_DIR_PUBLISH` — a migration publishing `(ptr, new_rank, epoch)` to
//!   the pointer's home shard (DESIGN.md §16);
//! * `MOL_DIR_LOOKUP` — an explicit location query to the home shard (the
//!   [`crate::MolNode::resolve`] miss path);
//! * `MOL_DIR_ANSWER` — the shard's authoritative reply, also piggybacked to
//!   the original sender whenever a rank has to forward its message.

use crate::ptr::MobilePtr;
use bytes::Bytes;
use prema_dcs::{HandlerId, Rank, WireReader, WireWriter};

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

    /// Decode a one-record frame; `None` if it is truncated or names a
    /// sender past `u32::MAX`.
    pub fn decode(payload: Bytes) -> Option<Self> {
        read_env(&mut WireReader::new(payload))
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
#[derive(Debug, PartialEq)]
pub struct MigratePacket {
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

impl MigratePacket {
    /// Encode for the wire, into a pooled buffer sized to what is written.
    pub fn encode(&self) -> Bytes {
        let len = 8 * 3
            + 4
            + self.object.len()
            + 4
            + 16 * self.expected.len()
            + 4
            + self
                .pending
                .iter()
                .map(|p| PENDING_HEADER + p.payload.len())
                .sum::<usize>()
            + 4
            + self
                .buffered
                .iter()
                .map(|e| ENV_HEADER + e.payload.len())
                .sum::<usize>();
        let mut w = WireWriter::pooled(len)
            .u64(self.ptr.home as u64)
            .u64(self.ptr.index)
            .u64(self.epoch)
            .bytes(&self.object)
            .u32(self.expected.len() as u32);
        for &(rank, seq) in &self.expected {
            w = w.u64(rank as u64).u64(seq);
        }
        w = w.u32(self.pending.len() as u32);
        for p in &self.pending {
            w = write_pending(w, p);
        }
        w = w.u32(self.buffered.len() as u32);
        for e in &self.buffered {
            w = write_env(w, e);
        }
        w.finish()
    }

    /// Decode from the wire; `None` if the frame is truncated, a count
    /// promises more records than follow, or a message names a sender past
    /// `u32::MAX`.
    pub fn decode(payload: Bytes) -> Option<Self> {
        let mut r = WireReader::new(payload);
        let ptr = MobilePtr {
            home: r.try_usize()?,
            index: r.try_u64()?,
        };
        let epoch = r.try_u64()?;
        let object = r.try_bytes()?;
        let n = r.try_u32()? as usize;
        let mut expected = Vec::with_capacity(reserve_for(n, 16, &r));
        for _ in 0..n {
            expected.push((r.try_usize()?, r.try_u64()?));
        }
        let n = r.try_u32()? as usize;
        let mut pending = Vec::with_capacity(reserve_for(n, PENDING_HEADER, &r));
        for _ in 0..n {
            pending.push(read_pending(&mut r)?);
        }
        let n = r.try_u32()? as usize;
        let mut buffered = Vec::with_capacity(reserve_for(n, ENV_HEADER, &r));
        for _ in 0..n {
            buffered.push(read_env(&mut r)?);
        }
        Some(MigratePacket {
            ptr,
            epoch,
            object,
            expected,
            pending,
            buffered,
        })
    }
}

/// A migration publishing its outcome to the pointer's home shard: "object
/// `ptr` now lives at `owner`, as of migration epoch `epoch`". Shards merge
/// by epoch-max, so duplicated or reordered publishes are harmless.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DirPublish {
    /// Which object moved.
    pub ptr: MobilePtr,
    /// Where it now lives (as of `epoch`).
    pub owner: Rank,
    /// Migration epoch of this information.
    pub epoch: u64,
}

impl DirPublish {
    /// Encode for the wire.
    pub fn encode(&self) -> Bytes {
        WireWriter::pooled(32)
            .u64(self.ptr.home as u64)
            .u64(self.ptr.index)
            .u64(self.owner as u64)
            .u64(self.epoch)
            .finish()
    }

    /// Decode from the wire; `None` if the frame is truncated.
    pub fn decode(payload: Bytes) -> Option<Self> {
        let mut r = WireReader::new(payload);
        Some(DirPublish {
            ptr: MobilePtr {
                home: r.try_usize()?,
                index: r.try_u64()?,
            },
            owner: r.try_usize()?,
            epoch: r.try_u64()?,
        })
    }
}

/// An explicit location query to a pointer's home shard.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DirLookup {
    /// Which object the inquirer wants resolved.
    pub ptr: MobilePtr,
    /// The freshest epoch the inquirer already holds for the object (0 if
    /// none) — lets the shard mark its answer as a stale-cache correction.
    pub epoch: u64,
}

impl DirLookup {
    /// Encode for the wire.
    pub fn encode(&self) -> Bytes {
        WireWriter::pooled(24)
            .u64(self.ptr.home as u64)
            .u64(self.ptr.index)
            .u64(self.epoch)
            .finish()
    }

    /// Decode from the wire; `None` if the frame is truncated.
    pub fn decode(payload: Bytes) -> Option<Self> {
        let mut r = WireReader::new(payload);
        Some(DirLookup {
            ptr: MobilePtr {
                home: r.try_usize()?,
                index: r.try_u64()?,
            },
            epoch: r.try_u64()?,
        })
    }
}

/// The home shard's location answer — sent in reply to a [`DirLookup`] and
/// piggybacked to the original sender whenever a rank forwards its message.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DirAnswer {
    /// Which object this answers for.
    pub ptr: MobilePtr,
    /// Best-known owner (as of `epoch`).
    pub owner: Rank,
    /// Migration epoch of this information; receivers keep the max.
    pub epoch: u64,
    /// Whether the receiver's earlier guess was stale (it sent a message
    /// that had to be forwarded, or looked up with an older epoch).
    pub stale: bool,
}

impl DirAnswer {
    /// Encode for the wire.
    pub fn encode(&self) -> Bytes {
        WireWriter::pooled(40)
            .u64(self.ptr.home as u64)
            .u64(self.ptr.index)
            .u64(self.owner as u64)
            .u64(self.epoch)
            .u32(u32::from(self.stale))
            .finish()
    }

    /// Decode from the wire; `None` if the frame is truncated.
    pub fn decode(payload: Bytes) -> Option<Self> {
        let mut r = WireReader::new(payload);
        Some(DirAnswer {
            ptr: MobilePtr {
                home: r.try_usize()?,
                index: r.try_u64()?,
            },
            owner: r.try_usize()?,
            epoch: r.try_u64()?,
            stale: r.try_u32()? != 0,
        })
    }
}

/// A rank-targeted message (load-balancer traffic and the like).
#[derive(Clone, Debug, PartialEq)]
pub struct NodeMsg {
    /// Application/runtime-level handler id.
    pub handler: u32,
    /// Payload.
    pub payload: Bytes,
}

impl NodeMsg {
    /// Encode for the wire.
    pub fn encode(&self) -> Bytes {
        WireWriter::pooled(8 + self.payload.len())
            .u32(self.handler)
            .bytes(&self.payload)
            .finish()
    }

    /// Decode from the wire; `None` if the frame is truncated.
    pub fn decode(payload: Bytes) -> Option<Self> {
        let mut r = WireReader::new(payload);
        Some(NodeMsg {
            handler: r.try_u32()?,
            payload: r.try_bytes()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn envelope_roundtrip() {
        let e = env(77);
        assert_eq!(MolEnvelope::decode(e.encode()), Some(e));
    }

    #[test]
    fn migrate_packet_roundtrip() {
        let p = MigratePacket {
            ptr: MobilePtr { home: 1, index: 2 },
            epoch: 4,
            object: Bytes::from_static(&[9, 8, 7]),
            expected: vec![(0, 5), (3, 1)],
            pending: vec![env(1).into(), env(2).into()],
            buffered: vec![env(10)],
        };
        assert_eq!(MigratePacket::decode(p.encode()), Some(p));
    }

    #[test]
    fn empty_migrate_packet_roundtrip() {
        let p = MigratePacket {
            ptr: MobilePtr { home: 0, index: 1 },
            epoch: 1,
            object: Bytes::new(),
            expected: vec![],
            pending: vec![],
            buffered: vec![],
        };
        assert_eq!(MigratePacket::decode(p.encode()), Some(p));
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
        let wire = p.encode();
        let decoded = MigratePacket::decode(wire.clone()).expect("a whole packet");
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
        let wire = p.encode();
        assert!(wire.len() < 8192);
        let v = wire.try_reclaim().expect("sole owner");
        assert!((8192..16384).contains(&v.capacity()), "{}", v.capacity());
    }

    #[test]
    fn truncated_frames_decode_to_none() {
        let e = env(3).encode();
        assert_eq!(MolEnvelope::decode(e.slice(0..e.len() - 1)), None);
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
        assert_eq!(MigratePacket::decode(hostile), None);
    }

    #[test]
    fn a_sender_past_u32_decodes_to_none() {
        let mut e = env(3);
        e.sender = u32::MAX as Rank;
        assert_eq!(MolEnvelope::decode(e.encode()), Some(e.clone()));
        e.sender += 1;
        assert_eq!(MolEnvelope::decode(e.encode()), None);
        let p = MigratePacket {
            ptr: MobilePtr { home: 0, index: 1 },
            epoch: 1,
            object: Bytes::new(),
            expected: vec![(e.sender, 4)],
            pending: vec![e.into()],
            buffered: vec![],
        };
        assert_eq!(MigratePacket::decode(p.encode()), None);
    }

    #[test]
    fn directory_messages_roundtrip() {
        let p = DirPublish {
            ptr: MobilePtr { home: 1, index: 44 },
            owner: 6,
            epoch: 9,
        };
        assert_eq!(DirPublish::decode(p.encode()), Some(p));
        let l = DirLookup {
            ptr: MobilePtr { home: 0, index: 12 },
            epoch: 3,
        };
        assert_eq!(DirLookup::decode(l.encode()), Some(l));
        for stale in [false, true] {
            let a = DirAnswer {
                ptr: MobilePtr { home: 2, index: 7 },
                owner: 4,
                epoch: 15,
                stale,
            };
            assert_eq!(DirAnswer::decode(a.encode()), Some(a));
        }
    }

    #[test]
    fn nodemsg_roundtrip() {
        let n = NodeMsg {
            handler: 6,
            payload: Bytes::from_static(b"lb"),
        };
        assert_eq!(NodeMsg::decode(n.encode()), Some(n));
    }
}
