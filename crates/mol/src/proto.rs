//! The Mobile Object Layer wire protocol.
//!
//! Six message kinds ride on DCS:
//!
//! * `MOL_MSG` — an application message targeted at a mobile object,
//!   carrying a per-(sender, object) sequence number so delivery order is
//!   preserved even across migrations and forwarding chains;
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

    /// Decode from the wire.
    pub fn decode(payload: Bytes) -> Self {
        let mut r = WireReader::new(payload);
        read_env(&mut r)
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

fn read_env(r: &mut WireReader) -> MolEnvelope {
    MolEnvelope {
        target: MobilePtr {
            home: r.u64() as usize,
            index: r.u64(),
        },
        sender: r.u64() as usize,
        seq: r.u64(),
        handler: r.u32(),
        hops: r.u32(),
        anchored: r.u32() != 0,
        route_epoch: r.u64(),
        hint: r.f64(),
        payload: r.bytes(),
    }
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
    pub pending: Vec<MolEnvelope>,
    /// Out-of-order buffered messages; re-enter sequence checking at the
    /// destination.
    pub buffered: Vec<MolEnvelope>,
}

impl MigratePacket {
    /// Encode for the wire.
    pub fn encode(&self) -> Bytes {
        let mut w = WireWriter::pooled(32 + self.object.len())
            .u64(self.ptr.home as u64)
            .u64(self.ptr.index)
            .u64(self.epoch)
            .bytes(&self.object)
            .u32(self.expected.len() as u32);
        for &(rank, seq) in &self.expected {
            w = w.u64(rank as u64).u64(seq);
        }
        w = w.u32(self.pending.len() as u32);
        for e in &self.pending {
            w = write_env(w, e);
        }
        w = w.u32(self.buffered.len() as u32);
        for e in &self.buffered {
            w = write_env(w, e);
        }
        w.finish()
    }

    /// Decode from the wire.
    pub fn decode(payload: Bytes) -> Self {
        let mut r = WireReader::new(payload);
        let ptr = MobilePtr {
            home: r.u64() as usize,
            index: r.u64(),
        };
        let epoch = r.u64();
        let object = r.bytes();
        let n_exp = r.u32() as usize;
        let expected = (0..n_exp).map(|_| (r.u64() as usize, r.u64())).collect();
        let n_pend = r.u32() as usize;
        let pending = (0..n_pend).map(|_| read_env(&mut r)).collect();
        let n_buf = r.u32() as usize;
        let buffered = (0..n_buf).map(|_| read_env(&mut r)).collect();
        MigratePacket {
            ptr,
            epoch,
            object,
            expected,
            pending,
            buffered,
        }
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

    /// Decode from the wire.
    pub fn decode(payload: Bytes) -> Self {
        let mut r = WireReader::new(payload);
        DirPublish {
            ptr: MobilePtr {
                home: r.u64() as usize,
                index: r.u64(),
            },
            owner: r.u64() as usize,
            epoch: r.u64(),
        }
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

    /// Decode from the wire.
    pub fn decode(payload: Bytes) -> Self {
        let mut r = WireReader::new(payload);
        DirLookup {
            ptr: MobilePtr {
                home: r.u64() as usize,
                index: r.u64(),
            },
            epoch: r.u64(),
        }
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

    /// Decode from the wire.
    pub fn decode(payload: Bytes) -> Self {
        let mut r = WireReader::new(payload);
        DirAnswer {
            ptr: MobilePtr {
                home: r.u64() as usize,
                index: r.u64(),
            },
            owner: r.u64() as usize,
            epoch: r.u64(),
            stale: r.u32() != 0,
        }
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

    /// Decode from the wire.
    pub fn decode(payload: Bytes) -> Self {
        let mut r = WireReader::new(payload);
        NodeMsg {
            handler: r.u32(),
            payload: r.bytes(),
        }
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
        assert_eq!(MolEnvelope::decode(e.encode()), e);
    }

    #[test]
    fn migrate_packet_roundtrip() {
        let p = MigratePacket {
            ptr: MobilePtr { home: 1, index: 2 },
            epoch: 4,
            object: Bytes::from_static(&[9, 8, 7]),
            expected: vec![(0, 5), (3, 1)],
            pending: vec![env(1), env(2)],
            buffered: vec![env(10)],
        };
        assert_eq!(MigratePacket::decode(p.encode()), p);
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
        assert_eq!(MigratePacket::decode(p.encode()), p);
    }

    #[test]
    fn directory_messages_roundtrip() {
        let p = DirPublish {
            ptr: MobilePtr { home: 1, index: 44 },
            owner: 6,
            epoch: 9,
        };
        assert_eq!(DirPublish::decode(p.encode()), p);
        let l = DirLookup {
            ptr: MobilePtr { home: 0, index: 12 },
            epoch: 3,
        };
        assert_eq!(DirLookup::decode(l.encode()), l);
        for stale in [false, true] {
            let a = DirAnswer {
                ptr: MobilePtr { home: 2, index: 7 },
                owner: 4,
                epoch: 15,
                stale,
            };
            assert_eq!(DirAnswer::decode(a.encode()), a);
        }
    }

    #[test]
    fn nodemsg_roundtrip() {
        let n = NodeMsg {
            handler: 6,
            payload: Bytes::from_static(b"lb"),
        };
        assert_eq!(NodeMsg::decode(n.encode()), n);
    }
}
