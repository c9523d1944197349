//! Differential test of the ready-work index (DESIGN.md §17) against the
//! structure it replaced.
//!
//! The reference model below *is* the old design: one global `VecDeque` per
//! rank, summed from scratch for the load, re-hashed from scratch for the
//! per-object summary, and rotated end to end to pull a migrating object's
//! messages out. Three real [`MolNode`]s and three models are driven through
//! the same random sequence of local sends, in-order and out-of-order
//! arrivals, pops, draining polls and migrations (including an object
//! returning to a rank whose queue still has the holes it left), and after
//! every operation the nodes must agree with the models on queue length,
//! load, per-object summary (order and tie-break included) and — whenever
//! something is popped — on exactly which message comes out.
//!
//! Arrivals are injected straight at the owning rank by a fourth, bare
//! endpoint that fabricates `(sender, seq)` pairs, so the test decides the
//! arrival order (and which sequence numbers are withheld to force
//! buffering) without modelling the MOL's routing.

use bytes::Bytes;
use prema_dcs::{Communicator, LocalFabric, Rank, Tag};
use prema_mol::proto::{MolEnvelope, H_MOL_MSG};
use prema_mol::{Migratable, MobilePtr, MolEvent, MolNode};
use proptest::prelude::*;
use std::collections::{BTreeMap, HashMap, VecDeque};

const RANKS: usize = 3;
const OBJECTS: usize = 6;
const HANDLER: u32 = 7;
/// Fabricated sender ranks of the injected streams (beyond the machine, so
/// they never collide with a rank's own sends).
const STREAMS: [Rank; 2] = [10, 11];

struct Blob;

impl Migratable for Blob {
    fn pack(&self, _buf: &mut Vec<u8>) {}
    fn unpack(_b: &[u8]) -> Self {
        Blob
    }
}

/// A message as the model sees it; `id` is unique and rides in the payload.
#[derive(Clone, Debug, PartialEq)]
struct Msg {
    target: MobilePtr,
    sender: Rank,
    seq: u64,
    hint: f64,
    id: u32,
}

/// Ordering state of one resident object (what travels in a migration
/// packet besides the queued messages).
#[derive(Default)]
struct ModelObject {
    expected: HashMap<Rank, u64>,
    ooo: HashMap<Rank, BTreeMap<u64, Msg>>,
}

/// The old design: one arrival-order queue, scanned for everything.
#[derive(Default)]
struct ModelRank {
    ready: VecDeque<Msg>,
    objects: HashMap<MobilePtr, ModelObject>,
}

impl ModelRank {
    fn accept(&mut self, m: Msg) {
        let obj = self.objects.get_mut(&m.target).expect("target is resident");
        let exp = obj.expected.entry(m.sender).or_insert(0);
        assert!(m.seq >= *exp, "the test never duplicates a message");
        if m.seq > *exp {
            obj.ooo.entry(m.sender).or_default().insert(m.seq, m);
            return;
        }
        *exp += 1;
        let sender = m.sender;
        self.ready.push_back(m);
        if let Some(buf) = obj.ooo.get_mut(&sender) {
            while let Some(next) = buf.remove(exp) {
                *exp += 1;
                self.ready.push_back(next);
            }
        }
    }

    /// The old `migrate` body: rotate the whole queue once, moving the
    /// object's messages out in order.
    fn migrate_out(&mut self, ptr: MobilePtr) -> (ModelObject, Vec<Msg>) {
        let mut pending = Vec::new();
        for _ in 0..self.ready.len() {
            let m = self.ready.pop_front().expect("length fixed above");
            if m.target == ptr {
                pending.push(m);
            } else {
                self.ready.push_back(m);
            }
        }
        (self.objects.remove(&ptr).expect("resident"), pending)
    }

    fn install(&mut self, ptr: MobilePtr, obj: ModelObject, pending: Vec<Msg>) {
        self.objects.insert(ptr, obj);
        self.ready.extend(pending);
    }

    /// The old `ready_load`: sum every queued hint.
    fn load(&self) -> f64 {
        self.ready.iter().map(|m| m.hint).sum()
    }

    /// The old `ready_summary`: hash the whole queue, heaviest first, ties
    /// by pointer.
    fn summary(&self) -> Vec<(MobilePtr, usize, f64)> {
        let mut acc: HashMap<MobilePtr, (usize, f64)> = HashMap::new();
        for m in &self.ready {
            let slot = acc.entry(m.target).or_insert((0, 0.0));
            slot.0 += 1;
            slot.1 += m.hint;
        }
        let mut out: Vec<_> = acc.into_iter().map(|(p, (n, w))| (p, n, w)).collect();
        out.sort_by(|a, b| b.2.total_cmp(&a.2).then(a.0.cmp(&b.0)));
        out
    }
}

struct World {
    nodes: Vec<MolNode<Blob>>,
    injector: Communicator,
    model: Vec<ModelRank>,
    ptrs: Vec<MobilePtr>,
    owner: HashMap<MobilePtr, Rank>,
    /// Next sequence number per (sender, object), real and fabricated.
    seq_out: HashMap<(Rank, MobilePtr), u64>,
    /// Next sequence number each (sender, object) pair must see executed.
    executed: HashMap<(Rank, MobilePtr), u64>,
    /// Injected messages generated but not yet delivered.
    held: Vec<Msg>,
    next_id: u32,
    popped: u32,
    /// Hints are multiples of 1/8, so every sum is exact in both designs and
    /// weights (and with them the summary order) must match to the bit.
    dyadic: bool,
}

impl World {
    fn new(dyadic: bool) -> World {
        let mut eps = LocalFabric::new(RANKS + 1).into_iter();
        let mut nodes: Vec<MolNode<Blob>> = eps
            .by_ref()
            .take(RANKS)
            .map(|ep| MolNode::new(Communicator::new(Box::new(ep))))
            .collect();
        let injector = Communicator::new(Box::new(eps.next().expect("fourth endpoint")));
        let mut model: Vec<ModelRank> = (0..RANKS).map(|_| ModelRank::default()).collect();
        let mut ptrs = Vec::new();
        let mut owner = HashMap::new();
        for i in 0..OBJECTS {
            let r = i % RANKS;
            let ptr = nodes[r].register(Blob);
            model[r].objects.insert(ptr, ModelObject::default());
            owner.insert(ptr, r);
            ptrs.push(ptr);
        }
        World {
            nodes,
            injector,
            model,
            ptrs,
            owner,
            seq_out: HashMap::new(),
            executed: HashMap::new(),
            held: Vec::new(),
            next_id: 0,
            popped: 0,
            dyadic,
        }
    }

    fn hint(&self, a: u8, b: u8) -> f64 {
        if self.dyadic {
            (1 + a % 24) as f64 / 8.0
        } else {
            0.9 + 0.2 * (a as f64 * 256.0 + b as f64) / 65_535.0
        }
    }

    fn make(&mut self, sender: Rank, target: MobilePtr, hint: f64) -> Msg {
        let seq = self.seq_out.entry((sender, target)).or_insert(0);
        let m = Msg {
            target,
            sender,
            seq: *seq,
            hint,
            id: self.next_id,
        };
        *seq += 1;
        self.next_id += 1;
        m
    }

    /// A rank messages an object it hosts: accepted on the spot.
    fn local_send(&mut self, obj: usize, hint: f64) {
        let ptr = self.ptrs[obj % OBJECTS];
        let r = self.owner[&ptr];
        let m = self.make(r, ptr, hint);
        self.nodes[r].message_with_hint(
            ptr,
            HANDLER,
            hint,
            Bytes::copy_from_slice(&m.id.to_le_bytes()),
        );
        self.model[r].accept(m);
    }

    /// Put an injected message on the wire to its target's owner and have
    /// the owner ingest it.
    fn deliver(&mut self, m: Msg) {
        let r = self.owner[&m.target];
        let env = MolEnvelope {
            target: m.target,
            sender: m.sender,
            seq: m.seq,
            handler: HANDLER,
            hops: 0,
            anchored: false,
            route_epoch: 0,
            hint: m.hint,
            payload: Bytes::copy_from_slice(&m.id.to_le_bytes()),
        };
        self.injector.am_send(r, H_MOL_MSG, Tag::App, env.encode());
        let events = self.nodes[r].pump();
        assert!(events.is_empty(), "pump keeps work queued: {events:?}");
        self.model[r].accept(m);
    }

    fn inject(&mut self, obj: usize, stream: usize, hint: f64, hold: bool) {
        let ptr = self.ptrs[obj % OBJECTS];
        let m = self.make(STREAMS[stream % STREAMS.len()], ptr, hint);
        if hold {
            self.held.push(m);
        } else {
            self.deliver(m);
        }
    }

    fn release(&mut self, pick: usize) {
        if !self.held.is_empty() {
            let m = self.held.swap_remove(pick % self.held.len());
            self.deliver(m);
        }
    }

    fn note_executed(&mut self, m: &Msg) {
        let next = self.executed.entry((m.sender, m.target)).or_insert(0);
        assert_eq!(m.seq, *next, "per-object FIFO broken for {m:?}");
        *next += 1;
        self.popped += 1;
    }

    fn pop(&mut self, r: usize) -> bool {
        let r = r % RANKS;
        let got = self.nodes[r].pop_work();
        let want = self.model[r].ready.pop_front();
        match (got, want) {
            (None, None) => false,
            (Some(item), Some(m)) => {
                assert_eq!(
                    (
                        item.ptr,
                        item.sender,
                        item.handler,
                        item.hint.to_bits(),
                        &item.payload[..]
                    ),
                    (
                        m.target,
                        m.sender,
                        HANDLER,
                        m.hint.to_bits(),
                        &m.id.to_le_bytes()[..]
                    ),
                    "rank {r} popped out of the old queue's order"
                );
                self.note_executed(&m);
                true
            }
            (got, want) => panic!("rank {r}: node popped {got:?}, model {want:?}"),
        }
    }

    /// The application-posted poll: everything queued comes out, in order.
    fn drain(&mut self, r: usize) {
        let r = r % RANKS;
        let got: Vec<(MobilePtr, Rank, Vec<u8>)> = self.nodes[r]
            .poll()
            .into_iter()
            .map(|ev| match ev {
                MolEvent::Object {
                    ptr,
                    sender,
                    payload,
                    ..
                } => (ptr, sender, payload.to_vec()),
                other => panic!("unexpected event {other:?}"),
            })
            .collect();
        let want: Vec<Msg> = self.model[r].ready.drain(..).collect();
        assert_eq!(
            got,
            want.iter()
                .map(|m| (m.target, m.sender, m.id.to_le_bytes().to_vec()))
                .collect::<Vec<_>>(),
            "rank {r} drained out of the old queue's order"
        );
        for m in &want {
            self.note_executed(m);
        }
    }

    fn migrate(&mut self, obj: usize, dst: usize) {
        let ptr = self.ptrs[obj % OBJECTS];
        let (src, dst) = (self.owner[&ptr], dst % RANKS);
        if src == dst {
            return;
        }
        assert!(self.nodes[src].migrate(ptr, dst));
        let events = self.nodes[dst].pump();
        assert!(
            matches!(events[..], [MolEvent::Installed { ptr: p, from }] if p == ptr && from == src),
            "expected the install, got {events:?}"
        );
        let (state, pending) = self.model[src].migrate_out(ptr);
        self.model[dst].install(ptr, state, pending);
        self.owner.insert(ptr, dst);
        // Drain the directory traffic the move caused.
        for r in 0..RANKS {
            assert!(self.nodes[r].pump().is_empty());
        }
    }

    fn check(&self) {
        for r in 0..RANKS {
            let (node, model) = (&self.nodes[r], &self.model[r]);
            assert_eq!(node.ready_len(), model.ready.len(), "rank {r} ready_len");
            let (load, want) = (node.ready_load(), model.load());
            if model.ready.is_empty() {
                assert_eq!(load.to_bits(), 0.0f64.to_bits(), "rank {r} empty load");
            }
            assert!(
                (load - want).abs() <= 1e-9 * want,
                "rank {r} ready_load {load} vs scanned {want}"
            );
            let (summary, want) = (node.ready_summary(), model.summary());
            if self.dyadic {
                assert_eq!(summary, want, "rank {r} ready_summary");
            } else {
                // Sums round differently, so near-ties may order either way:
                // compare content by object, and order against itself.
                assert!(summary
                    .windows(2)
                    .all(|w| w[0].2 > w[1].2 || (w[0].2 == w[1].2 && w[0].0 < w[1].0)));
                let by_ptr = |mut v: Vec<(MobilePtr, usize, f64)>| {
                    v.sort_by_key(|e| e.0);
                    v
                };
                let (summary, want) = (by_ptr(summary), by_ptr(want));
                assert_eq!(summary.len(), want.len(), "rank {r} summary size");
                for (s, w) in summary.iter().zip(&want) {
                    assert_eq!((s.0, s.1), (w.0, w.1), "rank {r} summary entry");
                    assert!((s.2 - w.2).abs() <= 1e-9 * w.2, "rank {r} summary weight");
                }
            }
            #[cfg(feature = "check-invariants")]
            node.verify_conservation();
        }
    }

    /// Deliver what is still withheld, pop everything, and account for every
    /// message ever generated.
    fn finish(mut self) {
        while !self.held.is_empty() {
            self.release(0);
            self.check();
        }
        for r in 0..RANKS {
            while self.pop(r) {
                self.check();
            }
        }
        assert_eq!(self.popped, self.next_id, "every message ran exactly once");
    }

    fn apply(&mut self, (kind, a, b, c): (u8, u8, u8, u8)) {
        let hint = self.hint(b, c);
        match kind % 8 {
            0 | 1 => self.local_send(a as usize, hint),
            2 => self.inject(a as usize, c as usize, hint, false),
            3 => self.inject(a as usize, c as usize, hint, true),
            4 => self.release(a as usize),
            5 => {
                self.pop(a as usize);
            }
            6 => self.migrate(a as usize, b as usize),
            _ if c % 4 == 0 => self.drain(a as usize),
            _ => {
                // A burst of local sends across the objects: builds depth.
                for i in 0..1 + b as usize % 32 {
                    self.local_send(a as usize + i, hint);
                }
            }
        }
        self.check();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn index_matches_the_scanned_queue(
        script in proptest::collection::vec((any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>()), 1..160),
        dyadic in any::<bool>(),
    ) {
        let mut w = World::new(dyadic);
        for op in script {
            w.apply(op);
        }
        w.finish();
    }
}

/// Enough holes to force the queue to close up and renumber (more than twice
/// the live messages plus the slack), with an object leaving and returning on
/// either side of it.
#[test]
fn order_survives_compaction_and_return() {
    let mut w = World::new(true);
    // Gather all six objects on rank 0 and queue some 120 messages on each,
    // half sent locally and half injected (one in seven withheld).
    for obj in 0..OBJECTS {
        w.migrate(obj, 0);
    }
    for i in 0..60 * OBJECTS {
        w.local_send(i, 1.0 + (i % 5) as f64 / 8.0);
        w.inject(i + 1, i, 0.5, i % 7 == 3);
    }
    w.check();
    // Out and straight back: rank 0's queue keeps the holes, the returning
    // messages go to its tail.
    w.migrate(2, 1);
    w.migrate(2, 0);
    w.check();
    for _ in 0..25 {
        w.pop(0);
    }
    // Five of six objects leave: holes now outnumber messages.
    for obj in 0..5 {
        w.migrate(obj, 1 + obj % 2);
        w.check();
    }
    for i in 0..40 {
        w.local_send(i, 0.25);
        w.pop(0);
        w.pop(1);
        w.check();
    }
    w.migrate(4, 0);
    w.migrate(1, 0);
    w.check();
    w.finish();
}
