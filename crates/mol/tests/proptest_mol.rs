//! Property-based tests for the Mobile Object Layer: object-message frames
//! that survive arbitrary bytes, and delivery-order preservation under
//! arbitrary interleavings of sends, polls, and migrations. The codec of the
//! MOL's six kinds has its own proptest, inside the crate
//! (`proto::tests::every_kind_round_trips_and_arbitrary_frames_never_panic`).

use bytes::Bytes;
use prema_dcs::{Communicator, Envelope, LocalFabric, Tag, Transport};
use prema_mol::proto::{frame_records, Frame, MolEnvelope, H_MOL_MSG};
use prema_mol::{Migratable, MobilePtr, MolEvent, MolNode};
use proptest::prelude::*;

#[derive(Debug, PartialEq, Clone)]
struct Log {
    seen: Vec<u32>,
}

impl Migratable for Log {
    fn pack(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&(self.seen.len() as u64).to_le_bytes());
        for &v in &self.seen {
            buf.extend_from_slice(&v.to_le_bytes());
        }
    }
    fn unpack(b: &[u8]) -> Self {
        let n = u64::from_le_bytes(b[..8].try_into().unwrap()) as usize;
        Log {
            seen: (0..n)
                .map(|i| u32::from_le_bytes(b[8 + 4 * i..12 + 4 * i].try_into().unwrap()))
                .collect(),
        }
    }
}

fn arb_env() -> impl Strategy<Value = MolEnvelope> {
    (
        0usize..64,
        0u64..u64::MAX,
        0usize..64,
        any::<u64>(),
        any::<u32>(),
        0u32..100,
        any::<bool>(),
        any::<u64>(),
        any::<f64>().prop_filter("finite", |f| f.is_finite()),
        proptest::collection::vec(any::<u8>(), 0..64),
    )
        .prop_map(
            |(home, index, sender, seq, handler, hops, anchored, route_epoch, hint, payload)| {
                MolEnvelope {
                    target: MobilePtr { home, index },
                    sender,
                    seq,
                    handler,
                    hops,
                    anchored,
                    route_epoch,
                    hint,
                    payload: Bytes::from(payload),
                }
            },
        )
}

/// An envelope for a frame when the strategy drew none.
fn plain_env(payload: Vec<u8>) -> MolEnvelope {
    MolEnvelope {
        target: MobilePtr { home: 1, index: 2 },
        sender: 0,
        seq: 0,
        handler: 1,
        hops: 0,
        anchored: false,
        route_epoch: 0,
        hint: 1.0,
        payload: Bytes::from(payload),
    }
}

/// A frame of `envs`' records, in order.
fn frame_of(envs: &[MolEnvelope]) -> Frame {
    let mut frame = Frame::new();
    for e in envs {
        frame.push(e);
    }
    frame
}

/// The records `frame_records` hands over from `frame`, and whether it
/// decoded to the end.
fn records_of(frame: Bytes) -> (Vec<MolEnvelope>, bool) {
    let mut got = Vec::new();
    let whole = frame_records(frame, |e| got.push(e)).is_some();
    (got, whole)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Reading an object-message frame is total: arbitrary bytes decode to
    /// `None` or to records, never a panic or an abort. That holds for a
    /// multi-record frame that runs from valid records into arbitrary bytes
    /// as well, and it hands over every valid record first, each once, in
    /// order.
    #[test]
    fn decoders_survive_arbitrary_bytes(
        envs in proptest::collection::vec(arb_env(), 0..4),
        raw in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        frame_records(Bytes::from(raw.clone()), drop);
        let mut frame = frame_of(&envs).finish().to_vec();
        let (whole, complete) = records_of(Bytes::from(frame.clone()));
        prop_assert_eq!(&whole, &envs);
        prop_assert_eq!(complete, !envs.is_empty());
        frame.extend_from_slice(&raw);
        let (got, _) = records_of(Bytes::from(frame));
        prop_assert!(got.len() >= envs.len());
        prop_assert_eq!(&got[..envs.len()], &envs[..]);
    }

    /// A frame whose record `k` is corrupt (a sender past `u32::MAX`, or
    /// cut off inside it) delivers records before `k` exactly once, drops
    /// the rest, and counts one dropped envelope.
    #[test]
    fn a_corrupt_record_drops_itself_and_what_follows(
        payloads in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..40), 1..8),
        corrupt in any::<usize>(),
        cut in any::<bool>(),
        into in any::<usize>(),
    ) {
        let mut eps = LocalFabric::new(2);
        let node_ep = eps.pop().expect("two endpoints");
        let raw = eps.pop().expect("two endpoints");
        let mut node: MolNode<Log> = MolNode::new(Communicator::new(Box::new(node_ep)));
        let ptr = node.register(Log { seen: vec![] });
        let envs: Vec<MolEnvelope> = payloads
            .into_iter()
            .enumerate()
            .map(|(i, p)| MolEnvelope {
                target: ptr,
                sender: 0,
                seq: i as u64,
                handler: i as u32,
                ..plain_env(p)
            })
            .collect();
        // `k == envs.len()`: nothing is corrupt.
        let k = corrupt % (envs.len() + 1);
        let mut frame = frame_of(&envs).finish().to_vec();
        let at: usize = envs[..k].iter().map(MolEnvelope::wire_len).sum();
        if k < envs.len() {
            if cut {
                frame.truncate(at + 1 + into % (envs[k].wire_len() - 1));
            } else {
                // The sender is the record's third u64.
                frame[at + 16..at + 24].copy_from_slice(&u64::MAX.to_le_bytes());
            }
        }
        raw.send(Envelope {
            src: 0,
            dst: 1,
            handler: H_MOL_MSG,
            tag: Tag::App,
            payload: Bytes::from(frame),
        });
        prop_assert!(node.pump().is_empty());
        let handlers: Vec<u32> = std::iter::from_fn(|| node.pop_work()).map(|w| w.handler).collect();
        prop_assert_eq!(handlers, (0..k as u32).collect::<Vec<_>>());
        prop_assert_eq!(node.stats().dropped_wire, u64::from(k < envs.len()));
    }

    /// The MOL's headline guarantee: for any interleaving of migrations and
    /// polls, messages from one sender reach the object in send order and
    /// nothing is lost or duplicated.
    #[test]
    fn delivery_order_holds_under_random_migrations(
        script in proptest::collection::vec((0u8..4, 0usize..3), 1..60),
        msgs in 5usize..30,
    ) {
        let n = 3;
        let mut nodes: Vec<MolNode<Log>> = LocalFabric::new(n)
            .into_iter()
            .map(|ep| MolNode::new(Communicator::new(Box::new(ep))))
            .collect();
        let ptr = nodes[0].register(Log { seen: vec![] });
        let mut sent = 0u32;
        let mut script_iter = script.into_iter();

        // Interleave: sends from rank 2, random migrations, random polls.
        while (sent as usize) < msgs {
            match script_iter.next() {
                Some((0, _)) | None => {
                    nodes[2].message(ptr, 1, Bytes::copy_from_slice(&sent.to_le_bytes()));
                    sent += 1;
                }
                Some((1, dst)) => {
                    // Whoever holds the object tries to migrate it to dst.
                    if let Some(src) = nodes.iter().position(|nd| nd.is_local(ptr)) {
                        if src != dst % n {
                            let _ = nodes[src].migrate(ptr, dst % n);
                        }
                    }
                }
                Some((_, r)) => {
                    deliver(&mut nodes[r % n], ptr);
                }
            }
        }
        // Drain everything.
        let mut quiet = 0;
        while quiet < 3 {
            let mut any = false;
            for node in nodes.iter_mut() {
                if deliver(node, ptr) {
                    any = true;
                }
            }
            if any { quiet = 0 } else { quiet += 1 }
        }
        // Find the object and check the log.
        let holder = nodes.iter().find(|nd| nd.get(ptr).is_some()).expect("object lost");
        let seen = &holder.get(ptr).unwrap().seen;
        let want: Vec<u32> = (0..sent).collect();
        prop_assert_eq!(seen, &want);
    }
}

/// A log that records `(sender, per-sender seq)` pairs, so per-sender order
/// can be checked even when several ranks interleave sends to one object.
#[derive(Debug, PartialEq, Clone, Default)]
struct MultiLog {
    seen: Vec<(u32, u32)>,
}

impl Migratable for MultiLog {
    fn pack(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&(self.seen.len() as u64).to_le_bytes());
        for &(s, q) in &self.seen {
            buf.extend_from_slice(&s.to_le_bytes());
            buf.extend_from_slice(&q.to_le_bytes());
        }
    }
    fn unpack(b: &[u8]) -> Self {
        let n = u64::from_le_bytes(b[..8].try_into().unwrap()) as usize;
        MultiLog {
            seen: (0..n)
                .map(|i| {
                    let at = 8 + 8 * i;
                    (
                        u32::from_le_bytes(b[at..at + 4].try_into().unwrap()),
                        u32::from_le_bytes(b[at + 4..at + 8].try_into().unwrap()),
                    )
                })
                .collect(),
        }
    }
}

/// Pump every node until nothing moves for three full rounds: no events
/// delivered *and* no envelope received anywhere. A forwarding hop produces
/// no `MolEvent`, so tracking received-message counts keeps multi-hop chains
/// through lower-ranked nodes from stranding mid-drain.
fn drain(nodes: &mut [MolNode<MultiLog>]) {
    let mut quiet = 0;
    while quiet < 3 {
        let before: u64 = nodes.iter().map(|n| n.comm().stats().msgs_recvd).sum();
        let mut any = false;
        for node in nodes.iter_mut() {
            let events = node.poll();
            any |= apply_events(node, events);
        }
        let after: u64 = nodes.iter().map(|n| n.comm().stats().msgs_recvd).sum();
        if any || after != before {
            quiet = 0
        } else {
            quiet += 1
        }
    }
}

/// Apply every delivered message to its log object; panics (via the MOL's
/// contract) if a message is delivered somewhere its object is not.
fn apply_events(node: &mut MolNode<MultiLog>, events: Vec<MolEvent>) -> bool {
    let mut any = false;
    for ev in events {
        if let MolEvent::Object { ptr, payload, .. } = ev {
            let s = u32::from_le_bytes(payload[..4].try_into().unwrap());
            let q = u32::from_le_bytes(payload[4..8].try_into().unwrap());
            let applied = node
                .with_object(ptr, |_, log| log.seen.push((s, q)))
                .is_some();
            assert!(applied, "delivered message for a non-local object");
            any = true;
        }
    }
    any
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Drives the runtime invariant oracles (`check-invariants`, default-on)
    /// through randomized schedules: several senders, two objects migrating
    /// independently, and polls withheld from arbitrary ranks for arbitrary
    /// stretches — so messages sit queued in the fabric ("delayed") and chase
    /// objects through stale forwarding chains. Every step that trips an
    /// oracle — out-of-order delivery, an epoch that fails to advance, a
    /// lost or duplicated work unit — panics inside the runtime, failing the
    /// property with the offending schedule. The final assertions re-check
    /// end-to-end what the oracles checked incrementally.
    #[test]
    fn ordering_oracle_holds_under_random_schedules(
        script in proptest::collection::vec((0u8..5, 0usize..4, 0usize..4), 20..120),
    ) {
        let n = 4;
        let mut nodes: Vec<MolNode<MultiLog>> = LocalFabric::new(n)
            .into_iter()
            .map(|ep| MolNode::new(Communicator::new(Box::new(ep))))
            .collect();
        let ptrs = [
            nodes[0].register(MultiLog::default()),
            nodes[1].register(MultiLog::default()),
        ];
        // Per (sender rank, object) sequence counters for the final check.
        let mut sent: std::collections::HashMap<(usize, usize), u32> =
            std::collections::HashMap::new();

        for (op, a, b) in script {
            let (rank, obj) = (a % n, b % ptrs.len());
            match op {
                0 | 1 => {
                    let seq = sent.entry((rank, obj)).or_insert(0);
                    let mut payload = Vec::new();
                    payload.extend_from_slice(&(rank as u32).to_le_bytes());
                    payload.extend_from_slice(&seq.to_le_bytes());
                    // Half the sends are staged, as a handler's are: they
                    // leave with the sender's next poll of either kind, or
                    // ahead of its next send to the same peer.
                    if op == 0 {
                        nodes[rank].message(ptrs[obj], 1, Bytes::from(payload));
                    } else {
                        nodes[rank].stage_message(ptrs[obj], 1, 1.0, Bytes::from(payload));
                    }
                    *seq += 1;
                }
                2 => {
                    // Whoever holds the object ships it to `rank`.
                    if let Some(src) = nodes.iter().position(|nd| nd.is_local(ptrs[obj])) {
                        if src != rank {
                            let _ = nodes[src].migrate(ptrs[obj], rank);
                        }
                    }
                }
                3 => {
                    let events = nodes[rank].poll();
                    apply_events(&mut nodes[rank], events);
                }
                _ => {
                    // System-only poll: migrations and location updates land,
                    // application messages stay sidelined (delayed).
                    nodes[rank].poll_system();
                }
            }
            #[cfg(feature = "check-invariants")]
            for node in nodes.iter() {
                node.verify_conservation();
            }
        }

        // Drain until globally quiet.
        let mut quiet = 0;
        while quiet < 3 {
            let mut any = false;
            for node in nodes.iter_mut() {
                let events = node.poll();
                any |= apply_events(node, events);
            }
            if any { quiet = 0 } else { quiet += 1 }
        }

        // End-to-end re-check of what the oracles asserted step by step.
        for (obj, ptr) in ptrs.iter().enumerate() {
            let holder = nodes.iter().find(|nd| nd.get(*ptr).is_some()).expect("object lost");
            let log = holder.get(*ptr).unwrap();
            for sender in 0..n {
                let got: Vec<u32> = log
                    .seen
                    .iter()
                    .filter(|&&(s, _)| s as usize == sender)
                    .map(|&(_, q)| q)
                    .collect();
                let want: Vec<u32> =
                    (0..sent.get(&(sender, obj)).copied().unwrap_or(0)).collect();
                prop_assert_eq!(got, want);
            }
            let total: u32 = (0..n).map(|s| sent.get(&(s, obj)).copied().unwrap_or(0)).sum();
            prop_assert_eq!(log.seen.len() as u32, total);
        }
    }

    /// `interactions_with()` is read off totals kept as messages are
    /// accepted and objects come and go, not recounted: after every step of a
    /// random schedule of local and remote sends, migrations out, installs
    /// and withheld polls, each rank's total for every sender must equal the
    /// walk over its resident objects' per-sender counts that it replaced.
    #[test]
    fn interaction_totals_equal_the_recounted_walk(
        script in proptest::collection::vec((0u8..5, 0usize..4, 0usize..3), 20..120),
    ) {
        let n = 4;
        let mut nodes: Vec<MolNode<MultiLog>> = LocalFabric::new(n)
            .into_iter()
            .map(|ep| MolNode::new(Communicator::new(Box::new(ep))))
            .collect();
        let ptrs = [
            nodes[0].register(MultiLog::default()),
            nodes[1].register(MultiLog::default()),
            nodes[1].register(MultiLog::default()),
        ];
        let mut sent = 0;
        for (op, a, b) in script {
            let (rank, obj) = (a % n, b % ptrs.len());
            match op {
                0 | 1 => {
                    nodes[rank].message(ptrs[obj], 1, Bytes::from(vec![0; 8]));
                    sent += 1;
                }
                2 => {
                    if let Some(src) = nodes.iter().position(|nd| nd.is_local(ptrs[obj])) {
                        if src != rank {
                            let _ = nodes[src].migrate(ptrs[obj], rank);
                        }
                    }
                }
                3 => {
                    let events = nodes[rank].poll();
                    apply_events(&mut nodes[rank], events);
                }
                _ => {
                    nodes[rank].poll_system();
                }
            }
            for node in nodes.iter() {
                for src in 0..n {
                    let walk: u64 = node
                        .local_ptrs()
                        .into_iter()
                        .map(|ptr| node.interactions_from(ptr, [src])[0])
                        .sum();
                    prop_assert_eq!(node.interactions_with(src), walk);
                }
            }
        }
        // Once everything has landed, every message sent has been consumed
        // by an object that is resident somewhere.
        drain(&mut nodes);
        let consumed: u64 = nodes
            .iter()
            .flat_map(|node| (0..n).map(|src| node.interactions_with(src)))
            .sum();
        prop_assert_eq!(consumed, sent);
    }

    /// The sharded directory's headline bound: under random interleavings of
    /// sends, migrations (publishes racing messages), explicit `resolve()`
    /// lookups, and withheld polls, every message is delivered exactly once
    /// and in order, and no message's forwarding chain exceeds `MAX_CHAIN` —
    /// provided at most two migrations overlap any message's flight
    /// (MAX_CHAIN's documented precondition), which the schedule enforces by
    /// draining in-flight traffic after every second migration. Within a
    /// window, sends still race up to two migrations and their publishes
    /// with polls withheld arbitrarily.
    #[test]
    fn directory_delivers_exactly_once_with_bounded_chains(
        script in proptest::collection::vec((0u8..6, 0usize..4, 0usize..4), 20..120),
    ) {
        use prema_mol::MAX_CHAIN;
        let n = 4;
        let mut nodes: Vec<MolNode<MultiLog>> = LocalFabric::new(n)
            .into_iter()
            .map(|ep| MolNode::new(Communicator::new(Box::new(ep))))
            .collect();
        let ptrs = [
            nodes[0].register(MultiLog::default()),
            nodes[1].register(MultiLog::default()),
        ];
        let mut sent: std::collections::HashMap<(usize, usize), u32> =
            std::collections::HashMap::new();
        let mut unsettled_migrations = 0u32;

        for (op, a, b) in script {
            let (rank, obj) = (a % n, b % ptrs.len());
            match op {
                0 | 1 => {
                    let seq = sent.entry((rank, obj)).or_insert(0);
                    let mut payload = Vec::new();
                    payload.extend_from_slice(&(rank as u32).to_le_bytes());
                    payload.extend_from_slice(&seq.to_le_bytes());
                    nodes[rank].message(ptrs[obj], 1, Bytes::from(payload));
                    *seq += 1;
                }
                2 => {
                    // Cap migrations overlapping any flight at two: beyond
                    // that the constant bound genuinely does not hold (an
                    // anchored message trail-walks without re-consulting the
                    // shard, so every migration committing mid-flight can
                    // add a hop). Drain to quiescence first.
                    if unsettled_migrations >= 2 {
                        drain(&mut nodes);
                        unsettled_migrations = 0;
                    }
                    if let Some(src) = nodes.iter().position(|nd| nd.is_local(ptrs[obj])) {
                        if src != rank && nodes[src].migrate(ptrs[obj], rank) {
                            unsettled_migrations += 1;
                        }
                    }
                }
                3 => {
                    // Explicit resolve: a miss issues a DirLookup to the
                    // home shard; the DirAnswer lands on a later poll.
                    let _ = nodes[rank].resolve(ptrs[obj]);
                }
                4 => {
                    let events = nodes[rank].poll();
                    apply_events(&mut nodes[rank], events);
                }
                _ => {
                    nodes[rank].poll_system();
                }
            }
        }

        drain(&mut nodes);

        // Exactly-once, in-order delivery of every send.
        for (obj, ptr) in ptrs.iter().enumerate() {
            let holder = nodes.iter().find(|nd| nd.get(*ptr).is_some()).expect("object lost");
            let log = holder.get(*ptr).unwrap();
            for sender in 0..n {
                let got: Vec<u32> = log
                    .seen
                    .iter()
                    .filter(|&&(s, _)| s as usize == sender)
                    .map(|&(_, q)| q)
                    .collect();
                let want: Vec<u32> =
                    (0..sent.get(&(sender, obj)).copied().unwrap_or(0)).collect();
                prop_assert_eq!(got, want);
            }
            let total: u32 = (0..n).map(|s| sent.get(&(s, obj)).copied().unwrap_or(0)).sum();
            prop_assert_eq!(log.seen.len() as u32, total);
        }
        // The documented constant chain bound.
        for (rank, node) in nodes.iter().enumerate() {
            let worst = node.stats().max_chain;
            prop_assert!(
                worst <= MAX_CHAIN,
                "rank {} delivered a message after {} hops (bound {})",
                rank, worst, MAX_CHAIN
            );
        }
    }
}

/// Poll one node and apply any delivered messages to the log object.
/// Returns true if anything happened.
fn deliver(node: &mut MolNode<Log>, _ptr: MobilePtr) -> bool {
    let events = node.poll();
    let mut any = !events.is_empty();
    for ev in events {
        if let MolEvent::Object { ptr, payload, .. } = ev {
            let v = u32::from_le_bytes(payload[..4].try_into().unwrap());
            let applied = node
                .with_object(ptr, |_, log| {
                    log.seen.push(v);
                })
                .is_some();
            assert!(applied, "delivered message for a non-local object");
            any = true;
        }
    }
    any
}
