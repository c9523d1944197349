//! MOL under an unreliable wire: duplicated migration packets must install
//! exactly once, duplicated messages must execute exactly once, and a lost
//! publish or answer must degrade to forwarding — never to lost delivery.

mod common;

use bytes::Bytes;
use common::{register_with_shard_not_in, Counter};
use prema_dcs::{ChaosConfig, ChaosHandle, ChaosTransport, Communicator, LocalFabric};
use prema_mol::{MobilePtr, MolConfig, MolEvent, MolNode, MAX_CHAIN};

const H_ADD: u32 = 1;

/// An N-rank machine whose wire is wrapped in [`ChaosTransport`]s sharing
/// one [`ChaosHandle`].
fn chaos_machine(n: usize, cfg: ChaosConfig) -> (Vec<MolNode<Counter>>, ChaosHandle) {
    let handle = ChaosHandle::new();
    let nodes = LocalFabric::new(n)
        .into_iter()
        .map(|ep| {
            let chaos = ChaosTransport::new(ep, cfg, handle.clone());
            MolNode::with_config(Communicator::new(Box::new(chaos)), MolConfig::default())
        })
        .collect();
    (nodes, handle)
}

/// Pump every node until a full quiet round; returns (rank, ptr, handler,
/// payload) for every delivered object message.
fn pump(nodes: &mut [MolNode<Counter>]) -> Vec<(usize, MobilePtr, u32, Bytes)> {
    let mut out = Vec::new();
    loop {
        // Quiet means *nothing moved*: no events delivered and no envelope
        // received anywhere — a forwarding hop produces no MolEvent but must
        // still count as progress or a chain through a lower-ranked node
        // would strand mid-pump.
        let before: u64 = nodes.iter().map(|n| n.comm().stats().msgs_recvd).sum();
        let mut quiet = true;
        for (rank, node) in nodes.iter_mut().enumerate() {
            for ev in node.poll() {
                quiet = false;
                if let MolEvent::Object {
                    ptr,
                    handler,
                    payload,
                    ..
                } = ev
                {
                    out.push((rank, ptr, handler, payload));
                }
            }
        }
        let after: u64 = nodes.iter().map(|n| n.comm().stats().msgs_recvd).sum();
        if quiet && after == before {
            break;
        }
    }
    out
}

fn apply_add(node: &mut MolNode<Counter>, ptr: MobilePtr, payload: &Bytes) {
    let delta = i64::from_le_bytes(payload[..8].try_into().unwrap());
    node.with_object(ptr, |_, obj| obj.value += delta).unwrap();
}

#[test]
fn duplicated_wire_is_idempotent() {
    // dup_p = 1.0: every envelope is delivered twice. Message sequence
    // numbers must discard the replays, and the migration epoch guard must
    // discard the second MigratePacket instead of double-installing.
    let cfg = ChaosConfig {
        dup_p: 1.0,
        ..ChaosConfig::quiet(11)
    };
    let (mut nodes, _handle) = chaos_machine(2, cfg);
    let ptr = nodes[0].register(Counter { id: 3, value: 0 });

    // Two remote messages, each doubled on the wire: applied exactly once.
    for delta in [5i64, 7] {
        nodes[1].message(ptr, H_ADD, Bytes::copy_from_slice(&delta.to_le_bytes()));
    }
    let evs = pump(&mut nodes);
    assert_eq!(evs.len(), 2, "duplicates leaked through: {evs:?}");
    for (rank, p, _h, payload) in &evs {
        apply_add(&mut nodes[*rank], *p, payload);
    }
    assert_eq!(nodes[0].get(ptr).unwrap().value, 12);
    assert_eq!(nodes[0].stats().duplicates, 2);

    // Migrate under the same wire: the doubled MigratePacket must install
    // once and count the replay as stale, not clone the object.
    assert!(nodes[0].migrate(ptr, 1));
    let _ = pump(&mut nodes);
    assert!(nodes[1].is_local(ptr));
    assert_eq!(nodes[1].get(ptr).unwrap().value, 12);
    assert_eq!(nodes[1].stats().migrations_in, 1);
    assert_eq!(nodes[1].stats().stale_installs, 1);

    // Post-migration delivery still exactly-once.
    nodes[0].message(ptr, H_ADD, Bytes::copy_from_slice(&1i64.to_le_bytes()));
    let evs = pump(&mut nodes);
    assert_eq!(evs.len(), 1);
    assert_eq!(evs[0].0, 1);
    nodes[0].verify_conservation();
    nodes[1].verify_conservation();
}

#[test]
fn lost_publish_degrades_to_home_forwarding() {
    // A migration's DirPublish to the home shard is an optimization: when a
    // partition eats it, a cold sender's shard miss falls back to the
    // pointer's home rank, whose never-evicted forward pointer still reaches
    // the object. Chains stay within MAX_CHAIN, and nothing wedges.
    let (mut nodes, handle) = chaos_machine(6, ChaosConfig::quiet(17));
    // Shard must be remote from every rank the object will visit (else a
    // publish is a local fold that chaos can't eat).
    let (ptr, shard) = register_with_shard_not_in(&mut nodes, &[0, 1, 2, 3]);
    let dst = 1;

    handle.partition(0, shard);
    assert!(nodes[0].migrate(ptr, dst));
    let _ = pump(&mut nodes); // install lands on dst; the publish is eaten
    assert!(nodes[dst].is_local(ptr));
    assert!(
        handle.stats().partitioned >= 1,
        "expected the DirPublish to be eaten"
    );
    handle.heal_all();

    // A cold sender (neither home, shard, nor owner) misses its cache, asks
    // the shard; the shard knows nothing and anchors the message to the
    // pointer's home, which forwards down its trail to the owner.
    let sender = (4..6).find(|&r| r != shard).unwrap();
    nodes[sender].message(ptr, H_ADD, Bytes::copy_from_slice(&4i64.to_le_bytes()));
    let evs = pump(&mut nodes);
    assert_eq!(evs.len(), 1, "message lost after eaten publish");
    assert_eq!(evs[0].0, dst, "delivered at the object's actual rank");
    apply_add(&mut nodes[dst], ptr, &evs[0].3);
    assert_eq!(nodes[dst].get(ptr).unwrap().value, 4);
    let max_chain = nodes.iter().map(|n| n.stats().max_chain).max().unwrap();
    assert!(
        max_chain <= MAX_CHAIN,
        "degraded chain {max_chain} exceeded MAX_CHAIN {MAX_CHAIN}"
    );

    // Two more moves, both publishes eaten: everything the sender and the
    // shard know now names a rank the object has left, and only the forward
    // pointers 1 → 2 → 3 reach it. Four messages sent back to back must all
    // walk that trail and execute at the final owner in send order.
    let eaten = handle.stats().partitioned;
    for (src, next) in [(1, 2), (2, 3)] {
        handle.partition(src, shard);
        assert!(nodes[src].migrate(ptr, next));
        let _ = pump(&mut nodes);
        handle.heal_all();
    }
    assert!(nodes[3].is_local(ptr));
    assert!(
        handle.stats().partitioned >= eaten + 2,
        "expected both DirPublishes to be eaten"
    );
    let forwards =
        |nodes: &[MolNode<Counter>]| -> u64 { nodes.iter().map(|n| n.stats().forwarded).sum() };
    let before = forwards(&nodes);
    for i in 0..4i64 {
        nodes[sender].message(ptr, H_ADD, Bytes::copy_from_slice(&i.to_le_bytes()));
    }
    let evs = pump(&mut nodes);
    let seen: Vec<(usize, i64)> = evs
        .iter()
        .map(|(rank, _, _, p)| (*rank, i64::from_le_bytes(p[..8].try_into().unwrap())))
        .collect();
    assert_eq!(seen, vec![(3, 0), (3, 1), (3, 2), (3, 3)]);
    assert!(
        forwards(&nodes) - before >= 2 * 4,
        "each message should have ridden both trail hops"
    );
    for n in &nodes {
        n.verify_conservation();
    }
}

#[test]
fn lost_shard_answers_degrade_to_forwarding() {
    // The DirAnswers that forwarders and the shard mail back to teach a
    // sender are pure optimization: seeded loss of every reply leaves the
    // sender with only its self-cached epoch-0 home guess, so each send
    // rides home → shard redirect → owner — delivery stays exactly-once and
    // in order, and nothing wedges.
    let (mut nodes, handle) = chaos_machine(4, ChaosConfig::quiet(19));
    let (ptr, shard) = register_with_shard_not_in(&mut nodes, &[0, 1]);
    let dst = 1;
    assert!(nodes[0].migrate(ptr, dst));
    let _ = pump(&mut nodes); // publish reaches the shard

    let sender = (0..4).find(|r| ![0, dst, shard].contains(r)).unwrap();
    for delta in [3i64, 9] {
        // The cold miss caches "lives at home" and routes there; home
        // redirects through the shard, which anchors the message to the
        // owner. Both hops mail the sender a teaching DirAnswer — cut the
        // sender off from both teachers so every reply dies in flight.
        nodes[sender].message(ptr, H_ADD, Bytes::copy_from_slice(&delta.to_le_bytes()));
        let _ = nodes[0].poll(); // home: redirect to shard + DirAnswer to sender
        let _ = nodes[shard].poll(); // shard: anchor to owner + DirAnswer to sender
        handle.partition(sender, 0);
        handle.partition(sender, shard);
        let _ = nodes[sender].poll(); // admission drops the in-flight answers
        handle.heal_all();
        let evs = pump(&mut nodes);
        assert_eq!(evs.len(), 1, "message lost with answers eaten");
        assert_eq!(evs[0].0, dst);
        apply_add(&mut nodes[dst], ptr, &evs[0].3);
    }
    assert_eq!(nodes[dst].get(ptr).unwrap().value, 12);
    // The sender never learned the true location: one genuine cold miss,
    // then one stale hit on its own epoch-0 home guess.
    assert_eq!(nodes[sender].stats().loc_cache_misses, 1);
    assert_eq!(nodes[sender].stats().loc_cache_hits, 1);
    let max_chain = nodes.iter().map(|n| n.stats().max_chain).max().unwrap();
    assert!(max_chain <= MAX_CHAIN);
    for n in &nodes {
        n.verify_conservation();
    }
}
