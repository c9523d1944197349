//! Integration tests for the Mobile Object Layer: naming, routing,
//! migration, forwarding chains, and delivery-order preservation.

mod common;

use bytes::Bytes;
use common::{register_with_shard_not_in, Counter};
use prema_dcs::{Communicator, Envelope, HandlerId, LocalFabric, Tag, Transport};
use prema_mol::proto::{H_MOL_MIGRATE, H_MOL_MSG};
use prema_mol::{MobilePtr, MolEvent, MolNode};

/// Build an N-rank machine with all nodes owned by the test thread, so the
/// test can interleave polls deterministically.
fn machine(n: usize) -> Vec<MolNode<Counter>> {
    LocalFabric::new(n)
        .into_iter()
        .map(|ep| MolNode::new(Communicator::new(Box::new(ep))))
        .collect()
}

/// Pump every node, taking its queued work, until nothing flows for one
/// full round. Returns every work item taken, tagged with the rank that
/// executed it.
fn pump(nodes: &mut [MolNode<Counter>]) -> Vec<(usize, MobilePtr, u32, Bytes)> {
    let mut out = Vec::new();
    loop {
        let mut quiet = true;
        for (rank, node) in nodes.iter_mut().enumerate() {
            quiet &= node.pump().is_empty();
            while let Some(w) = node.pop_work() {
                quiet = false;
                out.push((rank, w.ptr, w.handler, w.payload));
            }
        }
        if quiet {
            break;
        }
    }
    out
}

const H_ADD: u32 = 1;

fn apply_add(node: &mut MolNode<Counter>, ptr: MobilePtr, payload: &Bytes) {
    let delta = i64::from_le_bytes(payload[..8].try_into().unwrap());
    node.with_object(ptr, |_, obj| obj.value += delta).unwrap();
}

#[test]
fn local_message_delivery() {
    let mut nodes = machine(1);
    let ptr = nodes[0].register(Counter { id: 7, value: 0 });
    nodes[0].message(ptr, H_ADD, Bytes::copy_from_slice(&5i64.to_le_bytes()));
    let evs = pump(&mut nodes);
    assert_eq!(evs.len(), 1);
    let (rank, p, h, payload) = &evs[0];
    assert_eq!((*rank, *p, *h), (0, ptr, H_ADD));
    apply_add(&mut nodes[0], ptr, payload);
    assert_eq!(nodes[0].get(ptr).unwrap().value, 5);
}

#[test]
fn remote_message_routes_to_home() {
    let mut nodes = machine(3);
    let ptr = nodes[2].register(Counter { id: 1, value: 0 });
    // Rank 0 has never heard of ptr; routing falls back to the home rank.
    nodes[0].message(ptr, H_ADD, Bytes::copy_from_slice(&3i64.to_le_bytes()));
    let evs = pump(&mut nodes);
    assert_eq!(evs.len(), 1);
    assert_eq!(evs[0].0, 2, "delivered at the home rank");
}

#[test]
fn migration_moves_state_and_name_follows() {
    let mut nodes = machine(2);
    let ptr = nodes[0].register(Counter { id: 9, value: 41 });
    assert!(nodes[0].migrate(ptr, 1));
    let _ = pump(&mut nodes);
    assert!(!nodes[0].is_local(ptr));
    assert!(nodes[1].is_local(ptr));
    assert_eq!(nodes[1].get(ptr).unwrap(), &Counter { id: 9, value: 41 });
    assert_eq!(nodes[1].stats().migrations_in, 1);
    assert_eq!(nodes[0].stats().migrations_out, 1);

    // Messages addressed via the old location still arrive (forwarding).
    nodes[0].message(ptr, H_ADD, Bytes::copy_from_slice(&1i64.to_le_bytes()));
    let evs = pump(&mut nodes);
    assert_eq!(evs.len(), 1);
    assert_eq!(evs[0].0, 1);
}

#[test]
fn forwarding_chain_and_lazy_location_update() {
    // A sender that is the pointer's home shard routes on the authority
    // and never goes stale, so pick a pointer sharded elsewhere.
    let mut nodes = machine(4);
    let (ptr, _) = register_with_shard_not_in(&mut nodes, &[1]);
    // Hop 0 → 1 → 2 → 3 without letting rank 0's knowledge catch up fully.
    assert!(nodes[0].migrate(ptr, 1));
    let _ = pump(&mut nodes);
    assert!(nodes[1].migrate(ptr, 2));
    let _ = pump(&mut nodes);
    assert!(nodes[2].migrate(ptr, 3));
    let _ = pump(&mut nodes);
    assert!(nodes[3].is_local(ptr));

    // A message from rank 1 (stale: thinks the object is at 2) must be
    // redirected to rank 3.
    nodes[1].message(ptr, H_ADD, Bytes::copy_from_slice(&7i64.to_le_bytes()));
    let evs = pump(&mut nodes);
    assert_eq!(evs.len(), 1);
    assert_eq!(evs[0].0, 3);
    // Somebody forwarded along the way.
    let total_forwards: u64 = nodes.iter().map(|n| n.stats().forwarded).sum();
    assert!(total_forwards >= 1);

    // The forwarder's piggybacked answer re-warmed rank 1: the next send
    // goes direct, no new forwards.
    nodes[1].message(ptr, H_ADD, Bytes::copy_from_slice(&1i64.to_le_bytes()));
    let before: u64 = nodes.iter().map(|n| n.stats().forwarded).sum();
    let evs = pump(&mut nodes);
    assert_eq!(evs.len(), 1);
    assert_eq!(evs[0].0, 3);
    let after: u64 = nodes.iter().map(|n| n.stats().forwarded).sum();
    assert_eq!(
        before, after,
        "the piggybacked answer should have collapsed the chain"
    );
}

#[test]
fn per_sender_order_preserved_across_migration() {
    let mut nodes = machine(3);
    let ptr = nodes[0].register(Counter { id: 3, value: 0 });
    // Sender (rank 2) fires a stream of messages; the object migrates
    // mid-stream. Delivery order must match send order exactly.
    for i in 0..5i64 {
        nodes[2].message(ptr, H_ADD, Bytes::copy_from_slice(&i.to_le_bytes()));
    }
    // Migrate before the messages are polled anywhere.
    assert!(nodes[0].migrate(ptr, 1));
    for i in 5..10i64 {
        nodes[2].message(ptr, H_ADD, Bytes::copy_from_slice(&i.to_le_bytes()));
    }
    let evs = pump(&mut nodes);
    let seen: Vec<i64> = evs
        .iter()
        .map(|(_, _, _, p)| i64::from_le_bytes(p[..8].try_into().unwrap()))
        .collect();
    assert_eq!(seen, (0..10).collect::<Vec<_>>(), "order violated");
    // All delivered at the new owner or the old one, but each exactly once.
    assert_eq!(evs.len(), 10);
}

#[test]
fn pending_messages_travel_with_the_object() {
    let mut nodes = machine(2);
    let ptr = nodes[0].register(Counter { id: 4, value: 0 });
    // Deliver a message into rank 0's ready queue but do not execute it.
    nodes[0].message(ptr, H_ADD, Bytes::copy_from_slice(&11i64.to_le_bytes()));
    // (message + ready enqueue happen inside poll)
    let pre = nodes[0].ready_len();
    assert_eq!(pre, 1, "message should be queued locally");
    // Migrate: the queued message must go along.
    assert!(nodes[0].migrate(ptr, 1));
    assert_eq!(nodes[0].ready_len(), 0);
    let evs = pump(&mut nodes);
    assert_eq!(evs.len(), 1);
    assert_eq!(evs[0].0, 1, "pending message re-delivered at destination");
}

#[test]
fn with_object_self_sends_are_delivered_after() {
    let mut nodes = machine(1);
    let ptr = nodes[0].register(Counter { id: 5, value: 0 });
    nodes[0].message(ptr, H_ADD, Bytes::copy_from_slice(&1i64.to_le_bytes()));
    let evs = pump(&mut nodes);
    assert_eq!(evs.len(), 1);
    // Handler sends to its own object (the paper's tree-walk pattern).
    nodes[0].with_object(ptr, |node, obj| {
        obj.value += 1;
        node.message(ptr, H_ADD, Bytes::copy_from_slice(&2i64.to_le_bytes()));
    });
    let evs = pump(&mut nodes);
    assert_eq!(evs.len(), 1, "self-send must surface as a later event");
}

/// An envelope naming a DCS handler the MOL does not own (here a retired
/// system id), or a MOL frame that does not decode, is counted and dropped,
/// not fatal, and traffic behind it on the same pair still lands.
#[test]
fn unknown_dcs_handler_is_dropped_not_fatal() {
    let mut eps = LocalFabric::new(2);
    let ep1 = eps.pop().unwrap();
    let raw = eps.pop().unwrap();
    for handler in [
        HandlerId(HandlerId::SYSTEM_BASE + 64),
        H_MOL_MSG,
        H_MOL_MIGRATE,
    ] {
        raw.send(Envelope {
            src: 0,
            dst: 1,
            handler,
            tag: Tag::System,
            payload: Bytes::from_static(b"junk"),
        });
    }
    let mut nodes: Vec<MolNode<Counter>> = [raw, ep1]
        .into_iter()
        .map(|ep| MolNode::new(Communicator::new(Box::new(ep))))
        .collect();
    let ptr = nodes[1].register(Counter { id: 4, value: 0 });
    nodes[0].message(ptr, H_ADD, Bytes::copy_from_slice(&2i64.to_le_bytes()));
    let evs = pump(&mut nodes);
    assert_eq!(nodes[1].stats().dropped_wire, 3);
    assert_eq!(evs.len(), 1);
    assert_eq!((evs[0].0, evs[0].1), (1, ptr));
    apply_add(&mut nodes[1], ptr, &evs[0].3);
    assert_eq!(nodes[1].get(ptr).unwrap().value, 2);
}

#[test]
fn system_poll_sees_migrations_but_not_app_messages() {
    let mut nodes = machine(2);
    let ptr = nodes[0].register(Counter { id: 6, value: 0 });
    // An app message and a migration race toward rank 1.
    nodes[0].message(ptr, H_ADD, Bytes::copy_from_slice(&1i64.to_le_bytes()));
    // ^ local: queued at rank 0. Now something for rank 1:
    nodes[0].node_message(1, 42, Tag::App, Bytes::from_static(b"app"));
    nodes[0].node_message(1, 43, Tag::System, Bytes::from_static(b"sys"));
    nodes[0].migrate(ptr, 1);

    // Rank 1 does a *system-only* poll, as the preemptive polling thread
    // would mid-work-unit.
    let evs = nodes[1].poll_system();
    let mut saw_install = false;
    let mut saw_sys_node = false;
    for ev in &evs {
        match ev {
            MolEvent::Installed { ptr: p, .. } => {
                assert_eq!(*p, ptr);
                saw_install = true;
            }
            MolEvent::Node {
                handler, system, ..
            } => {
                assert!(*system);
                assert_eq!(*handler, 43);
                saw_sys_node = true;
            }
        }
    }
    assert!(saw_install && saw_sys_node);

    // The app message is still there for the application's own poll.
    let evs = nodes[1].pump();
    let app_node: Vec<_> = evs
        .iter()
        .filter_map(|e| match e {
            MolEvent::Node {
                handler,
                system: false,
                ..
            } => Some(*handler),
            _ => None,
        })
        .collect();
    assert_eq!(app_node, vec![42]);
}

#[test]
fn two_objects_same_rank_are_independent() {
    let mut nodes = machine(2);
    let a = nodes[0].register(Counter { id: 1, value: 0 });
    let b = nodes[0].register(Counter { id: 2, value: 0 });
    assert_ne!(a, b);
    nodes[1].message(a, H_ADD, Bytes::copy_from_slice(&10i64.to_le_bytes()));
    nodes[1].message(b, H_ADD, Bytes::copy_from_slice(&20i64.to_le_bytes()));
    let evs = pump(&mut nodes);
    assert_eq!(evs.len(), 2);
    for (_, ptr, _, payload) in evs {
        let v = i64::from_le_bytes(payload[..8].try_into().unwrap());
        if ptr == a {
            assert_eq!(v, 10);
        } else {
            assert_eq!(v, 20);
        }
    }
}

#[test]
fn object_returns_home_after_round_trip() {
    let mut nodes = machine(2);
    let ptr = nodes[0].register(Counter { id: 8, value: 1 });
    assert!(nodes[0].migrate(ptr, 1));
    let _ = pump(&mut nodes);
    assert!(nodes[1].migrate(ptr, 0));
    let _ = pump(&mut nodes);
    assert!(nodes[0].is_local(ptr), "object should be home again");
    // Messages from both ranks still arrive.
    nodes[1].message(ptr, H_ADD, Bytes::copy_from_slice(&1i64.to_le_bytes()));
    let evs = pump(&mut nodes);
    assert_eq!(evs.len(), 1);
    assert_eq!(evs[0].0, 0);
}

#[test]
fn migrate_nonlocal_returns_false() {
    let mut nodes = machine(2);
    let ptr = nodes[0].register(Counter { id: 1, value: 0 });
    assert!(!nodes[1].migrate(ptr, 0));
    assert!(nodes[0].migrate(ptr, 1));
    assert!(!nodes[0].migrate(ptr, 1), "second migrate of a gone object");
}

/// Multi-threaded smoke test: four ranks on four threads, objects bouncing
/// while senders stream messages — order must hold per sender.
#[test]
fn threaded_stress_ordering() {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    const MSGS: i64 = 200;
    let eps = LocalFabric::new(2);
    let mut it = eps.into_iter();
    let ep0 = it.next().unwrap();
    let ep1 = it.next().unwrap();

    // Rank 0 registers the object and keeps migrating it 0→1→0…; rank 1
    // streams messages at it. We verify the deltas arrive in order by making
    // the handler assert monotonicity.
    let done = Arc::new(AtomicU64::new(0));
    let done2 = done.clone();

    let t0 = std::thread::spawn(move || {
        let mut node: MolNode<Counter> = MolNode::new(Communicator::new(Box::new(ep0)));
        let ptr = node.register(Counter { id: 1, value: -1 });
        // Tell rank 1 the pointer via a node message.
        node.node_message(1, 0, Tag::App, Bytes::copy_from_slice(&ptr.to_bytes()));
        let mut received = 0i64;
        while received < MSGS {
            let _ = node.pump();
            while let Some(w) = node.pop_work() {
                let v = i64::from_le_bytes(w.payload[..8].try_into().unwrap());
                node.with_object(w.ptr, |_, obj| {
                    assert_eq!(v, obj.value + 1, "out of order delivery");
                    obj.value = v;
                });
                received += 1;
            }
            std::thread::yield_now();
        }
        done2.store(1, Ordering::SeqCst);
    });

    let t1 = std::thread::spawn(move || {
        let mut node: MolNode<Counter> = MolNode::new(Communicator::new(Box::new(ep1)));
        // Wait for the pointer.
        let ptr = loop {
            let mut got = None;
            for ev in node.pump() {
                if let MolEvent::Node { payload, .. } = ev {
                    got = Some(MobilePtr::from_bytes(payload[..16].try_into().unwrap()));
                }
            }
            if let Some(p) = got {
                break p;
            }
            std::thread::yield_now();
        };
        for i in 0..MSGS {
            node.message(ptr, H_ADD, Bytes::copy_from_slice(&i.to_le_bytes()));
            if i % 37 == 0 {
                let _ = node.pump();
            }
        }
        // Keep polling (to forward or answer) until rank 0 reports done.
        while done.load(Ordering::SeqCst) == 0 {
            let _ = node.pump();
            std::thread::yield_now();
        }
    });

    t0.join().unwrap();
    t1.join().unwrap();
}

/// The surface `benchmark/` builds against: an explicit config with the one
/// field callers set, and the environment override with its floor.
#[test]
fn config_surface_is_loc_cache_only() {
    use prema_mol::MolConfig;
    let mut eps = LocalFabric::new(2).into_iter();
    let _default: MolNode<Counter> = MolNode::with_config(
        Communicator::new(Box::new(eps.next().unwrap())),
        MolConfig::default(),
    );
    let small = MolConfig { loc_cache: 64 };
    let _small: MolNode<Counter> =
        MolNode::with_config(Communicator::new(Box::new(eps.next().unwrap())), small);

    // The only writer of the variable in this binary; the other tests read
    // it through `MolNode::new` and are correct at any cache size.
    std::env::set_var("PREMA_LOC_CACHE", "1");
    assert_eq!(MolConfig::default().from_env().loc_cache, 2, "floor of 2");
    std::env::set_var("PREMA_LOC_CACHE", "128");
    assert_eq!(small.from_env().loc_cache, 128);
    std::env::remove_var("PREMA_LOC_CACHE");
    assert_eq!(small.from_env(), small);
}

/// Wide-area race: with injected latency, migrations and the messages
/// chasing them genuinely overlap in flight. Order and exactly-once delivery
/// must survive.
#[test]
fn threaded_ordering_survives_injected_latency() {
    use prema_dcs::{ChaosConfig, ChaosHandle, ChaosTransport};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    const MSGS: i64 = 60;
    // Every envelope is deferred the same number of receive polls: nothing
    // dropped or duplicated, per-pair FIFO intact, so no reliable shim.
    let cfg = ChaosConfig {
        delay_p: 1.0,
        delay_ticks: 16,
        ..ChaosConfig::quiet(23)
    };
    let handle = ChaosHandle::new();
    let mut eps = LocalFabric::new(3)
        .into_iter()
        .map(|ep| ChaosTransport::new(ep, cfg, handle.clone()));
    let ep0 = eps.next().unwrap();
    let ep1 = eps.next().unwrap();
    let ep2 = eps.next().unwrap();

    // Global exactly-once counter: every delivery increments it, wherever
    // the object happens to live at that moment.
    let delivered = Arc::new(AtomicU64::new(0));
    let (d0, d1, d2) = (delivered.clone(), delivered.clone(), delivered.clone());

    // Rank 0: owns the object initially; occasionally pushes it to rank 1.
    let t0 = std::thread::spawn(move || {
        let mut node: MolNode<Counter> = MolNode::new(Communicator::new(Box::new(ep0)));
        let ptr = node.register(Counter { id: 1, value: -1 });
        node.node_message(2, 0, Tag::App, Bytes::copy_from_slice(&ptr.to_bytes()));
        let mut local = 0i64;
        let mut hops = 0;
        while d0.load(Ordering::SeqCst) < MSGS as u64 {
            let _ = node.pump();
            while let Some(w) = node.pop_work() {
                let v = i64::from_le_bytes(w.payload[..8].try_into().unwrap());
                node.with_object(w.ptr, |_, obj| {
                    assert_eq!(v, obj.value + 1, "out of order under latency");
                    obj.value = v;
                });
                local += 1;
                d0.fetch_add(1, Ordering::SeqCst);
            }
            if node.is_local(ptr) && hops < 20 && local % 3 == 1 && node.migrate(ptr, 1) {
                hops += 1;
            }
            std::thread::yield_now();
        }
        local
    });

    // Rank 1: bounces the object straight back whenever it lands here.
    let t1 = std::thread::spawn(move || {
        let mut node: MolNode<Counter> = MolNode::new(Communicator::new(Box::new(ep1)));
        let mut local = 0i64;
        while d1.load(Ordering::SeqCst) < MSGS as u64 {
            // Execute the queued work, then bounce what was installed.
            let evs = node.pump();
            while let Some(w) = node.pop_work() {
                let v = i64::from_le_bytes(w.payload[..8].try_into().unwrap());
                node.with_object(w.ptr, |_, obj| {
                    assert_eq!(v, obj.value + 1, "out of order under latency");
                    obj.value = v;
                });
                local += 1;
                d1.fetch_add(1, Ordering::SeqCst);
            }
            let bounce = evs.into_iter().rev().find_map(|ev| match ev {
                MolEvent::Installed { ptr, .. } => Some(ptr),
                _ => None,
            });
            if let Some(ptr) = bounce {
                let _ = node.migrate(ptr, 0);
            }
            std::thread::yield_now();
        }
        local
    });

    // Rank 2: the sender.
    let t2 = std::thread::spawn(move || {
        let mut node: MolNode<Counter> = MolNode::new(Communicator::new(Box::new(ep2)));
        let ptr = loop {
            let mut got = None;
            for ev in node.pump() {
                if let MolEvent::Node { payload, .. } = ev {
                    got = Some(MobilePtr::from_bytes(payload[..16].try_into().unwrap()));
                }
            }
            if let Some(p) = got {
                break p;
            }
            std::thread::yield_now();
        };
        for i in 0..MSGS {
            node.message(ptr, H_ADD, Bytes::copy_from_slice(&i.to_le_bytes()));
            if i % 5 == 0 {
                std::thread::sleep(Duration::from_micros(300));
            }
            let _ = node.pump();
        }
        // Keep routing (forwarding duty) until everything is delivered.
        while d2.load(Ordering::SeqCst) < MSGS as u64 {
            let _ = node.pump();
            std::thread::yield_now();
        }
    });

    let r0 = t0.join().unwrap();
    let r1 = t1.join().unwrap();
    t2.join().unwrap();
    // Exactly-once: the two possible hosts together saw every message.
    assert_eq!(r0 + r1, MSGS);
    assert_eq!(
        delivered.load(std::sync::atomic::Ordering::SeqCst),
        MSGS as u64
    );
    assert!(handle.stats().delayed > 0, "no latency was injected");
}
