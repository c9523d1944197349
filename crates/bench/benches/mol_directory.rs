//! The sharded mobile-object directory: what a location lookup costs on
//! each of its paths (DESIGN.md §16).
//!
//! * `resolve_hit` — the O(1) promise of the sender caches: resolving a
//!   warm pointer is a local lookup, no wire traffic.
//! * `resolve_miss` — the bounded fallback: a cold resolve mails the home
//!   shard one `DirLookup` and the answer lands in the cache on a later
//!   poll. Measured over a working set larger than the cache so every
//!   resolve is a genuine capacity miss plus its shard round trip.
//! * `send_cached_direct` — the steady state: sends with a warm sender
//!   cache take one transport leg each.
//! * `migrate_publish` — what keeping the shard authority fresh adds to a
//!   migration round trip (a `DirPublish` per move).
//! * `chain_collapse` at 8/32/128 ranks — the recovery path: after a
//!   migration invalidates the sender's entry, the first send pays one
//!   constant stale → shard → owner redirect and the piggybacked answer
//!   re-warms the cache for the rest. Flat in machine size, unlike a
//!   trail walk.

use bytes::Bytes;
use criterion::{criterion_group, criterion_main, Criterion};
use prema_dcs::{Communicator, LocalFabric};
use prema_mol::{Migratable, MobilePtr, MolConfig, MolNode};
use std::hint::black_box;

struct Blob(Vec<u8>);
impl Migratable for Blob {
    fn pack(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.0);
    }
    fn unpack(b: &[u8]) -> Self {
        Blob(b.to_vec())
    }
}

fn sharded_machine(n: usize) -> Vec<MolNode<Blob>> {
    LocalFabric::new(n)
        .into_iter()
        .map(|ep| MolNode::with_config(Communicator::new(Box::new(ep)), MolConfig::default()))
        .collect()
}

/// Pump every node, taking its queued work, until `want` object messages
/// have been delivered.
fn deliver(nodes: &mut [MolNode<Blob>], want: usize) -> usize {
    let mut delivered = 0;
    while delivered < want {
        for node in nodes.iter_mut() {
            let _ = node.pump();
            delivered += std::iter::from_fn(|| node.pop_work()).count();
        }
    }
    delivered
}

/// Pump with no delivery target until a full quiet round (installs,
/// publishes, and teaching answers settled).
fn settle(nodes: &mut [MolNode<Blob>]) {
    loop {
        let before: u64 = nodes.iter().map(|n| n.comm().stats().msgs_recvd).sum();
        for node in nodes.iter_mut() {
            let _ = node.pump();
        }
        let after: u64 = nodes.iter().map(|n| n.comm().stats().msgs_recvd).sum();
        if after == before {
            break;
        }
    }
}

/// A 4-rank machine with one object migrated three hops from home and
/// rank 0's location cache warmed by a single taught send.
fn warm_machine() -> (Vec<MolNode<Blob>>, MobilePtr) {
    let mut nodes = sharded_machine(4);
    let ptr = nodes[1].register(Blob(vec![0; 64]));
    for dst in [2usize, 3, 2] {
        let src = nodes
            .iter()
            .position(|nd| nd.is_local(ptr))
            .expect("object resident");
        assert!(nodes[src].migrate(ptr, dst));
        settle(&mut nodes);
    }
    nodes[0].message(ptr, 0, Bytes::new());
    deliver(&mut nodes, 1);
    settle(&mut nodes);
    (nodes, ptr)
}

const SENDS: usize = 1_000;

fn bench_resolve_hit(c: &mut Criterion) {
    let mut group = c.benchmark_group("mol-directory");
    let (mut nodes, ptr) = warm_machine();
    assert_eq!(nodes[0].resolve(ptr), Some(2), "cache not warm");

    group.bench_function(format!("resolve_hit_x{SENDS}"), |b| {
        b.iter(|| {
            let mut owner = 0;
            for _ in 0..SENDS {
                owner = nodes[0].resolve(black_box(ptr)).expect("warm resolve");
            }
            black_box(owner)
        })
    });
    group.finish();
}

fn bench_resolve_miss(c: &mut Criterion) {
    const OBJS: usize = 1_024;
    let mut group = c.benchmark_group("mol-directory");
    // A cache far smaller than the working set: scanning all pointers in
    // order guarantees every resolve is a capacity miss, so each iteration
    // measures OBJS full miss round trips (DirLookup out, DirAnswer back).
    let tiny_cache = MolConfig { loc_cache: 64 };
    let mut nodes: Vec<MolNode<Blob>> = LocalFabric::new(4)
        .into_iter()
        .map(|ep| MolNode::with_config(Communicator::new(Box::new(ep)), tiny_cache))
        .collect();
    let ptrs: Vec<MobilePtr> = (0..OBJS)
        .map(|_| nodes[1].register(Blob(vec![0; 16])))
        .collect();

    group.bench_function(format!("resolve_miss_lookup_x{OBJS}"), |b| {
        b.iter(|| {
            for &ptr in &ptrs {
                black_box(nodes[0].resolve(ptr));
            }
            settle(&mut nodes);
        })
    });
    group.finish();
}

fn bench_send_cached_direct(c: &mut Criterion) {
    let mut group = c.benchmark_group("mol-directory");
    let (mut nodes, ptr) = warm_machine();

    group.bench_function(format!("send_cached_direct_x{SENDS}"), |b| {
        b.iter(|| {
            for i in 0..SENDS {
                nodes[0].message(ptr, i as u32, Bytes::new());
            }
            black_box(deliver(&mut nodes, SENDS))
        })
    });
    group.finish();
}

fn bench_migrate_publish(c: &mut Criterion) {
    let mut group = c.benchmark_group("mol-directory");
    // Ping-pong between ranks 1 and 2 on a 4-rank machine: each move ships
    // the packet, installs, and mails the pointer's shard a DirPublish.
    let mut nodes = sharded_machine(4);
    let ptr = nodes[1].register(Blob(vec![7; 1024]));
    group.bench_function("migrate_publish_1KiB_roundtrip", |b| {
        b.iter(|| {
            assert!(nodes[1].migrate(ptr, 2));
            settle(&mut nodes);
            assert!(nodes[2].migrate(ptr, 1));
            settle(&mut nodes);
            black_box(nodes[1].is_local(ptr))
        })
    });
    group.finish();
}

fn bench_chain_collapse(c: &mut Criterion) {
    const BATCH: usize = 100;
    let mut group = c.benchmark_group("mol-directory");
    for n in [8usize, 32, 128] {
        let mut nodes = sharded_machine(n);
        let ptr = nodes[1].register(Blob(vec![0; 64]));
        // Warm rank 0 once so the measured iterations start from a cached
        // (now invalidated-by-migration) entry, not a cold cache.
        nodes[0].message(ptr, 0, Bytes::new());
        deliver(&mut nodes, 1);
        settle(&mut nodes);
        group.bench_function(format!("chain_collapse_x{BATCH}_ranks{n}"), |b| {
            b.iter(|| {
                // Invalidate rank 0's entry: one migration hop (+3 is
                // coprime with every n here, so the walk cycles through the
                // machine instead of revisiting a rank).
                let src = nodes
                    .iter()
                    .position(|nd| nd.is_local(ptr))
                    .expect("object resident");
                let mut dst = (src + 3) % n;
                if dst == 0 {
                    dst = (dst + 3) % n;
                }
                assert!(nodes[src].migrate(ptr, dst));
                settle(&mut nodes);
                // The first send rides stale → redirect → owner; the
                // piggybacked answer collapses the chain and the rest of
                // the batch goes direct.
                for i in 0..BATCH {
                    nodes[0].message(ptr, i as u32, Bytes::new());
                }
                black_box(deliver(&mut nodes, BATCH))
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_resolve_hit,
    bench_resolve_miss,
    bench_send_cached_direct,
    bench_migrate_publish,
    bench_chain_collapse
);
criterion_main!(prema_bench::assert_oracle_free, benches);
