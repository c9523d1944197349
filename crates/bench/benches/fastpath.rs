//! The substrate fast path: the costs PREMA pays *per message* in the layers
//! above the wire — fan-out, the buffer pool, migration — on the current
//! `LocalFabric`, and *per unit* through the whole runtime
//! (`fastpath/runtime_step_local_send`). The wire itself (empty poll,
//! point-to-point) is benched under the `substrate-ring/*` ids in
//! `benches/ring.rs`.
//!
//! This binary registers [`prema_bench::CountingAlloc`] as the global
//! allocator: the runtime-step bench **asserts** that a steady-state
//! `Runtime::step` allocates nothing, under `cargo bench --bench fastpath --
//! --test` too.

use bytes::Bytes;
use criterion::{criterion_group, criterion_main, Criterion};
use prema::{launch_single_rank, PremaConfig, Runtime};
use prema_dcs::{pool, Communicator, HandlerId, LocalFabric, Tag};
use prema_mol::{Migratable, MobilePtr, MolNode};
use std::hint::black_box;
use std::time::Instant;

#[global_allocator]
static ALLOC: prema_bench::CountingAlloc = prema_bench::CountingAlloc;

struct Blob(Vec<u8>);
impl Migratable for Blob {
    fn pack(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.0);
    }
    fn unpack(b: &[u8]) -> Self {
        Blob(b.to_vec())
    }
}

/// One rank broadcasting small messages to 7 peers — the load-balancer
/// status fan-out shape (§4.1 traffic).
fn bench_fanout(c: &mut Criterion) {
    let mut group = c.benchmark_group("substrate-fastpath");
    group.sample_size(10);
    const RANKS: usize = 8;
    const ROUNDS: usize = 2_000;
    group.bench_function(format!("fanout_{RANKS}ranks_broadcast"), |b| {
        b.iter(|| {
            let mut eps = LocalFabric::new(RANKS);
            let peers: Vec<Communicator> = eps
                .split_off(1)
                .into_iter()
                .map(|ep| Communicator::new(Box::new(ep)))
                .collect();
            let root = Communicator::new(Box::new(
                eps.pop().expect("fabric returns one endpoint per rank"),
            ));
            for i in 0..ROUNDS {
                for dst in 1..RANKS {
                    root.am_send(dst, HandlerId(i as u32), Tag::App, Bytes::new());
                }
            }
            let mut got = 0;
            for peer in &peers {
                while peer.try_recv().is_some() {
                    got += 1;
                }
            }
            assert_eq!(got, ROUNDS * (RANKS - 1));
            black_box(got)
        })
    });
    group.finish();
}

/// The pool's steady-state loop: take a buffer, fill it, freeze, recycle. One
/// iteration = 10k cycles; after warm-up every take should hit the freelist
/// (the hit rate is asserted, not just timed).
fn bench_pool_hit_rate(c: &mut Criterion) {
    let mut group = c.benchmark_group("substrate-fastpath");
    const CYCLES: usize = 10_000;
    // Warm the freelist so the measured loop is the steady state.
    pool::recycle(pool::take(256).freeze());
    pool::reset_stats();
    group.bench_function(format!("pool_take_recycle_256B_x{}k", CYCLES / 1000), |b| {
        b.iter(|| {
            for i in 0..CYCLES {
                use bytes::BufMut;
                let mut buf = pool::take(256);
                buf.put_slice(&(i as u64).to_le_bytes());
                black_box(&buf);
                pool::recycle(buf.freeze());
            }
        })
    });
    let stats = pool::stats();
    assert!(
        stats.hits > stats.misses * 100,
        "steady-state pool loop must run ~all-hits: {stats:?}"
    );
    group.finish();
}

/// Full migration round trip (pack, ship, install, location update) between
/// ranks 0 and 1 of machines of increasing size: the cost must stay flat in
/// machine size.
fn bench_migrate_cost(c: &mut Criterion) {
    let mut group = c.benchmark_group("substrate-fastpath");
    for n in [8usize, 32, 128] {
        let mut eps = LocalFabric::new(n);
        // Keep the unused endpoints alive so sends to them stay valid.
        let _others: Vec<_> = eps.split_off(2);
        let ep1 = eps.pop().expect("fabric returns one endpoint per rank");
        let ep0 = eps.pop().expect("fabric returns one endpoint per rank");
        let mut n0: MolNode<Blob> = MolNode::new(Communicator::new(Box::new(ep0)));
        let mut n1: MolNode<Blob> = MolNode::new(Communicator::new(Box::new(ep1)));
        let ptr = n0.register(Blob(vec![7; 1024]));
        group.bench_function(format!("migrate_1KiB_roundtrip_ranks{n}"), |b| {
            b.iter(|| {
                assert!(n0.migrate(ptr, 1));
                let _ = n1.poll();
                assert!(n1.migrate(ptr, 0));
                let _ = n0.poll();
                black_box(n0.is_local(ptr))
            })
        });
    }
    group.finish();
}

/// A mobile object of the runtime-step bench: where a token goes next.
struct Hop(MobilePtr);
impl Migratable for Hop {
    fn pack(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.0.to_bytes());
    }
    fn unpack(b: &[u8]) -> Self {
        Hop(MobilePtr::from_bytes(
            b[..16].try_into().expect("a packed Hop is 16 bytes"),
        ))
    }
}

const H_HOP: u32 = 1;
const HOP_OBJECTS: usize = 512;
const HOP_TOKENS: usize = 64;
const HOP_STEPS: usize = 10_000;

/// `Runtime::step` end to end on one rank (explicit mode, so no polling
/// thread): 512 objects in a ring, 64 tokens hopping along it, each unit one
/// 16-byte local send — the lock, the sliced polling operation, `begin`, the
/// handler, `finish` and the MOL's local accept, with nothing on the wire.
/// After warm-up, [`HOP_STEPS`] steps must not touch the allocator; the
/// per-step time of that run is printed, and one timed iteration is
/// [`HOP_STEPS`] steps.
fn bench_runtime_step(c: &mut Criterion) {
    let mut group = c.benchmark_group("fastpath");
    group.sample_size(10);
    let ep = LocalFabric::new(1)
        .pop()
        .expect("fabric returns one endpoint per rank");
    let cfg = PremaConfig::explicit(1);
    launch_single_rank(cfg, 0, Box::new(ep), None, |rt: Runtime<Hop>| {
        rt.on_message(H_HOP, |ctx, hop, item| {
            ctx.message(hop.0, H_HOP, Bytes::copy_from_slice(&item.payload));
        });
        let ptrs: Vec<MobilePtr> = (0..HOP_OBJECTS)
            .map(|_| rt.register(Hop(MobilePtr::NULL)))
            .collect();
        rt.with_scheduler(|s| {
            for (i, &p) in ptrs.iter().enumerate() {
                let hop = s.node_mut().get_mut(p).expect("registered here");
                hop.0 = ptrs[(i + 1) % HOP_OBJECTS];
            }
        });
        for t in 0..HOP_TOKENS {
            let payload = Bytes::copy_from_slice(&[t as u8; 16]);
            rt.message(ptrs[t * HOP_OBJECTS / HOP_TOKENS], H_HOP, payload);
        }
        let steps = |n: usize| {
            for _ in 0..n {
                assert!(rt.step(), "a token was lost");
            }
        };
        steps(HOP_STEPS);
        prema_bench::reset_alloc_count();
        let t0 = Instant::now();
        steps(HOP_STEPS);
        let per_step = t0.elapsed() / HOP_STEPS as u32;
        let allocs = prema_bench::alloc_count();
        assert_eq!(
            allocs, 0,
            "a steady-state Runtime::step must not allocate: {allocs} allocs / {HOP_STEPS} steps"
        );
        println!("  fastpath/runtime_step_local_send: {per_step:?} per step, 0 allocations");
        group.bench_function(
            format!("runtime_step_local_send_x{}k", HOP_STEPS / 1000),
            |b| b.iter(|| steps(HOP_STEPS)),
        );
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_fanout,
    bench_pool_hit_rate,
    bench_migrate_cost,
    bench_runtime_step
);
criterion_main!(benches);
