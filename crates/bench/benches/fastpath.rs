//! The substrate fast path: the costs PREMA pays *per message* in the layers
//! above the wire — fan-out, the buffer pool, migration — on the current
//! `LocalFabric`, and *per unit* through the whole runtime
//! (`fastpath/runtime_step_local_send`; on rank 0 of two, with no I/O,
//! `fastpath/step_empty_handler` and `fastpath/local_message`). The wire
//! itself (empty poll, point-to-point) is benched under the
//! `substrate-ring/*` ids in `benches/ring.rs`.
//!
//! This binary registers [`prema_bench::CountingAlloc`] as the global
//! allocator: the runtime-step bench **asserts** that a steady-state
//! `Runtime::step` followed by its `Completion::report` allocates nothing
//! and sends nothing, the two-rank step benches the same of a bare
//! `Runtime::step`, the remote-hop bench that a steady-state remote MOL
//! hop allocates at most once, and the staged-slice bench that eight staged
//! remote hops and one pump cost one envelope and at most one allocation,
//! under `cargo bench --bench fastpath -- --test` too.

use bytes::Bytes;
use criterion::{criterion_group, criterion_main, Criterion};
use prema::{launch_single_rank, Completion, PremaConfig, Runtime};
use prema_dcs::{pool, Communicator, HandlerId, LocalFabric, Tag};
use prema_mol::{Migratable, MobilePtr, MolConfig, MolNode};
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

/// The pool's steady-state loop: take a buffer, fill it, freeze, drop (its
/// storage goes home). One iteration = 10k cycles; after warm-up every take
/// should hit the freelist (the hit rate is asserted, not just timed).
fn bench_pool_hit_rate(c: &mut Criterion) {
    let mut group = c.benchmark_group("substrate-fastpath");
    const CYCLES: usize = 10_000;
    // Warm the freelist so the measured loop is the steady state.
    drop(pool::take(256).freeze());
    pool::reset_stats();
    group.bench_function(format!("pool_take_recycle_256B_x{}k", CYCLES / 1000), |b| {
        b.iter(|| {
            for i in 0..CYCLES {
                use bytes::BufMut;
                let mut buf = pool::take(256);
                buf.put_slice(&(i as u64).to_le_bytes());
                black_box(&buf);
                drop(buf.freeze());
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
/// handler, `finish` and the MOL's local accept, with nothing on the wire —
/// and then the unit's `Completion::report`, as every shipped wait loop
/// makes it. After warm-up, [`HOP_STEPS`] steps must neither touch the
/// allocator nor send a message; the per-step time of that run is printed,
/// and one timed iteration is [`HOP_STEPS`] steps.
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
        // A target never reached: every report only counts.
        let completion = Completion::install(&rt, u64::MAX);
        let steps = |n: usize| {
            for _ in 0..n {
                assert!(rt.step(), "a token was lost");
                completion.report(&rt, 1);
            }
        };
        let msgs_sent = || rt.with_scheduler(|s| s.node().comm().stats().msgs_sent);
        steps(HOP_STEPS);
        let sent_before = msgs_sent();
        prema_bench::reset_alloc_count();
        let t0 = Instant::now();
        steps(HOP_STEPS);
        let per_step = t0.elapsed() / HOP_STEPS as u32;
        let allocs = prema_bench::alloc_count();
        let sent = msgs_sent() - sent_before;
        assert_eq!(
            allocs, 0,
            "a steady-state Runtime::step + report must not allocate: {allocs} allocs / {HOP_STEPS} steps"
        );
        assert_eq!(
            sent, 0,
            "a steady-state Runtime::step + report must not send: {sent} sends / {HOP_STEPS} steps"
        );
        println!(
            "  fastpath/runtime_step_local_send: {per_step:?} per step, 0 allocations, 0 sends"
        );
        group.bench_function(
            format!("runtime_step_local_send_x{}k", HOP_STEPS / 1000),
            |b| b.iter(|| steps(HOP_STEPS)),
        );
    });
    group.finish();
}

const H_EMPTY: u32 = 2;
const TWO_RANK_STEPS: usize = 10_000;

/// Rank 0 of a two-rank machine with load balancing off, so nothing it does
/// goes on the wire: 512 ring-linked [`Hop`] objects, an empty handler
/// ([`H_EMPTY`]) and the ring hop of [`bench_runtime_step`] ([`H_HOP`])
/// registered, and `body` run on it. Rank 1 never runs; its endpoint lives
/// until `body` returns.
fn on_rank_0_of_2(body: impl FnOnce(&Runtime<Hop>, &[MobilePtr])) {
    let mut eps = LocalFabric::new(2);
    let _rank_1 = eps.pop().expect("fabric returns one endpoint per rank");
    let rank_0 = eps.pop().expect("fabric returns one endpoint per rank");
    let cfg = PremaConfig::disabled(2);
    launch_single_rank(cfg, 0, Box::new(rank_0), None, |rt: Runtime<Hop>| {
        rt.on_message(H_EMPTY, |_ctx, _hop, _item| {});
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
        body(&rt, &ptrs);
    });
}

/// Run `prepare` then `steps` ([`TWO_RANK_STEPS`] of them) on `rt`, once to
/// warm up and once counted: the counted steps must neither allocate nor
/// send. Prints the per-step time of the counted run as `name`.
fn assert_quiet_steps(
    rt: &Runtime<Hop>,
    name: &str,
    mut prepare: impl FnMut(),
    mut steps: impl FnMut(),
) {
    let msgs_sent = || rt.with_scheduler(|s| s.node().comm().stats().msgs_sent);
    prepare();
    steps();
    prepare();
    let sent_before = msgs_sent();
    prema_bench::reset_alloc_count();
    let t0 = Instant::now();
    steps();
    let per_step = t0.elapsed() / TWO_RANK_STEPS as u32;
    let allocs = prema_bench::alloc_count();
    let sent = msgs_sent() - sent_before;
    assert_eq!(
        allocs, 0,
        "a steady-state Runtime::step must not allocate: {allocs} allocs / {TWO_RANK_STEPS} steps"
    );
    assert_eq!(
        sent, 0,
        "a steady-state Runtime::step must not send: {sent} sends / {TWO_RANK_STEPS} steps"
    );
    println!("  fastpath/{name}: {per_step:?} per step, 0 allocations, 0 sends");
}

/// The runtime's own cost per unit: `Runtime::step` on rank 0 of two, on a
/// unit whose handler does nothing — the lock, the sliced polling
/// operation, `begin`, `finish` and the hand-off between them. Each sample
/// queues [`TWO_RANK_STEPS`] 16-byte units over the 512 objects untimed,
/// then times the steps that drain them; one timed iteration is
/// [`TWO_RANK_STEPS`] steps.
fn bench_step_empty_handler(c: &mut Criterion) {
    let mut group = c.benchmark_group("fastpath");
    group.sample_size(10);
    on_rank_0_of_2(|rt, ptrs| {
        let queue = || {
            rt.with_scheduler(|s| {
                for i in 0..TWO_RANK_STEPS {
                    let payload = Bytes::copy_from_slice(&[i as u8; 16]);
                    s.node_mut()
                        .message(ptrs[i % HOP_OBJECTS], H_EMPTY, payload);
                }
            })
        };
        let steps = || {
            for _ in 0..TWO_RANK_STEPS {
                assert!(rt.step(), "a unit was lost");
            }
        };
        assert_quiet_steps(rt, "step_empty_handler", queue, steps);
        group.bench_function(
            format!("step_empty_handler_x{}k", TWO_RANK_STEPS / 1000),
            |b| {
                queue();
                b.iter(steps);
            },
        );
    });
    group.finish();
}

/// [`bench_step_empty_handler`] with the handler of
/// [`bench_runtime_step`]: 64 tokens hopping along the ring of objects,
/// each unit one 16-byte local message — what `finish` adds for a send, and
/// the MOL's local accept. One timed iteration is [`TWO_RANK_STEPS`] steps.
fn bench_local_message(c: &mut Criterion) {
    let mut group = c.benchmark_group("fastpath");
    group.sample_size(10);
    on_rank_0_of_2(|rt, ptrs| {
        for t in 0..HOP_TOKENS {
            let payload = Bytes::copy_from_slice(&[t as u8; 16]);
            rt.message(ptrs[t * HOP_OBJECTS / HOP_TOKENS], H_HOP, payload);
        }
        let steps = || {
            for _ in 0..TWO_RANK_STEPS {
                assert!(rt.step(), "a token was lost");
            }
        };
        assert_quiet_steps(rt, "local_message", || {}, steps);
        group.bench_function(format!("local_message_x{}k", TWO_RANK_STEPS / 1000), |b| {
            b.iter(steps)
        });
    });
    group.finish();
}

const REMOTE_HOPS: usize = 10_000;

/// One remote MOL hop: on a two-rank `LocalFabric` driven from this thread,
/// rank 0 messages an object that lives on rank 1 (a 16-byte payload), and
/// rank 1 pumps its wire and pops the unit. After warm-up, [`REMOTE_HOPS`]
/// hops may allocate at most once each: the `Arc` that freezes the wire
/// buffer. The buffer itself comes from the pool, because the receiver
/// copies the small payload out at decode and hands the buffer back. The
/// per-hop time of that run is printed; one timed iteration is
/// [`REMOTE_HOPS`] hops.
fn bench_remote_hop(c: &mut Criterion) {
    let mut group = c.benchmark_group("fastpath");
    group.sample_size(10);
    let mut nodes: Vec<MolNode<Blob>> = LocalFabric::new(2)
        .into_iter()
        .map(|ep| MolNode::with_config(Communicator::new(Box::new(ep)), MolConfig::default()))
        .collect();
    let ptr = nodes[1].register(Blob(Vec::new()));
    let mut hops = |n: usize| {
        for i in 0..n {
            nodes[0].message(ptr, H_HOP, Bytes::copy_from_slice(&[i as u8; 16]));
            assert!(nodes[1].pump().is_empty(), "only object traffic is sent");
            let item = nodes[1].pop_work().expect("the hop arrived");
            black_box(item);
        }
    };
    hops(REMOTE_HOPS);
    prema_bench::reset_alloc_count();
    let t0 = Instant::now();
    hops(REMOTE_HOPS);
    let per_hop = t0.elapsed() / REMOTE_HOPS as u32;
    let allocs = prema_bench::alloc_count();
    assert!(
        allocs <= REMOTE_HOPS as u64,
        "a steady-state remote hop must allocate at most once: {allocs} allocs / {REMOTE_HOPS} hops"
    );
    println!(
        "  fastpath/remote_hop: {per_hop:?} per hop, {:.2} allocations per hop",
        allocs as f64 / REMOTE_HOPS as f64
    );
    group.bench_function(format!("remote_hop_x{}k", REMOTE_HOPS / 1000), |b| {
        b.iter(|| hops(REMOTE_HOPS))
    });
    group.finish();
}

const SLICE_HOPS: usize = 8;
const SLICES: usize = 2_000;

/// A polling slice's remote hops, staged as `ilb::Scheduler::finish` stages
/// a handler's sends: on the same two ranks, rank 0 stages
/// [`SLICE_HOPS`] 16-byte messages for the object on rank 1
/// (`MolNode::stage_message`), pumps once, and rank 1 pumps and pops them.
/// After warm-up, each of [`SLICES`] slices must cost exactly one envelope,
/// the frame that carries the eight records, and at most one allocation, the
/// `Arc` that freezes it. The per-hop time of that run is printed; one timed
/// iteration is [`SLICES`] slices.
fn bench_staged_slice(c: &mut Criterion) {
    let mut group = c.benchmark_group("fastpath");
    group.sample_size(10);
    let mut nodes: Vec<MolNode<Blob>> = LocalFabric::new(2)
        .into_iter()
        .map(|ep| MolNode::with_config(Communicator::new(Box::new(ep)), MolConfig::default()))
        .collect();
    let ptr = nodes[1].register(Blob(Vec::new()));
    let mut slices = |n: usize| {
        for _ in 0..n {
            for i in 0..SLICE_HOPS {
                let payload = Bytes::copy_from_slice(&[i as u8; 16]);
                nodes[0].stage_message(ptr, H_HOP, 1.0, payload);
            }
            assert!(nodes[0].pump().is_empty(), "only object traffic is sent");
            assert!(nodes[1].pump().is_empty(), "only object traffic is sent");
            for _ in 0..SLICE_HOPS {
                black_box(nodes[1].pop_work().expect("the hop arrived"));
            }
        }
        nodes[0].comm().stats().msgs_sent
    };
    let warm = slices(SLICES);
    prema_bench::reset_alloc_count();
    let t0 = Instant::now();
    let sent = slices(SLICES) - warm;
    let per_hop = t0.elapsed() / (SLICES * SLICE_HOPS) as u32;
    let allocs = prema_bench::alloc_count();
    assert_eq!(
        sent, SLICES as u64,
        "a slice's staged hops must leave as one envelope"
    );
    assert!(
        allocs <= SLICES as u64,
        "a staged slice must allocate at most once: {allocs} allocs / {SLICES} slices"
    );
    println!(
        "  fastpath/staged_slice: {per_hop:?} per hop, {:.2} allocations per slice of {SLICE_HOPS}",
        allocs as f64 / SLICES as f64
    );
    group.bench_function(
        format!("staged_slice_x{SLICE_HOPS}_x{}k", SLICES / 1000),
        |b| b.iter(|| slices(SLICES)),
    );
    group.finish();
}

criterion_group!(
    benches,
    bench_fanout,
    bench_pool_hit_rate,
    bench_migrate_cost,
    bench_runtime_step,
    bench_step_empty_handler,
    bench_local_message,
    bench_remote_hop,
    bench_staged_slice
);
criterion_main!(prema_bench::assert_oracle_free, benches);
