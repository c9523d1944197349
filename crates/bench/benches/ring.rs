//! The SPSC ring mesh transport (`prema_dcs::LocalFabric`): empty polls
//! across machine sizes and two-rank point-to-point throughput.
//!
//! This binary registers [`prema_bench::CountingAlloc`] as the global
//! allocator and **asserts** the transport's core invariant instead of just
//! timing it: a steady-state point-to-point send/receive touches the
//! allocator zero times, both on the bare transport (`p2p_ring_steady_state`
//! below) and through a `Communicator` pair. Both assertions run under
//! `cargo bench --bench ring -- --test`, which is what CI's bench smoke
//! executes — a regression fails the build, not a graph.

use bytes::Bytes;
use criterion::{criterion_group, criterion_main, Criterion};
use prema_dcs::{Communicator, Envelope, HandlerId, LocalFabric, Tag, Transport};
use std::hint::black_box;
use std::time::Duration;

#[global_allocator]
static ALLOC: prema_bench::CountingAlloc = prema_bench::CountingAlloc;

const EMPTY_POLLS: usize = 10_000;
const P2P_MSGS: usize = 50_000;
const STEADY_OPS: usize = 10_000;

/// Cost of `try_recv` on an empty machine across machine sizes — one
/// iteration is [`EMPTY_POLLS`] polls. The readiness bitmask makes this a
/// handful of relaxed word loads, so the per-poll cost must stay flat (and
/// within 10% of the shared-inbox baseline's single channel probe).
fn bench_empty_poll_ring(c: &mut Criterion) {
    let mut group = c.benchmark_group("substrate-ring");
    for n in [8usize, 32, 128] {
        let eps = LocalFabric::new(n);
        group.bench_function(format!("empty_poll_ring_ranks{n}_x10k"), |b| {
            b.iter(|| {
                for _ in 0..EMPTY_POLLS {
                    black_box(eps[0].try_recv());
                }
            })
        });
    }
    group.finish();
}

/// Point-to-point throughput under real concurrency: a sender thread pushes
/// [`P2P_MSGS`] envelopes while the bench thread receives them all.
fn bench_p2p_ring(c: &mut Criterion) {
    let mut group = c.benchmark_group("substrate-ring");
    group.sample_size(10);
    group.bench_function(format!("p2p_ring_2ranks_{P2P_MSGS}msgs"), |b| {
        b.iter(|| {
            let mut eps = LocalFabric::new(2);
            let rx = eps.pop().expect("fabric returns one endpoint per rank");
            let tx = eps.pop().expect("fabric returns one endpoint per rank");
            let sender = std::thread::spawn(move || {
                for i in 0..P2P_MSGS {
                    tx.send(Envelope {
                        src: tx.rank(),
                        dst: 1,
                        handler: HandlerId(i as u32),
                        tag: Tag::App,
                        payload: Bytes::new(),
                    });
                }
            });
            let mut got = 0;
            while got < P2P_MSGS {
                if rx.recv_timeout(Duration::from_secs(5)).is_some() {
                    got += 1;
                }
            }
            sender.join().expect("sender thread panicked");
        })
    });
    group.finish();
}

/// The zero-allocation invariant, asserted. Send + receive on a warm pair of
/// endpoints from one thread (single-producer/single-consumer is the ring's
/// contract; same-thread keeps the count exact on any core count): after
/// warm-up, [`STEADY_OPS`] send/recv round trips must perform **zero** heap
/// allocations — envelopes ride preallocated ring slots, the readiness word
/// is a fetch_or, and an empty `Bytes` is a static handle.
fn bench_steady_state_allocs(c: &mut Criterion) {
    let mut group = c.benchmark_group("substrate-ring");
    let mut eps = LocalFabric::new(2);
    let rx = eps.pop().expect("fabric returns one endpoint per rank");
    let tx = eps.pop().expect("fabric returns one endpoint per rank");
    let steady = |n: usize| {
        for i in 0..n {
            tx.send(Envelope {
                src: 0,
                dst: 1,
                handler: HandlerId(i as u32),
                tag: Tag::App,
                payload: Bytes::new(),
            });
            assert!(rx.try_recv().is_some(), "steady-state message lost");
        }
    };
    // Warm up (first touches of lazily-initialized thread state), then
    // measure the allocator over the steady state.
    steady(64);
    prema_bench::reset_alloc_count();
    steady(STEADY_OPS);
    let allocs = prema_bench::alloc_count();
    assert_eq!(
        allocs, 0,
        "steady-state p2p must not allocate: {allocs} allocs / {STEADY_OPS} ops"
    );
    group.bench_function(format!("p2p_ring_steady_state_x{STEADY_OPS}"), |b| {
        b.iter(|| steady(STEADY_OPS))
    });
    group.finish();
}

/// The same invariant one layer up, asserted: [`STEADY_OPS`] warm
/// `Communicator::am_send` + `try_recv` round trips over the ring mesh — the
/// remote path every MOL and load-balancer message takes — perform **zero**
/// heap allocations (the sideline queue stays empty and unallocated, the
/// stats are a `Cell`, and the tracer is off).
fn bench_comm_steady_state_allocs(_c: &mut Criterion) {
    let mut eps = LocalFabric::new(2);
    let rx = Communicator::new(Box::new(
        eps.pop().expect("fabric returns one endpoint per rank"),
    ));
    let tx = Communicator::new(Box::new(
        eps.pop().expect("fabric returns one endpoint per rank"),
    ));
    let steady = |n: usize| {
        for i in 0..n {
            tx.am_send(1, HandlerId(i as u32), Tag::App, Bytes::new());
            assert!(rx.try_recv().is_some(), "steady-state message lost");
        }
    };
    steady(64);
    prema_bench::reset_alloc_count();
    steady(STEADY_OPS);
    let allocs = prema_bench::alloc_count();
    assert_eq!(
        allocs, 0,
        "steady-state Communicator round trips must not allocate: {allocs} allocs / {STEADY_OPS} ops"
    );
}

criterion_group!(
    benches,
    bench_empty_poll_ring,
    bench_p2p_ring,
    bench_steady_state_allocs,
    bench_comm_steady_state_allocs
);
criterion_main!(prema_bench::assert_oracle_free, benches);
