//! What fault injection costs — and proof that it costs nothing when off.
//!
//! With `PREMA_CHAOS_SEED` unset the runtime wires bare endpoints, so the
//! shipping fast path is *by construction* untouched: the `plain_*` benches
//! here are the same operations as `ring.rs` and must stay within noise
//! of `BENCH_substrate.json`. The `quiet_*` variants measure the decorator
//! tax paid only when chaos is explicitly enabled: a [`ChaosTransport`] with
//! all rates zero, and the full [`ReliableTransport`] ack/retry stack above
//! it.

use bytes::Bytes;
use criterion::{criterion_group, criterion_main, Criterion};
use prema_dcs::{
    ChaosConfig, ChaosHandle, ChaosTransport, Envelope, HandlerId, LocalFabric, ReliableTransport,
    Tag, Transport,
};
use std::hint::black_box;
use std::time::Duration;

const EMPTY_POLLS: usize = 10_000;
const P2P_MSGS: usize = 50_000;

fn quiet_chaos_fabric(n: usize) -> Vec<ChaosTransport<prema_dcs::LocalEndpoint>> {
    let handle = ChaosHandle::new();
    LocalFabric::new(n)
        .into_iter()
        .map(|ep| ChaosTransport::new(ep, ChaosConfig::quiet(1), handle.clone()))
        .collect()
}

fn reliable_fabric(n: usize) -> Vec<ReliableTransport<ChaosTransport<prema_dcs::LocalEndpoint>>> {
    quiet_chaos_fabric(n)
        .into_iter()
        .map(ReliableTransport::new)
        .collect()
}

/// Steady-state polling-thread cost (`try_recv` on an empty machine) for the
/// bare endpoint vs. the quiet chaos stack.
fn bench_empty_poll(c: &mut Criterion) {
    let mut group = c.benchmark_group("chaos-overhead");
    for n in [8usize, 32] {
        let plain = LocalFabric::new(n);
        group.bench_function(format!("empty_poll_plain_ranks{n}_x10k"), |b| {
            b.iter(|| {
                for _ in 0..EMPTY_POLLS {
                    black_box(plain[0].try_recv());
                }
            })
        });
        let quiet = quiet_chaos_fabric(n);
        group.bench_function(format!("empty_poll_chaos_quiet_ranks{n}_x10k"), |b| {
            b.iter(|| {
                for _ in 0..EMPTY_POLLS {
                    black_box(quiet[0].try_recv());
                }
            })
        });
        let reliable = reliable_fabric(n);
        group.bench_function(format!("empty_poll_reliable_ranks{n}_x10k"), |b| {
            b.iter(|| {
                for _ in 0..EMPTY_POLLS {
                    black_box(reliable[0].try_recv());
                }
            })
        });
    }
    group.finish();
}

/// Point-to-point throughput under real concurrency, bare vs. wrapped.
fn bench_p2p_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("chaos-overhead");
    group.sample_size(10);

    fn run_p2p<T: Transport + 'static>(tx_ep: T, rx_ep: &T) {
        let sender = std::thread::spawn(move || {
            for i in 0..P2P_MSGS {
                tx_ep.send(Envelope {
                    src: tx_ep.rank(),
                    dst: 1,
                    handler: HandlerId(i as u32),
                    tag: Tag::App,
                    payload: Bytes::new(),
                });
            }
        });
        let mut got = 0;
        while got < P2P_MSGS {
            if rx_ep.recv_timeout(Duration::from_secs(5)).is_some() {
                got += 1;
            }
        }
        sender.join().expect("sender thread panicked");
    }

    group.bench_function(format!("p2p_plain_2ranks_{P2P_MSGS}msgs"), |b| {
        b.iter(|| {
            let mut eps = LocalFabric::new(2);
            let rx = eps.pop().expect("fabric returns one endpoint per rank");
            let tx = eps.pop().expect("fabric returns one endpoint per rank");
            run_p2p(tx, &rx);
        })
    });
    group.bench_function(format!("p2p_chaos_quiet_2ranks_{P2P_MSGS}msgs"), |b| {
        b.iter(|| {
            let mut eps = quiet_chaos_fabric(2);
            let rx = eps.pop().expect("fabric returns one endpoint per rank");
            let tx = eps.pop().expect("fabric returns one endpoint per rank");
            run_p2p(tx, &rx);
        })
    });
    group.bench_function(format!("p2p_reliable_2ranks_{P2P_MSGS}msgs"), |b| {
        b.iter(|| {
            let mut eps = reliable_fabric(2);
            let rx = eps.pop().expect("fabric returns one endpoint per rank");
            let tx = eps.pop().expect("fabric returns one endpoint per rank");
            run_p2p(tx, &rx);
        })
    });
    group.finish();
}

criterion_group!(benches, bench_empty_poll, bench_p2p_throughput);
criterion_main!(benches);
