//! The UDP loopback transport (`prema_dcs::UdpTransport`), measured on
//! shapes comparable with the in-process substrates: a single-frame round
//! trip both as application traffic (which waits for the wire slice) and
//! as system traffic (the syscall path), a burst (amortization by packing
//! and `sendmmsg`/`recvmmsg`), and the full reliable stack pushing a
//! stream end to end.
//!
//! UDP loopback drops datagrams under receive-buffer pressure, so the
//! plain-socket benches keep a bounded number of frames in flight (ping
//! pong and small bursts) instead of blasting an open-loop stream — only
//! the `reliable` bench, whose ack/retry absorbs loss, streams freely.

use bytes::Bytes;
use criterion::{criterion_group, criterion_main, Criterion};
use prema_dcs::{Envelope, HandlerId, ReliableTransport, Tag, Transport, UdpTransport};
use std::hint::black_box;
use std::net::SocketAddr;
use std::time::Duration;

const PINGPONGS: usize = 1_000;
const BURST: usize = 64;
const BURST_ROUNDS: usize = 100;
const STREAM_MSGS: usize = 1_000;
/// Sender-side pacing window for the reliable stream: polling between
/// windows keeps in-flight bounded, so loss stays rare and the bench
/// measures throughput rather than retransmit-storm recovery.
const STREAM_WINDOW: usize = 64;

fn loopback() -> SocketAddr {
    "127.0.0.1:0".parse().expect("static addr")
}

/// A connected two-rank world over real loopback sockets.
fn pair(epoch: u64) -> (UdpTransport, UdpTransport) {
    let b0 = UdpTransport::bind(loopback()).expect("bind rank 0");
    let b1 = UdpTransport::bind(loopback()).expect("bind rank 1");
    let addrs = vec![b0.local_addr(), b1.local_addr()];
    let addrs1 = addrs.clone();
    let h = std::thread::spawn(move || {
        b1.connect(1, addrs1, epoch, Duration::from_secs(5))
            .expect("rank 1 join")
    });
    let t0 = b0
        .connect(0, addrs, epoch, Duration::from_secs(5))
        .expect("rank 0 join");
    let t1 = h.join().expect("rank 1 thread");
    (t0, t1)
}

fn env(src: usize, dst: usize, n: u32) -> Envelope {
    Envelope {
        src,
        dst,
        handler: HandlerId(n),
        tag: Tag::App,
        payload: Bytes::new(),
    }
}

fn sys(src: usize, dst: usize, n: u32) -> Envelope {
    Envelope {
        tag: Tag::System,
        ..env(src, dst, n)
    }
}

/// Pump `rx` until a message arrives, polling `tx` too: an App record
/// leaves at its *sender's* first receive call a wire slice after the
/// last, so a one-frame exchange needs both endpoints pumped.
fn pump_recv(rx: &UdpTransport, tx: &UdpTransport) -> Envelope {
    loop {
        let _ = tx.try_recv();
        if let Some(e) = rx.try_recv() {
            return e;
        }
        std::hint::spin_loop();
    }
}

/// One App frame in flight, both endpoints spinning on `try_recv` on the
/// bench thread, twice per round. An App record leaves at its sender's
/// first receive call at least `prema_dcs::udp::WIRE_SLICE` (50 µs) after
/// that endpoint's last service, and the receiver reads its socket at most
/// once per slice, so each direction pays up to a slice: this measures
/// the slice, not the syscall path (`udp_pingpong_system` does).
fn bench_pingpong(c: &mut Criterion) {
    let mut group = c.benchmark_group("udp-loopback");
    group.sample_size(10);
    let (t0, t1) = pair(1);
    group.bench_function(format!("udp_pingpong_x{PINGPONGS}"), |b| {
        b.iter(|| {
            for i in 0..PINGPONGS {
                t0.send(env(0, 1, i as u32));
                black_box(pump_recv(&t1, &t0));
                t1.send(env(1, 0, i as u32));
                black_box(pump_recv(&t0, &t1));
            }
        })
    });
    group.finish();
}

/// One System frame in flight, both endpoints on the bench thread, each
/// received with a blocking `recv_timeout`: the path load-balancing
/// traffic takes. A System record leaves inside `send` and a waiting
/// receiver reads its socket at once, so this is the full encode →
/// sendmmsg → recvmmsg → decode path, twice per round, with no slice in it.
fn bench_pingpong_system(c: &mut Criterion) {
    let mut group = c.benchmark_group("udp-loopback");
    group.sample_size(10);
    let (t0, t1) = pair(4);
    let wait = Duration::from_secs(5);
    group.bench_function(format!("udp_pingpong_system_x{PINGPONGS}"), |b| {
        b.iter(|| {
            for i in 0..PINGPONGS {
                t0.send(sys(0, 1, i as u32));
                black_box(t1.recv_timeout(wait).expect("ping"));
                t1.send(sys(1, 0, i as u32));
                black_box(t0.recv_timeout(wait).expect("pong"));
            }
        })
    });
    group.finish();
}

/// A burst of [`BURST`] frames per round: they pack into one datagram
/// that leaves at the end of the sender's slice and the drain side gulps
/// it with one `recvmmsg`, so the per-frame syscall cost is amortized. In
/// flight stays a few KiB — far below loopback's receive buffer.
fn bench_burst(c: &mut Criterion) {
    let mut group = c.benchmark_group("udp-loopback");
    group.sample_size(10);
    let (t0, t1) = pair(2);
    group.bench_function(format!("udp_burst{BURST}_x{BURST_ROUNDS}"), |b| {
        b.iter(|| {
            for round in 0..BURST_ROUNDS {
                for i in 0..BURST {
                    t0.send(env(0, 1, (round * BURST + i) as u32));
                }
                let mut got = 0;
                while got < BURST {
                    // The sender's receive calls are where its open
                    // datagram leaves when the slice ends.
                    let _ = t0.try_recv();
                    if t1.try_recv().is_some() {
                        got += 1;
                    }
                }
            }
        })
    });
    group.finish();
}

/// The full out-of-process stack — `ReliableTransport(UdpTransport)` —
/// streaming [`STREAM_MSGS`] envelopes through real sockets under real
/// concurrency. Loopback loss (buffer overruns) is absorbed by ack/retry,
/// so this is the number that predicts `prema-launch` wire throughput.
fn bench_reliable_stream(c: &mut Criterion) {
    let mut group = c.benchmark_group("udp-loopback");
    group.sample_size(10);
    group.bench_function(format!("udp_reliable_p2p_2ranks_{STREAM_MSGS}msgs"), |b| {
        b.iter(|| {
            let (t0, t1) = pair(3);
            let (t0, t1) = (ReliableTransport::new(t0), ReliableTransport::new(t1));
            let sender = std::thread::spawn(move || {
                for i in 0..STREAM_MSGS {
                    t0.send(env(0, 1, i as u32));
                    if i % STREAM_WINDOW == STREAM_WINDOW - 1 {
                        let _ = t0.try_recv();
                    }
                }
                // Keep ticking until every frame is acknowledged: the
                // receive polls drive retransmits of lost datagrams.
                while !t0.all_acked() {
                    let _ = t0.try_recv();
                }
            });
            let mut got = 0;
            while got < STREAM_MSGS {
                if t1.recv_timeout(Duration::from_secs(5)).is_some() {
                    got += 1;
                }
            }
            // Linger: the receiver's last ack may still be owed, and lost
            // data frames are still being retransmitted — keep polling
            // until the sender has seen every ack, or it would spin on a
            // dead peer forever.
            while !sender.is_finished() {
                let _ = t1.try_recv();
            }
            sender.join().expect("sender thread panicked");
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_pingpong,
    bench_pingpong_system,
    bench_burst,
    bench_reliable_stream
);
criterion_main!(benches);
