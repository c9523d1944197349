//! Overhead of the event tracer on the substrate fast path.
//!
//! Every runtime component carries a `Tracer`; it records only once a sink
//! is attached. Two cases per path:
//!
//! * `detached` — the handle every component holds until a caller hands it
//!   a sink: each emit site is one load and one branch. This is what every
//!   untraced run pays.
//! * `recording` — a live tracer: every send and recv claims a ring slot
//!   (the cost while a dump is being captured). A local MOL message meets
//!   no emit site, so its two cases differ only in the handle's state.
//!
//! One timed sample is one call of the harness's `iter`, so each sample runs
//! a batch of `BATCH` operations and the bench prints the fastest sample's
//! nanoseconds per operation: a branch is far below one call's timer noise.
//!
//! CI runs this in `--test` smoke mode so the harness itself stays verified.

use bytes::Bytes;
use criterion::{criterion_group, criterion_main, BenchmarkGroup, Criterion};
use prema_dcs::{Communicator, HandlerId, LocalFabric, Tag};
use prema_mol::{Migratable, MolNode};
use prema_trace::{TraceSink, Tracer};
use std::hint::black_box;
use std::time::Instant;

/// Operations per timed sample.
const BATCH: u32 = 1024;

struct Blob(Vec<u8>);
impl Migratable for Blob {
    fn pack(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.0);
    }
    fn unpack(b: &[u8]) -> Self {
        Blob(b.to_vec())
    }
}

const H_BENCH: HandlerId = HandlerId(64);

fn comm_self_loop() -> Communicator {
    let mut eps = LocalFabric::new(1);
    Communicator::new(Box::new(eps.pop().expect("fabric built with one endpoint")))
}

/// A sink large enough that a recording case never fills its ring.
fn sink() -> std::sync::Arc<TraceSink> {
    TraceSink::with_capacity(1, 1 << 22)
}

/// Bench `op` in batches of [`BATCH`] and print the fastest batch's ns/op.
fn bench_batched(group: &mut BenchmarkGroup<'_>, id: &str, mut op: impl FnMut()) {
    let mut best = f64::INFINITY;
    group.bench_function(id, |b| {
        b.iter(|| {
            let t = Instant::now();
            for _ in 0..BATCH {
                op();
            }
            best = best.min(t.elapsed().as_nanos() as f64 / f64::from(BATCH));
        })
    });
    println!("  {id:<48} {best:>8.1} ns/op (fastest batch of {BATCH})");
}

fn bench_dcs(c: &mut Criterion) {
    let mut group = c.benchmark_group("trace_overhead");
    let recording_sink = sink();
    for (id, tracer) in [
        ("dcs_send_recv/detached", Tracer::off()),
        ("dcs_send_recv/recording", recording_sink.tracer(0)),
    ] {
        let mut comm = comm_self_loop();
        comm.set_tracer(tracer);
        bench_batched(&mut group, id, || {
            comm.am_send(0, H_BENCH, Tag::App, Bytes::from_static(b"x"));
            black_box(comm.try_recv().is_some());
        });
    }
    group.finish();
}

fn bench_mol(c: &mut Criterion) {
    let mut group = c.benchmark_group("trace_overhead");
    let recording_sink = sink();
    for (id, tracer) in [
        ("mol_local_message/detached", Tracer::off()),
        ("mol_local_message/recording", recording_sink.tracer(0)),
    ] {
        let mut node: MolNode<Blob> = MolNode::new(comm_self_loop());
        node.set_tracer(tracer);
        let ptr = node.register(Blob(vec![0; 64]));
        bench_batched(&mut group, id, || {
            node.message(ptr, 1, Bytes::from_static(b"x"));
            let _ = node.pump();
            let work = node.pop_work();
            debug_assert!(work.is_some());
            black_box(work);
        });
    }
    group.finish();
}

criterion_group!(benches, bench_dcs, bench_mol);
criterion_main!(prema_bench::assert_oracle_free, benches);
