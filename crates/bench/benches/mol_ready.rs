//! The ready-work index (DESIGN.md §17): what the scheduler's per-unit
//! bookkeeping costs as a rank's backlog deepens.
//!
//! 512 objects share a backlog of 64 / 4096 / 32768 queued messages on one
//! rank; each operation is timed at every depth.
//!
//! * `local_load` — `Scheduler::local_load()`, evaluated twice per work
//!   unit and once per polling-thread wake: two field reads, whatever the
//!   depth (it used to sum every queued hint).
//! * `pop_push` — `pop_work` plus re-posting a message to the same object:
//!   the steady state of a busy rank.
//! * `ready_summary` — the per-object summary behind every grant and flow:
//!   O(k log k) in the objects with pending work (it used to re-hash the
//!   whole queue), so it grows with the *objects* listed, 64 → 512, not
//!   with the messages.
//! * `migrate_out_and_back` — one object with a fixed 8 pending messages
//!   leaves for the other rank and returns: O(its own queue), whatever
//!   everyone else has queued (it used to rotate the whole queue, twice).
//!
//! [`assert_flat_in_depth`] *asserts* the O(1) claims instead of just
//! printing them — per-operation time at depth 32768 within 3× of depth 64
//! for `local_load` and `migrate_out_and_back` (the scans were ~500× apart),
//! and the mean cost of shedding half of a queue's objects, one migration
//! at a time (`shed_half`: 8 messages an object, the compactions and
//! shrinks the departures trigger included), within 3× of depth 4096 — and
//! runs under `cargo bench --bench mol_ready -- --test`, CI's smoke.

use bytes::Bytes;
use criterion::{criterion_group, criterion_main, Criterion};
use prema_dcs::{Communicator, LocalFabric};
use prema_ilb::{Scheduler, WorkStealing};
use prema_mol::{Migratable, MobilePtr, MolConfig, MolNode};
use std::hint::black_box;
use std::time::{Duration, Instant};

const OBJECTS: usize = 512;
const DEPTHS: [usize; 3] = [64, 4096, 32768];
/// Messages queued on the object that migrates, at every depth.
const MOVER_PENDING: usize = 8;
const OPS: usize = 1_000;

struct Blob(Vec<u8>);
impl Migratable for Blob {
    fn pack(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.0);
    }
    fn unpack(b: &[u8]) -> Self {
        Blob(b.to_vec())
    }
}

/// Two ranks; rank 0 hosts [`OBJECTS`] objects with `depth` messages queued:
/// [`MOVER_PENDING`] on the first object, the rest dealt round-robin over the
/// others. Load balancing is off — the bench moves objects by hand.
struct Machine {
    ranks: Vec<Scheduler<Blob>>,
    ptrs: Vec<MobilePtr>,
}

impl Machine {
    fn new(depth: usize) -> Machine {
        Machine::build(OBJECTS, depth, |i| {
            if i < MOVER_PENDING {
                0
            } else {
                1 + i % (OBJECTS - 1)
            }
        })
    }

    /// `depth / MOVER_PENDING` objects with [`MOVER_PENDING`] messages each,
    /// dealt round-robin.
    fn even(depth: usize) -> Machine {
        let objects = depth / MOVER_PENDING;
        Machine::build(objects, depth, |i| i % objects)
    }

    /// `objects` objects on rank 0; message `i` of `depth` goes to object
    /// `target(i)`.
    fn build(objects: usize, depth: usize, target: impl Fn(usize) -> usize) -> Machine {
        let mut ranks: Vec<Scheduler<Blob>> = LocalFabric::new(2)
            .into_iter()
            .map(|ep| {
                let node =
                    MolNode::with_config(Communicator::new(Box::new(ep)), MolConfig::default());
                let mut s = Scheduler::new(node, Box::new(WorkStealing::new(1.0, 1)));
                s.set_lb_enabled(false);
                s
            })
            .collect();
        let node = ranks[0].node_mut();
        let ptrs: Vec<MobilePtr> = (0..objects)
            .map(|_| node.register(Blob(vec![0; 64])))
            .collect();
        for i in 0..depth {
            node.message_with_hint(
                ptrs[target(i)],
                1,
                0.9 + (i % 7) as f64 / 32.0,
                Bytes::new(),
            );
        }
        assert_eq!(node.ready_len(), depth);
        Machine { ranks, ptrs }
    }

    fn local_load(&self) -> f64 {
        let load = self.ranks[0].local_load();
        load.units as f64 + load.weight
    }

    /// Pop the oldest unit and post a replacement to the same object.
    fn pop_push(&mut self) {
        let node = self.ranks[0].node_mut();
        let item = node.pop_work().expect("backlog never drains");
        node.message_with_hint(item.ptr, item.handler, item.hint, item.payload);
    }

    fn migrate_out_and_back(&mut self) {
        let mover = self.ptrs[0];
        for (src, dst) in [(0, 1), (1, 0)] {
            assert!(self.ranks[src].node_mut().migrate(mover, dst));
            let _ = self.ranks[dst].node_mut().pump();
        }
        // The publish to the pointer's shard, wherever that is.
        let _ = self.ranks[1].node_mut().pump();
    }

    /// Migrate every other object to rank 1, one at a time: the mean time
    /// rank 0 spends per departure, in nanoseconds.
    fn shed_half(&mut self) -> f64 {
        let movers: Vec<MobilePtr> = self.ptrs.iter().copied().step_by(2).collect();
        let mut spent = Duration::ZERO;
        for &mover in &movers {
            let t = Instant::now();
            assert!(self.ranks[0].node_mut().migrate(mover, 1));
            spent += t.elapsed();
            let _ = self.ranks[1].node_mut().pump();
            let _ = self.ranks[0].node_mut().pump();
        }
        spent.as_nanos() as f64 / movers.len() as f64
    }
}

/// Fastest of five batches, in nanoseconds per operation.
fn per_op_ns(batch: usize, mut op: impl FnMut()) -> f64 {
    (0..5)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..batch {
                op();
            }
            t.elapsed().as_nanos() as f64 / batch as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// Fastest of five fresh [`Machine::even`] machines at `depth`, in
/// nanoseconds per shed object.
fn shed_half_ns(depth: usize) -> f64 {
    (0..5)
        .map(|_| Machine::even(depth).shed_half())
        .fold(f64::INFINITY, f64::min)
}

/// The O(1) claims, asserted: neither reading the load nor moving one
/// object may cost more at a 32768-deep backlog than at a 64-deep one, nor
/// shedding half the objects more per object than at a 4096-deep one (3×
/// and 100 ns of slack for cache effects and timer noise).
fn assert_flat_in_depth(_c: &mut Criterion) {
    let [mut shallow, _, mut deep] = DEPTHS.map(Machine::new);
    let check = |what: &str, depth: usize, at_shallow: f64, at_32768: f64| {
        println!("  mol-ready flatness: {what} {at_shallow:.1} ns at depth {depth}, {at_32768:.1} ns at depth 32768");
        assert!(
            at_32768 <= 3.0 * at_shallow + 100.0,
            "{what} grows with queue depth: {at_shallow:.1} ns at {depth}, {at_32768:.1} ns at 32768"
        );
    };
    check(
        "local_load",
        64,
        per_op_ns(10_000, || {
            black_box(shallow.local_load());
        }),
        per_op_ns(10_000, || {
            black_box(deep.local_load());
        }),
    );
    check(
        "migrate_out_and_back",
        64,
        per_op_ns(200, || shallow.migrate_out_and_back()),
        per_op_ns(200, || deep.migrate_out_and_back()),
    );
    check("shed_half", 4096, shed_half_ns(4096), shed_half_ns(32768));
}

fn bench_depths(c: &mut Criterion) {
    let mut group = c.benchmark_group("mol-ready");
    for depth in DEPTHS {
        let mut m = Machine::new(depth);
        group.bench_function(format!("local_load_x{OPS}_depth{depth}"), |b| {
            b.iter(|| {
                let mut acc = 0.0;
                for _ in 0..OPS {
                    acc += black_box(&m).local_load();
                }
                acc
            })
        });
        group.bench_function(format!("pop_push_x{OPS}_depth{depth}"), |b| {
            b.iter(|| {
                for _ in 0..OPS {
                    m.pop_push();
                }
            })
        });
        group.bench_function(format!("ready_summary_depth{depth}"), |b| {
            b.iter(|| black_box(m.ranks[0].node().ready_summary()).len())
        });
        group.bench_function(format!("migrate_out_and_back_depth{depth}"), |b| {
            b.iter(|| m.migrate_out_and_back())
        });
        assert_eq!(m.ranks[0].node().ready_len(), depth);
    }
    group.finish();
}

criterion_group!(benches, assert_flat_in_depth, bench_depths);
criterion_main!(prema_bench::assert_oracle_free, benches);
