//! Microbenchmarks of the substrates underneath the evaluation: graph
//! partitioning, the mobile object layer (real threads), the discrete-event
//! engine, and the advancing-front mesher. These are the costs the runtime
//! models in the figures charge for, and the knobs a downstream user would
//! profile first.

use bytes::Bytes;
use criterion::{criterion_group, criterion_main, Criterion};
use prema_dcs::{Communicator, LocalFabric};
use prema_mesh::{Point3, Subdomain, Uniform};
use prema_metis::{adaptive_repart, partition_kway, Graph, PartitionConfig};
use prema_mol::{Migratable, MolNode};
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

fn bench_partitioning(c: &mut Criterion) {
    let mut group = c.benchmark_group("metis");
    let g = Graph::grid(64, 64); // 4096 vertices
    group.bench_function("partition_kway_4096v_k8", |b| {
        b.iter(|| {
            black_box(partition_kway(
                black_box(&g),
                8,
                &PartitionConfig::default(),
            ))
        })
    });
    let old: Vec<u32> = (0..g.nv()).map(|v| (v * 8 / g.nv()) as u32).collect();
    group.bench_function("adaptive_repart_4096v_k8", |b| {
        b.iter(|| {
            black_box(adaptive_repart(
                black_box(&g),
                &old,
                8,
                1.0,
                &PartitionConfig::default(),
            ))
        })
    });
    let small = Graph::grid(16, 16);
    group.bench_function("heavy_edge_matching_256v", |b| {
        b.iter(|| {
            black_box(prema_metis::coarsen::heavy_edge_matching(
                black_box(&small),
                7,
            ))
        })
    });
    group.finish();
}

fn bench_mol(c: &mut Criterion) {
    let mut group = c.benchmark_group("mol");
    // Single-node message delivery path (route → order → deliver).
    group.bench_function("local_message_roundtrip", |b| {
        let mut eps = LocalFabric::new(1);
        let mut node: MolNode<Blob> = MolNode::new(Communicator::new(Box::new(eps.pop().unwrap())));
        let ptr = node.register(Blob(vec![0; 64]));
        b.iter(|| {
            node.message(ptr, 1, Bytes::from_static(b"x"));
            let _ = node.pump();
            let work = node.pop_work();
            debug_assert!(work.is_some());
            black_box(work)
        })
    });
    // Full migration round trip between two in-process ranks.
    group.bench_function("migrate_4KiB_roundtrip", |b| {
        let mut eps = LocalFabric::new(2);
        let ep1 = eps.pop().unwrap();
        let ep0 = eps.pop().unwrap();
        let mut n0: MolNode<Blob> = MolNode::new(Communicator::new(Box::new(ep0)));
        let mut n1: MolNode<Blob> = MolNode::new(Communicator::new(Box::new(ep1)));
        let ptr = n0.register(Blob(vec![7; 4096]));
        b.iter(|| {
            assert!(n0.migrate(ptr, 1));
            let _ = n1.pump();
            assert!(n1.migrate(ptr, 0));
            let _ = n0.pump();
            black_box(n0.is_local(ptr))
        })
    });
    group.finish();
}

fn bench_sim_engine(c: &mut Criterion) {
    use prema_sim::{Category, Ctx, Engine, MachineConfig, Process, SimTime};
    struct Worker {
        left: u32,
    }
    impl Process for Worker {
        fn on_start(&mut self, ctx: &mut Ctx) {
            ctx.schedule(SimTime::ZERO, 1);
        }
        fn on_timer(&mut self, ctx: &mut Ctx, _t: u64) {
            if self.left == 0 {
                ctx.finish();
                return;
            }
            self.left -= 1;
            ctx.consume(Category::Computation, SimTime::from_millis(1));
            if self.left.is_multiple_of(8) && ctx.pid() + 1 < ctx.num_procs() {
                ctx.send(ctx.pid() + 1, 1, 64, Box::new(()));
            }
            let _ = ctx.poll();
            ctx.schedule(SimTime::ZERO, 1);
        }
    }
    let mut group = c.benchmark_group("sim");
    group.bench_function("engine_32procs_1k_events_each", |b| {
        b.iter(|| {
            let report = Engine::build(MachineConfig::small(32), |_| {
                Box::new(Worker { left: 1000 })
            })
            .run();
            black_box(report.events)
        })
    });
    group.finish();
}

fn bench_mesher(c: &mut Criterion) {
    let mut group = c.benchmark_group("mesh");
    group.bench_function("mesh_unit_box_h0.2", |b| {
        b.iter(|| {
            let mut s = Subdomain::seed_box(
                1,
                Point3::new(0.0, 0.0, 0.0),
                Point3::new(1.0, 1.0, 1.0),
                0.05,
            );
            black_box(s.mesh_all(&Uniform(0.2)).tets_created)
        })
    });
    group.bench_function("pack_unpack_meshed_box", |b| {
        let mut s = Subdomain::seed_box(
            1,
            Point3::new(0.0, 0.0, 0.0),
            Point3::new(1.0, 1.0, 1.0),
            0.05,
        );
        let _ = s.mesh_all(&Uniform(0.25));
        b.iter(|| {
            let mut buf = Vec::new();
            s.pack(&mut buf);
            black_box(Subdomain::unpack(&buf).tets.len())
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_partitioning,
    bench_mol,
    bench_sim_engine,
    bench_mesher
);
criterion_main!(prema_bench::assert_oracle_free, benches);
