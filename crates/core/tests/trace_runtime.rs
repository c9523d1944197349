//! End-to-end tracing through the live runtime (threads + polling thread):
//! `launch_with_trace` hands every rank's components a tracer on its sink.

use bytes::Bytes;
use prema::trace::{TraceEvent, TraceSink};
use prema::{launch_with_trace, PremaConfig, Runtime};
use std::time::{Duration, Instant};

struct Cell(u64);
impl prema::Migratable for Cell {
    fn pack(&self, buf: &mut Vec<u8>) {
        buf.extend(self.0.to_le_bytes());
    }
    fn unpack(b: &[u8]) -> Self {
        Cell(u64::from_le_bytes(b[..8].try_into().unwrap()))
    }
}

const H_BUMP: u32 = 1;
const H_SPIN: u32 = 2;

#[test]
fn runtime_records_exec_migration_and_substrate_events() {
    let sink = TraceSink::new(2);
    let results =
        launch_with_trace::<Cell, u64, _>(PremaConfig::implicit(2), Some(sink.clone()), |rt| {
            rt.on_message(H_BUMP, |_ctx, cell, _item| cell.0 += 1);
            if rt.rank() == 0 {
                let ptr = rt.register(Cell(0));
                rt.message(ptr, H_BUMP, Bytes::new());
                rt.run_until(|s| s.stats().executed >= 1);
                // Ship the object to rank 1 so migrate/install appear.
                assert!(rt.migrate(ptr, 1));
                // Message chases the forward pointer to rank 1.
                rt.message(ptr, H_BUMP, Bytes::new());
                return 1;
            }
            // Rank 1 executes the forwarded unit on the installed object.
            rt.run_until(|s| s.stats().executed >= 1);
            1
        });
    assert_eq!(results, vec![1, 1]);
    assert_eq!(sink.dropped(), 0);

    let recs = sink.drain();
    let count = |pred: &dyn Fn(&TraceEvent) -> bool| recs.iter().filter(|r| pred(&r.ev)).count();

    // Work-unit execution on both ranks.
    assert!(
        count(&|e| matches!(
            e,
            TraceEvent::ExecBegin {
                handler: H_BUMP,
                ..
            }
        )) >= 2
    );
    assert_eq!(
        count(&|e| matches!(e, TraceEvent::ExecBegin { .. })),
        count(&|e| matches!(e, TraceEvent::ExecFinish { .. }))
    );
    // The explicit migration and its installation.
    assert!(recs
        .iter()
        .any(|r| r.rank == 0 && matches!(r.ev, TraceEvent::Migrate { dst: 1, .. })));
    assert!(recs
        .iter()
        .any(|r| r.rank == 1 && matches!(r.ev, TraceEvent::Install { from: 0, .. })));
    // Substrate traffic is recorded on both sides.
    assert!(count(&|e| matches!(e, TraceEvent::Send { .. })) >= 2);
    assert!(count(&|e| matches!(e, TraceEvent::Recv { .. })) >= 2);
    // Implicit mode's polling thread leaves wakeup records.
    assert!(count(&|e| matches!(e, TraceEvent::PollWake { .. })) >= 1);

    // Per-rank sequence numbers are dense and per-rank timestamps ordered
    // by sequence (single wall clock per sink).
    for rank in 0..2 {
        let mine: Vec<_> = recs.iter().filter(|r| r.rank == rank).collect();
        for (i, r) in mine.iter().enumerate() {
            assert_eq!(r.seq, i as u64, "rank {rank} has a sequence gap");
        }
        assert!(mine.windows(2).all(|w| w[0].t <= w[1].t));
    }
}

/// How a rank's `main` in [`poll_wakes`] treats the unit it posts itself.
#[derive(Clone, Copy)]
enum Unit {
    /// Registers, posts and returns without running it.
    Posted,
    /// Runs it through `Runtime::step`.
    Stepped,
    /// Begins it inside `Runtime::with_scheduler`, as a tool spelling out
    /// `step` does.
    BegunInScheduler,
}

/// The `PollWake` records of an implicit 2-rank machine whose ranks each
/// post one 5 ms unit to an object of their own and one node message to the
/// other rank, then treat the unit as `unit` says.
fn poll_wakes(unit: Unit) -> usize {
    let sink = TraceSink::new(2);
    launch_with_trace::<Cell, (), _>(
        PremaConfig::implicit(2),
        Some(sink.clone()),
        move |rt: Runtime<Cell>| {
            rt.on_message(H_SPIN, |_ctx, cell, _item| {
                let until = Instant::now() + Duration::from_millis(5);
                while Instant::now() < until {
                    std::hint::spin_loop();
                }
                cell.0 += 1;
            });
            rt.on_node_message(H_BUMP, |_ctx, _from, _payload| {});
            let ptr = rt.register(Cell(0));
            rt.message(ptr, H_SPIN, Bytes::new());
            rt.node_message(1 - rt.rank(), H_BUMP, Bytes::new());
            match unit {
                Unit::Posted => {}
                Unit::Stepped => assert!(rt.step()),
                Unit::BegunInScheduler => {
                    let mut exec = rt.with_scheduler(|s| s.begin()).expect("a unit");
                    exec.run();
                    rt.with_scheduler(|s| s.finish(exec));
                }
            }
        },
    );
    sink.drain()
        .iter()
        .filter(|r| matches!(r.ev, TraceEvent::PollWake { .. }))
        .count()
}

#[test]
fn a_rank_that_runs_no_unit_starts_no_polling_thread() {
    assert_eq!(poll_wakes(Unit::Posted), 0);
}

#[test]
fn a_unit_run_by_step_starts_the_polling_thread() {
    assert!(poll_wakes(Unit::Stepped) >= 1);
}

#[test]
fn a_unit_begun_inside_with_scheduler_starts_the_polling_thread() {
    assert!(poll_wakes(Unit::BegunInScheduler) >= 1);
}
