//! What `Completion` puts on the wire: `report` sends nothing, a rank other
//! than 0 sends its running total from `is_done` when it has grown, and rank
//! 0 counts its own units in place — while termination stays exact.

use bytes::Bytes;
use prema::{launch, Completion, Migratable, PremaConfig, Runtime};
use std::time::{Duration, Instant};

struct Cell(u64);

impl Migratable for Cell {
    fn pack(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.0.to_le_bytes());
    }
    fn unpack(b: &[u8]) -> Self {
        Cell(u64::from_le_bytes(b[..8].try_into().unwrap()))
    }
}

const H_HIT: u32 = 1;

/// Envelopes this rank's communicator has sent so far.
fn msgs_sent(rt: &Runtime<Cell>) -> u64 {
    rt.with_scheduler(|s| s.node().comm().stats().msgs_sent)
}

fn on_hit(rt: &Runtime<Cell>) {
    rt.on_message(H_HIT, |_ctx, cell, _item| cell.0 += 1);
}

/// Register `objects` cells on this rank with `hits` queued units each.
fn queue_local_work(rt: &Runtime<Cell>, objects: usize, hits: usize) {
    for _ in 0..objects {
        let ptr = rt.register(Cell(0));
        for _ in 0..hits {
            rt.message(ptr, H_HIT, Bytes::new());
        }
    }
}

/// The shipped wait loop: run and report, and when there is nothing to run,
/// poll and ask whether the machine is done. Returns the units this rank
/// executed; panics if the machine has not terminated within 30 s.
fn run_to_done(rt: &Runtime<Cell>, completion: &Completion) -> u64 {
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut executed = 0;
    loop {
        if rt.step() {
            executed += 1;
            completion.report(rt, 1);
        } else {
            rt.poll();
            if completion.is_done() {
                return executed;
            }
            assert!(
                Instant::now() < deadline,
                "rank {} never saw done",
                rt.rank()
            );
            std::thread::yield_now();
        }
    }
}

#[test]
fn reports_send_nothing_and_is_done_sends_one_total() {
    const REPORTED: u64 = 1_000;
    const QUEUED: usize = 8;
    let results = launch::<Cell, (u64, Option<[u64; 3]>), _>(PremaConfig::disabled(2), |rt| {
        on_hit(&rt);
        let completion = Completion::install(&rt, REPORTED + QUEUED as u64);
        let mut counts = None;
        if rt.rank() == 1 {
            queue_local_work(&rt, 1, QUEUED);
            let before = msgs_sent(&rt);
            for _ in 0..REPORTED {
                completion.report(&rt, 1);
            }
            let after_reports = msgs_sent(&rt);
            assert!(!completion.is_done());
            let after_first = msgs_sent(&rt);
            assert!(!completion.is_done());
            let after_second = msgs_sent(&rt);
            counts = Some([
                after_reports - before,
                after_first - after_reports,
                after_second - after_first,
            ]);
        }
        (run_to_done(&rt, &completion), counts)
    });
    assert_eq!(
        results[1].1,
        Some([0, 1, 0]),
        "messages sent by 1 000 reports, the first is_done and the second"
    );
    assert_eq!(results[0].0 + results[1].0, QUEUED as u64);
}

#[test]
fn a_total_whose_work_migrated_away_still_reaches_rank_zero() {
    const OBJECTS: usize = 4;
    const HITS: usize = 6;
    const RUN_HERE: u64 = 5;
    let target = (OBJECTS * HITS) as u64;
    let results = launch::<Cell, u64, _>(PremaConfig::disabled(2), move |rt| {
        on_hit(&rt);
        let completion = Completion::install(&rt, target);
        if rt.rank() == 0 {
            return run_to_done(&rt, &completion);
        }
        queue_local_work(&rt, OBJECTS, HITS);
        for _ in 0..RUN_HERE {
            assert!(rt.step());
            completion.report(&rt, 1);
        }
        // Everything still queued leaves with its objects before this rank
        // ever asks is_done: its five units are reported but not sent.
        let ptrs = rt.with_scheduler(|s| s.node().local_ptrs());
        assert_eq!(ptrs.len(), OBJECTS);
        for ptr in ptrs {
            assert!(rt.migrate(ptr, 0), "a local idle object must migrate");
        }
        RUN_HERE + run_to_done(&rt, &completion)
    });
    assert_eq!(results[1], RUN_HERE, "rank 1 got work back: {results:?}");
    assert_eq!(results.iter().sum::<u64>(), target);
}

#[test]
fn one_rank_detects_done_from_report_alone() {
    let sent = launch::<Cell, u64, _>(PremaConfig::explicit(1), |rt| {
        let completion = Completion::install(&rt, 5);
        for _ in 0..4 {
            completion.report(&rt, 1);
            assert!(!completion.is_done());
        }
        completion.report(&rt, 1);
        assert!(completion.is_done());
        msgs_sent(&rt)
    });
    assert_eq!(sent, vec![0]);
}

#[test]
fn is_done_under_the_scheduler_lock_returns_and_sends_next_time() {
    let results = launch::<Cell, Option<[u64; 2]>, _>(PremaConfig::disabled(2), |rt| {
        let completion = Completion::install(&rt, 3);
        if rt.rank() == 0 {
            run_to_done(&rt, &completion);
            return None;
        }
        completion.report(&rt, 3);
        let before = msgs_sent(&rt);
        // The lock is held here, so the send cannot go; it must not wait.
        assert!(!rt.with_scheduler(|_| completion.is_done()));
        let locked = msgs_sent(&rt) - before;
        completion.is_done();
        let unlocked = msgs_sent(&rt) - before - locked;
        run_to_done(&rt, &completion);
        Some([locked, unlocked])
    });
    assert_eq!(results[1], Some([0, 1]));
}
