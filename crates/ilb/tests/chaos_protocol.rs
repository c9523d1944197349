//! Fault-tolerance regression tests for the ILB scheduler: malformed wire
//! payloads, unregistered handler ids, and the begging-protocol watchdog
//! under a partitioned victim (the `prema_dcs::chaos` layer supplies the
//! partition).

use bytes::Bytes;
use prema_dcs::{
    ChaosConfig, ChaosHandle, ChaosTransport, Communicator, LocalFabric, Tag, WireWriter,
};
// The LB wire ids, used to inject raw protocol traffic.
use prema_ilb::{
    LbPolicy, LoadSnapshot, Scheduler, StabilityConfig, WorkStealing, LB_REQUEST, LB_STATUS,
};
use prema_mol::{Migratable, MolNode};

#[derive(Debug, PartialEq)]
struct Counter {
    value: i64,
}

impl Migratable for Counter {
    fn pack(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.value.to_le_bytes());
    }
    fn unpack(b: &[u8]) -> Self {
        Counter {
            value: i64::from_le_bytes(b[..8].try_into().unwrap()),
        }
    }
}

const H_ADD: u32 = 1;

fn machine(n: usize, mk_policy: impl Fn(usize) -> Box<dyn LbPolicy>) -> Vec<Scheduler<Counter>> {
    LocalFabric::new(n)
        .into_iter()
        .enumerate()
        .map(|(r, ep)| {
            let node: MolNode<Counter> = MolNode::new(Communicator::new(Box::new(ep)));
            let mut s = Scheduler::new(node, mk_policy(r));
            s.on_message(H_ADD, |_ctx, c: &mut Counter, item| {
                c.value += i64::from_le_bytes(item.payload[..8].try_into().unwrap());
            });
            s
        })
        .collect()
}

/// Like [`machine`], but every rank's endpoint is wrapped in a
/// [`ChaosTransport`] sharing one [`ChaosHandle`], so tests can partition
/// rank pairs mid-run. The config is `quiet`: no random faults, partitions
/// only — keeping these protocol tests deterministic by construction.
fn chaos_machine(
    n: usize,
    mk_policy: impl Fn(usize) -> Box<dyn LbPolicy>,
) -> (Vec<Scheduler<Counter>>, ChaosHandle) {
    let handle = ChaosHandle::new();
    let scheds = LocalFabric::new(n)
        .into_iter()
        .enumerate()
        .map(|(r, ep)| {
            let chaos = ChaosTransport::new(ep, ChaosConfig::quiet(7), handle.clone());
            let node: MolNode<Counter> = MolNode::new(Communicator::new(Box::new(chaos)));
            let mut s = Scheduler::new(node, mk_policy(r));
            s.on_message(H_ADD, |_ctx, c: &mut Counter, item| {
                c.value += i64::from_le_bytes(item.payload[..8].try_into().unwrap());
            });
            s
        })
        .collect();
    (scheds, handle)
}

#[test]
fn work_for_unregistered_handler_is_dropped_not_fatal() {
    // A work item carrying a handler id nobody registered (version skew, or
    // a corrupted frame that survived framing) must be dropped with a traced
    // warning, not abort the rank.
    let mut scheds = machine(1, |_| Box::new(WorkStealing::new(1.0, 1)));
    let ptr = scheds[0].node_mut().register(Counter { value: 0 });
    scheds[0].node_mut().message(ptr, 777, Bytes::new());
    scheds[0].poll();
    assert!(!scheds[0].step(), "an unroutable work item executed");
    assert_eq!(scheds[0].stats().dropped_work, 1);
    assert_eq!(scheds[0].stats().executed, 0);
    scheds[0].verify_invariants();
    // The object survives the drop and still executes real work.
    scheds[0]
        .node_mut()
        .message(ptr, H_ADD, Bytes::copy_from_slice(&3i64.to_le_bytes()));
    scheds[0].poll();
    assert!(scheds[0].step());
    assert_eq!(scheds[0].node().get(ptr).unwrap().value, 3);
    scheds[0].verify_invariants();
}

#[test]
fn unregistered_node_handler_is_dropped_not_fatal() {
    let mut scheds = machine(2, |r| Box::new(WorkStealing::new(1.0, r as u64)));
    scheds[1]
        .node_mut()
        .node_message(0, 0xDEAD_BEEF, Tag::App, Bytes::from_static(b"junk"));
    scheds[0].poll();
    assert_eq!(scheds[0].stats().dropped_node_msgs, 1);
    scheds[0].verify_invariants();
}

#[test]
fn malformed_lb_payloads_are_dropped_not_fatal() {
    // Truncated and corrupt LB payloads (the kind a lossy or bit-flipping
    // wire produces) must not panic the protocol decoder — and must not
    // poison the load map for later, well-formed traffic.
    let mut scheds = machine(3, |r| Box::new(WorkStealing::new(1.0, r as u64)));

    // Truncated STATUS: 4 bytes where u64 units + f64 weight are expected.
    scheds[1]
        .node_mut()
        .node_message(0, LB_STATUS, Tag::System, Bytes::from_static(&[1, 2, 3, 4]));
    // Truncated REQUEST: only the units field, weight missing.
    let half_request = WireWriter::new().u64(9).finish();
    scheds[1]
        .node_mut()
        .node_message(0, LB_REQUEST, Tag::System, half_request);
    // Corrupt STATUS: weight is NaN (rejected by the checked decoder).
    let nan_status = WireWriter::new().u64(1).f64(f64::NAN).finish();
    scheds[2]
        .node_mut()
        .node_message(0, LB_STATUS, Tag::System, nan_status);
    scheds[0].poll();
    assert_eq!(scheds[0].stats().dropped_node_msgs, 3);

    // A well-formed status from the same peer still lands: rank 0 begs it.
    let status = WireWriter::new().u64(5).f64(5.0).finish();
    scheds[1]
        .node_mut()
        .node_message(0, LB_STATUS, Tag::System, status);
    scheds[0].poll();
    assert_eq!(scheds[0].stats().requests_sent, 1);
    scheds[0].verify_invariants();
}

#[test]
fn begging_timeout_reissues_request() {
    // A lost GRANT/NACK must not wedge a starving rank: after the watchdog
    // fires the round is abandoned and a new request goes out.
    let mut scheds = machine(2, |r| Box::new(WorkStealing::new(1.0, r as u64)));
    scheds[0].set_request_timeout_polls(4);
    let status = WireWriter::new().u64(8).f64(8.0).finish();
    scheds[1]
        .node_mut()
        .node_message(0, LB_STATUS, Tag::System, status);
    scheds[0].poll(); // learns the status, begs rank 1
    assert_eq!(scheds[0].stats().requests_sent, 1);
    // Rank 1 never answers (we never poll it): the watchdog must fire and
    // re-issue rather than wait forever.
    for _ in 0..8 {
        scheds[0].poll();
    }
    let stats = scheds[0].stats();
    assert!(stats.request_timeouts >= 1, "watchdog never fired");
    assert!(
        stats.requests_sent >= 2,
        "timed-out round was not re-issued: {stats:?}"
    );
    scheds[0].verify_invariants();
}

#[test]
fn partitioned_victim_falls_back_to_next_most_loaded() {
    // The begging protocol under a partitioned victim: rank 0 begs its pair
    // partner (rank 1), the partition eats the answer, and the watchdog must
    // fall back to the next-most-loaded known rank (rank 2) — which then
    // actually feeds rank 0. A stalled requester fails this test by timeout.
    let (mut scheds, handle) = chaos_machine(3, |r| Box::new(WorkStealing::new(1.0, r as u64)));
    scheds[0].set_request_timeout_polls(4);

    // Rank 2 holds real work: six objects, one queued unit each.
    for i in 0..6i64 {
        let ptr = scheds[2].node_mut().register(Counter { value: 0 });
        scheds[2]
            .node_mut()
            .message(ptr, H_ADD, Bytes::copy_from_slice(&i.to_le_bytes()));
    }
    scheds[2].poll();

    // Rank 0 learns both loads while the wire is healthy: rank 1 looks
    // heavier, so attempt 0 begs the pair partner (rank 1).
    let status1 = WireWriter::new().u64(10).f64(10.0).finish();
    scheds[1]
        .node_mut()
        .node_message(0, LB_STATUS, Tag::System, status1);
    let status2 = WireWriter::new().u64(6).f64(6.0).finish();
    scheds[2]
        .node_mut()
        .node_message(0, LB_STATUS, Tag::System, status2);
    scheds[0].poll();
    assert_eq!(scheds[0].stats().requests_sent, 1);

    // The victim drops off the network. Its NACK (rank 1 has no real work
    // to grant) is eaten by the partition, as is any retry toward it.
    handle.partition(0, 1);
    scheds[1].poll(); // processes the request, answers into the void

    // Rank 0's watchdog fires and falls back to rank 2.
    for _ in 0..8 {
        scheds[0].poll();
    }
    assert!(scheds[0].stats().request_timeouts >= 1);
    assert!(scheds[0].stats().requests_sent >= 2);

    // Rank 2 grants; drive only ranks 0 and 2 (rank 1 stays dark) until the
    // migrated work lands and executes on rank 0.
    let mut executed0 = 0u64;
    for _ in 0..200 {
        scheds[2].poll();
        scheds[2].step();
        scheds[0].poll();
        if scheds[0].step() {
            executed0 += 1;
        }
        if executed0 > 0 {
            break;
        }
    }
    assert!(
        executed0 > 0,
        "requester stalled on the partitioned victim instead of falling back: {:?}",
        scheds[0].stats()
    );
    assert!(
        handle.stats().partitioned > 0,
        "the partition never dropped anything — test setup is vacuous"
    );
    scheds[0].verify_invariants();
    scheds[2].verify_invariants();
}

#[test]
fn lost_empty_status_is_repaired_by_the_snapshot_a_request_carries() {
    // Statuses go out on demand (DESIGN.md §18), so one that is lost is not
    // overwritten by the next unit's. Here the partition eats the peer's
    // "I am empty": the donor goes on believing the peer is loaded and owes
    // it a report only per eighth of its own weight. The peer's next work
    // request carries its load, and that is what puts the donor right.
    let (mut scheds, handle) = chaos_machine(2, |r| Box::new(WorkStealing::new(1.0, r as u64)));
    let mut peer = scheds.pop().unwrap();
    let mut donor = scheds.pop().unwrap();
    // The donor refuses every request, so the peer's load changes only by
    // its own execution and every report in this test is the donor's.
    donor.set_stability(StabilityConfig {
        hysteresis_band: f64::INFINITY,
        ..StabilityConfig::off()
    });
    peer.set_request_timeout_polls(4);
    for (s, units) in [(&mut donor, 64i64), (&mut peer, 4)] {
        for i in 0..units {
            let ptr = s.node_mut().register(Counter { value: 0 });
            s.node_mut()
                .message(ptr, H_ADD, Bytes::copy_from_slice(&i.to_le_bytes()));
        }
    }
    peer.poll();
    donor.poll();
    let loaded = LoadSnapshot {
        units: 4,
        weight: 4.0,
    };
    assert_eq!(donor.known().get(&1), Some(&loaded));

    // The peer runs dry behind a partition: its statuses and its first
    // request are lost (the chaos layer drops at the receiving end).
    handle.partition(0, 1);
    while peer.step() {
        peer.poll();
    }
    assert!(peer.stats().requests_sent >= 1);
    donor.poll();
    assert!(handle.stats().partitioned >= 5, "{:?}", handle.stats());
    handle.heal(0, 1);

    // The donor, none the wiser, keeps four units' worth of changes to
    // itself: 64 -> 60 is within an eighth of what the peer was told.
    let sent = donor.stats().status_sent;
    for _ in 0..4 {
        donor.poll();
        assert!(donor.step());
    }
    assert_eq!(donor.known().get(&1), Some(&loaded));
    assert_eq!(donor.stats().status_sent, sent);

    // The peer's watchdog gives the lost request up and begs again.
    for _ in 0..8 {
        peer.poll();
    }
    assert!(peer.stats().request_timeouts >= 1);
    donor.poll();
    assert_eq!(
        donor.known().get(&1),
        Some(&LoadSnapshot::default()),
        "the request's snapshot did not reach the load map"
    );
    assert!(donor.stats().hysteresis_refusals >= 1);

    // A hungry neighbour is owed every change again.
    let sent = donor.stats().status_sent;
    for _ in 0..4 {
        assert!(donor.step());
        donor.poll();
    }
    assert!(donor.stats().status_sent >= sent + 4, "{:?}", donor.stats());
    donor.verify_invariants();
    peer.verify_invariants();
}
