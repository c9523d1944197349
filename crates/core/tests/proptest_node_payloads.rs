//! Node-message payloads off the wire, through a real two-rank scheduler:
//! the load balancer's `LB_STATUS` / `LB_REQUEST` snapshots and
//! `Completion`'s reports, as arbitrary bytes and as every truncation of a
//! valid payload. Nothing panics; an LB payload that does not decode is
//! counted in `SchedStats::dropped_node_msgs`; a completion report that
//! does not decode changes neither rank 0's counts nor `is_done()`.

use bytes::Bytes;
use prema::dcs::{Communicator, LocalFabric, Tag};
use prema::ilb::{LB_REQUEST, LB_STATUS};
use prema::mol::MolNode;
use prema::termination::H_COMPLETE_REPORT;
use prema::{launch_single_rank, Completion, Migratable, PremaConfig, Runtime};
use proptest::prelude::*;

/// Rank 0's completion target in every case.
const TARGET: u64 = 10;

struct Nil;

impl Migratable for Nil {
    fn pack(&self, _buf: &mut Vec<u8>) {}
    fn unpack(_b: &[u8]) -> Self {
        Nil
    }
}

/// Whether the scheduler's snapshot decoder accepts `payload`: a `u64`
/// unit count, then a finite, non-negative `f64` weight; trailing bytes
/// are ignored.
fn snapshot_decodes(payload: &[u8]) -> bool {
    payload.len() >= 16 && {
        let weight = f64::from_le_bytes(payload[8..16].try_into().unwrap());
        weight.is_finite() && weight >= 0.0
    }
}

fn snapshot(units: u64, weight: f64) -> Vec<u8> {
    [units.to_le_bytes(), weight.to_le_bytes()].concat()
}

/// Run `case` on rank 0 of a fresh two-rank machine (explicit mode, so no
/// polling thread) with `Completion` installed, handing it rank 1 as a bare
/// MOL node to send from.
fn with_world<R>(case: impl FnOnce(&Runtime<Nil>, &Completion, &mut MolNode<Nil>) -> R) -> R {
    let mut eps = LocalFabric::new(2);
    let ep1 = eps.pop().expect("fabric returns one endpoint per rank");
    let ep0 = eps.pop().expect("fabric returns one endpoint per rank");
    let mut rank1: MolNode<Nil> = MolNode::new(Communicator::new(Box::new(ep1)));
    launch_single_rank(PremaConfig::explicit(2), 0, Box::new(ep0), None, |rt| {
        let completion = Completion::install(&rt, TARGET);
        case(&rt, &completion, &mut rank1)
    })
}

/// Deliver one node message from rank 1 to rank 0 and let rank 0 handle it.
/// Returns how many node messages rank 0 dropped while doing so.
fn deliver(rt: &Runtime<Nil>, rank1: &mut MolNode<Nil>, handler: u32, payload: &[u8]) -> u64 {
    let before = rt.sched_stats().dropped_node_msgs;
    let tag = if handler == H_COMPLETE_REPORT {
        Tag::App
    } else {
        Tag::System
    };
    rank1.node_message(0, handler, tag, Bytes::copy_from_slice(payload));
    rt.poll();
    rt.sched_stats().dropped_node_msgs - before
}

/// An LB payload is dropped, and counted, exactly when it does not decode.
fn check_lb(handler: u32, payload: &[u8]) -> Result<(), String> {
    let dropped = with_world(|rt, _, rank1| deliver(rt, rank1, handler, payload));
    prop_assert_eq!(dropped, u64::from(!snapshot_decodes(payload)));
    Ok(())
}

/// A report that decodes counts as rank 1's total; one that does not leaves
/// rank 0 exactly where it was: rank 0's own `TARGET - 1` units are then
/// still one short, and a valid report of 1 from rank 1 completes it.
fn check_report(payload: &[u8]) -> Result<(), String> {
    let (dropped, done, short, finished) = with_world(|rt, completion, rank1| {
        let dropped = deliver(rt, rank1, H_COMPLETE_REPORT, payload);
        let done = completion.is_done();
        if done {
            return (dropped, true, false, true);
        }
        completion.report(rt, TARGET - 1);
        let short = !completion.is_done();
        deliver(rt, rank1, H_COMPLETE_REPORT, &1u64.to_le_bytes());
        (dropped, false, short, completion.is_done())
    });
    prop_assert_eq!(dropped, 0);
    match <[u8; 8]>::try_from(payload) {
        Ok(word) => prop_assert_eq!(done, u64::from_le_bytes(word) >= TARGET),
        Err(_) => prop_assert!(!done && short, "an undecodable report moved the count"),
    }
    prop_assert!(finished);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn arbitrary_payloads_never_panic_and_drop_exactly_what_does_not_decode(
        which in 0..3usize,
        payload in proptest::collection::vec(any::<u8>(), 0..40),
    ) {
        match which {
            0 => check_lb(LB_STATUS, &payload)?,
            1 => check_lb(LB_REQUEST, &payload)?,
            _ => check_report(&payload)?,
        }
    }

    #[test]
    fn every_truncation_of_a_valid_payload_is_dropped_or_decoded(
        units in 0..1u64 << 40,
        weight in 0.0..1e9f64,
        total in any::<u64>(),
    ) {
        let status = snapshot(units, weight);
        for cut in 0..=status.len() {
            check_lb(LB_STATUS, &status[..cut])?;
            check_lb(LB_REQUEST, &status[..cut])?;
        }
        let report = total.to_le_bytes();
        for cut in 0..=report.len() {
            check_report(&report[..cut])?;
        }
    }
}
