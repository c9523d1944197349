//! Runtime invariant oracles (the `check-invariants` feature).
//!
//! These are *oracles*, not error handling: each method asserts a property
//! the MOL guarantees by construction, so any violation is a bug in the
//! runtime (or a regression introduced by a future change), caught at the
//! moment it happens instead of as a corrupted answer much later. The
//! feature is on by default — `cargo test` exercises every oracle through
//! the ordinary integration suites — and costs O(1) per message plus one
//! hash-map entry per active (sender, object) pair; release builds that
//! want the last few percent can disable default features.
//!
//! Four properties are checked (the first three from §4 of the paper):
//!
//! 1. **Delivery-order monotonicity** — for every (sender, object) pair,
//!    messages are delivered in exactly send order: seq 0, 1, 2, … with no
//!    gap, duplicate, or reordering, across any number of migrations. The
//!    oracle keeps an independent shadow cursor per pair, advanced at the
//!    two delivery points ([`MolNode::drain_ready`]/[`MolNode::pop_work`])
//!    and re-derived from a migration packet's ordering state on install.
//! 2. **Forwarding-chain sanity** — a migration packet's epoch strictly
//!    exceeds every epoch this rank has recorded for the object (forward
//!    pointer, cached location, or stale local entry): forwarding chains
//!    always walk *forward* in migration history, so no cycle can form. A
//!    generous hop bound catches routing loops that epoch bookkeeping
//!    would miss.
//! 3. **Work conservation** — queued work is neither lost nor duplicated:
//!    `accepted + installed − delivered − shipped == ready.len()`, checked
//!    after every poll/pump/migrate.
//! 4. **Ready-index consistency** — the incrementally maintained queue
//!    length, total and per-object weights and per-object queue positions
//!    equal a from-scratch recount over the queue ([`verify_ready`]), work
//!    is queued only for resident objects, and the holes migrations leave
//!    are counted nowhere. The recount is O(directory + queue), so it runs
//!    only once an eighth that many checks have passed since the last one:
//!    amortised O(1) per check, and on the small states of most tests every
//!    check.
//!
//! [`MolNode::drain_ready`]: crate::MolNode::poll
//! [`MolNode::pop_work`]: crate::MolNode::pop_work

use crate::directory::HARD_CHAIN_LIMIT;
use crate::proto::MolEnvelope;
use crate::ptr::MobilePtr;
use crate::ready::{ReadyIndex, Weight};
use prema_dcs::Rank;
use std::cell::Cell;
use std::collections::{HashMap, HashSet};

/// Per-node shadow state verifying the MOL's ordering and conservation
/// guarantees. Owned by [`crate::MolNode`]; all methods panic on violation.
#[derive(Debug, Default)]
pub(crate) struct NodeOracle {
    /// Next sequence number this node must deliver, per (sender, object).
    next_deliver: HashMap<(Rank, MobilePtr), u64>,
    /// Messages accepted into the ready queue on this node.
    accepted: u64,
    /// Messages handed to the executor (drained or popped).
    delivered: u64,
    /// Accepted-but-undelivered messages shipped out with a migration.
    shipped: u64,
    /// Accepted-but-undelivered messages received with a migration.
    installed: u64,
    /// Conservation checks since the last ready-index recount (a `Cell`:
    /// verification takes `&self`).
    since_recount: Cell<usize>,
}

impl NodeOracle {
    /// A message entered the ready queue (either fresh from the wire or
    /// drained from the out-of-order buffer).
    pub fn on_accept(&mut self) {
        self.accepted += 1;
    }

    /// A message is being delivered to the executor. Asserts per-pair
    /// sequence contiguity: exactly send order, no gaps, no duplicates.
    pub fn on_deliver(&mut self, sender: Rank, target: MobilePtr, seq: u64) {
        self.delivered += 1;
        let cursor = self.next_deliver.entry((sender, target)).or_insert(0);
        assert_eq!(
            seq, *cursor,
            "delivery-order oracle: object {target:?} got seq {seq} from rank \
             {sender} but expected {cursor} — messages reordered, lost, or \
             duplicated"
        );
        *cursor += 1;
    }

    /// An object is leaving with `pending` accepted-but-undelivered
    /// messages. Its delivery cursors leave with it (the destination
    /// re-derives them from the packet).
    pub fn on_migrate_out(&mut self, ptr: MobilePtr, pending: usize) {
        self.shipped += pending as u64;
        self.next_deliver.retain(|(_, p), _| *p != ptr);
    }

    /// An object is being installed from a migration packet.
    ///
    /// * `prior_epoch` — the freshest epoch this rank had recorded for the
    ///   object before the packet arrived (forward pointer, location cache,
    ///   or stale entry), if any. The packet must be strictly newer.
    /// * `expected`/`pending` — the packet's ordering state. For each
    ///   sender, the next sequence to *deliver* is the next to *accept*
    ///   minus the accepted-but-undelivered messages travelling in
    ///   `pending`, which re-derives the shadow cursor exactly.
    pub fn on_install(
        &mut self,
        ptr: MobilePtr,
        epoch: u64,
        prior_epoch: Option<u64>,
        expected: &[(Rank, u64)],
        pending: &[MolEnvelope],
    ) {
        if let Some(prior) = prior_epoch {
            assert!(
                epoch > prior,
                "forwarding oracle: object {ptr:?} installed at epoch {epoch} \
                 but this rank already saw epoch {prior} — migration history \
                 went backwards (forwarding cycle?)"
            );
        }
        self.installed += pending.len() as u64;
        for &(sender, next_accept) in expected {
            let in_pending = pending.iter().filter(|e| e.sender == sender).count() as u64;
            assert!(
                in_pending <= next_accept,
                "migration packet for {ptr:?} carries {in_pending} pending \
                 messages from rank {sender} but only {next_accept} were ever \
                 accepted"
            );
            self.next_deliver
                .insert((sender, ptr), next_accept - in_pending);
        }
        // Pending messages from a sender absent from `expected` would have
        // been accepted without an expected-counter — impossible.
        for env in pending {
            assert!(
                expected.iter().any(|&(s, _)| s == env.sender),
                "migration packet for {ptr:?} has a pending message from rank \
                 {} with no ordering state",
                env.sender
            );
        }
    }

    /// A message is being forwarded. `next` is the chosen next hop, `hops`
    /// the message's hop count *after* the increment.
    pub fn on_forward(&mut self, here: Rank, next: Rank, hops: u32) {
        assert_ne!(
            next, here,
            "forwarding oracle: rank {here} would forward to itself — \
             forward pointer or location cache points home"
        );
        assert!(
            hops < HARD_CHAIN_LIMIT,
            "forwarding oracle: message has taken {hops} hops (hard limit \
             {HARD_CHAIN_LIMIT}) — routing loop. Steady-state chains are \
             bounded by crate::directory::MAX_CHAIN; even degraded \
             trail-walking under chaos is bounded by migration history, so \
             only a genuine loop reaches the hard limit."
        );
    }

    /// Work conservation: everything accepted or installed is still queued,
    /// was delivered, or left with a migration.
    pub fn verify(&self, ready_len: usize) {
        let expect = self.accepted + self.installed - self.delivered - self.shipped;
        assert_eq!(
            expect, ready_len as u64,
            "conservation oracle: accepted {} + installed {} - delivered {} - \
             shipped {} = {} queued work units, but the ready queue holds {}",
            self.accepted, self.installed, self.delivered, self.shipped, expect, ready_len
        );
    }

    /// Whether this check should also recount the ready index, whose
    /// recount costs `size` steps: yes once an eighth of `size` checks have
    /// gone by without one.
    pub fn recount_due(&self, size: usize) -> bool {
        let n = self.since_recount.get() + 1;
        let due = n > size / 8;
        self.since_recount.set(if due { 0 } else { n });
        due
    }
}

/// Recount the ready index from its queue and compare with what it
/// maintains incrementally; `resident` says whether an object lives here.
pub(crate) fn verify_ready(index: &ReadyIndex, resident: impl Fn(MobilePtr) -> bool) {
    let queued: HashMap<u64, &MolEnvelope> = index.queued().collect();
    let mut weight = Weight::default();
    for env in queued.values() {
        weight.add(Weight::of(env.hint));
    }
    assert_eq!(
        queued.len(),
        index.len(),
        "ready oracle: queue length drifted"
    );
    assert_eq!(weight, index.weight(), "ready oracle: total weight drifted");

    let mut claimed = 0;
    let mut owners = HashSet::new();
    for lane in index.lanes() {
        let ptr = lane.ptr;
        assert!(
            lane.count > 0,
            "ready oracle: {ptr:?} holds a lane but has nothing queued"
        );
        assert!(owners.insert(ptr), "ready oracle: {ptr:?} holds two lanes");
        assert!(
            resident(ptr),
            "ready oracle: work is queued for {ptr:?}, which is not resident"
        );
        let mut w = Weight::default();
        let mut prev = None;
        for at in index.chain(lane) {
            // A hole (a message that left with a migration) is at no
            // position any chain may visit.
            let env = at.and_then(|at| queued.get(&at)).unwrap_or_else(|| {
                panic!("ready oracle: {ptr:?} chains through {at:?}, which holds no message")
            });
            assert!(
                prev < at,
                "ready oracle: {ptr:?} chains its messages out of queue order"
            );
            prev = at;
            assert_eq!(
                env.target, ptr,
                "ready oracle: {ptr:?} claims a message for {:?}",
                env.target
            );
            w.add(Weight::of(env.hint));
        }
        assert_eq!(
            w, lane.weight,
            "ready oracle: {ptr:?} lane weight drifted from its {} messages",
            lane.count
        );
        claimed += lane.count;
    }
    // Claims are distinct (ascending within a lane, one lane per object, one
    // target per message), so equal counts make them a bijection onto the
    // queue.
    assert_eq!(
        claimed,
        queued.len(),
        "ready oracle: queued messages no lane accounts for"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    fn ptr(i: u64) -> MobilePtr {
        MobilePtr { home: 0, index: i }
    }

    fn env(sender: Rank, target: MobilePtr, seq: u64) -> MolEnvelope {
        MolEnvelope {
            target,
            sender,
            seq,
            handler: 0,
            hops: 0,
            anchored: false,
            route_epoch: 0,
            hint: 1.0,
            payload: Bytes::new(),
        }
    }

    #[test]
    fn in_order_delivery_passes() {
        let mut o = NodeOracle::default();
        for seq in 0..4 {
            o.on_accept();
            o.on_deliver(1, ptr(7), seq);
        }
        o.verify(0);
    }

    #[test]
    #[should_panic(expected = "delivery-order oracle")]
    fn skipped_sequence_panics() {
        let mut o = NodeOracle::default();
        o.on_deliver(1, ptr(7), 0);
        o.on_deliver(1, ptr(7), 2); // seq 1 lost
    }

    #[test]
    #[should_panic(expected = "delivery-order oracle")]
    fn duplicate_sequence_panics() {
        let mut o = NodeOracle::default();
        o.on_deliver(1, ptr(7), 0);
        o.on_deliver(1, ptr(7), 0);
    }

    #[test]
    fn install_rederives_cursor_past_shipped_pending() {
        let mut o = NodeOracle::default();
        // Sender 2 had 5 accepted, 2 of them still pending: deliveries on
        // this node must resume at seq 3.
        let p = ptr(9);
        let pending = vec![env(2, p, 3), env(2, p, 4)];
        o.on_install(p, 1, None, &[(2, 5)], &pending);
        o.on_accept();
        o.on_accept();
        o.on_deliver(2, p, 3);
        o.on_deliver(2, p, 4);
        o.verify(2); // installed 2, accepted 2, delivered 2
    }

    #[test]
    #[should_panic(expected = "migration history went backwards")]
    fn epoch_regression_panics() {
        let mut o = NodeOracle::default();
        o.on_install(ptr(1), 2, Some(3), &[], &[]);
    }

    #[test]
    #[should_panic(expected = "forward to itself")]
    fn self_forward_panics() {
        let mut o = NodeOracle::default();
        o.on_forward(4, 4, 1);
    }

    #[test]
    #[should_panic(expected = "routing loop")]
    fn unbounded_chain_panics() {
        let mut o = NodeOracle::default();
        o.on_forward(4, 5, HARD_CHAIN_LIMIT);
    }

    #[test]
    fn degraded_chain_below_hard_limit_passes() {
        // Chains beyond MAX_CHAIN are legal in degraded (chaos) mode; only
        // the hard limit is unconditional.
        let mut o = NodeOracle::default();
        o.on_forward(4, 5, HARD_CHAIN_LIMIT - 1);
    }

    #[test]
    #[should_panic(expected = "conservation oracle")]
    fn lost_work_unit_panics() {
        let mut o = NodeOracle::default();
        o.on_accept();
        o.verify(0); // accepted one, queue empty, never delivered: lost
    }

    #[test]
    fn migrate_out_moves_custody() {
        let mut o = NodeOracle::default();
        o.on_accept();
        o.on_accept();
        o.on_deliver(1, ptr(3), 0);
        o.on_migrate_out(ptr(3), 1);
        o.verify(0);
        // After the object left, its cursor must be gone: a later
        // re-install starts from the packet state, not stale local state.
        assert!(o.next_deliver.is_empty());
    }
}
