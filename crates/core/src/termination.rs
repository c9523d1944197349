//! Distributed completion detection for message-driven applications.
//!
//! Asynchronous PREMA applications have no barriers, so "we are finished" is
//! itself a distributed fact. For applications that know their total work
//! count up front (like the paper's synthetic benchmark: N work units), the
//! standard pattern is a completion counter: every rank counts the units it
//! executes, rank 0 adds up what the ranks have done, and broadcasts *done*
//! when the sum reaches the target. [`Completion`] packages that pattern.
//!
//! # When a total travels
//!
//! [`Completion::report`] only adds to this rank's running total: no lock,
//! no allocation, no message. A rank other than 0 sends that total to rank 0
//! from [`Completion::is_done`], when it has grown since the last send —
//! and every wait loop asks `is_done` when it finds nothing to run, so a
//! busy rank sends once per idle spell, not once per unit. Rank 0 counts its
//! own units in place: its `report` compares its total plus what the other
//! ranks sent against the target, and so does the report handler, and
//! whichever of the two gets there first broadcasts *done*.
//!
//! Termination stays exact: rank 0 declares *done* only when the totals it
//! holds sum to the target, and a rank that has executed units it has not
//! sent is not finished — it keeps asking `is_done`, and the first time it
//! asks with nothing to run its total goes out.
//!
//! # Loss tolerance
//!
//! The protocol is built to survive an unreliable wire (see
//! `prema_dcs::chaos`): reports are **cumulative** — each rank sends its
//! running total, and rank 0 keeps the per-rank maximum — so a duplicated or
//! replayed report is idempotent and a lost one is subsumed by any later
//! report from the same rank. [`Completion::maintain`] re-sends the current
//! total on a poll-counted timeout, which both recovers lost reports and
//! probes rank 0 after the fact: a report arriving at an already-done rank 0
//! is answered with a fresh *done* broadcast to its sender, recovering a
//! lost completion notice.

use crate::runtime::{Runtime, TrySend};
use bytes::Bytes;
use prema_dcs::Rank;
use prema_ilb::NODE_HANDLER_LIMIT;
use prema_mol::Migratable;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Node-message handler id for completion reports (to rank 0).
pub const H_COMPLETE_REPORT: u32 = NODE_HANDLER_LIMIT - 1;
/// Node-message handler id for the done broadcast (from rank 0).
pub const H_COMPLETE_DONE: u32 = NODE_HANDLER_LIMIT - 2;

/// How many [`Completion::maintain`] calls between re-reports while not yet
/// done. Each call typically corresponds to one application poll iteration.
const REREPORT_EVERY: u64 = 128;

/// Encode a cumulative completion report (this rank's running total): eight
/// little-endian bytes, which `Bytes` stores inline.
fn encode_report(total: u64) -> Bytes {
    Bytes::copy_from_slice(&total.to_le_bytes())
}

/// Decode a completion report; `None` drops a payload that is not exactly
/// eight bytes (cumulative re-reports make any single message expendable).
fn decode_report(payload: &[u8]) -> Option<u64> {
    Some(u64::from_le_bytes(payload.try_into().ok()?))
}

/// What a rank's [`Completion`] shares with its node-message handlers.
struct Tally {
    target: u64,
    /// Set once the target is reached (rank 0) or announced (elsewhere).
    done: AtomicBool,
    /// This rank's running executed total.
    local: AtomicU64,
    /// Rank 0: the sum of `peak` over the other ranks.
    peers: AtomicU64,
    /// Rank 0: the highest total each rank has sent. Handlers run one at a
    /// time per rank, so the lock is never contended.
    peak: Mutex<Vec<u64>>,
}

impl Tally {
    /// Rank 0: whether its own total plus the other ranks' has reached the
    /// target, for the first time. Called after each side's update by the
    /// side that made it — `report` after adding to `local`, the handler
    /// after adding to `peers` — so whichever update completes the sum, its
    /// caller sees both (every access is `SeqCst`), and the swap lets only
    /// one of them broadcast.
    fn reached(&self) -> bool {
        let sum =
            (self.local.load(Ordering::SeqCst)).saturating_add(self.peers.load(Ordering::SeqCst));
        sum >= self.target && !self.done.swap(true, Ordering::SeqCst)
    }
}

/// A completion detector. Create one per rank with the same `target` on
/// every rank, report executed units, and call [`Completion::is_done`]
/// whenever the rank has nothing to run — calling [`Completion::maintain`]
/// from the wait loop too if the wire may lose messages.
pub struct Completion {
    rank: Rank,
    tally: Arc<Tally>,
    /// The last total sent to rank 0.
    sent: AtomicU64,
    /// `maintain` call counter driving the re-report schedule.
    ticks: AtomicU64,
    /// Where `is_done` sends from: this rank's scheduler, never waited for.
    sender: Arc<dyn TrySend>,
}

impl Completion {
    /// Install the completion protocol on this rank's runtime. Must be
    /// called on every rank before any unit is reported, and on rank 0
    /// before it first polls.
    pub fn install<O: Migratable>(rt: &Runtime<O>, target: u64) -> Completion {
        let tally = Arc::new(Tally {
            target,
            done: AtomicBool::new(false),
            local: AtomicU64::new(0),
            peers: AtomicU64::new(0),
            peak: Mutex::new(vec![0; rt.nprocs()]),
        });
        {
            let tally = tally.clone();
            rt.on_node_message(H_COMPLETE_REPORT, move |ctx, src, payload| {
                // Only rank 0 counts, and only the other ranks' totals: its
                // own it reads in place, and a source outside the machine is
                // not a rank at all.
                if ctx.rank() != 0 || src == 0 || src >= ctx.nprocs() {
                    return;
                }
                let Some(n) = decode_report(&payload) else {
                    return;
                };
                if tally.done.load(Ordering::SeqCst) {
                    // Already finished: the reporter evidently missed the
                    // broadcast (or is re-probing). Tell it again.
                    ctx.node_message(src, H_COMPLETE_DONE, Bytes::new());
                    return;
                }
                // Cumulative max: duplicates and out-of-date reports add
                // nothing, so the wire may duplicate or reorder freely.
                let grown = {
                    let mut peak = tally.peak.lock().unwrap_or_else(|p| p.into_inner());
                    let grown = n.saturating_sub(peak[src]);
                    peak[src] += grown;
                    grown
                };
                tally.peers.fetch_add(grown, Ordering::SeqCst);
                if tally.reached() {
                    for dst in 1..ctx.nprocs() {
                        ctx.node_message(dst, H_COMPLETE_DONE, Bytes::new());
                    }
                }
            });
        }
        {
            let tally = tally.clone();
            rt.on_node_message(H_COMPLETE_DONE, move |_ctx, _src, _payload| {
                tally.done.store(true, Ordering::SeqCst);
            });
        }
        Completion {
            rank: rt.rank(),
            tally,
            sent: AtomicU64::new(0),
            ticks: AtomicU64::new(0),
            sender: rt.try_sender(),
        }
    }

    /// Record `n` newly completed units: one atomic add to this rank's
    /// running total, no lock and no message. Rank 0 also checks the target
    /// here and, on reaching it, broadcasts *done* (which takes the
    /// scheduler lock, so do not call this from inside
    /// [`Runtime::with_scheduler`]). Other ranks' totals travel from
    /// [`Completion::is_done`].
    pub fn report<O: Migratable>(&self, rt: &Runtime<O>, n: u64) {
        self.tally.local.fetch_add(n, Ordering::SeqCst);
        if self.rank == 0 && self.tally.reached() {
            for dst in 1..rt.nprocs() {
                rt.node_message(dst, H_COMPLETE_DONE, Bytes::new());
            }
        }
    }

    /// Liveness backstop for lossy wires: call once per iteration of the
    /// completion wait loop. Every `REREPORT_EVERY` calls while not yet
    /// done, a rank other than 0 re-sends its cumulative total — recovering
    /// lost reports, and prompting an already-done rank 0 to re-send the
    /// *done* broadcast if that was what got lost. A no-op once done, and on
    /// rank 0, which counts its own units in place.
    pub fn maintain<O: Migratable>(&self, _rt: &Runtime<O>) {
        if self.is_done() || self.rank == 0 {
            return;
        }
        let t = self.ticks.fetch_add(1, Ordering::SeqCst) + 1;
        if t.is_multiple_of(REREPORT_EVERY) {
            self.send_total(self.tally.local.load(Ordering::SeqCst));
        }
    }

    /// Whether the global target has been reached (eventually true on every
    /// rank after rank 0's broadcast arrives). Call it whenever the rank
    /// finds nothing to run: on a rank other than 0 it first sends rank 0
    /// this rank's total, if that has grown since the last send. The send
    /// never waits for the scheduler lock — called while the lock is held,
    /// by this thread or another, it sends nothing and the next call tries
    /// again.
    pub fn is_done(&self) -> bool {
        let done = self.tally.done.load(Ordering::SeqCst);
        if !done && self.rank != 0 {
            let total = self.tally.local.load(Ordering::SeqCst);
            if total > self.sent.load(Ordering::SeqCst) {
                self.send_total(total);
            }
        }
        done
    }

    /// Send rank 0 this rank's running `total`, if the scheduler lock is
    /// free; remember it as sent if it went.
    fn send_total(&self, total: u64) {
        if self
            .sender
            .try_node_message(0, H_COMPLETE_REPORT, encode_report(total))
        {
            self.sent.fetch_max(total, Ordering::SeqCst);
        }
    }
}
