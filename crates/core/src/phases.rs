//! Mixed-phase applications: the paper's §6 future work.
//!
//! > "Our next goal is to extend this work so that we can present a unified
//! > method for solving the load balancing problem for end-to-end
//! > applications that consist of both asynchronous, highly adaptive
//! > computation phases, such as parallel mesh refinement, and loosely
//! > synchronous computation phases such as parallel sparse iterative field
//! > solvers."
//!
//! [`PhaseBarrier`] is that bridge: a lightweight, message-based barrier an
//! application crosses *between* phases. Inside an asynchronous phase the
//! runtime balances preemptively as usual; at the phase boundary every rank
//! enters the barrier (processing messages while it waits, so in-flight
//! migrations settle), and the loosely synchronous phase that follows can
//! rely on a quiescent, balanced object distribution — e.g. to extract a
//! partition-aligned view for a solver.

use crate::runtime::Runtime;
use bytes::Bytes;
use prema_dcs::WireReader;
use prema_dcs::WireWriter;
use prema_ilb::NODE_HANDLER_LIMIT;
use prema_mol::Migratable;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Node-message handler id for barrier arrivals (to rank 0).
pub const H_PHASE_ARRIVE: u32 = NODE_HANDLER_LIMIT - 3;
/// Node-message handler id for barrier releases (from rank 0).
pub const H_PHASE_RELEASE: u32 = NODE_HANDLER_LIMIT - 4;

/// Encode a barrier arrive/release payload: just the epoch.
fn encode_epoch(epoch: u64) -> Bytes {
    WireWriter::new().u64(epoch).finish()
}

/// Decode a barrier epoch payload; `None` if it is truncated.
fn decode_epoch(payload: Bytes) -> Option<u64> {
    WireReader::new(payload).try_u64()
}

/// A reusable inter-phase barrier. Install once per rank; call
/// [`PhaseBarrier::wait`] at each phase boundary. Barrier instances are
/// matched by an epoch counter, so every rank must cross the same sequence
/// of barriers (exactly like MPI collectives).
pub struct PhaseBarrier {
    /// Highest epoch released so far (updated by the release handler).
    released: Arc<AtomicU64>,
    /// Rank-0 bookkeeping: arrivals counted per epoch.
    arrivals: Arc<AtomicU64>,
    /// Next epoch this rank will wait on.
    next_epoch: u64,
}

impl PhaseBarrier {
    /// Install the barrier protocol on this rank's runtime. Must be called
    /// on every rank before any phase boundary.
    pub fn install<O: Migratable>(rt: &Runtime<O>) -> PhaseBarrier {
        let released = Arc::new(AtomicU64::new(0));
        let arrivals = Arc::new(AtomicU64::new(0));

        // Rank 0 counts arrivals; when a full machine's worth for the
        // current epoch is in, it broadcasts the release.
        {
            let arrivals = arrivals.clone();
            let released = released.clone();
            rt.on_node_message(H_PHASE_ARRIVE, move |ctx, _src, payload| {
                let Some(epoch) = decode_epoch(payload) else {
                    return;
                };
                let n = ctx.nprocs() as u64;
                let total = arrivals.fetch_add(1, Ordering::SeqCst) + 1;
                // Arrivals for epoch e complete when the count reaches e*n.
                if total == epoch * n {
                    released.store(epoch, Ordering::SeqCst);
                    let msg = encode_epoch(epoch);
                    for dst in 0..ctx.nprocs() {
                        if dst != ctx.rank() {
                            ctx.node_message(dst, H_PHASE_RELEASE, msg.clone());
                        }
                    }
                }
            });
        }
        {
            let released = released.clone();
            rt.on_node_message(H_PHASE_RELEASE, move |_ctx, _src, payload| {
                if let Some(epoch) = decode_epoch(payload) {
                    released.fetch_max(epoch, Ordering::SeqCst);
                }
            });
        }
        PhaseBarrier {
            released,
            arrivals,
            next_epoch: 1,
        }
    }

    /// Enter the barrier and block until every rank has. While waiting, the
    /// runtime keeps polling (so migrations in flight settle) but executes
    /// no further work units — the asynchronous phase is over.
    pub fn wait<O: Migratable>(&mut self, rt: &Runtime<O>) {
        let epoch = self.next_epoch;
        self.next_epoch += 1;
        let payload = encode_epoch(epoch);
        rt.node_message(0, H_PHASE_ARRIVE, payload);
        while self.released.load(Ordering::SeqCst) < epoch {
            rt.poll();
            std::thread::yield_now();
        }
        let _ = &self.arrivals;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_roundtrip() {
        for epoch in [0, 1, u64::MAX] {
            assert_eq!(decode_epoch(encode_epoch(epoch)), Some(epoch));
        }
        assert_eq!(decode_epoch(encode_epoch(7).slice(0..7)), None);
    }
}
