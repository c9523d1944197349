//! Plugging a custom load-balancing policy into the ILB framework.
//!
//! The framework/policy split (§4, reference \[1\]) is the point of PREMA's
//! design: the scheduler owns mechanism (routing, migration, preemptive
//! polling) and any [`LbPolicy`] implementation supplies the decisions. This
//! example writes a "gradient descent" policy from scratch — beg from the
//! *least-loaded known* neighbor above a threshold, publish to a ring — and
//! runs it on the single-threaded scheduler against bundled Work Stealing.
//!
//! Run with: `cargo run -p prema-examples --bin custom_policy`

use bytes::Bytes;
use prema_dcs::{Communicator, LocalFabric, Rank};
use prema_ilb::{LbPolicy, LoadMap, LoadSnapshot, Scheduler, WorkStealing};
use prema_mol::{Migratable, MolNode};

/// A toy mobile object: a block of iterations.
struct Block(u64);
impl Migratable for Block {
    fn pack(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.0.to_le_bytes());
    }
    fn unpack(b: &[u8]) -> Self {
        Block(u64::from_le_bytes(b[..8].try_into().unwrap()))
    }
}

/// The custom policy: ring gossip + pick the heaviest reporter.
struct RingGradient {
    threshold: usize,
}

impl LbPolicy for RingGradient {
    fn name(&self) -> &'static str {
        "ring-gradient"
    }
    fn neighborhood(&self, me: Rank, nprocs: usize) -> Vec<Rank> {
        if nprocs <= 1 {
            return vec![];
        }
        vec![(me + 1) % nprocs, (me + nprocs - 1) % nprocs]
    }
    fn is_underloaded(&self, local: &LoadSnapshot) -> bool {
        local.units <= self.threshold
    }
    fn choose_victim(
        &mut self,
        me: Rank,
        nprocs: usize,
        known: &LoadMap,
        attempt: u32,
    ) -> Option<Rank> {
        // Walk up the load gradient: heaviest known neighbor first, then
        // march around the ring.
        let best = known
            .iter()
            .filter(|(&r, s)| r != me && s.units > self.threshold)
            .max_by_key(|(_, s)| s.units)
            .map(|(&r, _)| r);
        best.or_else(|| {
            if nprocs <= 1 {
                None
            } else {
                Some((me + 1 + attempt as usize) % nprocs).filter(|&v| v != me)
            }
        })
    }
    fn grant_units(&self, local: &LoadSnapshot, requester: &LoadSnapshot) -> usize {
        if local.units <= self.threshold + 1 {
            0
        } else {
            ((local.units - requester.units) / 2).min(local.units - 1)
        }
    }
}

const H_SPIN: u32 = 1;

/// Build an N-rank machine of single-threaded schedulers and run a lopsided
/// workload to completion; returns per-rank executed counts.
fn run_machine(n: usize, mk_policy: impl Fn(usize) -> Box<dyn LbPolicy>) -> Vec<u64> {
    let mut scheds: Vec<Scheduler<Block>> = LocalFabric::new(n)
        .into_iter()
        .enumerate()
        .map(|(r, ep)| {
            let node: MolNode<Block> = MolNode::new(Communicator::new(Box::new(ep)));
            let mut s = Scheduler::new(node, mk_policy(r));
            s.on_message(H_SPIN, |_ctx, block, _item| {
                let mut x = 0u64;
                for i in 0..block.0 {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(i);
                }
                std::hint::black_box(x);
            });
            s
        })
        .collect();

    // Everything starts on rank 0.
    let total = 60u64;
    for i in 0..total {
        let ptr = scheds[0]
            .node_mut()
            .register(Block(2_000 + (i % 5) * 3_000));
        scheds[0].node_mut().message(ptr, H_SPIN, Bytes::new());
    }

    let mut executed = vec![0u64; n];
    // Drive all ranks round-robin on this thread until the work drains.
    loop {
        let mut progress = false;
        for (r, s) in scheds.iter_mut().enumerate() {
            s.poll();
            if s.step() {
                executed[r] += 1;
                progress = true;
            }
        }
        if !progress && executed.iter().sum::<u64>() >= total {
            // A few settling rounds so in-flight migrations land.
            for _ in 0..5 {
                for s in scheds.iter_mut() {
                    s.poll();
                }
            }
            break;
        }
    }
    executed
}

fn main() {
    let n = 4;
    println!("workload: 60 blocks, all registered on rank 0\n");

    let gradient = run_machine(n, |r| {
        let _ = r;
        Box::new(RingGradient { threshold: 1 })
    });
    println!("ring-gradient (custom):   per-rank executed = {gradient:?}");

    let stealing = run_machine(n, |r| Box::new(WorkStealing::new(2.0, r as u64)));
    println!("work-stealing (bundled):  per-rank executed = {stealing:?}");

    for (name, result) in [("ring-gradient", &gradient), ("work-stealing", &stealing)] {
        let spread = result.iter().filter(|&&e| e > 0).count();
        assert!(
            spread >= 2,
            "{name}: policy failed to spread work ({result:?})"
        );
    }
    println!(
        "\nboth policies spread the rank-0 pile across the machine — same framework, two policies."
    );
}
