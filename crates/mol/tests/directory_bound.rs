//! Regression bound for the sharded directory (CI-enforced).
//!
//! Runs an interact-shaped workload (Fig. 3 of the paper: every rank
//! repeatedly messages a fixed partner set while a few hot objects migrate
//! aggressively) on a fixed single-threaded schedule and asserts the three
//! properties the directory exists to provide:
//!
//! 1. forwarding chains stay at or below [`MAX_CHAIN`] at the 99th
//!    percentile (and at the max, since the schedule settles each
//!    migration before the next),
//! 2. the sender location caches stay hot: ≥ 90% aggregate hit rate,
//! 3. wire traffic stays inside a budget computed from the schedule:
//!    the application's sends, two messages per migration (packet and
//!    publish), and at most [`MAX_CHAIN`] redirect/answer messages per
//!    (rank, hot object) per round — trail walks would grow with migration
//!    count, shard redirects don't. The schedule is deterministic, so the
//!    count is exact run to run.

use bytes::Bytes;
use prema_dcs::{Communicator, LocalFabric};
use prema_mol::{MobilePtr, MolConfig, MolEvent, MolNode, MAX_CHAIN};

const NPROCS: usize = 8;
const OBJS_PER_RANK: usize = 4;
const NOBJS: usize = NPROCS * OBJS_PER_RANK;
const ROUNDS: usize = 20;
/// Hot objects migrate this many times per round — more than one, so a
/// trail walk would be multi-hop where the directory pays one bounded shard
/// redirect.
const MIGRATIONS_PER_ROUND: usize = 5;
const H_ADD: u32 = 1;

#[derive(Debug, PartialEq)]
struct Counter {
    value: i64,
}

impl prema_mol::Migratable for Counter {
    fn pack(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.value.to_le_bytes());
    }
    fn unpack(buf: &[u8]) -> Self {
        Counter {
            value: i64::from_le_bytes(buf[..8].try_into().unwrap()),
        }
    }
}

fn machine() -> Vec<MolNode<Counter>> {
    LocalFabric::new(NPROCS)
        .into_iter()
        .map(|ep| MolNode::with_config(Communicator::new(Box::new(ep)), MolConfig::default()))
        .collect()
}

fn apply_events(node: &mut MolNode<Counter>, events: Vec<MolEvent>) -> bool {
    let mut any = false;
    for ev in events {
        if let MolEvent::Object { ptr, payload, .. } = ev {
            let add = i64::from_le_bytes(payload[..8].try_into().unwrap());
            node.with_object(ptr, |_, c| c.value += add).unwrap();
            any = true;
        }
    }
    any
}

/// Pump until three rounds pass with no deliveries *and* no wire traffic.
/// Forward hops produce no `MolEvent`s, so quiet detection must watch the
/// communicator's receive counters too.
fn drain(nodes: &mut [MolNode<Counter>]) {
    let mut quiet = 0;
    while quiet < 3 {
        let before: u64 = nodes.iter().map(|n| n.comm().stats().msgs_recvd).sum();
        let mut any = false;
        for node in nodes.iter_mut() {
            let events = node.poll();
            any |= apply_events(node, events);
        }
        let after: u64 = nodes.iter().map(|n| n.comm().stats().msgs_recvd).sum();
        if any || after != before {
            quiet = 0;
        } else {
            quiet += 1;
        }
    }
}

struct RunResult {
    wire_msgs: u64,
    /// Upper bound on `wire_msgs` read off the schedule (module docs, 3).
    wire_budget: u64,
    hit_rate: f64,
    p99_chain: u32,
    max_chain: u32,
    dir_publishes: u64,
}

/// The interact schedule, fully deterministic.
fn run_interact(mut nodes: Vec<MolNode<Counter>>) -> RunResult {
    let mut ptrs: Vec<MobilePtr> = Vec::with_capacity(NOBJS);
    for node in nodes.iter_mut() {
        for _ in 0..OBJS_PER_RANK {
            ptrs.push(node.register(Counter { value: 0 }));
        }
    }
    // Four hot objects on distinct ranks migrate every round; the rest are
    // stable partners that keep the caches exercised on the fast path.
    let hot = [0usize, 9, 18, 27];
    let mut expected = vec![0i64; NOBJS];

    for _round in 0..ROUNDS {
        // Hot objects take a short migration burst, each move settled
        // before the next so the forward-pointer trail is real (and so at
        // most one migration overlaps any message's flight).
        for &obj in hot.iter() {
            for _ in 0..MIGRATIONS_PER_ROUND {
                let src = nodes
                    .iter()
                    .position(|nd| nd.is_local(ptrs[obj]))
                    .expect("hot object lost");
                // +3 is coprime with NPROCS: a burst never revisits a rank,
                // so the trail is a genuine MIGRATIONS_PER_ROUND-hop walk
                // (revisits would overwrite forward pointers with fresher
                // epochs and compress it).
                let dst = (src + 3) % NPROCS;
                assert!(nodes[src].migrate(ptrs[obj], dst));
                drain(&mut nodes);
            }
        }
        // Every rank messages every hot object plus four stable partners.
        for (r, node) in nodes.iter_mut().enumerate() {
            let mut targets: Vec<usize> = hot.to_vec();
            for k in 0..4 {
                let stable = (r * OBJS_PER_RANK + 1 + k * 7) % NOBJS;
                if !hot.contains(&stable) {
                    targets.push(stable);
                }
            }
            for obj in targets {
                node.message(ptrs[obj], H_ADD, Bytes::from(1i64.to_le_bytes().to_vec()));
                expected[obj] += 1;
            }
        }
        drain(&mut nodes);
    }
    drain(&mut nodes);

    // Exactly-once: every counter holds exactly the adds sent to it.
    for (obj, ptr) in ptrs.iter().enumerate() {
        let holder = nodes
            .iter()
            .find(|nd| nd.get(*ptr).is_some())
            .unwrap_or_else(|| panic!("object {obj} lost"));
        assert_eq!(
            holder.get(*ptr).unwrap().value,
            expected[obj],
            "object {obj} lost or duplicated messages"
        );
    }

    let wire_msgs: u64 = nodes.iter().map(|n| n.comm().stats().msgs_sent).sum();
    let sends: u64 = expected.iter().map(|&n| n as u64).sum();
    let migrations: u64 = nodes.iter().map(|n| n.stats().migrations_out).sum();
    let chases = (NPROCS * hot.len() * ROUNDS) as u64;
    let (hits, misses): (u64, u64) = nodes.iter().fold((0, 0), |(h, m), n| {
        (h + n.stats().loc_cache_hits, m + n.stats().loc_cache_misses)
    });
    let hit_rate = if hits + misses == 0 {
        1.0
    } else {
        hits as f64 / (hits + misses) as f64
    };
    RunResult {
        wire_msgs,
        wire_budget: sends + 2 * migrations + u64::from(MAX_CHAIN) * chases,
        hit_rate,
        p99_chain: nodes
            .iter()
            .map(|n| n.stats().chain_percentile(0.99))
            .max()
            .unwrap(),
        max_chain: nodes.iter().map(|n| n.stats().max_chain).max().unwrap(),
        dir_publishes: nodes.iter().map(|n| n.stats().dir_publishes).sum(),
    }
}

#[test]
fn interact_chain_bound_and_cache_rate() {
    let sharded = run_interact(machine());

    // The directory protocol was actually exercised.
    assert!(
        sharded.dir_publishes > 0,
        "no publishes: directory inactive"
    );

    // (1) chain bound: p99 and max both within the documented constant.
    assert!(
        sharded.p99_chain <= MAX_CHAIN,
        "p99 forwarding chain {} exceeds MAX_CHAIN {}",
        sharded.p99_chain,
        MAX_CHAIN
    );
    assert!(
        sharded.max_chain <= MAX_CHAIN,
        "max forwarding chain {} exceeds MAX_CHAIN {} on a settled schedule",
        sharded.max_chain,
        MAX_CHAIN
    );

    // (2) sender caches stay hot.
    assert!(
        sharded.hit_rate >= 0.90,
        "location cache hit rate {:.3} below 0.90",
        sharded.hit_rate
    );

    // (3) wire traffic within the schedule's budget.
    println!(
        "wire messages: {} actual, {} budget",
        sharded.wire_msgs, sharded.wire_budget
    );
    assert!(
        sharded.wire_msgs <= sharded.wire_budget,
        "sharded directory sent {} wire messages, budget {}",
        sharded.wire_msgs,
        sharded.wire_budget
    );
}
