//! Properties of two ranks at quiescence, under every shipped policy.
//!
//! Carrying *equal* load they must reach migration quiescence — zero grants,
//! zero migrations. This is the anti-thrash contract of DESIGN.md §14: when
//! there is nothing to gain from moving work, no policy may move any. Before
//! the stability governor, near-equal loads could trade objects back and
//! forth forever (each side seeing the other as marginally richer through
//! stale status reports).
//!
//! Carrying *any* load, what each knows of the other is stale by a bounded
//! amount only (DESIGN.md §18): statuses are sent on demand, not per change.

use bytes::Bytes;
use prema_dcs::{Communicator, LocalFabric};
use prema_ilb::{
    Anticipatory, Diffusion, Gradient, LbPolicy, Multilist, SchedStats, Scheduler, WorkStealing,
};
use prema_mol::{Migratable, MolNode};
use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};

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

const H_TICK: u32 = 1;

/// Every policy the framework ships, in one place so the property cannot
/// silently skip a newcomer.
fn shipped_policies(seed: u64) -> Vec<Box<dyn LbPolicy>> {
    vec![
        Box::new(WorkStealing::new(1.0, seed)),
        Box::new(Diffusion::new(0.5)),
        Box::new(Multilist::new(1, seed)),
        Box::new(Gradient::new(1.0, 2.0)),
        Box::new(Anticipatory::new(Box::new(Diffusion::new(0.5)))),
    ]
}

/// Two ranks, rank `r` holding `units[r]` one-message objects whose hints
/// are `weight` scaled by up to `1 + jitter`, no two alike.
fn two_ranks(
    mk_policy: &dyn Fn(usize) -> Box<dyn LbPolicy>,
    units: [usize; 2],
    weight: f64,
    jitter: f64,
) -> Vec<Scheduler<Counter>> {
    let mut scheds: Vec<Scheduler<Counter>> = LocalFabric::new(2)
        .into_iter()
        .enumerate()
        .map(|(r, ep)| {
            let node: MolNode<Counter> = MolNode::new(Communicator::new(Box::new(ep)));
            let mut s = Scheduler::new(node, mk_policy(r));
            s.on_message(H_TICK, |_ctx, c: &mut Counter, _item| c.value += 1);
            s
        })
        .collect();
    for (s, units) in scheds.iter_mut().zip(units) {
        for i in 0..units {
            let p = s.node_mut().register(Counter { value: 0 });
            let hint = weight * (1.0 + jitter * i as f64 / units as f64);
            s.node_mut()
                .message_with_hint(p, H_TICK, hint, Bytes::new());
        }
    }
    scheds
}

/// One round of polling without executing, as the runtime delivers it: each
/// rank's `poll()`, then 0-3 `poll_system()` passes drawn from `rng` — the
/// polling thread waking in between, each pass ending the governor's rate
/// window (DESIGN.md §19). Returns the protocol events handled.
fn poll_round(scheds: &mut [Scheduler<Counter>], rng: &mut StdRng) -> usize {
    let mut events = 0;
    for s in scheds.iter_mut() {
        events += s.poll();
        for _ in 0..rng.gen_range(0..4) {
            events += s.poll_system();
        }
    }
    events
}

/// Poll both ranks, without executing, until the wire is empty: a round in
/// which no poll handled an event and no scheduler sent anything. `false` if
/// they never get there, which only a forecasting policy may do: with nobody
/// executing, `Anticipatory` reads a trend into every arrival, pushes some of
/// it back, and the echo can go on for good at the governor's rate cap. (It
/// did with a status per change, move for move: 26 and 45 jittered units,
/// 5008+5008 migrations in 20 000 polls on the parent commit and on this.)
fn settle(scheds: &mut [Scheduler<Counter>], policy: &dyn LbPolicy, rng: &mut StdRng) -> bool {
    for _ in 0..4096 {
        let before: Vec<SchedStats> = scheds.iter().map(|s| s.stats()).collect();
        let events = poll_round(scheds, rng);
        if events == 0 && scheds.iter().map(|s| s.stats()).eq(before) {
            return true;
        }
    }
    assert!(
        policy.uses_forecast(),
        "{}: two ranks that execute nothing never stopped talking",
        policy.name()
    );
    false
}

/// With nothing in flight, what `scheds[me]` holds about its neighbour is
/// what the neighbour last told it, and that is off by at most an eighth of
/// itself in weight, exact about being empty and exact about which side of
/// the water-mark the neighbour is on. (A refusal or a timeout burns the
/// entry; a missing one claims nothing.)
fn check_staleness(scheds: &[Scheduler<Counter>], policy: &dyn LbPolicy) -> Result<(), String> {
    for me in 0..2 {
        let nb = &scheds[1 - me];
        let Some(known) = scheds[me].known().get(&nb.rank()) else {
            continue;
        };
        let local = nb.local_load();
        let fresh = (local.weight - known.weight).abs() <= known.weight * 0.125 + 1e-9
            && (known.units == 0) == nb.is_idle()
            && policy.is_underloaded(known) == policy.is_underloaded(&local);
        prop_assert!(
            fresh,
            "{}: rank {} holds {:?} but told rank {} {:?}",
            policy.name(),
            nb.rank(),
            local,
            me,
            known
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Equal loads, any unit count, any per-unit weight, any shipped policy:
    /// after a long polling phase and a full lockstep drain, no rank ever
    /// granted or received an object.
    #[test]
    fn equal_loads_reach_migration_quiescence(
        units in 1usize..6,
        weight in 0.25f64..4.0,
        seed in 0u64..u64::MAX,
    ) {
        let n_policies = shipped_policies(seed).len();
        for idx in 0..n_policies {
            let mk = |_r: usize| {
                shipped_policies(seed)
                    .into_iter()
                    .nth(idx)
                    .expect("policy index in range")
            };
            let name = mk(0).name();
            let mut scheds = two_ranks(&mk, [units; 2], weight, 0.0);
            let mut rng = StdRng::seed_from_u64(seed);

            // Phase 1: pure polling — statuses exchange, beggars beg, every
            // grant path must refuse because the weight gap is zero.
            for _ in 0..24 {
                poll_round(&mut scheds, &mut rng);
            }
            // Phase 2: lockstep drain — loads stay equal after every round,
            // so quiescence must hold all the way down to empty.
            loop {
                let mut progress = false;
                for s in scheds.iter_mut() {
                    s.poll();
                    if s.step() {
                        progress = true;
                    }
                }
                if !progress {
                    break;
                }
            }
            for _ in 0..8 {
                poll_round(&mut scheds, &mut rng);
            }

            for s in scheds.iter() {
                prop_assert!(
                    s.stats().granted == 0,
                    "policy {} granted objects between equal-load ranks",
                    name
                );
                prop_assert!(
                    s.node().stats().migrations_in == 0,
                    "policy {} migrated objects between equal-load ranks",
                    name
                );
            }
        }
    }
    /// Any two loads, any shipped policy: run some lockstep rounds, stop,
    /// let the wire empty, and each rank's view of the other is within the
    /// staleness bound; drain to the end and it is exact (both idle).
    #[test]
    fn known_loads_are_boundedly_stale_whenever_the_wire_is_empty(
        units0 in 0usize..48,
        units1 in 0usize..48,
        weight in 0.25f64..4.0,
        rounds in 0usize..64,
        seed in 0u64..u64::MAX,
    ) {
        let n_policies = shipped_policies(seed).len();
        for idx in 0..n_policies {
            let mk = |_r: usize| {
                shipped_policies(seed)
                    .into_iter()
                    .nth(idx)
                    .expect("policy index in range")
            };
            let policy = mk(0);
            let mut scheds = two_ranks(&mk, [units0, units1], weight, 0.5);
            let mut rng = StdRng::seed_from_u64(seed);
            for _ in 0..rounds {
                for s in scheds.iter_mut() {
                    s.poll();
                    s.step();
                }
            }
            if settle(&mut scheds, &*policy, &mut rng) {
                check_staleness(&scheds, &*policy)?;
            }

            while scheds.iter().any(|s| !s.is_idle()) {
                for s in scheds.iter_mut() {
                    s.poll();
                    s.step();
                }
            }
            prop_assert!(settle(&mut scheds, &*policy, &mut rng), "idle ranks kept talking");
            check_staleness(&scheds, &*policy)?;
        }
    }
}
