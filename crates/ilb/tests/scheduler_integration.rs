//! Integration tests for the ILB scheduler: message-driven execution, the
//! work-stealing protocol, diffusion flows, and detached-object execution.

use bytes::Bytes;
use prema_dcs::{Communicator, LocalFabric, Tag, WireWriter};
use prema_ilb::{Anticipatory, Diffusion, LbPolicy, Scheduler, StabilityConfig, WorkStealing};
use prema_mol::{Migratable, MobilePtr, MolEvent, MolNode};
use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};

/// Runtime-internal LB wire ids (see `crates/ilb/src/scheduler.rs`). The
/// protocol regression tests below inject raw LB traffic to set up exact
/// interleavings (delayed NACKs, forged statuses) that normal polling
/// cannot reproduce deterministically.
const LB_STATUS: u32 = 0xFFFF_F001;
const LB_REQUEST: u32 = 0xFFFF_F002;
const LB_NACK: u32 = 0xFFFF_F003;

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

/// Drive all schedulers round-robin until no work remains anywhere.
fn drain(scheds: &mut [Scheduler<Counter>]) -> Vec<u64> {
    let mut executed = vec![0u64; scheds.len()];
    let mut quiet_rounds = 0;
    while quiet_rounds < 4 {
        let mut progress = false;
        for (r, s) in scheds.iter_mut().enumerate() {
            s.poll();
            // One unit per rank per round: interleaves ranks the way real
            // concurrency would, so stealing has something to steal.
            if s.step() {
                executed[r] += 1;
                progress = true;
            }
        }
        if progress {
            quiet_rounds = 0;
        } else {
            quiet_rounds += 1;
        }
    }
    executed
}

#[test]
fn local_execution_works() {
    let mut scheds = machine(1, |_| Box::new(WorkStealing::new(1.0, 1)));
    let ptr = scheds[0].node_mut().register(Counter { value: 0 });
    for i in 1..=5i64 {
        scheds[0]
            .node_mut()
            .message(ptr, H_ADD, Bytes::copy_from_slice(&i.to_le_bytes()));
    }
    let executed = drain(&mut scheds);
    assert_eq!(executed, vec![5]);
    assert_eq!(scheds[0].node().get(ptr).unwrap().value, 15);
}

#[test]
fn stealing_spreads_a_rank_zero_pile() {
    let n = 4;
    let mut scheds = machine(n, |r| Box::new(WorkStealing::new(2.0, r as u64)));
    for i in 0..40i64 {
        let ptr = scheds[0].node_mut().register(Counter { value: 0 });
        scheds[0]
            .node_mut()
            .message(ptr, H_ADD, Bytes::copy_from_slice(&i.to_le_bytes()));
    }
    let executed = drain(&mut scheds);
    assert_eq!(executed.iter().sum::<u64>(), 40);
    let spread = executed.iter().filter(|&&e| e > 0).count();
    assert!(spread >= 2, "no work moved: {executed:?}");
    // Stealing stats should reflect the traffic.
    let total_granted: u64 = scheds.iter().map(|s| s.stats().granted).sum();
    assert!(total_granted > 0);
}

#[test]
fn diffusion_pushes_work_downhill() {
    let n = 4;
    let mut scheds = machine(n, |_| Box::new(Diffusion::new(0.5)));
    for i in 0..24i64 {
        let ptr = scheds[0].node_mut().register(Counter { value: 0 });
        scheds[0]
            .node_mut()
            .message(ptr, H_ADD, Bytes::copy_from_slice(&i.to_le_bytes()));
    }
    let executed = drain(&mut scheds);
    assert_eq!(executed.iter().sum::<u64>(), 24);
    assert!(
        executed.iter().filter(|&&e| e > 0).count() >= 2,
        "diffusion moved nothing: {executed:?}"
    );
}

#[test]
fn lb_disabled_keeps_everything_local() {
    let n = 4;
    let mut scheds = machine(n, |r| Box::new(WorkStealing::new(2.0, r as u64)));
    for s in scheds.iter_mut() {
        s.set_lb_enabled(false);
    }
    for i in 0..10i64 {
        let ptr = scheds[0].node_mut().register(Counter { value: 0 });
        scheds[0]
            .node_mut()
            .message(ptr, H_ADD, Bytes::copy_from_slice(&i.to_le_bytes()));
    }
    let executed = drain(&mut scheds);
    assert_eq!(executed, vec![10, 0, 0, 0]);
}

#[test]
fn begin_finish_detached_execution() {
    // begin() detaches; the object is invisible (and unmigratable) until
    // finish(); its queued messages survive.
    let mut scheds = machine(2, |r| Box::new(WorkStealing::new(1.0, r as u64)));
    let ptr = scheds[0].node_mut().register(Counter { value: 0 });
    scheds[0]
        .node_mut()
        .message(ptr, H_ADD, Bytes::copy_from_slice(&7i64.to_le_bytes()));
    scheds[0]
        .node_mut()
        .message(ptr, H_ADD, Bytes::copy_from_slice(&5i64.to_le_bytes()));
    scheds[0].poll();
    let mut exec = scheds[0].begin().expect("work queued");
    // While detached: object not borrowable, not migratable.
    assert!(scheds[0].node().get(ptr).is_none());
    assert!(!scheds[0].node_mut().migrate(ptr, 1));
    exec.run();
    scheds[0].finish(exec);
    assert_eq!(scheds[0].node().get(ptr).unwrap().value, 7);
    // Second message still queued and executable.
    assert!(scheds[0].step());
    assert_eq!(scheds[0].node().get(ptr).unwrap().value, 12);
    assert_eq!(scheds[0].stats().executed, 2);
}

#[test]
fn handler_sends_are_applied_after_finish() {
    let mut scheds = machine(1, |_| Box::new(WorkStealing::new(1.0, 1)));
    let a = scheds[0].node_mut().register(Counter { value: 0 });
    let b = scheds[0].node_mut().register(Counter { value: 0 });
    // Handler on `a` posts work to `b`.
    scheds[0].on_message(2, move |ctx, c, _item| {
        c.value += 1;
        ctx.message(b, H_ADD, Bytes::copy_from_slice(&100i64.to_le_bytes()));
    });
    scheds[0].node_mut().message(a, 2, Bytes::new());
    let executed = drain(&mut scheds);
    assert_eq!(executed, vec![2]);
    assert_eq!(scheds[0].node().get(a).unwrap().value, 1);
    assert_eq!(scheds[0].node().get(b).unwrap().value, 100);
}

#[test]
fn node_messages_dispatch_to_registered_handlers() {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;
    let mut scheds = machine(2, |r| Box::new(WorkStealing::new(1.0, r as u64)));
    let seen = Arc::new(AtomicU64::new(0));
    let seen2 = seen.clone();
    scheds[1].on_node_message(9, move |_ctx, src, payload| {
        assert_eq!(src, 0);
        seen2.store(
            u64::from_le_bytes(payload[..8].try_into().unwrap()),
            Ordering::SeqCst,
        );
    });
    scheds[0].node_mut().node_message(
        1,
        9,
        prema_dcs::Tag::App,
        Bytes::copy_from_slice(&42u64.to_le_bytes()),
    );
    scheds[1].poll();
    assert_eq!(seen.load(Ordering::SeqCst), 42);
}

#[test]
fn executing_object_is_never_granted() {
    // A steal request arriving mid-execution must not migrate the executing
    // object, per §4.2.
    let mut scheds = machine(2, |r| Box::new(WorkStealing::new(10.0, r as u64)));
    let ptr = scheds[0].node_mut().register(Counter { value: 0 });
    scheds[0]
        .node_mut()
        .message(ptr, H_ADD, Bytes::copy_from_slice(&1i64.to_le_bytes()));
    scheds[0].poll();
    let exec = scheds[0].begin().unwrap();
    // Rank 1 is idle: its poll sends a steal request to rank 0.
    scheds[1].poll();
    // Rank 0's system poll handles the request mid-execution (as PREMA's
    // polling thread would). Only NACK or other objects may be granted.
    scheds[0].poll_system();
    assert!(scheds[0].node().is_local(ptr) || scheds[0].node().get(ptr).is_none());
    scheds[0].finish(exec);
    // The object is still on rank 0 and executed there.
    assert_eq!(scheds[0].stats().executed, 1);
}

#[test]
fn stale_nack_does_not_cancel_newer_request() {
    // Rank 0 is idle with an overloaded neighbor: it begs its pair partner
    // (rank 1). A delayed NACK from an *earlier* round — here forged from
    // rank 2 — must not cancel that outstanding request or burn an attempt.
    let mut scheds = machine(3, |r| Box::new(WorkStealing::new(1.0, r as u64)));
    let status = WireWriter::new().u64(10).f64(10.0).finish();
    scheds[1]
        .node_mut()
        .node_message(0, LB_STATUS, Tag::System, status);
    scheds[0].poll(); // learns the status, begs rank 1 (attempt 0 = partner)
    assert_eq!(scheds[0].stats().requests_sent, 1);
    scheds[2]
        .node_mut()
        .node_message(0, LB_NACK, Tag::System, Bytes::new());
    scheds[0].poll();
    assert_eq!(
        scheds[0].stats().requests_sent,
        1,
        "a stale NACK cancelled the outstanding request and triggered a re-beg"
    );
    // The genuine refusal from the current victim ends the round; the same
    // poll's evaluation begs again (attempt 1 < cap).
    scheds[1]
        .node_mut()
        .node_message(0, LB_NACK, Tag::System, Bytes::new());
    scheds[0].poll();
    assert_eq!(scheds[0].stats().requests_sent, 2);
    assert_eq!(scheds[0].stats().nacks_recv, 2);
}

#[test]
fn grant_never_strips_donor_bare_for_a_busy_requester() {
    // The donor holds one object carrying its entire ready queue. A poorer
    // but non-idle requester must be refused (migrating would empty the
    // donor); a fully idle requester may take the last object.
    let mut scheds = machine(2, |r| Box::new(WorkStealing::new(1.0, r as u64)));
    let ptr = scheds[0].node_mut().register(Counter { value: 0 });
    for i in 0..2i64 {
        scheds[0]
            .node_mut()
            .message(ptr, H_ADD, Bytes::copy_from_slice(&i.to_le_bytes()));
    }
    let busy_requester = WireWriter::new().u64(2).f64(0.5).finish();
    scheds[1]
        .node_mut()
        .node_message(0, LB_REQUEST, Tag::System, busy_requester);
    scheds[0].poll();
    assert_eq!(
        scheds[0].stats().granted,
        0,
        "the first grant stripped the donor bare for a busy requester"
    );
    assert_eq!(scheds[0].node().ready_len(), 2);
    let idle_requester = WireWriter::new().u64(0).f64(0.0).finish();
    scheds[1]
        .node_mut()
        .node_message(0, LB_REQUEST, Tag::System, idle_requester);
    scheds[0].poll();
    assert_eq!(scheds[0].stats().granted, 1);
    assert_eq!(scheds[0].node().ready_len(), 0);
}

#[test]
fn local_load_includes_executing_units_weight() {
    // A status published mid-execution must carry the executing unit's
    // weight hint, or diffusive policies see an under-report and push work
    // at a rank that is actually busy.
    let mut scheds = machine(1, |_| Box::new(WorkStealing::new(1.0, 1)));
    let ptr = scheds[0].node_mut().register(Counter { value: 0 });
    scheds[0].node_mut().message_with_hint(
        ptr,
        H_ADD,
        5.0,
        Bytes::copy_from_slice(&1i64.to_le_bytes()),
    );
    scheds[0].poll();
    let mut exec = scheds[0].begin().expect("work queued");
    let load = scheds[0].local_load();
    assert_eq!(load.units, 1);
    assert!(
        (load.weight - 5.0).abs() < 1e-9,
        "executing unit's weight missing from local load: {}",
        load.weight
    );
    exec.run();
    scheds[0].finish(exec);
    assert_eq!(scheds[0].local_load().units, 0);
    assert_eq!(scheds[0].local_load().weight, 0.0);
}

#[test]
fn fresh_status_reenables_begging_after_attempt_cap() {
    // A rank that exhausts its begging attempts must not go silent forever:
    // fresh evidence of an overloaded neighbor re-opens the round.
    let mut scheds = machine(2, |r| Box::new(WorkStealing::new(1.0, r as u64)));
    let status = WireWriter::new().u64(5).f64(5.0).finish();
    scheds[1]
        .node_mut()
        .node_message(0, LB_STATUS, Tag::System, status.clone());
    scheds[0].poll();
    assert_eq!(scheds[0].stats().requests_sent, 1);
    // Rank 1 refuses every round until rank 0 gives up (cap = 8 for n=2;
    // extra NACKs past the cap are stale and must change nothing).
    for _ in 0..12 {
        scheds[1]
            .node_mut()
            .node_message(0, LB_NACK, Tag::System, Bytes::new());
        scheds[0].poll();
    }
    assert_eq!(
        scheds[0].stats().requests_sent,
        8,
        "attempt cap not enforced"
    );
    scheds[1]
        .node_mut()
        .node_message(0, LB_STATUS, Tag::System, status);
    scheds[0].poll();
    assert_eq!(
        scheds[0].stats().requests_sent,
        9,
        "a fresh LB_STATUS from an overloaded neighbor did not re-enable begging"
    );
}

const H_HOP: u32 = 3;

/// A token that re-posts itself to its own object until its hop count runs
/// out, with a hint that differs from hop to hop: the queue stays as long as
/// it was and the rank's weight changes with every unit.
fn on_hop(s: &mut Scheduler<Counter>) {
    s.on_message(H_HOP, |ctx, c: &mut Counter, item| {
        c.value += 1;
        let left = u64::from_le_bytes(item.payload[..8].try_into().unwrap());
        if left > 0 {
            ctx.message_with_hint(item.ptr, H_HOP, hop_hint(left - 1), hop_payload(left - 1));
        }
    });
}

fn hop_hint(left: u64) -> f64 {
    1.0 + 0.01 * (left % 7) as f64
}

fn hop_payload(left: u64) -> Bytes {
    Bytes::copy_from_slice(&left.to_le_bytes())
}

#[test]
fn two_loaded_ranks_do_not_report_every_unit_to_each_other() {
    // Both ranks hold 64 tokens throughout, so neither is near its
    // water-mark and neither acts on the other's load: a status per unit
    // (the old rule: one whenever the load changed) is traffic nobody
    // reads. Only the drain at the end, one report per eighth of the
    // weight, is news.
    const TOKENS: u64 = 64;
    const HOPS: u64 = 32;
    let mut scheds = machine(2, |r| Box::new(WorkStealing::new(1.0, r as u64)));
    for s in scheds.iter_mut() {
        on_hop(s);
        for _ in 0..TOKENS {
            let ptr = s.node_mut().register(Counter { value: 0 });
            s.node_mut()
                .message_with_hint(ptr, H_HOP, hop_hint(HOPS - 1), hop_payload(HOPS - 1));
        }
    }
    let executed = drain(&mut scheds);
    assert_eq!(executed.iter().sum::<u64>(), 2 * TOKENS * HOPS);
    for s in &scheds {
        let stats = s.stats();
        assert!(stats.executed >= TOKENS * HOPS / 2, "{stats:?}");
        assert!(
            stats.status_sent <= stats.executed / 8,
            "rank {} reported {} times for {} units",
            s.rank(),
            stats.status_sent,
            stats.executed
        );
    }
}

#[test]
fn a_starved_neighbour_hears_every_change_and_its_round_reopens() {
    // The `fig3_coarse` liveness path. The peer is empty, the donor's
    // migration budget is one object per 16 polls: after the first grant
    // every request is refused until the window rolls, the peer's round runs
    // into its attempt cap (8 on two ranks), and only a status showing work
    // re-opens it. The peer is hungry, so the donor owes it one per change.
    const UNITS: u64 = 64;
    let mut scheds = machine(2, |r| Box::new(WorkStealing::new(1.0, r as u64)));
    let mut peer = scheds.pop().unwrap();
    let mut donor = scheds.pop().unwrap();
    donor.set_stability(StabilityConfig {
        migration_cap: 1,
        cap_window_polls: 16,
        ..StabilityConfig::off()
    });
    for i in 0..UNITS as i64 {
        let ptr = donor.node_mut().register(Counter { value: 0 });
        donor
            .node_mut()
            .message(ptr, H_ADD, Bytes::copy_from_slice(&i.to_le_bytes()));
    }
    let round = |donor: &mut Scheduler<Counter>, peer: &mut Scheduler<Counter>| {
        donor.poll();
        donor.step();
        peer.poll();
        peer.step();
    };

    // Inside the donor's first window: one object moved, everything since
    // was refused.
    for _ in 0..14 {
        round(&mut donor, &mut peer);
    }
    assert_eq!(peer.node().stats().migrations_in, 1);
    assert!(donor.stats().rate_cap_vetoes >= 8, "{:?}", donor.stats());
    assert!(
        donor.stats().status_sent >= donor.stats().executed,
        "the donor kept changes from a hungry neighbour: {:?}",
        donor.stats()
    );
    // More requests than one round's cap between two installs: a status
    // re-opened the round.
    assert!(
        peer.stats().requests_sent > 1 + 8,
        "the peer stayed at its attempt cap: {:?}",
        peer.stats()
    );

    // And it goes on to drain the donor, one object per window.
    while !(donor.is_idle() && peer.is_idle()) {
        round(&mut donor, &mut peer);
    }
    assert_eq!(donor.stats().executed + peer.stats().executed, UNITS);
    assert!(peer.stats().executed >= 3, "{:?}", peer.stats());
    assert!(
        donor.stats().status_sent >= donor.stats().executed,
        "{:?}",
        donor.stats()
    );
}

/// A poll as the runtime delivers it: `poll()`, then, when seeded, 0-3
/// `poll_system()` passes — the polling thread waking between two polls of
/// the application thread, each pass ending the governor's rate window.
struct Poller(Option<StdRng>);

impl Poller {
    fn seeded() -> Self {
        Poller(Some(StdRng::seed_from_u64(16)))
    }

    fn poll(&mut self, s: &mut Scheduler<Counter>) {
        s.poll();
        if let Some(rng) = &mut self.0 {
            for _ in 0..rng.gen_range(0..4) {
                s.poll_system();
            }
        }
    }
}

/// Two ranks, rank `r` holding `units[r]` one-message objects of unit
/// weight.
fn unequal_pair(
    mk_policy: &dyn Fn() -> Box<dyn LbPolicy>,
    units: [usize; 2],
    stability: StabilityConfig,
) -> Vec<Scheduler<Counter>> {
    let mut scheds = machine(2, |_| mk_policy());
    for (s, units) in scheds.iter_mut().zip(units) {
        s.set_stability(stability);
        for _ in 0..units {
            let ptr = s.node_mut().register(Counter { value: 0 });
            s.node_mut()
                .message(ptr, H_ADD, Bytes::copy_from_slice(&1i64.to_le_bytes()));
        }
    }
    scheds
}

#[test]
fn a_diffusive_flow_stops_at_the_balance_point() {
    // A flow is sized on the neighbour's load, and a neighbour holding work
    // does not report a gain of under an eighth. What stops the flow at the
    // balance point is the sender booking what it ships and both ends
    // reporting once an object has moved: without that the sender pushes the
    // same flow again on every poll, past the balance point, and with the
    // governor off the two ranks trade the surplus back and forth.
    // (`Anticipatory(Diffusion)` sizes its flows on a trend and echoes: the
    // two tests below are its own.)
    let mk: &dyn Fn() -> Box<dyn LbPolicy> = &|| Box::new(Diffusion::new(0.5));
    // Poll-only as before, then with the polling thread's passes in between,
    // governor off and on: an evaluation more or a window less must not move
    // an object more.
    let modes = [
        (false, StabilityConfig::off()),
        (true, StabilityConfig::off()),
        (true, StabilityConfig::default()),
    ];
    for units in [[1000, 900], [120, 100], [200, 100], [64, 0]] {
        let half_gap = (units[0] - units[1]) as u64 / 2;
        let even = (units[0] + units[1]) / 2;
        let name = mk().name();

        for (ticked, stability) in modes {
            let mode = format!("{name} {units:?}, ticked {ticked}, {stability:?}");
            // Nobody executes: exactly half the gap moves, none of it
            // back.
            let mut poller = if ticked {
                Poller::seeded()
            } else {
                Poller(None)
            };
            let mut scheds = unequal_pair(mk, units, stability);
            for _ in 0..256 {
                for s in scheds.iter_mut() {
                    poller.poll(s);
                }
            }
            let moved = [scheds[0].stats().granted, scheds[1].stats().granted];
            assert_eq!(moved, [half_gap, 0], "{mode}");
            assert_eq!(scheds[0].node().ready_len(), even, "{mode}");
            assert_eq!(scheds[1].node().ready_len(), even, "{mode}");

            // The sender polls eight times to the receiver's once, as a
            // rank between two units does to one inside a long handler:
            // the receiver's report is late, the booked shipment is not.
            let mut scheds = unequal_pair(mk, units, stability);
            for _ in 0..64 {
                for _ in 0..8 {
                    poller.poll(&mut scheds[0]);
                }
                poller.poll(&mut scheds[1]);
            }
            let moved = [scheds[0].stats().granted, scheds[1].stats().granted];
            assert_eq!(moved, [half_gap, 0], "{mode}, receiver slow");
        }

        // Both execute in lockstep, so the balance holds all the way
        // down: nothing more moves, and the ranks finish together.
        let mut scheds = unequal_pair(mk, units, StabilityConfig::off());
        let executed = drain(&mut scheds);
        let moved = [scheds[0].stats().granted, scheds[1].stats().granted];
        assert!(
            moved[0] <= half_gap && moved[1] == 0,
            "{name} {units:?}: moved {moved:?}"
        );
        assert!(
            executed[0].abs_diff(executed[1]) <= 2,
            "{name} {units:?}: executed {executed:?}"
        );
    }
}

#[test]
fn an_anticipatory_flow_settles_as_it_did_with_a_status_per_change() {
    // `Anticipatory(Diffusion)` reads a trend into every arrival and pushes
    // some of it back; when nobody executes, the echo is paced by the
    // governor's rate cap alone and dies only when both ranks happen to land
    // level at a window's start. That makes it the policy most sensitive to
    // what each rank knows of the other. Told at both ends of every shipment
    // it moves what it moved when every change was reported (the counts
    // below are the parent commit's); told less, it cycles at the cap.
    let mk: &dyn Fn() -> Box<dyn LbPolicy> =
        &|| Box::new(Anticipatory::new(Box::new(Diffusion::new(0.5))));
    for (units, parent_moves) in [
        ([1000, 900], [143, 93]),
        ([120, 100], [95, 85]),
        ([200, 100], [143, 93]),
        ([64, 0], [111, 79]),
    ] {
        let mut scheds = unequal_pair(mk, units, StabilityConfig::default());
        for _ in 0..4096 {
            for s in scheds.iter_mut() {
                s.poll();
            }
        }
        let even = (units[0] + units[1]) / 2;
        assert_eq!(scheds[0].node().ready_len(), even, "{units:?}");
        assert_eq!(scheds[1].node().ready_len(), even, "{units:?}");
        let moved = [scheds[0].stats().granted, scheds[1].stats().granted];
        assert!(
            moved[0] <= parent_moves[0] && moved[1] <= parent_moves[1],
            "{units:?}: moved {moved:?}, a status per change moved {parent_moves:?}"
        );
    }
}

#[test]
fn a_ticked_anticipatory_flow_still_ends_level() {
    // The same echo with the polling thread waking in between. It is paced
    // by the rate window alone, every pass of the poller ends a window, so a
    // ticked run buys more of it: 1000 / 900 moves 304 + 254 objects before
    // it dies against the 143 + 93 above (DESIGN.md §19 has the table). What
    // must not change is where it dies: on level loads.
    let mk: &dyn Fn() -> Box<dyn LbPolicy> =
        &|| Box::new(Anticipatory::new(Box::new(Diffusion::new(0.5))));
    for units in [[1000, 900], [120, 100], [200, 100], [64, 0]] {
        let mut poller = Poller::seeded();
        let mut scheds = unequal_pair(mk, units, StabilityConfig::default());
        for _ in 0..4096 {
            for s in scheds.iter_mut() {
                poller.poll(s);
            }
        }
        let even = (units[0] + units[1]) / 2;
        let moved = [scheds[0].stats().granted, scheds[1].stats().granted];
        assert_eq!(scheds[0].node().ready_len(), even, "{units:?} {moved:?}");
        assert_eq!(scheds[1].node().ready_len(), even, "{units:?} {moved:?}");
    }
}

#[test]
fn a_grant_closes_half_the_gap_between_two_loaded_ranks() {
    // Rank 1 begs while it still holds work. Half of the *donor's* queue
    // would overshoot: 40 / 16 moved 20 and ended 20 / 36, the imbalance
    // inverted (the default rate cap clips that to 24 / 32 and hides it).
    for (watermark, units, want) in [(16.0, [40, 16], 12), (1.0, [375, 1], 187)] {
        let mk: &dyn Fn() -> Box<dyn LbPolicy> = &|| Box::new(WorkStealing::new(watermark, 7));
        let mut scheds = unequal_pair(mk, units, StabilityConfig::off());
        for _ in 0..8 {
            for s in scheds.iter_mut().rev() {
                s.poll();
            }
        }
        assert_eq!(scheds[0].stats().granted, want, "{units:?}");
        assert_eq!(scheds[1].stats().granted, 0, "{units:?}");
        let ends = [scheds[0].node().ready_len(), scheds[1].node().ready_len()];
        assert_eq!(ends, [units[0] - want as usize, units[1] + want as usize]);
    }
}

/// A donor holding `units` one-unit objects and an empty peer, both work
/// stealing at the presets' water-mark under the default governor.
fn donor_and_thief(units: usize) -> (Scheduler<Counter>, Scheduler<Counter>) {
    let mk: &dyn Fn() -> Box<dyn LbPolicy> = &|| Box::new(WorkStealing::new(1.0, 7));
    let mut scheds = unequal_pair(mk, [units, 0], StabilityConfig::default());
    let peer = scheds.pop().unwrap();
    (scheds.pop().unwrap(), peer)
}

#[test]
fn a_donor_inside_long_handlers_keeps_its_thief_fed() {
    // The `fig3_coarse` stealing phase as the runtime drives it: the donor's
    // application thread polls once per unit, and while the unit runs (1.9
    // ms) the polling thread wakes twice. Three donor polls per unit made
    // the 64-poll rate window last 21 units: the thief ate its 16 objects in
    // 16 rounds and sat idle for the other five, begging. The window now
    // ends at each pass of the polling thread.
    const UNITS: usize = 256;
    let (mut donor, mut peer) = donor_and_thief(UNITS);
    let (mut idle_rounds, mut longest_idle) = (0, 0);
    while !(donor.is_idle() && peer.is_idle()) {
        donor.poll();
        let exec = donor.begin();
        donor.poll_system();
        donor.poll_system();
        if let Some(mut exec) = exec {
            exec.run();
            donor.finish(exec);
        }
        peer.poll();
        // Idle rounds count against the donor only while it has work to
        // give: more than the unit it keeps and the one it is running.
        if peer.step() || donor.local_load().units <= 2 {
            idle_rounds = 0;
        } else {
            idle_rounds += 1;
            longest_idle = longest_idle.max(idle_rounds);
        }
    }
    let (d, p) = (donor.stats(), peer.stats());
    assert_eq!(d.executed + p.executed, UNITS as u64);
    assert!(
        longest_idle <= 2,
        "the thief sat idle {longest_idle} rounds"
    );
    assert!(d.executed.abs_diff(p.executed) <= 16, "{d:?} {p:?}");
    assert!(d.granted.abs_diff(UNITS as u64 / 2) <= 16, "{d:?}");
    assert!(p.requests_sent <= d.granted / 4, "{p:?} for {d:?}");
}

#[test]
fn duplicate_requests_answered_in_one_pass_share_one_budget() {
    // An idle thief's request watchdog runs on its own polls (~240 µs), the
    // donor answers once per `poll_interval`: up to four copies of one
    // request wait for the same pass of the polling thread. Each reports an
    // empty requester, so each would take half of what is left — the window
    // they all meet is what makes the copies harmless.
    let (mut donor, mut peer) = donor_and_thief(256);
    let cap = u64::from(donor.stability().migration_cap);
    for _ in 0..4 {
        let idle = WireWriter::new().u64(0).f64(0.0).finish();
        peer.node_mut()
            .node_message(0, LB_REQUEST, Tag::System, idle);
    }
    donor.poll_system();
    assert_eq!(donor.stats().granted, cap);
    assert!(donor.stats().rate_cap_vetoes >= 3, "{:?}", donor.stats());
    peer.poll_system();
    assert_eq!(peer.node().stats().migrations_in, cap);
}

/// `n` unit-weight messages for `ptr`, sent from `s`'s rank.
fn post(s: &mut Scheduler<Counter>, ptr: MobilePtr, n: usize) {
    for _ in 0..n {
        s.node_mut()
            .message(ptr, H_ADD, Bytes::copy_from_slice(&1i64.to_le_bytes()));
    }
}

/// The objects that have arrived at `s` since it last looked, in arrival
/// order: the order its donor shipped them in. Read off the node, behind the
/// scheduler's back, so only for a rank the test is otherwise done with.
fn arrivals(s: &mut Scheduler<Counter>) -> Vec<MobilePtr> {
    s.node_mut()
        .pump()
        .into_iter()
        .filter_map(|ev| match ev {
            MolEvent::Installed { ptr, .. } => Some(ptr),
            _ => None,
        })
        .collect()
}

#[test]
fn a_displaced_object_goes_home_before_any_native_is_touched() {
    let mut scheds = machine(2, |r| Box::new(WorkStealing::new(1.0, r as u64)));
    for s in scheds.iter_mut() {
        s.set_stability(StabilityConfig::off());
    }
    let mut home = scheds.pop().unwrap();
    let mut thief = scheds.pop().unwrap();
    // Eight objects born on rank 1 that hear from rank 1 alone, 1 to 8 times.
    let born_on_1: Vec<MobilePtr> = (1..=8)
        .map(|n| {
            let ptr = home.node_mut().register(Counter { value: 0 });
            post(&mut home, ptr, n);
            ptr
        })
        .collect();
    let natives: Vec<MobilePtr> = (0..4)
        .map(|_| thief.node_mut().register(Counter { value: 0 }))
        .collect();
    // Rank 0 is idle and begs; half of rank 1's 36 units go, heaviest first.
    thief.poll();
    home.poll();
    thief.poll();
    let displaced = [born_on_1[7], born_on_1[6], born_on_1[5]];
    assert_eq!(thief.node().stats().migrations_in, 3);
    assert!(displaced.iter().all(|&p| thief.node().is_local(p)));
    assert_eq!(
        home.stats().granted_affine,
        0,
        "nothing had heard from rank 0"
    );

    // Rank 0 goes on talking to its own objects, each of which now outweighs
    // every displaced one, and has one word with the heaviest guest: 8
    // messages from rank 1 against 1 from here is still rank 1's object.
    for &ptr in &natives {
        post(&mut thief, ptr, 10);
    }
    post(&mut thief, displaced[0], 1);
    // Rank 1 runs dry, polling after each unit as PREMA's cycle does, and
    // begs once its last unit is all it has: half the gap is 30 units, which
    // is the 22 of the three guests and one native's 10.
    while home.step() {
        home.poll();
    }
    assert_eq!(home.stats().requests_sent, 1);
    thief.poll();
    let back = arrivals(&mut home);
    assert_eq!(back[..3], displaced, "guests first, heaviest first");
    assert_eq!(back[3..], natives[..1], "then the natives, as ever");
    let stats = thief.stats();
    assert_eq!((stats.granted, stats.granted_affine), (4, 3));
}

#[test]
fn a_flow_takes_the_same_objects_whatever_policy_sized_it() {
    // The candidate order does not depend on who sized the flow.
    let policies: [&dyn Fn() -> Box<dyn LbPolicy>; 2] =
        [&|| Box::new(Diffusion::new(0.5)), &|| {
            Box::new(Anticipatory::new(Box::new(Diffusion::new(0.5))))
        }];
    for mk in policies {
        let mut scheds = machine(2, |_| mk());
        for s in scheds.iter_mut() {
            s.set_stability(StabilityConfig::off());
            s.set_lb_enabled(false);
        }
        // Three objects of rank 1's that heard 3, 2 and 1 messages there and
        // were then moved to rank 0.
        let displaced: Vec<MobilePtr> = [3, 2, 1]
            .into_iter()
            .map(|n| {
                let ptr = scheds[1].node_mut().register(Counter { value: 0 });
                post(&mut scheds[1], ptr, n);
                assert!(scheds[1].node_mut().migrate(ptr, 0));
                ptr
            })
            .collect();
        // Six natives of rank 0 with 5 messages of its own each. The first
        // has also heard 4 from rank 1, more than any guest — but fewer than
        // from here, so it is no guest.
        let natives: Vec<MobilePtr> = (0..6)
            .map(|_| {
                let ptr = scheds[0].node_mut().register(Counter { value: 0 });
                post(&mut scheds[0], ptr, 5);
                ptr
            })
            .collect();
        post(&mut scheds[1], natives[0], 4);
        scheds[1].poll();
        scheds[0].poll();
        assert_eq!(scheds[0].local_load().units, 6 + 30 + 4);

        // 40 units against none: the flow is 20. The guests fit (6), then
        // the second class by weight: the native of 9, and one of 5.
        for s in scheds.iter_mut() {
            s.set_lb_enabled(true);
        }
        scheds[1].poll();
        scheds[0].poll();
        let shipped = arrivals(&mut scheds[1]);
        let name = mk().name();
        assert_eq!(shipped[..3], displaced[..], "{name}");
        assert_eq!(shipped[3..], natives[..2], "{name}");
        let stats = scheds[0].stats();
        assert_eq!((stats.granted, stats.granted_affine), (5, 3), "{name}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Where no candidate has heard from the requester, affinity has nothing
    /// to say and a grant is what it always was: the ready summary from the
    /// top. (`hotspot_migrate`, `arrivals_open` and `fig3_coarse` are this
    /// case until a donor begs back from its own thief.)
    #[test]
    fn silent_affinity_leaves_the_grant_order_alone(
        lanes in proptest::collection::vec((1usize..4, 1u32..40, any::<bool>()), 2..24),
    ) {
        let mut scheds = machine(3, |r| Box::new(WorkStealing::new(1.0, r as u64)));
        for s in scheds.iter_mut() {
            s.set_stability(StabilityConfig::off());
        }
        let mut bystander = scheds.pop().unwrap();
        let mut requester = scheds.pop().unwrap();
        let mut donor = scheds.pop().unwrap();
        // The bystander only talks: some of the donor's objects hear more
        // from rank 2 than from rank 0, none hears from rank 1.
        bystander.set_lb_enabled(false);
        for &(count, tenths, chatty) in &lanes {
            let ptr = donor.node_mut().register(Counter { value: 0 });
            let payload = Bytes::copy_from_slice(&1i64.to_le_bytes());
            for _ in 0..count {
                let hint = f64::from(tenths) / 10.0;
                donor.node_mut().message_with_hint(ptr, H_ADD, hint, payload.clone());
            }
            if chatty {
                post(&mut bystander, ptr, count + 1);
            }
        }
        bystander.poll();
        donor.poll();

        // An idle rank 1 asks again and again until the donor refuses.
        loop {
            let summary = donor.node().ready_summary();
            let idle = WireWriter::new().u64(0).f64(0.0).finish();
            requester.node_mut().node_message(0, LB_REQUEST, Tag::System, idle);
            donor.poll();
            let got = arrivals(&mut requester);
            if got.is_empty() {
                break;
            }
            let top: Vec<MobilePtr> = summary.iter().map(|&(ptr, ..)| ptr).collect();
            prop_assert_eq!(&got[..], &top[..got.len()]);
        }
        prop_assert!(donor.stats().granted > 0);
        prop_assert_eq!(donor.stats().granted_affine, 0);
    }
}
