//! The two policy scenarios on the real stack (DESIGN.md §14), with every
//! oracle on (tests build `check-invariants`), and the timed-arrival input
//! of `simrank::run` they brought with them.

use bytes::Bytes;
use prema::{PolicyKind, PremaConfig};
use prema_harness::drivers::{callback_cpu, sched_cpu};
use prema_harness::scenarios::{run_interact, run_wave, InteractCfg, WaveCfg};
use prema_harness::simrank::{self, mflop_payload, Arrival, StackRun};
use prema_mol::{Migratable, MAX_CHAIN};
use prema_sim::{Category, MachineConfig, SimTime};
use std::sync::{Arc, Mutex};

fn executed(run: &StackRun) -> u64 {
    run.sched.iter().map(|s| s.executed).sum()
}

/// (a) `interact` under plain diffusion, one task's weight the threshold.
#[test]
fn interact_under_diffusion_spreads_conserves_and_repeats() {
    let cfg = InteractCfg::default();
    let policy = PolicyKind::Diffusion {
        threshold: cfg.task_mflop,
    };
    let out = run_interact(&cfg, policy);
    let share = out.remote_notes as f64 / cfg.notes() as f64;
    eprintln!(
        "interact under diffusion: {} of {} notes remote (share {share:.3}), {} migrations, \
         makespan {}",
        out.remote_notes,
        cfg.notes(),
        out.migrations(),
        out.stack.report.makespan
    );
    assert_eq!(executed(&out.stack), out.units);
    assert!(out.migrations() > 0, "no balancing happened at all");
    for (rank, s) in out.stack.sched.iter().enumerate() {
        assert!(s.executed > 0, "rank {rank} executed nothing");
    }
    for (rank, m) in out.stack.mol.iter().enumerate() {
        let p99 = m.chain_percentile(0.99);
        assert!(p99 <= MAX_CHAIN, "rank {rank}: chain p99 {p99}");
    }
    // Four objects to a rank, three partners each among 31 others: placed
    // blindly, 28 notes in 31 cross (0.903), and one queued when its target
    // moves counts as well. This run reads 0.917.
    assert!(share < 0.95, "remote share {share:.3}");

    let again = run_interact(&cfg, policy);
    assert_eq!(again.remote_notes, out.remote_notes);
    assert_eq!(again.stack.sched, out.stack.sched);
    assert_eq!(again.stack.mol, out.stack.mol);
    let (a, b) = (&again.stack.report, &out.stack.report);
    assert_eq!(a.finish, b.finish);
    assert_eq!(a.breakdowns, b.breakdowns);
    assert_eq!(a.msgs_sent, b.msgs_sent);
    assert_eq!(a.events, b.events);
}

/// (b) `wave`: the forecast sheds each wave before its imbalance has cleared
/// the threshold that plain diffusion waits for.
#[test]
fn anticipatory_beats_reactive_diffusion_on_the_wave() {
    let cfg = WaveCfg::default();
    let threshold = 12.0 * cfg.task_mflop;
    let reactive = run_wave(&cfg, PolicyKind::Diffusion { threshold });
    let ant = run_wave(&cfg, PolicyKind::AnticipatoryDiffusion { threshold });
    eprintln!(
        "wave: reactive makespan {} ({} migrations), anticipatory makespan {} ({} migrations)",
        reactive.stack.report.makespan,
        reactive.migrations(),
        ant.stack.report.makespan,
        ant.migrations(),
    );
    assert_eq!(executed(&reactive.stack), reactive.units);
    assert_eq!(executed(&ant.stack), ant.units);
    assert!(
        ant.stack.report.makespan < reactive.stack.report.makespan,
        "anticipatory {} not better than reactive {}",
        ant.stack.report.makespan,
        reactive.stack.report.makespan
    );
}

// (c) The arrival hook alone: one rank, nobody to balance with.

struct Unit;

impl Migratable for Unit {
    fn pack(&self, _buf: &mut Vec<u8>) {}
    fn unpack(_b: &[u8]) -> Self {
        Unit
    }
}

const H_UNIT: u32 = 1;

/// Run, on one rank under `cfg`, the `(name, mflop)` units of `first` from
/// the start and one more per `(at, name, mflop)` of `later`. Returns the
/// run and the names in execution order.
fn one_rank(
    cfg: PremaConfig,
    first: &[(u32, f64)],
    later: &[(SimTime, u32, f64)],
) -> (StackRun, Vec<u32>) {
    fn post(sched: &mut prema_ilb::Scheduler<Unit>, name: u32, mflop: f64) {
        let mut payload = mflop_payload(mflop).to_vec();
        payload.extend_from_slice(&name.to_le_bytes());
        let ptr = sched.node_mut().register(Unit);
        sched
            .node_mut()
            .message_with_hint(ptr, H_UNIT, mflop, Bytes::from(payload));
    }
    let order = Arc::new(Mutex::new(Vec::new()));
    let arrivals = later
        .iter()
        .map(|&(at, name, mflop)| Arrival {
            at,
            rank: 0,
            post: Box::new(move |sched: &mut prema_ilb::Scheduler<Unit>| post(sched, name, mflop)),
        })
        .collect();
    let run = simrank::run::<Unit>(
        MachineConfig::small(1),
        &cfg,
        (first.len() + later.len()) as u64,
        None,
        arrivals,
        |sched| {
            let order = order.clone();
            sched.on_message(H_UNIT, move |_ctx, _unit, item| {
                let name = u32::from_le_bytes(item.payload[8..12].try_into().expect("4 bytes"));
                order.lock().expect("handlers do not panic").push(name);
            });
            for &(name, mflop) in first {
                post(sched, name, mflop);
            }
        },
    );
    let order = order.lock().expect("handlers do not panic").clone();
    (run, order)
}

/// What a unit of `mflop` occupies an explicit-mode rank for.
fn unit_time(mflop: f64) -> SimTime {
    sched_cpu() + callback_cpu() + MachineConfig::small(1).work_time(mflop)
}

#[test]
fn an_arrival_at_a_busy_rank_queues_behind_the_running_unit() {
    // 10 ms of unit under a 1 ms polling thread; the arrival lands 3 ms in.
    let at = SimTime::from_millis(3);
    let (run, order) = one_rank(PremaConfig::implicit(1), &[(1, 3.33)], &[(at, 2, 3.33)]);
    assert_eq!(order, [1, 2]);
    assert_eq!(executed(&run), 2);
    // Back to back: the rank never parked, and the second unit's compute
    // time came after all of the first's.
    assert_eq!(run.report.breakdowns[0][Category::Idle], SimTime::ZERO);
    assert!(run.report.finish[0] >= unit_time(3.33) + unit_time(3.33));
}

#[test]
fn an_arrival_wakes_a_parked_rank_at_its_instant_and_the_run_waits_for_it() {
    // The rank runs dry at 1 ms with units still to come at 50 and 100 ms:
    // it parks instead of finishing, starts each unit the instant it lands
    // (idle to the nanosecond, then the unit and nothing else), and parks
    // again after the first timer has ended a wait.
    let unit = unit_time(0.333);
    let (t1, t2) = (SimTime::from_millis(50), SimTime::from_millis(100));
    let later = [(t1, 2, 0.333), (t2, 3, 0.333)];
    let (run, order) = one_rank(PremaConfig::explicit(1), &[(1, 0.333)], &later);
    assert_eq!(order, [1, 2, 3]);
    assert_eq!(run.report.finish[0], t2 + unit);
    assert_eq!(run.report.breakdowns[0][Category::Idle], t2 - unit - unit);
}
