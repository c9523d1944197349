//! Configurations (e) and (f): Charm++ with 0 and 4 synchronization points.
//!
//! Per the paper's §5 recipe: choose the number of load-balancing iterations
//! `I`; create a chare array of `N/I` elements; each chare executes `I` work
//! units, calling `AtSync()` between them. `I = 1` means the array is the
//! full unit list and no load balancing ever runs (panel (e)); four sync
//! points give `I = 5` rounds and four barrier-synchronized balancing steps
//! with the Greedy strategy on runtime-measured loads (panel (f)).
//!
//! The model keeps the two properties of Charm++ the paper's findings rest
//! on (§3.2):
//!
//! 1. **An entry method runs atomically.** A processor runs its chares'
//!    units back to back and sees messages only between them, as the engine
//!    delivers nothing inside a callback.
//! 2. **Balancing happens at `AtSync` barriers, centrally.** A processor that
//!    has run its chares' round sends the root each chare's measured time
//!    and waits. The root runs Greedy on those times (the "principle of
//!    persistent computation": the last round predicts the next), scatters
//!    migration orders, and every processor pays the strategy's CPU. A
//!    processor resumes once the chares it was sent have arrived.
//!
//! Chares are **block-mapped** initially, matching the block distribution
//! every other configuration starts from. Chare `c` holds units
//! `[c·I, (c+1)·I)` by global index, and moves as one message of
//! `UNIT_BYTES · I` bytes.

use super::{callback_cpu, sched_cpu, CTRL_BYTES, UNIT_BYTES};
use crate::spec::BenchSpec;
use prema_sim::{Category, Ctx, Engine, Process, SimMessage, SimReport, SimTime, TraceSink};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::rc::Rc;
use std::sync::Arc;

const K_LOADS: u32 = 1; // processor → root: measured time of each chare it holds
const K_ORDERS: u32 = 2; // root → processor: chares to ship, and how many arrive
const K_CHARE: u32 = 3; // processor → processor: one migrating chare

const T_NEXT: u64 = 1;
const T_WAIT: u64 = 2;

/// The processor the central strategy runs on.
const ROOT: usize = 0;

/// The strategy's CPU per chare in the array, charged on every processor at
/// every balancing step.
const LB_MICROS_PER_CHARE: u64 = 40;

/// Greedy strategy: heaviest chare to the least-loaded processor,
/// repeatedly (ties: lower chare index first, then lower processor). Near
/// the best balance the measured loads allow, whatever it migrates. Returns
/// each chare's processor.
fn greedy_assign(loads: &[f64], npes: usize) -> Vec<usize> {
    assert!(npes > 0);
    let mut order: Vec<usize> = (0..loads.len()).collect();
    order.sort_by(|&a, &b| loads[b].total_cmp(&loads[a]).then(a.cmp(&b)));
    // Min-heap of (load, processor). Loads are non-negative, so their bit
    // patterns order as the values do.
    let mut heap: BinaryHeap<Reverse<(u64, usize)>> =
        (0..npes).map(|p| Reverse((0f64.to_bits(), p))).collect();
    let mut owner = vec![0; loads.len()];
    for c in order {
        let Reverse((load, pe)) = heap.pop().expect("npes > 0");
        owner[c] = pe;
        heap.push(Reverse(((f64::from_bits(load) + loads[c]).to_bits(), pe)));
    }
    owner
}

/// What the root tells one processor at a balancing step.
#[derive(Default)]
struct Orders {
    /// Chares to ship, each with its new processor, in chare order.
    ship: Vec<(usize, usize)>,
    /// How many chares will arrive.
    incoming: usize,
}

/// The root's view of the array.
struct Root {
    /// Each chare's processor.
    owner: Vec<usize>,
    /// Each chare's measured time in the round just ended, seconds.
    times: Vec<f64>,
    /// Processors whose times for that round are in.
    reported: usize,
}

/// Per-processor driver: the pick-and-process loop over this processor's
/// chares, one round at a time.
pub struct CharmProc {
    /// Mflop of every benchmark unit, by global index.
    mflop: Rc<[f64]>,
    /// Rounds per chare (`I`).
    iterations: usize,
    /// Chares in the array.
    nchares: usize,
    /// Chares held, in index order while a round runs.
    held: Vec<usize>,
    round: usize,
    /// Index into `held` of the next chare to run this round.
    next: usize,
    /// Measured time of each chare run this round, seconds.
    times: Vec<(usize, f64)>,
    /// Parked at this round's `AtSync` barrier.
    at_sync: bool,
    /// Chares the root's orders say will arrive, once they are in.
    incoming: Option<usize>,
    /// Chares that arrived at this barrier.
    arrived: usize,
    root: Option<Root>,
}

impl CharmProc {
    fn handle(&mut self, ctx: &mut Ctx, msg: SimMessage) {
        match msg.kind {
            K_LOADS => self.root_collect(ctx, msg.take()),
            K_ORDERS => self.obey(ctx, msg.take()),
            K_CHARE => {
                self.held.push(msg.take());
                self.arrived += 1;
            }
            other => panic!("Charm++ driver got unknown message kind {other}"),
        }
    }

    /// `AtSync`: hand this round's measured times to the root.
    fn enter_sync(&mut self, ctx: &mut Ctx) {
        self.at_sync = true;
        let times = std::mem::take(&mut self.times);
        if self.root.is_some() {
            self.root_collect(ctx, times);
        } else {
            ctx.send(
                ROOT,
                K_LOADS,
                CTRL_BYTES + 16 * times.len(),
                Box::new(times),
            );
        }
    }

    /// Root: record one processor's times; once every processor's are in,
    /// run Greedy and scatter the orders. The root obeys its own last, so
    /// its share of the strategy's CPU delays no one else's orders.
    fn root_collect(&mut self, ctx: &mut Ctx, times: Vec<(usize, f64)>) {
        let n = ctx.num_procs();
        let root = self
            .root
            .as_mut()
            .expect("loads at a processor other than the root");
        for (c, t) in times {
            root.times[c] = t;
        }
        root.reported += 1;
        if root.reported < n {
            return;
        }
        root.reported = 0;
        let owner = greedy_assign(&root.times, n);
        let mut orders: Vec<Orders> = (0..n).map(|_| Orders::default()).collect();
        for (c, (&old, &new)) in root.owner.iter().zip(&owner).enumerate() {
            if old != new {
                orders[old].ship.push((c, new));
                orders[new].incoming += 1;
            }
        }
        root.owner = owner;
        let mine = std::mem::take(&mut orders[ROOT]);
        for (dst, o) in orders.into_iter().enumerate() {
            if dst != ROOT {
                ctx.send(dst, K_ORDERS, CTRL_BYTES + 16 * o.ship.len(), Box::new(o));
            }
        }
        self.obey(ctx, mine);
    }

    /// Pay the strategy's CPU and ship the ordered chares.
    fn obey(&mut self, ctx: &mut Ctx, orders: Orders) {
        let lb_cpu = SimTime::from_micros(LB_MICROS_PER_CHARE * self.nchares as u64);
        ctx.consume(Category::PartitionCalc, lb_cpu);
        for (c, dst) in orders.ship {
            let pos = self
                .held
                .iter()
                .position(|&h| h == c)
                .expect("ordered to ship a chare this processor does not hold");
            self.held.swap_remove(pos);
            ctx.send(dst, K_CHARE, UNIT_BYTES * self.iterations, Box::new(c));
        }
        self.incoming = Some(orders.incoming);
    }

    /// `ResumeFromSync`: start the next round over the chares now held.
    fn resume(&mut self, ctx: &mut Ctx) {
        self.at_sync = false;
        self.incoming = None;
        self.arrived = 0;
        self.held.sort_unstable();
        self.round += 1;
        self.next = 0;
        ctx.schedule(SimTime::ZERO, T_NEXT);
    }
}

impl Process for CharmProc {
    fn on_start(&mut self, ctx: &mut Ctx) {
        ctx.schedule(SimTime::ZERO, T_NEXT);
    }

    fn on_timer(&mut self, ctx: &mut Ctx, _token: u64) {
        for msg in ctx.poll() {
            self.handle(ctx, msg);
        }
        if !self.at_sync {
            if let Some(&c) = self.held.get(self.next) {
                self.next += 1;
                ctx.consume(Category::Scheduling, sched_cpu());
                ctx.consume(Category::Callback, callback_cpu());
                let dur = ctx.work_time(self.mflop[c * self.iterations + self.round]);
                ctx.consume(Category::Computation, dur);
                self.times.push((c, dur.as_secs_f64()));
                ctx.schedule(SimTime::ZERO, T_NEXT);
                return;
            }
            if self.round + 1 == self.iterations {
                ctx.finish();
                return;
            }
            self.enter_sync(ctx);
        }
        if self.incoming == Some(self.arrived) {
            self.resume(ctx);
        } else {
            ctx.wait_msg_as(T_WAIT, Category::Synchronization);
        }
    }
}

/// Run the benchmark as a Charm++ application with `sync_points + 1`
/// execution rounds (`I = sync_points + 1`).
pub fn run(spec: &BenchSpec, sync_points: usize) -> SimReport {
    run_traced(spec, sync_points, None)
}

/// [`run`] with an optional trace sink recording spans, messages, and
/// finishes at simulated-time stamps.
pub fn run_traced(
    spec: &BenchSpec,
    sync_points: usize,
    trace: Option<Arc<TraceSink>>,
) -> SimReport {
    let iterations = sync_points + 1;
    let mflop: Rc<[f64]> = spec.units().iter().map(|u| u.mflop).collect();
    let total = mflop.len();
    assert_eq!(
        total % iterations,
        0,
        "unit count {total} not divisible by I = {iterations}"
    );
    let nchares = total / iterations;
    let npes = spec.machine.procs;
    let block = |c: usize| c * npes / nchares;
    Engine::build(spec.machine, |p| {
        Box::new(CharmProc {
            mflop: mflop.clone(),
            iterations,
            nchares,
            held: (0..nchares).filter(|&c| block(c) == p).collect(),
            round: 0,
            next: 0,
            times: Vec::new(),
            at_sync: false,
            incoming: None,
            arrived: 0,
            root: (p == ROOT).then(|| Root {
                owner: (0..nchares).map(block).collect(),
                times: vec![0.0; nchares],
                reported: 0,
            }),
        })
    })
    .with_trace(trace)
    .run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drivers::nolb;

    /// Each processor's total of `loads` under `owner`.
    fn pe_loads(loads: &[f64], owner: &[usize], npes: usize) -> Vec<f64> {
        let mut per_pe = vec![0.0; npes];
        for (l, &p) in loads.iter().zip(owner) {
            per_pe[p] += l;
        }
        per_pe
    }

    #[test]
    fn greedy_balances_uniform_chares() {
        let loads = [1.0; 8];
        let l = pe_loads(&loads, &greedy_assign(&loads, 4), 4);
        assert!(l.iter().all(|&x| (x - 2.0).abs() < 1e-9), "{l:?}");
    }

    #[test]
    fn greedy_handles_skewed_loads() {
        // One giant chare + many small: the giant gets its own processor.
        let mut loads = vec![1.0; 9];
        loads.push(10.0);
        let l = pe_loads(&loads, &greedy_assign(&loads, 2), 2);
        // Optimal split: 10 vs 9.
        assert!(
            l.iter().cloned().fold(0.0, f64::max) <= 10.0 + 1e-9,
            "{l:?}"
        );
    }

    #[test]
    fn greedy_of_no_chares_is_empty() {
        assert!(greedy_assign(&[], 4).is_empty());
    }

    #[test]
    fn no_sync_points_matches_no_lb_shape() {
        let spec = BenchSpec::test_scale(3);
        let base = nolb::run(&spec);
        let charm = run(&spec, 0);
        // Without sync points Charm++ cannot balance: makespan within a few
        // percent of the no-LB baseline.
        let ratio = charm.makespan.as_secs_f64() / base.makespan.as_secs_f64();
        assert!((0.95..=1.05).contains(&ratio), "ratio {ratio}");
        assert_eq!(charm.total_of(Category::Synchronization), SimTime::ZERO);
    }

    #[test]
    fn four_sync_points_improve_on_none() {
        let spec = BenchSpec::test_scale(3);
        let none = run(&spec, 0);
        let four = run(&spec, 4); // I = 5 rounds, 4 AtSync barriers
        assert!(
            four.makespan < none.makespan,
            "sync LB did not help: {} !< {}",
            four.makespan,
            none.makespan
        );
        assert!(four.total_of(Category::Synchronization) > SimTime::ZERO);
        assert!(four.total_of(Category::PartitionCalc) > SimTime::ZERO);
    }

    #[test]
    fn work_is_conserved() {
        let spec = BenchSpec::test_scale(4);
        let base = nolb::run(&spec);
        for sync_points in [0, 4] {
            let charm = run(&spec, sync_points);
            let t0 = base.total_of(Category::Computation).as_secs_f64();
            let t1 = charm.total_of(Category::Computation).as_secs_f64();
            assert!(
                (t0 - t1).abs() < 1e-6,
                "{sync_points} sync points: {t0} vs {t1}"
            );
        }
    }

    #[test]
    fn breakdown_totals_equal_finish_times() {
        let spec = BenchSpec::test_scale(4);
        for sync_points in [0, 4] {
            let report = run(&spec, sync_points);
            for (p, b) in report.breakdowns.iter().enumerate() {
                assert_eq!(
                    b.total(),
                    report.finish[p],
                    "{sync_points} sync points, proc {p}"
                );
            }
        }
    }

    /// Without sync points nothing is sent; with them, a heavy worker sends
    /// the root its times at each of the four barriers and ships chares
    /// (one message each) off the heavy block.
    #[test]
    fn migrations_are_messages() {
        let spec = BenchSpec::test_scale(3);
        assert!(run(&spec, 0).msgs_sent.iter().all(|&m| m == 0));
        let four = run(&spec, 4);
        assert!(four.msgs_sent[1] > 4, "{:?}", four.msgs_sent);
        assert!(four.bytes_sent[1] >= (4 * CTRL_BYTES + 5 * UNIT_BYTES) as u64);
    }

    /// The first round runs on the block mapping, so a light processor
    /// waits at the first barrier for at least the heavy processors' extra
    /// round of work.
    #[test]
    fn atsync_is_a_barrier() {
        let spec = BenchSpec::test_scale(3);
        let base = nolb::run(&spec);
        let light = spec.machine.procs - 1;
        let heavy_extra = (base.breakdowns[0][Category::Computation]
            - base.breakdowns[light][Category::Computation])
            .as_secs_f64()
            / 5.0;
        let four = run(&spec, 4);
        let waited = four.breakdowns[light][Category::Synchronization].as_secs_f64();
        assert!(
            heavy_extra > 0.0 && waited >= heavy_extra,
            "{waited} < {heavy_extra}"
        );
    }

    /// An entry method is one uninterrupted computation span, and a
    /// processor receives only between them.
    #[test]
    fn entry_methods_are_atomic() {
        use prema_sim::TraceEvent;
        let spec = BenchSpec::test_scale(4);
        let sink = TraceSink::with_capacity(spec.machine.procs, 1 << 16);
        run_traced(&spec, 4, Some(sink.clone()));
        assert_eq!(sink.dropped(), 0, "ring overflowed; enlarge capacity");
        let records = sink.drain();
        let entries: Vec<_> = records
            .iter()
            .filter_map(|s| match s.ev {
                TraceEvent::Span { cat, dur } if cat == Category::Computation as u8 => {
                    Some((s.rank, s.t, s.t + dur))
                }
                _ => None,
            })
            .collect();
        assert_eq!(entries.len(), spec.total_units());
        let mut recvs = 0;
        for r in records
            .iter()
            .filter(|r| matches!(r.ev, TraceEvent::Recv { .. }))
        {
            recvs += 1;
            assert!(
                !entries
                    .iter()
                    .any(|&(rank, from, to)| rank == r.rank && from < r.t && r.t < to),
                "rank {} received inside an entry method at {}",
                r.rank,
                r.t
            );
        }
        assert!(recvs > 0);
    }
}
