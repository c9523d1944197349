//! Runs one repeat of a workload on the real runtime and measures it from
//! outside: launch, the ranks' main loops (plain, or re-spelled with a span
//! around every phase), the correctness oracle, and the repeat's metrics.

use crate::clock::now_ns;
use crate::probe::{ProbeStats, TransportProbe};
use crate::stats::Hist;
use crate::workloads::{self, Kind, Obj, Plan, Spec, ARRIVAL_PERIOD_NS, RANKS};
use prema::dcs::{CommStats, LocalFabric, ReliableTransport, Transport, UdpTransport};
use prema::ilb::SchedStats;
use prema::mol::MolStats;
use prema::{launch, launch_with_transports, Completion, MobilePtr, PremaConfig, Runtime};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::Ordering::{Relaxed, SeqCst};
use std::sync::atomic::{AtomicU64, AtomicUsize};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// Where units are issued as the run goes (`chat_*`, `arrivals_open`), a unit
/// is on time when it finishes within this of being issued or due. Where all
/// are issued at the start barrier the deadline is the repeat's own ideal
/// makespan; see `summarize`.
const ON_TIME_NS: u64 = 2_000_000;
/// An open-loop repeat that ends this far past its schedule overran it: a
/// backlog was still standing when the last arrival had been posted.
const OVERRUN_LIMIT: f64 = 1.05;
/// A generator later than the on-time window at its p99 made a unit in a
/// hundred late by itself: the repeat is flagged as one the box stalled. The
/// issue's limit of one unit (~190 us) sits on the healthy value, because
/// the generator posts between units and so is up to one unit late whenever
/// its rank is busy: 28 unflagged repeats read 18-977 us, median 170 us,
/// nine of them above one unit. Stalled repeats read 2-73 ms.
const GENERATOR_LATE_LIMIT_NS: u64 = ON_TIME_NS;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Set up to the start barrier, then tear down: a `setup_s` sample.
    SetupOnly,
    /// The program as a user writes it: `Runtime::step` in a loop.
    Plain,
    /// The same program with `step` re-spelled phase by phase under spans
    /// and the transports wrapped in probes.
    Traced,
}

/// A one-shot barrier for the ranks of a repeat that waits by yielding: a
/// blocked thread idles its virtual processor, and waking one costs this box
/// tens of microseconds that vary from run to run, inside `setup_s`.
#[derive(Default)]
pub struct Rendezvous(AtomicUsize);

impl Rendezvous {
    fn arrive(&self) {
        self.0.fetch_add(1, SeqCst);
    }

    fn all_arrived(&self) -> bool {
        self.0.load(SeqCst) >= RANKS
    }

    pub fn wait(&self) {
        self.arrive();
        while !self.all_arrived() {
            std::thread::yield_now();
        }
    }
}

/// What the ranks of one repeat share.
pub struct Shared {
    pub spec: &'static Spec,
    pub seed: u64,
    mode: Mode,
    /// Every rank has published its objects' pointers.
    pub registered: Rendezvous,
    /// Set-up ends and the timed region starts.
    start: Rendezvous,
    /// Both ranks have left the timed region; what was in flight has landed.
    ended: Rendezvous,
    pub ptrs: [OnceLock<Vec<MobilePtr>>; RANKS],
    /// Units executed anywhere, for the open loop's backlog.
    pub executed: AtomicU64,
    seen_done: Rendezvous,
    /// Per-rank probes around the whole transport stack (traced pass).
    outer: [Arc<ProbeStats>; RANKS],
    /// Per-rank probes directly on the socket (traced `chat_udp`).
    inner: [Arc<ProbeStats>; RANKS],
}

/// What handlers accumulate on the rank thread that runs them.
#[derive(Default)]
pub struct Acc {
    pub run_start_ns: u64,
    /// Hits per exactly-once slot, on this rank.
    pub counts: Vec<u32>,
    /// Hotspot kicks that overtook an earlier kick of the same object.
    pub violations: u64,
    pub handler_ns: u64,
    pub turnaround: Hist,
    /// First unit on an object born elsewhere: the first steal paying off.
    pub first_foreign_ns: u64,
}

thread_local! {
    /// Handlers run on their rank's application thread and nowhere else, so
    /// a thread-local needs no sharing; `rank_main` takes it at the end.
    pub static ACC: RefCell<Acc> = RefCell::default();
}

/// Time per phase of a rank's main loop, filled by the traced loop only.
#[derive(Default, Clone, Copy)]
struct Spans {
    lock_wait_ns: u64,
    poll_ns: u64,
    begin_ns: u64,
    run_ns: u64,
    finish_ns: u64,
    report_ns: u64,
    /// The open loop's generator posting what is due.
    generate_ns: u64,
    idle_ns: u64,
    idle_polls: u64,
    /// Transport time inside poll, begin and finish: their child spans.
    poll_dcs_ns: u64,
    begin_dcs_ns: u64,
    finish_dcs_ns: u64,
}

#[derive(Default)]
struct RankReport {
    enter_ns: u64,
    start_ns: u64,
    end_ns: u64,
    exit_ns: u64,
    acc: Acc,
    spans: Spans,
    plan: Plan,
    sched: SchedStats,
    mol: MolStats,
    comm: CommStats,
    /// `(id, kicks, pad intact)` of every object resident at the end.
    census: Vec<(u32, u32, bool)>,
}

/// One repeat's numbers by metric name, and its oracle verdict.
pub struct RepeatOut {
    pub values: BTreeMap<&'static str, f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Why units are counted failed, if any are.
    pub faults: Vec<String>,
    /// An open-loop repeat that did not run quite the experiment its schedule
    /// describes, and how: it overran or its generator ran late. Printed and
    /// counted; its units are timed from their due times like any others, so
    /// the stall is in its turnarounds and the run's medians absorb it.
    pub off_schedule: Option<String>,
    /// The open-loop repeat ended over 5% past its schedule. A run fails when
    /// most of its repeats did; see `run_one`.
    pub overran: bool,
    pub turnaround: Hist,
    pub late: Hist,
}

pub fn run_repeat(spec: &'static Spec, seed: u64, mode: Mode) -> RepeatOut {
    let sh = Arc::new(Shared {
        spec,
        seed,
        mode,
        registered: Rendezvous::default(),
        start: Rendezvous::default(),
        ended: Rendezvous::default(),
        ptrs: Default::default(),
        executed: AtomicU64::new(0),
        seen_done: Rendezvous::default(),
        outer: Default::default(),
        inner: Default::default(),
    });
    let cfg = PremaConfig::implicit(RANKS);
    let call_ns = now_ns();
    let main = {
        let sh = sh.clone();
        move |rt| rank_main(rt, &sh)
    };
    let reports: Vec<RankReport> = if spec.udp() {
        launch_with_transports(cfg, udp_transports(&sh), None, main)
    } else if mode == Mode::Traced {
        let probed = LocalFabric::new(RANKS)
            .into_iter()
            .zip(&sh.outer)
            .map(|(ep, s)| Box::new(TransportProbe::new(ep, s.clone())) as Box<dyn Transport>)
            .collect();
        launch_with_transports(cfg, probed, None, main)
    } else {
        launch(cfg, main)
    };
    let return_ns = now_ns();
    summarize(&sh, &reports, call_ns, return_ns)
}

/// The `prema-launch` worker's wire, both ends in this process: a UDP socket
/// per rank on loopback, joined by the handshake, under `ReliableTransport`.
fn udp_transports(sh: &Shared) -> Vec<Box<dyn Transport>> {
    let any = "127.0.0.1:0".parse().expect("literal address");
    let builders: Vec<_> = (0..RANKS)
        .map(|_| UdpTransport::bind(any).expect("bind a loopback UDP socket"))
        .collect();
    let addrs: Vec<_> = builders.iter().map(|b| b.local_addr()).collect();
    let epoch = std::process::id() as u64;
    // Each connect blocks until its peer answers, so both run at once.
    let sockets: Vec<UdpTransport> = std::thread::scope(|s| {
        let joins: Vec<_> = builders
            .into_iter()
            .enumerate()
            .map(|(rank, b)| {
                let addrs = addrs.clone();
                s.spawn(move || b.connect(rank, addrs, epoch, Duration::from_secs(10)))
            })
            .collect();
        joins
            .into_iter()
            .map(|j| {
                j.join()
                    .expect("connect thread")
                    .expect("UDP join handshake")
            })
            .collect()
    });
    sockets
        .into_iter()
        .enumerate()
        .map(|(rank, udp)| -> Box<dyn Transport> {
            if sh.mode == Mode::Traced {
                let wire = TransportProbe::new(udp, sh.inner[rank].clone());
                let stack = ReliableTransport::new(wire);
                Box::new(TransportProbe::new(stack, sh.outer[rank].clone()))
            } else {
                Box::new(ReliableTransport::new(udp))
            }
        })
        .collect()
}

fn rank_main(rt: Runtime<Obj>, sh: &Arc<Shared>) -> RankReport {
    let enter_ns = now_ns();
    let completion = Completion::install(&rt, sh.spec.units());
    let mut plan = workloads::setup(&rt, sh);
    sh.start.wait();
    let start_ns = now_ns();
    ACC.with(|acc| acc.borrow_mut().run_start_ns = start_ns);

    let mut spans = Spans::default();
    let end_ns = match sh.mode {
        Mode::SetupOnly => start_ns,
        Mode::Plain => main_loop::<false>(&rt, &completion, &mut plan, sh, start_ns, &mut spans),
        Mode::Traced => main_loop::<true>(&rt, &completion, &mut plan, sh, start_ns, &mut spans),
    };

    let mut census = Vec::new();
    if sh.mode != Mode::SetupOnly && !sh.spec.udp() {
        // On the in-process fabric whatever a rank sent before this barrier
        // is receivable after it, so one poll lands every object in flight.
        sh.ended.wait();
        rt.poll();
        census = rt.with_scheduler(|s| {
            let node = s.node();
            node.local_ptrs()
                .into_iter()
                .filter_map(|p| node.get(p))
                .map(|o| (o.id, o.kicks, o.pad_intact()))
                .collect()
        });
    }
    let (sched, mol, comm) =
        rt.with_scheduler(|s| (s.stats(), s.node().stats(), s.node().comm().stats()));
    RankReport {
        enter_ns,
        start_ns,
        end_ns,
        acc: ACC.with(|acc| acc.take()),
        spans,
        plan,
        sched,
        mol,
        comm,
        census,
        exit_ns: now_ns(),
    }
}

/// The rank's program between the start barrier and the moment it sees the
/// machine-wide completion: execute, report, and when idle poll and yield,
/// as the repository's quickstart does. Returns when this rank saw *done*.
///
/// `TRACED` selects the re-spelled `step` and stamps the phases around it;
/// the plain loop takes no timestamp of its own.
fn main_loop<const TRACED: bool>(
    rt: &Runtime<Obj>,
    completion: &Completion,
    plan: &mut Plan,
    sh: &Shared,
    start_ns: u64,
    spans: &mut Spans,
) -> u64 {
    let stamp = || if TRACED { now_ns() } else { 0 };
    let probe = &sh.outer[rt.rank()];
    let mut unreported = 0;
    loop {
        if let Some(generator) = plan.generator.as_mut() {
            let t0 = stamp();
            generator.post_due(rt, sh, start_ns);
            spans.generate_ns += stamp() - t0;
        }
        let ran = if TRACED {
            traced_step(rt, probe, spans)
        } else {
            rt.step()
        };
        if ran {
            unreported += 1;
        }
        // A rank with nothing to run flushes what it has not reported yet,
        // or the last units of a batch would never reach rank 0.
        if unreported >= plan.report_every || (!ran && unreported > 0) {
            let t0 = stamp();
            completion.report(rt, unreported);
            unreported = 0;
            spans.report_ns += stamp() - t0;
        }
        if !ran {
            let t0 = stamp();
            rt.poll();
            let done = completion.is_done();
            if !done {
                std::thread::yield_now();
            }
            spans.idle_ns += stamp() - t0;
            spans.idle_polls += 1;
            if done {
                break;
            }
        }
    }
    let end_ns = now_ns();
    // Stay on the wire until every rank has seen *done*: over UDP the notice
    // may need a retransmission only a live sender can make.
    sh.seen_done.arrive();
    while !sh.seen_done.all_arrived() {
        rt.poll();
        std::thread::yield_now();
    }
    end_ns
}

/// `Runtime::step` spelled out through `with_scheduler`, a timestamp between
/// every two phases. The probe's busy time, read by the thread that holds
/// the scheduler lock, is the transport's share of the phase just ended.
fn traced_step(rt: &Runtime<Obj>, probe: &ProbeStats, sp: &mut Spans) -> bool {
    let t0 = now_ns();
    let (exec, t3) = rt.with_scheduler(|s| {
        let (t1, d1) = (now_ns(), probe.busy_ns());
        s.poll();
        let (t2, d2) = (now_ns(), probe.busy_ns());
        let exec = s.begin();
        let (t3, d3) = (now_ns(), probe.busy_ns());
        if exec.is_some() {
            sp.lock_wait_ns += t1 - t0;
            sp.poll_ns += t2 - t1;
            sp.poll_dcs_ns += d2 - d1;
            sp.begin_ns += t3 - t2;
            sp.begin_dcs_ns += d3 - d2;
        } else {
            // A step that found nothing to run is the rank waiting.
            sp.idle_ns += t3 - t0;
        }
        (exec, t3)
    });
    let Some(mut exec) = exec else {
        return false;
    };
    exec.run();
    let t4 = now_ns();
    sp.run_ns += t4 - t3;
    rt.with_scheduler(|s| {
        let (t5, d5) = (now_ns(), probe.busy_ns());
        s.finish(exec);
        sp.lock_wait_ns += t5 - t4;
        sp.finish_ns += now_ns() - t5;
        sp.finish_dcs_ns += probe.busy_ns() - d5;
    });
    true
}

/// Sums and maxima over the ranks of a repeat.
struct Ranks<'a>(&'a [RankReport]);

impl Ranks<'_> {
    fn sum(&self, f: impl Fn(&RankReport) -> u64) -> f64 {
        self.0.iter().map(f).sum::<u64>() as f64
    }

    fn max(&self, f: impl Fn(&RankReport) -> u64) -> u64 {
        self.0.iter().map(f).max().expect("two ranks")
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn summarize(sh: &Shared, reports: &[RankReport], call_ns: u64, return_ns: u64) -> RepeatOut {
    let spec = sh.spec;
    let units = spec.units();
    let ranks = Ranks(reports);
    let start_ns = ranks.max(|r| r.start_ns);
    let mut out = RepeatOut {
        values: BTreeMap::from([("setup_s", (start_ns - call_ns) as f64 / 1e9)]),
        attempted: 0,
        failed: 0,
        faults: Vec::new(),
        off_schedule: None,
        overran: false,
        turnaround: Hist::default(),
        late: Hist::default(),
    };
    if sh.mode == Mode::SetupOnly {
        return out;
    }
    let makespan_ns = ranks.max(|r| r.end_ns) - start_ns;
    for r in reports {
        out.turnaround.merge(&r.acc.turnaround);
    }
    let generator = reports[0].plan.generator.as_ref();
    if let Some(g) = generator {
        out.late.merge(&g.late);
        let schedule_ns = g.posted() * ARRIVAL_PERIOD_NS;
        let late_p99 = g.late.quantile(0.99);
        out.overran = makespan_ns as f64 > OVERRUN_LIMIT * schedule_ns as f64;
        if out.overran || late_p99 > GENERATOR_LATE_LIMIT_NS as f64 {
            out.off_schedule = Some(format!(
                "{:.3}s for a {:.3}s schedule, generator p99 {:.0}us late",
                makespan_ns as f64 / 1e9,
                schedule_ns as f64 / 1e9,
                late_p99 / 1e3
            ));
        }
    }
    out.attempted = units;
    out.failed = check(spec, &ranks, &mut out.faults);

    let busy = RANKS as f64 * makespan_ns as f64;
    let handler_ns = ranks.sum(|r| r.acc.handler_ns);
    out.values.extend([
        ("units_per_s", units as f64 * 1e9 / makespan_ns as f64),
        ("efficiency", handler_ns / busy),
        ("turnaround_p50_us", out.turnaround.quantile(0.5) / 1e3),
    ]);
    // A batch is on time while a machine that kept both ranks in handlers
    // throughout would still be running it: units finished after that are
    // the ones imbalance and overhead delayed. Units that never ran have no
    // turnaround and are late by definition.
    let deadline_ns = match spec.kind {
        Kind::Fig3 | Kind::Hotspot => (handler_ns / RANKS as f64) as u64,
        Kind::Chat { .. } | Kind::Arrivals => ON_TIME_NS,
    };
    let ran = out.turnaround.count().min(units) as f64;
    out.values.insert(
        "on_time_share",
        out.turnaround.share_at_most(deadline_ns) * ran / units as f64,
    );

    // ---- per layer; the span and probe rows read 0 on an untraced repeat ---
    let per_unit = |ns: f64| ns / units as f64;
    out.values.extend([
        (
            "core.launch_s",
            (ranks.max(|r| r.enter_ns) - call_ns) as f64 / 1e9,
        ),
        (
            "core.join_s",
            (return_ns - ranks.max(|r| r.exit_ns)) as f64 / 1e9,
        ),
        (
            "core.lock_wait_ns",
            per_unit(ranks.sum(|r| r.spans.lock_wait_ns)),
        ),
        ("core.idle_s", ranks.sum(|r| r.spans.idle_ns) / 1e9),
        ("core.idle_polls", ranks.sum(|r| r.spans.idle_polls)),
        ("core.report_ns", per_unit(ranks.sum(|r| r.spans.report_ns))),
    ]);

    let requests = ranks.sum(|r| r.sched.requests_sent);
    let refused = ranks.sum(|r| r.sched.nacks_recv);
    let migrations = ranks.sum(|r| r.mol.migrations_in);
    let first_foreign = reports
        .iter()
        .map(|r| r.acc.first_foreign_ns)
        .filter(|&t| t > 0)
        .min();
    out.values.extend([
        // Self time: the phase less the transport calls made inside it.
        (
            "ilb.poll_ns",
            per_unit(ranks.sum(|r| r.spans.poll_ns - r.spans.poll_dcs_ns)),
        ),
        (
            "ilb.begin_ns",
            per_unit(ranks.sum(|r| r.spans.begin_ns - r.spans.begin_dcs_ns)),
        ),
        (
            "ilb.finish_ns",
            per_unit(ranks.sum(|r| r.spans.finish_ns - r.spans.finish_dcs_ns)),
        ),
        ("ilb.requests_sent", requests),
        ("ilb.nacks_recv", ranks.sum(|r| r.sched.nacks_recv)),
        ("ilb.granted", ranks.sum(|r| r.sched.granted)),
        (
            "ilb.request_timeouts",
            ranks.sum(|r| r.sched.request_timeouts),
        ),
        (
            "ilb.vetoes",
            ranks.sum(|r| {
                r.sched.hysteresis_refusals + r.sched.residency_vetoes + r.sched.rate_cap_vetoes
            }),
        ),
        // Requests not refused, of requests sent; 0 when none was sent.
        ("ilb.grant_ratio", ratio(requests - refused, requests)),
        ("ilb.migrations_per_unit", migrations / units as f64),
        // 0 when no unit ever ran away from its object's birth rank.
        (
            "ilb.first_steal_ms",
            first_foreign.map_or(0.0, |t| t.saturating_sub(start_ns) as f64 / 1e6),
        ),
        (
            "ilb.imbalance",
            ratio(
                ranks.max(|r| r.acc.handler_ns) as f64 * RANKS as f64,
                handler_ns,
            ),
        ),
    ]);

    let posts = ranks.sum(|r| r.plan.posts) + generator.map_or(0.0, |g| g.posted() as f64);
    let post_ns = ranks.sum(|r| r.plan.post_ns) + generator.map_or(0.0, |g| g.post_ns as f64);
    let located = ranks.sum(|r| r.mol.loc_cache_hits + r.mol.loc_cache_misses);
    out.values.extend([
        ("mol.message_ns", ratio(post_ns, posts)),
        ("mol.sent", ranks.sum(|r| r.mol.sent)),
        ("mol.migrations", migrations),
        (
            "mol.forwarded_share",
            ratio(
                ranks.sum(|r| r.mol.forwarded),
                ranks.sum(|r| r.mol.delivered),
            ),
        ),
        // 1 when no send had to look a location up, as `MolStats` has it.
        (
            "mol.loc_hit_rate",
            if located > 0.0 {
                ranks.sum(|r| r.mol.loc_cache_hits) / located
            } else {
                1.0
            },
        ),
        ("mol.home_lookups", ranks.sum(|r| r.mol.home_lookups)),
        ("mol.dir_publishes", ranks.sum(|r| r.mol.dir_publishes)),
        (
            "mol.chain_p99",
            ranks.max(|r| r.mol.chain_percentile(0.99) as u64) as f64,
        ),
    ]);

    let probed = |probes: &[Arc<ProbeStats>; RANKS], f: fn(&ProbeStats) -> &AtomicU64| {
        probes.iter().map(|p| f(p).load(Relaxed)).sum::<u64>() as f64
    };
    let sends = probed(&sh.outer, |p| &p.sends);
    let recvs = probed(&sh.outer, |p| &p.recvs);
    let empty = probed(&sh.outer, |p| &p.empty_recvs);
    let msgs = ranks.sum(|r| r.comm.msgs_sent);
    out.values.extend([
        (
            "dcs.send_ns",
            ratio(probed(&sh.outer, |p| &p.send_ns), sends),
        ),
        (
            "dcs.recv_ns",
            ratio(probed(&sh.outer, |p| &p.recv_ns), recvs),
        ),
        (
            "dcs.empty_recv_ns",
            ratio(probed(&sh.outer, |p| &p.empty_recv_ns), empty),
        ),
        ("dcs.empty_recv_share", ratio(empty, empty + recvs)),
        ("dcs.msgs_sent", msgs),
        ("dcs.bytes_sent", ranks.sum(|r| r.comm.bytes_sent)),
        (
            "dcs.frames_per_msg",
            ratio(ranks.sum(|r| r.comm.frames_sent), msgs),
        ),
        (
            "dcs.busy_share",
            sh.outer.iter().map(|p| p.busy_ns()).sum::<u64>() as f64 / busy,
        ),
        // Datagrams on the socket per envelope handed to the stack: acks and
        // retransmissions. 1 where nothing sits between the two probes.
        (
            "dcs.wire_amplification",
            if spec.udp() {
                ratio(probed(&sh.inner, |p| &p.sends), sends)
            } else {
                1.0
            },
        ),
    ]);

    let covered = ranks.sum(|r| {
        let s = &r.spans;
        s.lock_wait_ns
            + s.poll_ns
            + s.begin_ns
            + s.run_ns
            + s.finish_ns
            + s.report_ns
            + s.generate_ns
            + s.idle_ns
    });
    out.values.extend([
        ("app.handler_s", handler_ns / 1e9),
        ("app.handler_ns", per_unit(handler_ns)),
        ("app.turnaround_p90_us", out.turnaround.quantile(0.9) / 1e3),
        ("app.turnaround_p99_us", out.turnaround.quantile(0.99) / 1e3),
        ("app.failed_share", out.failed as f64 / units as f64),
        ("gen.late_p99_us", out.late.quantile(0.99) / 1e3),
        (
            "gen.backlog_max",
            generator.map_or(0.0, |g| g.backlog_max as f64),
        ),
        // Share of the application threads' time the spans account for.
        ("trace.coverage_pct", 100.0 * covered / busy),
    ]);
    out
}

/// The oracle: how many of the repeat's units were not executed exactly
/// once, in order, with their objects' state intact, and why.
fn check(spec: &Spec, ranks: &Ranks, faults: &mut Vec<String>) -> u64 {
    let units = spec.units();
    let (slots, want) = spec.counter_slots();
    let mut hits = vec![0u32; slots];
    for r in ranks.0 {
        for (total, &n) in hits.iter_mut().zip(&r.acc.counts) {
            *total += n;
        }
    }
    // A slot hit `n` times instead of `want` has |n - want| units lost or
    // doubled.
    let mut failed: u64 = hits.iter().map(|&n| n.abs_diff(want) as u64).sum();
    if failed > 0 {
        faults.push(format!("{failed} units not executed exactly once"));
    }

    let executed = ranks.sum(|r| r.sched.executed) as u64;
    let dropped = ranks.sum(|r| r.sched.dropped_work + r.sched.dropped_node_msgs) as u64;
    let overtaken = ranks.sum(|r| r.acc.violations) as u64;
    if executed != units || dropped > 0 || overtaken > 0 {
        faults.push(format!(
            "schedulers executed {executed} of {units}, dropped {dropped}, {overtaken} kicks out of order"
        ));
        failed = failed.max(executed.abs_diff(units) + dropped + overtaken);
    }

    if !spec.udp() {
        let census: Vec<_> = ranks.0.iter().flat_map(|r| &r.census).collect();
        let kicks: u64 = census.iter().map(|&&(_, k, _)| k as u64).sum();
        let per_object_ok =
            spec.kind != Kind::Hotspot || census.iter().all(|&&(_, k, _)| k == want);
        let intact = census.iter().all(|&&(_, _, ok)| ok);
        if census.len() != spec.objects() || kicks != units || !per_object_ok || !intact {
            faults.push(format!(
                "census: {} of {} objects hold {kicks} of {units} kicks, state intact: {intact}",
                census.len(),
                spec.objects()
            ));
            failed = failed.max(1);
        }
    }

    failed.min(units)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two ranks that split every token's hops evenly, then `tamper`ed with.
    fn chat_udp_ranks(tamper: impl Fn(&mut [RankReport])) -> (u64, Vec<String>) {
        let spec = Spec::by_name("chat_udp").expect("chat_udp exists");
        let (slots, want) = spec.counter_slots();
        let mut reports: Vec<RankReport> = (0..RANKS).map(|_| RankReport::default()).collect();
        for r in &mut reports {
            r.acc.counts = vec![want / RANKS as u32; slots];
            r.sched.executed = spec.units() / RANKS as u64;
        }
        tamper(&mut reports);
        let mut faults = Vec::new();
        let failed = check(spec, &Ranks(&reports), &mut faults);
        (failed, faults)
    }

    #[test]
    fn oracle_passes_exactly_once_and_counts_every_lost_or_doubled_unit() {
        assert_eq!(chat_udp_ranks(|_| {}), (0, vec![]));

        let (failed, faults) = chat_udp_ranks(|r| {
            r[0].acc.counts[5] -= 3; // a token that died three hops early
            r[1].acc.counts[6] += 1; // a hop delivered twice
            r[0].sched.executed -= 3;
            r[1].sched.executed += 1;
        });
        assert_eq!(failed, 4);
        assert_eq!(faults.len(), 2, "{faults:?}");

        let (failed, faults) = chat_udp_ranks(|r| r[1].sched.dropped_work = 2);
        assert_eq!(failed, 2);
        assert!(faults[0].contains("dropped 2"), "{faults:?}");
    }
}
