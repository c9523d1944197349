//! `prema-e2e`: the end-to-end ledger for the real PREMA runtime.
//!
//! Five named workloads on the unmodified public API, six end-to-end
//! metrics with regression bounds, and per-layer attribution taken from
//! outside the runtime. See `README.md` beside this crate.

mod clock;
mod harness;
mod json;
mod probe;
mod stats;
mod workloads;

use harness::{run_repeat, Mode, RepeatOut};
use json::RunResult;
use prema::dcs::{Communicator, LocalFabric};
use prema::mol::{MolConfig, MolNode};
use stats::{median, quartile_spread};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;
use workloads::{Msg, Obj, Spec, H_UNIT, RANKS, SPECS};

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// `true` when a higher value is better.
    pub higher: bool,
    /// Share of the parent's median an end-to-end metric may worsen by.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, higher: bool, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher,
        bound,
    }
}

/// What a user of the runtime sees, on every workload. `BENCHMARK.json`
/// repeats this table; a test keeps the two equal.
///
/// Each bound is the largest of the value the benchmark was asked to hold
/// (`setup_s` 25%, then 10% / 5% / 10% / 5% / 10%), twice the widest gap
/// between the medians of two sets of ten runs of the same code, and twice
/// the widest quartile spread of such a set, on any workload, in whole
/// percent and at most the contract's 25%. The README has the sets.
pub const END_TO_END: [MetricDef; 6] = [
    e2e("setup_s", "s", false, 0.25),
    e2e("units_per_s", "1/s", true, 0.25),
    e2e("efficiency", "ratio", true, 0.22),
    e2e("turnaround_p50_us", "us", false, 0.25),
    e2e("on_time_share", "ratio", true, 0.1),
    e2e("peak_rss_mb", "MiB", false, 0.23),
];

/// `(name, unit, higher is better)` of the traced pass's metrics.
pub const PER_LAYER: [(&str, &str, bool); 50] = [
    ("core.lock_wait_ns", "ns", false),
    ("core.idle_s", "s", false),
    ("core.idle_polls", "count", false),
    ("core.report_ns", "ns", false),
    ("core.launch_s", "s", false),
    ("core.join_s", "s", false),
    ("ilb.poll_ns", "ns", false),
    ("ilb.begin_ns", "ns", false),
    ("ilb.finish_ns", "ns", false),
    ("ilb.requests_sent", "count", false),
    ("ilb.nacks_recv", "count", false),
    ("ilb.granted", "count", false),
    ("ilb.request_timeouts", "count", false),
    ("ilb.vetoes", "count", false),
    ("ilb.grant_ratio", "ratio", true),
    ("ilb.migrations_per_unit", "ratio", false),
    ("ilb.first_steal_ms", "ms", false),
    ("ilb.imbalance", "ratio", false),
    ("mol.message_ns", "ns", false),
    ("mol.sent", "count", false),
    ("mol.migrations", "count", false),
    ("mol.forwarded_share", "ratio", false),
    ("mol.loc_hit_rate", "ratio", true),
    ("mol.home_lookups", "count", false),
    ("mol.dir_publishes", "count", false),
    ("mol.chain_p99", "count", false),
    ("mol.probe_local_ns", "ns", false),
    ("mol.probe_remote_ns", "ns", false),
    ("mol.probe_migrate_4k_ns", "ns", false),
    ("dcs.send_ns", "ns", false),
    ("dcs.recv_ns", "ns", false),
    ("dcs.empty_recv_ns", "ns", false),
    ("dcs.empty_recv_share", "ratio", false),
    ("dcs.msgs_sent", "count", false),
    ("dcs.bytes_sent", "count", false),
    ("dcs.frames_per_msg", "ratio", false),
    ("dcs.busy_share", "ratio", false),
    ("dcs.wire_amplification", "ratio", false),
    ("app.handler_s", "s", true),
    ("app.handler_ns", "ns", false),
    ("app.turnaround_p90_us", "us", false),
    ("app.turnaround_p99_us", "us", false),
    ("app.failed_share", "ratio", false),
    ("gen.late_p99_us", "us", false),
    ("gen.backlog_max", "count", false),
    ("gen.off_schedule", "count", false),
    ("env.spin_ns_per_kiter", "ns", false),
    ("env.nproc", "count", true),
    ("trace.overhead_pct", "%", false),
    ("trace.coverage_pct", "%", true),
];

/// `setup_s` is the median of this many set-up-only launches after every
/// measured repeat: spread over the whole run, so that the box's slow drift
/// averages out inside a run instead of showing between runs. The repeats'
/// own set-ups are left out: each follows a full run and its teardown, and
/// reads up to three times higher and far less steadily.
const SETUPS_PER_REPEAT: usize = 8;
/// `selfcheck` makes the driver's two sets of this many runs.
const SELFCHECK_RUNS: u64 = 10;
const DEFAULT_SEED: u64 = 1;
const DEFAULT_SECONDS: f64 = 20.0;

const USAGE: &str = "\
usage: prema-e2e --workload <name> [--seed N] [--seconds S] [--trace 0|1]
       prema-e2e all       [--seed N] [--seconds S] [--trace 0|1]
       prema-e2e selfcheck [--seed N] [--seconds S]
workloads: fig3_coarse chat_fine chat_udp hotspot_migrate arrivals_open";

#[derive(Debug, PartialEq)]
enum Action {
    /// One workload in this process: the form the driver calls.
    Workload(String),
    All,
    Selfcheck,
}

struct Args {
    action: Action,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut action = None;
    let (mut seed, mut seconds, mut trace) = (DEFAULT_SEED, DEFAULT_SECONDS, false);
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or(format!("{arg} needs a value"));
        let bad = |e: &dyn std::fmt::Display| format!("{arg}: {e}");
        let chosen = match arg.as_str() {
            "--workload" => Action::Workload(value()?.clone()),
            "all" => Action::All,
            "selfcheck" => Action::Selfcheck,
            "--seed" => {
                seed = value()?.parse().map_err(|e| bad(&e))?;
                continue;
            }
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| bad(&e))?;
                continue;
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                };
                continue;
            }
            other => return Err(format!("unknown argument {other}")),
        };
        if action.replace(chosen).is_some() {
            return Err("name one of --workload, all, selfcheck".into());
        }
    }
    let action = action.ok_or("name one of --workload, all, selfcheck")?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err(format!("--seconds {seconds} is outside (0, 120]"));
    }
    Ok(Args {
        action,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    // Ambient knobs must not change the program under measurement. Nothing
    // else runs yet, so the environment is ours to edit.
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("PREMA_") {
            std::env::remove_var(key);
        }
    }
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("prema-e2e: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    if nproc < RANKS {
        eprintln!(
            "prema-e2e: {nproc} processor available, {RANKS} needed: every workload runs {RANKS} \
             ranks side by side, and time-sliced ranks would measure the OS scheduler"
        );
        return ExitCode::from(2);
    }
    let ok = match &args.action {
        Action::Workload(name) => match Spec::by_name(name) {
            Some(spec) => run_one(spec, &args, nproc),
            None => {
                eprintln!("prema-e2e: no workload {name:?}\n{USAGE}");
                return ExitCode::from(2);
            }
        },
        Action::All => run_all(&args),
        Action::Selfcheck => selfcheck(&args),
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn median_of(repeats: &[RepeatOut], name: &str) -> f64 {
    let values: Vec<f64> = repeats.iter().map(|r| r.values[name]).collect();
    median(&values)
}

/// Whether the run failed to hold the arrival rate: most of its repeats
/// ended over 5% past their schedule, so the median repeat describes a
/// standing backlog. Fewer are stalls of the box. They stay in the medians,
/// which absorb them: a repeat's exit code must not depend on the host.
fn overloaded(plain: &[RepeatOut], traced: &[RepeatOut]) -> bool {
    let overran = plain.iter().chain(traced).filter(|r| r.overran).count();
    2 * overran > plain.len() + traced.len()
}

/// One workload in this process: the contract form. Prints every metric by
/// name with its unit, then the result line.
fn run_one(spec: &'static Spec, args: &Args, nproc: usize) -> bool {
    let seed = args.seed;
    println!(
        "workload {} seed {seed} inputs {:016x} units/repeat {} ranks {RANKS} nproc {nproc}",
        spec.name,
        spec.schedule_hash(seed),
        spec.units()
    );
    println!("why: {}", spec.why);
    let machine = args.trace.then(|| (spin_ns_per_kiter(), mol_probes()));

    let began = Instant::now();
    let (mut plain, mut traced, mut setups) = (Vec::new(), Vec::new(), Vec::new());
    let mut peak_rss = 0.0;
    loop {
        plain.push(run_repeat(spec, seed, Mode::Plain));
        if plain.len() == 1 {
            // Read after one execution in a fresh process: later launches run
            // on new threads, which the allocator gives other arenas, and the
            // high-water mark then creeps up by one workload's worth per
            // repeat for a while, which is the benchmark repeating itself,
            // not the runtime's footprint.
            peak_rss = peak_rss_mb();
        }
        if args.trace {
            traced.push(run_repeat(spec, seed, Mode::Traced));
        } else {
            for _ in 0..SETUPS_PER_REPEAT {
                setups.push(run_repeat(spec, seed, Mode::SetupOnly).values["setup_s"]);
            }
        }
        // Another round only while it should still end inside the budget.
        let elapsed = began.elapsed().as_secs_f64();
        if elapsed + elapsed / plain.len() as f64 > args.seconds {
            break;
        }
    }

    let overloaded = overloaded(&plain, &traced);
    let mut off_schedule = 0;
    let mut attempted = 0;
    let mut failed = 0;
    for (i, r) in plain.iter().chain(&traced).enumerate() {
        attempted += r.attempted;
        failed += r.failed;
        for fault in &r.faults {
            println!("FAULT repeat {i}: {fault}");
        }
        if let Some(how) = &r.off_schedule {
            println!("OFF SCHEDULE repeat {i}: {how}");
            off_schedule += 1;
        }
        if overloaded && r.overran {
            failed += r.attempted - r.failed;
        }
    }
    for (i, r) in plain.iter().enumerate() {
        println!(
            "repeat {i}: {:.1} units/s efficiency {:.4} turnaround {}",
            r.values["units_per_s"],
            r.values["efficiency"],
            r.turnaround.summary_us()
        );
        if r.late.count() > 0 {
            println!(
                "repeat {i}: generator lateness {} p99={:.1}us",
                r.late.summary_us(),
                r.late.quantile(0.99) / 1e3
            );
        }
    }

    let mut metrics: Vec<(String, f64, String)> = Vec::new();
    if let Some((spin, probes)) = machine {
        let plain_rate = median_of(&plain, "units_per_s");
        let overhead = 100.0 * (1.0 - median_of(&traced, "units_per_s") / plain_rate);
        for (name, unit, _) in PER_LAYER {
            let value = match name {
                "env.spin_ns_per_kiter" => spin,
                "env.nproc" => nproc as f64,
                "mol.probe_local_ns" => probes[0],
                "mol.probe_remote_ns" => probes[1],
                "mol.probe_migrate_4k_ns" => probes[2],
                "trace.overhead_pct" => overhead,
                "gen.off_schedule" => off_schedule as f64,
                _ => median_of(&traced, name),
            };
            metrics.push((name.into(), value, unit.into()));
        }
    } else {
        for def in &END_TO_END {
            let value = match def.name {
                "setup_s" => median(&setups),
                "peak_rss_mb" => peak_rss,
                name => median_of(&plain, name),
            };
            metrics.push((def.name.into(), value, def.unit.into()));
        }
        // Named for the reader; the result line carries them as
        // `attempted`/`failed` and, traced, as `app.failed_share` and
        // `gen.off_schedule`.
        println!(
            "failed_share {} ratio ({failed} of {attempted} units)",
            failed as f64 / attempted as f64
        );
        println!("off_schedule_repeats {off_schedule} count");
    }
    println!(
        "repeats {} traced {} setup_samples {}",
        plain.len(),
        traced.len(),
        setups.len()
    );
    for (name, value, unit) in &metrics {
        println!("{name} {value} {unit}");
    }
    let result = RunResult {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
    };
    println!("{}", result.to_json());
    result.correct
}

/// High-water mark of this process's resident set, from the kernel.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|n| n.parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kib / 1024.0
}

/// Nanoseconds per thousand spin iterations with both processors spinning:
/// how fast this box is right now, to tell machine drift from a change.
fn spin_ns_per_kiter() -> f64 {
    const ITERS: u64 = 2_000_000;
    let per_thread: Vec<f64> = std::thread::scope(|s| {
        let spinners: Vec<_> = (0..RANKS as u64)
            .map(|salt| {
                s.spawn(move || {
                    // Side by side from the first sample: left to itself the
                    // OS ran both spinners on one processor for half a second.
                    prema::affinity::pin_current_thread(salt as usize);
                    let samples: Vec<f64> = (0..7)
                        .map(|_| {
                            let t0 = clock::now_ns();
                            workloads::spin(ITERS, salt);
                            (clock::now_ns() - t0) as f64 / (ITERS as f64 / 1e3)
                        })
                        .collect();
                    median(&samples)
                })
            })
            .collect();
        spinners
            .into_iter()
            .map(|j| j.join().expect("spin thread"))
            .collect()
    });
    median(&per_thread)
}

/// Single-thread costs of the MOL on a two-node in-process fabric, per
/// operation: a message to a local object, to a remote one, and the
/// migration of a 4 KiB object (pack, ship, install, publish).
fn mol_probes() -> [f64; 3] {
    let mut nodes: Vec<MolNode<Obj>> = LocalFabric::new(2)
        .into_iter()
        .map(|ep| MolNode::with_config(Communicator::new(Box::new(ep)), MolConfig::default()))
        .collect();
    let (a, b) = nodes.split_at_mut(1);
    let (a, b) = (&mut a[0], &mut b[0]);
    let obj = |id: u32, state: usize| Obj {
        id,
        born: 0,
        work: 0,
        kicks: 0,
        pad: vec![id as u8; state],
    };
    let near = a.register(obj(0, 0));
    let far = b.register(obj(1, 0));
    let big = a.register(obj(2, 4096));
    let payload = Msg {
        slot: 0,
        seq: 0,
        issued_ns: 0,
    }
    .encode();
    let per_op = |ops: u32, f: &mut dyn FnMut()| {
        let t0 = clock::now_ns();
        for _ in 0..ops {
            f();
        }
        (clock::now_ns() - t0) as f64 / ops as f64
    };
    let local = per_op(20_000, &mut || {
        a.message(near, H_UNIT, payload.clone());
        a.pump();
        a.pop_work().expect("local message is queued");
    });
    let remote = per_op(20_000, &mut || {
        a.message(far, H_UNIT, payload.clone());
        b.pump();
        b.pop_work().expect("remote message arrived");
    });
    a.pump();
    let migrate = per_op(1_000, &mut || {
        assert!(a.migrate(big, 1), "object is home");
        b.pump();
        assert!(b.migrate(big, 0), "object arrived");
        a.pump();
    }) / 2.0;
    [local, remote, migrate]
}

/// Runs `prema-e2e --workload …` as a child and reads its result line.
fn run_child(spec: &Spec, seed: u64, seconds: f64, trace: bool) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", spec.name])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("start {}: {e}", spec.name))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or("");
    let result = RunResult::parse(last)
        .map_err(|e| format!("{} ({}): {e}\n{stdout}", spec.name, out.status))?;
    if !out.status.success() || !result.correct {
        return Err(format!(
            "{} seed {seed}: {} of {} units failed\n{stdout}",
            spec.name, result.failed, result.attempted
        ));
    }
    Ok(result)
}

/// Every workload once, each in a process of its own so `peak_rss_mb` is
/// that workload's.
fn run_all(args: &Args) -> bool {
    let mut ok = true;
    for spec in &SPECS {
        match run_child(spec, args.seed, args.seconds, args.trace) {
            Ok(r) => {
                println!("{} ({} units, 0 failed)", spec.name, r.attempted);
                for (name, value, unit) in &r.metrics {
                    println!("  {name:<26} {value:>16.6} {unit}");
                }
            }
            Err(e) => {
                println!("{e}");
                ok = false;
            }
        }
    }
    ok
}

/// The acceptance procedure, on this code against itself: two sets of
/// `SELFCHECK_RUNS` runs per workload, a new seed each run. Fails if any
/// metric's quartile spread exceeds its bound in either set, or if the two
/// sets' medians differ by more than the bound, either way.
fn selfcheck(args: &Args) -> bool {
    let mut ok = true;
    println!(
        "{:<16} {:<18} {:>14} {:>14} {:>8} {:>8} {:>8} {:>6}",
        "workload", "metric", "median 1", "median 2", "gap", "spread1", "spread2", "bound"
    );
    for spec in &SPECS {
        let mut sets: [Vec<RunResult>; 2] = Default::default();
        for run in 0..2 * SELFCHECK_RUNS {
            let seed = args.seed + run;
            match run_child(spec, seed, args.seconds, false) {
                Ok(r) => {
                    let values: Vec<String> = r
                        .metrics
                        .iter()
                        .map(|(_, v, _)| format!("{v:.6}"))
                        .collect();
                    println!("{} seed {seed}: {}", spec.name, values.join(" "));
                    sets[(run / SELFCHECK_RUNS) as usize].push(r)
                }
                Err(e) => {
                    println!("{e}");
                    return false;
                }
            }
        }
        for def in &END_TO_END {
            let column = |set: &[RunResult]| -> Vec<f64> {
                set.iter()
                    .map(|r| r.metric(def.name).expect("every run reports every metric"))
                    .collect()
            };
            let (first, second) = (column(&sets[0]), column(&sets[1]));
            let (m1, m2) = (median(&first), median(&second));
            let gap = (m2 - m1) / m1;
            let spreads = [quartile_spread(&first), quartile_spread(&second)];
            let pass = gap.abs() <= def.bound && spreads.iter().all(|&s| s <= def.bound);
            ok &= pass;
            println!(
                "{:<16} {:<18} {m1:>14.6} {m2:>14.6} {:>+7.2}% {:>7.2}% {:>7.2}% {:>5.0}% {}",
                spec.name,
                def.name,
                100.0 * gap,
                100.0 * spreads[0],
                100.0 * spreads[1],
                100.0 * def.bound,
                if pass { "ok" } else { "FAIL" }
            );
        }
    }
    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn arguments_parse_in_the_contract_form_and_reject_the_rest() {
        let a = parse_args(&strings(&[
            "--workload",
            "chat_fine",
            "--seed",
            "9",
            "--seconds",
            "3",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(a.action, Action::Workload("chat_fine".into()));
        assert_eq!((a.seed, a.seconds, a.trace), (9, 3.0, true));
        let s = parse_args(&strings(&["selfcheck", "--seed", "200"])).unwrap();
        assert_eq!((s.action, s.seed), (Action::Selfcheck, 200));
        assert!(SPECS.iter().all(|s| USAGE.contains(s.name)));
        for bad in [
            &[][..],
            &["--workload"],
            &["--trace", "2", "all"],
            &["all", "--workload", "chat_fine"],
            &["all", "--seconds", "0"],
            &["frobnicate"],
        ] {
            assert!(parse_args(&strings(bad)).is_err(), "{bad:?} parsed");
        }
    }

    #[test]
    fn a_run_is_overloaded_when_most_of_its_repeats_overran() {
        let repeats = |overran: &[bool]| -> Vec<RepeatOut> {
            overran
                .iter()
                .map(|&overran| RepeatOut {
                    values: Default::default(),
                    attempted: 1,
                    failed: 0,
                    faults: Vec::new(),
                    // A late generator alone never fails a run.
                    off_schedule: Some("stalled".to_string()),
                    overran,
                    turnaround: Default::default(),
                    late: Default::default(),
                })
                .collect()
        };
        let verdict =
            |plain: &[bool], traced: &[bool]| overloaded(&repeats(plain), &repeats(traced));
        assert!(!verdict(&[false; 7], &[]));
        assert!(!verdict(
            &[true, false, true, false, true, false, false],
            &[]
        ));
        assert!(verdict(&[true, false, true, false, true, false, true], &[]));
        assert!(!verdict(&[false, true], &[true, false]));
        assert!(verdict(&[true, true], &[true, false]));
        // An 8 s traced run has one repeat of each kind.
        assert!(!verdict(&[false], &[true]));
        assert!(verdict(&[true], &[]));
    }

    #[test]
    fn metric_names_are_unique_and_within_the_contract() {
        let names: Vec<&str> = END_TO_END
            .iter()
            .map(|d| d.name)
            .chain(PER_LAYER.iter().map(|&(n, _, _)| n))
            .collect();
        for (i, n) in names.iter().enumerate() {
            assert!(!names[i + 1..].contains(n), "{n} twice");
            assert!(
                n.len() <= 64
                    && n.chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            );
        }
        assert!(END_TO_END.iter().all(|d| d.bound > 0.0 && d.bound <= 0.25));
        assert!(END_TO_END.iter().any(|d| d.name == "setup_s" && !d.higher));
    }

    /// `BENCHMARK.json` at the repository root names exactly this crate's
    /// workloads and metrics, with these units, directions and bounds.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside benchmark/");
        let flat: String = text.split_whitespace().collect();
        let better = |higher: bool| if higher { "higher" } else { "lower" };
        for s in &SPECS {
            let entry = format!("{{\"name\":\"{}\",\"why\":\"", s.name);
            assert!(flat.contains(&entry), "workload {} missing", s.name);
            let why: String = s.why.split_whitespace().collect();
            assert!(flat.contains(&why), "why of {} differs", s.name);
        }
        for d in &END_TO_END {
            let entry = format!(
                "{{\"name\":\"{}\",\"unit\":\"{}\",\"better\":\"{}\",\"bound\":{}}}",
                d.name,
                d.unit,
                better(d.higher),
                d.bound
            );
            assert!(flat.contains(&entry), "{entry} missing");
        }
        for (name, unit, higher) in PER_LAYER {
            let entry = format!(
                "{{\"name\":\"{name}\",\"unit\":\"{unit}\",\"better\":\"{}\"}}",
                better(higher)
            );
            assert!(flat.contains(&entry), "{entry} missing");
        }
        let count = |key: &str| flat.matches(key).count();
        assert_eq!(count("\"why\":"), SPECS.len());
        assert_eq!(count("\"bound\":"), END_TO_END.len());
        assert_eq!(count("\"better\":"), END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn mol_probes_and_rss_read_something() {
        let probes = mol_probes();
        assert!(probes.iter().all(|&ns| ns > 0.0), "{probes:?}");
        assert!(peak_rss_mb() > 1.0);
    }
}
