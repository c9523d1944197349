//! `prema-launch` — run the Fig. 3 microbenchmark with each rank as a
//! separate OS process over the UDP loopback transport (DESIGN.md §15).
//!
//! One binary, two roles. Invoked plain it is the **parent**: it re-execs
//! itself once per rank (`PREMA_LAUNCH_RANK` set), brokers the address-map
//! rendezvous over the children's stdio, aggregates their per-unit
//! execution counts, and checks the global work-conservation oracle. With
//! `PREMA_LAUNCH_RANK` set it is a **worker**: it binds a UDP socket,
//! joins the epoch-stamped handshake, stacks
//! `ReliableTransport(ChaosTransport?(UdpTransport))`, and runs its slice
//! of the workload on [`prema::launch_single_rank`].
//!
//! ```text
//! prema-launch --ranks 4 --loss 0.02 --seed 3 [--trace-dir DIR]
//! ```
//!
//! Exit status: `0` when every unit executed exactly once globally; `1` on
//! an oracle failure or a failed child; `2` on usage errors.

use bytes::Bytes;
use prema::dcs::{
    ChaosConfig, ChaosHandle, ChaosTransport, ReliableTransport, RetryConfig, Transport,
};
use prema::{launch_single_rank, Completion, Migratable, PremaConfig};
use prema_dcs::UdpTransport;
use prema_harness::BenchSpec;
use prema_launch::{
    addr_line, aggregate, count_line, map_line, parse_addr_line, parse_args, parse_count_line,
    parse_map_line, render_report,
};
use prema_sim::MachineConfig;
use std::io::{BufRead, BufReader, Write};
use std::net::SocketAddr;
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long a worker keeps polling after global completion so that peers'
/// final retransmits get their acks before this process exits: the first
/// four rounds of the reliable layer's own retransmission schedule, rounded
/// up to a tenth of a second, so it covers that schedule by construction
/// (10 + 20 + 40 + 80 ms -> 200 ms with the default `RetryConfig`).
fn drain_window() -> Duration {
    let retry = RetryConfig::default();
    let rounds: Duration = (0..4).map(|round| retry.wait(round)).sum();
    Duration::from_millis(rounds.as_millis().next_multiple_of(100) as u64)
}

/// Default join-handshake patience (overridable via
/// `PREMA_UDP_HANDSHAKE_MS` for constrained CI machines).
const HANDSHAKE_MS: u64 = 10_000;

fn main() {
    let code = if std::env::var_os("PREMA_LAUNCH_RANK").is_some() {
        worker()
    } else {
        parent()
    };
    std::process::exit(code);
}

// ---------------------------------------------------------------------------
// Parent role
// ---------------------------------------------------------------------------

fn parent() -> i32 {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("prema-launch: {e}");
            eprintln!(
                "usage: prema-launch [--ranks N] [--loss P] [--seed S] \
                 [--units-per-proc U] [--trace-dir DIR]"
            );
            return 2;
        }
    };
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("prema-launch: cannot locate own executable: {e}");
            return 1;
        }
    };
    // The epoch stamps this launch in every datagram header, so straggler
    // processes from a previous run on a recycled port are rejected at the
    // wire instead of corrupting the new world.
    let epoch = u64::from(std::process::id());

    let mut children = Vec::with_capacity(opts.ranks);
    for rank in 0..opts.ranks {
        let mut cmd = Command::new(&exe);
        cmd.env("PREMA_LAUNCH_RANK", rank.to_string())
            .env("PREMA_LAUNCH_RANKS", opts.ranks.to_string())
            .env("PREMA_LAUNCH_UNITS", opts.units_per_proc.to_string())
            .env("PREMA_UDP_EPOCH", epoch.to_string())
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        if opts.loss > 0.0 {
            // Fault injection rides the existing chaos knobs: each worker
            // wraps its socket in a seeded ChaosTransport.
            cmd.env("PREMA_CHAOS_SEED", opts.seed.to_string())
                .env("PREMA_CHAOS_LOSS", opts.loss.to_string());
        }
        if let Some(dir) = &opts.trace_dir {
            cmd.env("PREMA_LAUNCH_TRACE_DIR", dir);
        }
        match cmd.spawn() {
            Ok(child) => children.push(child),
            Err(e) => {
                eprintln!("prema-launch: spawn rank {rank}: {e}");
                for mut c in children {
                    let _ = c.kill();
                }
                return 1;
            }
        }
    }

    // Phase 1: collect every rank's bound address off its first stdout line.
    let mut readers: Vec<BufReader<std::process::ChildStdout>> = Vec::with_capacity(opts.ranks);
    let mut addrs: Vec<SocketAddr> = Vec::with_capacity(opts.ranks);
    for (rank, child) in children.iter_mut().enumerate() {
        let stdout = child.stdout.take().expect("stdout was piped");
        let mut reader = BufReader::new(stdout);
        let mut line = String::new();
        if reader.read_line(&mut line).unwrap_or(0) == 0 {
            eprintln!("prema-launch: rank {rank} exited before advertising its address");
            for mut c in children {
                let _ = c.kill();
            }
            return 1;
        }
        match parse_addr_line(line.trim_end()) {
            Ok((r, addr)) if r == rank => addrs.push(addr),
            Ok((r, _)) => {
                eprintln!("prema-launch: rank {rank} advertised as rank {r}");
                for mut c in children {
                    let _ = c.kill();
                }
                return 1;
            }
            Err(e) => {
                eprintln!("prema-launch: rank {rank}: {e}");
                for mut c in children {
                    let _ = c.kill();
                }
                return 1;
            }
        }
        readers.push(reader);
    }

    // Phase 2: distribute the full map; each child connects on receipt.
    let map = map_line(&addrs);
    for (rank, child) in children.iter_mut().enumerate() {
        let mut stdin = child.stdin.take().expect("stdin was piped");
        if writeln!(stdin, "{map}")
            .and_then(|_| stdin.flush())
            .is_err()
        {
            eprintln!("prema-launch: rank {rank}: stdin closed before the map was sent");
            for mut c in children {
                let _ = c.kill();
            }
            return 1;
        }
        // Dropping the handle closes the pipe; the worker has its one line.
    }

    // Phase 3: drain each child's report concurrently (a full pipe would
    // otherwise deadlock a writer against our sequential reads), then reap.
    let collectors: Vec<_> = readers
        .into_iter()
        .map(|reader| {
            std::thread::spawn(move || {
                let mut counts = Vec::new();
                for line in reader.lines() {
                    let Ok(line) = line else { break };
                    if let Some(pair) = parse_count_line(&line) {
                        counts.push(pair);
                    }
                }
                counts
            })
        })
        .collect();
    let reports: Vec<Vec<(u32, u64)>> = collectors
        .into_iter()
        .map(|t| t.join().expect("collector thread panicked"))
        .collect();

    let mut failed = false;
    for (rank, mut child) in children.into_iter().enumerate() {
        match child.wait() {
            Ok(status) if status.success() => {}
            Ok(status) => {
                eprintln!("prema-launch: rank {rank} exited with {status}");
                failed = true;
            }
            Err(e) => {
                eprintln!("prema-launch: rank {rank} wait failed: {e}");
                failed = true;
            }
        }
    }

    let total_units = opts.ranks * opts.units_per_proc;
    let outcome = aggregate(&reports, total_units);
    print!("{}", render_report(&opts, total_units, &outcome));
    if failed || !outcome.exactly_once() {
        1
    } else {
        0
    }
}

// ---------------------------------------------------------------------------
// Worker role
// ---------------------------------------------------------------------------

/// A work unit of the microbenchmark as a mobile object (the same shape as
/// the in-process chaos soak): global id plus true weight, scaled to a
/// sub-millisecond spin so weight *ratios* are preserved while wall time
/// stays bounded.
struct Unit {
    id: u64,
    mflop: f64,
}

impl Migratable for Unit {
    fn pack(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.id.to_le_bytes());
        buf.extend_from_slice(&self.mflop.to_le_bytes());
    }
    fn unpack(b: &[u8]) -> Self {
        Unit {
            id: u64::from_le_bytes(b[..8].try_into().expect("unit id bytes")),
            mflop: f64::from_le_bytes(b[8..16].try_into().expect("unit weight bytes")),
        }
    }
}

const H_COMPUTE: u32 = 1;

fn required_env(key: &str) -> Result<u64, String> {
    let raw = std::env::var(key).map_err(|_| format!("{key} must be set by the parent"))?;
    raw.trim()
        .parse()
        .map_err(|e| format!("{key}={raw:?}: {e}"))
}

fn worker() -> i32 {
    match worker_inner() {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("prema-launch worker: {e}");
            1
        }
    }
}

fn worker_inner() -> Result<(), String> {
    let rank = required_env("PREMA_LAUNCH_RANK")? as usize;
    let nprocs = required_env("PREMA_LAUNCH_RANKS")? as usize;
    let units_per_proc = required_env("PREMA_LAUNCH_UNITS")? as usize;
    let epoch = required_env("PREMA_UDP_EPOCH")?;
    let handshake = Duration::from_millis(
        prema_dcs::env::u64_var("PREMA_UDP_HANDSHAKE_MS").unwrap_or(HANDSHAKE_MS),
    );

    // Phase 1: bind and advertise.
    let builder = UdpTransport::bind("127.0.0.1:0".parse().expect("static addr"))
        .map_err(|e| format!("bind: {e:?}"))?;
    println!("{}", addr_line(rank, builder.local_addr()));
    std::io::stdout()
        .flush()
        .map_err(|e| format!("flush addr line: {e}"))?;

    // Phase 2: receive the map and join the epoch handshake.
    let mut map = String::new();
    std::io::stdin()
        .lock()
        .read_line(&mut map)
        .map_err(|e| format!("read map: {e}"))?;
    let peers = parse_map_line(map.trim_end())?;
    if peers.len() != nprocs {
        return Err(format!("map has {} addrs, expected {nprocs}", peers.len()));
    }
    let mut udp = builder
        .connect(rank, peers, epoch, handshake)
        .map_err(|e| format!("handshake: {e:?}"))?;

    // Optional per-rank trace sink, flushed to a JSONL file on exit.
    let trace_dir = std::env::var_os("PREMA_LAUNCH_TRACE_DIR").map(std::path::PathBuf::from);
    let sink = trace_dir
        .as_ref()
        .map(|_| prema_trace::TraceSink::new(nprocs));
    let tracer = sink
        .as_ref()
        .map(|s| s.tracer(rank))
        .unwrap_or_else(prema_trace::Tracer::off);

    // The wire stack, bottom-up: UDP socket, seeded chaos (opt-in via the
    // PREMA_CHAOS_* knobs the parent sets for --loss > 0), ack/retry.
    udp.set_tracer(tracer.clone());
    let transport: Box<dyn Transport> = match ChaosConfig::from_env() {
        Some(cfg) => {
            let mut chaos = ChaosTransport::new(udp, cfg, ChaosHandle::new());
            chaos.set_tracer(tracer.clone());
            let mut reliable = ReliableTransport::new(chaos);
            reliable.set_tracer(tracer);
            Box::new(reliable)
        }
        None => {
            let mut reliable = ReliableTransport::new(udp);
            reliable.set_tracer(tracer);
            Box::new(reliable)
        }
    };

    // Fig. 3 workload shape at this world size: heavy block on rank 0,
    // 50% imbalance, inaccurate mean-weight hints.
    let spec = BenchSpec::figure3(MachineConfig::small(nprocs), units_per_proc);
    let total = spec.total_units();
    let hits: Arc<Vec<AtomicU64>> = Arc::new((0..total).map(|_| AtomicU64::new(0)).collect());

    let hits_in = hits.clone();
    launch_single_rank::<Unit, (), _>(
        PremaConfig::implicit(nprocs),
        rank,
        transport,
        sink.clone(),
        move |rt| {
            let hits = hits_in;
            rt.on_message(H_COMPUTE, move |_ctx, unit: &mut Unit, _item| {
                let iters = (unit.mflop * 40.0) as u64;
                let mut x = unit.id;
                for i in 0..iters {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(i);
                }
                std::hint::black_box(x);
                hits[unit.id as usize].fetch_add(1, Ordering::SeqCst);
            });
            let completion = Completion::install(&rt, total as u64);
            for u in spec.units_of_proc(rt.rank()) {
                let ptr = rt.register(Unit {
                    id: u.id as u64,
                    mflop: u.mflop,
                });
                rt.message_with_hint(ptr, H_COMPUTE, u.hint_mflop, Bytes::new());
            }
            loop {
                if rt.step() {
                    completion.report(&rt, 1);
                } else {
                    rt.poll();
                    completion.maintain(&rt);
                    if completion.is_done() {
                        break;
                    }
                    std::thread::sleep(Duration::from_micros(50));
                }
            }
            // Keep answering the wire briefly: a peer that has not yet seen
            // its last ack (or the completion broadcast) retransmits, and an
            // exited process would strand it at the handshake-timeout level.
            let drain_until = Instant::now() + drain_window();
            while Instant::now() < drain_until {
                rt.poll();
                std::thread::sleep(Duration::from_micros(200));
            }
            rt.with_scheduler(|s| {
                s.verify_invariants();
                s.node().verify_conservation();
            });
        },
    );

    // Per-rank trace file: rank-<r>.jsonl under the requested directory.
    if let (Some(dir), Some(sink)) = (trace_dir, sink) {
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let path = dir.join(format!("rank-{rank}.jsonl"));
        let mut file =
            std::fs::File::create(&path).map_err(|e| format!("create {}: {e}", path.display()))?;
        sink.write_jsonl(&mut file)
            .map_err(|e| format!("write {}: {e}", path.display()))?;
    }

    // Phase 3: report local executions; the parent sums across ranks.
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    for (id, hit) in hits.iter().enumerate() {
        let n = hit.load(Ordering::SeqCst);
        if n > 0 {
            writeln!(out, "{}", count_line(id as u32, n)).map_err(|e| format!("report: {e}"))?;
        }
    }
    out.flush().map_err(|e| format!("flush report: {e}"))?;
    Ok(())
}
