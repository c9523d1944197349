//! Regenerate one of the paper's Figures 3–6 at full scale (128 simulated
//! processors): per-processor time breakdowns for all six configurations.
//!
//! Usage: `cargo run -p prema-harness --release --bin figure -- <3|4|5|6> [stride]`
//!
//! Pass `--csv` to emit one CSV block per panel (all 128 processors, all
//! categories) instead of the sampled ASCII tables — ready for plotting the
//! stacked bars exactly as the paper draws them.
//!
//! Set `PREMA_TRACE_OUT=<path>` to additionally record the PREMA-implicit
//! panel's run as a JSONL event trace, ready for `cargo xtask trace-report`:
//! the engine's spans and messages, and — built with
//! `--features prema-ilb/trace` — the runtime stack's own events
//! (`lb_request`, `lb_grant`, `lb_veto`, `migrate`, `install`, ...) at
//! simulated-time stamps.
//!
//! Two policy scenarios (DESIGN.md §14) ride along: `figure -- interact`
//! compares weight-only against communication-aware diffusion on interacting
//! mobile objects (metric: remote application messages), and `figure -- wave`
//! compares reactive against anticipatory diffusion on a hotspot receiving
//! escalating arrival waves (metric: makespan).

use prema_harness::drivers::policy_drv::{
    run_interact, run_interact_routed, run_wave, InteractCfg, RouteMode, WaveCfg, MODELED_MAX_CHAIN,
};
use prema_harness::report::Config;
use prema_harness::runner::run_figure_with_trace;
use prema_harness::spec::BenchSpec;
use prema_ilb::{Anticipatory, CommAwareDiffusion, Diffusion};
use prema_sim::TraceSink;

/// Ring capacity per simulated processor when tracing a full-scale figure.
/// A 128-proc paper run emits ~30 thousand records per processor (a span per
/// poll-interval segment of each unit), about twice that with the stack's
/// tracer compiled in; 2^18 slots leaves headroom so `dropped()` stays 0.
const TRACE_RING_CAPACITY: usize = 1 << 18;

/// The `interact` scenario: weight-only vs communication-aware diffusion.
fn scenario_interact() {
    let cfg = InteractCfg::default();
    let plain = run_interact(&cfg, &|_| Box::new(Diffusion::new(20.0)));
    let comm = run_interact(&cfg, &|_| Box::new(CommAwareDiffusion::new(20.0, 1.0)));
    println!("interact: {cfg:?}");
    println!("policy          remote-app-msgs  total-app-msgs  migrations  makespan");
    for (name, out) in [("diffusion", &plain), ("comm-diffusion", &comm)] {
        println!(
            "{name:<15} {:>16} {:>15} {:>11} {:>9}",
            out.remote_app_msgs, out.total_app_msgs, out.migrations, out.report.makespan
        );
    }
    let save = 1.0 - comm.remote_app_msgs as f64 / plain.remote_app_msgs.max(1) as f64;
    println!(
        "comm-aware diffusion sends {:.1}% fewer remote application messages",
        save * 100.0
    );

    // Directory comparison (DESIGN.md §16): the same comm-aware run with
    // realistic location resolution — classic home-forwarding vs the
    // sharded directory with sender caches.
    let hf = run_interact_routed(&cfg, RouteMode::HomeForward, &|_| {
        Box::new(CommAwareDiffusion::new(20.0, 1.0))
    });
    let sh = run_interact_routed(&cfg, RouteMode::Sharded, &|_| {
        Box::new(CommAwareDiffusion::new(20.0, 1.0))
    });
    println!();
    println!("directory       remote-app-msgs  dir-msgs  remote-total  chain-p99  chain-max");
    for (name, out) in [("home-forward", &hf), ("sharded-cache", &sh)] {
        println!(
            "{name:<15} {:>16} {:>9} {:>13} {:>10} {:>10}",
            out.remote_app_msgs,
            out.dir_msgs,
            out.remote_total(),
            out.chain_percentile(0.99),
            out.max_chain(),
        );
    }
    let save = 1.0 - sh.remote_total() as f64 / hf.remote_total().max(1) as f64;
    println!(
        "sharded directory sends {:.1}% fewer remote messages (cache hit rate {:.1}%, \
         p99 chain {} ≤ bound {})",
        save * 100.0,
        sh.cache_hit_rate() * 100.0,
        sh.chain_percentile(0.99),
        MODELED_MAX_CHAIN
    );
}

/// The `wave` scenario: reactive vs anticipatory diffusion.
fn scenario_wave() {
    let cfg = WaveCfg::default();
    let reactive = run_wave(&cfg, &|_| Box::new(Diffusion::new(300.0)));
    let ant = run_wave(&cfg, &|_| {
        Box::new(Anticipatory::new(Box::new(Diffusion::new(300.0))))
    });
    println!("wave: {cfg:?}");
    println!("policy          makespan  migrations");
    for (name, out) in [("diffusion", &reactive), ("anticipatory", &ant)] {
        println!(
            "{name:<15} {:>8} {:>11}",
            out.report.makespan, out.migrations
        );
    }
    let save = 1.0 - ant.report.makespan.as_secs_f64() / reactive.report.makespan.as_secs_f64();
    println!(
        "anticipatory diffusion finishes {:.1}% sooner",
        save * 100.0
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let csv = args.iter().any(|a| a == "--csv");
    let positional: Vec<&String> = args.iter().filter(|a| !a.starts_with("--")).collect();
    match positional.first().map(|s| s.as_str()) {
        Some("interact") => {
            scenario_interact();
            return;
        }
        Some("wave") => {
            scenario_wave();
            return;
        }
        _ => {}
    }
    let fig: u32 = positional
        .first()
        .map(|s| s.parse().expect("figure number must be 3..=6"))
        .unwrap_or(3);
    let stride: usize = positional
        .get(1)
        .map(|s| s.parse().expect("stride must be a positive integer"))
        .unwrap_or(8);
    let spec = BenchSpec::paper_figure(fig);
    let trace_out = std::env::var_os("PREMA_TRACE_OUT");
    let sink = trace_out
        .as_ref()
        .map(|_| TraceSink::manual(spec.machine.procs, TRACE_RING_CAPACITY));
    let report = run_figure_with_trace(
        fig,
        &spec,
        sink.as_ref()
            .map(|s| (Config::PremaImplicit, std::sync::Arc::clone(s))),
    );
    if let (Some(path), Some(sink)) = (trace_out, sink) {
        let mut out = std::io::BufWriter::new(
            std::fs::File::create(&path).expect("cannot create PREMA_TRACE_OUT file"),
        );
        sink.write_jsonl(&mut out).expect("cannot write trace");
        eprintln!(
            "trace: wrote PREMA-implicit panel to {} ({} events dropped)",
            path.to_string_lossy(),
            sink.dropped()
        );
    }
    if csv {
        for (cfg, rep) in &report.panels {
            println!("# figure {fig} panel ({}) {}", cfg.panel(), cfg.label());
            print!("{}", rep.render_csv());
            println!();
        }
        eprint!("{}", report.summary());
    } else {
        print!("{}", report.render(stride));
    }
}
