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
//! Two policy scenarios (DESIGN.md §14) ride along, each one row per shipped
//! policy on the real stack: `figure -- interact` (interacting mobile objects
//! born on one rank; metric: remote application messages) and
//! `figure -- wave` (a hotspot receiving escalating arrival waves; metric:
//! makespan).

use prema::PolicyKind;
use prema_harness::report::Config;
use prema_harness::runner::run_figure_with_trace;
use prema_harness::scenarios::{
    run_interact, run_wave, shipped_policies, InteractCfg, PolicyRun, WaveCfg,
};
use prema_harness::spec::BenchSpec;
use prema_sim::TraceSink;

/// Ring capacity per simulated processor when tracing a full-scale figure.
/// A 128-proc paper run emits ~30 thousand records per processor (a span per
/// poll-interval segment of each unit), about twice that with the stack's
/// tracer compiled in; 2^18 slots leaves headroom so `dropped()` stays 0.
const TRACE_RING_CAPACITY: usize = 1 << 18;

/// One scenario's table: a row per policy.
fn scenario(policies: [PolicyKind; 5], run: impl Fn(PolicyKind) -> PolicyRun) {
    println!("policy         remote-notes  migrations  makespan");
    for policy in policies {
        let out = run(policy);
        println!(
            "{:<14} {:>12} {:>11} {:>9}",
            policy.build(0).name(),
            out.remote_notes,
            out.migrations(),
            out.stack.report.makespan
        );
    }
}

/// The `interact` scenario; the diffusive threshold is one task.
fn scenario_interact() {
    let cfg = InteractCfg::default();
    println!("interact: {cfg:?}, {} notes", cfg.notes());
    scenario(shipped_policies(cfg.task_mflop, cfg.task_mflop), |p| {
        run_interact(&cfg, p)
    });
}

/// The `wave` scenario; the diffusive threshold is twelve tasks.
fn scenario_wave() {
    let cfg = WaveCfg::default();
    println!("wave: {cfg:?}");
    scenario(
        shipped_policies(cfg.task_mflop, 12.0 * cfg.task_mflop),
        |p| run_wave(&cfg, p),
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
