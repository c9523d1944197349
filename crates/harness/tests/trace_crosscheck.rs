//! Cross-check: a figure run replayed from its event trace reproduces the
//! engine's own per-processor breakdown tables.
//!
//! This is the acceptance test for the `trace-report` binary's breakdown
//! table (`prema_harness::trace_report`): the simulator records one `Span`
//! per accounted nanosecond, so folding a complete trace back through
//! [`breakdown_from_trace`] must land within 1% of the
//! engine-reported Computation / Messaging / LB / Idle split on every
//! processor (in practice the match is exact).

use prema_harness::drivers::prema_drv;
use prema_harness::report::breakdown_from_trace;
use prema_harness::spec::BenchSpec;
use prema_sim::{Category, TraceSink};

#[test]
fn trace_replay_matches_engine_breakdown_within_one_percent() {
    let spec = BenchSpec::test_scale(4);
    let nprocs = spec.machine.procs;
    let sink = TraceSink::with_capacity(nprocs, 1 << 16);
    let engine_report =
        prema_drv::run_traced(&spec, prema_drv::implicit_cfg(&spec), Some(sink.clone()));
    assert_eq!(sink.dropped(), 0, "ring overflowed; enlarge capacity");

    let records = sink.drain();
    assert!(!records.is_empty());
    let traced = breakdown_from_trace(&records, nprocs);

    // Exact equality on the aggregates the trace fully determines.
    assert_eq!(traced.makespan, engine_report.makespan);
    assert_eq!(traced.finish, engine_report.finish);
    assert_eq!(traced.msgs_sent, engine_report.msgs_sent);
    assert_eq!(traced.bytes_sent, engine_report.bytes_sent);

    // The acceptance bound: per-processor, per-category, within 1% relative
    // (absolute slack only where the engine itself reports ~zero).
    for p in 0..nprocs {
        for cat in Category::ALL {
            let want = engine_report.breakdowns[p][cat].as_secs_f64();
            let got = traced.breakdowns[p][cat].as_secs_f64();
            let tol = (want * 0.01).max(1e-9);
            assert!(
                (got - want).abs() <= tol,
                "proc {p} {cat:?}: trace {got} vs engine {want}"
            );
        }
    }
}

#[test]
fn untraced_panels_leave_the_sink_empty() {
    use prema_harness::report::Config;
    use prema_harness::runner::run_figure_with_trace;

    let spec = BenchSpec::test_scale(3);
    let sink = TraceSink::new(spec.machine.procs);
    // Ask for a Charm panel, which runs on the untraceable virtual runtime.
    let report = run_figure_with_trace(3, &spec, Some((Config::CharmNoSync, sink.clone())));
    assert_eq!(report.panels.len(), 6);
    assert!(sink.drain().is_empty());
}

/// A manually clocked sink also receives the scheduler's and the MOL's own
/// events, and `SimRank` keeps its clock on the engine's: every stamp is a
/// simulated time within the run.
#[test]
fn the_stacks_own_events_are_stamped_in_simulated_time() {
    let spec = BenchSpec::test_scale(4);
    let sink = TraceSink::manual(spec.machine.procs, 1 << 16);
    let report = prema_drv::run_traced(&spec, prema_drv::implicit_cfg(&spec), Some(sink.clone()));
    assert_eq!(sink.dropped(), 0, "ring overflowed; enlarge capacity");
    let records = sink.drain();
    for name in ["lb_request", "lb_grant", "install", "poll_system"] {
        assert!(
            records.iter().any(|r| r.ev.name() == name),
            "no `{name}` record from the stack"
        );
    }
    let latest = records.iter().map(|r| r.t).max().expect("records");
    assert!(
        latest <= report.makespan.as_nanos(),
        "a stamp at {latest} ns, past the makespan {}",
        report.makespan
    );
}
