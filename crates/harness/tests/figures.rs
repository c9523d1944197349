//! Cross-crate integration: run every figure at test scale and check the
//! invariants that must hold at any scale.

use prema::{LbMode, PremaConfig};
use prema_harness::drivers::{prema_drv, POLL_INTERVAL};
use prema_harness::runner::{assert_work_conserved, run_test_figure};
use prema_harness::{BenchSpec, Config, WorkUnit};
use prema_sim::{Category, MachineConfig, Record, TraceEvent, TraceSink};
use std::time::Duration;

#[test]
fn all_figures_conserve_work_across_all_six_configs() {
    for fig in [3u32, 4, 5, 6] {
        let report = run_test_figure(fig);
        assert_work_conserved(&report);
    }
}

#[test]
fn nolb_matches_analytic_makespan_everywhere() {
    for fig in [3u32, 4, 5, 6] {
        let spec = BenchSpec::test_scale(fig);
        let report = run_test_figure(fig);
        let analytic = spec.nolb_makespan_secs();
        let measured = report.makespan_secs(Config::NoLb);
        assert!(
            (measured - analytic).abs() / analytic < 0.001,
            "fig {fig}: NoLB {measured} vs analytic {analytic}"
        );
    }
}

#[test]
fn implicit_prema_always_at_least_matches_nolb() {
    for fig in [3u32, 4, 5, 6] {
        let report = run_test_figure(fig);
        assert!(
            report.makespan_secs(Config::PremaImplicit)
                <= report.makespan_secs(Config::NoLb) * 1.001,
            "fig {fig}: implicit worse than doing nothing"
        );
    }
}

#[test]
fn makespan_never_beats_the_balanced_bound() {
    for fig in [3u32, 4, 5, 6] {
        let spec = BenchSpec::test_scale(fig);
        let report = run_test_figure(fig);
        let bound = spec.balanced_compute_secs();
        for (cfg, rep) in &report.panels {
            assert!(
                rep.makespan.as_secs_f64() >= bound * 0.999,
                "fig {fig} {}: makespan {} below the physical bound {bound}",
                cfg.label(),
                rep.makespan.as_secs_f64()
            );
        }
    }
}

#[test]
fn figure3_ordering_holds_at_test_scale() {
    let report = run_test_figure(3);
    let imp = report.makespan_secs(Config::PremaImplicit);
    let nolb = report.makespan_secs(Config::NoLb);
    assert!(imp < nolb * 0.9, "implicit {imp} vs NoLB {nolb}");
    // Charm with no sync points cannot balance: it tracks NoLB.
    let charm = report.makespan_secs(Config::CharmNoSync);
    assert!((charm / nolb - 1.0).abs() < 0.05);
}

#[test]
fn parmetis_sync_time_shows_up_only_for_parmetis_and_charm() {
    let report = run_test_figure(3);
    for (cfg, rep) in &report.panels {
        let sync = rep.total_of(Category::Synchronization).as_secs_f64();
        match cfg {
            Config::ParMetis | Config::CharmSync4 => {}
            _ => assert!(sync < 1e-9, "{}: unexpected sync time {sync}", cfg.label()),
        }
    }
}

#[test]
fn prema_polling_thread_time_only_in_implicit() {
    let report = run_test_figure(3);
    assert!(
        report
            .get(Config::PremaImplicit)
            .total_of(Category::PollingThread)
            .as_secs_f64()
            > 0.0
    );
    for c in [Config::NoLb, Config::PremaExplicit, Config::ParMetis] {
        assert_eq!(
            report.get(c).total_of(Category::PollingThread),
            prema_sim::SimTime::ZERO,
            "{}: polling thread time",
            c.label()
        );
    }
}

#[test]
fn reports_render_without_panicking() {
    let report = run_test_figure(5);
    let text = report.render(2);
    assert!(text.contains("Figure 5"));
    assert!(text.contains("PREMA (implicit)"));
    assert!(text.contains("makespan"));
    let summary = report.summary();
    assert!(summary.lines().count() >= 8);
}

#[test]
fn determinism_across_runs() {
    let a = run_test_figure(4);
    let b = run_test_figure(4);
    for (pa, pb) in a.panels.iter().zip(&b.panels) {
        assert_eq!(pa.0, pb.0);
        assert_eq!(pa.1.makespan, pb.1.makespan);
        assert_eq!(pa.1.finish, pb.1.finish);
        assert_eq!(pa.1.msgs_sent, pb.1.msgs_sent);
        assert_eq!(pa.1.events, pb.1.events);
    }
}

/// The paper's headline mechanism (§4.2), pinned on the real stack: rank 0
/// holds eight 1.5 s units and rank 1 none, so rank 1's request reaches rank
/// 0 inside its first unit. The polling thread answers it at its next
/// wake-up; without one it waits for the unit to end.
#[test]
fn a_request_arriving_mid_unit_is_answered_within_one_poll_interval() {
    let machine = MachineConfig::small(2);
    let unit = WorkUnit {
        id: 0,
        mflop: 500.0,
        hint_mflop: 500.0,
    };
    let unit_secs = machine.work_time(unit.mflop).as_secs_f64();
    let spec = BenchSpec::figure3(machine, 4);
    // When rank 1 begins its first stolen unit: until then it was idle.
    let first_compute_on_rank_1 = |cfg: PremaConfig| {
        let sink = TraceSink::with_capacity(2, 1 << 12);
        prema_drv::run_units(machine, &[vec![unit; 8], vec![]], cfg, Some(sink.clone()));
        let compute = Category::Computation as u8;
        let is_compute = |r: &Record| {
            r.rank == 1 && matches!(r.ev, TraceEvent::Span { cat, .. } if cat == compute)
        };
        let first = sink.drain().into_iter().find(is_compute);
        first.expect("rank 1 never computed").t as f64 / 1e9
    };
    let implicit = first_compute_on_rank_1(prema_drv::implicit_cfg(&spec));
    assert!(
        implicit <= 2.0 * POLL_INTERVAL.as_secs_f64(),
        "implicit: rank 1 idle {implicit} s before its first stolen unit"
    );
    let explicit = first_compute_on_rank_1(prema_drv::explicit_cfg(&spec));
    assert!(
        explicit >= unit_secs,
        "explicit: rank 1 computing at {explicit} s, before rank 0's {unit_secs} s unit ended"
    );
}

/// Preemption is the whole difference between the modes: with the same
/// water-mark, a polling thread slower than the longest unit (1.5 s) never
/// wakes inside one and the run is the explicit run; at 50 ms it is well
/// ahead. (The `ablate_poll_interval` bench prints the sweep.)
#[test]
fn implicit_degrades_to_explicit_as_the_poll_interval_outgrows_the_unit() {
    let spec = BenchSpec::figure3(MachineConfig::small(32), 40);
    let with_mode = |mode| {
        let cfg = PremaConfig {
            mode,
            ..prema_drv::implicit_cfg(&spec)
        };
        prema_drv::run(&spec, cfg).makespan.as_secs_f64()
    };
    let implicit = |ms| {
        with_mode(LbMode::Implicit {
            poll_interval: Duration::from_millis(ms),
        })
    };
    let explicit = with_mode(LbMode::Explicit);
    let slow = implicit(2000);
    assert!(
        (slow / explicit - 1.0).abs() < 0.01,
        "2000 ms polling {slow} s vs explicit {explicit} s"
    );
    let fast = implicit(50);
    assert!(
        fast <= 0.9 * explicit,
        "50 ms polling {fast} s vs explicit {explicit} s"
    );
}

/// The unmodified stack at the paper's machine size, with every oracle on
/// (tests build `check-invariants`: `Scheduler::verify_invariants` and the
/// MOL's conservation check run after every poll and finish): each unit
/// executes exactly once, wherever stealing took it.
#[test]
fn the_real_stack_runs_128_ranks_under_the_oracles() {
    let spec = BenchSpec::figure4(MachineConfig::small(128), 64);
    let units: Vec<Vec<WorkUnit>> = (0..128).map(|p| spec.units_of_proc(p)).collect();
    let run = prema_drv::run_units(spec.machine, &units, prema_drv::implicit_cfg(&spec), None);
    let executed: u64 = run.sched.iter().map(|s| s.executed).sum();
    assert_eq!(executed, spec.total_units() as u64);
    assert!(run.sched.iter().all(|s| s.dropped_work == 0));
    assert!(run.mol.iter().all(|m| m.duplicates == 0));
    assert!(
        run.sched.iter().map(|s| s.granted).sum::<u64>() > 0,
        "nothing was stolen"
    );
}
