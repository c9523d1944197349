//! Pins the baseline model drivers run for run: each processor's breakdown
//! CSV ([`SimReport::render_csv`]) and message count, for no load balancing
//! and stop-and-repartition on the synthetic benchmark (Figs 3–6 at test
//! scale) and on the mesh study, and for the Charm++ model with 0 and 4
//! synchronization points on the benchmark.
//!
//! The fixtures are the drivers' exact output; a change that moves any of
//! them is a change to a reproduced number, and must say so.

use prema_harness::drivers::{charm_drv, nolb, parmetis_drv};
use prema_harness::mesh_eval::{self, CostMatrix, MeshEvalSpec};
use prema_harness::spec::BenchSpec;
use prema_sim::SimReport;
use std::fmt::Write as _;
use std::rc::Rc;

/// The breakdown CSV plus one `msgs` row: messages sent per processor.
fn render(report: &SimReport) -> String {
    let mut s = report.render_csv();
    s.push_str("msgs");
    for m in &report.msgs_sent {
        let _ = write!(s, ",{m}");
    }
    s.push('\n');
    s
}

fn assert_pinned(name: &str, report: &SimReport, fixture: &str) {
    let got = render(report);
    assert!(
        got == fixture,
        "{name} moved from its fixture; it now renders as:\n{got}"
    );
}

#[test]
fn nolb_matches_its_fixtures() {
    let fixtures = [
        include_str!("fixtures/model_drivers/nolb_fig3.csv"),
        include_str!("fixtures/model_drivers/nolb_fig4.csv"),
        include_str!("fixtures/model_drivers/nolb_fig5.csv"),
        include_str!("fixtures/model_drivers/nolb_fig6.csv"),
    ];
    for (fig, fixture) in (3u32..=6).zip(fixtures) {
        let report = nolb::run(&BenchSpec::test_scale(fig));
        assert_pinned(&format!("nolb fig {fig}"), &report, fixture);
    }
}

#[test]
fn stop_and_repartition_matches_its_fixtures() {
    let fixtures = [
        include_str!("fixtures/model_drivers/parmetis_fig3.csv"),
        include_str!("fixtures/model_drivers/parmetis_fig4.csv"),
        include_str!("fixtures/model_drivers/parmetis_fig5.csv"),
        include_str!("fixtures/model_drivers/parmetis_fig6.csv"),
    ];
    for (fig, fixture) in (3u32..=6).zip(fixtures) {
        let report = parmetis_drv::run(
            &BenchSpec::test_scale(fig),
            parmetis_drv::ParMetisCfg::default(),
        );
        assert_pinned(&format!("parmetis fig {fig}"), &report, fixture);
    }
}

#[test]
fn charm_matches_its_fixtures() {
    let fixtures = [
        (0, include_str!("fixtures/model_drivers/charm0_fig3.csv")),
        (0, include_str!("fixtures/model_drivers/charm0_fig4.csv")),
        (0, include_str!("fixtures/model_drivers/charm0_fig5.csv")),
        (0, include_str!("fixtures/model_drivers/charm0_fig6.csv")),
        (4, include_str!("fixtures/model_drivers/charm4_fig3.csv")),
        (4, include_str!("fixtures/model_drivers/charm4_fig4.csv")),
        (4, include_str!("fixtures/model_drivers/charm4_fig5.csv")),
        (4, include_str!("fixtures/model_drivers/charm4_fig6.csv")),
    ];
    for (i, (sync_points, fixture)) in fixtures.into_iter().enumerate() {
        let fig = 3 + i as u32 % 4;
        let report = charm_drv::run(&BenchSpec::test_scale(fig), sync_points);
        assert_pinned(
            &format!("charm {sync_points} sync points fig {fig}"),
            &report,
            fixture,
        );
    }
}

#[test]
fn mesh_baselines_match_their_fixtures() {
    let spec = MeshEvalSpec::test_scale();
    let matrix = Rc::new(CostMatrix::generate(&spec));
    assert_pinned(
        "mesh no LB",
        &mesh_eval::run_nolb(&spec, &matrix),
        include_str!("fixtures/model_drivers/mesh_nolb.csv"),
    );
    assert_pinned(
        "mesh stop-and-repartition",
        &mesh_eval::run_stop_repartition(&spec, &matrix),
        include_str!("fixtures/model_drivers/mesh_stop_repartition.csv"),
    );
}
