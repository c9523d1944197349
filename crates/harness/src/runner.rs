//! Orchestration: run all six configurations for one figure.

use crate::drivers::{charm_drv, nolb, parmetis_drv, prema_drv};
use crate::report::{Config, FigureReport};
use crate::spec::BenchSpec;
use prema_sim::{SimTime, TraceSink};
use std::sync::Arc;

/// Run every panel of a figure for `spec`.
pub fn run_figure(figure: u32, spec: &BenchSpec) -> FigureReport {
    run_figure_with_trace(figure, spec, None)
}

/// [`run_figure`], recording one panel's run into a trace sink.
pub fn run_figure_with_trace(
    figure: u32,
    spec: &BenchSpec,
    trace: Option<(Config, Arc<TraceSink>)>,
) -> FigureReport {
    let sink_for = |c: Config| {
        trace
            .as_ref()
            .filter(|(tc, _)| *tc == c)
            .map(|(_, s)| Arc::clone(s))
    };
    let implicit = prema_drv::implicit_cfg(spec);
    let explicit = prema_drv::explicit_cfg(spec);
    let panels = vec![
        (Config::NoLb, nolb::run_traced(spec, sink_for(Config::NoLb))),
        (
            Config::PremaExplicit,
            prema_drv::run_traced(spec, explicit, sink_for(Config::PremaExplicit)),
        ),
        (
            Config::PremaImplicit,
            prema_drv::run_traced(spec, implicit, sink_for(Config::PremaImplicit)),
        ),
        (
            Config::ParMetis,
            parmetis_drv::run_traced(
                spec,
                parmetis_drv::ParMetisCfg::default(),
                sink_for(Config::ParMetis),
            ),
        ),
        (
            Config::CharmNoSync,
            charm_drv::run_traced(spec, 0, sink_for(Config::CharmNoSync)),
        ),
        (
            Config::CharmSync4,
            charm_drv::run_traced(spec, 4, sink_for(Config::CharmSync4)),
        ),
    ];
    FigureReport { figure, panels }
}

/// Run a figure at full paper scale (128 processors).
pub fn run_paper_figure(figure: u32) -> FigureReport {
    run_figure(figure, &BenchSpec::paper_figure(figure))
}

/// Run a figure at fast test scale (8 processors).
pub fn run_test_figure(figure: u32) -> FigureReport {
    run_figure(figure, &BenchSpec::test_scale(figure))
}

/// The shape criteria the paper's §5 narrative asserts; returns a list of
/// `(criterion, pass)` pairs so callers (tests, EXPERIMENTS.md generation)
/// can check and report them uniformly.
pub fn shape_criteria(fig3: &FigureReport, fig4: &FigureReport) -> Vec<(String, bool)> {
    let mut out = Vec::new();
    let m = |r: &FigureReport, c| r.makespan_secs(c);

    // PREMA-implicit is the overall winner in both 2× figures.
    for (r, name) in [(fig3, "fig3"), (fig4, "fig4")] {
        let imp = m(r, Config::PremaImplicit);
        let best_other = Config::ALL
            .iter()
            .filter(|&&c| c != Config::PremaImplicit)
            .map(|&c| m(r, c))
            .fold(f64::INFINITY, f64::min);
        out.push((
            format!("{name}: PREMA-implicit has the minimum makespan"),
            imp <= best_other * 1.001,
        ));
    }
    // Fig 3: implicit ≈ 30% over NoLB, and ahead of ParMETIS.
    let save_nolb = 1.0 - m(fig3, Config::PremaImplicit) / m(fig3, Config::NoLb);
    out.push((
        format!(
            "fig3: implicit saves ≥20% over NoLB (paper: 30%; got {:.1}%)",
            save_nolb * 100.0
        ),
        save_nolb >= 0.20,
    ));
    let save_pm = 1.0 - m(fig3, Config::PremaImplicit) / m(fig3, Config::ParMetis);
    out.push((
        format!(
            "fig3: implicit beats ParMETIS (paper: 7.3%; got {:.1}%)",
            save_pm * 100.0
        ),
        save_pm > 0.0,
    ));
    // Fig 3: implicit beats explicit and Charm-no-sync. (The paper reports
    // ~30% for both; our explicit work stealing is more effective than the
    // 2003 implementation, so the explicit gap is smaller — see
    // EXPERIMENTS.md.)
    let save_exp = 1.0 - m(fig3, Config::PremaImplicit) / m(fig3, Config::PremaExplicit);
    out.push((
        format!(
            "fig3: implicit ≥5% ahead of PREMA-explicit (paper: ~30%; got {:.1}%)",
            save_exp * 100.0
        ),
        save_exp >= 0.05,
    ));
    let save_cn = 1.0 - m(fig3, Config::PremaImplicit) / m(fig3, Config::CharmNoSync);
    out.push((
        format!(
            "fig3: implicit ≥15% ahead of Charm++-no-sync (paper: ~30%; got {:.1}%)",
            save_cn * 100.0
        ),
        save_cn >= 0.15,
    ));
    // Fig 4: ParMETIS degrades — its advantage over NoLB shrinks to <15%.
    let pm_save4 = 1.0 - m(fig4, Config::ParMetis) / m(fig4, Config::NoLb);
    out.push((
        format!(
            "fig4: ParMETIS gains little over NoLB (got {:.1}%)",
            pm_save4 * 100.0
        ),
        pm_save4 < 0.15,
    ));
    // Fig 4: ParMETIS pays a much larger sync bill than in fig 3.
    let s3 = fig3.get(Config::ParMetis).sync_fraction();
    let s4 = fig4.get(Config::ParMetis).sync_fraction();
    out.push((
        format!(
            "ParMETIS sync cost grows from fig3 to fig4 ({:.1}% → {:.1}%; paper: 7.4% → 29.9%)",
            s3 * 100.0,
            s4 * 100.0
        ),
        s4 > s3,
    ));
    // PREMA-implicit overhead stays far below 1% everywhere.
    for (r, name) in [(fig3, "fig3"), (fig4, "fig4")] {
        let o = r.get(Config::PremaImplicit).overhead_fraction();
        out.push((
            format!(
                "{name}: implicit overhead < 0.5% (paper: ~0.03%; got {:.4}%)",
                o * 100.0
            ),
            o < 0.005,
        ));
    }
    // Quality: implicit's compute-stddev beats explicit's and Charm's (fig4,
    // the paper's quality discussion).
    let q = |c| fig4.get(c).stddev_of(prema_sim::Category::Computation);
    out.push((
        format!(
            "fig4 quality: stddev implicit ({:.1}) < explicit ({:.1}) and < Charm-no-sync ({:.1})",
            q(Config::PremaImplicit),
            q(Config::PremaExplicit),
            q(Config::CharmNoSync)
        ),
        q(Config::PremaImplicit) < q(Config::PremaExplicit)
            && q(Config::PremaImplicit) < q(Config::CharmNoSync),
    ));
    out
}

/// Quick sanity: all six panels computed the same total work.
pub fn assert_work_conserved(report: &FigureReport) {
    use prema_sim::Category;
    let base = report
        .get(Config::NoLb)
        .total_of(Category::Computation)
        .as_secs_f64();
    for (cfg, rep) in &report.panels {
        let t = rep.total_of(Category::Computation).as_secs_f64();
        assert!(
            (t - base).abs() < base * 1e-9 + 1e-6,
            "{}: computation {} differs from baseline {}",
            cfg.label(),
            t,
            base
        );
    }
    let _ = SimTime::ZERO;
}
