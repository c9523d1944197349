//! Uniform reporting across the six benchmark configurations.

use prema_sim::{Category, Record, SimReport, SimTime};

/// The six configurations of Figures 3–6, panels (a)–(f).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Config {
    /// (a) No load balancing.
    NoLb,
    /// (b) PREMA with explicit load balancing.
    PremaExplicit,
    /// (c) PREMA with implicit (preemptive) load balancing.
    PremaImplicit,
    /// (d) ParMETIS-style stop-and-repartition.
    ParMetis,
    /// (e) Charm++ with no synchronization points (I = 1).
    CharmNoSync,
    /// (f) Charm++ with 4 synchronization points (I = 4).
    CharmSync4,
}

impl Config {
    /// All six, in panel order.
    pub const ALL: [Config; 6] = [
        Config::NoLb,
        Config::PremaExplicit,
        Config::PremaImplicit,
        Config::ParMetis,
        Config::CharmNoSync,
        Config::CharmSync4,
    ];

    /// Panel letter in the figures.
    pub fn panel(self) -> char {
        match self {
            Config::NoLb => 'a',
            Config::PremaExplicit => 'b',
            Config::PremaImplicit => 'c',
            Config::ParMetis => 'd',
            Config::CharmNoSync => 'e',
            Config::CharmSync4 => 'f',
        }
    }

    /// Label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            Config::NoLb => "No Load Balancing",
            Config::PremaExplicit => "PREMA (explicit)",
            Config::PremaImplicit => "PREMA (implicit)",
            Config::ParMetis => "ParMETIS stop-and-repartition",
            Config::CharmNoSync => "Charm++ (no sync points)",
            Config::CharmSync4 => "Charm++ (4 sync points)",
        }
    }
}

/// One figure: six panels of per-processor breakdowns.
pub struct FigureReport {
    /// Figure number (3–6).
    pub figure: u32,
    /// `(config, report)` pairs in panel order.
    pub panels: Vec<(Config, SimReport)>,
}

impl FigureReport {
    /// Look up a panel.
    pub fn get(&self, c: Config) -> &SimReport {
        &self
            .panels
            .iter()
            .find(|(k, _)| *k == c)
            .expect("missing panel")
            .1
    }

    /// Render the whole figure as text tables plus a summary comparison.
    pub fn render(&self, stride: usize) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "==== Figure {}: per-processor time breakdowns ====\n",
            self.figure
        ));
        for (cfg, rep) in &self.panels {
            s.push_str(&rep.render_table(
                &format!("Fig {}({}) {}", self.figure, cfg.panel(), cfg.label()),
                stride,
            ));
            s.push('\n');
        }
        s.push_str(&self.summary());
        s
    }

    /// The one-line-per-panel summary (makespans, quality, overheads).
    pub fn summary(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!("---- Figure {} summary ----\n", self.figure));
        s.push_str(&format!(
            "{:<34} {:>10} {:>12} {:>12} {:>10}\n",
            "config", "makespan", "cpu-stddev", "overhead%", "sync%"
        ));
        for (cfg, rep) in &self.panels {
            s.push_str(&format!(
                "({}) {:<30} {:>9.1}s {:>11.2}s {:>11.4}% {:>9.3}%\n",
                cfg.panel(),
                cfg.label(),
                rep.makespan.as_secs_f64(),
                rep.stddev_of(Category::Computation),
                rep.overhead_fraction() * 100.0,
                rep.sync_fraction() * 100.0
            ));
        }
        s
    }

    /// Makespan of a panel in seconds.
    pub fn makespan_secs(&self, c: Config) -> f64 {
        self.get(c).makespan.as_secs_f64()
    }
}

/// Rebuild a per-processor [`SimReport`] from raw trace records: the table
/// [`crate::trace_report`] prints from a JSONL dump. Every simulated
/// nanosecond is recorded as exactly one `Span`, so on a complete trace the
/// result's breakdowns, finish times, and message counters equal the
/// engine's own report — the cross-check that the figure tables and the
/// trace agree (`tests/trace_crosscheck.rs`). Records of a rank at or past
/// `nprocs` are left out. The fold is `trace_report`'s, whose `match` names
/// every [`prema_sim::TraceEvent`].
///
/// `events` is not reconstructible from a trace and is reported as 0.
pub fn breakdown_from_trace(records: &[Record], nprocs: usize) -> SimReport {
    crate::trace_report::table(records.iter().filter(|r| r.rank < nprocs), nprocs)
}

/// Saving of `b` relative to `a`: `(a - b)/a` (what the paper quotes as "30%
/// overall runtime savings over no load balancing").
pub fn savings(a: SimTime, b: SimTime) -> f64 {
    let (a, b) = (a.as_secs_f64(), b.as_secs_f64());
    if a == 0.0 {
        0.0
    } else {
        (a - b) / a
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_metadata() {
        assert_eq!(Config::ALL.len(), 6);
        let panels: Vec<char> = Config::ALL.iter().map(|c| c.panel()).collect();
        assert_eq!(panels, vec!['a', 'b', 'c', 'd', 'e', 'f']);
    }

    #[test]
    fn savings_formula() {
        assert!((savings(SimTime::from_secs(100), SimTime::from_secs(70)) - 0.30).abs() < 1e-12);
        assert_eq!(savings(SimTime::ZERO, SimTime::from_secs(1)), 0.0);
    }
}
