//! The synthetic microbenchmark of §5.
//!
//! Command-line parameters of the paper's benchmark: number of work units,
//! min/max computational weight, initial imbalance percentage. Work units are
//! created, distributed block-wise to processors by global index, assigned a
//! weight (the first `imbalance` fraction of the global index space is
//! "heavy"), and then control is handed to the runtime and the load balancer.
//! There is no communication between work units and units may execute in any
//! order.
//!
//! Load-balancing methods that rely on application-supplied hints are
//! *intentionally fed inaccurate information* (every hint equals the mean
//! weight), reflecting how little adaptive applications know about pending
//! work.

use prema_sim::MachineConfig;

/// One work unit of the benchmark.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WorkUnit {
    /// Global index.
    pub id: u32,
    /// True computational weight, in Mflop.
    pub mflop: f64,
    /// The (inaccurate) hint the application gives the load balancer.
    pub hint_mflop: f64,
}

/// Full benchmark specification.
#[derive(Clone, Copy, Debug)]
pub struct BenchSpec {
    /// The simulated machine.
    pub machine: MachineConfig,
    /// Work units per processor (block-distributed by global index).
    pub units_per_proc: usize,
    /// Weight of a heavy unit, Mflop.
    pub heavy_mflop: f64,
    /// Weight of a light unit, Mflop.
    pub light_mflop: f64,
    /// Fraction of all units that are heavy (the paper's "initial imbalance
    /// percentage": 0.5 or 0.1).
    pub imbalance: f64,
    /// RNG seed for runtime policies.
    pub seed: u64,
}

impl BenchSpec {
    /// Total number of work units.
    pub fn total_units(&self) -> usize {
        self.machine.procs * self.units_per_proc
    }

    /// The mean unit weight, Mflop: the hint every unit carries.
    pub fn mean_mflop(&self) -> f64 {
        self.imbalance * self.heavy_mflop + (1.0 - self.imbalance) * self.light_mflop
    }

    /// Generate all work units in global-index order. The first
    /// `imbalance × total` units are heavy; hints are uninformative (every
    /// unit reports the global mean weight).
    pub fn units(&self) -> Vec<WorkUnit> {
        let total = self.total_units();
        let heavy_cutoff = (self.imbalance * total as f64).round() as usize;
        let mean = self.mean_mflop();
        (0..total)
            .map(|i| WorkUnit {
                id: i as u32,
                mflop: if i < heavy_cutoff {
                    self.heavy_mflop
                } else {
                    self.light_mflop
                },
                hint_mflop: mean,
            })
            .collect()
    }

    /// The units initially assigned to processor `p` (block distribution:
    /// low-index processors receive the heavy block).
    pub fn units_of_proc(&self, p: usize) -> Vec<WorkUnit> {
        let all = self.units();
        let k = self.units_per_proc;
        all[p * k..(p + 1) * k].to_vec()
    }

    /// Ideal (perfectly balanced) per-processor computation time, in seconds
    /// — the lower bound every load balancer chases.
    pub fn balanced_compute_secs(&self) -> f64 {
        let total_mflop: f64 = self.units().iter().map(|u| u.mflop).sum();
        total_mflop / self.machine.mflops / self.machine.procs as f64
    }

    /// Per-processor compute time with no load balancing (the maximum over
    /// processors — i.e. processor 0's block).
    pub fn nolb_makespan_secs(&self) -> f64 {
        (0..self.machine.procs)
            .map(|p| {
                self.units_of_proc(p)
                    .iter()
                    .map(|u| u.mflop / self.machine.mflops)
                    .sum::<f64>()
            })
            .fold(0.0, f64::max)
    }

    // ---- The paper's four figure configurations -------------------------

    /// Figure 3: 50% imbalance, heavy = 2 × light (500 vs 250 Mflop).
    pub fn figure3(machine: MachineConfig, units_per_proc: usize) -> Self {
        BenchSpec {
            machine,
            units_per_proc,
            heavy_mflop: 500.0,
            light_mflop: 250.0,
            imbalance: 0.5,
            seed: 3,
        }
    }

    /// Figure 4: 10% imbalance ("spike"), heavy = 2 × light.
    pub fn figure4(machine: MachineConfig, units_per_proc: usize) -> Self {
        BenchSpec {
            imbalance: 0.1,
            seed: 4,
            ..Self::figure3(machine, units_per_proc)
        }
    }

    /// Figure 5: 50% imbalance, heavy = 1.2 × light (300 vs 250 Mflop — the
    /// paper's Figure 5/6 bars (~760 s) imply the light weight stayed at 250
    /// and the heavy weight dropped to 1.2 × that).
    pub fn figure5(machine: MachineConfig, units_per_proc: usize) -> Self {
        BenchSpec {
            heavy_mflop: 300.0,
            light_mflop: 250.0,
            seed: 5,
            ..Self::figure3(machine, units_per_proc)
        }
    }

    /// Figure 6: 10% imbalance, heavy = 1.2 × light.
    pub fn figure6(machine: MachineConfig, units_per_proc: usize) -> Self {
        BenchSpec {
            imbalance: 0.1,
            seed: 6,
            ..Self::figure5(machine, units_per_proc)
        }
    }

    /// Paper-scale spec for a figure number (128 processors, enough units
    /// that the no-LB makespan lands near the paper's ~1300 s).
    pub fn paper_figure(n: u32) -> Self {
        let m = MachineConfig::paper_testbed();
        let upp = 860; // divisible by I = 1, 4, 5 (sync-point configs)
        match n {
            3 => Self::figure3(m, upp),
            4 => Self::figure4(m, upp),
            5 => Self::figure5(m, upp),
            6 => Self::figure6(m, upp),
            _ => panic!("no figure {n} in the paper's evaluation"),
        }
    }

    /// A small, fast configuration for unit tests.
    pub fn test_scale(n: u32) -> Self {
        let m = MachineConfig::small(8);
        let upp = 20; // divisible by I = 1, 4, 5
        match n {
            3 => Self::figure3(m, upp),
            4 => Self::figure4(m, upp),
            5 => Self::figure5(m, upp),
            6 => Self::figure6(m, upp),
            _ => panic!("no figure {n}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heavy_block_sits_at_low_indices() {
        let spec = BenchSpec::test_scale(3);
        let units = spec.units();
        assert_eq!(units.len(), 160);
        let heavy: Vec<bool> = units.iter().map(|u| u.mflop == 500.0).collect();
        assert_eq!(heavy.iter().filter(|&&h| h).count(), 80);
        assert!(heavy[..80].iter().all(|&h| h));
        assert!(heavy[80..].iter().all(|&h| !h));
    }

    #[test]
    fn hints_are_uninformative() {
        let spec = BenchSpec::test_scale(4);
        let units = spec.units();
        let mean = 0.1 * 500.0 + 0.9 * 250.0;
        for u in units {
            assert!((u.hint_mflop - mean).abs() < 1e-9);
        }
    }

    #[test]
    fn block_distribution_overloads_low_procs() {
        let spec = BenchSpec::test_scale(3);
        let w0: f64 = spec.units_of_proc(0).iter().map(|u| u.mflop).sum();
        let w7: f64 = spec.units_of_proc(7).iter().map(|u| u.mflop).sum();
        assert!(w0 > w7, "{w0} !> {w7}");
        assert_eq!(spec.units_of_proc(0).len(), 20);
    }

    #[test]
    fn analytic_bounds_make_sense() {
        let spec = BenchSpec::test_scale(3);
        let balanced = spec.balanced_compute_secs();
        let nolb = spec.nolb_makespan_secs();
        assert!(nolb > balanced * 1.2, "nolb {nolb} balanced {balanced}");
        // 50%/2x: no-LB max is all-heavy block = 1.5 s × units_per_proc…
        let expect = 20.0 * 500.0 / spec.machine.mflops;
        assert!((nolb - expect).abs() < 1e-9);
    }

    #[test]
    fn paper_scale_matches_figure3_magnitude() {
        let spec = BenchSpec::paper_figure(3);
        // All-heavy processor: 860 × 500 Mflop / 333 Mflop/s ≈ 1291 s — the
        // paper's Figure 3(a) bar (1296).
        let nolb = spec.nolb_makespan_secs();
        assert!((nolb - 1291.3).abs() < 2.0, "nolb = {nolb}");
        assert_eq!(spec.total_units(), 128 * 860);
    }

    #[test]
    fn figure5_ratio_is_twenty_percent() {
        let spec = BenchSpec::paper_figure(5);
        assert!((spec.heavy_mflop / spec.light_mflop - 1.2).abs() < 1e-9);
    }
}
