//! PREMA runtime configuration.

use prema_ilb::{
    Anticipatory, Diffusion, Gradient, LbPolicy, Multilist, StabilityConfig, WorkStealing,
};
use std::time::Duration;

/// When the load balancer gets control (§4.1 / §4.2 of the paper).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LbMode {
    /// No load balancing at all (the evaluation's baseline (a)).
    Disabled,
    /// Explicit: the balancer runs only inside application-posted polling
    /// operations. Cheap, but coarse work units delay balancer messages.
    Explicit,
    /// Implicit (preemptive): a polling thread additionally wakes at fixed
    /// intervals and processes *system* messages while work units execute.
    /// Application messages are never touched preemptively, so the
    /// single-threaded programming model is preserved.
    Implicit {
        /// Polling-thread wake-up period.
        poll_interval: Duration,
    },
}

/// Which bundled policy to plug into the framework.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum PolicyKind {
    /// Paired-neighbor work stealing with a weight water-mark (§4).
    WorkStealing {
        /// Request work when queued weight falls to or below this.
        watermark: f64,
    },
    /// Cybenko diffusion over the hypercube/ring neighborhood.
    Diffusion {
        /// Ignore load differences below this weight.
        threshold: f64,
    },
    /// Multilist scheduling (best-of-known victim selection).
    Multilist {
        /// Request work at or below this many queued units.
        low_units: usize,
    },
    /// Gradient model: beg from the nearest known overloaded processor.
    Gradient {
        /// Underload water-mark (weight-hint units).
        low_weight: f64,
        /// Overload threshold for granting.
        high_weight: f64,
    },
    /// Diffusion driven by forecast load (EWMA + trend) instead of the
    /// instantaneous weight, so ramping ranks shed work before the imbalance
    /// materializes (DESIGN.md §14).
    AnticipatoryDiffusion {
        /// Ignore load differences below this weight.
        threshold: f64,
    },
}

impl PolicyKind {
    /// Instantiate the policy (seeded for reproducibility).
    pub fn build(self, seed: u64) -> Box<dyn LbPolicy> {
        match self {
            PolicyKind::WorkStealing { watermark } => Box::new(WorkStealing::new(watermark, seed)),
            PolicyKind::Diffusion { threshold } => Box::new(Diffusion::new(threshold)),
            PolicyKind::Multilist { low_units } => Box::new(Multilist::new(low_units, seed)),
            PolicyKind::Gradient {
                low_weight,
                high_weight,
            } => Box::new(Gradient::new(low_weight, high_weight)),
            PolicyKind::AnticipatoryDiffusion { threshold } => {
                Box::new(Anticipatory::new(Box::new(Diffusion::new(threshold))))
            }
        }
    }
}

/// Full runtime configuration.
#[derive(Clone, Copy, Debug)]
pub struct PremaConfig {
    /// Number of ranks (threads) to launch.
    pub nprocs: usize,
    /// Load-balancer invocation mode.
    pub mode: LbMode,
    /// Load-balancing policy.
    pub policy: PolicyKind,
    /// RNG seed for policies.
    pub seed: u64,
    /// Pin each rank's application thread (and, in implicit mode, its
    /// polling thread) to a fixed core, rank-round-robin over the machine's
    /// cores — keeps each ring pair's cache lines bouncing between exactly
    /// two cores (see `crate::affinity`). Off in every preset; the
    /// `PREMA_PIN_CORES` environment variable (`1`/`true`/`on` to enable,
    /// anything else to disable), when set, overrides this field at launch.
    pub pin_cores: bool,
    /// Migration stability governor (DESIGN.md §14): per-object minimum
    /// residency, per-rank migration-rate cap, and grant hysteresis. On (at
    /// the defaults) in every preset; the `PREMA_MIN_RESIDENCY` /
    /// `PREMA_MIGRATION_CAP` environment knobs, when set, override the
    /// corresponding fields at launch.
    pub stability: StabilityConfig,
}

impl PremaConfig {
    /// The configuration the paper's evaluation calls "PREMA with implicit
    /// load balancing": work stealing + preemptive polling.
    pub fn implicit(nprocs: usize) -> Self {
        PremaConfig {
            nprocs,
            mode: LbMode::Implicit {
                poll_interval: Duration::from_millis(1),
            },
            policy: PolicyKind::WorkStealing { watermark: 1.0 },
            seed: 0xC0FFEE,
            pin_cores: false,
            stability: StabilityConfig::default(),
        }
    }

    /// This configuration with rank threads pinned to cores (see
    /// [`PremaConfig::pin_cores`]).
    pub fn with_pinning(self, on: bool) -> Self {
        PremaConfig {
            pin_cores: on,
            ..self
        }
    }

    /// This configuration with the given migration stability governor
    /// settings (use [`StabilityConfig::off`] to reproduce the pre-governor
    /// behavior).
    pub fn with_stability(self, stability: StabilityConfig) -> Self {
        PremaConfig { stability, ..self }
    }

    /// "PREMA with explicit load balancing".
    pub fn explicit(nprocs: usize) -> Self {
        PremaConfig {
            mode: LbMode::Explicit,
            ..Self::implicit(nprocs)
        }
    }

    /// No load balancing.
    pub fn disabled(nprocs: usize) -> Self {
        PremaConfig {
            mode: LbMode::Disabled,
            ..Self::implicit(nprocs)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_have_expected_modes() {
        assert!(matches!(
            PremaConfig::implicit(4).mode,
            LbMode::Implicit { .. }
        ));
        assert_eq!(PremaConfig::explicit(4).mode, LbMode::Explicit);
        assert_eq!(PremaConfig::disabled(4).mode, LbMode::Disabled);
        assert_eq!(PremaConfig::implicit(4).nprocs, 4);
    }

    #[test]
    fn pinning_is_off_in_every_preset() {
        assert!(!PremaConfig::implicit(4).pin_cores);
        assert!(!PremaConfig::explicit(4).pin_cores);
        assert!(!PremaConfig::disabled(4).pin_cores);
        assert!(PremaConfig::implicit(4).with_pinning(true).pin_cores);
        assert!(
            !PremaConfig::implicit(4)
                .with_pinning(true)
                .with_pinning(false)
                .pin_cores
        );
    }

    #[test]
    fn policies_instantiate() {
        assert_eq!(
            PolicyKind::WorkStealing { watermark: 2.0 }.build(1).name(),
            "work-stealing"
        );
        assert_eq!(
            PolicyKind::Diffusion { threshold: 0.5 }.build(1).name(),
            "diffusion"
        );
        assert_eq!(
            PolicyKind::Multilist { low_units: 1 }.build(1).name(),
            "multilist"
        );
        assert_eq!(
            PolicyKind::Gradient {
                low_weight: 1.0,
                high_weight: 2.0
            }
            .build(1)
            .name(),
            "gradient"
        );
        assert_eq!(
            PolicyKind::AnticipatoryDiffusion { threshold: 0.5 }
                .build(1)
                .name(),
            "anticipatory"
        );
    }

    #[test]
    fn stability_defaults_on_and_builder_overrides() {
        assert_eq!(
            PremaConfig::implicit(4).stability,
            StabilityConfig::default()
        );
        let off = PremaConfig::implicit(4).with_stability(StabilityConfig::off());
        assert_eq!(off.stability, StabilityConfig::off());
    }
}
