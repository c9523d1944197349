//! The migration stability governor (DESIGN.md §14).
//!
//! On an oversubscribed host the quickstart workload used to report ~37M
//! `migrations_in` for 400 work units: every rank time-slicing one core saw
//! everyone else as idle, begged, and the same objects ping-ponged far faster
//! than they executed. The governor kills that churn at the *mechanism*
//! layer, so every policy benefits, with three independent guards:
//!
//! 1. **Minimum residency** — an object that migrated in must execute one
//!    unit or age [`StabilityConfig::min_residency_polls`] polls before it is
//!    grantable again.
//! 2. **Migration-rate cap** — at most [`StabilityConfig::migration_cap`]
//!    objects leave a rank per window; a window ends after
//!    [`StabilityConfig::cap_window_polls`] polls or at the polling thread's
//!    next pass, whichever comes first (DESIGN.md §19).
//! 3. **Grant hysteresis** — a work request is refused outright unless the
//!    donor's weight exceeds the requester's by more than
//!    [`StabilityConfig::hysteresis_band`].
//!
//! Ticks are scheduler poll counts: the governor reads no clock, so it is
//! deterministic under test and in the simulator. The one wall-clock edge it
//! sees is handed to it — [`Governor::roll_window`], called once per
//! `Scheduler::poll_system` pass, which only the runtime's polling thread
//! (every `poll_interval`) and tests that mean it ever make. How long a poll
//! count lasts depends on who polls: a threaded rank with work queued polls
//! once per `dcs::WIRE_SLICE` (50 µs), an empty one on every step (DESIGN.md
//! §19's table).

use prema_dcs::FxHashMap;
use prema_mol::MobilePtr;

/// Tunable limits for the scheduler's migration stability governor.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StabilityConfig {
    /// Polls a migrated-in object stays ungrantable unless it executes
    /// first. `0` disables the residency guard.
    pub min_residency_polls: u64,
    /// Maximum objects migrated out per window. `0` disables the cap.
    pub migration_cap: u32,
    /// Longest window, in polls, over which `migration_cap` applies. A
    /// `Scheduler::poll_system` pass (the polling thread's wake-up) ends the
    /// window early: a poll is not a time, and 64 of them last ~42 ms on a
    /// rank inside millisecond handlers, ~3 ms on sub-microsecond units
    /// (polled once per 50 µs slice), ~60 µs on an idle rank (DESIGN.md
    /// §19). A scheduler nobody ticks that way — explicit mode, the DES
    /// drivers — has this window alone.
    pub cap_window_polls: u64,
    /// Refuse work requests unless `local.weight - requester.weight` exceeds
    /// this. Negative values disable the hysteresis check.
    pub hysteresis_band: f64,
}

impl Default for StabilityConfig {
    fn default() -> Self {
        StabilityConfig {
            min_residency_polls: 16,
            migration_cap: 16,
            cap_window_polls: 64,
            hysteresis_band: 1.0,
        }
    }
}

impl StabilityConfig {
    /// A fully permissive configuration: every guard disabled (the pre-§14
    /// behavior, useful for A/B measurements).
    pub fn off() -> Self {
        StabilityConfig {
            min_residency_polls: 0,
            migration_cap: 0,
            cap_window_polls: 64,
            hysteresis_band: -1.0,
        }
    }

    /// This configuration with the `PREMA_MIN_RESIDENCY` (polls) and
    /// `PREMA_MIGRATION_CAP` (objects per window) environment knobs applied
    /// on top, when set and parseable. Unset values leave the corresponding
    /// field unchanged; malformed values warn once (via
    /// [`prema_dcs::env`]) and also leave it unchanged.
    pub fn from_env(self) -> Self {
        let mut cfg = self;
        if let Some(v) = prema_dcs::env::u64_var("PREMA_MIN_RESIDENCY") {
            cfg.min_residency_polls = v;
        }
        if let Some(v) = prema_dcs::env::u32_var("PREMA_MIGRATION_CAP") {
            cfg.migration_cap = v;
        }
        cfg
    }
}

/// Why the governor vetoed a migration or a grant; carried in the
/// `lb_veto` trace event and tallied in `SchedStats`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VetoKind {
    /// Grant hysteresis: the weight gap did not exceed the band.
    Hysteresis,
    /// Minimum residency: the object migrated in too recently.
    Residency,
    /// Migration-rate cap: this window's budget is spent.
    RateCap,
}

impl VetoKind {
    /// Stable wire/trace code (`kind` field of the `lb_veto` event).
    pub fn code(self) -> u32 {
        match self {
            VetoKind::Hysteresis => 0,
            VetoKind::Residency => 1,
            VetoKind::RateCap => 2,
        }
    }
}

/// Mechanism-side governor state: one per scheduler.
pub struct Governor {
    cfg: StabilityConfig,
    /// Poll at which each currently-held object was installed. Entries are
    /// removed when the object executes, departs, or its hold expires.
    arrivals: FxHashMap<MobilePtr, u64>,
    window_start: u64,
    window_count: u32,
}

impl Governor {
    /// A governor enforcing `cfg`.
    pub fn new(cfg: StabilityConfig) -> Self {
        Governor {
            cfg,
            arrivals: FxHashMap::default(),
            window_start: 0,
            window_count: 0,
        }
    }

    /// The limits this governor enforces.
    pub fn config(&self) -> StabilityConfig {
        self.cfg
    }

    /// An object arrived via migration at poll `now`: start its residency
    /// hold.
    pub fn note_install(&mut self, ptr: MobilePtr, now: u64) {
        if self.cfg.min_residency_polls > 0 {
            self.arrivals.insert(ptr, now);
        }
    }

    /// The object began executing locally: it has earned residency. Called
    /// once per unit, and on most ranks no hold is active: that case costs
    /// no hash.
    pub fn note_executed(&mut self, ptr: MobilePtr) {
        if !self.arrivals.is_empty() {
            self.arrivals.remove(&ptr);
        }
    }

    /// The object migrated away: drop any hold state.
    pub fn note_departed(&mut self, ptr: MobilePtr) {
        self.arrivals.remove(&ptr);
    }

    /// Whether the residency guard currently blocks granting `ptr` away.
    /// Expired holds are pruned as a side effect.
    pub fn residency_held(&mut self, ptr: MobilePtr, now: u64) -> bool {
        let Some(&born) = self.arrivals.get(&ptr) else {
            return false;
        };
        if now.saturating_sub(born) >= self.cfg.min_residency_polls {
            self.arrivals.remove(&ptr);
            false
        } else {
            true
        }
    }

    /// Whether the weight gap `local - requester` clears the hysteresis
    /// band (a request may proceed to the policy's grant decision).
    pub fn hysteresis_ok(&self, local_weight: f64, requester_weight: f64) -> bool {
        local_weight - requester_weight > self.cfg.hysteresis_band
    }

    /// Whether this window still has migration budget at poll `now`. Rolls
    /// the window forward as a side effect; does not consume budget.
    pub fn migration_allowed(&mut self, now: u64) -> bool {
        if self.cfg.migration_cap == 0 {
            return true;
        }
        if now.saturating_sub(self.window_start) >= self.cfg.cap_window_polls {
            self.roll_window(now);
        }
        self.window_count < self.cfg.migration_cap
    }

    /// The polling thread woke at poll `now`: start a new window whatever
    /// the old one's age. One pass still exports at most `migration_cap`
    /// objects, so requests answered together share one budget.
    pub fn roll_window(&mut self, now: u64) {
        self.window_start = now;
        self.window_count = 0;
    }

    /// Consume one unit of this window's migration budget (call after a
    /// successful migrate).
    pub fn note_migration(&mut self) {
        self.window_count = self.window_count.saturating_add(1);
    }

    /// Objects currently under a residency hold (for tests and reports).
    pub fn held_count(&self) -> usize {
        self.arrivals.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ptr(index: u64) -> MobilePtr {
        MobilePtr { home: 0, index }
    }

    #[test]
    fn residency_holds_until_age_or_execution() {
        let mut g = Governor::new(StabilityConfig {
            min_residency_polls: 10,
            ..StabilityConfig::off()
        });
        g.note_install(ptr(1), 100);
        g.note_install(ptr(2), 100);
        assert!(g.residency_held(ptr(1), 105));
        assert!(!g.residency_held(ptr(1), 110), "hold must expire by age");
        g.note_executed(ptr(2));
        assert!(!g.residency_held(ptr(2), 101), "execution earns residency");
        // Never-installed objects (registered locally) are never held.
        assert!(!g.residency_held(ptr(3), 0));
    }

    #[test]
    fn expired_holds_are_pruned() {
        let mut g = Governor::new(StabilityConfig {
            min_residency_polls: 5,
            ..StabilityConfig::off()
        });
        g.note_install(ptr(1), 0);
        assert_eq!(g.held_count(), 1);
        assert!(!g.residency_held(ptr(1), 50));
        assert_eq!(g.held_count(), 0);
    }

    #[test]
    fn zero_residency_disables_the_guard() {
        let mut g = Governor::new(StabilityConfig::off());
        g.note_install(ptr(1), 0);
        assert!(!g.residency_held(ptr(1), 0));
    }

    #[test]
    fn rate_cap_replenishes_per_window() {
        let mut g = Governor::new(StabilityConfig {
            migration_cap: 2,
            cap_window_polls: 10,
            ..StabilityConfig::off()
        });
        assert!(g.migration_allowed(0));
        g.note_migration();
        assert!(g.migration_allowed(1));
        g.note_migration();
        assert!(!g.migration_allowed(5), "budget spent mid-window");
        assert!(g.migration_allowed(10), "new window replenishes");
        assert!(g.migration_allowed(11));
    }

    #[test]
    fn zero_cap_means_unlimited() {
        let mut g = Governor::new(StabilityConfig::off());
        for _ in 0..1000 {
            assert!(g.migration_allowed(3));
            g.note_migration();
        }
    }

    #[test]
    fn hysteresis_band_gates_on_strict_gap() {
        let g = Governor::new(StabilityConfig {
            hysteresis_band: 1.0,
            ..StabilityConfig::off()
        });
        assert!(!g.hysteresis_ok(1.0, 0.5));
        assert!(!g.hysteresis_ok(1.0, 0.0), "gap equal to band refuses");
        assert!(g.hysteresis_ok(2.5, 1.0));
        // A negative band disables the check even for equal loads.
        let off = Governor::new(StabilityConfig::off());
        assert!(off.hysteresis_ok(3.0, 3.0));
    }

    #[test]
    fn env_overrides_apply_when_set() {
        // Process-global env: use names no other test touches.
        std::env::set_var("PREMA_MIN_RESIDENCY", "42");
        std::env::set_var("PREMA_MIGRATION_CAP", "7");
        let cfg = StabilityConfig::default().from_env();
        assert_eq!(cfg.min_residency_polls, 42);
        assert_eq!(cfg.migration_cap, 7);
        std::env::set_var("PREMA_MIN_RESIDENCY", "not-a-number");
        let cfg2 = StabilityConfig::default().from_env();
        assert_eq!(
            cfg2.min_residency_polls,
            StabilityConfig::default().min_residency_polls,
            "malformed values fall back to the configured default"
        );
        std::env::remove_var("PREMA_MIN_RESIDENCY");
        std::env::remove_var("PREMA_MIGRATION_CAP");
    }
}
