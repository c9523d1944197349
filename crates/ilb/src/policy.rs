//! Pluggable load-balancing policies.
//!
//! PREMA's framework separates *mechanism* (message routing, migration,
//! preemptive polling — the scheduler) from *policy* (when to move work,
//! where, how much — this module). The paper ships Work Stealing as its
//! running example and mentions a suite including Diffusion (Cybenko \[7\]) and
//! Multilist Scheduling (Wu \[23\]); all three are provided here, plus a
//! gradient-model variant, all behind one [`LbPolicy`] trait so applications
//! can plug in their own (reference \[1\]).
//!
//! Policies are **pure decision logic**: no I/O, no clocks. The same policy
//! objects drive both the real threaded runtime and the discrete-event
//! evaluation harness.

use prema_dcs::{FxHashMap, Rank};
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;

/// A processor's load at a point in time, as the balancer sees it.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LoadSnapshot {
    /// Queued work units.
    pub units: usize,
    /// Sum of the units' weight hints (may be inaccurate — the paper's §2).
    pub weight: f64,
}

/// The balancer's view of the machine: latest load report per rank. Fx-hashed
/// (ranks are runtime-internal keys) — the scheduler consults and updates this
/// map on every poll.
pub type LoadMap = FxHashMap<Rank, LoadSnapshot>;

/// A load-balancing policy: decides when this processor is underloaded, whom
/// to ask for work, and how much work to surrender to a requester.
pub trait LbPolicy: Send {
    /// Human-readable name for reports.
    fn name(&self) -> &'static str;

    /// The fixed neighborhood this processor exchanges load information
    /// with. Asynchronous policies use small neighborhoods so unaffected
    /// processors keep computing (§2).
    fn neighborhood(&self, me: Rank, nprocs: usize) -> Vec<Rank>;

    /// Is the local load below the water-mark (work should be requested)?
    fn is_underloaded(&self, local: &LoadSnapshot) -> bool;

    /// Pick a victim to request work from. `attempt` counts consecutive
    /// refusals in the current round; `known` holds the latest load reports.
    fn choose_victim(
        &mut self,
        me: Rank,
        nprocs: usize,
        known: &LoadMap,
        attempt: u32,
    ) -> Option<Rank>;

    /// How many queued work units to hand a requester (0 = refuse).
    fn grant_units(&self, local: &LoadSnapshot, requester: &LoadSnapshot) -> usize;

    /// Sender-initiated flows: given local load and neighbor reports, how
    /// much *weight* to push to each neighbor right now. Only diffusive
    /// policies implement this; the default pushes nothing.
    fn flows(&self, _me: Rank, _local: &LoadSnapshot, _known: &LoadMap) -> Vec<(Rank, f64)> {
        Vec::new()
    }
}

/// The partner of `me` in a pairwise exchange pattern (the paper's Work
/// Stealing pairs each processor with a single neighbor).
pub fn pair_partner(me: Rank, nprocs: usize) -> Rank {
    let p = me ^ 1;
    if p < nprocs {
        p
    } else {
        me // odd machine size: the last rank pairs with itself (no partner)
    }
}

/// Hypercube/ring neighborhood used by diffusive policies: the hypercube
/// neighbors when `nprocs` is a power of two, otherwise the ring neighbors.
pub fn diffusion_neighborhood(me: Rank, nprocs: usize) -> Vec<Rank> {
    if nprocs <= 1 {
        return Vec::new();
    }
    if nprocs.is_power_of_two() {
        let dims = nprocs.trailing_zeros();
        (0..dims).map(|d| me ^ (1 << d)).collect()
    } else {
        let left = (me + nprocs - 1) % nprocs;
        let right = (me + 1) % nprocs;
        if left == right {
            vec![left]
        } else {
            vec![left, right]
        }
    }
}

/// Units that would even out two queues: half the gap between them, none
/// when the requester's is the longer. A grant sized on the donor's queue
/// alone (`local.units / 2`) overshoots whenever the requester holds work:
/// 40 against 16 moved 20 and left 20 / 36.
fn half_gap(local: &LoadSnapshot, requester: &LoadSnapshot) -> usize {
    local.units.saturating_sub(requester.units) / 2
}

/// **Work Stealing** (the paper's §4 running example): a processor whose load
/// falls below an application-defined water-mark asks its partner for work;
/// on a refusal it retries with random victims.
///
/// ```
/// use prema_ilb::{LbPolicy, LoadSnapshot, WorkStealing};
/// let mut p = WorkStealing::new(2.0, 42);
/// assert!(p.is_underloaded(&LoadSnapshot { units: 1, weight: 1.0 }));
/// // First attempt always asks the paired partner.
/// let v = p.choose_victim(3, 8, &Default::default(), 0).unwrap();
/// assert_eq!(v, 2);
/// ```
pub struct WorkStealing {
    /// Request work when queued weight drops to or below this.
    pub watermark: f64,
    /// Keep at least this much weight when granting (the "cushion").
    pub keep: f64,
    rng: StdRng,
}

impl WorkStealing {
    /// Standard configuration: `watermark` in weight-hint units.
    pub fn new(watermark: f64, seed: u64) -> Self {
        WorkStealing {
            watermark,
            keep: watermark,
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl LbPolicy for WorkStealing {
    fn name(&self) -> &'static str {
        "work-stealing"
    }

    fn neighborhood(&self, me: Rank, nprocs: usize) -> Vec<Rank> {
        let p = pair_partner(me, nprocs);
        if p == me {
            Vec::new()
        } else {
            vec![p]
        }
    }

    fn is_underloaded(&self, local: &LoadSnapshot) -> bool {
        local.weight <= self.watermark
    }

    fn choose_victim(
        &mut self,
        me: Rank,
        nprocs: usize,
        known: &LoadMap,
        attempt: u32,
    ) -> Option<Rank> {
        if nprocs <= 1 {
            return None;
        }
        if attempt == 0 {
            let p = pair_partner(me, nprocs);
            if p != me {
                return Some(p);
            }
        }
        // After a refusal: prefer the heaviest known processor with
        // *grantable* weight, else random. Filtering on `units > 0` alone
        // re-begged victims at or below their keep cushion, which refuse
        // deterministically — a wasted round trip per attempt. (Cushions are
        // homogeneous across ranks in every shipped configuration, so our
        // own `keep` is the right estimate of theirs.)
        let best = known
            .iter()
            .filter(|(&r, s)| r != me && s.units > 1 && s.weight > self.keep)
            .max_by(|a, b| a.1.weight.total_cmp(&b.1.weight));
        if let Some((&r, _)) = best {
            return Some(r);
        }
        let mut v = self.rng.gen_range(0..nprocs - 1);
        if v >= me {
            v += 1;
        }
        Some(v)
    }

    fn grant_units(&self, local: &LoadSnapshot, requester: &LoadSnapshot) -> usize {
        if local.units <= 1 || local.weight <= self.keep {
            return 0; // keep the cushion; refuse
        }
        if requester.weight >= local.weight {
            return 0; // no poorer than us: granting would only ping-pong
        }
        // Poorer in weight, whatever the unit counts say: at least one unit.
        half_gap(local, requester).max(1)
    }
}

/// **Diffusion** (Cybenko \[7\]): load flows along neighborhood edges
/// proportionally to load differences, `flow(i→j) = (w_i − w_j)/(deg+1)`.
/// Purely sender-initiated; converges to global balance through local action.
pub struct Diffusion {
    /// Ignore differences below this weight (hysteresis).
    pub threshold: f64,
}

impl Diffusion {
    /// Diffusion with the given hysteresis threshold.
    pub fn new(threshold: f64) -> Self {
        Diffusion { threshold }
    }
}

impl LbPolicy for Diffusion {
    fn name(&self) -> &'static str {
        "diffusion"
    }

    fn neighborhood(&self, me: Rank, nprocs: usize) -> Vec<Rank> {
        diffusion_neighborhood(me, nprocs)
    }

    fn is_underloaded(&self, local: &LoadSnapshot) -> bool {
        // Diffusion is sender-initiated; receivers never beg.
        local.units == 0
    }

    fn choose_victim(
        &mut self,
        _me: Rank,
        _nprocs: usize,
        _known: &LoadMap,
        _attempt: u32,
    ) -> Option<Rank> {
        None
    }

    fn grant_units(&self, local: &LoadSnapshot, requester: &LoadSnapshot) -> usize {
        // Answer explicit requests generously anyway (hybrid operation) —
        // but only from genuinely poorer processors. Poorer is judged in
        // *weight*, like `flows` and the threshold: gating on unit counts
        // let a few heavy units out-grant many light ones.
        if local.units <= 1 || requester.weight >= local.weight - self.threshold {
            0
        } else {
            half_gap(local, requester).max(1)
        }
    }

    fn flows(&self, me: Rank, local: &LoadSnapshot, known: &LoadMap) -> Vec<(Rank, f64)> {
        let nbrs: Vec<Rank> = known.keys().copied().filter(|&r| r != me).collect();
        let deg = nbrs.len();
        if deg == 0 {
            return Vec::new();
        }
        let mut out = Vec::new();
        for r in nbrs {
            let their = known[&r].weight;
            let diff = local.weight - their;
            if diff > self.threshold {
                out.push((r, diff / (deg as f64 + 1.0)));
            }
        }
        out
    }
}

/// **Multilist Scheduling** (Wu \[23\]): conceptually, idle processors pull
/// from a distributed set of priority lists. Serial reconstruction:
/// receiver-initiated with *best-of-known* victim selection — an idle
/// processor consults every load report it has and raids the longest list.
pub struct Multilist {
    /// Request work when this few units remain.
    pub low_units: usize,
    rng: StdRng,
}

impl Multilist {
    /// Multilist scheduling with the given low-water unit count.
    pub fn new(low_units: usize, seed: u64) -> Self {
        Multilist {
            low_units,
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl LbPolicy for Multilist {
    fn name(&self) -> &'static str {
        "multilist"
    }

    fn neighborhood(&self, me: Rank, nprocs: usize) -> Vec<Rank> {
        // Everyone publishes to a small random-but-fixed subset: use the
        // hypercube neighborhood as the publication set.
        diffusion_neighborhood(me, nprocs)
    }

    fn is_underloaded(&self, local: &LoadSnapshot) -> bool {
        local.units <= self.low_units
    }

    fn choose_victim(
        &mut self,
        me: Rank,
        nprocs: usize,
        known: &LoadMap,
        _attempt: u32,
    ) -> Option<Rank> {
        if nprocs <= 1 {
            return None;
        }
        let best = known
            .iter()
            .filter(|(&r, s)| r != me && s.units > self.low_units)
            .max_by(|a, b| {
                a.1.units
                    .cmp(&b.1.units)
                    .then(a.1.weight.total_cmp(&b.1.weight))
            });
        if let Some((&r, _)) = best {
            return Some(r);
        }
        let mut v = self.rng.gen_range(0..nprocs - 1);
        if v >= me {
            v += 1;
        }
        Some(v)
    }

    fn grant_units(&self, local: &LoadSnapshot, requester: &LoadSnapshot) -> usize {
        if local.units <= self.low_units + 1 {
            return 0;
        }
        // Even out the two lists.
        half_gap(local, requester)
    }
}

/// **Gradient model** (Lin & Keller family): processors maintain a
/// "proximity" estimate — the distance to the nearest underloaded processor
/// — propagated through neighbor gossip; overloaded processors push work
/// toward decreasing proximity. This serial reconstruction keeps the
/// neighborhood gossip but folds the proximity walk into victim selection:
/// an underloaded processor asks its nearest known overloaded neighbor,
/// widening the search ring on every refusal.
pub struct Gradient {
    /// Underload threshold, in weight-hint units.
    pub low_weight: f64,
    /// Overload threshold for granting.
    pub high_weight: f64,
}

impl Gradient {
    /// A gradient policy with the given low/high water-marks.
    pub fn new(low_weight: f64, high_weight: f64) -> Self {
        assert!(high_weight >= low_weight);
        Gradient {
            low_weight,
            high_weight,
        }
    }
}

impl LbPolicy for Gradient {
    fn name(&self) -> &'static str {
        "gradient"
    }

    fn neighborhood(&self, me: Rank, nprocs: usize) -> Vec<Rank> {
        diffusion_neighborhood(me, nprocs)
    }

    fn is_underloaded(&self, local: &LoadSnapshot) -> bool {
        local.weight <= self.low_weight
    }

    fn choose_victim(
        &mut self,
        me: Rank,
        nprocs: usize,
        known: &LoadMap,
        attempt: u32,
    ) -> Option<Rank> {
        if nprocs <= 1 {
            return None;
        }
        // Nearest known overloaded processor by ring distance (the proximity
        // gradient), preferring heavier on ties.
        let ring_dist = |a: Rank, b: Rank| {
            let d = a.abs_diff(b);
            d.min(nprocs - d)
        };
        let best = known
            .iter()
            .filter(|(&r, s)| r != me && s.weight > self.high_weight)
            .min_by(|(&ra, sa), (&rb, sb)| {
                ring_dist(me, ra)
                    .cmp(&ring_dist(me, rb))
                    .then(sb.weight.total_cmp(&sa.weight))
            })
            .map(|(&r, _)| r);
        best.or_else(|| {
            // No gradient information: widen the ring deterministically,
            // alternating direction (+1, −1, +2, −2, …) so each attempt
            // probes a *new* rank. The old `(me + step) % nprocs` walk
            // revisited the same victims cyclically once `step` wrapped past
            // `nprocs`; now the sweep terminates once the ring is covered.
            let step = attempt as usize / 2 + 1;
            if step > nprocs / 2 {
                return None; // every rank has been probed this round
            }
            let v = if attempt.is_multiple_of(2) {
                (me + step) % nprocs
            } else {
                (me + nprocs - step) % nprocs
            };
            if v == me {
                None
            } else {
                Some(v)
            }
        })
    }

    fn grant_units(&self, local: &LoadSnapshot, requester: &LoadSnapshot) -> usize {
        if local.weight <= self.high_weight || local.units <= 1 {
            return 0;
        }
        if requester.weight >= local.weight {
            return 0;
        }
        half_gap(local, requester).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(units: usize, weight: f64) -> LoadSnapshot {
        LoadSnapshot { units, weight }
    }

    #[test]
    fn pairing_is_involutive() {
        for n in [2usize, 4, 8, 128] {
            for me in 0..n {
                let p = pair_partner(me, n);
                assert_eq!(pair_partner(p, n), me);
                assert_ne!(p, me);
            }
        }
        // Odd machine: last rank is partnerless.
        assert_eq!(pair_partner(2, 3), 2);
        assert_eq!(pair_partner(0, 3), 1);
    }

    #[test]
    fn hypercube_neighborhood_is_symmetric() {
        let n = 16;
        for me in 0..n {
            for nb in diffusion_neighborhood(me, n) {
                assert!(diffusion_neighborhood(nb, n).contains(&me));
            }
            assert_eq!(diffusion_neighborhood(me, n).len(), 4);
        }
    }

    #[test]
    fn ring_neighborhood_for_non_power_of_two() {
        assert_eq!(diffusion_neighborhood(0, 5), vec![4, 1]);
        assert_eq!(diffusion_neighborhood(4, 5), vec![3, 0]);
        assert_eq!(diffusion_neighborhood(0, 2), vec![1]);
        assert!(diffusion_neighborhood(0, 1).is_empty());
    }

    #[test]
    fn stealing_watermark_controls_underload() {
        let p = WorkStealing::new(2.0, 1);
        assert!(p.is_underloaded(&snap(1, 1.0)));
        assert!(p.is_underloaded(&snap(2, 2.0)));
        assert!(!p.is_underloaded(&snap(5, 10.0)));
    }

    #[test]
    fn stealing_first_victim_is_partner() {
        let mut p = WorkStealing::new(2.0, 1);
        let known = LoadMap::default();
        assert_eq!(p.choose_victim(4, 8, &known, 0), Some(5));
        assert_eq!(p.choose_victim(5, 8, &known, 0), Some(4));
    }

    #[test]
    fn stealing_retries_prefer_heaviest_known() {
        let mut p = WorkStealing::new(2.0, 1);
        let mut known = LoadMap::default();
        known.insert(2, snap(10, 50.0));
        known.insert(3, snap(4, 4.0));
        assert_eq!(p.choose_victim(0, 8, &known, 1), Some(2));
    }

    #[test]
    fn stealing_retries_skip_victims_without_grantable_weight() {
        let mut p = WorkStealing::new(2.0, 1);
        let mut known = LoadMap::default();
        // At the keep cushion (weight == keep): would refuse deterministically.
        known.insert(2, snap(5, 2.0));
        // A single queued unit: grant_units refuses regardless of weight.
        known.insert(3, snap(1, 50.0));
        // The only rank that can actually grant.
        known.insert(4, snap(4, 3.0));
        assert_eq!(p.choose_victim(0, 8, &known, 1), Some(4));
        // With no grantable candidate the retry falls back to random
        // victims rather than re-begging a known refuser.
        known.remove(&4);
        for attempt in 1..10 {
            let v = p.choose_victim(0, 8, &known, attempt).unwrap();
            assert_ne!(v, 0);
            assert!(v < 8);
        }
    }

    #[test]
    fn stealing_never_chooses_self() {
        let mut p = WorkStealing::new(2.0, 7);
        for attempt in 1..20 {
            let v = p.choose_victim(3, 8, &LoadMap::default(), attempt).unwrap();
            assert_ne!(v, 3);
            assert!(v < 8);
        }
    }

    #[test]
    fn stealing_grant_keeps_cushion() {
        let p = WorkStealing::new(2.0, 1);
        assert_eq!(p.grant_units(&snap(1, 10.0), &snap(0, 0.0)), 0);
        assert_eq!(
            p.grant_units(&snap(10, 1.0), &snap(0, 0.0)),
            0,
            "below keep"
        );
        assert_eq!(p.grant_units(&snap(10, 100.0), &snap(0, 0.0)), 5);
    }

    #[test]
    fn diffusion_flows_downhill_only() {
        let d = Diffusion::new(0.5);
        let mut known = LoadMap::default();
        known.insert(1, snap(2, 2.0));
        known.insert(2, snap(20, 20.0));
        let flows = d.flows(0, &snap(10, 10.0), &known);
        assert_eq!(flows.len(), 1);
        let (to, amount) = flows[0];
        assert_eq!(to, 1);
        // (10-2)/(2+1)
        assert!((amount - 8.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn diffusion_respects_threshold() {
        let d = Diffusion::new(5.0);
        let mut known = LoadMap::default();
        known.insert(1, snap(2, 6.0));
        assert!(d.flows(0, &snap(3, 10.0), &known).is_empty());
    }

    #[test]
    fn diffusion_conserves_nonnegativity() {
        // Total outflow never exceeds local weight (Cybenko condition):
        // with deg neighbors, each flow ≤ diff/(deg+1) ≤ w/(deg+1).
        let d = Diffusion::new(0.0);
        let mut known = LoadMap::default();
        for r in 1..=4usize {
            known.insert(r, snap(0, 0.0));
        }
        let local = snap(8, 8.0);
        let flows = d.flows(0, &local, &known);
        let total: f64 = flows.iter().map(|f| f.1).sum();
        assert!(total <= local.weight + 1e-9);
    }

    #[test]
    fn multilist_picks_longest_known_list() {
        let mut p = Multilist::new(1, 3);
        let mut known = LoadMap::default();
        known.insert(1, snap(3, 3.0));
        known.insert(2, snap(9, 9.0));
        known.insert(3, snap(6, 6.0));
        assert_eq!(p.choose_victim(0, 4, &known, 0), Some(2));
    }

    #[test]
    fn multilist_grant_evens_lists() {
        let p = Multilist::new(1, 3);
        assert_eq!(p.grant_units(&snap(10, 10.0), &snap(0, 0.0)), 5);
        assert_eq!(p.grant_units(&snap(2, 2.0), &snap(0, 0.0)), 0);
    }

    #[test]
    fn a_grant_is_half_the_gap_not_half_the_donor() {
        let policies: [Box<dyn LbPolicy>; 4] = [
            Box::new(WorkStealing::new(16.0, 1)),
            Box::new(Gradient::new(16.0, 16.0)),
            Box::new(Diffusion::new(0.5)),
            Box::new(Multilist::new(16, 1)),
        ];
        for p in policies {
            let name = p.name();
            // Half the donor's queue (20) would leave 20 / 36.
            for (donor, requester, want) in [(40, 16, 12), (375, 1, 187), (375, 0, 187)] {
                let (local, req) = (snap(donor, donor as f64), snap(requester, requester as f64));
                assert_eq!(
                    p.grant_units(&local, &req),
                    want,
                    "{name} {donor}/{requester}"
                );
            }
        }
        // A request is wire input: a unit count above the donor's own is a
        // refusal under the one policy that judges in units, not an underflow.
        let ml = Multilist::new(1, 1);
        assert_eq!(ml.grant_units(&snap(4, 4.0), &snap(usize::MAX, 0.0)), 0);
    }

    #[test]
    fn diffusion_grants_compare_weight_not_units() {
        let d = Diffusion::new(0.5);
        // Requester holds *more units* but far less weight: must be granted
        // (one unit: the unit counts show no gap to halve).
        assert_eq!(d.grant_units(&snap(4, 40.0), &snap(6, 1.0)), 1);
        // Requester holds fewer units but more weight: refuse — granting on
        // unit counts let a few heavy units out-grant many light ones.
        assert_eq!(d.grant_units(&snap(6, 1.0), &snap(4, 40.0)), 0);
        // Equal weight refuses (no gap to close), as does a bare queue.
        assert_eq!(d.grant_units(&snap(4, 4.0), &snap(2, 4.0)), 0);
        assert_eq!(d.grant_units(&snap(1, 9.0), &snap(0, 0.0)), 0);
    }

    #[test]
    fn single_processor_policies_are_inert() {
        let mut ws = WorkStealing::new(1.0, 1);
        assert!(ws.choose_victim(0, 1, &LoadMap::default(), 0).is_none());
        assert!(ws.neighborhood(0, 1).is_empty());
        let ml = Multilist::new(1, 1);
        assert!(ml.neighborhood(0, 1).is_empty());
    }
}

#[cfg(test)]
mod gradient_tests {
    use super::*;

    fn snap(units: usize, weight: f64) -> LoadSnapshot {
        LoadSnapshot { units, weight }
    }

    #[test]
    fn gradient_picks_nearest_overloaded() {
        let mut g = Gradient::new(1.0, 4.0);
        let mut known = LoadMap::default();
        known.insert(2, snap(10, 10.0)); // distance 2
        known.insert(7, snap(50, 50.0)); // distance 1 on an 8-ring
        known.insert(4, snap(2, 2.0)); // not overloaded
        assert_eq!(g.choose_victim(0, 8, &known, 0), Some(7));
    }

    #[test]
    fn gradient_ties_break_by_weight() {
        let mut g = Gradient::new(1.0, 4.0);
        let mut known = LoadMap::default();
        known.insert(1, snap(10, 10.0)); // distance 1
        known.insert(7, snap(50, 50.0)); // distance 1, heavier
        assert_eq!(g.choose_victim(0, 8, &known, 0), Some(7));
    }

    #[test]
    fn gradient_ring_fallback_alternates_and_terminates() {
        let mut g = Gradient::new(1.0, 4.0);
        let known = LoadMap::default();
        // The sweep probes +1, −1, +2, −2, … so every attempt in a round
        // reaches a fresh rank instead of cycling once the step wraps.
        assert_eq!(g.choose_victim(0, 8, &known, 0), Some(1));
        assert_eq!(g.choose_victim(0, 8, &known, 1), Some(7));
        assert_eq!(g.choose_victim(0, 8, &known, 2), Some(2));
        assert_eq!(g.choose_victim(0, 8, &known, 3), Some(6));
        assert_eq!(g.choose_victim(0, 8, &known, 6), Some(4));
        // Ring covered: later attempts stop probing rather than revisit.
        assert_eq!(g.choose_victim(0, 8, &known, 8), None);
        assert_eq!(g.choose_victim(0, 8, &known, 100), None);
    }

    #[test]
    fn gradient_fallback_covers_the_whole_ring_exactly_once_going_out() {
        let mut g = Gradient::new(1.0, 4.0);
        let known = LoadMap::default();
        for n in [2usize, 3, 5, 8, 9] {
            for me in 0..n {
                let mut seen = std::collections::BTreeSet::new();
                let mut attempt = 0u32;
                while let Some(v) = g.choose_victim(me, n, &known, attempt) {
                    assert_ne!(v, me);
                    seen.insert(v);
                    attempt += 1;
                    assert!(attempt < 64, "sweep failed to terminate");
                }
                assert_eq!(
                    seen.len(),
                    n - 1,
                    "sweep from {me} of {n} missed ranks: {seen:?}"
                );
            }
        }
    }

    #[test]
    fn gradient_grant_respects_thresholds() {
        let g = Gradient::new(1.0, 4.0);
        assert_eq!(
            g.grant_units(&snap(10, 3.0), &snap(0, 0.0)),
            0,
            "below high-water"
        );
        assert_eq!(g.grant_units(&snap(10, 10.0), &snap(0, 0.0)), 5);
        assert_eq!(
            g.grant_units(&snap(10, 10.0), &snap(20, 20.0)),
            0,
            "richer requester"
        );
    }
}
