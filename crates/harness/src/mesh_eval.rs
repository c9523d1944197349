//! The mesh-generation study (§5's closing experiment).
//!
//! The paper reports, for a 3-D parallel advancing-front tetrahedral mesh
//! generator under PREMA with preemptive load balancing: **15%** overall
//! runtime improvement over stop-and-repartition, **42%** over no load
//! balancing, with PREMA runtime overheads **under 1%**.
//!
//! Reproduction: the `prema-mesh` mesher is run (for real) over a moving
//! crack front to produce the per-(subdomain, round) tetrahedron counts —
//! genuinely irregular, geometry-driven work. Those costs then drive three
//! runtimes on the simulated cluster:
//!
//! * **no LB** — subdomains stay where the decomposition put them
//!   ([`crate::drivers::nolb`]);
//! * **stop-and-repartition** — the figures' ParMETIS model
//!   ([`crate::drivers::parmetis_drv`]): a processor whose queue runs dry
//!   notifies the root, which may stop every processor and repartition the
//!   queued subdomain-rounds with the URA on the *previous* round's measured
//!   costs (history-based — precisely what a moving crack invalidates);
//! * **PREMA implicit** — asynchronous work stealing with preemptive message
//!   processing, reacting to the real load as the round unfolds. Not a
//!   model: the runtime stack itself, on the simulator's clock.

use crate::drivers::parmetis_drv::{self, ParMetisCfg};
use crate::drivers::{nolb, Workload, POLL_INTERVAL};
use crate::simrank::{self, mflop_payload};
use prema::{LbMode, PremaConfig};
use prema_mesh::{decompose_unit_cube, CrackFront, Subdomain};
use prema_mol::Migratable;
use prema_sim::{MachineConfig, SimReport, SimTime};
use std::collections::HashMap;
use std::rc::Rc;

/// Parameters of the mesh study.
#[derive(Clone, Copy, Debug)]
pub struct MeshEvalSpec {
    /// Simulated machine.
    pub machine: MachineConfig,
    /// Subdomain grid edge (total subdomains = n³).
    pub grid: usize,
    /// Refinement rounds (crack positions).
    pub rounds: usize,
    /// Background element size.
    pub background: f64,
    /// Element size at the crack tip.
    pub refined: f64,
    /// Radius of the refined ball around the tip.
    pub radius: f64,
    /// Cost model: Mflop per generated tetrahedron.
    pub mflop_per_tet: f64,
    /// Seed for runtime policies.
    pub seed: u64,
}

impl MeshEvalSpec {
    /// Paper-scale study: 512 subdomains over 128 processors, 16 rounds.
    pub fn paper() -> Self {
        MeshEvalSpec {
            machine: MachineConfig::paper_testbed(),
            grid: 8,
            rounds: 16,
            background: 0.35,
            refined: 0.12,
            radius: 0.30,
            mflop_per_tet: 12.0,
            seed: 42,
        }
    }

    /// Small, fast study for tests: 27 subdomains over 4 processors.
    pub fn test_scale() -> Self {
        MeshEvalSpec {
            machine: MachineConfig::small(4),
            grid: 3,
            rounds: 3,
            background: 0.45,
            refined: 0.12,
            radius: 0.5,
            mflop_per_tet: 12.0,
            seed: 42,
        }
    }

    /// Total subdomains.
    pub fn subdomains(&self) -> usize {
        self.grid * self.grid * self.grid
    }
}

/// Per-(subdomain, round) computational costs, measured by actually running
/// the mesher.
pub struct CostMatrix {
    /// `costs[s][r]` = Mflop of re-meshing subdomain `s` in round `r`.
    pub costs: Vec<Vec<f64>>,
    /// Subdomain grid edge (for the adjacency graph).
    pub grid: usize,
}

impl CostMatrix {
    /// Run the real mesher over every (subdomain, round) pair.
    pub fn generate(spec: &MeshEvalSpec) -> CostMatrix {
        let mut subs: Vec<Subdomain> =
            decompose_unit_cube(spec.grid, spec.grid, spec.grid, spec.refined);
        let mut costs = vec![Vec::with_capacity(spec.rounds); subs.len()];
        for round in 0..spec.rounds {
            let sizing = CrackFront::at_round(
                spec.background,
                spec.refined,
                spec.radius,
                round,
                spec.rounds,
            );
            for (s, sub) in subs.iter_mut().enumerate() {
                sub.reseed();
                let stats = sub.mesh_all(&sizing);
                costs[s].push((stats.tets_created.max(1)) as f64 * spec.mflop_per_tet);
            }
        }
        CostMatrix {
            costs,
            grid: spec.grid,
        }
    }

    /// Number of subdomains.
    pub fn subdomains(&self) -> usize {
        self.costs.len()
    }

    /// Number of rounds.
    pub fn rounds(&self) -> usize {
        self.costs[0].len()
    }

    /// 6-neighborhood adjacency of the subdomain grid, as a graph edge list.
    pub fn adjacency(&self) -> Vec<(usize, usize, f64)> {
        let n = self.grid;
        let idx = |x: usize, y: usize, z: usize| (z * n + y) * n + x;
        let mut edges = Vec::new();
        for z in 0..n {
            for y in 0..n {
                for x in 0..n {
                    if x + 1 < n {
                        edges.push((idx(x, y, z), idx(x + 1, y, z), 1.0));
                    }
                    if y + 1 < n {
                        edges.push((idx(x, y, z), idx(x, y + 1, z), 1.0));
                    }
                    if z + 1 < n {
                        edges.push((idx(x, y, z), idx(x, y, z + 1), 1.0));
                    }
                }
            }
        }
        edges
    }

    /// Total Mflop across all subdomains and rounds.
    pub fn total_mflop(&self) -> f64 {
        self.costs.iter().flatten().sum()
    }
}

/// A subdomain task: which subdomain, and the next round to execute.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Task {
    sub: u32,
    round: u32,
}

fn block_owner(sub: usize, nsubs: usize, nprocs: usize) -> usize {
    sub * nprocs / nsubs
}

/// The mesh study as a [`Workload`] for the baseline models: subdomains
/// dealt block-wise, each round queueing the subdomain's next, a task
/// hinted at its subdomain's previous-round cost (the only history
/// available), repartitioned over subdomain-grid adjacency.
#[derive(Clone)]
struct MeshWork {
    machine: MachineConfig,
    seed: u64,
    matrix: Rc<CostMatrix>,
    /// Round 0's hint: nothing measured yet, so the mean subdomain-round.
    uniform_mflop: f64,
}

impl MeshWork {
    fn new(spec: &MeshEvalSpec, matrix: &Rc<CostMatrix>) -> Self {
        MeshWork {
            machine: spec.machine,
            seed: spec.seed,
            matrix: matrix.clone(),
            uniform_mflop: matrix.total_mflop() / (matrix.subdomains() * matrix.rounds()) as f64,
        }
    }
}

impl Workload for MeshWork {
    type Unit = Task;

    const UNIT_BYTES: usize = SUBDOMAIN_BYTES;

    fn machine(&self) -> MachineConfig {
        self.machine
    }

    fn seed(&self) -> u64 {
        self.seed
    }

    fn initial_queue(&self, p: usize) -> Vec<Task> {
        let nsubs = self.matrix.subdomains();
        (0..nsubs)
            .filter(|&s| block_owner(s, nsubs, self.machine.procs) == p)
            .map(|s| Task {
                sub: s as u32,
                round: 0,
            })
            .collect()
    }

    fn mflop(&self, t: &Task) -> f64 {
        self.matrix.costs[t.sub as usize][t.round as usize]
    }

    fn hint_mflop(&self, t: &Task) -> f64 {
        match t.round as usize {
            0 => self.uniform_mflop,
            r => self.matrix.costs[t.sub as usize][r - 1],
        }
    }

    fn follow_on(&self, t: &Task) -> Option<Task> {
        ((t.round as usize) + 1 < self.matrix.rounds()).then_some(Task {
            sub: t.sub,
            round: t.round + 1,
        })
    }

    /// Subdomain-grid adjacency between the tasks' subdomains.
    fn graph_edges(&self, tasks: &[Task]) -> Vec<(usize, usize, f64)> {
        let mut by_sub: HashMap<u32, Vec<usize>> = HashMap::new();
        for (i, t) in tasks.iter().enumerate() {
            by_sub.entry(t.sub).or_default().push(i);
        }
        let mut edges = Vec::new();
        for (a, b, w) in self.matrix.adjacency() {
            if let (Some(xs), Some(ys)) = (by_sub.get(&(a as u32)), by_sub.get(&(b as u32))) {
                for &x in xs {
                    for &y in ys {
                        edges.push((x, y, w));
                    }
                }
            }
        }
        edges
    }

    fn total_units(&self) -> usize {
        self.matrix.subdomains() * self.matrix.rounds()
    }

    fn total_hint_mflop(&self) -> f64 {
        (0..self.matrix.subdomains() as u32)
            .flat_map(|sub| (0..self.matrix.rounds() as u32).map(move |round| Task { sub, round }))
            .map(|t| self.hint_mflop(&t))
            .sum()
    }
}

/// Run the mesh workload with no load balancing.
pub fn run_nolb(spec: &MeshEvalSpec, matrix: &Rc<CostMatrix>) -> SimReport {
    nolb::run(&MeshWork::new(spec, matrix))
}

/// Run the mesh workload under stop-and-repartition: the figures' model,
/// with a processor notifying the root only once its queue runs dry.
pub fn run_stop_repartition(spec: &MeshEvalSpec, matrix: &Rc<CostMatrix>) -> SimReport {
    let cfg = ParMetisCfg {
        watermark_mflop: 0.0,
        cooldown: SimTime::from_millis(2500),
        ..ParMetisCfg::default()
    };
    parmetis_drv::run(&MeshWork::new(spec, matrix), cfg)
}

// ---------------------------------------------------------------------------
// PREMA implicit work stealing
// ---------------------------------------------------------------------------

/// Packed size of a subdomain mid-refinement: what one migration puts on the
/// wire.
const SUBDOMAIN_BYTES: usize = 4096;

/// The handler that re-meshes a subdomain for one refinement round.
const H_REFINE: u32 = 1;

/// A subdomain as a PREMA mobile object. Its row of the cost matrix travels
/// with it, standing in for the geometry that decides what each round's
/// re-meshing costs.
struct SubdomainObj {
    /// Rounds finished so far.
    round: usize,
    /// `costs[r]` = Mflop of re-meshing this subdomain in round `r`.
    costs: Vec<f64>,
}

impl Migratable for SubdomainObj {
    fn pack(&self, buf: &mut Vec<u8>) {
        let end = buf.len() + SUBDOMAIN_BYTES;
        buf.extend((self.round as u64).to_le_bytes());
        buf.extend((self.costs.len() as u64).to_le_bytes());
        for c in &self.costs {
            buf.extend(c.to_le_bytes());
        }
        assert!(buf.len() <= end, "cost row outgrew the packed subdomain");
        buf.resize(end, 0);
    }

    fn unpack(bytes: &[u8]) -> Self {
        let word = |i: usize| -> [u8; 8] {
            bytes[8 * i..8 * i + 8]
                .try_into()
                .expect("an 8-byte slice is an [u8; 8]")
        };
        let n = u64::from_le_bytes(word(1)) as usize;
        SubdomainObj {
            round: u64::from_le_bytes(word(0)) as usize,
            costs: (0..n).map(|i| f64::from_le_bytes(word(2 + i))).collect(),
        }
    }
}

/// Run the mesh workload under PREMA implicit work stealing: the real
/// runtime stack ([`crate::simrank`]) in its shipped implicit configuration,
/// each subdomain a mobile object that re-posts itself once per refinement
/// round. Hints are the runtime's default (1 per message: a processor knows
/// how many subdomains it holds, not what the moving crack will make them
/// cost), so it begs as it begins its last queued one.
pub fn run_prema(spec: &MeshEvalSpec, matrix: &Rc<CostMatrix>) -> SimReport {
    let nsubs = matrix.subdomains();
    let nprocs = spec.machine.procs;
    let cfg = PremaConfig {
        mode: LbMode::Implicit {
            poll_interval: POLL_INTERVAL,
        },
        seed: spec.seed,
        ..PremaConfig::implicit(nprocs)
    };
    let units = (nsubs * matrix.rounds()) as u64;
    simrank::run::<SubdomainObj>(spec.machine, &cfg, units, None, Vec::new(), |sched| {
        sched.on_message(H_REFINE, |ctx, sub: &mut SubdomainObj, item| {
            sub.round += 1;
            if let Some(&next) = sub.costs.get(sub.round) {
                ctx.message(item.ptr, H_REFINE, mflop_payload(next));
            }
        });
        let rank = sched.rank();
        for s in (0..nsubs).filter(|&s| block_owner(s, nsubs, nprocs) == rank) {
            let costs = matrix.costs[s].clone();
            let first = mflop_payload(costs[0]);
            let ptr = sched.node_mut().register(SubdomainObj { round: 0, costs });
            sched.node_mut().message(ptr, H_REFINE, first);
        }
    })
    .report
}

/// The three-way study result.
pub struct MeshEvalResult {
    /// No load balancing.
    pub nolb: SimReport,
    /// Stop-and-repartition.
    pub stop_repart: SimReport,
    /// PREMA implicit.
    pub prema: SimReport,
}

impl MeshEvalResult {
    /// PREMA's saving over no LB (paper: 42%).
    pub fn saving_vs_nolb(&self) -> f64 {
        1.0 - self.prema.makespan.as_secs_f64() / self.nolb.makespan.as_secs_f64()
    }

    /// PREMA's saving over stop-and-repartition (paper: 15%).
    pub fn saving_vs_stop_repart(&self) -> f64 {
        1.0 - self.prema.makespan.as_secs_f64() / self.stop_repart.makespan.as_secs_f64()
    }

    /// PREMA runtime overhead fraction (paper: < 1%).
    pub fn prema_overhead(&self) -> f64 {
        self.prema.overhead_fraction()
    }

    /// Human-readable summary.
    pub fn render(&self) -> String {
        format!(
            "==== 3-D advancing-front mesh generation study ====\n\
             no load balancing:     {:>9.1}s\n\
             stop-and-repartition:  {:>9.1}s\n\
             PREMA implicit:        {:>9.1}s\n\
             PREMA saving vs no LB:            {:>5.1}%  (paper: 42%)\n\
             PREMA saving vs stop-repartition: {:>5.1}%  (paper: 15%)\n\
             PREMA runtime overhead:           {:>6.3}% (paper: <1%)\n",
            self.nolb.makespan.as_secs_f64(),
            self.stop_repart.makespan.as_secs_f64(),
            self.prema.makespan.as_secs_f64(),
            self.saving_vs_nolb() * 100.0,
            self.saving_vs_stop_repart() * 100.0,
            self.prema_overhead() * 100.0,
        )
    }
}

/// Run the full three-way study.
pub fn run_mesh_eval(spec: &MeshEvalSpec) -> MeshEvalResult {
    let matrix = Rc::new(CostMatrix::generate(spec));
    MeshEvalResult {
        nolb: run_nolb(spec, &matrix),
        stop_repart: run_stop_repartition(spec, &matrix),
        prema: run_prema(spec, &matrix),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prema_sim::Category;

    fn matrix() -> (MeshEvalSpec, Rc<CostMatrix>) {
        let spec = MeshEvalSpec::test_scale();
        (spec, Rc::new(CostMatrix::generate(&spec)))
    }

    #[test]
    fn cost_matrix_is_irregular_and_moving() {
        let (spec, m) = matrix();
        assert_eq!(m.subdomains(), 27);
        assert_eq!(m.rounds(), spec.rounds);
        // Within a round, costs vary strongly (crack vs far-away).
        let r0: Vec<f64> = m.costs.iter().map(|c| c[0]).collect();
        let max = r0.iter().cloned().fold(0.0, f64::max);
        let min = r0.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(max > min * 2.0, "round 0 not irregular: {min}..{max}");
        // The hot subdomain moves between rounds.
        let hot_of = |r: usize| {
            (0..m.subdomains())
                .max_by(|&a, &b| m.costs[a][r].partial_cmp(&m.costs[b][r]).unwrap())
                .unwrap()
        };
        assert_ne!(hot_of(0), hot_of(m.rounds() - 1), "crack never moved");
    }

    #[test]
    fn all_three_drivers_conserve_work() {
        let (spec, m) = matrix();
        let expect = m.total_mflop() / spec.machine.mflops;
        for rep in [
            run_nolb(&spec, &m),
            run_prema(&spec, &m),
            run_stop_repartition(&spec, &m),
        ] {
            let got = rep.total_of(Category::Computation).as_secs_f64();
            assert!((got - expect).abs() < 1e-6, "{got} vs {expect}");
        }
    }

    #[test]
    fn prema_beats_nolb_and_stop_repartition() {
        let spec = MeshEvalSpec::test_scale();
        let result = run_mesh_eval(&spec);
        assert!(
            result.saving_vs_nolb() > 0.05,
            "vs nolb only {:.1}%",
            result.saving_vs_nolb() * 100.0
        );
        assert!(
            result.saving_vs_stop_repart() > 0.0,
            "vs stop-repart {:.1}%",
            result.saving_vs_stop_repart() * 100.0
        );
    }

    #[test]
    fn prema_overhead_is_below_one_percent() {
        let spec = MeshEvalSpec::test_scale();
        let result = run_mesh_eval(&spec);
        assert!(
            result.prema_overhead() < 0.01,
            "overhead {:.3}%",
            result.prema_overhead() * 100.0
        );
    }

    #[test]
    fn stop_repartition_pays_synchronization() {
        let (spec, m) = matrix();
        let rep = run_stop_repartition(&spec, &m);
        assert!(rep.total_of(Category::Synchronization) > SimTime::ZERO);
        assert!(rep.total_of(Category::PartitionCalc) > SimTime::ZERO);
    }
}
