//! Configurations (b) and (c): the benchmark as a PREMA application, on the
//! real runtime stack ([`crate::simrank`]) with the Work Stealing policy of
//! §4.
//!
//! Every work unit is a mobile object holding one message; underloaded
//! processors beg, victims uninstall and migrate objects, refusals trigger
//! retries — all of it `prema_ilb::Scheduler`'s doing, none of it modelled
//! here. The two panels differ in the runtime configuration alone:
//!
//! * **explicit** ([`explicit_cfg`]) — the balancer runs only in the polling
//!   operation at unit boundaries, so a processor buried in a 1.5 s unit
//!   leaves a steal request unanswered for up to that long; it begs when it
//!   has run dry (§4.1: the water-mark mis-set under inaccurate hints).
//! * **implicit** ([`implicit_cfg`]) — the polling thread additionally
//!   handles system messages every [`POLL_INTERVAL`] *inside* units, and the
//!   processor begs as it begins its **last** queued unit (§4.2).

use super::{POLL_INTERVAL, UNIT_BYTES};
use crate::simrank::{self, mflop_payload, StackRun};
use crate::spec::{BenchSpec, WorkUnit};
use prema::{LbMode, PolicyKind, PremaConfig};
use prema_mol::Migratable;
use prema_sim::{MachineConfig, SimReport, TraceSink};
use std::sync::Arc;

/// The benchmark's mobile object: a work unit has no state of its own, only
/// a size on the wire when it migrates.
struct Unit;

impl Migratable for Unit {
    fn pack(&self, buf: &mut Vec<u8>) {
        buf.resize(buf.len() + UNIT_BYTES, 0);
    }
    fn unpack(_bytes: &[u8]) -> Self {
        Unit
    }
}

/// The one work handler. It does nothing: a unit's computation is the
/// simulated time its message's Mflop cost.
const H_UNIT: u32 = 1;

/// Panel (b): explicit invocation, begging only when out of work —
/// water-mark 0, §4.1's representative failure under uninformative hints
/// (the `ablate_watermark` bench sweeps it). Everything else is the
/// runtime's shipped default.
pub fn explicit_cfg(spec: &BenchSpec) -> PremaConfig {
    PremaConfig {
        policy: PolicyKind::WorkStealing { watermark: 0.0 },
        seed: spec.seed,
        ..PremaConfig::explicit(spec.machine.procs)
    }
}

/// Panel (c): the polling thread every [`POLL_INTERVAL`], begging from the
/// start of the last queued unit — the water-mark is one unit's hint, every
/// unit's being the same uninformative mean.
pub fn implicit_cfg(spec: &BenchSpec) -> PremaConfig {
    PremaConfig {
        mode: LbMode::Implicit {
            poll_interval: POLL_INTERVAL,
        },
        policy: PolicyKind::WorkStealing {
            watermark: spec.mean_mflop(),
        },
        seed: spec.seed,
        ..PremaConfig::implicit(spec.machine.procs)
    }
}

/// Run the benchmark under PREMA work stealing.
pub fn run(spec: &BenchSpec, cfg: PremaConfig) -> SimReport {
    run_traced(spec, cfg, None)
}

/// [`run`] with an optional trace sink recording every span and message at
/// simulated-time stamps (and, into a manually clocked sink of a build with
/// the tracer compiled in, the stack's own events).
pub fn run_traced(spec: &BenchSpec, cfg: PremaConfig, trace: Option<Arc<TraceSink>>) -> SimReport {
    let units: Vec<Vec<WorkUnit>> = spec
        .units()
        .chunks(spec.units_per_proc)
        .map(<[WorkUnit]>::to_vec)
        .collect();
    run_units(spec.machine, &units, cfg, trace).report
}

/// Run an arbitrary initial placement: `units[p]` start on processor `p`.
pub fn run_units(
    machine: MachineConfig,
    units: &[Vec<WorkUnit>],
    cfg: PremaConfig,
    trace: Option<Arc<TraceSink>>,
) -> StackRun {
    let total = units.iter().map(Vec::len).sum::<usize>() as u64;
    simrank::run::<Unit>(machine, &cfg, total, trace, Vec::new(), |sched| {
        sched.on_message(H_UNIT, |_ctx, _unit, _item| {});
        for u in &units[sched.rank()] {
            let ptr = sched.node_mut().register(Unit);
            sched
                .node_mut()
                .message_with_hint(ptr, H_UNIT, u.hint_mflop, mflop_payload(u.mflop));
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drivers::nolb;
    use prema_sim::{Category, SimTime};

    #[test]
    fn implicit_beats_no_lb_substantially() {
        let spec = BenchSpec::test_scale(3);
        let base = nolb::run(&spec);
        let lb = run(&spec, implicit_cfg(&spec));
        let save = 1.0 - lb.makespan.as_secs_f64() / base.makespan.as_secs_f64();
        assert!(save > 0.15, "implicit saved only {:.1}%", save * 100.0);
    }

    #[test]
    fn implicit_beats_explicit_on_coarse_units() {
        let spec = BenchSpec::test_scale(3);
        let imp = run(&spec, implicit_cfg(&spec));
        let exp = run(&spec, explicit_cfg(&spec));
        assert!(
            imp.makespan <= exp.makespan,
            "implicit {} worse than explicit {}",
            imp.makespan,
            exp.makespan
        );
    }

    #[test]
    fn work_is_conserved() {
        // Total computation time must equal the no-LB total: stealing moves
        // work, never creates or destroys it.
        let spec = BenchSpec::test_scale(4);
        let base = nolb::run(&spec);
        let lb = run(&spec, implicit_cfg(&spec));
        let t0 = base.total_of(Category::Computation).as_secs_f64();
        let t1 = lb.total_of(Category::Computation).as_secs_f64();
        assert!((t0 - t1).abs() < 1e-6, "compute changed: {t0} vs {t1}");
    }

    #[test]
    fn stealing_traffic_exists_and_is_modest() {
        let spec = BenchSpec::test_scale(3);
        let lb = run(&spec, implicit_cfg(&spec));
        let msgs: u64 = lb.msgs_sent.iter().sum();
        assert!(msgs > 0, "no stealing traffic at all");
        // An 8-proc, 96-unit benchmark shouldn't need thousands of messages.
        assert!(msgs < 2000, "message storm: {msgs}");
    }

    #[test]
    fn polling_thread_time_appears_only_in_implicit_mode() {
        let spec = BenchSpec::test_scale(3);
        let imp = run(&spec, implicit_cfg(&spec));
        let exp = run(&spec, explicit_cfg(&spec));
        assert!(imp.total_of(Category::PollingThread) > SimTime::ZERO);
        assert_eq!(exp.total_of(Category::PollingThread), SimTime::ZERO);
    }

    #[test]
    fn implicit_overhead_is_well_under_one_percent() {
        let spec = BenchSpec::test_scale(3);
        let imp = run(&spec, implicit_cfg(&spec));
        let frac = imp.overhead_fraction();
        assert!(frac < 0.01, "overhead {:.4}%", frac * 100.0);
    }
}
