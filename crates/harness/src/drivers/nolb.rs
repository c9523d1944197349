//! Configuration (a): no load balancing.
//!
//! Every processor executes exactly the units it was dealt, in order, plus
//! whatever follow-on units their completions queue, and stops. This is the
//! baseline every balancer is measured against; on the benchmark its
//! makespan is the all-heavy block's compute time.

use super::{callback_cpu, sched_cpu, Workload};
use prema_sim::{Category, Ctx, Engine, Process, SimReport, SimTime, TraceSink};
use std::collections::VecDeque;
use std::rc::Rc;
use std::sync::Arc;

/// Per-processor driver: drain the local queue.
pub struct NoLbProc<W: Workload> {
    work: Rc<W>,
    queue: VecDeque<W::Unit>,
}

const T_NEXT: u64 = 1;

impl<W: Workload> Process for NoLbProc<W> {
    fn on_start(&mut self, ctx: &mut Ctx) {
        ctx.schedule(SimTime::ZERO, T_NEXT);
    }

    fn on_timer(&mut self, ctx: &mut Ctx, _token: u64) {
        match self.queue.pop_front() {
            Some(u) => {
                ctx.consume(Category::Scheduling, sched_cpu());
                ctx.consume(Category::Callback, callback_cpu());
                let dur = ctx.work_time(self.work.mflop(&u));
                ctx.consume(Category::Computation, dur);
                self.queue.extend(self.work.follow_on(&u));
                ctx.schedule(SimTime::ZERO, T_NEXT);
            }
            None => ctx.finish(),
        }
    }
}

/// Run a workload with no load balancing.
pub fn run<W: Workload>(work: &W) -> SimReport {
    run_traced(work, None)
}

/// [`run`] with an optional trace sink recording spans and finishes at
/// simulated-time stamps.
pub fn run_traced<W: Workload>(work: &W, trace: Option<Arc<TraceSink>>) -> SimReport {
    let work = Rc::new(work.clone());
    Engine::build(work.machine(), |p| {
        Box::new(NoLbProc {
            queue: work.initial_queue(p).into(),
            work: work.clone(),
        })
    })
    .with_trace(trace)
    .run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::BenchSpec;

    #[test]
    fn makespan_matches_analytic_bound() {
        let spec = BenchSpec::test_scale(3);
        let report = run(&spec);
        let analytic = spec.nolb_makespan_secs();
        let measured = report.makespan.as_secs_f64();
        // Scheduling/callback overheads add a sliver on top.
        assert!(measured >= analytic, "{measured} < {analytic}");
        assert!(
            measured < analytic * 1.001,
            "{measured} too far above {analytic}"
        );
    }

    #[test]
    fn heavy_procs_never_idle_light_procs_finish_early() {
        let spec = BenchSpec::test_scale(3);
        let report = run(&spec);
        assert_eq!(
            report.breakdowns[0][Category::Idle],
            prema_sim::SimTime::ZERO
        );
        assert!(report.finish[0] > report.finish[7]);
        // 2× weights: heavy block takes twice the light block.
        let ratio = report.finish[0].as_secs_f64() / report.finish[7].as_secs_f64();
        assert!((ratio - 2.0).abs() < 0.01, "ratio {ratio}");
    }

    #[test]
    fn no_messages_are_sent() {
        let spec = BenchSpec::test_scale(4);
        let report = run(&spec);
        assert!(report.msgs_sent.iter().all(|&m| m == 0));
    }
}
