//! Chaos soak: the paper's §5 microbenchmark workload shape on the **real**
//! threaded runtime over a deliberately faulty wire.
//!
//! Every rank's transport is `ReliableTransport(ChaosTransport(endpoint))`
//! with a seed-fixed 5% drop rate plus duplication, reordering, and injected
//! delay. The run must nevertheless be *exact*: every work unit executes
//! exactly once (work conservation), the runtime invariant oracles stay
//! green, and three repeated runs agree — the fault injection is
//! deterministic, not a fuzzer.
//!
//! Knobs for CI smoke runs: `PREMA_SOAK_LOSS` (default 0.05),
//! `PREMA_SOAK_RUNS` (default 3).

use bytes::Bytes;
use prema::dcs::{
    ChaosConfig, ChaosHandle, ChaosStats, ChaosTransport, LocalFabric, ReliableTransport, Transport,
};
use prema::{launch_with_transports, Completion, Migratable, PremaConfig};
use prema_harness::BenchSpec;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A work unit of the microbenchmark as a mobile object: carries its global
/// id and true weight (scaled to a sub-millisecond spin for test time).
struct Unit {
    id: u64,
    mflop: f64,
}

impl Migratable for Unit {
    fn pack(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.id.to_le_bytes());
        buf.extend_from_slice(&self.mflop.to_le_bytes());
    }
    fn unpack(b: &[u8]) -> Self {
        Unit {
            id: u64::from_le_bytes(b[..8].try_into().unwrap()),
            mflop: f64::from_le_bytes(b[8..16].try_into().unwrap()),
        }
    }
}

const H_COMPUTE: u32 = 1;

fn env_f64(key: &str, default: f64) -> f64 {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// One full soak run: Fig. 3 workload shape (50% imbalance, heavy = 2 ×
/// light, block-distributed to 8 ranks) under the chaos stack. Returns the
/// per-unit execution counts and the wire's fault tally.
fn soak_run(spec: &BenchSpec, chaos_cfg: ChaosConfig, cfg: PremaConfig) -> (Vec<u64>, ChaosStats) {
    let nprocs = spec.machine.procs;
    assert_eq!(nprocs, cfg.nprocs);
    let total = spec.total_units();
    let hits: Arc<Vec<AtomicU64>> = Arc::new((0..total).map(|_| AtomicU64::new(0)).collect());

    let handle = ChaosHandle::new();
    let transports: Vec<Box<dyn Transport>> = LocalFabric::new(nprocs)
        .into_iter()
        .map(|ep| {
            let chaos = ChaosTransport::new(ep, chaos_cfg, handle.clone());
            Box::new(ReliableTransport::new(chaos)) as Box<dyn Transport>
        })
        .collect();

    let spec = *spec;
    let hits_in = hits.clone();
    launch_with_transports::<Unit, (), _>(cfg, transports, None, move |rt| {
        let hits = hits_in.clone();
        rt.on_message(H_COMPUTE, move |_ctx, unit, _item| {
            // Scale Mflop to a short spin: weight ratios (and thus the
            // imbalance the balancer sees) are preserved, wall time is
            // bounded.
            let iters = (unit.mflop * 40.0) as u64;
            let mut x = unit.id;
            for i in 0..iters {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(i);
            }
            std::hint::black_box(x);
            hits[unit.id as usize].fetch_add(1, Ordering::SeqCst);
        });
        let completion = Completion::install(&rt, total as u64);
        // Block distribution: each rank registers and seeds its own
        // slice of the global index space, exactly like the paper's
        // benchmark (§5) — rank 0 gets the heavy block.
        for u in spec.units_of_proc(rt.rank()) {
            let ptr = rt.register(Unit {
                id: u.id as u64,
                mflop: u.mflop,
            });
            // The paper feeds the balancer *inaccurate* hints: every
            // unit claims the mean weight.
            rt.message_with_hint(ptr, H_COMPUTE, u.hint_mflop, Bytes::new());
        }
        loop {
            if rt.step() {
                completion.report(&rt, 1);
            } else {
                rt.poll();
                completion.maintain(&rt);
                if completion.is_done() {
                    break;
                }
                std::thread::sleep(Duration::from_micros(50));
            }
        }
        // The runtime's own oracles, one last time under quiescence.
        rt.with_scheduler(|s| {
            s.verify_invariants();
            s.node().verify_conservation();
        });
    });

    let counts = hits.iter().map(|c| c.load(Ordering::SeqCst)).collect();
    (counts, handle.stats())
}

#[test]
fn microbenchmark_survives_adversarial_wire() {
    let spec = BenchSpec::test_scale(3); // 8 procs × 20 units, 50% imbalance
    let loss = env_f64("PREMA_SOAK_LOSS", 0.05);
    let runs = env_usize("PREMA_SOAK_RUNS", 3);
    let chaos_cfg = ChaosConfig::adversarial(0xC0FFEE, loss);

    let mut all_counts: Vec<Vec<u64>> = Vec::new();
    for run in 0..runs {
        let (counts, wire) = soak_run(&spec, chaos_cfg, PremaConfig::implicit(spec.machine.procs));
        // Work conservation, the §5 oracle: every unit exactly once —
        // dropped frames were retransmitted, duplicated frames deduplicated.
        let lost: Vec<usize> = (0..counts.len()).filter(|&i| counts[i] == 0).collect();
        let doubled: Vec<usize> = (0..counts.len()).filter(|&i| counts[i] > 1).collect();
        assert!(
            lost.is_empty() && doubled.is_empty(),
            "run {run}: lost units {lost:?}, double-executed units {doubled:?} \
             (wire: {wire:?})"
        );
        assert!(
            wire.dropped > 0 && wire.duplicated > 0,
            "run {run}: the adversarial wire injected nothing — soak is vacuous: {wire:?}"
        );
        all_counts.push(counts);
    }
    // Deterministic outcome across repeated runs with the same seed.
    for (run, counts) in all_counts.iter().enumerate().skip(1) {
        assert_eq!(
            counts, &all_counts[0],
            "run {run} diverged from run 0 under the same chaos seed"
        );
    }
}
