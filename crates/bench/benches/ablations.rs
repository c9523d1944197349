//! Ablation benches for the design choices DESIGN.md calls out. Each group
//! sweeps one knob over the Figure-3 workload (32 processors) and prints the
//! resulting makespans, so `cargo bench` records how the knob moves the
//! result. The PREMA groups sweep fields of the runtime's own `PremaConfig`
//! on the real stack (`prema_harness::simrank`).
//!
//! * `ablate_poll_interval` — the implicit polling thread's period (§4.2),
//!   `LbMode::Implicit { poll_interval }`: a steal request is answered within
//!   one period, so once the period outgrows the longest unit (1.5 s) no
//!   wake-up falls inside one and the run *is* the explicit run with the same
//!   water-mark; shortening it below ~100 ms buys nothing more and bills
//!   more wake-ups.
//! * `ablate_watermark` — the explicit-mode water-mark (§4.1),
//!   `WorkStealing { watermark }`: 0 reproduces the run-dry failure mode; one
//!   unit's hint or more begs a unit early, which saves a round trip and no
//!   more — the victim still answers only between its units.
//! * `ablate_alpha` — ParMETIS's Relative Cost Factor in |Ecut| + α|Vmove|.
//! * `ablate_sync_points` — Charm++'s load-balancing frequency I − 1.

use criterion::{criterion_group, criterion_main, Criterion};
use prema::{LbMode, PolicyKind, PremaConfig};
use prema_harness::drivers::{charm_drv, parmetis_drv, prema_drv};
use prema_harness::BenchSpec;
use prema_sim::MachineConfig;
use std::hint::black_box;
use std::time::Duration;

fn spec() -> BenchSpec {
    BenchSpec::figure3(MachineConfig::small(32), 40)
}

fn ablate_poll_interval(c: &mut Criterion) {
    let spec = spec();
    let mut group = c.benchmark_group("ablate_poll_interval");
    group.sample_size(10);
    println!("\n== ablate_poll_interval (fig3 workload, 32 procs) ==");
    for ms in [10u64, 50, 100, 500, 2000] {
        let cfg = PremaConfig {
            mode: LbMode::Implicit {
                poll_interval: Duration::from_millis(ms),
            },
            ..prema_drv::implicit_cfg(&spec)
        };
        let r = prema_drv::run(&spec, cfg);
        println!(
            "poll_interval {ms:>5} ms → makespan {:.2}s",
            r.makespan.as_secs_f64()
        );
        group.bench_function(format!("{ms}ms"), |b| {
            b.iter(|| black_box(prema_drv::run(black_box(&spec), cfg).makespan))
        });
    }
    group.finish();
}

fn ablate_watermark(c: &mut Criterion) {
    let spec = spec();
    let mut group = c.benchmark_group("ablate_watermark");
    group.sample_size(10);
    println!("\n== ablate_watermark (explicit mode, fig3 workload) ==");
    for wm in [0.0f64, 200.0, 400.0, 800.0, 1600.0] {
        let cfg = PremaConfig {
            policy: PolicyKind::WorkStealing { watermark: wm },
            ..prema_drv::explicit_cfg(&spec)
        };
        let r = prema_drv::run(&spec, cfg);
        println!(
            "watermark {wm:>6.0} Mflop → makespan {:.2}s",
            r.makespan.as_secs_f64()
        );
        group.bench_function(format!("{wm}"), |b| {
            b.iter(|| black_box(prema_drv::run(black_box(&spec), cfg).makespan))
        });
    }
    group.finish();
}

fn ablate_alpha(c: &mut Criterion) {
    let spec = spec();
    let mut group = c.benchmark_group("ablate_alpha");
    group.sample_size(10);
    println!("\n== ablate_alpha (ParMETIS relative cost factor) ==");
    for alpha in [0.1f64, 1.0, 10.0, 100.0] {
        let cfg = parmetis_drv::ParMetisCfg {
            alpha,
            ..parmetis_drv::ParMetisCfg::default()
        };
        let r = parmetis_drv::run(&spec, cfg);
        println!(
            "alpha {alpha:>6.1} → makespan {:.2}s",
            r.makespan.as_secs_f64()
        );
        group.bench_function(format!("{alpha}"), |b| {
            b.iter(|| black_box(parmetis_drv::run(black_box(&spec), cfg).makespan))
        });
    }
    group.finish();
}

fn ablate_sync_points(c: &mut Criterion) {
    let spec = spec();
    let mut group = c.benchmark_group("ablate_sync_points");
    group.sample_size(10);
    println!("\n== ablate_sync_points (Charm++ AtSync frequency) ==");
    for sync_points in [0usize, 1, 4, 7] {
        // unit counts divide I = sync_points + 1 for these choices (1280 units)
        let r = charm_drv::run(&spec, sync_points);
        println!(
            "sync points {sync_points} → makespan {:.2}s",
            r.makespan.as_secs_f64()
        );
        group.bench_function(format!("{sync_points}"), |b| {
            b.iter(|| black_box(charm_drv::run(black_box(&spec), sync_points).makespan))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    ablate_poll_interval,
    ablate_watermark,
    ablate_alpha,
    ablate_sync_points
);
criterion_main!(prema_bench::assert_oracle_free, benches);
