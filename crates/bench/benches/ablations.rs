//! Ablation benches for the design choices DESIGN.md calls out. Each group
//! sweeps one knob over the Figure-3 workload (32 processors) and prints the
//! resulting makespans, so `cargo bench` records how the knob moves the
//! result.
//!
//! * `ablate_poll_interval` — the implicit polling thread's period (§4.2):
//!   too long ≈ explicit mode; too short wastes cycles.
//! * `ablate_watermark` — the explicit-mode water-mark (§4.1): 0 reproduces
//!   the run-dry failure mode; higher values overlap steal round-trips.
//! * `ablate_alpha` — ParMETIS's Relative Cost Factor in |Ecut| + α|Vmove|.
//! * `ablate_sync_points` — Charm++'s load-balancing frequency I − 1.
//! * `ablate_grant` — mobile objects surrendered per steal (footnote 2).

use criterion::{criterion_group, criterion_main, Criterion};
use prema_harness::drivers::{charm_drv, parmetis_drv, prema_drv};
use prema_harness::BenchSpec;
use prema_sim::{MachineConfig, SimTime};
use std::hint::black_box;

fn spec() -> BenchSpec {
    BenchSpec::figure3(MachineConfig::small(32), 40)
}

fn ablate_poll_interval(c: &mut Criterion) {
    let spec = spec();
    let mut group = c.benchmark_group("ablate_poll_interval");
    group.sample_size(10);
    println!("\n== ablate_poll_interval (fig3 workload, 32 procs) ==");
    for ms in [10u64, 50, 100, 500, 2000] {
        let cfg = prema_drv::PremaCfg {
            implicit: true,
            poll_interval: SimTime::from_millis(ms),
            ..prema_drv::PremaCfg::default()
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
        let cfg = prema_drv::PremaCfg {
            implicit: false,
            watermark_mflop: wm,
            ..prema_drv::PremaCfg::default()
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

fn ablate_grant(c: &mut Criterion) {
    let spec = spec();
    let mut group = c.benchmark_group("ablate_grant");
    group.sample_size(10);
    println!("\n== ablate_grant (mobile objects per steal, §4 footnote 2) ==");
    for grant in [1usize, 2, 4, 16] {
        let cfg = prema_drv::PremaCfg {
            max_grant: grant,
            ..prema_drv::PremaCfg::default()
        };
        let r = prema_drv::run(&spec, cfg);
        println!(
            "max_grant {grant:>3} → makespan {:.2}s",
            r.makespan.as_secs_f64()
        );
        group.bench_function(format!("{grant}"), |b| {
            b.iter(|| black_box(prema_drv::run(black_box(&spec), cfg).makespan))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    ablate_poll_interval,
    ablate_watermark,
    ablate_alpha,
    ablate_sync_points,
    ablate_grant
);
criterion_main!(benches);
