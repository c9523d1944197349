//! Regenerate every §5 experiment and check the paper's shape claims.
//! This is the program behind EXPERIMENTS.md. Exits non-zero if a criterion
//! prints FAIL.
//!
//! Usage: `cargo run -p prema-harness --release --bin experiments [--small]`

use prema_harness::mesh_eval::{run_mesh_eval, MeshEvalSpec};
use prema_harness::runner::{run_figure, shape_criteria};
use prema_harness::BenchSpec;

fn main() {
    let small = std::env::args().any(|a| a == "--small");
    let spec_of = |f: u32| {
        if small {
            BenchSpec::test_scale(f)
        } else {
            BenchSpec::paper_figure(f)
        }
    };
    let mut reports = Vec::new();
    for fig in [3u32, 4, 5, 6] {
        eprintln!("running figure {fig} (six configurations)...");
        let r = run_figure(fig, &spec_of(fig));
        println!("{}", r.summary());
        reports.push(r);
    }
    println!("==== Shape criteria (paper §5 narrative) ====");
    let mut pass = 0;
    let criteria = shape_criteria(&reports[0], &reports[1]);
    let total = criteria.len();
    for (desc, ok) in criteria {
        println!("[{}] {}", if ok { "PASS" } else { "FAIL" }, desc);
        pass += ok as usize;
    }
    println!("{pass}/{total} criteria hold");

    eprintln!("running mesh study...");
    let mesh_spec = if small {
        MeshEvalSpec::test_scale()
    } else {
        MeshEvalSpec::paper()
    };
    let mesh = run_mesh_eval(&mesh_spec);
    println!("{}", mesh.render());
    if pass < total {
        eprintln!("{} shape criteria FAIL", total - pass);
        std::process::exit(1);
    }
}
