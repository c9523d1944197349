//! Multi-process soak: the Fig. 3 workload shape across real OS processes
//! over UDP loopback, with seeded loss injected inside every rank's
//! receive path.
//!
//! This is the out-of-process twin of `crates/harness/tests/chaos_soak.rs`:
//! the processes genuinely share nothing (separate address spaces, real
//! sockets, real syscalls), so exactly-once execution can only come from
//! the wire protocol itself — the reliable layer's ack/retry over the
//! versioned UDP datagrams. The launcher's report is a pure function of
//! the configuration and the work-conservation outcome, so repeated runs
//! of a correct build must be bit-identical.

use std::process::Command;

/// Run the launcher binary with `args`, returning (exit-ok, stdout).
fn run_launcher(args: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_prema-launch"))
        // Scrub ambient knobs that would change the workers' behavior
        // behind the test's back.
        .env_remove("PREMA_LAUNCH_RANK")
        .env_remove("PREMA_CHAOS_SEED")
        .env_remove("PREMA_CHAOS_LOSS")
        .args(args)
        .output()
        .expect("spawn prema-launch");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

#[test]
fn two_process_soak_is_exact_and_deterministic() {
    let args = [
        "--ranks",
        "2",
        "--loss",
        "0.02",
        "--seed",
        "3",
        "--units-per-proc",
        "10",
    ];
    let mut reports = Vec::new();
    for run in 0..3 {
        let (ok, stdout) = run_launcher(&args);
        assert!(ok, "run {run} failed:\n{stdout}");
        assert!(
            stdout.contains("exactly-once: ok"),
            "run {run} lost or doubled units:\n{stdout}"
        );
        reports.push(stdout);
    }
    for (run, report) in reports.iter().enumerate().skip(1) {
        assert_eq!(
            report, &reports[0],
            "run {run}'s report diverged from run 0"
        );
    }
}

#[test]
fn four_process_soak_is_exact() {
    let (ok, stdout) = run_launcher(&["--ranks", "4", "--loss", "0.02", "--seed", "3"]);
    assert!(ok, "4-rank run failed:\n{stdout}");
    assert!(
        stdout.contains("exactly-once: ok"),
        "4-rank run lost or doubled units:\n{stdout}"
    );
    assert!(
        stdout.contains("ranks=4 units=80"),
        "unexpected shape:\n{stdout}"
    );
}

#[test]
fn launcher_rejects_bad_usage() {
    let (ok, _) = run_launcher(&["--ranks", "0"]);
    assert!(!ok, "--ranks 0 must be a usage error");
    let (ok, _) = run_launcher(&["--loss", "2.0"]);
    assert!(!ok, "--loss outside [0,1] must be a usage error");
}
