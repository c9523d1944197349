//! Replay a JSONL event trace into the paper's per-processor time-breakdown
//! table plus the forwarding-chain, directory, begging-latency, migration
//! and activity views (`prema_harness::trace_report`).
//!
//! Usage: `cargo run -p prema-harness --release --bin trace-report -- <trace.jsonl> [stride]`
//!
//! The trace is the `figure` binary's `PREMA_TRACE_OUT` dump, one
//! `prema-launch --trace-dir` rank file (or their concatenation), or any
//! `TraceSink::write_jsonl` output. `stride > 1` prints every `stride`-th
//! processor in the per-processor tables. The dump is folded as it is
//! read, line by line, so memory does not grow with its length.

use prema_harness::trace_report;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(path) = args.first() else {
        eprintln!("usage: trace-report <trace.jsonl> [stride]");
        return ExitCode::FAILURE;
    };
    let stride: usize = match args.get(1).map(|s| s.parse()) {
        None => 1,
        Some(Ok(n)) => n,
        Some(Err(_)) => {
            eprintln!("trace-report: stride must be a positive integer");
            return ExitCode::FAILURE;
        }
    };
    let file = match std::fs::File::open(path) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("trace-report: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    match trace_report::report(std::io::BufReader::new(file), stride) {
        Ok(out) => {
            print!("{out}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("trace-report: {e}");
            ExitCode::FAILURE
        }
    }
}
