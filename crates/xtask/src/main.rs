//! `cargo xtask lint` — the PREMA static checks, in one pass over one load
//! of the workspace's sources. Pure std, no dependencies: it must build and
//! run offline in seconds. Every violation prints as `path:line: [check]`.
//!
//! Five line lints (see `lints.rs` for rationale and fixtures):
//!
//! * `relaxed-ordering` — no `Ordering::Relaxed` outside a function named in
//!   `allow/relaxed-ordering.txt` (workspace `crates/*/src`).
//! * `blocking-call`    — no `thread::sleep` / bare `.recv()` in non-test
//!   code of the message-driven crates (`core`, `dcs`, `mol`, `ilb`)
//!   outside `allow/blocking-calls.txt`.
//! * `unwrap`           — no `.unwrap()` and no non-invariant `.expect()`
//!   messages in non-test code of those crates.
//! * `trace-hygiene`    — no raw `Instant::now()` / `SystemTime::now()`
//!   outside the trace/sim clock owners (workspace `crates/*/src`),
//!   outside `allow/trace-hygiene.txt`.
//! * `batch-hygiene`    — no raw `Bytes::from(..)` /
//!   `Bytes::copy_from_slice(..)` payload construction in dcs/mol hot paths
//!   outside the pool module, outside `allow/batch-hygiene.txt`.
//!
//! Two cross-crate analyses (see `analyze.rs`, DESIGN.md §12): the atomics
//! audit (`allow/atomics.txt`) and trace-event coverage. Whether each
//! runtime message kind is both sent and handled is the compiler's check:
//! each protocol crate keeps its kinds in one crate-private enum.
//!
//! `cargo xtask bench-json` runs the substrate benchmarks and aggregates
//! their per-benchmark JSON lines into the checked-in `BENCH_substrate.json`
//! baseline.

mod analyze;
mod lex;
mod lints;
mod source;

use lints::{Allowlist, Violation};
use source::SourceFile;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Crates whose non-test code must be free of blocking calls and unwraps.
const MESSAGE_DRIVEN_CRATES: &[&str] = &["core", "dcs", "mol", "ilb"];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => lint(),
        Some("bench-json") => bench_json(),
        Some(other) => {
            eprintln!("unknown xtask `{other}`\n");
            usage();
            ExitCode::FAILURE
        }
        None => {
            usage();
            ExitCode::FAILURE
        }
    }
}

fn usage() {
    eprintln!("usage: cargo xtask <lint | bench-json>");
}

/// Workspace root, derived from this crate's location (`crates/xtask`).
fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("xtask lives two levels below the workspace root")
        .to_path_buf()
}

/// Parse every workspace `.rs` file (crates + examples) into `SourceFile`s.
fn load_workspace_files(root: &Path) -> Result<Vec<SourceFile>, ExitCode> {
    let mut files = Vec::new();
    for path in rust_files(&root.join("crates"))
        .into_iter()
        .chain(rust_files(&root.join("examples")))
    {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("xtask: cannot read {rel}: {e}");
                return Err(ExitCode::FAILURE);
            }
        };
        files.push(SourceFile::parse(&rel, &text));
    }
    Ok(files)
}

fn lint() -> ExitCode {
    let root = workspace_root();
    let files = match load_workspace_files(&root) {
        Ok(files) => files,
        Err(code) => return code,
    };
    let allow = |name: &str, by_item: bool| {
        let rel = format!("crates/xtask/allow/{name}");
        let text = std::fs::read_to_string(root.join(&rel)).unwrap_or_default();
        if by_item {
            Allowlist::parse_by_item(&rel, &text)
        } else {
            Allowlist::parse(&rel, &text)
        }
    };
    let relaxed_allow = allow("relaxed-ordering.txt", true);
    let atomics_allow = allow("atomics.txt", true);
    let blocking_allow = allow("blocking-calls.txt", false);
    let hygiene_allow = allow("trace-hygiene.txt", false);
    let batch_allow = allow("batch-hygiene.txt", false);

    let mut violations: Vec<Violation> = Vec::new();
    let mut relaxed_used = BTreeSet::new();
    let mut atomics_used = BTreeSet::new();
    let mut blocking_used = BTreeSet::new();
    let mut hygiene_used = BTreeSet::new();
    let mut batch_used = BTreeSet::new();
    for f in files.iter().filter(|f| f.path.contains("/src/")) {
        violations.extend(lints::lint_relaxed_ordering(
            f,
            &relaxed_allow,
            &mut relaxed_used,
        ));
        violations.extend(lints::lint_trace_hygiene(
            f,
            &hygiene_allow,
            &mut hygiene_used,
        ));
        violations.extend(lints::lint_batch_hygiene(f, &batch_allow, &mut batch_used));
        let crate_name = f
            .path
            .strip_prefix("crates/")
            .and_then(|p| p.split('/').next());
        if crate_name.is_some_and(|c| MESSAGE_DRIVEN_CRATES.contains(&c)) {
            violations.extend(lints::lint_blocking_calls(
                f,
                &blocking_allow,
                &mut blocking_used,
            ));
            violations.extend(lints::lint_unwrap(f));
        }
    }
    let (atomics, av) = analyze::atomics_audit(&files, &atomics_allow, &mut atomics_used);
    let (events, tv) = analyze::trace_coverage(&files);
    violations.extend(av.into_iter().chain(tv));
    for (list, used) in [
        (&relaxed_allow, &relaxed_used),
        (&atomics_allow, &atomics_used),
        (&blocking_allow, &blocking_used),
        (&hygiene_allow, &hygiene_used),
        (&batch_allow, &batch_used),
    ] {
        violations.extend(list.parse_errors.iter().cloned());
        violations.extend(list.unused(used));
    }

    violations.sort_by(|a, b| (&a.path, a.line, a.lint).cmp(&(&b.path, b.line, b.lint)));
    for v in &violations {
        println!("{}:{}: [{}] {}", v.path, v.line, v.lint, v.message);
    }
    if violations.is_empty() {
        println!(
            "xtask lint: OK ({} files, 7 checks: {} atomics, {} trace events; 0 violations)",
            files.len(),
            atomics.len(),
            events.len()
        );
        ExitCode::SUCCESS
    } else {
        println!("xtask lint: {} violation(s)", violations.len());
        ExitCode::FAILURE
    }
}

/// Benchmark targets feeding the checked-in baseline: the microbenchmarks
/// and the fast-path before/after comparison.
const BASELINE_BENCHES: &[&str] = &[
    "substrates",
    "fastpath",
    "mol_directory",
    "mol_ready",
    "ring",
    "udp",
];

/// Run the baseline benchmarks and aggregate their JSON lines (emitted by
/// the harness via `PREMA_BENCH_JSON`) into a pretty-printed
/// `BENCH_substrate.json` at the workspace root.
fn bench_json() -> ExitCode {
    let root = workspace_root();
    let scratch = root.join("target/bench-json");
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("xtask: cannot create {}: {e}", scratch.display());
        return ExitCode::FAILURE;
    }
    let jsonl = scratch.join("BENCH_substrate.jsonl");
    let _ = std::fs::remove_file(&jsonl); // the harness appends; start clean
    for bench in BASELINE_BENCHES {
        println!("xtask bench-json: running `cargo bench -p prema-bench --bench {bench}`");
        let status = std::process::Command::new(env!("CARGO"))
            .args(["bench", "-p", "prema-bench", "--bench", bench])
            .env("PREMA_BENCH_JSON", &jsonl)
            .current_dir(&root)
            .status();
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("xtask: bench `{bench}` failed with {s}");
                return ExitCode::FAILURE;
            }
            Err(e) => {
                eprintln!("xtask: cannot spawn cargo bench: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let lines = match std::fs::read_to_string(&jsonl) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("xtask: no benchmark output at {}: {e}", jsonl.display());
            return ExitCode::FAILURE;
        }
    };
    let out_path = root.join("BENCH_substrate.json");
    if let Err(e) = std::fs::write(&out_path, aggregate_json(&lines)) {
        eprintln!("xtask: cannot write {}: {e}", out_path.display());
        return ExitCode::FAILURE;
    }
    println!("xtask bench-json: wrote {}", out_path.display());
    ExitCode::SUCCESS
}

/// Wrap harness JSON lines (one flat object per benchmark) into a single
/// pretty-enough JSON document without needing a JSON parser.
fn aggregate_json(jsonl: &str) -> String {
    let lines: Vec<&str> = jsonl.lines().filter(|l| !l.trim().is_empty()).collect();
    let mut out = String::from("{\n  \"benchmarks\": [\n");
    for (i, line) in lines.iter().enumerate() {
        out.push_str("    ");
        out.push_str(line.trim());
        if i + 1 < lines.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("  ]\n}\n");
    out
}

/// All `.rs` files under `dir`, skipping build output.
fn rust_files(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let entries = match std::fs::read_dir(&d) {
            Ok(e) => e,
            Err(_) => continue,
        };
        for entry in entries.flatten() {
            let p = entry.path();
            if p.is_dir() {
                let name = p.file_name().and_then(|n| n.to_str()).unwrap_or("");
                if name != "target" && !name.starts_with('.') {
                    stack.push(p);
                }
            } else if p.extension().is_some_and(|e| e == "rs") {
                out.push(p);
            }
        }
    }
    out.sort();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every `PREMA_[A-Z0-9_]+` name inside a string literal of `text`.
    fn knob_names(text: &str) -> impl Iterator<Item = &str> {
        text.match_indices("PREMA_").map(move |(at, _)| {
            let len = text[at..]
                .find(|c: char| !(c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_'))
                .unwrap_or(text.len() - at);
            text[at..at + len].trim_end_matches('_')
        })
    }

    /// README's environment-knob table lists exactly the `PREMA_*` names in
    /// the string literals of non-test `crates/*/src` code: a knob cannot be
    /// added, or left behind after its reader goes, without a visible diff.
    #[test]
    fn readme_knob_table_matches_the_source() {
        let root = workspace_root();
        let mut in_code = BTreeSet::new();
        for krate in std::fs::read_dir(root.join("crates")).expect("crates/ exists") {
            for path in rust_files(&krate.expect("readable entry").path().join("src")) {
                let text = std::fs::read_to_string(&path).expect("readable source");
                let sf = SourceFile::parse(&path.to_string_lossy(), &text);
                for tok in sf.tokens.iter().filter(|t| !sf.line_is_test(t.line)) {
                    if let Some(lit) = tok.str_content() {
                        in_code.extend(knob_names(lit).map(str::to_string));
                    }
                }
            }
        }
        let readme = std::fs::read_to_string(root.join("README.md")).expect("README.md");
        let table = readme
            .split("### Environment knobs")
            .nth(1)
            .expect("README has an `Environment knobs` section");
        let in_readme: BTreeSet<String> = table
            .lines()
            .skip_while(|l| !l.starts_with('|'))
            .take_while(|l| l.starts_with('|'))
            .filter_map(|row| row.split('|').nth(1))
            .flat_map(knob_names)
            .map(str::to_string)
            .collect();
        assert!(
            !in_code.is_empty(),
            "no PREMA_* literal found under crates/*/src"
        );
        assert_eq!(in_readme, in_code, "README knob table vs the source");
    }
}
