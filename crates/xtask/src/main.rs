//! `cargo xtask lint` — the PREMA static lint pass.
//!
//! Pure std, no dependencies: it must build and run offline in seconds.
//! Rules (see `lints.rs` for rationale and fixtures):
//!
//! * `relaxed-ordering` — no `Ordering::Relaxed` outside
//!   `allow/relaxed-ordering.txt` (workspace `crates/*/src`).
//! * `blocking-call`    — no `thread::sleep` / bare `.recv()` in non-test
//!   code of the message-driven crates (`core`, `dcs`, `mol`, `ilb`)
//!   outside `allow/blocking-calls.txt`.
//! * `unwrap`           — no `.unwrap()` and no non-invariant `.expect()`
//!   messages in non-test code of those crates.
//! * `handler-id`       — every `const NAME: HandlerId` is referenced by a
//!   registration or dispatch site somewhere in the workspace.
//! * `bench-invariants` — the bench crate's manifest must not compile the
//!   `check-invariants` oracles into measured code.
//! * `trace-hygiene`    — no raw `Instant::now()` / `SystemTime::now()`
//!   outside the trace/sim clock owners (workspace `crates/*/src`),
//!   outside `allow/trace-hygiene.txt`.
//! * `batch-hygiene`    — no raw `Bytes::from(..)` /
//!   `Bytes::copy_from_slice(..)` payload construction in dcs/mol hot paths
//!   outside the pool module, outside `allow/batch-hygiene.txt`.
//! * `ring-hygiene`     — no allocation tokens (`Box::new`, `Vec::new`,
//!   `format!`, …) inside the ring transport's steady-state functions
//!   (`crates/dcs/src/{transport,ring}.rs`), outside
//!   `allow/ring-hygiene.txt`.
//!
//! `cargo xtask bench-json` runs the substrate and figure benchmarks and
//! aggregates their per-benchmark JSON lines into the checked-in
//! `BENCH_substrate.json` / `BENCH_figures.json` baselines.
//!
//! `cargo xtask trace-report <trace.jsonl> [stride]` replays a JSONL event
//! trace (harness `PREMA_TRACE_OUT`) into the per-processor breakdown table
//! plus forwarding-chain, begging-latency, and migration views.

mod analyze;
mod lex;
mod lints;
mod source;
mod trace_report;

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
        Some("analyze") => analyze_cmd(&args[1..]),
        Some("bench-json") => bench_json(),
        Some("trace-report") => trace_report_cmd(&args[1..]),
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
    eprintln!(
        "usage: cargo xtask <lint | analyze [--json] | bench-json | trace-report <trace.jsonl> [stride]>"
    );
}

/// `cargo xtask trace-report <trace.jsonl> [stride]`.
fn trace_report_cmd(args: &[String]) -> ExitCode {
    let Some(path) = args.first() else {
        usage();
        return ExitCode::FAILURE;
    };
    let stride: usize = match args.get(1).map(|s| s.parse()) {
        None => 1,
        Some(Ok(n)) => n,
        Some(Err(_)) => {
            eprintln!("xtask: stride must be a positive integer");
            return ExitCode::FAILURE;
        }
    };
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("xtask: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    match trace_report::report(&text, stride) {
        Ok(out) => {
            print!("{out}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("xtask trace-report: {e}");
            ExitCode::FAILURE
        }
    }
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
    let allow_dir = root.join("crates/xtask/allow");
    // relaxed-ordering is line-granular: one justified entry per access.
    let relaxed_allow = load_allowlist(&allow_dir.join("relaxed-ordering.txt"), true);
    let blocking_allow = load_allowlist(&allow_dir.join("blocking-calls.txt"), false);
    let hygiene_allow = load_allowlist(&allow_dir.join("trace-hygiene.txt"), false);
    let batch_allow = load_allowlist(&allow_dir.join("batch-hygiene.txt"), false);
    // ring-hygiene is line-granular: one justified entry per allocation.
    let ring_allow = load_allowlist(&allow_dir.join("ring-hygiene.txt"), true);

    // Everything under crates/*/src, plus tests/ and examples/ for the
    // handler-id cross-reference (a registration in an integration test or
    // example is a real dispatch site).
    let mut src_files: Vec<SourceFile> = Vec::new();
    let mut all_files: Vec<SourceFile> = Vec::new();
    match load_workspace_files(&root) {
        Ok(files) => {
            for f in files {
                if f.path.contains("/src/") {
                    src_files.push(f);
                } else {
                    all_files.push(f);
                }
            }
        }
        Err(code) => return code,
    }

    let mut violations: Vec<Violation> = Vec::new();
    violations.extend(relaxed_allow.parse_errors.iter().map(clone_violation));
    violations.extend(blocking_allow.parse_errors.iter().map(clone_violation));
    violations.extend(hygiene_allow.parse_errors.iter().map(clone_violation));
    violations.extend(batch_allow.parse_errors.iter().map(clone_violation));
    violations.extend(ring_allow.parse_errors.iter().map(clone_violation));

    let mut relaxed_used = BTreeSet::new();
    let mut blocking_used = BTreeSet::new();
    let mut hygiene_used = BTreeSet::new();
    let mut batch_used = BTreeSet::new();
    let mut ring_used = BTreeSet::new();
    for f in &src_files {
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
        violations.extend(lints::lint_ring_hygiene(f, &ring_allow, &mut ring_used));
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
    violations.extend(relaxed_allow.unused(&relaxed_used));
    violations.extend(blocking_allow.unused(&blocking_used));
    violations.extend(hygiene_allow.unused(&hygiene_used));
    violations.extend(batch_allow.unused(&batch_used));
    violations.extend(ring_allow.unused(&ring_used));

    // handler-id sees every file (src + tests + examples).
    let mut everything = src_files;
    everything.extend(all_files);
    violations.extend(lints::lint_handler_ids(&everything));

    // bench-invariants reads manifests, not .rs files: the bench crate must
    // measure the oracle-free build (`default-features = false` end to end).
    let bench_manifest = root.join("crates/bench/Cargo.toml");
    let workspace_manifest = root.join("Cargo.toml");
    match (
        std::fs::read_to_string(&bench_manifest),
        std::fs::read_to_string(&workspace_manifest),
    ) {
        (Ok(bench), Ok(workspace)) => {
            violations.extend(lints::lint_bench_manifest(
                "crates/bench/Cargo.toml",
                &bench,
                &workspace,
            ));
        }
        (bench, workspace) => {
            for (path, res) in [(&bench_manifest, bench), (&workspace_manifest, workspace)] {
                if let Err(e) = res {
                    eprintln!("xtask: cannot read {}: {e}", path.display());
                }
            }
            return ExitCode::FAILURE;
        }
    }

    violations.sort_by(|a, b| (&a.path, a.line, a.lint).cmp(&(&b.path, b.line, b.lint)));
    for v in &violations {
        println!("{}:{}: [{}] {}", v.path, v.line, v.lint, v.message);
    }
    if violations.is_empty() {
        println!(
            "xtask lint: OK ({} files, 8 lints, 0 violations)",
            everything.len()
        );
        ExitCode::SUCCESS
    } else {
        println!("xtask lint: {} violation(s)", violations.len());
        ExitCode::FAILURE
    }
}

/// `cargo xtask analyze [--json]` — the four token-level protocol and
/// concurrency analyses (see `analyze.rs`): handler graph, wire-schema
/// pairing, atomics audit, trace-event coverage. Exit code gates on zero
/// violations; `--json` emits a machine-readable report on stdout instead
/// of the human tables.
fn analyze_cmd(args: &[String]) -> ExitCode {
    let json = args.iter().any(|a| a == "--json");
    let root = workspace_root();
    let files = match load_workspace_files(&root) {
        Ok(f) => f,
        Err(code) => return code,
    };

    let atomics_allow = load_allowlist(
        &root.join("crates/xtask/allow/atomics.txt"),
        true, // line-granular, like relaxed-ordering
    );
    let mut atomics_used = BTreeSet::new();

    let (handlers, hv) = analyze::handler_graph(&files);
    let (wire_fns, wv) = analyze::wire_pairing(&files);
    let (atomics, av) = analyze::atomics_audit(&files, &atomics_allow, &mut atomics_used);
    let (events, tv) = analyze::trace_coverage(&files);

    let mut violations: Vec<Violation> = Vec::new();
    violations.extend(atomics_allow.parse_errors.iter().map(clone_violation));
    violations.extend(hv);
    violations.extend(wv);
    violations.extend(av);
    violations.extend(tv);
    violations.extend(atomics_allow.unused(&atomics_used));
    violations.sort_by(|a, b| (&a.path, a.line, a.lint).cmp(&(&b.path, b.line, b.lint)));

    if json {
        print!(
            "{}",
            analyze_json(&files, &handlers, &wire_fns, &atomics, &events, &violations)
        );
        return if violations.is_empty() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }

    for v in &violations {
        println!("{}:{}: [{}] {}", v.path, v.line, v.lint, v.message);
    }

    // Audit table: every atomic with its orderings and how it is verified
    // (allowlisted entries show their recorded justification).
    println!("atomics audit ({} declarations):", atomics.len());
    for d in &atomics {
        let why = atomics_allow
            .entries
            .get(&format!("{}:{}", d.path, d.line))
            .map(|e| format!(" — {}", e.why))
            .unwrap_or_default();
        println!(
            "  {}:{}: {}.{} ({}) orderings=[{}] coverage={}{}",
            d.path,
            d.line,
            d.container,
            d.name,
            d.ty,
            d.orderings.iter().cloned().collect::<Vec<_>>().join("/"),
            d.coverage.label(),
            why
        );
    }
    println!(
        "handler graph: {} handlers ({} envelope-plane, {} node-plane), all routed",
        handlers.len(),
        handlers
            .iter()
            .filter(|h| h.plane == analyze::Plane::Envelope)
            .count(),
        handlers
            .iter()
            .filter(|h| h.plane == analyze::Plane::Node)
            .count(),
    );
    println!(
        "wire pairing: {} encode/decode fns checked; trace coverage: {} events",
        wire_fns.len(),
        events.len()
    );
    if violations.is_empty() {
        println!(
            "xtask analyze: OK ({} files, 4 analyses, 0 violations)",
            files.len()
        );
        ExitCode::SUCCESS
    } else {
        println!("xtask analyze: {} violation(s)", violations.len());
        ExitCode::FAILURE
    }
}

/// Escape a string for inclusion in a JSON document.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

/// Hand-rolled `--json` report (xtask is pure std by design).
fn analyze_json(
    files: &[SourceFile],
    handlers: &[analyze::HandlerInfo],
    wire_fns: &[analyze::WireFn],
    atomics: &[analyze::AtomicDecl],
    events: &[analyze::TraceEventInfo],
    violations: &[Violation],
) -> String {
    let mut s = String::from("{\n");
    s.push_str(&format!(
        "  \"summary\": {{\"files\": {}, \"handlers\": {}, \"wire_fns\": {}, \
         \"atomics\": {}, \"trace_events\": {}, \"violations\": {}}},\n",
        files.len(),
        handlers.len(),
        wire_fns.len(),
        atomics.len(),
        events.len(),
        violations.len()
    ));
    s.push_str("  \"violations\": [\n");
    for (i, v) in violations.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"path\": \"{}\", \"line\": {}, \"lint\": \"{}\", \"message\": \"{}\"}}{}\n",
            json_escape(&v.path),
            v.line,
            v.lint,
            json_escape(&v.message),
            if i + 1 < violations.len() { "," } else { "" }
        ));
    }
    s.push_str("  ],\n  \"handlers\": [\n");
    for (i, h) in handlers.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"plane\": \"{}\", \"value\": {}, \"path\": \"{}\", \
             \"line\": {}, \"sends\": {}, \"recvs\": {}}}{}\n",
            json_escape(&h.name),
            h.plane.label(),
            h.value.map_or("null".to_string(), |v| v.to_string()),
            json_escape(&h.path),
            h.line,
            h.sends,
            h.recvs,
            if i + 1 < handlers.len() { "," } else { "" }
        ));
    }
    s.push_str("  ],\n  \"wire_fns\": [\n");
    for (i, w) in wire_fns.iter().enumerate() {
        let ops: Vec<String> = w.ops.iter().map(|o| format!("\"{o}\"")).collect();
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"ctx\": \"{}\", \"path\": \"{}\", \"line\": {}, \
             \"ops\": [{}]}}{}\n",
            json_escape(&w.name),
            json_escape(&w.ctx),
            json_escape(&w.path),
            w.line,
            ops.join(", "),
            if i + 1 < wire_fns.len() { "," } else { "" }
        ));
    }
    s.push_str("  ],\n  \"atomics\": [\n");
    for (i, d) in atomics.iter().enumerate() {
        let ords: Vec<String> = d.orderings.iter().map(|o| format!("\"{o}\"")).collect();
        s.push_str(&format!(
            "    {{\"path\": \"{}\", \"line\": {}, \"container\": \"{}\", \"name\": \"{}\", \
             \"type\": \"{}\", \"orderings\": [{}], \"coverage\": \"{}\"}}{}\n",
            json_escape(&d.path),
            d.line,
            json_escape(&d.container),
            json_escape(&d.name),
            json_escape(&d.ty),
            ords.join(", "),
            d.coverage.label(),
            if i + 1 < atomics.len() { "," } else { "" }
        ));
    }
    s.push_str("  ],\n  \"trace_events\": [\n");
    for (i, e) in events.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"variant\": \"{}\", \"name\": {}, \"emitted\": {}, \"consumed\": {}}}{}\n",
            json_escape(&e.variant),
            e.name
                .as_ref()
                .map_or("null".to_string(), |n| format!("\"{}\"", json_escape(n))),
            e.emitted,
            e.consumed,
            if i + 1 < events.len() { "," } else { "" }
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

/// Benchmark targets feeding each checked-in baseline file: the substrate
/// baseline carries both the microbenchmarks and the fast-path
/// before/after comparison; the figure baseline carries the paper's
/// experiment reproductions.
const BENCH_BASELINES: &[(&str, &[&str])] = &[
    (
        "BENCH_substrate.json",
        &[
            "substrates",
            "fastpath",
            "mol_directory",
            "mol_ready",
            "ring",
            "udp",
        ],
    ),
    ("BENCH_figures.json", &["figures"]),
];

/// Run the baseline benchmarks and aggregate their JSON lines (emitted by
/// the harness via `PREMA_BENCH_JSON`) into pretty-printed `BENCH_*.json`
/// files at the workspace root.
fn bench_json() -> ExitCode {
    let root = workspace_root();
    let scratch = root.join("target/bench-json");
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("xtask: cannot create {}: {e}", scratch.display());
        return ExitCode::FAILURE;
    }

    for (out_name, benches) in BENCH_BASELINES {
        let jsonl = scratch.join(format!("{out_name}l"));
        let _ = std::fs::remove_file(&jsonl); // the harness appends; start clean
        for bench in *benches {
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
        let out_path = root.join(out_name);
        if let Err(e) = std::fs::write(&out_path, aggregate_json(&lines)) {
            eprintln!("xtask: cannot write {}: {e}", out_path.display());
            return ExitCode::FAILURE;
        }
        println!("xtask bench-json: wrote {}", out_path.display());
    }
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

fn clone_violation(v: &Violation) -> Violation {
    Violation {
        path: v.path.clone(),
        line: v.line,
        lint: v.lint,
        message: v.message.clone(),
    }
}

fn load_allowlist(path: &Path, line_keyed: bool) -> Allowlist {
    let rel = path
        .strip_prefix(workspace_root())
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/");
    let text = std::fs::read_to_string(path).unwrap_or_default();
    if line_keyed {
        Allowlist::parse_line_keyed(&rel, &text)
    } else {
        Allowlist::parse(&rel, &text)
    }
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
