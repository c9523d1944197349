//! The PREMA lint rules. Each lint is a pure function over [`SourceFile`]s
//! (plus explicit configuration), so fixtures in the tests below exercise
//! exactly the code `cargo xtask lint` runs.

use crate::analyze::code_tokens;
use crate::lex::Kind;
use crate::source::SourceFile;
use std::collections::{BTreeMap, BTreeSet};

/// One lint finding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    pub path: String,
    pub line: usize,
    pub lint: &'static str,
    pub message: String,
}

impl Violation {
    pub(crate) fn new(path: &str, line: usize, lint: &'static str, message: String) -> Self {
        Violation {
            path: path.to_string(),
            line,
            lint,
            message,
        }
    }
}

/// Parsed allowlist: key -> the 1-based line of its entry in the allowlist
/// file (so stale-entry diagnostics point at the exact line to delete). A
/// key is a workspace-relative `path`, or `path: item` in a list keyed by
/// item ([`Allowlist::parse_by_item`]).
///
/// File format: one `path: justification` (or `path: item: justification`)
/// per line; `#` starts a comment. A justification is mandatory — an
/// allowlist entry without a reason is itself a violation (reported against
/// the allowlist file). An item is a function name or an atomic's
/// `Container.field`: it names what is allowed without naming a line, so
/// an edit that moves the code needs no allowlist edit, and a single entry
/// can never blanket a whole file.
pub struct Allowlist {
    pub file: String,
    pub entries: BTreeMap<String, usize>,
    pub parse_errors: Vec<Violation>,
}

/// The key of `item` in `path` in a list keyed by item.
pub fn item_key(path: &str, item: &str) -> String {
    format!("{path}: {item}")
}

impl Allowlist {
    /// Parse a list keyed by file: `path: justification`.
    pub fn parse(file: &str, text: &str) -> Allowlist {
        Self::parse_with(file, text, false)
    }

    /// Parse a list keyed by item: `path: item: justification`.
    pub fn parse_by_item(file: &str, text: &str) -> Allowlist {
        Self::parse_with(file, text, true)
    }

    fn parse_with(file: &str, text: &str, by_item: bool) -> Allowlist {
        let mut entries = BTreeMap::new();
        let mut parse_errors = Vec::new();
        for (i, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let parsed = line.split_once(':').and_then(|(path, rest)| {
                let path = path.trim();
                if !by_item {
                    return Some((path.to_string(), rest.trim()));
                }
                let (item, why) = rest.split_once(':')?;
                let item = item.trim();
                let is_name = item.starts_with(|c: char| c.is_ascii_alphabetic() || c == '_')
                    && item
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.');
                is_name.then(|| (item_key(path, item), why.trim()))
            });
            match parsed {
                Some((key, why)) if !why.is_empty() => {
                    entries.insert(key, i + 1);
                }
                _ => parse_errors.push(Violation::new(
                    file,
                    i + 1,
                    "allowlist",
                    format!(
                        "entry must be `{}: justification`, got `{line}`",
                        if by_item { "path: item" } else { "path" }
                    ),
                )),
            }
        }
        Allowlist {
            file: file.to_string(),
            entries,
            parse_errors,
        }
    }

    pub fn allows(&self, key: &str) -> bool {
        self.entries.contains_key(key)
    }

    /// Entries that never matched a finding: stale allowances are violations
    /// too, so the allowlist can only shrink. Reported at the entry's own
    /// line in the allowlist file.
    pub fn unused(&self, used: &BTreeSet<String>) -> Vec<Violation> {
        self.entries
            .iter()
            .filter(|(k, _)| !used.contains(*k))
            .map(|(k, &line)| {
                Violation::new(
                    &self.file,
                    line,
                    "allowlist",
                    format!("stale entry `{k}`: no finding at that key any more"),
                )
            })
            .collect()
    }
}

/// Forbid `Ordering::Relaxed` outside the allowlist.
///
/// Rationale: the vendored loom explorer verifies schedules under sequential
/// consistency only, so every relaxed access is unverified by tooling and
/// must carry a written justification. The allowlist is keyed by the
/// innermost enclosing function (`path: fn_name`): an entry covers that
/// function's relaxed accesses and no other function's, and an access
/// outside any function body cannot be allowlisted at all.
pub fn lint_relaxed_ordering(
    file: &SourceFile,
    allow: &Allowlist,
    used: &mut BTreeSet<String>,
) -> Vec<Violation> {
    let mut out = Vec::new();
    let toks = code_tokens(file);
    // The enclosing fns, innermost last, each with the brace depth inside
    // its body; `pending` is a declared fn whose body has not opened yet.
    let mut fns: Vec<(&str, i32)> = Vec::new();
    let mut pending: Option<&str> = None;
    let (mut depth, mut nest) = (0i32, 0i32);
    for (i, t) in toks.iter().enumerate() {
        match t.text.as_str() {
            "fn" if t.kind == Kind::Ident => {
                pending = toks
                    .get(i + 1)
                    .filter(|n| n.kind == Kind::Ident)
                    .map(|n| n.text.as_str());
            }
            "(" | "[" => nest += 1,
            ")" | "]" => nest -= 1,
            // A body-less declaration (trait method, extern fn).
            ";" if nest == 0 => pending = None,
            "{" => {
                depth += 1;
                if let Some(name) = pending.take() {
                    fns.push((name, depth));
                }
            }
            "}" => {
                if fns.last().is_some_and(|&(_, d)| d == depth) {
                    fns.pop();
                }
                depth -= 1;
            }
            "Relaxed"
                if i >= 2 && toks[i - 1].is_punct("::") && toks[i - 2].is_ident("Ordering") =>
            {
                if let Some(&(name, _)) = fns.last() {
                    let key = item_key(&file.path, name);
                    if allow.allows(&key) {
                        used.insert(key);
                        continue;
                    }
                }
                out.push(Violation::new(
                    &file.path,
                    t.line,
                    "relaxed-ordering",
                    format!(
                        "Ordering::Relaxed outside the audited allowlist; use \
                         Acquire/Release (or SeqCst) or add a `{}` allowlist \
                         entry with a justification",
                        item_key(&file.path, fns.last().map_or("<fn>", |f| f.0))
                    ),
                ));
            }
            _ => {}
        }
    }
    out
}

/// Forbid blocking calls — `std::thread::sleep` and bare `.recv()` — in
/// non-test runtime code of the message-driven crates. Handlers run on the
/// polling thread; a blocked handler stalls every object on the node.
pub fn lint_blocking_calls(
    file: &SourceFile,
    allow: &Allowlist,
    used: &mut BTreeSet<String>,
) -> Vec<Violation> {
    let mut out = Vec::new();
    for (ln, stripped, _orig) in file.non_test_lines() {
        let sleep = stripped.contains("thread::sleep(");
        // `.recv()` blocks forever; `.recv_timeout(..)` / `.try_recv()` are
        // the sanctioned forms.
        let recv = stripped.contains(".recv()");
        if !sleep && !recv {
            continue;
        }
        if allow.allows(&file.path) {
            used.insert(file.path.clone());
            continue;
        }
        let what = if sleep { "thread::sleep" } else { ".recv()" };
        out.push(Violation::new(
            &file.path,
            ln,
            "blocking-call",
            format!(
                "{what} in message-driven runtime code blocks the polling \
                 thread; use recv_timeout/try_recv or move the wait off the \
                 handler path (or allowlist with a justification)"
            ),
        ));
    }
    out
}

/// Files allowed to read the wall clock directly: the trace crate owns the
/// epoch every live `Tracer` stamps against, and the simulator's time module
/// defines the virtual clock. Everything else must stamp via those.
const TRACE_CLOCK_OWNERS: &[&str] = &["crates/trace/src/", "crates/sim/src/time.rs"];

/// Forbid raw `Instant::now()` / `SystemTime::now()` outside the clock
/// owners (and the allowlist). A timestamp taken off any other clock cannot
/// be correlated with trace records, so figures derived from a trace would
/// silently disagree with ad-hoc wall-clock measurements.
pub fn lint_trace_hygiene(
    file: &SourceFile,
    allow: &Allowlist,
    used: &mut BTreeSet<String>,
) -> Vec<Violation> {
    if TRACE_CLOCK_OWNERS
        .iter()
        .any(|p| file.path.starts_with(p) || file.path == *p)
    {
        return Vec::new();
    }
    let mut out = Vec::new();
    for (ln, stripped, _orig) in file.non_test_lines() {
        let instant = stripped.contains("Instant::now(");
        let system = stripped.contains("SystemTime::now(");
        if !instant && !system {
            continue;
        }
        if allow.allows(&file.path) {
            used.insert(file.path.clone());
            continue;
        }
        let what = if instant {
            "Instant::now()"
        } else {
            "SystemTime::now()"
        };
        out.push(Violation::new(
            &file.path,
            ln,
            "trace-hygiene",
            format!(
                "{what} outside the trace/sim clock owners: stamp time via a \
                 prema_trace::Tracer (wall nanos since the sink epoch) or \
                 simulated SimTime so traces stay correlatable (or allowlist \
                 with a justification)"
            ),
        ));
    }
    out
}

/// Crates whose send/receive paths must build payloads through the buffer
/// pool, and the one module allowed to construct `Bytes` from raw vectors
/// (it *is* the pool).
const BATCH_HOT_CRATES: &[&str] = &["crates/dcs/src/", "crates/mol/src/"];
const BATCH_POOL_OWNER: &str = "crates/dcs/src/pool.rs";

/// Forbid raw `Bytes::from(..)` / `Bytes::copy_from_slice(..)` payload
/// construction in the dcs/mol hot paths outside the pool module (and the
/// allowlist). Every such call is a fresh heap allocation the pool exists to
/// avoid; hot paths must take buffers via `pool::take` / `WireWriter::pooled`
/// or freeze them via `pool::build`.
pub fn lint_batch_hygiene(
    file: &SourceFile,
    allow: &Allowlist,
    used: &mut BTreeSet<String>,
) -> Vec<Violation> {
    if !BATCH_HOT_CRATES.iter().any(|p| file.path.starts_with(p)) || file.path == BATCH_POOL_OWNER {
        return Vec::new();
    }
    let mut out = Vec::new();
    for (ln, stripped, _orig) in file.non_test_lines() {
        // `Bytes::from_static` is allocation-free and stays legal; the `(`
        // in the needle keeps it from matching here.
        let from = stripped.contains("Bytes::from(");
        let copy = stripped.contains("Bytes::copy_from_slice(");
        if !from && !copy {
            continue;
        }
        if allow.allows(&file.path) {
            used.insert(file.path.clone());
            continue;
        }
        let what = if from {
            "Bytes::from(..)"
        } else {
            "Bytes::copy_from_slice(..)"
        };
        out.push(Violation::new(
            &file.path,
            ln,
            "batch-hygiene",
            format!(
                "{what} allocates a fresh payload on a dcs/mol hot path; \
                 build through the buffer pool (pool::take / \
                 WireWriter::pooled / pool::build) or allowlist with a \
                 justification"
            ),
        ));
    }
    out
}

/// Minimum words for an `.expect("...")` message to count as stating an
/// invariant rather than restating the operation.
const EXPECT_MIN_WORDS: usize = 3;

/// Forbid `.unwrap()` and short `.expect(..)` messages in non-test code.
pub fn lint_unwrap(file: &SourceFile) -> Vec<Violation> {
    let mut out = Vec::new();
    for (ln, stripped, orig) in file.non_test_lines() {
        if stripped.contains(".unwrap()") {
            out.push(Violation::new(
                &file.path,
                ln,
                "unwrap",
                "`.unwrap()` in non-test code; propagate the error or use \
                 `.expect(\"<invariant that makes this infallible>\")`"
                    .to_string(),
            ));
        }
        // Judge `.expect(` messages. Occurrences are located in the stripped
        // line (so comments/strings cannot fake one) but the message text
        // lives in the original line; byte offsets may differ between the
        // two (multi-byte chars blank to single spaces), so only proceed
        // when the occurrence counts agree and walk the original.
        let in_stripped = stripped.matches(".expect(").count();
        if in_stripped > 0 && orig.matches(".expect(").count() == in_stripped {
            let mut from = 0usize;
            while let Some(pos) = orig[from..].find(".expect(") {
                from += pos + ".expect(".len();
                if let Some(msg) = expect_message(&orig[from..]) {
                    let words = msg.split_whitespace().count();
                    if words < EXPECT_MIN_WORDS {
                        out.push(Violation::new(
                            &file.path,
                            ln,
                            "unwrap",
                            format!(
                                "`.expect(\"{msg}\")` message is not an \
                                 invariant (needs >= {EXPECT_MIN_WORDS} words \
                                 saying why this cannot fail)"
                            ),
                        ));
                    }
                }
                // Non-literal argument (format!, variable, multi-line
                // literal): cannot judge the message textually; let it pass.
            }
        }
    }
    out
}

/// Extract a string literal starting at (or right after whitespace at) the
/// head of `rest`, handling escaped quotes. Returns `None` when the
/// argument is not a same-line string literal.
fn expect_message(rest: &str) -> Option<String> {
    let rest = rest.trim_start();
    let inner = rest.strip_prefix('"')?;
    let mut msg = String::new();
    let mut chars = inner.chars();
    while let Some(c) = chars.next() {
        match c {
            '\\' => {
                if let Some(e) = chars.next() {
                    msg.push(e);
                }
            }
            '"' => return Some(msg),
            _ => msg.push(c),
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(path: &str, src: &str) -> SourceFile {
        SourceFile::parse(path, src)
    }

    fn empty_allow() -> Allowlist {
        Allowlist::parse("allow.txt", "")
    }

    fn kinds(v: &[Violation]) -> Vec<(&str, usize, &'static str)> {
        v.iter()
            .map(|x| (x.path.as_str(), x.line, x.lint))
            .collect()
    }

    // ---- relaxed-ordering ----

    #[test]
    fn relaxed_outside_allowlist_fires() {
        let f = file(
            "crates/core/src/runtime.rs",
            "fn f(s: &AtomicBool) { s.store(true, Ordering::Relaxed); }\n",
        );
        let mut used = BTreeSet::new();
        let v = lint_relaxed_ordering(&f, &empty_allow(), &mut used);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].lint, "relaxed-ordering");
        assert_eq!(v[0].line, 1);
    }

    #[test]
    fn relaxed_in_allowlisted_fn_passes_and_is_marked_used() {
        let allow = Allowlist::parse_by_item(
            "allow.txt",
            "crates/core/src/stats.rs: f: monotone counter, read only for reporting\n",
        );
        assert!(allow.parse_errors.is_empty());
        let f = file(
            "crates/core/src/stats.rs",
            "fn f(c: &AtomicU64) { c.fetch_add(1, Ordering::Relaxed); }\n",
        );
        let mut used = BTreeSet::new();
        assert!(lint_relaxed_ordering(&f, &allow, &mut used).is_empty());
        assert!(used.contains("crates/core/src/stats.rs: f"));
        assert!(allow.unused(&used).is_empty());
    }

    const STATS_ALLOW: &str = "crates/core/src/stats.rs: a: monotone counter\n";

    #[test]
    fn relaxed_allowance_for_one_fn_does_not_cover_another() {
        let allow = Allowlist::parse_by_item("allow.txt", STATS_ALLOW);
        let f = file(
            "crates/core/src/stats.rs",
            "fn a(c: &AtomicU64) { c.fetch_add(1, Ordering::Relaxed); }\n\
             fn b(c: &AtomicU64) {\n    c.fetch_add(1, Ordering::Relaxed);\n}\n",
        );
        let mut used = BTreeSet::new();
        let v = lint_relaxed_ordering(&f, &allow, &mut used);
        assert_eq!(v.len(), 1, "only fn b's access fires: {v:?}");
        assert_eq!(v[0].line, 3);
        assert!(v[0].message.contains("`crates/core/src/stats.rs: b`"));
    }

    #[test]
    fn moving_an_access_within_its_fn_needs_no_allowlist_edit() {
        let allow = Allowlist::parse_by_item("allow.txt", STATS_ALLOW);
        for body in [
            "fn a(c: &AtomicU64) {\n    c.fetch_add(1, Ordering::Relaxed);\n}\n",
            "fn a(c: &AtomicU64) {\n    let x = [0u8; 4];\n    if x.is_empty() {}\n    \
             let f = |c: &AtomicU64| c.load(Ordering::Relaxed);\n    f(c);\n}\n",
        ] {
            let mut used = BTreeSet::new();
            let v =
                lint_relaxed_ordering(&file("crates/core/src/stats.rs", body), &allow, &mut used);
            assert!(v.is_empty(), "{v:?}");
            assert!(allow.unused(&used).is_empty());
        }
    }

    #[test]
    fn stale_item_entry_is_reported_at_its_own_line() {
        let allow = Allowlist::parse_by_item(
            "allow/atomics.txt",
            "# header\n\ncrates/core/src/f.rs: Flag.gone: was a latch once\n",
        );
        let v = allow.unused(&BTreeSet::new());
        assert_eq!(kinds(&v), vec![("allow/atomics.txt", 3, "allowlist")]);
        assert!(v[0].message.contains("`crates/core/src/f.rs: Flag.gone`"));
    }

    #[test]
    fn item_keyed_allowlist_rejects_whole_file_entries() {
        let allow = Allowlist::parse_by_item(
            "allow.txt",
            "crates/core/src/stats.rs: would blanket-allow the file\n",
        );
        assert!(allow.entries.is_empty());
        assert_eq!(allow.parse_errors.len(), 1);
        assert!(allow.parse_errors[0].message.contains("path: item"));
    }

    #[test]
    fn item_keyed_allowlist_rejects_path_line_entries() {
        let allow = Allowlist::parse_by_item(
            "allow.txt",
            "crates/dcs/src/chaos.rs:42: a line moves with every edit\n",
        );
        assert!(allow.entries.is_empty());
        assert_eq!(allow.parse_errors.len(), 1);
        assert!(!allow.allows("crates/dcs/src/chaos.rs: 42"));
    }

    #[test]
    fn relaxed_in_comment_or_string_is_ignored() {
        let f = file(
            "crates/core/src/doc.rs",
            "// Ordering::Relaxed is forbidden\nconst S: &str = \"Ordering::Relaxed\";\n",
        );
        let mut used = BTreeSet::new();
        assert!(lint_relaxed_ordering(&f, &empty_allow(), &mut used).is_empty());
    }

    #[test]
    fn stale_allowlist_entry_is_reported_at_its_own_line() {
        let allow = Allowlist::parse(
            "allow.txt",
            "# header comment\ncrates/core/src/kept.rs: still matches\ncrates/core/src/gone.rs: was needed once\n",
        );
        let mut used = BTreeSet::new();
        used.insert("crates/core/src/kept.rs".to_string());
        let v = allow.unused(&used);
        assert_eq!(v.len(), 1);
        assert!(v[0].message.contains("stale"));
        assert!(v[0].message.contains("gone.rs"));
        assert_eq!(v[0].line, 3, "points at the entry's line in the allowlist");
        assert_eq!(v[0].path, "allow.txt");
    }

    #[test]
    fn allowlist_entry_without_justification_is_an_error() {
        let allow = Allowlist::parse("allow.txt", "crates/core/src/runtime.rs\n");
        assert_eq!(allow.parse_errors.len(), 1);
    }

    // ---- blocking calls ----

    #[test]
    fn sleep_in_handler_code_fires() {
        let f = file(
            "crates/mol/src/node.rs",
            "fn on_message() { std::thread::sleep(d); }\n",
        );
        let mut used = BTreeSet::new();
        let v = lint_blocking_calls(&f, &empty_allow(), &mut used);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].lint, "blocking-call");
    }

    #[test]
    fn bare_recv_fires_but_recv_timeout_passes() {
        let f = file(
            "crates/dcs/src/comm.rs",
            "fn a(rx: &Receiver<u8>) { let _ = rx.recv(); }\nfn b(rx: &Receiver<u8>) { let _ = rx.recv_timeout(t); let _ = rx.try_recv(); }\n",
        );
        let mut used = BTreeSet::new();
        let v = lint_blocking_calls(&f, &empty_allow(), &mut used);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].line, 1);
    }

    #[test]
    fn sleep_in_cfg_test_block_passes() {
        let f = file(
            "crates/dcs/src/chaos.rs",
            "fn prod() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { std::thread::sleep(d); }\n}\n",
        );
        let mut used = BTreeSet::new();
        assert!(lint_blocking_calls(&f, &empty_allow(), &mut used).is_empty());
    }

    // ---- trace hygiene ----

    #[test]
    fn raw_instant_now_in_runtime_code_fires() {
        let f = file(
            "crates/ilb/src/scheduler.rs",
            "fn f() { let t = Instant::now(); }\n",
        );
        let mut used = BTreeSet::new();
        let v = lint_trace_hygiene(&f, &empty_allow(), &mut used);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].lint, "trace-hygiene");
        assert!(v[0].message.contains("Instant::now()"));
    }

    #[test]
    fn system_time_now_fires_too() {
        let f = file(
            "crates/harness/src/report.rs",
            "fn f() { let t = std::time::SystemTime::now(); }\n",
        );
        let mut used = BTreeSet::new();
        let v = lint_trace_hygiene(&f, &empty_allow(), &mut used);
        assert_eq!(v.len(), 1);
        assert!(v[0].message.contains("SystemTime::now()"));
    }

    #[test]
    fn clock_owners_and_tests_are_exempt() {
        let owner = file(
            "crates/trace/src/lib.rs",
            "fn epoch() -> Instant { Instant::now() }\n",
        );
        let sim_clock = file("crates/sim/src/time.rs", "fn f() { Instant::now(); }\n");
        let test_code = file(
            "crates/dcs/src/transport.rs",
            "fn prod() {}\n#[cfg(test)]\nmod tests {\n    fn t() { Instant::now(); }\n}\n",
        );
        let mut used = BTreeSet::new();
        for f in [owner, sim_clock, test_code] {
            assert!(lint_trace_hygiene(&f, &empty_allow(), &mut used).is_empty());
        }
    }

    #[test]
    fn allowlisted_wall_clock_passes_and_is_marked_used() {
        let allow = Allowlist::parse(
            "allow.txt",
            "crates/dcs/src/chaos.rs: recv_timeout needs a real deadline clock\n",
        );
        let f = file(
            "crates/dcs/src/chaos.rs",
            "fn f() { let d = Instant::now() + timeout; }\n",
        );
        let mut used = BTreeSet::new();
        assert!(lint_trace_hygiene(&f, &allow, &mut used).is_empty());
        assert!(used.contains("crates/dcs/src/chaos.rs"));
    }

    // ---- batch hygiene ----

    #[test]
    fn raw_bytes_from_on_hot_path_fires() {
        let f = file(
            "crates/mol/src/node.rs",
            "fn f(v: Vec<u8>) -> Bytes { Bytes::from(v) }\n",
        );
        let mut used = BTreeSet::new();
        let v = lint_batch_hygiene(&f, &empty_allow(), &mut used);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].lint, "batch-hygiene");
        assert!(v[0].message.contains("pool"));
    }

    #[test]
    fn copy_from_slice_fires_but_from_static_passes() {
        let f = file(
            "crates/dcs/src/comm.rs",
            "fn a(s: &[u8]) -> Bytes { Bytes::copy_from_slice(s) }\nfn b() -> Bytes { Bytes::from_static(b\"x\") }\n",
        );
        let mut used = BTreeSet::new();
        let v = lint_batch_hygiene(&f, &empty_allow(), &mut used);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].line, 1);
    }

    #[test]
    fn pool_module_other_crates_and_tests_are_exempt() {
        let pool = file(
            "crates/dcs/src/pool.rs",
            "fn f(v: Vec<u8>) -> Bytes { Bytes::from(v) }\n",
        );
        let elsewhere = file(
            "crates/harness/src/report.rs",
            "fn f(v: Vec<u8>) -> Bytes { Bytes::from(v) }\n",
        );
        let test_code = file(
            "crates/dcs/src/comm.rs",
            "fn prod() {}\n#[cfg(test)]\nmod tests {\n    fn t(v: Vec<u8>) -> Bytes { Bytes::from(v) }\n}\n",
        );
        let mut used = BTreeSet::new();
        for f in [pool, elsewhere, test_code] {
            assert!(lint_batch_hygiene(&f, &empty_allow(), &mut used).is_empty());
        }
    }

    #[test]
    fn allowlisted_bytes_construction_passes_and_is_marked_used() {
        let allow = Allowlist::parse(
            "allow.txt",
            "crates/dcs/src/handler.rs: handler tables are built once at startup\n",
        );
        let f = file(
            "crates/dcs/src/handler.rs",
            "fn f(s: &[u8]) -> Bytes { Bytes::copy_from_slice(s) }\n",
        );
        let mut used = BTreeSet::new();
        assert!(lint_batch_hygiene(&f, &allow, &mut used).is_empty());
        assert!(used.contains("crates/dcs/src/handler.rs"));
    }

    // ---- unwrap/expect ----

    #[test]
    fn unwrap_fires_but_unwrap_or_variants_pass() {
        let f = file(
            "crates/ilb/src/scheduler.rs",
            "fn f(x: Option<u8>) -> u8 { x.unwrap() }\nfn g(x: Option<u8>) -> u8 { x.unwrap_or(0) }\nfn h(x: Option<u8>) -> u8 { x.unwrap_or_else(|| 0) }\nfn i(x: Option<u8>) -> u8 { x.unwrap_or_default() }\n",
        );
        let v = lint_unwrap(&f);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].line, 1);
    }

    #[test]
    fn short_expect_fires_invariant_expect_passes() {
        let f = file(
            "crates/mol/src/node.rs",
            "fn f(x: Option<u8>) { x.expect(\"failed\"); }\nfn g(x: Option<u8>) { x.expect(\"directory entry exists: inserted on accept\"); }\n",
        );
        let v = lint_unwrap(&f);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].line, 1);
        assert!(v[0].message.contains("invariant"));
    }

    #[test]
    fn unwrap_in_test_mod_passes() {
        let f = file(
            "crates/dcs/src/transport.rs",
            "fn prod() {}\n#[cfg(test)]\nmod tests {\n    fn t(x: Option<u8>) { x.unwrap(); }\n}\n",
        );
        assert!(lint_unwrap(&f).is_empty());
    }

    #[test]
    fn unwrap_in_comment_passes() {
        let f = file(
            "crates/core/src/runtime.rs",
            "// do not .unwrap() here\nfn f() {}\n",
        );
        assert!(lint_unwrap(&f).is_empty());
    }
}
