//! The PREMA lint rules. Each lint is a pure function over [`SourceFile`]s
//! (plus explicit configuration), so fixtures in the tests below exercise
//! exactly the code `cargo xtask lint` runs.

use crate::source::SourceFile;
use std::collections::{BTreeMap, BTreeSet};

/// One lint finding.
#[derive(Debug, PartialEq, Eq)]
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

/// One parsed allowlist entry: the 1-based line it sits on in the allowlist
/// file (so stale-entry diagnostics point at the exact line to delete) and
/// its mandatory justification.
pub struct AllowEntry {
    pub line: usize,
    pub why: String,
}

/// Parsed allowlist: key -> entry, where a key is either a
/// workspace-relative `path` or a `path:line` pair.
///
/// File format: one `path: justification` or `path:line: justification` per
/// line; `#` starts a comment. A justification is mandatory — an allowlist
/// entry without a reason is itself a violation (reported against the
/// allowlist file). Line-keyed lists ([`Allowlist::parse_line_keyed`])
/// additionally reject plain-path keys, so a single entry can never
/// blanket-allow a whole file.
pub struct Allowlist {
    pub file: String,
    pub entries: BTreeMap<String, AllowEntry>,
    pub parse_errors: Vec<Violation>,
}

impl Allowlist {
    pub fn parse(file: &str, text: &str) -> Allowlist {
        Self::parse_with(file, text, false)
    }

    /// Parse an allowlist whose entries must all be `path:line: reason` —
    /// used by lints that refuse file-granular allowances.
    pub fn parse_line_keyed(file: &str, text: &str) -> Allowlist {
        Self::parse_with(file, text, true)
    }

    fn parse_with(file: &str, text: &str, line_keyed: bool) -> Allowlist {
        let mut entries = BTreeMap::new();
        let mut parse_errors = Vec::new();
        for (i, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let parsed = line.split_once(':').map(|(path, rest)| {
                // `path:line: reason` when the text between the first two
                // colons is an integer; `path: reason` otherwise.
                match rest.split_once(':') {
                    Some((num, why)) if num.trim().parse::<usize>().is_ok() => (
                        format!("{}:{}", path.trim(), num.trim()),
                        why.trim().to_string(),
                        true,
                    ),
                    _ => (path.trim().to_string(), rest.trim().to_string(), false),
                }
            });
            match parsed {
                Some((key, why, has_line)) if !why.is_empty() => {
                    if line_keyed && !has_line {
                        parse_errors.push(Violation::new(
                            file,
                            i + 1,
                            "allowlist",
                            format!(
                                "entry `{key}` allows a whole file; this \
                                 allowlist requires `path:line: justification`"
                            ),
                        ));
                        continue;
                    }
                    entries.insert(key, AllowEntry { line: i + 1, why });
                }
                _ => parse_errors.push(Violation::new(
                    file,
                    i + 1,
                    "allowlist",
                    format!("entry must be `path[:line]: justification`, got `{line}`"),
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
            .map(|(k, e)| {
                Violation::new(
                    &self.file,
                    e.line,
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
/// must carry a written justification. The allowlist is line-granular
/// (`path:line` keys): each individual relaxed access needs its own
/// justified entry, so a whole file can never be blanket-allowed.
pub fn lint_relaxed_ordering(
    file: &SourceFile,
    allow: &Allowlist,
    used: &mut BTreeSet<String>,
) -> Vec<Violation> {
    let mut out = Vec::new();
    for (ln, stripped, _orig) in file.all_lines() {
        if !stripped.contains("Ordering::Relaxed") {
            continue;
        }
        let key = format!("{}:{ln}", file.path);
        if allow.allows(&key) {
            used.insert(key);
            continue;
        }
        out.push(Violation::new(
            &file.path,
            ln,
            "relaxed-ordering",
            "Ordering::Relaxed outside the audited allowlist; use \
             Acquire/Release (or SeqCst) or add a `path:line:` allowlist \
             entry with a justification"
                .to_string(),
        ));
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

/// The transport files whose steady-state functions carry the ring mesh's
/// zero-allocation guarantee (asserted at runtime by `benches/ring.rs`; this
/// lint catches the regression at review time, before a bench ever runs).
const RING_HOT_FILES: &[&str] = &[
    "crates/dcs/src/transport.rs",
    "crates/dcs/src/ring.rs",
    "crates/dcs/src/udp.rs",
];

/// The steady-state function names within those files. Construction-time
/// code (`new`, `with_capacity`, `spsc`, fabric building) may allocate
/// freely; everything a message crosses per send/receive may not.
const RING_HOT_FNS: &[&str] = &[
    "send",
    "try_recv",
    "recv_timeout",
    "sweep",
    "pop_pair",
    "push",
    "pop",
    "mark",
    "clear",
    "is_marked",
    "any",
    "prepare",
    "cancel",
    "park",
    "unpark",
    "is_empty",
    // udp.rs steady state: the slice's service and the syscall batchers
    // reuse preallocated scatter/gather scaffolding and pool-backed
    // datagram buffers.
    "service",
    "flush_tx",
    "drain_rx",
];

/// Tokens that put a heap allocation on the line that carries them.
const RING_ALLOC_TOKENS: &[&str] = &[
    "Box::new(",
    "Vec::new(",
    "Vec::with_capacity(",
    "vec![",
    "VecDeque::new(",
    "String::new(",
    "String::from(",
    ".to_vec(",
    ".to_string(",
    "format!(",
    "BTreeMap::new(",
    "HashMap::new(",
];

/// Forbid allocation tokens in the ring transport's steady-state functions
/// (outside the line-keyed allowlist). The attribution is lexical: a line
/// belongs to the most recently declared function, so cold constructors stay
/// free while every line of `send`/`try_recv`/`sweep`/… is policed.
pub fn lint_ring_hygiene(
    file: &SourceFile,
    allow: &Allowlist,
    used: &mut BTreeSet<String>,
) -> Vec<Violation> {
    if !RING_HOT_FILES.contains(&file.path.as_str()) {
        return Vec::new();
    }
    let mut out = Vec::new();
    let mut in_hot_fn = false;
    for (ln, stripped, _orig) in file.non_test_lines() {
        if let Some(name) = fn_decl_name(stripped) {
            in_hot_fn = RING_HOT_FNS.contains(&name.as_str());
        }
        if !in_hot_fn {
            continue;
        }
        let Some(token) = RING_ALLOC_TOKENS.iter().find(|t| stripped.contains(*t)) else {
            continue;
        };
        let key = format!("{}:{ln}", file.path);
        if allow.allows(&key) {
            used.insert(key);
            continue;
        }
        out.push(Violation::new(
            &file.path,
            ln,
            "ring-hygiene",
            format!(
                "`{token}` allocates inside a steady-state transport \
                 function; the ring fast path must be allocation-free (move \
                 the allocation to construction, or add a `path:line:` \
                 allowlist entry with a justification)"
            ),
        ));
    }
    out
}

/// `[pub[(..)]] [unsafe] fn NAME` on one line -> NAME (the token after a
/// whole-word `fn`, trimmed at its generics/argument list).
fn fn_decl_name(stripped: &str) -> Option<String> {
    let mut toks = stripped.split_whitespace().peekable();
    while let Some(t) = toks.next() {
        if t == "fn" {
            let name: String = toks
                .next()?
                .chars()
                .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                .collect();
            if name.is_empty() {
                return None;
            }
            return Some(name);
        }
    }
    None
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

/// Runtime crates whose `check-invariants` oracles must stay OFF in bench
/// builds: the benches measure the fast path, and a benchmark silently
/// compiled with oracle bookkeeping would publish numbers for a build nobody
/// ships (see DESIGN.md on the bench oracle policy).
const ORACLE_CRATES: &[&str] = &["prema", "prema-mol", "prema-ilb"];

/// Check the bench crate's manifest: every oracle-bearing dependency must
/// resolve to `default-features = false` (stated inline, or inherited from a
/// workspace dependency table that states it), and the manifest must not
/// re-enable `check-invariants` through a feature list.
pub fn lint_bench_manifest(
    bench_path: &str,
    bench_toml: &str,
    workspace_toml: &str,
) -> Vec<Violation> {
    let mut out = Vec::new();
    for dep in ORACLE_CRATES {
        let Some((line_no, entry)) = dep_entry(bench_toml, dep) else {
            continue; // not a dependency at all: nothing to police
        };
        let inline_off = entry.contains("default-features = false");
        let inherited_off = entry.contains("workspace = true")
            && dep_entry(workspace_toml, dep)
                .is_some_and(|(_, ws)| ws.contains("default-features = false"));
        if !(inline_off || inherited_off) {
            out.push(Violation::new(
                bench_path,
                line_no,
                "bench-invariants",
                format!(
                    "bench dependency `{dep}` pulls in default features \
                     (including `check-invariants` oracles); add \
                     `default-features = false` so benches measure the real \
                     fast path"
                ),
            ));
        }
    }
    for (i, line) in bench_toml.lines().enumerate() {
        let code = line.split('#').next().unwrap_or("");
        if code.contains("check-invariants") {
            out.push(Violation::new(
                bench_path,
                i + 1,
                "bench-invariants",
                "bench manifest must not enable `check-invariants`: published \
                 numbers must describe the oracle-free build"
                    .to_string(),
            ));
        }
    }
    out
}

/// Find dependency `dep`'s entry in a manifest: the 1-based line number and
/// the entry text (`dep = { ... }` inline tables and `dep.workspace = true`
/// dotted keys both live on one line in this workspace's manifests).
fn dep_entry(toml: &str, dep: &str) -> Option<(usize, String)> {
    for (i, line) in toml.lines().enumerate() {
        let code = line.split('#').next().unwrap_or("").trim();
        let after = code
            .strip_prefix(dep)
            .and_then(|r| r.trim_start().strip_prefix(['=', '.']).map(|_| ()));
        if after.is_some() {
            return Some((i + 1, code.to_string()));
        }
    }
    None
}

/// Every `const NAME: HandlerId` must be referenced by name somewhere other
/// than its declaration — a handler id that is never registered or
/// dispatched is dead protocol surface (or worse, a typo split across
/// declaration and registration).
pub fn lint_handler_ids(files: &[SourceFile]) -> Vec<Violation> {
    // name -> (path, line) of declaration
    let mut decls: BTreeMap<String, (String, usize)> = BTreeMap::new();
    for f in files {
        for (ln, stripped, _orig) in f.all_lines() {
            if let Some(name) = handler_decl_name(stripped) {
                decls.insert(name, (f.path.clone(), ln));
            }
        }
    }
    let mut out = Vec::new();
    'decl: for (name, (path, line)) in &decls {
        for f in files {
            for (ln, stripped, _orig) in f.all_lines() {
                if (&f.path, ln) == (path, *line) {
                    continue; // the declaration itself
                }
                if mentions_ident(stripped, name) {
                    continue 'decl;
                }
            }
        }
        out.push(Violation::new(
            path,
            *line,
            "handler-id",
            format!(
                "HandlerId constant `{name}` is declared but never referenced \
                 (no registration or dispatch site)"
            ),
        ));
    }
    out
}

/// `[pub] const NAME: HandlerId` on one line -> NAME.
fn handler_decl_name(stripped: &str) -> Option<String> {
    let t = stripped.trim_start();
    let t = t.strip_prefix("pub ").unwrap_or(t);
    let t = t.strip_prefix("const ")?;
    let (name, rest) = t.split_once(':')?;
    if rest.trim_start().starts_with("HandlerId") {
        let name = name.trim();
        if !name.is_empty() && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
            return Some(name.to_string());
        }
    }
    None
}

/// Whole-identifier match (so `H_MOL_MSG` does not count as a reference to
/// `H_MOL`).
fn mentions_ident(line: &str, ident: &str) -> bool {
    let mut from = 0;
    while let Some(pos) = line[from..].find(ident) {
        let at = from + pos;
        let before_ok = at == 0
            || !line[..at]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_ascii_alphanumeric() || c == '_');
        let end = at + ident.len();
        let after_ok = end >= line.len()
            || !line[end..]
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric() || c == '_');
        if before_ok && after_ok {
            return true;
        }
        from = at + ident.len();
    }
    false
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
    fn relaxed_on_allowlisted_line_passes_and_is_marked_used() {
        let allow = Allowlist::parse_line_keyed(
            "allow.txt",
            "crates/core/src/stats.rs:1: monotone counter, read only for reporting\n",
        );
        assert!(allow.parse_errors.is_empty());
        let f = file(
            "crates/core/src/stats.rs",
            "fn f(c: &AtomicU64) { c.fetch_add(1, Ordering::Relaxed); }\n",
        );
        let mut used = BTreeSet::new();
        assert!(lint_relaxed_ordering(&f, &allow, &mut used).is_empty());
        assert!(used.contains("crates/core/src/stats.rs:1"));
        assert!(allow.unused(&used).is_empty());
    }

    #[test]
    fn relaxed_allowance_does_not_cover_other_lines_of_the_file() {
        let allow = Allowlist::parse_line_keyed(
            "allow.txt",
            "crates/core/src/stats.rs:1: monotone counter, read only for reporting\n",
        );
        let f = file(
            "crates/core/src/stats.rs",
            "fn f(c: &AtomicU64) { c.fetch_add(1, Ordering::Relaxed); }\nfn g(c: &AtomicU64) { c.fetch_add(1, Ordering::Relaxed); }\n",
        );
        let mut used = BTreeSet::new();
        let v = lint_relaxed_ordering(&f, &allow, &mut used);
        assert_eq!(v.len(), 1, "only the un-allowlisted line fires");
        assert_eq!(v[0].line, 2);
    }

    #[test]
    fn line_keyed_allowlist_rejects_whole_file_entries() {
        let allow = Allowlist::parse_line_keyed(
            "allow.txt",
            "crates/core/src/stats.rs: would blanket-allow the file\n",
        );
        assert!(allow.entries.is_empty());
        assert_eq!(allow.parse_errors.len(), 1);
        assert!(allow.parse_errors[0].message.contains("whole file"));
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

    #[test]
    fn path_line_keys_parse_in_either_mode() {
        let allow = Allowlist::parse(
            "allow.txt",
            "crates/dcs/src/chaos.rs:42: counter only read in stats()\n",
        );
        assert!(allow.parse_errors.is_empty());
        assert!(allow.allows("crates/dcs/src/chaos.rs:42"));
        assert!(!allow.allows("crates/dcs/src/chaos.rs"));
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

    // ---- ring hygiene ----

    #[test]
    fn allocation_in_steady_state_fn_fires() {
        let f = file(
            "crates/dcs/src/transport.rs",
            "impl T {\n    fn send(&self, env: Envelope) {\n        let b = Box::new(env);\n    }\n}\n",
        );
        let mut used = BTreeSet::new();
        let v = lint_ring_hygiene(&f, &empty_allow(), &mut used);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].lint, "ring-hygiene");
        assert_eq!(v[0].line, 3);
        assert!(v[0].message.contains("Box::new("));
    }

    #[test]
    fn allocation_in_constructor_passes() {
        let f = file(
            "crates/dcs/src/ring.rs",
            "impl T {\n    pub fn with_capacity(n: usize) -> Self {\n        let v = Vec::with_capacity(n);\n        T { v }\n    }\n}\n",
        );
        let mut used = BTreeSet::new();
        assert!(lint_ring_hygiene(&f, &empty_allow(), &mut used).is_empty());
    }

    #[test]
    fn hot_fn_after_cold_fn_is_still_policed() {
        let f = file(
            "crates/dcs/src/ring.rs",
            "impl T {\n    fn new() -> Self {\n        T { v: Vec::new() }\n    }\n    fn pop(&self) {\n        let s = format!(\"x\");\n    }\n}\n",
        );
        let mut used = BTreeSet::new();
        let v = lint_ring_hygiene(&f, &empty_allow(), &mut used);
        assert_eq!(v.len(), 1, "only the hot fn's allocation fires");
        assert_eq!(v[0].line, 6);
    }

    #[test]
    fn other_files_and_tests_are_exempt() {
        let elsewhere = file(
            "crates/dcs/src/comm.rs",
            "fn send(&self) { let b = Box::new(1); }\n",
        );
        let test_code = file(
            "crates/dcs/src/transport.rs",
            "fn prod() {}\n#[cfg(test)]\nmod tests {\n    fn send() { let b = Box::new(1); }\n}\n",
        );
        let mut used = BTreeSet::new();
        for f in [elsewhere, test_code] {
            assert!(lint_ring_hygiene(&f, &empty_allow(), &mut used).is_empty());
        }
    }

    #[test]
    fn allowlisted_hot_allocation_passes_and_is_marked_used() {
        let allow = Allowlist::parse_line_keyed(
            "allow.txt",
            "crates/dcs/src/transport.rs:2: one-time lazy init, not per-message\n",
        );
        let f = file(
            "crates/dcs/src/transport.rs",
            "fn try_recv(&self) {\n    let v = Vec::new();\n}\n",
        );
        let mut used = BTreeSet::new();
        assert!(lint_ring_hygiene(&f, &allow, &mut used).is_empty());
        assert!(used.contains("crates/dcs/src/transport.rs:2"));
        assert!(allow.unused(&used).is_empty());
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

    // ---- handler ids ----

    #[test]
    fn unregistered_handler_id_fires() {
        let decl = file(
            "crates/mol/src/proto.rs",
            "pub const H_MOL_ORPHAN: HandlerId = HandlerId(SYSTEM_BASE + 40);\n",
        );
        let other = file("crates/mol/src/node.rs", "fn f() {}\n");
        let v = lint_handler_ids(&[decl, other]);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].lint, "handler-id");
        assert!(v[0].message.contains("H_MOL_ORPHAN"));
    }

    #[test]
    fn registered_handler_id_passes() {
        let decl = file(
            "crates/mol/src/proto.rs",
            "pub const H_MOL_MSG: HandlerId = HandlerId(SYSTEM_BASE + 16);\n",
        );
        let reg = file(
            "crates/mol/src/node.rs",
            "fn wire(r: &mut Registry) { r.register(H_MOL_MSG, on_msg); }\n",
        );
        assert!(lint_handler_ids(&[decl, reg]).is_empty());
    }

    #[test]
    fn prefix_name_is_not_a_reference() {
        let decl = file(
            "crates/mol/src/proto.rs",
            "pub const H_MOL: HandlerId = HandlerId(SYSTEM_BASE + 30);\n",
        );
        let near_miss = file(
            "crates/mol/src/node.rs",
            "fn wire(r: &mut Registry) { r.register(H_MOL_MSG, on_msg); }\n",
        );
        let v = lint_handler_ids(&[decl, near_miss]);
        assert_eq!(v.len(), 1, "H_MOL_MSG must not count as a use of H_MOL");
    }

    // ---- bench manifest ----

    const WS_TOML: &str = "[workspace.dependencies]\n\
        prema = { path = \"crates/core\" }\n\
        prema-mol = { path = \"crates/mol\", default-features = false }\n\
        prema-ilb = { path = \"crates/ilb\", default-features = false }\n";

    #[test]
    fn bench_inline_default_features_off_passes() {
        let bench = "[dev-dependencies]\n\
            prema = { workspace = true, default-features = false }\n\
            prema-mol.workspace = true\n\
            prema-ilb.workspace = true\n";
        assert!(lint_bench_manifest("crates/bench/Cargo.toml", bench, WS_TOML).is_empty());
    }

    #[test]
    fn bench_default_featured_prema_fires() {
        // `prema` is default-featured in the workspace table, so plain
        // inheritance drags `check-invariants` into the bench build.
        let bench = "[dev-dependencies]\nprema.workspace = true\n";
        let v = lint_bench_manifest("crates/bench/Cargo.toml", bench, WS_TOML);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].lint, "bench-invariants");
        assert_eq!(v[0].line, 2);
        assert!(v[0].message.contains("`prema`"));
    }

    #[test]
    fn bench_explicit_check_invariants_fires() {
        let bench = "[dev-dependencies]\n\
            prema = { workspace = true, default-features = false, features = [\"check-invariants\"] }\n";
        let v = lint_bench_manifest("crates/bench/Cargo.toml", bench, WS_TOML);
        assert_eq!(v.len(), 1);
        assert!(v[0].message.contains("oracle-free"));
    }

    #[test]
    fn bench_check_invariants_in_comment_passes() {
        let bench = "[dev-dependencies]\n\
            # keep check-invariants out of benches\n\
            prema = { workspace = true, default-features = false }\n";
        assert!(lint_bench_manifest("crates/bench/Cargo.toml", bench, WS_TOML).is_empty());
    }

    #[test]
    fn bench_without_oracle_deps_passes() {
        let bench = "[dev-dependencies]\nbytes.workspace = true\n";
        assert!(lint_bench_manifest("crates/bench/Cargo.toml", bench, WS_TOML).is_empty());
    }
}
