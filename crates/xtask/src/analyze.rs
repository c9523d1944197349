//! Token-level concurrency and telemetry analyses, run by `cargo xtask lint`.
//!
//! Two analyses, each a pure function over [`SourceFile`] token streams:
//!
//! 1. [`atomics_audit`] — inventories every atomic field/static declaration
//!    with the orderings used to access it, and requires each to be covered
//!    by a loom model (the container type named in a loom test) or carry a
//!    `path: Container.field` entry in `crates/xtask/allow/atomics.txt`.
//! 2. [`trace_coverage`] — every `TraceEvent` variant must be constructed in
//!    non-test runtime code (a pattern that reads it does not count); dead
//!    telemetry is a violation. That every variant is named, written and
//!    read back is the compiler's job (the exhaustive matches in
//!    `prema-trace` and the harness's `trace_report`) and the `from_jsonl`
//!    roundtrip proptest's.
//!
//! Whether each runtime message kind is both sent and handled is the
//! compiler's check, not this module's: `dcs::reliable`, `mol::proto` and
//! `ilb::scheduler` each keep their kinds in one crate-private enum that
//! one exhaustive `match` dispatches (DESIGN.md §12).
//!
//! Both work on the same lexed token stream as the line lints, so line
//! numbers in diagnostics agree with the editor. None of them parse Rust
//! fully — they rely on the workspace's own conventions (documented in
//! DESIGN.md §12) and are tested against seeded-violation fixtures below.

use std::collections::BTreeSet;

use crate::lex::{Kind, Token};
use crate::lints::{item_key, Allowlist, Violation};
use crate::source::SourceFile;

// ---------------------------------------------------------------------------
// Shared token helpers
// ---------------------------------------------------------------------------

/// The file's tokens with comments dropped (analyses never look at them).
pub(crate) fn code_tokens(f: &SourceFile) -> Vec<&Token> {
    f.tokens
        .iter()
        .filter(|t| t.kind != Kind::Comment)
        .collect()
}

// ---------------------------------------------------------------------------
// Analysis 1: atomics audit
// ---------------------------------------------------------------------------

/// One atomic field or static, with every ordering used to access it.
#[derive(Debug)]
pub struct AtomicDecl {
    pub path: String,
    pub line: usize,
    /// Enclosing struct name, or `static` for file-scope atomics.
    pub container: String,
    pub name: String,
    pub ty: String,
    pub orderings: BTreeSet<String>,
}

const ATOMIC_TYPES: [&str; 6] = [
    "AtomicBool",
    "AtomicU32",
    "AtomicU64",
    "AtomicUsize",
    "AtomicI64",
    "AtomicIsize",
];

const ATOMIC_METHODS: [&str; 14] = [
    "load",
    "store",
    "swap",
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_or",
    "fetch_xor",
    "fetch_max",
    "fetch_min",
    "fetch_update",
    "compare_exchange",
    "compare_exchange_weak",
    "compare_and_swap",
];

/// Inventory atomic declarations and require loom or allowlist coverage.
///
/// `used` collects the allowlist keys that matched, for the shrink-only
/// staleness check.
pub fn atomics_audit(
    files: &[SourceFile],
    allow: &Allowlist,
    used: &mut BTreeSet<String>,
) -> (Vec<AtomicDecl>, Vec<Violation>) {
    let mut decls: Vec<AtomicDecl> = Vec::new();

    // Pass 1: declarations — struct fields and statics in non-test src code.
    for f in files
        .iter()
        .filter(|f| f.path.starts_with("crates/") && f.path.contains("/src/"))
    {
        let toks = code_tokens(f);
        let mut depth: i32 = 0;
        let mut paren: i32 = 0;
        let mut struct_stack: Vec<(String, i32)> = Vec::new();
        let mut i = 0;
        while i < toks.len() {
            let t = toks[i];
            match t.text.as_str() {
                "{" if t.kind == Kind::Punct => depth += 1,
                "}" if t.kind == Kind::Punct => {
                    depth -= 1;
                    if let Some((_, d)) = struct_stack.last() {
                        if depth < *d {
                            struct_stack.pop();
                        }
                    }
                }
                "(" if t.kind == Kind::Punct => paren += 1,
                ")" if t.kind == Kind::Punct => paren -= 1,
                _ => {}
            }
            if t.is_ident("struct") {
                if let Some(name_t) = toks.get(i + 1).filter(|n| n.kind == Kind::Ident) {
                    // Find the field block `{`; `;` or `(` first means a
                    // unit/tuple struct — no named fields to scan. On `(`/`;`
                    // resume the main loop AT that token so the paren counter
                    // stays in sync.
                    let mut j = i + 2;
                    let mut angle = 0i32;
                    let mut opened = false;
                    while j < toks.len() {
                        let u = toks[j];
                        match u.text.as_str() {
                            "<" => angle += 1,
                            ">" => angle -= 1,
                            ">>" => angle -= 2,
                            "{" if angle == 0 => {
                                struct_stack.push((name_t.text.clone(), depth + 1));
                                depth += 1;
                                opened = true;
                                break;
                            }
                            ";" | "(" if angle == 0 => break,
                            _ => {}
                        }
                        j += 1;
                    }
                    i = if opened { j + 1 } else { j };
                    continue;
                }
            }
            let is_atomic_ty = t.kind == Kind::Ident && ATOMIC_TYPES.contains(&t.text.as_str());
            let constructor = matches!(toks.get(i + 1), Some(n) if n.is_punct("::"));
            if is_atomic_ty && !constructor && paren == 0 && !f.line_is_test(t.line) {
                // Walk back over type-wrapper tokens (`Arc<`, `sync::`) to
                // the `name :` that introduces the declaration.
                let mut j = i;
                let mut field: Option<(&Token, &Token)> = None;
                while let Some(p) = j.checked_sub(1) {
                    let u = toks[p];
                    let wrapper = u.kind == Kind::Ident
                        || u.is_punct("<")
                        || u.is_punct("::")
                        || u.is_punct("&");
                    if u.is_punct(":") {
                        if let Some(n) = p.checked_sub(1).and_then(|q| toks.get(q)) {
                            if n.kind == Kind::Ident {
                                field = Some((n, u));
                            }
                        }
                        break;
                    }
                    if !wrapper {
                        break;
                    }
                    j = p;
                }
                if let Some((name_t, _)) = field {
                    let before = toks
                        [..toks.iter().position(|x| std::ptr::eq(*x, name_t)).unwrap()]
                        .last()
                        .copied();
                    let is_static = matches!(before, Some(b) if b.is_ident("static"));
                    let in_struct = struct_stack
                        .last()
                        .map(|(_, d)| *d == depth)
                        .unwrap_or(false);
                    if is_static || in_struct {
                        decls.push(AtomicDecl {
                            path: f.path.clone(),
                            line: name_t.line,
                            container: if is_static {
                                "static".to_string()
                            } else {
                                struct_stack.last().unwrap().0.clone()
                            },
                            name: name_t.text.clone(),
                            ty: t.text.clone(),
                            orderings: BTreeSet::new(),
                        });
                    }
                }
            }
            i += 1;
        }
    }

    // Pass 2: accesses — attribute orderings to declarations by receiver
    // name, preferring a same-file declaration when names collide.
    for f in files.iter().filter(|f| f.path.contains("/src/")) {
        let toks = code_tokens(f);
        for i in 0..toks.len() {
            let t = toks[i];
            if t.kind != Kind::Ident
                || !ATOMIC_METHODS.contains(&t.text.as_str())
                || !matches!(toks.get(i + 1), Some(n) if n.is_punct("("))
                || !matches!(i.checked_sub(1).and_then(|p| toks.get(p)), Some(p) if p.is_punct("."))
            {
                continue;
            }
            let Some(recv) = i
                .checked_sub(2)
                .and_then(|p| toks.get(p))
                .filter(|r| r.kind == Kind::Ident)
            else {
                continue;
            };
            // Collect `Ordering::X` arguments inside the call.
            let mut ords = Vec::new();
            let mut d = 0i32;
            for u in &toks[i + 1..] {
                if u.is_punct("(") {
                    d += 1;
                } else if u.is_punct(")") {
                    d -= 1;
                    if d == 0 {
                        break;
                    }
                }
                if u.kind == Kind::Ident
                    && matches!(
                        u.text.as_str(),
                        "Relaxed" | "Acquire" | "Release" | "AcqRel" | "SeqCst"
                    )
                {
                    ords.push(u.text.clone());
                }
            }
            if ords.is_empty() {
                continue;
            }
            let matching: Vec<usize> = decls
                .iter()
                .enumerate()
                .filter(|(_, dcl)| dcl.name == recv.text)
                .map(|(idx, _)| idx)
                .collect();
            let same_file: Vec<usize> = matching
                .iter()
                .copied()
                .filter(|&idx| decls[idx].path == f.path)
                .collect();
            let targets = if same_file.is_empty() {
                matching
            } else {
                same_file
            };
            for idx in targets {
                decls[idx].orderings.extend(ords.iter().cloned());
            }
        }
    }

    // Pass 3: coverage. A decl is loom-covered when its container (or the
    // static's own name) appears as a whole identifier in a loom test file.
    let loom_idents: BTreeSet<String> = files
        .iter()
        .filter(|f| f.path.contains("/tests/") && f.tokens.iter().any(|t| t.is_ident("loom")))
        .flat_map(|f| {
            f.tokens
                .iter()
                .filter(|t| t.kind == Kind::Ident)
                .map(|t| t.text.clone())
        })
        .collect();

    let mut violations = Vec::new();
    for d in &decls {
        let probe = if d.container == "static" {
            &d.name
        } else {
            &d.container
        };
        let key = item_key(&d.path, &format!("{}.{}", d.container, d.name));
        if loom_idents.contains(probe) {
            continue;
        }
        if allow.allows(&key) {
            used.insert(key);
            continue;
        }
        violations.push(Violation::new(
            &d.path,
            d.line,
            "atomic-unverified",
            format!(
                "`{}.{}` ({}, orderings: {}) has no loom model naming `{}` and no \
                 `{key}` entry in allow/atomics.txt — model it or justify it",
                d.container,
                d.name,
                d.ty,
                if d.orderings.is_empty() {
                    "never accessed".to_string()
                } else {
                    d.orderings.iter().cloned().collect::<Vec<_>>().join("/")
                },
                probe
            ),
        ));
    }
    (decls, violations)
}

// ---------------------------------------------------------------------------
// Analysis 2: trace-event coverage
// ---------------------------------------------------------------------------

/// One `TraceEvent` variant's emission coverage.
#[derive(Debug)]
pub struct TraceEventInfo {
    pub variant: String,
    pub line: usize,
    /// Construction sites in non-test runtime code outside the trace crate.
    pub emitted: usize,
}

/// Check that every `TraceEvent` variant is emitted from runtime code.
pub fn trace_coverage(files: &[SourceFile]) -> (Vec<TraceEventInfo>, Vec<Violation>) {
    let Some(lib) = files.iter().find(|f| f.path.ends_with("trace/src/lib.rs")) else {
        return (Vec::new(), Vec::new());
    };
    let toks = code_tokens(lib);

    // Variants: idents at the top level of `enum TraceEvent { ... }`.
    let mut events: Vec<TraceEventInfo> = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if toks[i].is_ident("enum")
            && matches!(toks.get(i + 1), Some(n) if n.is_ident("TraceEvent"))
        {
            let mut j = i + 2;
            while j < toks.len() && !toks[j].is_punct("{") {
                j += 1;
            }
            let mut d = 1i32;
            let mut expecting = true;
            let mut k = j + 1;
            while k < toks.len() && d > 0 {
                let u = toks[k];
                if u.is_punct("{") || u.is_punct("(") || u.is_punct("[") {
                    d += 1;
                } else if u.is_punct("}") || u.is_punct(")") || u.is_punct("]") {
                    d -= 1;
                } else if d == 1 {
                    if u.is_punct(",") {
                        expecting = true;
                    } else if u.is_punct("#") {
                        // attribute: skip the `[...]` group
                    } else if expecting && u.kind == Kind::Ident {
                        events.push(TraceEventInfo {
                            variant: u.text.clone(),
                            line: u.line,
                            emitted: 0,
                        });
                        expecting = false;
                    }
                }
                k += 1;
            }
            break;
        }
        i += 1;
    }

    // Emission sites: `TraceEvent::V` constructed in non-test src code
    // outside trace. A pattern (`match` arm, `if let`, `matches!`) reads a
    // variant, it does not emit one, so the readers' exhaustive matches do
    // not count.
    for f in files.iter().filter(|f| {
        f.path.starts_with("crates/")
            && f.path.contains("/src/")
            && !f.path.starts_with("crates/trace/")
    }) {
        let ftoks = code_tokens(f);
        for i in 0..ftoks.len() {
            if ftoks[i].is_ident("TraceEvent")
                && matches!(ftoks.get(i + 1), Some(n) if n.is_punct("::"))
                && !f.line_is_test(ftoks[i].line)
                && !is_pattern(&ftoks, i)
            {
                if let Some(v) = ftoks.get(i + 2) {
                    if let Some(ev) = events.iter_mut().find(|e| e.variant == v.text) {
                        ev.emitted += 1;
                    }
                }
            }
        }
    }

    let violations = events
        .iter()
        .filter(|ev| ev.emitted == 0)
        .map(|ev| {
            Violation::new(
                &lib.path,
                ev.line,
                "trace-unemitted",
                format!(
                    "TraceEvent::{} is never emitted from runtime code: dead telemetry",
                    ev.variant
                ),
            )
        })
        .collect();
    (events, violations)
}

/// Whether the `TraceEvent::V` path starting at `toks[i]` is a pattern: it
/// is followed (after its field group, if any) by `=>`, `|`, `if` or `=`, or
/// it sits inside a `matches!(..)` call.
fn is_pattern(toks: &[&Token], i: usize) -> bool {
    let mut k = i + 3;
    if matches!(toks.get(k), Some(t) if t.is_punct("{") || t.is_punct("(")) {
        let mut d = 0i32;
        while let Some(t) = toks.get(k) {
            if t.is_punct("{") || t.is_punct("(") || t.is_punct("[") {
                d += 1;
            } else if t.is_punct("}") || t.is_punct(")") || t.is_punct("]") {
                d -= 1;
            }
            k += 1;
            if d == 0 {
                break;
            }
        }
    }
    if matches!(toks.get(k), Some(t) if t.is_punct("=>") || t.is_punct("|") || t.is_punct("=") || t.is_ident("if"))
    {
        return true;
    }
    // Walk back to the enclosing group and look for `matches ! (`.
    let mut d = 0i32;
    for j in (0..i).rev() {
        let t = toks[j];
        if t.is_punct(")") || t.is_punct("}") || t.is_punct("]") {
            d += 1;
        } else if t.is_punct("(") || t.is_punct("{") || t.is_punct("[") {
            if d > 0 {
                d -= 1;
                continue;
            }
            return t.is_punct("(")
                && j >= 2
                && toks[j - 1].is_punct("!")
                && toks[j - 2].is_ident("matches");
        }
    }
    false
}

// ---------------------------------------------------------------------------
// Seeded-violation fixtures: each analysis must prove it can fire.
// ---------------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;

    fn sf(path: &str, text: &str) -> SourceFile {
        SourceFile::parse(path, text)
    }

    fn kinds(v: &[Violation]) -> Vec<(&str, usize, &'static str)> {
        v.iter()
            .map(|x| (x.path.as_str(), x.line, x.lint))
            .collect()
    }

    // -- atomics audit ------------------------------------------------------

    const ATOMIC_SRC: &str = "\
pub struct Flag {
    stop: AtomicBool,
}
impl Flag {
    fn set(&self) { self.stop.store(true, Ordering::Release); }
    fn get(&self) -> bool { self.stop.load(Ordering::Acquire) }
}
";

    #[test]
    fn unverified_atomic_is_flagged_with_orderings() {
        let files = [sf("crates/core/src/f.rs", ATOMIC_SRC)];
        let allow = Allowlist::parse_by_item("allow/atomics.txt", "");
        let mut used = BTreeSet::new();
        let (decls, v) = atomics_audit(&files, &allow, &mut used);
        assert_eq!(decls.len(), 1);
        assert_eq!(decls[0].container, "Flag");
        assert_eq!(
            decls[0].orderings.iter().cloned().collect::<Vec<_>>(),
            vec!["Acquire", "Release"]
        );
        assert_eq!(
            kinds(&v),
            vec![("crates/core/src/f.rs", 2, "atomic-unverified")]
        );
    }

    #[test]
    fn loom_coverage_clears_the_violation() {
        let files = [
            sf("crates/core/src/f.rs", ATOMIC_SRC),
            sf(
                "crates/core/tests/loom_f.rs",
                "#![cfg(loom)]\nuse loom::model;\n#[test]\nfn m() { let f = Flag::new(); }\n",
            ),
        ];
        let allow = Allowlist::parse_by_item("allow/atomics.txt", "");
        let mut used = BTreeSet::new();
        let (_, v) = atomics_audit(&files, &allow, &mut used);
        assert!(v.is_empty(), "{v:?}");
        assert!(used.is_empty(), "no allowlist entry was needed");
    }

    #[test]
    fn allowlist_entry_clears_and_is_marked_used() {
        let files = [sf("crates/core/src/f.rs", ATOMIC_SRC)];
        let allow = Allowlist::parse_by_item(
            "allow/atomics.txt",
            "crates/core/src/f.rs: Flag.stop: store/load pair is a plain latch\n",
        );
        let mut used = BTreeSet::new();
        let (_, v) = atomics_audit(&files, &allow, &mut used);
        assert!(v.is_empty(), "{v:?}");
        assert!(used.contains("crates/core/src/f.rs: Flag.stop"));
        assert!(allow.unused(&used).is_empty());
    }

    #[test]
    fn locals_and_constructor_calls_are_not_declarations() {
        let src = "\
fn f() {
    let x: AtomicU64 = AtomicU64::new(0);
    g(AtomicBool::new(false));
}
fn g(side: AtomicBool) {}
";
        let files = [sf("crates/core/src/g.rs", src)];
        let allow = Allowlist::parse_by_item("allow/atomics.txt", "");
        let mut used = BTreeSet::new();
        let (decls, _) = atomics_audit(&files, &allow, &mut used);
        assert!(
            decls.is_empty(),
            "locals/params/ctors are not decls: {decls:?}"
        );
    }

    #[test]
    fn static_atomics_are_inventoried() {
        let src = "static HITS: AtomicU64 = AtomicU64::new(0);\n\
                   fn bump() { HITS.fetch_add(1, Ordering::SeqCst); }\n";
        let files = [sf("crates/dcs/src/h.rs", src)];
        let allow = Allowlist::parse_by_item("allow/atomics.txt", "");
        let mut used = BTreeSet::new();
        let (decls, v) = atomics_audit(&files, &allow, &mut used);
        assert_eq!(decls.len(), 1);
        assert_eq!(decls[0].container, "static");
        assert!(decls[0].orderings.contains("SeqCst"));
        assert_eq!(v.len(), 1);
    }

    // -- trace coverage -----------------------------------------------------

    const TRACE_LIB: &str = "\
pub enum TraceEvent {
    Send { dst: u32 },
    Orphan { n: u64 },
}
";

    #[test]
    fn unemitted_variant_is_flagged() {
        // A reader that matches on every variant emits none of them.
        let reader = "\
fn fold(e: TraceEvent) -> u64 {
    if matches!(e, TraceEvent::Orphan { .. }) { return 0; }
    if let TraceEvent::Orphan { n } = e { return n; }
    match e {
        TraceEvent::Send { .. } | TraceEvent::Orphan { .. } => 1,
        TraceEvent::Orphan { n } if n > 0 => n,
        TraceEvent::Orphan { n } => n,
    }
}
";
        let files = [
            sf("crates/trace/src/lib.rs", TRACE_LIB),
            sf(
                "crates/dcs/src/e.rs",
                "fn f(tr: &Tracer) { tr.emit(|| TraceEvent::Send { dst: 1 }); }\n",
            ),
            sf("crates/harness/src/trace_report.rs", reader),
        ];
        let (events, v) = trace_coverage(&files);
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].variant, "Send");
        assert_eq!(events[0].emitted, 1);
        assert_eq!(
            kinds(&v),
            vec![("crates/trace/src/lib.rs", 3, "trace-unemitted")],
            "{v:?}"
        );
    }

    #[test]
    fn test_gated_emission_does_not_count() {
        let files = [
            sf("crates/trace/src/lib.rs", TRACE_LIB),
            sf(
                "crates/dcs/src/e.rs",
                "#[cfg(test)]\nmod tests {\n    fn f(t: &Tracer) { t.emit(|| TraceEvent::Send { dst: 1 }); }\n}\n",
            ),
        ];
        let (events, _) = trace_coverage(&files);
        assert_eq!(
            events[0].emitted, 0,
            "test-gated construction must not count"
        );
    }
}
