//! Token-level protocol and concurrency analyses, run by `cargo xtask lint`.
//!
//! Three analyses, each a pure function over [`SourceFile`] token streams:
//!
//! 1. [`handler_graph`] — extracts every `HandlerId`/node-plane handler
//!    constant with its numeric value, then classifies each use site as a
//!    *send* (`am_send`/`node_message` argument, `handler:` field init) or a
//!    *receive* (`register`/`on_node_message`/`await_handler` argument,
//!    `==`/`!=` comparison, match arm). Flags value collisions within a
//!    plane, ids outside the reserved system range, ids that are sent but
//!    never received, ids that are registered but never sent, and ids that
//!    are neither.
//! 2. [`atomics_audit`] — inventories every atomic field/static declaration
//!    with the orderings used to access it, and requires each to be covered
//!    by a loom model (the container type named in a loom test) or carry a
//!    `path: Container.field` entry in `crates/xtask/allow/atomics.txt`.
//! 3. [`trace_coverage`] — every `TraceEvent` variant must have a `name()`
//!    string, be emitted from non-test runtime code, and be consumed by the
//!    `trace-report` replayer; dead or invisible telemetry is a violation.
//!
//! All three work on the same lexed token stream as the line lints, so line
//! numbers in diagnostics agree with the editor. None of them parse Rust
//! fully — they rely on the workspace's own conventions (documented in
//! DESIGN.md §12) and are tested against seeded-violation fixtures below.

use std::collections::{BTreeMap, BTreeSet};

use crate::lex::{Kind, Token};
use crate::lints::{item_key, Allowlist, Violation};
use crate::source::SourceFile;

/// `HandlerId::SYSTEM_BASE`: system handler ids live at or above this.
const SYSTEM_BASE: u64 = 0xFFFF_0000;
/// `NODE_HANDLER_LIMIT`: node-plane LB ids sit above, core ids just below.
const NODE_HANDLER_LIMIT: u64 = 0xFFFF_F000;

/// Crates whose `src/` trees declare message handlers.
const HANDLER_CRATES: [&str; 4] = ["core", "dcs", "mol", "ilb"];

/// Functions whose argument position makes a handler constant a *send*.
const SEND_FNS: [&str; 3] = ["am_send", "node_message", "try_node_message"];
/// Functions whose argument position makes a handler constant a *receive*.
const RECV_FNS: [&str; 3] = ["register", "on_node_message", "await_handler"];

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

/// Parse a Rust integer literal (`42`, `0xFFFF_0000`) to a value.
fn parse_int(text: &str) -> Option<u64> {
    let t = text.replace('_', "");
    if let Some(hex) = t.strip_prefix("0x").or_else(|| t.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        t.parse().ok()
    }
}

/// Evaluate a handler-id initializer expression from tokens.
///
/// Understands integer literals, the two named anchors
/// (`HandlerId::SYSTEM_BASE`, `NODE_HANDLER_LIMIT`), `+`/`-`, and ignores
/// grouping (`HandlerId(...)`, parens, `::` paths). Any other identifier
/// makes the value unknown.
fn eval_handler_expr(toks: &[&Token]) -> Option<u64> {
    let mut value: Option<u64> = None;
    let mut op: char = '+';
    for (i, t) in toks.iter().enumerate() {
        match t.kind {
            Kind::Num => {
                let term = parse_int(&t.text)?;
                value = Some(apply(value.unwrap_or(0), op, term)?);
            }
            Kind::Ident => {
                let term = match t.text.as_str() {
                    "SYSTEM_BASE" => SYSTEM_BASE,
                    "NODE_HANDLER_LIMIT" => NODE_HANDLER_LIMIT,
                    // Wrapper/paths: `HandlerId(...)`, `ilb::scheduler::...`.
                    _ if matches!(toks.get(i + 1), Some(n) if n.is_punct("(") || n.is_punct("::")) =>
                    {
                        continue;
                    }
                    _ => return None,
                };
                value = Some(apply(value.unwrap_or(0), op, term)?);
            }
            Kind::Punct => match t.text.as_str() {
                "+" => op = '+',
                "-" => op = '-',
                "(" | ")" | "::" => {}
                _ => return None,
            },
            _ => return None,
        }
    }
    return value;

    fn apply(acc: u64, op: char, term: u64) -> Option<u64> {
        match op {
            '+' => acc.checked_add(term),
            '-' => acc.checked_sub(term),
            _ => None,
        }
    }
}

// ---------------------------------------------------------------------------
// Analysis 1: handler graph
// ---------------------------------------------------------------------------

/// Which message plane a handler constant belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Plane {
    /// `HandlerId` — the DCS envelope plane.
    Envelope,
    /// Bare `u32` node-message ids (`on_node_message` plane).
    Node,
}

impl Plane {
    pub fn label(self) -> &'static str {
        match self {
            Plane::Envelope => "envelope",
            Plane::Node => "node",
        }
    }
}

/// One handler constant with its routing degree.
#[derive(Debug)]
pub struct HandlerInfo {
    pub name: String,
    pub plane: Plane,
    /// Numeric id when the initializer is statically evaluable.
    pub value: Option<u64>,
    pub path: String,
    pub line: usize,
    /// Send sites in non-test `src/` code.
    pub sends: usize,
    /// Receive sites (registration/comparison/match) in non-test `src/` code.
    pub recvs: usize,
}

fn is_handler_decl_path(path: &str) -> bool {
    path.contains("/src/")
        && HANDLER_CRATES
            .iter()
            .any(|c| path.starts_with(&format!("crates/{c}/")))
}

/// Extract handler constants and classify every use site; see module docs.
pub fn handler_graph(files: &[SourceFile]) -> (Vec<HandlerInfo>, Vec<Violation>) {
    let mut handlers: Vec<HandlerInfo> = Vec::new();

    // Pass 1: declarations, only in the message-driven crates' src trees.
    for f in files.iter().filter(|f| is_handler_decl_path(&f.path)) {
        let toks = code_tokens(f);
        for i in 0..toks.len() {
            if !toks[i].is_ident("const") || f.line_is_test(toks[i].line) {
                continue;
            }
            let (name_t, colon, ty) = match (toks.get(i + 1), toks.get(i + 2), toks.get(i + 3)) {
                (Some(n), Some(c), Some(t)) if n.kind == Kind::Ident && c.is_punct(":") => {
                    (*n, c, *t)
                }
                _ => continue,
            };
            let _ = colon;
            let plane = if ty.is_ident("HandlerId") {
                Plane::Envelope
            } else if ty.is_ident("u32") {
                Plane::Node
            } else {
                continue;
            };
            // `SYSTEM_BASE` / `NODE_HANDLER_LIMIT` are range anchors, not
            // routable handlers.
            if name_t.text.ends_with("_BASE") || name_t.text.ends_with("_LIMIT") {
                continue;
            }
            // Initializer: tokens between `=` and `;`.
            let mut j = i + 4;
            while j < toks.len() && !toks[j].is_punct("=") {
                j += 1;
            }
            let start = j + 1;
            let mut end = start;
            while end < toks.len() && !toks[end].is_punct(";") {
                end += 1;
            }
            let value = eval_handler_expr(&toks[start..end]);
            if plane == Plane::Node {
                // A bare u32 const is only a handler id if it provably lives
                // in the reserved node-id space.
                let referes_limit = toks[start..end]
                    .iter()
                    .any(|t| t.is_ident("NODE_HANDLER_LIMIT"));
                if !referes_limit && !matches!(value, Some(v) if v >= SYSTEM_BASE) {
                    continue;
                }
            }
            handlers.push(HandlerInfo {
                name: name_t.text.clone(),
                plane,
                value,
                path: f.path.clone(),
                line: name_t.line,
                sends: 0,
                recvs: 0,
            });
        }
    }

    let by_name: BTreeMap<String, Vec<usize>> = {
        let mut m: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        for (idx, h) in handlers.iter().enumerate() {
            m.entry(h.name.clone()).or_default().push(idx);
        }
        m
    };

    // Pass 2: classify use sites in non-test src code across the workspace.
    for f in files.iter().filter(|f| f.path.contains("/src/")) {
        let toks = code_tokens(f);
        let mut call_stack: Vec<String> = Vec::new();
        let mut in_use = false;
        for i in 0..toks.len() {
            let t = toks[i];
            if t.is_ident("use") {
                in_use = true;
            } else if t.is_punct(";") {
                in_use = false;
            } else if t.is_punct("(") {
                let callee = match i.checked_sub(1).and_then(|p| toks.get(p)) {
                    Some(p) if p.kind == Kind::Ident => p.text.clone(),
                    _ => String::new(),
                };
                call_stack.push(callee);
            } else if t.is_punct(")") {
                call_stack.pop();
            }
            if t.kind != Kind::Ident || f.line_is_test(t.line) || in_use {
                continue;
            }
            let Some(decl_idxs) = by_name.get(&t.text) else {
                continue;
            };
            // Skip the declaration itself.
            if decl_idxs
                .iter()
                .any(|&d| handlers[d].path == f.path && handlers[d].line == t.line)
            {
                continue;
            }
            let prev = i.checked_sub(1).and_then(|p| toks.get(p).copied());
            let prev2 = i.checked_sub(2).and_then(|p| toks.get(p).copied());
            let next = toks.get(i + 1).copied();
            let innermost = call_stack.last().map(String::as_str).unwrap_or("");
            let cmp =
                |t: Option<&Token>| matches!(t, Some(t) if t.is_punct("==") || t.is_punct("!="));
            let is_recv = cmp(prev)
                || cmp(next)
                || matches!(next, Some(n) if n.is_punct("=>"))
                || RECV_FNS.contains(&innermost);
            let is_send = !is_recv
                && (SEND_FNS.contains(&innermost)
                    || (matches!(prev, Some(p) if p.is_punct(":"))
                        && matches!(prev2, Some(p) if p.is_ident("handler"))));
            for &d in decl_idxs {
                if is_recv {
                    handlers[d].recvs += 1;
                } else if is_send {
                    handlers[d].sends += 1;
                }
            }
        }
    }

    // Violations.
    let mut violations = Vec::new();
    let mut by_value: BTreeMap<(Plane, u64), Vec<usize>> = BTreeMap::new();
    for (idx, h) in handlers.iter().enumerate() {
        if let Some(v) = h.value {
            by_value.entry((h.plane, v)).or_default().push(idx);
        }
    }
    for ((plane, v), idxs) in &by_value {
        if idxs.len() > 1 {
            let first = &handlers[idxs[0]];
            for &d in &idxs[1..] {
                let h = &handlers[d];
                violations.push(Violation::new(
                    &h.path,
                    h.line,
                    "handler-collision",
                    format!(
                        "{} id {:#010x} of `{}` collides with `{}` ({}:{})",
                        plane.label(),
                        v,
                        h.name,
                        first.name,
                        first.path,
                        first.line
                    ),
                ));
            }
        }
    }
    for h in &handlers {
        if let Some(v) = h.value {
            if v < SYSTEM_BASE {
                violations.push(Violation::new(
                    &h.path,
                    h.line,
                    "handler-range",
                    format!(
                        "`{}` = {:#010x} is below HandlerId::SYSTEM_BASE ({:#010x}): \
                         runtime handlers must not squat on application id space",
                        h.name, v, SYSTEM_BASE
                    ),
                ));
            }
        }
        match (h.sends, h.recvs) {
            (0, 0) => violations.push(Violation::new(
                &h.path,
                h.line,
                "handler-unrouted",
                format!("`{}` is declared but never sent to nor received", h.name),
            )),
            (_, 0) => violations.push(Violation::new(
                &h.path,
                h.line,
                "handler-unrouted",
                format!(
                    "`{}` is sent ({} site{}) but never registered/received: \
                     those messages land in the undeliverable count",
                    h.name,
                    h.sends,
                    if h.sends == 1 { "" } else { "s" }
                ),
            )),
            (0, _) => violations.push(Violation::new(
                &h.path,
                h.line,
                "handler-unreachable",
                format!(
                    "`{}` is registered ({} site{}) but nothing sends it: dead handler",
                    h.name,
                    h.recvs,
                    if h.recvs == 1 { "" } else { "s" }
                ),
            )),
            _ => {}
        }
    }
    (handlers, violations)
}

// ---------------------------------------------------------------------------
// Analysis 2: atomics audit
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
// Analysis 3: trace-event coverage
// ---------------------------------------------------------------------------

/// One `TraceEvent` variant's lifecycle coverage.
#[derive(Debug)]
pub struct TraceEventInfo {
    pub variant: String,
    /// The `name()` string, when an arm maps the variant to one.
    pub name: Option<String>,
    pub line: usize,
    /// Construction sites in non-test runtime code outside the trace crate.
    pub emitted: usize,
    /// Whether the replayer (`trace_report.rs`) consumes the name.
    pub consumed: bool,
}

/// Check that every `TraceEvent` variant is named, emitted, and replayed.
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
                            name: None,
                            line: u.line,
                            emitted: 0,
                            consumed: false,
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

    // name() arms: `TraceEvent::V { .. } => "v"`.
    for i in 0..toks.len() {
        if !toks[i].is_ident("TraceEvent")
            || !matches!(toks.get(i + 1), Some(n) if n.is_punct("::"))
        {
            continue;
        }
        let Some(var_t) = toks.get(i + 2).filter(|v| v.kind == Kind::Ident) else {
            continue;
        };
        // Skip an optional `{ .. }` pattern, then require `=> "str"`.
        let mut j = i + 3;
        if matches!(toks.get(j), Some(u) if u.is_punct("{")) {
            let mut d = 1i32;
            j += 1;
            while j < toks.len() && d > 0 {
                if toks[j].is_punct("{") {
                    d += 1;
                } else if toks[j].is_punct("}") {
                    d -= 1;
                }
                j += 1;
            }
        }
        if matches!(toks.get(j), Some(u) if u.is_punct("=>")) {
            if let Some(s) = toks.get(j + 1).and_then(|u| u.str_content()) {
                if let Some(ev) = events.iter_mut().find(|e| e.variant == var_t.text) {
                    ev.name = Some(s.to_string());
                }
            }
        }
    }

    // Emission sites: `TraceEvent::V` in non-test src code outside trace.
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
            {
                if let Some(v) = ftoks.get(i + 2) {
                    if let Some(ev) = events.iter_mut().find(|e| e.variant == v.text) {
                        ev.emitted += 1;
                    }
                }
            }
        }
    }

    // Consumption: the replayer mentions the name as a string literal.
    if let Some(report) = files
        .iter()
        .find(|f| f.path.ends_with("xtask/src/trace_report.rs"))
    {
        let names: BTreeSet<&str> = report
            .tokens
            .iter()
            .filter_map(|t| t.str_content())
            .collect();
        for ev in &mut events {
            if let Some(n) = &ev.name {
                ev.consumed = names.contains(n.as_str());
            }
        }
    }

    let mut violations = Vec::new();
    for ev in &events {
        match &ev.name {
            None => violations.push(Violation::new(
                &lib.path,
                ev.line,
                "trace-unnamed",
                format!(
                    "TraceEvent::{} has no name() arm: it cannot be serialized",
                    ev.variant
                ),
            )),
            Some(n) => {
                if ev.emitted == 0 {
                    violations.push(Violation::new(
                        &lib.path,
                        ev.line,
                        "trace-unemitted",
                        format!(
                            "TraceEvent::{} (`{}`) is never emitted from runtime code: \
                             dead telemetry",
                            ev.variant, n
                        ),
                    ));
                }
                if !ev.consumed {
                    violations.push(Violation::new(
                        &lib.path,
                        ev.line,
                        "trace-unconsumed",
                        format!(
                            "TraceEvent::{} (`{}`) is not consumed by the trace-report \
                             replayer: invisible telemetry",
                            ev.variant, n
                        ),
                    ));
                }
            }
        }
    }
    (events, violations)
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

    // -- handler graph ------------------------------------------------------

    const HANDLER_OK: &str = "\
pub const H_GOOD: HandlerId = HandlerId(HandlerId::SYSTEM_BASE + 64);
fn wire(t: &T) {
    t.am_send(1, H_GOOD, payload);
    rt.register(H_GOOD, |env| {});
}
";

    #[test]
    fn handler_graph_clean_fixture_passes() {
        let files = [sf("crates/dcs/src/h.rs", HANDLER_OK)];
        let (handlers, v) = handler_graph(&files);
        assert_eq!(handlers.len(), 1);
        assert_eq!(handlers[0].value, Some(0xFFFF_0040));
        assert_eq!((handlers[0].sends, handlers[0].recvs), (1, 1));
        assert!(v.is_empty(), "unexpected: {v:?}");
    }

    #[test]
    fn handler_collision_and_range_are_flagged() {
        let a = sf(
            "crates/dcs/src/a.rs",
            "pub const H_ONE: HandlerId = HandlerId(HandlerId::SYSTEM_BASE + 7);\n\
             fn f(t: &T) { t.am_send(0, H_ONE, p); r.register(H_ONE, h); }\n",
        );
        let b = sf(
            "crates/mol/src/b.rs",
            "pub const H_TWO: HandlerId = HandlerId(HandlerId::SYSTEM_BASE + 7);\n\
             pub const H_LOW: HandlerId = HandlerId(42);\n\
             fn g(t: &T) { t.am_send(0, H_TWO, p); r.register(H_TWO, h);\n\
                 t.am_send(0, H_LOW, p); r.register(H_LOW, h); }\n",
        );
        let files = [a, b];
        let (_, v) = handler_graph(&files);
        assert_eq!(
            kinds(&v),
            vec![
                ("crates/mol/src/b.rs", 1, "handler-collision"),
                ("crates/mol/src/b.rs", 2, "handler-range"),
            ],
            "exactly one collision (at the later decl) and one range violation: {v:?}"
        );
    }

    #[test]
    fn send_without_recv_and_recv_without_send_are_flagged() {
        let src = sf(
            "crates/core/src/x.rs",
            "const H_SENT: u32 = NODE_HANDLER_LIMIT - 9;\n\
             const H_DEAD: u32 = NODE_HANDLER_LIMIT - 10;\n\
             fn f(rt: &Rt) {\n\
                 rt.node_message(1, H_SENT, bytes);\n\
                 rt.on_node_message(H_DEAD, |ctx, src, p| {});\n\
             }\n",
        );
        let files = [src];
        let (_, v) = handler_graph(&files);
        assert_eq!(
            kinds(&v),
            vec![
                ("crates/core/src/x.rs", 1, "handler-unrouted"),
                ("crates/core/src/x.rs", 2, "handler-unreachable"),
            ],
            "{v:?}"
        );
    }

    #[test]
    fn match_arms_field_inits_and_use_statements_classify_correctly() {
        let src = sf(
            "crates/ilb/src/y.rs",
            "use crate::other::H_ARM;\n\
             pub const H_ARM: HandlerId = HandlerId(HandlerId::SYSTEM_BASE + 80);\n\
             fn f(env: &Envelope) -> Envelope {\n\
                 match env.handler {\n\
                     H_ARM => {}\n\
                     _ => {}\n\
                 }\n\
                 Envelope { handler: H_ARM, payload }\n\
             }\n",
        );
        let files = [src];
        let (handlers, v) = handler_graph(&files);
        assert_eq!((handlers[0].sends, handlers[0].recvs), (1, 1));
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn test_code_and_foreign_crates_do_not_declare_handlers() {
        let src = sf(
            "crates/harness/src/z.rs",
            "pub const H_NOT_TRACKED: HandlerId = HandlerId(HandlerId::SYSTEM_BASE + 5);\n",
        );
        let test_decl = sf(
            "crates/dcs/src/t.rs",
            "#[cfg(test)]\nmod tests {\n    const H_TEST_ONLY: HandlerId = HandlerId(HandlerId::SYSTEM_BASE + 6);\n}\n",
        );
        let files = [src, test_decl];
        let (handlers, _) = handler_graph(&files);
        assert!(handlers.is_empty(), "{handlers:?}");
    }

    #[test]
    fn unregistered_handler_id_fires() {
        let decl = sf(
            "crates/mol/src/proto.rs",
            "pub const H_MOL_ORPHAN: HandlerId = HandlerId(HandlerId::SYSTEM_BASE + 40);\n",
        );
        let other = sf("crates/mol/src/node.rs", "fn f() {}\n");
        let (_, v) = handler_graph(&[decl, other]);
        assert_eq!(
            kinds(&v),
            vec![("crates/mol/src/proto.rs", 1, "handler-unrouted")]
        );
        assert!(v[0].message.contains("never sent to nor received"));
    }

    /// Declared in one file, registered and sent in another: the references
    /// are counted across the whole file set.
    #[test]
    fn registered_handler_id_passes() {
        let decl = sf(
            "crates/mol/src/proto.rs",
            "pub const H_MOL_MSG: HandlerId = HandlerId(HandlerId::SYSTEM_BASE + 16);\n",
        );
        let reg = sf(
            "crates/mol/src/node.rs",
            "fn wire(r: &mut Registry, t: &T) { r.register(H_MOL_MSG, on_msg); t.am_send(1, H_MOL_MSG, p); }\n",
        );
        let (handlers, v) = handler_graph(&[decl, reg]);
        assert_eq!((handlers[0].sends, handlers[0].recvs), (1, 1));
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn prefix_name_is_not_a_reference() {
        let decls = sf(
            "crates/mol/src/proto.rs",
            "pub const H_MOL: HandlerId = HandlerId(HandlerId::SYSTEM_BASE + 30);\n\
             pub const H_MOL_MSG: HandlerId = HandlerId(HandlerId::SYSTEM_BASE + 16);\n",
        );
        let near_miss = sf(
            "crates/mol/src/node.rs",
            "fn wire(r: &mut Registry, t: &T) { r.register(H_MOL_MSG, on_msg); t.am_send(1, H_MOL_MSG, p); }\n",
        );
        let (_, v) = handler_graph(&[decls, near_miss]);
        assert_eq!(
            kinds(&v),
            vec![("crates/mol/src/proto.rs", 1, "handler-unrouted")],
            "H_MOL_MSG must not count as a use of H_MOL"
        );
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
impl TraceEvent {
    pub fn name(&self) -> &'static str {
        match self {
            TraceEvent::Send { .. } => \"send\",
            TraceEvent::Orphan { .. } => \"orphan\",
        }
    }
}
";

    #[test]
    fn unemitted_and_unconsumed_variants_are_flagged() {
        let files = [
            sf("crates/trace/src/lib.rs", TRACE_LIB),
            sf(
                "crates/dcs/src/e.rs",
                "fn f(tr: &Tracer) { tr.emit(|| TraceEvent::Send { dst: 1 }); }\n",
            ),
            sf(
                "crates/xtask/src/trace_report.rs",
                "fn consume(ev: &str) { if ev == \"send\" {} }\n",
            ),
        ];
        let (events, v) = trace_coverage(&files);
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].name.as_deref(), Some("send"));
        assert!(events[0].consumed && events[0].emitted == 1);
        assert_eq!(
            kinds(&v),
            vec![
                ("crates/trace/src/lib.rs", 3, "trace-unemitted"),
                ("crates/trace/src/lib.rs", 3, "trace-unconsumed"),
            ],
            "{v:?}"
        );
    }

    #[test]
    fn unnamed_variant_is_flagged() {
        let lib = "pub enum TraceEvent { Ghost { x: u64 } }\n\
                   impl TraceEvent { pub fn name(&self) -> &'static str { \"?\" } }\n";
        let files = [sf("crates/trace/src/lib.rs", lib)];
        let (_, v) = trace_coverage(&files);
        assert_eq!(
            kinds(&v),
            vec![("crates/trace/src/lib.rs", 1, "trace-unnamed")]
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
