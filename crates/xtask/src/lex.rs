//! A token-level lexer for Rust source, shared by every lint and analysis.
//!
//! This replaces the old char-by-char line stripper as the single place that
//! understands Rust's lexical grammar: comments (line, nested block), string
//! literals (cooked, raw, byte), char literals vs lifetimes, numbers, and
//! multi-char operators. It is deliberately *not* a full lexer — raw
//! identifiers (`r#type`) and exotic suffixes degrade gracefully into
//! adjacent tokens — but it is exact for everything this workspace writes,
//! and every token carries its line number and byte span so diagnostics and
//! the line-oriented [`crate::source::SourceFile`] view stay in sync.

/// Token classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Identifier or keyword.
    Ident,
    /// `'a`, `'static`, `'_` — a quote followed by an identifier with no
    /// closing quote.
    Lifetime,
    /// Cooked string literal, including byte strings (`"..."`, `b"..."`).
    Str,
    /// Raw string literal (`r"..."`, `r#"..."#`, `br#"..."#`).
    RawStr,
    /// Char or byte-char literal (`'x'`, `'\n'`, `b'x'`).
    Char,
    /// Numeric literal (lexed loosely: `0xFFFF_0000`, `1.5`, `1e9`).
    Num,
    /// Operator or delimiter, maximal-munch joined (`::`, `=>`, `==`, ...).
    Punct,
    /// Line or block comment (blanked by [`strip_with`], skipped by
    /// analyses).
    Comment,
}

/// One lexed token: classification, 1-based start line, byte span, and the
/// source text of the span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    pub kind: Kind,
    pub line: usize,
    pub start: usize,
    pub end: usize,
    pub text: String,
}

impl Token {
    /// Whether this token is the identifier `s`.
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == Kind::Ident && self.text == s
    }

    /// Whether this token is the operator/delimiter `s`.
    pub fn is_punct(&self, s: &str) -> bool {
        self.kind == Kind::Punct && self.text == s
    }

    /// The contents of a string literal (delimiters and prefixes removed),
    /// or `None` for non-string tokens. Only the README knob-table test
    /// reads literals.
    #[cfg(test)]
    pub fn str_content(&self) -> Option<&str> {
        match self.kind {
            Kind::Str => {
                let t = self.text.strip_prefix('b').unwrap_or(&self.text);
                let t = t.strip_prefix('"').unwrap_or(t);
                Some(t.strip_suffix('"').unwrap_or(t))
            }
            Kind::RawStr => {
                let t = self.text.strip_prefix('b').unwrap_or(&self.text);
                let t = t.strip_prefix('r').unwrap_or(t);
                let hashes = t.chars().take_while(|&c| c == '#').count();
                let t = &t[hashes..];
                let t = t.strip_prefix('"').unwrap_or(t);
                let t = t.strip_suffix(&"#".repeat(hashes)).unwrap_or(t);
                Some(t.strip_suffix('"').unwrap_or(t))
            }
            _ => None,
        }
    }
}

/// Multi-char operators, tried longest-first (maximal munch).
const OPS3: &[&str] = &["<<=", ">>=", "..=", "..."];
const OPS2: &[&str] = &[
    "::", "->", "=>", "==", "!=", "<=", ">=", "&&", "||", "..", "<<", ">>", "+=", "-=", "*=", "/=",
    "%=", "^=", "&=", "|=",
];

fn is_id_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_id_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Lex `text` into tokens. Whitespace is skipped; comments are kept (as
/// [`Kind::Comment`]) so [`strip_with`] can blank them. The lexer never
/// fails: malformed input degrades into `Punct`/`Ident` tokens.
pub fn lex(text: &str) -> Vec<Token> {
    let chars: Vec<(usize, char)> = text.char_indices().collect();
    let n = chars.len();
    let at = |j: usize| chars.get(j).map(|&(_, c)| c);
    let off = |j: usize| chars.get(j).map(|&(o, _)| o).unwrap_or(text.len());
    let mut toks: Vec<Token> = Vec::new();
    let mut line = 1usize;
    let mut i = 0usize;
    while i < n {
        let c = chars[i].1;
        if c == '\n' {
            line += 1;
            i += 1;
            continue;
        }
        if c.is_whitespace() {
            i += 1;
            continue;
        }
        let start = off(i);
        let start_line = line;
        let mut push = |kind: Kind, end_idx: usize, toks: &mut Vec<Token>| {
            let end = off(end_idx);
            toks.push(Token {
                kind,
                line: start_line,
                start,
                end,
                text: text[start..end].to_string(),
            });
        };

        // Comments.
        if c == '/' && at(i + 1) == Some('/') {
            let mut j = i;
            while j < n && chars[j].1 != '\n' {
                j += 1;
            }
            push(Kind::Comment, j, &mut toks);
            i = j; // newline handled at loop top
            continue;
        }
        if c == '/' && at(i + 1) == Some('*') {
            let mut depth = 1u32;
            let mut j = i + 2;
            while j < n && depth > 0 {
                match (chars[j].1, at(j + 1)) {
                    ('/', Some('*')) => {
                        depth += 1;
                        j += 2;
                    }
                    ('*', Some('/')) => {
                        depth -= 1;
                        j += 2;
                    }
                    ('\n', _) => {
                        line += 1;
                        j += 1;
                    }
                    _ => j += 1,
                }
            }
            push(Kind::Comment, j, &mut toks);
            i = j;
            continue;
        }

        // String/char prefixes: b'..', b".." , r".."/r#".."#, br".."/br#".."#.
        let (raw_at, cooked_at, char_at) = match (c, at(i + 1), at(i + 2)) {
            ('b', Some('\''), _) => (None, None, Some(i + 1)),
            ('b', Some('"'), _) => (None, Some(i + 1), None),
            ('b', Some('r'), Some(q)) if q == '"' || q == '#' => (Some(i + 2), None, None),
            ('r', Some(q), _) if q == '"' || q == '#' => (Some(i + 1), None, None),
            ('"', _, _) => (None, Some(i), None),
            _ => (None, None, None),
        };
        if let Some(h0) = raw_at {
            // Count hashes, then require an opening quote (else: not a raw
            // string — fall through to ident lexing below).
            let mut h = h0;
            while at(h) == Some('#') {
                h += 1;
            }
            if at(h) == Some('"') {
                let hashes = h - h0;
                let mut j = h + 1;
                loop {
                    match at(j) {
                        None => break,
                        Some('\n') => {
                            line += 1;
                            j += 1;
                        }
                        Some('"') => {
                            let closed = (1..=hashes).all(|k| at(j + k) == Some('#'));
                            j += 1;
                            if closed {
                                j += hashes;
                                break;
                            }
                        }
                        Some(_) => j += 1,
                    }
                }
                push(Kind::RawStr, j, &mut toks);
                i = j;
                continue;
            }
            // `r` / `b` not introducing a literal: lex as an identifier.
        } else if let Some(q0) = cooked_at {
            let mut j = q0 + 1;
            loop {
                match at(j) {
                    None => break,
                    Some('\\') => {
                        // An escape consumes the next char — which may be a
                        // newline (string continuation); count it so line
                        // numbers of later tokens stay right.
                        if at(j + 1) == Some('\n') {
                            line += 1;
                        }
                        j += 2;
                    }
                    Some('"') => {
                        j += 1;
                        break;
                    }
                    Some('\n') => {
                        line += 1;
                        j += 1;
                    }
                    Some(_) => j += 1,
                }
            }
            push(Kind::Str, j, &mut toks);
            i = j;
            continue;
        } else if let Some(q0) = char_at {
            i = lex_char_body(&mut push, &mut toks, &at, q0);
            continue;
        }

        // Bare quote: char literal or lifetime.
        if c == '\'' {
            let c1 = at(i + 1);
            let c2 = at(i + 2);
            let is_lifetime = match c1 {
                Some('\\') => false,
                Some(ch) if is_id_start(ch) => c2 != Some('\''),
                _ => false,
            };
            if is_lifetime {
                let mut j = i + 1;
                while at(j).is_some_and(is_id_continue) {
                    j += 1;
                }
                push(Kind::Lifetime, j, &mut toks);
                i = j;
                continue;
            }
            i = lex_char_body(&mut push, &mut toks, &at, i);
            continue;
        }

        // Identifiers and keywords (including a lone `r`/`b`).
        if is_id_start(c) {
            let mut j = i + 1;
            while at(j).is_some_and(is_id_continue) {
                j += 1;
            }
            push(Kind::Ident, j, &mut toks);
            i = j;
            continue;
        }

        // Numbers: digits, then alnum/underscore, one dot if digit-led.
        if c.is_ascii_digit() {
            let mut j = i + 1;
            let mut seen_dot = false;
            loop {
                match at(j) {
                    Some(ch) if ch.is_ascii_alphanumeric() || ch == '_' => j += 1,
                    Some('.') if !seen_dot && at(j + 1).is_some_and(|d| d.is_ascii_digit()) => {
                        seen_dot = true;
                        j += 1;
                    }
                    _ => break,
                }
            }
            push(Kind::Num, j, &mut toks);
            i = j;
            continue;
        }

        // Punct: maximal munch over the known multi-char operators.
        let rest = &text[start..];
        let op3 = OPS3.iter().find(|op| rest.starts_with(**op));
        let op2 = OPS2.iter().find(|op| rest.starts_with(**op));
        let len = if op3.is_some() {
            3
        } else if op2.is_some() {
            2
        } else {
            1
        };
        push(Kind::Punct, i + len, &mut toks);
        i += len;
        continue;
    }
    toks
}

/// Lex a char/byte-char literal whose opening quote is at char index `q0`;
/// returns the index one past the closing quote. The token spans from the
/// pending `start` (which may include a `b` prefix) via the `push` closure.
fn lex_char_body(
    push: &mut impl FnMut(Kind, usize, &mut Vec<Token>),
    toks: &mut Vec<Token>,
    at: &impl Fn(usize) -> Option<char>,
    q0: usize,
) -> usize {
    let mut j = q0 + 1;
    loop {
        match at(j) {
            None => break,
            Some('\\') => j += 2,
            Some('\'') => {
                j += 1;
                break;
            }
            Some(_) => j += 1,
        }
    }
    push(Kind::Char, j, toks);
    j
}

/// Rebuild the "stripped" view of `text` from its tokens: comment bodies and
/// string/char literal contents become spaces, newlines survive (so line
/// numbers and line counts are unchanged), and literal delimiters are kept
/// (`"` / `'`) so downstream heuristics still see where a literal sat.
pub fn strip_with(tokens: &[Token], text: &str) -> String {
    // (start, end, last-char start, replacement quote or None for comments)
    let mut regions: Vec<(usize, usize, usize, Option<char>)> = Vec::new();
    for t in tokens {
        let quote = match t.kind {
            Kind::Comment => None,
            Kind::Str | Kind::RawStr => Some('"'),
            Kind::Char => Some('\''),
            _ => continue,
        };
        let last = t
            .text
            .chars()
            .next_back()
            .map(|c| t.end - c.len_utf8())
            .unwrap_or(t.start);
        regions.push((t.start, t.end, last, quote));
    }
    let mut out = String::with_capacity(text.len());
    let mut r = 0usize;
    for (off, c) in text.char_indices() {
        while r < regions.len() && off >= regions[r].1 {
            r += 1;
        }
        match regions.get(r) {
            Some(&(s, _, last, quote)) if off >= s => match quote {
                Some(q) if off == s || off == last => out.push(q),
                _ if c == '\n' => out.push('\n'),
                _ => out.push(' '),
            },
            _ => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(Kind, String)> {
        lex(src).into_iter().map(|t| (t.kind, t.text)).collect()
    }

    #[test]
    fn idents_puncts_and_numbers() {
        let toks = kinds("const H: HandlerId = HandlerId(SYSTEM_BASE + 0xFFFF_0000);");
        assert_eq!(toks[0], (Kind::Ident, "const".to_string()));
        assert_eq!(toks[1], (Kind::Ident, "H".to_string()));
        assert_eq!(toks[2], (Kind::Punct, ":".to_string()));
        assert!(toks.contains(&(Kind::Num, "0xFFFF_0000".to_string())));
    }

    #[test]
    fn multi_char_operators_are_joined() {
        let toks = kinds("a == b != c => d :: e .. f ..= g");
        let ops: Vec<&str> = toks
            .iter()
            .filter(|(k, _)| *k == Kind::Punct)
            .map(|(_, t)| t.as_str())
            .collect();
        assert_eq!(ops, vec!["==", "!=", "=>", "::", "..", "..="]);
    }

    #[test]
    fn lifetime_vs_char_literal() {
        let toks = kinds("&'static str; 'outer: loop {}; let c = 'x'; let e = '\\n'; let u = '\\u{41}'; let b = b'z'; let underscore: &'_ str;");
        let lifetimes: Vec<&str> = toks
            .iter()
            .filter(|(k, _)| *k == Kind::Lifetime)
            .map(|(_, t)| t.as_str())
            .collect();
        assert_eq!(lifetimes, vec!["'static", "'outer", "'_"]);
        let chars: Vec<&str> = toks
            .iter()
            .filter(|(k, _)| *k == Kind::Char)
            .map(|(_, t)| t.as_str())
            .collect();
        assert_eq!(chars, vec!["'x'", "'\\n'", "'\\u{41}'", "b'z'"]);
    }

    #[test]
    fn escaped_quote_char_literal() {
        let toks = kinds(r"let q = '\''; let bs = '\\'; done();");
        let chars: Vec<&str> = toks
            .iter()
            .filter(|(k, _)| *k == Kind::Char)
            .map(|(_, t)| t.as_str())
            .collect();
        assert_eq!(chars, vec![r"'\''", r"'\\'"]);
        assert!(toks.iter().any(|(k, t)| *k == Kind::Ident && t == "done"));
    }

    #[test]
    fn string_kinds_and_content() {
        let src = r####"let a = "plain"; let b = b"bytes"; let c = r"raw"; let d = r#"ra"w"#;"####;
        let toks = lex(src);
        let strings: Vec<(Kind, &str)> = toks
            .iter()
            .filter_map(|t| t.str_content().map(|s| (t.kind, s)))
            .collect();
        assert_eq!(
            strings,
            vec![
                (Kind::Str, "plain"),
                (Kind::Str, "bytes"),
                (Kind::RawStr, "raw"),
                (Kind::RawStr, "ra\"w"),
            ]
        );
    }

    #[test]
    fn line_numbers_across_multiline_tokens() {
        let src = "fn a() {}\n/* two\nlines */\nlet s = \"x\ny\";\nfn b() {}\n";
        let toks = lex(src);
        let b = toks.iter().find(|t| t.is_ident("b")).expect("fn b lexed");
        assert_eq!(b.line, 6);
        let s = toks
            .iter()
            .find(|t| t.kind == Kind::Str)
            .expect("str lexed");
        assert_eq!(s.line, 4);
    }

    #[test]
    fn escaped_newline_in_string_keeps_line_count() {
        let src = "let s = \"a\\\nb\";\nfn after() {}\n";
        let toks = lex(src);
        let after = toks
            .iter()
            .find(|t| t.is_ident("after"))
            .expect("fn after lexed");
        assert_eq!(after.line, 3);
        let stripped = strip_with(&lex(src), src);
        assert_eq!(stripped.lines().count(), src.lines().count());
        assert!(stripped
            .lines()
            .nth(2)
            .expect("line 3 exists")
            .contains("fn after"));
    }

    #[test]
    fn nested_block_comment_is_one_token() {
        let toks = kinds("/* a /* b */ c */ after");
        assert_eq!(toks.len(), 2);
        assert_eq!(toks[0].0, Kind::Comment);
        assert_eq!(toks[1], (Kind::Ident, "after".to_string()));
    }

    #[test]
    fn strip_blanks_contents_keeps_structure() {
        let src = "let r = r#\"sleep(\"#; let c = '\\n'; // tail\n";
        let s = strip_with(&lex(src), src);
        assert!(!s.contains("sleep"));
        assert!(!s.contains("tail"));
        assert!(s.contains("let r ="));
        assert_eq!(s.len(), src.len());
    }
}
