//! A lint-ready model of a Rust source file, built on the token lexer.
//!
//! [`SourceFile`] keeps three synchronized views of one file: the original
//! lines, a "stripped" rendering (comments and literal contents blanked,
//! line structure preserved — see [`crate::lex::strip_with`]), and the token
//! stream itself. Line-oriented lints read the stripped lines; the protocol
//! and concurrency analyses in [`crate::analyze`] walk the tokens. Both
//! views agree on line numbers by construction because they come from the
//! same lex.

use crate::lex::{self, Token};

/// A lint-ready view of one source file.
pub struct SourceFile {
    /// Path as reported in diagnostics (workspace-relative).
    pub path: String,
    /// Original lines, 0-indexed.
    pub lines: Vec<String>,
    /// Same lines with comments and string/char literal *contents* blanked.
    pub stripped: Vec<String>,
    /// `true` for lines inside `#[cfg(test)]` items or `#[test]` functions.
    pub is_test: Vec<bool>,
    /// The full token stream (comments included; analyses filter).
    pub tokens: Vec<Token>,
}

impl SourceFile {
    pub fn parse(path: &str, text: &str) -> SourceFile {
        let tokens = lex::lex(text);
        let stripped_text = lex::strip_with(&tokens, text);
        let lines: Vec<String> = text.lines().map(|l| l.to_string()).collect();
        let stripped: Vec<String> = stripped_text.lines().map(|l| l.to_string()).collect();
        let is_test = mark_test_lines(&stripped);
        SourceFile {
            path: path.to_string(),
            lines,
            stripped,
            is_test,
            tokens,
        }
    }

    /// Iterate (1-based line number, stripped line, original line) over
    /// non-test lines.
    pub fn non_test_lines(&self) -> impl Iterator<Item = (usize, &str, &str)> {
        self.stripped
            .iter()
            .zip(&self.lines)
            .enumerate()
            .filter(move |(i, _)| !self.is_test.get(*i).copied().unwrap_or(false))
            .map(|(i, (s, o))| (i + 1, s.as_str(), o.as_str()))
    }

    /// Whether a 1-based line is inside test-gated code.
    pub fn line_is_test(&self, line: usize) -> bool {
        line >= 1 && self.is_test.get(line - 1).copied().unwrap_or(false)
    }
}

/// Mark lines belonging to `#[cfg(test)]` items and `#[test]` functions.
///
/// Strategy: when a `#[cfg(test)]` or `#[test]`/`#[bench]` attribute line is
/// seen, everything from the attribute to the close of the next brace block
/// is test code. Works on stripped source so braces in strings/comments
/// don't confuse the depth count.
fn mark_test_lines(stripped: &[String]) -> Vec<bool> {
    let mut is_test = vec![false; stripped.len()];
    let mut i = 0;
    while i < stripped.len() {
        let t = stripped[i].trim();
        let is_attr = t.starts_with("#[cfg(test)]")
            || t.starts_with("#[cfg(all(test")
            || t.starts_with("#[cfg(any(test")
            || t.starts_with("#[test]")
            || t.starts_with("#[bench]");
        if !is_attr {
            i += 1;
            continue;
        }
        // Mark from the attribute through the end of the item's brace block.
        let mut depth = 0i32;
        let mut seen_open = false;
        let mut j = i;
        while j < stripped.len() {
            is_test[j] = true;
            for c in stripped[j].chars() {
                match c {
                    '{' => {
                        depth += 1;
                        seen_open = true;
                    }
                    '}' => depth -= 1,
                    // An attribute can gate a brace-less item (`use`, const);
                    // a `;` at depth 0 before any `{` ends it.
                    ';' if !seen_open && depth == 0 => {
                        seen_open = true; // terminate outer loop below
                        depth = 0;
                    }
                    _ => {}
                }
            }
            if seen_open && depth <= 0 {
                break;
            }
            j += 1;
        }
        i = j + 1;
    }
    is_test
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strips_comments_and_strings() {
        let src = "let x = 1; // unwrap() in comment\nlet s = \".unwrap()\";\n/* .unwrap() */ let y = 2;\n";
        let f = SourceFile::parse("t.rs", src);
        assert!(!f.stripped[0].contains("unwrap"));
        assert!(!f.stripped[1].contains("unwrap"));
        assert!(!f.stripped[2].contains("unwrap"));
        assert!(f.stripped[2].contains("let y = 2;"));
        // Original text retained for message extraction.
        assert!(f.lines[1].contains(".unwrap()"));
    }

    #[test]
    fn strips_raw_strings_and_char_literals() {
        let src = "let r = r#\"sleep(\"#; let c = '\\n'; let lt: &'static str = \"x\";\n";
        let f = SourceFile::parse("t.rs", src);
        assert!(!f.stripped[0].contains("sleep"));
        assert!(f.stripped[0].contains("&'static str"));
    }

    #[test]
    fn nested_block_comments() {
        let src = "/* outer /* inner */ still comment */ code();\n";
        let f = SourceFile::parse("t.rs", src);
        assert!(!f.stripped[0].contains("still"));
        assert!(f.stripped[0].contains("code();"));
    }

    // The old char-by-char stripper's edge cases, pinned against the lexer
    // rebase. Each of these desynced (or risked desyncing) the literal state
    // machine and thereby blanked or mis-attributed real code.

    #[test]
    fn loop_labels_and_lifetime_bounds_stay_code() {
        let src =
            "'outer: for x in 0..n {\n    break 'outer;\n}\nfn f<'a, T: Send + 'a>(v: &'a T) {}\n";
        let f = SourceFile::parse("t.rs", src);
        assert!(f.stripped[0].contains("'outer: for x in 0..n {"));
        assert!(f.stripped[1].contains("break 'outer;"));
        assert!(f.stripped[3].contains("fn f<'a, T: Send + 'a>(v: &'a T) {}"));
    }

    #[test]
    fn escaped_quote_and_backslash_char_literals_do_not_desync() {
        // After '\'' and '\\' the stripper must be back in code state:
        // the trailing call must survive, the literal contents must not.
        let src = "let q = '\\''; let b = '\\\\'; keep_me();\nlet s = \"after\";\n";
        let f = SourceFile::parse("t.rs", src);
        assert!(f.stripped[0].contains("keep_me();"));
        assert!(!f.stripped[1].contains("after"));
        assert!(f.stripped[1].contains("let s ="));
    }

    #[test]
    fn escaped_newline_in_string_keeps_line_numbers() {
        // A string continuation ("a\<newline>b") used to blank the newline,
        // shifting every later line up by one — so lints reported wrong
        // lines and test spans covered the wrong code.
        let src = "let s = \"a\\\nb\";\nafter_the_string();\n";
        let f = SourceFile::parse("t.rs", src);
        assert_eq!(f.stripped.len(), f.lines.len(), "line structure preserved");
        assert!(f.stripped[2].contains("after_the_string();"));
        assert!(
            !f.stripped[1].contains('b'),
            "continuation contents blanked"
        );
    }

    #[test]
    fn unicode_escape_char_literal_stays_one_literal() {
        let src = "let u = '\\u{1F600}'; tail();\n";
        let f = SourceFile::parse("t.rs", src);
        assert!(f.stripped[0].contains("tail();"));
        assert!(!f.stripped[0].contains("1F600"));
    }

    #[test]
    fn byte_literals_are_blanked() {
        let src = "let b = b'}'; let s = b\"}}\"; if depth == 0 { x(); }\n";
        let f = SourceFile::parse("t.rs", src);
        assert!(
            !f.stripped[0].contains('}') || f.stripped[0].rfind('}') > f.stripped[0].find("x()"),
            "brace inside byte literals must be blanked: {}",
            f.stripped[0]
        );
        assert!(f.stripped[0].contains("if depth == 0 { x(); }"));
    }

    #[test]
    fn marks_cfg_test_mod() {
        let src = "fn prod() {}\n#[cfg(test)]\nmod tests {\n    fn helper() { x.unwrap(); }\n}\nfn prod2() {}\n";
        let f = SourceFile::parse("t.rs", src);
        assert_eq!(
            f.is_test,
            vec![false, true, true, true, true, false],
            "test-mod span"
        );
    }

    #[test]
    fn marks_test_fn_outside_mod() {
        let src = "fn a() {}\n#[test]\nfn t() {\n    b.unwrap();\n}\nfn c() {}\n";
        let f = SourceFile::parse("t.rs", src);
        assert_eq!(f.is_test, vec![false, true, true, true, true, false]);
    }

    #[test]
    fn braces_in_strings_do_not_confuse_spans() {
        let src = "#[cfg(test)]\nmod tests {\n    const S: &str = \"}\";\n    fn t() {}\n}\nfn prod() {}\n";
        let f = SourceFile::parse("t.rs", src);
        assert!(!f.is_test[5], "prod fn wrongly marked as test");
        assert!(f.is_test[2] && f.is_test[4]);
    }

    #[test]
    fn tokens_carry_lines_matching_the_line_views() {
        let src = "fn a() {}\n// comment\nfn b() {}\n";
        let f = SourceFile::parse("t.rs", src);
        let b = f
            .tokens
            .iter()
            .find(|t| t.is_ident("b"))
            .expect("token for fn b");
        assert_eq!(b.line, 3);
        assert!(f.lines[b.line - 1].contains("fn b"));
    }
}
