//! A lightweight Rust lexer: just enough token structure for the rule
//! engine, with two properties the rules depend on:
//!
//! - **String and char literal contents never become tokens**, so a rule
//!   keyword inside a string (`"HashMap"`, an error message mentioning
//!   `Instant::now`) can never trip a rule. Ordinary, raw (`r#"…"#`) and
//!   byte strings are all skipped, including multi-line bodies.
//! - **Comments are captured with line spans and text**, because the
//!   escape hatch is a comment directive (syntax in the crate root docs).
//!
//! Everything else is deliberately coarse: punctuation is one token per
//! character (`::` is two `:` tokens), numbers are opaque literals, and no
//! name resolution happens — the rules work on token patterns plus file
//! paths.

/// What kind of lexeme a [`Token`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`unsafe`, `HashMap`, `sum`, …).
    Ident,
    /// Single punctuation character.
    Punct,
    /// String / char / byte / numeric literal (content discarded).
    Literal,
    /// A lifetime such as `'env` (quote stripped from the text).
    Lifetime,
}

/// One lexed token with its 1-based source line.
#[derive(Debug, Clone)]
pub struct Token {
    /// Lexeme class.
    pub kind: TokKind,
    /// Token text: the identifier / lifetime name, the punctuation
    /// character, or `""` for literals.
    pub text: String,
    /// 1-based line the token starts on.
    pub line: usize,
}

/// One comment (line or block) with its covered line span and body text.
#[derive(Debug, Clone)]
pub struct Comment {
    /// 1-based first line.
    pub start_line: usize,
    /// 1-based last line (equals `start_line` for line comments).
    pub end_line: usize,
    /// Comment body without the `//` / `/*` markers.
    pub text: String,
}

/// Lexer output: the token stream plus the comment side-channel.
#[derive(Debug, Default)]
pub struct Lexed {
    /// All non-comment tokens in source order.
    pub tokens: Vec<Token>,
    /// All comments in source order.
    pub comments: Vec<Comment>,
}

impl Lexed {
    /// The identifier text of token `i`, if it is an identifier.
    pub fn ident(&self, i: usize) -> Option<&str> {
        match self.tokens.get(i) {
            Some(t) if t.kind == TokKind::Ident => Some(&t.text),
            _ => None,
        }
    }

    /// True when token `i` is the punctuation character `ch`.
    pub fn is_punct(&self, i: usize, ch: char) -> bool {
        matches!(self.tokens.get(i), Some(t) if t.kind == TokKind::Punct && t.text.len() == ch.len_utf8() && t.text.starts_with(ch))
    }

    /// The comment covering `line`, if any.
    pub fn comment_at(&self, line: usize) -> Option<&Comment> {
        self.comments
            .iter()
            .find(|c| c.start_line <= line && line <= c.end_line)
    }

    /// True when some token starts on `line`.
    pub fn has_token_on(&self, line: usize) -> bool {
        self.tokens.iter().any(|t| t.line == line)
    }
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Lexes `source` into tokens and comments. Never fails: unterminated
/// constructs simply end at EOF (the compiler, not the auditor, owns
/// syntax errors).
pub fn lex(source: &str) -> Lexed {
    let chars: Vec<char> = source.chars().collect();
    let mut out = Lexed::default();
    let mut i = 0usize;
    let mut line = 1usize;

    macro_rules! peek {
        ($n:expr) => {
            chars.get(i + $n).copied()
        };
    }

    while i < chars.len() {
        let c = chars[i];
        if c == '\n' {
            line += 1;
            i += 1;
            continue;
        }
        if c.is_whitespace() {
            i += 1;
            continue;
        }
        // Line comment (covers `///` and `//!` too).
        if c == '/' && peek!(1) == Some('/') {
            let start = i + 2;
            while i < chars.len() && chars[i] != '\n' {
                i += 1;
            }
            out.comments.push(Comment {
                start_line: line,
                end_line: line,
                text: chars[start..i].iter().collect(),
            });
            continue;
        }
        // Block comment, nesting-aware.
        if c == '/' && peek!(1) == Some('*') {
            let start_line = line;
            let mut depth = 1usize;
            let mut text = String::new();
            i += 2;
            while i < chars.len() && depth > 0 {
                if chars[i] == '/' && peek!(1) == Some('*') {
                    depth += 1;
                    i += 2;
                } else if chars[i] == '*' && peek!(1) == Some('/') {
                    depth -= 1;
                    i += 2;
                } else {
                    if chars[i] == '\n' {
                        line += 1;
                    }
                    text.push(chars[i]);
                    i += 1;
                }
            }
            out.comments.push(Comment {
                start_line,
                end_line: line,
                text,
            });
            continue;
        }
        // Raw / byte string prefixes: r" r#" b" br" br#" b'
        if c == 'r' || c == 'b' {
            let (raw_at, byte_char) = match (c, peek!(1), peek!(2)) {
                ('r', Some('"'), _) | ('r', Some('#'), _) => (Some(1), false),
                ('b', Some('"'), _) => (Some(1), false),
                ('b', Some('r'), Some('"')) | ('b', Some('r'), Some('#')) => (Some(2), false),
                ('b', Some('\''), _) => (None, true),
                _ => (None, false),
            };
            if byte_char {
                // b'x' / b'\n': skip to the closing quote.
                let tok_line = line;
                i += 2; // b'
                if peek!(0) == Some('\\') {
                    i += 2;
                }
                while i < chars.len() && chars[i] != '\'' {
                    i += 1;
                }
                i += 1;
                out.tokens.push(Token {
                    kind: TokKind::Literal,
                    text: String::new(),
                    line: tok_line,
                });
                continue;
            }
            if let Some(off) = raw_at {
                let mut j = i + off;
                if chars.get(j) == Some(&'#') || chars.get(j) == Some(&'"') {
                    // Count the # fence, expect an opening quote.
                    let mut hashes = 0usize;
                    while chars.get(j) == Some(&'#') {
                        hashes += 1;
                        j += 1;
                    }
                    if chars.get(j) == Some(&'"') {
                        let tok_line = line;
                        j += 1;
                        // Scan for `"` + hashes `#`s.
                        'scan: while j < chars.len() {
                            if chars[j] == '\n' {
                                line += 1;
                            } else if chars[j] == '"' {
                                let mut k = 0usize;
                                while k < hashes && chars.get(j + 1 + k) == Some(&'#') {
                                    k += 1;
                                }
                                if k == hashes {
                                    j += 1 + hashes;
                                    break 'scan;
                                }
                            }
                            j += 1;
                        }
                        i = j;
                        out.tokens.push(Token {
                            kind: TokKind::Literal,
                            text: String::new(),
                            line: tok_line,
                        });
                        continue;
                    }
                }
                // Fall through: plain identifier starting with r/b.
            }
        }
        // Ordinary (or byte) string.
        if c == '"' {
            let tok_line = line;
            i += 1;
            while i < chars.len() {
                match chars[i] {
                    '\\' => {
                        if peek!(1) == Some('\n') {
                            line += 1;
                        }
                        i += 2;
                    }
                    '"' => {
                        i += 1;
                        break;
                    }
                    '\n' => {
                        line += 1;
                        i += 1;
                    }
                    _ => i += 1,
                }
            }
            out.tokens.push(Token {
                kind: TokKind::Literal,
                text: String::new(),
                line: tok_line,
            });
            continue;
        }
        // Char literal vs lifetime.
        if c == '\'' {
            let tok_line = line;
            match peek!(1) {
                Some('\\') => {
                    // Escaped char literal: skip to closing quote.
                    i += 2;
                    while i < chars.len() && chars[i] != '\'' {
                        i += 1;
                    }
                    i += 1;
                    out.tokens.push(Token {
                        kind: TokKind::Literal,
                        text: String::new(),
                        line: tok_line,
                    });
                }
                Some(n) if is_ident_start(n) => {
                    let mut j = i + 1;
                    while j < chars.len() && is_ident_continue(chars[j]) {
                        j += 1;
                    }
                    if j == i + 2 && chars.get(j) == Some(&'\'') {
                        // Single ident char + closing quote: 'a'.
                        i = j + 1;
                        out.tokens.push(Token {
                            kind: TokKind::Literal,
                            text: String::new(),
                            line: tok_line,
                        });
                    } else {
                        let text: String = chars[i + 1..j].iter().collect();
                        i = j;
                        out.tokens.push(Token {
                            kind: TokKind::Lifetime,
                            text,
                            line: tok_line,
                        });
                    }
                }
                Some(_) if peek!(2) == Some('\'') => {
                    // Punctuation char literal: '('.
                    i += 3;
                    out.tokens.push(Token {
                        kind: TokKind::Literal,
                        text: String::new(),
                        line: tok_line,
                    });
                }
                _ => {
                    i += 1;
                    out.tokens.push(Token {
                        kind: TokKind::Punct,
                        text: "'".to_string(),
                        line: tok_line,
                    });
                }
            }
            continue;
        }
        // Identifier / keyword.
        if is_ident_start(c) {
            let start = i;
            while i < chars.len() && is_ident_continue(chars[i]) {
                i += 1;
            }
            out.tokens.push(Token {
                kind: TokKind::Ident,
                text: chars[start..i].iter().collect(),
                line,
            });
            continue;
        }
        // Number literal (opaque; consumes suffixes and simple exponents).
        if c.is_ascii_digit() {
            let tok_line = line;
            while i < chars.len() {
                let d = chars[i];
                if is_ident_continue(d) {
                    let exp = d == 'e' || d == 'E';
                    i += 1;
                    if exp && matches!(peek!(0), Some('+') | Some('-')) {
                        i += 1;
                    }
                } else if d == '.' && matches!(peek!(1), Some(n) if n.is_ascii_digit()) {
                    i += 1;
                } else {
                    break;
                }
            }
            out.tokens.push(Token {
                kind: TokKind::Literal,
                text: String::new(),
                line: tok_line,
            });
            continue;
        }
        // Anything else: single punctuation character.
        out.tokens.push(Token {
            kind: TokKind::Punct,
            text: c.to_string(),
            line,
        });
        i += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .into_iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn string_contents_are_not_tokens() {
        let src = r##"let x = "unsafe Instant::now thread::spawn"; let y = r#"HashMap .iter()"#;"##;
        let ids = idents(src);
        assert_eq!(ids, vec!["let", "x", "let", "y"]);
    }

    #[test]
    fn char_literals_and_lifetimes_disambiguate() {
        let lexed = lex("fn f<'env>(c: char) { let a = 'x'; let b = '\\n'; let d = '('; }");
        let lifetimes: Vec<_> = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokKind::Lifetime)
            .map(|t| t.text.clone())
            .collect();
        assert_eq!(lifetimes, vec!["env"]);
        let literals = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokKind::Literal)
            .count();
        assert_eq!(literals, 3);
    }

    #[test]
    fn nested_block_comments_and_line_numbers() {
        let src = "/* outer /* inner */ still */\nfn after() {}\n// SAFETY: tail\nlet x = 1;";
        let lexed = lex(src);
        assert_eq!(lexed.comments.len(), 2);
        assert_eq!(lexed.comments[0].start_line, 1);
        assert!(lexed.comments[0].text.contains("inner"));
        assert_eq!(lexed.comments[1].start_line, 3);
        assert!(lexed.comments[1].text.contains("SAFETY:"));
        let after = lexed.tokens.iter().find(|t| t.text == "after").unwrap();
        assert_eq!(after.line, 2);
        let x = lexed.tokens.iter().find(|t| t.text == "x").unwrap();
        assert_eq!(x.line, 4);
    }

    #[test]
    fn multiline_strings_keep_line_count() {
        let src = "let s = \"line one\nline two\";\nlet t = 9;";
        let lexed = lex(src);
        let t = lexed.tokens.iter().find(|t| t.text == "t").unwrap();
        assert_eq!(t.line, 3);
    }

    #[test]
    fn raw_string_with_fences_and_quotes() {
        let src = "let s = r#\"contains \" quote and unsafe\"#; let z = 0;";
        let ids = idents(src);
        assert_eq!(ids, vec!["let", "s", "let", "z"]);
    }

    #[test]
    fn numbers_with_suffixes_and_floats() {
        let src = "let a = 1.0f64; let b = 0xFFu32; let c = 1e-9; let d = v.0;";
        let ids = idents(src);
        // `v.0` keeps `v` as an ident and `.0` as punct+literal.
        assert_eq!(
            ids,
            vec!["let", "a", "let", "b", "let", "c", "let", "d", "v"]
        );
    }

    #[test]
    fn comment_at_and_has_token_on() {
        let src = "// top\nlet x = 1; // trailing\n";
        let lexed = lex(src);
        assert!(lexed.comment_at(1).is_some());
        assert!(lexed.comment_at(2).is_some());
        assert!(!lexed.has_token_on(1));
        assert!(lexed.has_token_on(2));
    }
}
