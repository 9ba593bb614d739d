//! A dependency-free Rust lexer with byte-accurate spans.
//!
//! This is the token layer under the `cargo xtask check` lints (see
//! `lints.rs`). It is *not* a full Rust lexer — no float-suffix
//! splitting, no shebang handling — but it is exact about the things a
//! source-discipline linter must never get wrong:
//!
//! * **string literals** — plain, byte (`b".."`), C (`c".."`), and raw
//!   (`r".."` / `r###"..."###`, with `br`/`cr` prefixes), including
//!   multi-line bodies, so `"thread::spawn"` in a string never looks
//!   like code;
//! * **comments** — line (`//`, with `///` / `//!` doc detection) and
//!   *nested* block comments (`/* /* */ */`), with doc detection, so a
//!   lint pattern quoted in prose never fires;
//! * **char literals vs lifetimes** — `'"'`, `'\''`, `'\u{1F600}'` are
//!   literals; `'a` in `<'a>` is a lifetime;
//! * **raw identifiers** — `r#match` is one identifier, not the start
//!   of a raw string.
//!
//! Every token carries its byte span plus the 1-based line and byte
//! column of its first byte (and the line of its last byte, for
//! multi-line tokens), so lints report `file:line:col` with a span
//! length and the allowlist can match against the violating token's own
//! line.

/// What a [`Token`] is. Comments are tokens here (the lints need them
/// for justification-marker searches); whitespace is not.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword (`unsafe`, `Ordering`, `r#match`).
    Ident,
    /// Lifetime (`'a`, `'static`, `'_`).
    Lifetime,
    /// Char or byte-char literal (`'x'`, `'"'`, `'\''`, `b'\n'`).
    CharLit,
    /// Non-raw string literal, including `b".."` and `c".."`.
    StrLit,
    /// Raw string literal (`r".."`, `r#".."#`, `br#".."#`, `cr".."`).
    RawStrLit,
    /// Numeric literal (integer or float, suffix included).
    NumLit,
    /// `//` comment; `doc` for `///` (not `////`) and `//!`.
    LineComment {
        /// Doc comment (`///` or `//!`).
        doc: bool,
    },
    /// `/* */` comment (nesting handled); `doc` for `/**` and `/*!`.
    BlockComment {
        /// Doc comment (`/**` or `/*!`).
        doc: bool,
    },
    /// Any single other non-whitespace character (`:`, `{`, `#`, …).
    Punct,
}

impl TokenKind {
    /// True for line and block comments, doc or not.
    pub fn is_comment(self) -> bool {
        matches!(self, TokenKind::LineComment { .. } | TokenKind::BlockComment { .. })
    }
}

/// One lexed token with a byte-accurate span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Token {
    pub kind: TokenKind,
    /// Byte offset of the first byte.
    pub start: usize,
    /// Byte offset one past the last byte.
    pub end: usize,
    /// 1-based line of the first byte.
    pub line: usize,
    /// 1-based byte column of the first byte within its line.
    pub col: usize,
    /// 1-based line of the last byte (differs from `line` for
    /// multi-line strings and block comments).
    pub end_line: usize,
}

impl Token {
    /// The token's source text.
    pub fn text<'a>(&self, src: &'a str) -> &'a str {
        &src[self.start..self.end]
    }

    /// Span length in bytes.
    pub fn len(&self) -> usize {
        self.end - self.start
    }
}

/// Lexes `src` into tokens (whitespace dropped, comments kept). Never
/// fails: unterminated literals/comments run to end of input, and any
/// stray byte becomes a [`TokenKind::Punct`].
pub fn lex(src: &str) -> Vec<Token> {
    Lexer { chars: src.char_indices().collect(), src_len: src.len(), i: 0, line: 1, col: 1 }.run()
}

struct Lexer {
    /// `(byte offset, char)` for the whole input.
    chars: Vec<(usize, char)>,
    src_len: usize,
    /// Index into `chars`.
    i: usize,
    line: usize,
    col: usize,
}

impl Lexer {
    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.i + ahead).map(|&(_, c)| c)
    }

    fn offset(&self) -> usize {
        self.chars.get(self.i).map_or(self.src_len, |&(o, _)| o)
    }

    /// Consumes one char, maintaining line/col (col counts bytes).
    fn bump(&mut self) {
        if let Some(&(_, c)) = self.chars.get(self.i) {
            self.i += 1;
            if c == '\n' {
                self.line += 1;
                self.col = 1;
            } else {
                self.col += c.len_utf8();
            }
        }
    }

    fn run(mut self) -> Vec<Token> {
        let mut out = Vec::new();
        while let Some(c) = self.peek(0) {
            if c.is_whitespace() {
                self.bump();
                continue;
            }
            let (start, line, col) = (self.offset(), self.line, self.col);
            let kind = self.next_kind(c);
            let end_line =
                if self.col == 1 && self.line > line { self.line - 1 } else { self.line };
            out.push(Token { kind, start, end: self.offset(), line, col, end_line });
        }
        out
    }

    /// Lexes one token starting at `c`; consumes it fully.
    fn next_kind(&mut self, c: char) -> TokenKind {
        match c {
            '/' if self.peek(1) == Some('/') => self.line_comment(),
            '/' if self.peek(1) == Some('*') => self.block_comment(),
            '\'' => self.lifetime_or_char(),
            '"' => self.string(),
            'r' | 'b' | 'c' => self.prefixed_or_ident(),
            _ if is_ident_start(c) => self.ident(),
            _ if c.is_ascii_digit() => self.number(),
            _ => {
                self.bump();
                TokenKind::Punct
            }
        }
    }

    fn line_comment(&mut self) -> TokenKind {
        let start = self.i;
        while let Some(c) = self.peek(0) {
            if c == '\n' {
                break;
            }
            self.bump();
        }
        let text: String = self.chars[start..self.i].iter().map(|&(_, c)| c).take(4).collect();
        let doc = (text.starts_with("///") && !text.starts_with("////")) || text.starts_with("//!");
        TokenKind::LineComment { doc }
    }

    fn block_comment(&mut self) -> TokenKind {
        let head: String = (0..4).filter_map(|k| self.peek(k)).collect();
        let doc = (head.starts_with("/**") && head != "/**/") || head.starts_with("/*!");
        self.bump();
        self.bump();
        let mut depth = 1usize;
        while depth > 0 {
            match (self.peek(0), self.peek(1)) {
                (Some('/'), Some('*')) => {
                    depth += 1;
                    self.bump();
                    self.bump();
                }
                (Some('*'), Some('/')) => {
                    depth -= 1;
                    self.bump();
                    self.bump();
                }
                (Some(_), _) => self.bump(),
                (None, _) => break, // unterminated: run to EOF
            }
        }
        TokenKind::BlockComment { doc }
    }

    /// `'` starts a lifetime (`'a`, `'_`) or a char literal (`'x'`,
    /// `'"'`, `'\''`). Disambiguation: an identifier char right after
    /// the quote is a char literal only when a closing quote follows
    /// immediately (`'a'`); otherwise it is a lifetime.
    fn lifetime_or_char(&mut self) -> TokenKind {
        self.bump(); // opening '
        match self.peek(0) {
            Some('\\') => {
                // Escaped char literal: the backslash, exactly one escape
                // body ('\x41', '\u{..}', or one char as in '\n', '\\',
                // '\''), then the closing quote.
                self.bump();
                match self.peek(0) {
                    Some('x') => (0..3).for_each(|_| self.bump()),
                    Some('u') => {
                        while let Some(c) = self.peek(0) {
                            self.bump();
                            if c == '}' || c == '\n' {
                                break;
                            }
                        }
                    }
                    _ => self.bump(),
                }
                if self.peek(0) == Some('\'') {
                    self.bump();
                }
                TokenKind::CharLit
            }
            Some(c) if is_ident_start(c) || c.is_ascii_digit() => {
                if self.peek(1) == Some('\'') {
                    self.bump();
                    self.bump();
                    TokenKind::CharLit
                } else {
                    while self.peek(0).is_some_and(is_ident_continue) {
                        self.bump();
                    }
                    TokenKind::Lifetime
                }
            }
            Some(_) => {
                // Non-identifier char literal: '"' , '(' , 'é' …
                self.bump();
                if self.peek(0) == Some('\'') {
                    self.bump();
                }
                TokenKind::CharLit
            }
            None => TokenKind::Punct, // stray quote at EOF
        }
    }

    /// Non-raw string body starting at the opening `"` (prefix already
    /// consumed by the caller when there is one).
    fn string(&mut self) -> TokenKind {
        self.bump(); // opening "
        while let Some(c) = self.peek(0) {
            self.bump();
            match c {
                '\\' => self.bump(), // skip the escaped char
                '"' => break,
                _ => {}
            }
        }
        TokenKind::StrLit
    }

    /// `r` / `b` / `c` may open a raw string, byte string, C string,
    /// byte-char literal, or raw identifier — or just be an identifier.
    fn prefixed_or_ident(&mut self) -> TokenKind {
        let c0 = self.peek(0).unwrap_or_default();
        let c1 = self.peek(1);
        match (c0, c1) {
            // b".." / c".." plain strings with a one-letter prefix.
            ('b' | 'c', Some('"')) => {
                self.bump();
                self.string()
            }
            // b'x' byte-char literal.
            ('b', Some('\'')) => {
                self.bump();
                self.lifetime_or_char()
            }
            // br".." / cr".." / br#".."# / cr#".."# raw strings: consume
            // the one-letter prefix, then lex from the `r` as usual.
            ('b' | 'c', Some('r')) if matches!(self.peek(2), Some('"') | Some('#')) => {
                self.bump();
                self.raw_string_or_ident()
            }
            // r".." / r#".."# raw strings, or r#ident raw identifiers.
            ('r', Some('"') | Some('#')) => self.raw_string_or_ident(),
            _ => self.ident(),
        }
    }

    /// At an `r` that may open a raw string. Falls back to lexing an
    /// identifier (e.g. raw ident `r#match`, or plain `r` + puncts) when
    /// the hash run is not followed by `"`.
    fn raw_string_or_ident(&mut self) -> TokenKind {
        let mut hashes = 0usize;
        while self.peek(1 + hashes) == Some('#') {
            hashes += 1;
        }
        if self.peek(1 + hashes) != Some('"') {
            // r#ident is a raw identifier; consume `r#` + ident body.
            if hashes == 1 && self.peek(2).is_some_and(is_ident_start) {
                self.bump(); // r
                self.bump(); // #
                return self.ident();
            }
            return self.ident(); // plain ident `r` / `br`; `#`s lex later
        }
        self.bump(); // r
        for _ in 0..hashes {
            self.bump();
        }
        self.bump(); // opening "
                     // Body runs to `"` followed by `hashes` hashes.
        'body: while let Some(c) = self.peek(0) {
            self.bump();
            if c == '"' {
                for k in 0..hashes {
                    if self.peek(k) != Some('#') {
                        continue 'body;
                    }
                }
                for _ in 0..hashes {
                    self.bump();
                }
                break;
            }
        }
        TokenKind::RawStrLit
    }

    fn ident(&mut self) -> TokenKind {
        self.bump();
        while self.peek(0).is_some_and(is_ident_continue) {
            self.bump();
        }
        TokenKind::Ident
    }

    fn number(&mut self) -> TokenKind {
        self.bump();
        loop {
            match self.peek(0) {
                Some(c) if is_ident_continue(c) => self.bump(),
                // `1.5` continues the literal; `1..n` / `1.method()` do not.
                Some('.') if self.peek(1).is_some_and(|c| c.is_ascii_digit()) => self.bump(),
                _ => break,
            }
        }
        TokenKind::NumLit
    }
}

fn is_ident_start(c: char) -> bool {
    c == '_' || c.is_alphabetic()
}

fn is_ident_continue(c: char) -> bool {
    c == '_' || c.is_alphanumeric()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokenKind, String)> {
        lex(src).into_iter().map(|t| (t.kind, t.text(src).to_string())).collect()
    }

    fn code_texts(src: &str) -> Vec<String> {
        lex(src)
            .into_iter()
            .filter(|t| !t.kind.is_comment())
            .map(|t| t.text(src).to_string())
            .collect()
    }

    #[test]
    fn idents_puncts_numbers_and_spans() {
        let src = "let x = 42;";
        let toks = lex(src);
        assert_eq!(
            kinds(src),
            vec![
                (TokenKind::Ident, "let".into()),
                (TokenKind::Ident, "x".into()),
                (TokenKind::Punct, "=".into()),
                (TokenKind::NumLit, "42".into()),
                (TokenKind::Punct, ";".into()),
            ]
        );
        let x = &toks[1];
        assert_eq!((x.line, x.col, x.len()), (1, 5, 1));
        let semi = &toks[4];
        assert_eq!((semi.line, semi.col), (1, 11));
    }

    #[test]
    fn line_and_col_are_byte_accurate_across_lines() {
        let src = "a\n  bé c\n   unsafe";
        let toks = lex(src);
        assert_eq!((toks[1].line, toks[1].col), (2, 3)); // bé
                                                         // `é` is two bytes (cols 4-5), the space is col 6, `c` col 7.
        assert_eq!((toks[2].line, toks[2].col), (2, 7));
        assert_eq!((toks[3].line, toks[3].col), (3, 4));
        assert_eq!(toks[3].text(src), "unsafe");
    }

    #[test]
    fn raw_string_containing_line_comment_is_one_token() {
        let src = "let s = r#\"// not a comment: thread::spawn\"#; f();";
        let toks = kinds(src);
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokenKind::RawStrLit && t.contains("thread::spawn")));
        // Nothing after the raw string was swallowed.
        assert!(toks.iter().any(|(_, t)| t == "f"));
        // And no comment token was produced at all.
        assert!(!toks.iter().any(|(k, _)| k.is_comment()));
    }

    #[test]
    fn multi_hash_and_multi_line_raw_strings() {
        let src = "r##\"one \"# two\nthree\"##; next";
        let toks = lex(src);
        assert_eq!(toks[0].kind, TokenKind::RawStrLit);
        assert_eq!((toks[0].line, toks[0].end_line), (1, 2));
        assert_eq!(toks[1].text(src), ";");
        assert_eq!(toks[2].text(src), "next");
        assert_eq!(toks[2].line, 2);
    }

    #[test]
    fn byte_and_c_string_prefixes() {
        let src = "b\"x\" c\"y\" br#\"z\"# b'q' r\"w\"";
        let got = kinds(src);
        assert_eq!(
            got.iter().map(|(k, _)| *k).collect::<Vec<_>>(),
            vec![
                TokenKind::StrLit,
                TokenKind::StrLit,
                TokenKind::RawStrLit,
                TokenKind::CharLit,
                TokenKind::RawStrLit,
            ]
        );
    }

    #[test]
    fn raw_ident_is_one_identifier_not_a_raw_string() {
        let src = "let r#match = r#fn;";
        let got = kinds(src);
        assert_eq!(got[1], (TokenKind::Ident, "r#match".into()));
        assert_eq!(got[3], (TokenKind::Ident, "r#fn".into()));
    }

    #[test]
    fn nested_block_comments_close_correctly() {
        let src = "a /* outer /* inner */ still outer */ b";
        let got = kinds(src);
        assert_eq!(got.len(), 3);
        assert_eq!(got[0], (TokenKind::Ident, "a".into()));
        assert!(matches!(got[1].0, TokenKind::BlockComment { doc: false }));
        assert!(got[1].1.ends_with("still outer */"));
        assert_eq!(got[2], (TokenKind::Ident, "b".into()));
    }

    #[test]
    fn doc_comment_flavours() {
        assert!(matches!(lex("/// doc")[0].kind, TokenKind::LineComment { doc: true }));
        assert!(matches!(lex("//! doc")[0].kind, TokenKind::LineComment { doc: true }));
        assert!(matches!(lex("//// not doc")[0].kind, TokenKind::LineComment { doc: false }));
        assert!(matches!(lex("// plain")[0].kind, TokenKind::LineComment { doc: false }));
        assert!(matches!(lex("/** doc */")[0].kind, TokenKind::BlockComment { doc: true }));
        assert!(matches!(lex("/*! doc */")[0].kind, TokenKind::BlockComment { doc: true }));
        assert!(matches!(lex("/**/")[0].kind, TokenKind::BlockComment { doc: false }));
        assert!(matches!(lex("/* plain */")[0].kind, TokenKind::BlockComment { doc: false }));
    }

    #[test]
    fn double_quote_char_literal_does_not_open_a_string() {
        let src = "let q = '\"'; let s = \"x\"; done";
        let got = kinds(src);
        assert_eq!(got[3], (TokenKind::CharLit, "'\"'".into()));
        assert!(got.iter().any(|(k, t)| *k == TokenKind::StrLit && t == "\"x\""));
        assert_eq!(got.last().unwrap().1, "done");
    }

    #[test]
    fn escaped_quote_char_literal() {
        let src = r"let q = '\''; let u = '\u{1F600}'; next";
        let got = kinds(src);
        assert_eq!(got[3], (TokenKind::CharLit, r"'\''".into()));
        assert_eq!(got[8], (TokenKind::CharLit, r"'\u{1F600}'".into()));
        assert_eq!(got.last().unwrap().1, "next");
    }

    #[test]
    fn escaped_backslash_char_literal_ends_at_its_quote() {
        // '\\' used to run the escape loop past its closing quote and
        // swallow the rest of the file.
        let src = r"let a = '\\'; let b = b'\\'; let c = '\x41'; o.unwrap()";
        let got = kinds(src);
        let chars: Vec<_> =
            got.iter().filter(|(k, _)| *k == TokenKind::CharLit).map(|(_, t)| t.as_str()).collect();
        assert_eq!(chars, vec![r"'\\'", r"b'\\'", r"'\x41'"]);
        assert!(got.iter().any(|(k, t)| *k == TokenKind::Ident && t == "unwrap"));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let src = "fn f<'a, 'static_like>(x: &'a u8) -> &'_ u8 { x }";
        let got = kinds(src);
        let lifetimes: Vec<_> = got
            .iter()
            .filter(|(k, _)| *k == TokenKind::Lifetime)
            .map(|(_, t)| t.as_str())
            .collect();
        assert_eq!(lifetimes, vec!["'a", "'static_like", "'a", "'_"]);
        assert!(!got.iter().any(|(k, _)| *k == TokenKind::CharLit));
    }

    #[test]
    fn char_literal_vs_lifetime_single_letter() {
        let got = kinds("let c = 'x'; fn f<'x>() {}");
        assert_eq!(got[3], (TokenKind::CharLit, "'x'".into()));
        assert!(got.iter().any(|(k, t)| *k == TokenKind::Lifetime && t == "'x"));
    }

    #[test]
    fn string_escapes_do_not_end_the_literal_early() {
        let src = r#"let s = "a\"b\\"; g()"#;
        let got = kinds(src);
        assert_eq!(got[3], (TokenKind::StrLit, r#""a\"b\\""#.into()));
        assert!(got.iter().any(|(_, t)| t == "g"));
    }

    #[test]
    fn multi_line_string_spans_lines() {
        let src = "let s = \"one\ntwo\"; after";
        let toks = lex(src);
        let s = toks.iter().find(|t| t.kind == TokenKind::StrLit).unwrap();
        assert_eq!((s.line, s.end_line), (1, 2));
        let after = toks.iter().find(|t| t.text(src) == "after").unwrap();
        assert_eq!(after.line, 2);
    }

    #[test]
    fn lint_patterns_inside_strings_are_not_code() {
        let src = r#"let a = "thread::spawn unsafe Ordering::Relaxed .unwrap()";"#;
        let texts = code_texts(src);
        assert_eq!(texts.len(), 5, "let a = <string> ; — got {texts:?}");
        assert!(texts[3].starts_with('"') && texts[3].ends_with('"'));
    }

    #[test]
    fn numbers_with_suffixes_and_ranges() {
        let got = kinds("0..10 1.5f64 0xFF_u8 1e3");
        let nums: Vec<_> =
            got.iter().filter(|(k, _)| *k == TokenKind::NumLit).map(|(_, t)| t.as_str()).collect();
        assert_eq!(nums, vec!["0", "10", "1.5f64", "0xFF_u8", "1e3"]);
        assert!(got.iter().filter(|(_, t)| t == ".").count() >= 2, "range dots are puncts");
    }

    #[test]
    fn unterminated_constructs_run_to_eof_without_panicking() {
        for src in ["\"never closed", "/* never closed", "r#\"never closed\"", "'"] {
            let toks = lex(src);
            assert!(!toks.is_empty());
            assert_eq!(toks.last().unwrap().end, src.len());
        }
    }
}
