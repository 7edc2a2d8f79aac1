//! A dependency-free, lossless Rust lexer.
//!
//! The one invariant everything downstream builds on: concatenating the
//! `text` of every token reproduces the input byte-for-byte. Token
//! trees (`tokens.rs`), item extraction (`items.rs`) and every rule are
//! views over this stream, so a lexer bug shows up as a reassembly
//! mismatch rather than a silently wrong rule.
//!
//! The lexer is deliberately coarse where coarseness is harmless: it
//! does not validate numeric literals or distinguish keywords from
//! identifiers (rules match on token text). It is exact where a
//! text-level scanner would have to be careful: nested block comments,
//! raw strings with arbitrary `#` counts, byte strings/chars, raw
//! identifiers, and the lifetime-vs-char-literal ambiguity.

/// Classification of one token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A run of whitespace (may span newlines).
    Whitespace,
    /// `// …` (`doc` when `///` or `//!`, but not `////`).
    LineComment { doc: bool },
    /// `/* … */`, nesting tracked (`doc` when `/**` or `/*!`).
    BlockComment { doc: bool },
    /// Identifier or keyword, including raw identifiers (`r#match`).
    Ident,
    /// `'a`, `'static`, loop labels — a tick followed by an identifier
    /// with no closing tick.
    Lifetime,
    /// `"…"` or `b"…"` with escapes.
    Str,
    /// `r"…"`, `r#"…"#`, `br##"…"##` — any hash depth.
    RawStr,
    /// `'x'`, `'\n'`, `b'x'`.
    CharLit,
    /// Numeric literal, including `0x…`, suffixes, and exponents.
    Number,
    /// A single punctuation character.
    Punct,
}

impl Kind {
    /// Tokens that carry no code: comments and whitespace.
    pub fn is_trivia(self) -> bool {
        matches!(
            self,
            Kind::Whitespace | Kind::LineComment { .. } | Kind::BlockComment { .. }
        )
    }

    /// `///`, `//!`, `/** */` and `/*! */` comments: attributes to
    /// rustc (`#[doc = …]`), and kept in the token tree as such.
    pub fn is_doc(self) -> bool {
        matches!(
            self,
            Kind::LineComment { doc: true } | Kind::BlockComment { doc: true }
        )
    }
}

/// One lexed token: its kind, exact source text, and 1-based start line.
#[derive(Debug, Clone)]
pub struct Token {
    pub kind: Kind,
    pub text: String,
    pub line: usize,
}

impl Token {
    /// Single-character punctuation test.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == Kind::Punct && self.text.len() == 1 && self.text.starts_with(c)
    }

    /// Identifier-with-exact-text test.
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == Kind::Ident && self.text == s
    }
}

/// Lex `src` into a lossless token stream.
pub fn lex(src: &str) -> Vec<Token> {
    Lexer {
        chars: src.chars().collect(),
        pos: 0,
        line: 1,
        out: Vec::new(),
    }
    .run()
}

struct Lexer {
    chars: Vec<char>,
    pos: usize,
    line: usize,
    out: Vec<Token>,
}

impl Lexer {
    fn run(mut self) -> Vec<Token> {
        while self.pos < self.chars.len() {
            let start = self.pos;
            let line = self.line;
            let kind = self.next_kind();
            debug_assert!(self.pos > start, "lexer must always make progress");
            let text: String = self.chars[start..self.pos].iter().collect();
            self.line += text.matches('\n').count();
            self.out.push(Token { kind, text, line });
        }
        self.out
    }

    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.pos + ahead).copied()
    }

    fn bump(&mut self, n: usize) {
        // Clamped: an escape at EOF (`"…\` ) asks to skip past the end.
        self.pos = (self.pos + n).min(self.chars.len());
    }

    /// Consume one token's worth of characters, returning its kind.
    fn next_kind(&mut self) -> Kind {
        let c = self.peek(0).expect("next_kind called at EOF");
        if c.is_whitespace() {
            while self.peek(0).is_some_and(char::is_whitespace) {
                self.bump(1);
            }
            return Kind::Whitespace;
        }
        if c == '/' && self.peek(1) == Some('/') {
            return self.line_comment();
        }
        if c == '/' && self.peek(1) == Some('*') {
            return self.block_comment();
        }
        if c == 'b' || c == 'r' {
            if let Some(kind) = self.byte_or_raw_prefix() {
                return kind;
            }
        }
        if c == '"' {
            return self.string(1);
        }
        if c == '\'' {
            return self.tick(0);
        }
        if is_ident_start(c) {
            self.bump(1);
            while self.peek(0).is_some_and(is_ident_continue) {
                self.bump(1);
            }
            return Kind::Ident;
        }
        if c.is_ascii_digit() {
            return self.number();
        }
        self.bump(1);
        Kind::Punct
    }

    fn line_comment(&mut self) -> Kind {
        // `///` and `//!` are docs; `////…` separators are not.
        let doc =
            (self.peek(2) == Some('/') && self.peek(3) != Some('/')) || self.peek(2) == Some('!');
        while self.peek(0).is_some_and(|c| c != '\n') {
            self.bump(1);
        }
        Kind::LineComment { doc }
    }

    fn block_comment(&mut self) -> Kind {
        let doc =
            (self.peek(2) == Some('*') && self.peek(3) != Some('*')) || self.peek(2) == Some('!');
        self.bump(2);
        let mut depth = 1usize;
        while depth > 0 {
            match (self.peek(0), self.peek(1)) {
                (Some('/'), Some('*')) => {
                    depth += 1;
                    self.bump(2);
                }
                (Some('*'), Some('/')) => {
                    depth -= 1;
                    self.bump(2);
                }
                (Some(_), _) => self.bump(1),
                (None, _) => break, // unterminated: swallow to EOF, stay lossless
            }
        }
        Kind::BlockComment { doc }
    }

    /// Disambiguate the `b`/`r` prefixes: `b"…"`, `b'…'`, `r"…"`,
    /// `br#"…"#`, raw identifiers `r#ident`. Returns `None` when the
    /// char is just the start of an ordinary identifier.
    fn byte_or_raw_prefix(&mut self) -> Option<Kind> {
        // Never a prefix when glued to a preceding identifier character
        // (`for r in`, `var"` — the lexer only reaches here at a token
        // boundary, so this cannot happen; kept for clarity).
        let c = self.peek(0)?;
        if c == 'b' {
            match self.peek(1) {
                Some('\'') => {
                    self.bump(1);
                    return Some(self.tick(0));
                }
                Some('"') => return Some(self.string(2)),
                Some('r') => {}
                _ => return None,
            }
        }
        // At `r` now: either bare (`r…`) or after `b` (`br…`).
        let r_at = usize::from(c == 'b');
        if self.peek(r_at) != Some('r') {
            return None;
        }
        let mut hashes = 0usize;
        let mut k = r_at + 1;
        while self.peek(k) == Some('#') {
            hashes += 1;
            k += 1;
        }
        if self.peek(k) == Some('"') {
            return Some(self.raw_string(k + 1, hashes));
        }
        // `r#ident` raw identifier (only the bare-`r` form exists).
        if c == 'r' && hashes == 1 && self.peek(2).is_some_and(is_ident_start) {
            self.bump(2);
            while self.peek(0).is_some_and(is_ident_continue) {
                self.bump(1);
            }
            return Some(Kind::Ident);
        }
        None
    }

    /// Consume a `"…"` string whose opener (prefix + quote) is `open`
    /// characters long.
    fn string(&mut self, open: usize) -> Kind {
        self.bump(open);
        loop {
            match self.peek(0) {
                Some('\\') => self.bump(2),
                Some('"') => {
                    self.bump(1);
                    break;
                }
                Some(_) => self.bump(1),
                None => break, // unterminated
            }
        }
        Kind::Str
    }

    /// Consume a raw string whose opener is `open` chars (`r##"` → 4),
    /// closed by `"` followed by `hashes` hash marks.
    fn raw_string(&mut self, open: usize, hashes: usize) -> Kind {
        self.bump(open);
        loop {
            match self.peek(0) {
                Some('"') if (1..=hashes).all(|k| self.peek(k) == Some('#')) => {
                    self.bump(1 + hashes);
                    break;
                }
                Some(_) => self.bump(1),
                None => break,
            }
        }
        Kind::RawStr
    }

    /// At a tick (with `prefix` chars of `b` already pending): char
    /// literal or lifetime?
    fn tick(&mut self, prefix: usize) -> Kind {
        // `'\…'` is always a char literal; `'x'` needs the closing tick;
        // anything else (`'a`, `'static`, `'outer:`) is a lifetime.
        let char_lit = match self.peek(prefix + 1) {
            Some('\\') => true,
            Some(_) => self.peek(prefix + 2) == Some('\''),
            None => false,
        };
        if !char_lit {
            self.bump(prefix + 1);
            while self.peek(0).is_some_and(is_ident_continue) {
                self.bump(1);
            }
            return Kind::Lifetime;
        }
        self.bump(prefix + 1);
        loop {
            match self.peek(0) {
                Some('\\') => self.bump(2),
                Some('\'') => {
                    self.bump(1);
                    break;
                }
                Some(_) => self.bump(1),
                None => break,
            }
        }
        Kind::CharLit
    }

    fn number(&mut self) -> Kind {
        // Integer part (covers 0x/0b/0o digits, `_`, and type suffixes).
        self.consume_number_body();
        // Fraction: `.` followed by a digit (so `0..5` and `1.max(2)`
        // stay untouched).
        if self.peek(0) == Some('.') && self.peek(1).is_some_and(|c| c.is_ascii_digit()) {
            self.bump(1);
            self.consume_number_body();
        }
        Kind::Number
    }

    /// Digits, underscores, alphanumerics (hex digits, suffixes,
    /// exponent letters) plus a sign directly after `e`/`E`.
    fn consume_number_body(&mut self) {
        let mut prev = '\0';
        while let Some(c) = self.peek(0) {
            let take = c.is_ascii_alphanumeric()
                || c == '_'
                || ((c == '+' || c == '-') && (prev == 'e' || prev == 'E'));
            if !take {
                break;
            }
            prev = c;
            self.bump(1);
        }
    }
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reassemble(src: &str) -> String {
        lex(src).iter().map(|t| t.text.as_str()).collect()
    }

    fn kinds(src: &str) -> Vec<Kind> {
        lex(src)
            .into_iter()
            .filter(|t| t.kind != Kind::Whitespace)
            .map(|t| t.kind)
            .collect()
    }

    #[test]
    fn reassembly_is_lossless_on_tricky_inputs() {
        for src in [
            "fn main() { let x = 1; }\n",
            "let s = r#\"raw \"quoted\" text\"#;\n",
            "let b = br##\"double # hash\"##;\n",
            "/* outer /* inner */ still comment */ code()\n",
            "let c = 'x'; let lt: &'static str = \"\"; 'outer: loop {}\n",
            "let e = \"esc\\\"aped\\n\"; let byte = b'\\0';\n",
            "let r#match = 1; let n = 0x_FF_u32 + 1.5e-3 + 2.0f64;\n",
            "// line\n/// doc\n//// separator\n//! inner\n",
            "\"unterminated\nstring",
        ] {
            assert_eq!(reassemble(src), src, "lossless on {src:?}");
        }
    }

    #[test]
    fn raw_strings_lex_as_one_token() {
        let toks = lex("r#\"as u64 \"inner\"\"#");
        assert_eq!(toks.len(), 1);
        assert_eq!(toks[0].kind, Kind::RawStr);
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        assert_eq!(
            kinds("fn f<'a>(x: &'a str) -> char { 'x' }"),
            vec![
                Kind::Ident, // fn
                Kind::Ident, // f
                Kind::Punct, // <
                Kind::Lifetime,
                Kind::Punct, // >
                Kind::Punct, // (
                Kind::Ident, // x
                Kind::Punct, // :
                Kind::Punct, // &
                Kind::Lifetime,
                Kind::Ident, // str
                Kind::Punct, // )
                Kind::Punct, // -
                Kind::Punct, // >
                Kind::Ident, // char
                Kind::Punct, // {
                Kind::CharLit,
                Kind::Punct, // }
            ]
        );
    }

    #[test]
    fn nested_block_comments_close_at_matching_depth() {
        let toks = lex("/* a /* b */ c */ ident");
        assert_eq!(toks[0].kind, Kind::BlockComment { doc: false });
        assert!(toks[0].text.ends_with("c */"));
        assert!(toks.iter().any(|t| t.is_ident("ident")));
    }

    #[test]
    fn doc_comment_classification() {
        assert_eq!(kinds("/// doc"), vec![Kind::LineComment { doc: true }]);
        assert_eq!(kinds("//! doc"), vec![Kind::LineComment { doc: true }]);
        assert_eq!(kinds("//// sep"), vec![Kind::LineComment { doc: false }]);
        assert_eq!(kinds("// plain"), vec![Kind::LineComment { doc: false }]);
        assert_eq!(kinds("/** doc */"), vec![Kind::BlockComment { doc: true }]);
        assert_eq!(kinds("/* no */"), vec![Kind::BlockComment { doc: false }]);
    }

    #[test]
    fn byte_literals_and_raw_identifiers() {
        assert_eq!(kinds("b\"bytes\""), vec![Kind::Str]);
        assert_eq!(kinds("b'x'"), vec![Kind::CharLit]);
        assert_eq!(kinds("r#fn"), vec![Kind::Ident]);
        // A bare `b` or `r` identifier must not be eaten as a prefix.
        assert_eq!(
            kinds("for r in b {}"),
            vec![
                Kind::Ident,
                Kind::Ident,
                Kind::Ident,
                Kind::Ident,
                Kind::Punct,
                Kind::Punct,
            ]
        );
    }

    #[test]
    fn line_numbers_are_one_based_start_lines() {
        let toks = lex("a\nbb\n\ncc");
        let lines: Vec<(String, usize)> = toks
            .iter()
            .filter(|t| t.kind == Kind::Ident)
            .map(|t| (t.text.clone(), t.line))
            .collect();
        assert_eq!(
            lines,
            vec![("a".into(), 1), ("bb".into(), 2), ("cc".into(), 4)]
        );
    }

    #[test]
    fn numbers_with_exponents_and_ranges() {
        assert_eq!(kinds("1.5e-3"), vec![Kind::Number]);
        // `0..5` must split into number, punct, punct, number.
        assert_eq!(
            kinds("0..5"),
            vec![Kind::Number, Kind::Punct, Kind::Punct, Kind::Number]
        );
        // `1.max(2)` keeps the method call intact.
        assert_eq!(
            kinds("1.max(2)"),
            vec![
                Kind::Number,
                Kind::Punct,
                Kind::Ident,
                Kind::Punct,
                Kind::Number,
                Kind::Punct
            ]
        );
    }
}
