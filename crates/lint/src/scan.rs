//! One source file as the linter reads it: the lossless token stream
//! every rule works on, plus the raw lines findings quote.

use crate::lex::{self, Token};

/// A lexed source file.
#[derive(Debug)]
pub struct SourceFile {
    /// Path relative to the workspace root, with forward slashes.
    pub rel: String,
    /// Crate directory name under `crates/` (e.g. `core`, `sim`).
    pub krate: String,
    /// The lossless token stream; token trees and items are built from it.
    pub tokens: Vec<Token>,
    /// Raw source lines, 0-indexed (line numbers in findings are 1-based).
    pub lines: Vec<String>,
}

impl SourceFile {
    /// Lex `text` and keep its raw lines for excerpts.
    pub fn scan(rel: String, krate: String, text: &str) -> Self {
        SourceFile {
            rel,
            krate,
            tokens: lex::lex(text),
            lines: text.split('\n').map(str::to_string).collect(),
        }
    }

    /// The trimmed raw text of 1-based `line` (empty when out of range).
    pub fn excerpt(&self, line: usize) -> String {
        self.lines
            .get(line.saturating_sub(1))
            .map_or_else(String::new, |l| l.trim().to_string())
    }
}
