//! Token trees: the lexer's flat stream grouped by `()`/`[]`/`{}`.
//!
//! Whitespace and plain comments are dropped here — the tree is the
//! *code* view that `items.rs` and the rules walk. Doc comments stay as
//! leaves: to rustc they are `#[doc = …]` attributes, and `items.rs`
//! steps over them with the rest of an item's header. Flattened bodies
//! leave them out again.
//!
//! Angle brackets are **not** delimiters (matching rustc's own token
//! trees): `Vec<f64>` appears as `Vec` `<` `f64` `>` leaves, and
//! consumers track angle depth themselves where it matters.

use crate::lex::{Kind, Token};

/// One node of the token tree.
#[derive(Debug)]
pub enum Tree {
    /// A code token or a doc comment.
    Leaf(Token),
    /// A delimited group; `open` is `(`, `[` or `{`. `line` and
    /// `end` are the 1-based lines of its open and close delimiters.
    Group {
        open: char,
        line: usize,
        end: usize,
        children: Vec<Tree>,
    },
}

impl Tree {
    /// The 1-based source line this node starts on.
    pub fn line(&self) -> usize {
        match self {
            Tree::Leaf(t) => t.line,
            Tree::Group { line, .. } => *line,
        }
    }

    /// The 1-based source line this node ends on.
    pub fn end(&self) -> usize {
        match self {
            Tree::Leaf(t) => t.line,
            Tree::Group { end, .. } => *end,
        }
    }
}

/// Build token trees from a lexed stream, skipping whitespace and
/// plain comments.
///
/// Unbalanced close delimiters are kept as plain leaves rather than
/// failing: the linter must degrade gracefully on any input that
/// compiles (and even on some that don't).
pub fn build(tokens: &[Token]) -> Vec<Tree> {
    let mut iter = tokens
        .iter()
        .filter(|t| !t.kind.is_trivia() || t.kind.is_doc())
        .cloned()
        .peekable();
    parse_group(&mut iter, None).0
}

/// Children up to the `closing` delimiter, and the line it sits on
/// (the last child's line when the input ends first).
fn parse_group(
    iter: &mut std::iter::Peekable<impl Iterator<Item = Token>>,
    closing: Option<char>,
) -> (Vec<Tree>, Option<usize>) {
    let mut out = Vec::new();
    while let Some(tok) = iter.peek() {
        if tok.kind == Kind::Punct {
            let c = tok.text.chars().next().unwrap_or('\0');
            if Some(c) == closing {
                let end = tok.line;
                iter.next();
                return (out, Some(end));
            }
            if let Some(close) = matching_close(c) {
                let line = tok.line;
                iter.next();
                let (children, end) = parse_group(iter, Some(close));
                let end = end.unwrap_or_else(|| children.last().map_or(line, Tree::end));
                out.push(Tree::Group {
                    open: c,
                    line,
                    end,
                    children,
                });
                continue;
            }
        }
        out.push(Tree::Leaf(iter.next().expect("peeked")));
    }
    (out, None)
}

fn matching_close(open: char) -> Option<char> {
    match open {
        '(' => Some(')'),
        '[' => Some(']'),
        '{' => Some('}'),
        _ => None,
    }
}

/// Flatten a subtree back into a linear code-token sequence (doc
/// comments dropped), materialising group delimiters as `Punct` tokens.
/// This is the form the fn-body scanners in `rules.rs` pattern-match on.
pub fn flatten(trees: &[Tree], out: &mut Vec<Token>) {
    for tree in trees {
        match tree {
            Tree::Leaf(t) if t.kind.is_doc() => {}
            Tree::Leaf(t) => out.push(t.clone()),
            Tree::Group {
                open,
                line,
                end,
                children,
            } => {
                out.push(punct(*open, *line));
                flatten(children, out);
                out.push(punct(matching_close(*open).unwrap_or(*open), *end));
            }
        }
    }
}

fn punct(c: char, line: usize) -> Token {
    Token {
        kind: Kind::Punct,
        text: c.to_string(),
        line,
    }
}

/// Render a subtree as compact source-ish text (for type annotations,
/// attribute payloads and diagnostics). Tokens are space-separated
/// except around `::`, `<`, `>`, `&` and `#` to keep paths readable.
pub fn to_text(trees: &[Tree]) -> String {
    let mut flat = Vec::new();
    flatten(trees, &mut flat);
    join_tokens(&flat)
}

/// Space-join a token slice, compacting path and generic punctuation.
pub fn join_tokens(tokens: &[Token]) -> String {
    let mut out = String::new();
    for t in tokens {
        let glue_left = matches!(t.text.as_str(), ":" | "<" | ">" | ")" | "]" | "}" | ",");
        if !out.is_empty() && !glue_left && !out.ends_with(['<', '&', '#', ':', '(', '[', '{']) {
            out.push(' ');
        }
        out.push_str(&t.text);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lex;

    fn tree_of(src: &str) -> Vec<Tree> {
        build(&lex::lex(src))
    }

    #[test]
    fn groups_nest_and_trivia_is_dropped() {
        let t = tree_of("fn f(a: u32) { g([1, 2]); } // trailing\n");
        // fn, f, (…), {…}
        assert_eq!(t.len(), 4);
        let Tree::Group { open, children, .. } = &t[3] else {
            panic!("expected body group");
        };
        assert_eq!(*open, '{');
        // g, (…), ;
        assert_eq!(children.len(), 3);
    }

    #[test]
    fn unbalanced_close_degrades_to_leaf() {
        let t = tree_of("a ) b");
        assert_eq!(t.len(), 3);
        assert!(matches!(&t[1], Tree::Leaf(tok) if tok.text == ")"));
    }

    #[test]
    fn flatten_round_trips_delimiters() {
        let trees = tree_of("f(x[0])");
        let mut flat = Vec::new();
        flatten(&trees, &mut flat);
        let texts: Vec<&str> = flat.iter().map(|t| t.text.as_str()).collect();
        assert_eq!(texts, vec!["f", "(", "x", "[", "0", "]", ")"]);
    }

    #[test]
    fn groups_record_their_close_line_and_keep_doc_comments() {
        let t = tree_of("/// # Panics\nfn f() {\n    g();\n}\n");
        assert!(matches!(&t[0], Tree::Leaf(tok) if tok.kind.is_doc()));
        assert_eq!((t[4].line(), t[4].end()), (2, 4));
        let mut flat = Vec::new();
        flatten(&t, &mut flat);
        assert_eq!(flat.first().map(|f| f.text.as_str()), Some("fn"));
        assert_eq!(flat.last().map(|f| f.line), Some(4));
    }

    #[test]
    fn to_text_keeps_paths_compact() {
        let trees = tree_of("std::collections::HashMap<Profile, NodeId>");
        assert_eq!(
            to_text(&trees),
            "std::collections::HashMap<Profile, NodeId>"
        );
    }
}
