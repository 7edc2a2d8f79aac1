//! Item extraction: `fn`, `struct`, `enum`, `impl` and `mod` structure
//! recovered from token trees.
//!
//! This is a *linter's* view, not a compiler's: name resolution is
//! same-crate and text-based, generics are skipped rather than
//! understood, and anything unrecognised is stepped over. The output
//! feeds the call graph (`callgraph.rs`) and the rules (`rules.rs`),
//! which are written to tolerate over-approximation: an extra edge or
//! an unknown type makes a rule quieter or an allowlist entry longer,
//! never a wrong program.
//!
//! The same attribute walk is the one test-region detector: items
//! gated by `#[cfg(test)]` (or carrying `#[test]`) mark their fns
//! `in_test`, and their lines are cut from each file's
//! [`Items::code`] view.

use crate::lex::{Kind, Token};
use crate::scan::SourceFile;
use crate::tokens::{self, Tree};
use std::collections::BTreeMap;
use std::ops::RangeInclusive;

/// One extracted function (free fn, inherent/trait method, or trait
/// default method).
#[derive(Debug)]
pub struct FnItem {
    /// Crate directory name (`core`, `sim`, …).
    pub krate: String,
    /// Workspace-relative file path.
    pub rel: String,
    /// Bare function name.
    pub name: String,
    /// `SelfType::name` inside an `impl`/`trait` block, else `name`.
    pub qual: String,
    /// 1-based line of the `fn` keyword (the signature line).
    pub line: usize,
    /// Any `pub`, restricted forms (`pub(crate)`, …) included.
    pub is_pub: bool,
    /// Exactly `pub`: part of the crate's public API.
    pub bare_pub: bool,
    /// Inside an `impl Trait for Type` block: callable through the trait
    /// wherever the type is, though it carries no `pub`.
    pub trait_impl: bool,
    /// Under `#[cfg(test)]` or carrying `#[test]`.
    pub in_test: bool,
    /// Flattened body tokens (group delimiters materialised).
    pub body: Vec<Token>,
    /// Known value types in scope: parameters and annotated `let`
    /// bindings, by name. Unannotated bindings are absent (unknown).
    pub types: BTreeMap<String, String>,
    /// The surrounding `impl`/`trait` self type, if any.
    pub self_type: Option<String>,
}

/// One extracted nominal type (struct or enum).
#[derive(Debug)]
pub struct TypeItem {
    pub rel: String,
    /// 1-based line of the `struct`/`enum` keyword.
    pub line: usize,
    pub name: String,
    pub is_pub: bool,
    /// Carries `#[must_use]` (directly, any payload).
    pub must_use: bool,
    /// Named fields and their type text (structs only).
    pub fields: BTreeMap<String, String>,
}

/// Everything extracted from a set of source files.
#[derive(Debug, Default)]
pub struct Items {
    pub fns: Vec<FnItem>,
    pub types: Vec<TypeItem>,
    /// One entry per input file, in order: its code tokens (no
    /// whitespace or comments) outside test-gated items.
    pub code: Vec<Vec<Token>>,
}

impl Items {
    /// Field type of `type_name.field`, if both are known.
    pub fn field_type(&self, type_name: &str, field: &str) -> Option<&str> {
        self.types
            .iter()
            .find(|t| t.name == type_name)
            .and_then(|t| t.fields.get(field))
            .map(String::as_str)
    }
}

/// Extract items from `files` (already scanned) into one table.
pub fn extract(files: &[SourceFile]) -> Items {
    let mut items = Items::default();
    for file in files {
        let ctx = Ctx {
            krate: &file.krate,
            rel: &file.rel,
            self_type: None,
            trait_impl: false,
            in_test: false,
        };
        let mut tests = Vec::new();
        walk(&tokens::build(&file.tokens), &ctx, &mut items, &mut tests);
        let code = file
            .tokens
            .iter()
            .filter(|t| !t.kind.is_trivia() && !tests.iter().any(|r| r.contains(&t.line)))
            .cloned()
            .collect();
        items.code.push(code);
    }
    items
}

struct Ctx<'a> {
    krate: &'a str,
    rel: &'a str,
    /// The surrounding `impl`/`trait` self type.
    self_type: Option<&'a str>,
    /// Inside an `impl Trait for Type` block.
    trait_impl: bool,
    /// Inside a test-gated item.
    in_test: bool,
}

impl<'a> Ctx<'a> {
    /// The context inside the body of the item `head` introduces.
    fn inside<'b>(&self, self_type: Option<&'b str>, trait_impl: bool, head: &Header) -> Ctx<'b>
    where
        'a: 'b,
    {
        Ctx {
            krate: self.krate,
            rel: self.rel,
            self_type,
            trait_impl,
            in_test: head.in_test,
        }
    }
}

/// What precedes an item's keyword: doc comments, attributes and
/// visibility.
struct Header {
    in_test: bool,
    is_pub: bool,
    bare_pub: bool,
    must_use: bool,
}

/// Walk one brace level: a file, `mod` body, or `impl`/`trait` body.
/// Each outermost test-gated item's line span goes to `tests`.
fn walk(trees: &[Tree], ctx: &Ctx, items: &mut Items, tests: &mut Vec<RangeInclusive<usize>>) {
    let mut i = 0usize;
    while i < trees.len() {
        let start = i;
        let Some(head) = header(trees, &mut i, ctx.in_test) else {
            i += 1; // a `#` opening no attribute: step over it
            continue;
        };
        i = parse_item(trees, i, ctx, &head, items, tests);
        if head.in_test && !ctx.in_test {
            let end = trees[..i.min(trees.len())].last().map_or(0, Tree::end);
            tests.push(trees[start].line()..=end);
        }
    }
}

/// Parse the doc comments, attributes (`#[…]`, `#![…]`) and visibility
/// at `trees[*i..]`, leaving `*i` just past them. `None` when a `#`
/// opens no attribute (`*i` is left on it).
fn header(trees: &[Tree], i: &mut usize, in_test: bool) -> Option<Header> {
    let mut head = Header {
        in_test,
        is_pub: false,
        bare_pub: false,
        must_use: false,
    };
    loop {
        match trees.get(*i) {
            Some(Tree::Leaf(t)) if t.kind.is_doc() => *i += 1,
            Some(Tree::Leaf(t)) if t.is_punct('#') => {
                let j = *i + 1 + usize::from(is_punct(trees.get(*i + 1), '!'));
                let Some(Tree::Group {
                    open: '[',
                    children,
                    ..
                }) = trees.get(j)
                else {
                    return None;
                };
                // Spaces stripped so `cfg (test)` renderings match `cfg(test…)`.
                let attr = tokens::to_text(children).replace(' ', "");
                head.in_test |= attr.starts_with("cfg(test")
                    || attr.starts_with("cfg(all(test")
                    || attr == "test";
                head.must_use |= attr.starts_with("must_use");
                *i = j + 1;
            }
            _ => break,
        }
    }
    if is_ident(trees.get(*i), "pub") {
        *i += 1;
        head.is_pub = true;
        head.bare_pub = !matches!(trees.get(*i), Some(Tree::Group { open: '(', .. }));
        if !head.bare_pub {
            *i += 1;
        }
    }
    Some(head)
}

/// Parse the item at `trees[i]` (just past its header); returns the
/// index just past it. Unrecognised constructs advance by one node
/// (graceful degradation).
fn parse_item(
    trees: &[Tree],
    mut i: usize,
    ctx: &Ctx,
    head: &Header,
    items: &mut Items,
    tests: &mut Vec<RangeInclusive<usize>>,
) -> usize {
    // Modifiers before `fn` (const fn / unsafe fn / async fn / extern fn).
    loop {
        match leaf_text(trees.get(i)) {
            Some("unsafe" | "async" | "default") => i += 1,
            Some("const")
                if matches!(
                    leaf_text(trees.get(i + 1)),
                    Some("fn" | "unsafe" | "async" | "extern")
                ) =>
            {
                i += 1;
            }
            Some("extern") => {
                i += 1;
                if matches!(trees.get(i), Some(Tree::Leaf(t)) if t.kind == Kind::Str) {
                    i += 1;
                }
            }
            _ => break,
        }
    }

    match leaf_text(trees.get(i)) {
        Some("fn") => parse_fn(trees, i, ctx, head, items),
        Some("mod") => {
            // `mod name { … }` or `mod name;`.
            let mut j = i + 2;
            if let Some(Tree::Group {
                open: '{',
                children,
                ..
            }) = trees.get(j)
            {
                walk(children, &ctx.inside(None, false, head), items, tests);
                j += 1;
            } else if is_punct(trees.get(j), ';') {
                j += 1;
            }
            j
        }
        Some("impl") => {
            let (ty, of_trait, body_at) = impl_self_type(trees, i + 1);
            if let Some(Tree::Group {
                open: '{',
                children,
                ..
            }) = trees.get(body_at)
            {
                let inner = ctx.inside(ty.as_deref(), of_trait, head);
                walk(children, &inner, items, tests);
                body_at + 1
            } else {
                body_at
            }
        }
        Some("trait") => {
            let name = leaf_text(trees.get(i + 1)).unwrap_or("");
            let mut j = i + 2;
            while j < trees.len() && !matches!(trees.get(j), Some(Tree::Group { open: '{', .. })) {
                j += 1;
            }
            if let Some(Tree::Group { children, .. }) = trees.get(j) {
                walk(children, &ctx.inside(Some(name), false, head), items, tests);
            }
            j + 1
        }
        Some(kw @ ("struct" | "enum" | "union")) => parse_type(trees, i, ctx, kw, head, items),
        Some("macro_rules") => {
            // `macro_rules! name { … }` — never descend into macro soup.
            let mut j = i + 1;
            while j < trees.len() && !matches!(trees.get(j), Some(Tree::Group { open: '{', .. })) {
                j += 1;
            }
            j + 1
        }
        Some("use" | "type" | "static" | "const") => {
            // Skip to the terminating semicolon at this level.
            let mut j = i;
            while j < trees.len() && !is_punct(trees.get(j), ';') {
                j += 1;
            }
            j + 1
        }
        _ => i + 1,
    }
}

/// Parse a `fn` item at `trees[i]` (the `fn` keyword).
fn parse_fn(trees: &[Tree], i: usize, ctx: &Ctx, head: &Header, items: &mut Items) -> usize {
    let Some(name) = leaf_text(trees.get(i + 1)).map(str::to_string) else {
        return i + 1;
    };
    let mut j = i + 2;
    // Generic parameter list `<…>` (leaves; `>>` lexes as two puncts).
    if is_punct(trees.get(j), '<') {
        let mut depth = 0i32;
        while j < trees.len() {
            if is_punct(trees.get(j), '<') {
                depth += 1;
            } else if is_punct(trees.get(j), '>') {
                depth -= 1;
                if depth == 0 {
                    j += 1;
                    break;
                }
            }
            j += 1;
        }
    }
    let mut types = BTreeMap::new();
    if let Some(Tree::Group {
        open: '(',
        children,
        ..
    }) = trees.get(j)
    {
        param_types(children, ctx.self_type, &mut types);
        j += 1;
    }
    // Return type / where clause: anything up to the body `{…}` or `;`.
    let mut body = Vec::new();
    while let Some(node) = trees.get(j) {
        match node {
            Tree::Group {
                open: '{',
                children,
                ..
            } => {
                tokens::flatten(children, &mut body);
                j += 1;
                break;
            }
            Tree::Leaf(t) if t.text == ";" => {
                j += 1;
                break;
            }
            _ => j += 1,
        }
    }
    let_annotations(&body, &mut types);
    let qual = match ctx.self_type {
        Some(ty) => format!("{ty}::{name}"),
        None => name.clone(),
    };
    items.fns.push(FnItem {
        krate: ctx.krate.to_string(),
        rel: ctx.rel.to_string(),
        name,
        qual,
        line: trees[i].line(),
        is_pub: head.is_pub,
        bare_pub: head.bare_pub,
        trait_impl: ctx.trait_impl,
        in_test: head.in_test,
        body,
        types,
        self_type: ctx.self_type.map(str::to_string),
    });
    j
}

/// Parse `struct`/`enum`/`union` at `trees[i]` (the keyword).
fn parse_type(
    trees: &[Tree],
    i: usize,
    ctx: &Ctx,
    kw: &str,
    head: &Header,
    items: &mut Items,
) -> usize {
    let line = trees[i].line();
    let Some(name) = leaf_text(trees.get(i + 1)).map(str::to_string) else {
        return i + 1;
    };
    let mut fields = BTreeMap::new();
    // Scan to the body or terminating `;`, skipping generics/where.
    let mut j = i + 2;
    while let Some(node) = trees.get(j) {
        match node {
            Tree::Group {
                open: '{',
                children,
                ..
            } => {
                if kw == "struct" {
                    struct_fields(children, &mut fields);
                }
                j += 1;
                break;
            }
            Tree::Group { open: '(', .. } => {
                // Tuple struct: skip the field list, then the `;`.
                j += 1;
            }
            Tree::Leaf(t) if t.text == ";" => {
                j += 1;
                break;
            }
            _ => j += 1,
        }
    }
    items.types.push(TypeItem {
        rel: ctx.rel.to_string(),
        line,
        name,
        is_pub: head.is_pub,
        must_use: head.must_use,
        fields,
    });
    j
}

/// Self type of an `impl` header starting just past the `impl` keyword:
/// `impl Foo`, `impl<T> Foo<T>`, `impl Trait for Foo`. Returns the type
/// name, whether the block implements a trait, and the index of the
/// body group.
fn impl_self_type(trees: &[Tree], mut i: usize) -> (Option<String>, bool, usize) {
    let mut angle = 0i32;
    let mut after_for: Option<String> = None;
    let mut first: Option<String> = None;
    while let Some(node) = trees.get(i) {
        match node {
            Tree::Group { open: '{', .. } => break,
            Tree::Leaf(t) if t.text == "<" => angle += 1,
            Tree::Leaf(t) if t.text == ">" => angle -= 1,
            Tree::Leaf(t) if angle == 0 && t.text == "for" => {
                // The self type follows; reset so its first ident wins.
                after_for = None;
                i += 1;
                while let Some(n2) = trees.get(i) {
                    match n2 {
                        Tree::Group { open: '{', .. } => break,
                        Tree::Leaf(t2) if t2.kind == Kind::Ident && after_for.is_none() => {
                            after_for = Some(t2.text.clone());
                            i += 1;
                        }
                        _ => i += 1,
                    }
                }
                break;
            }
            Tree::Leaf(t) if angle == 0 && t.kind == Kind::Ident && first.is_none() => {
                first = Some(t.text.clone());
            }
            _ => {}
        }
        i += 1;
    }
    let of_trait = after_for.is_some();
    (after_for.or(first), of_trait, i)
}

/// Record `name → type text` for each parameter in a fn's `(…)` group.
fn param_types(children: &[Tree], self_type: Option<&str>, out: &mut BTreeMap<String, String>) {
    for chunk in split_commas(children) {
        // `self`, `&self`, `&mut self`, `mut self`.
        if chunk
            .iter()
            .any(|n| matches!(n, Tree::Leaf(t) if t.text == "self"))
            && !chunk
                .iter()
                .any(|n| matches!(n, Tree::Leaf(t) if t.text == ":"))
        {
            if let Some(ty) = self_type {
                out.insert("self".to_string(), ty.to_string());
            }
            continue;
        }
        // `name: Type` (with optional `mut` / attrs before the name).
        let Some(colon) = chunk
            .iter()
            .position(|n| matches!(n, Tree::Leaf(t) if t.text == ":"))
        else {
            continue;
        };
        let name = chunk[..colon].iter().rev().find_map(|n| match n {
            Tree::Leaf(t) if t.kind == Kind::Ident && t.text != "mut" => Some(t.text.clone()),
            _ => None,
        });
        if let Some(name) = name {
            out.insert(name, type_text(&chunk[colon + 1..]));
        }
    }
}

/// Record `name → type text` for named struct fields.
fn struct_fields(children: &[Tree], out: &mut BTreeMap<String, String>) {
    for chunk in split_commas(children) {
        // Skip per-field doc comments, attributes and visibility.
        let mut start = 0usize;
        while start < chunk.len() {
            match &chunk[start] {
                Tree::Leaf(t) if t.kind.is_doc() => start += 1,
                Tree::Leaf(t) if t.text == "#" => start += 2,
                Tree::Leaf(t) if t.text == "pub" => {
                    start += 1;
                    if matches!(chunk.get(start), Some(Tree::Group { open: '(', .. })) {
                        start += 1;
                    }
                }
                _ => break,
            }
        }
        let rest = &chunk[start.min(chunk.len())..];
        let Some(colon) = rest
            .iter()
            .position(|n| matches!(n, Tree::Leaf(t) if t.text == ":"))
        else {
            continue;
        };
        if let Some(Tree::Leaf(t)) = rest.first() {
            if t.kind == Kind::Ident {
                out.insert(t.text.clone(), type_text(&rest[colon + 1..]));
            }
        }
    }
}

/// Harvest `let [mut] name: Type = …;` annotations from a flattened
/// body. Unannotated lets are skipped — types stay unknown.
fn let_annotations(body: &[Token], out: &mut BTreeMap<String, String>) {
    let mut i = 0usize;
    while i < body.len() {
        if !body[i].is_ident("let") {
            i += 1;
            continue;
        }
        let mut j = i + 1;
        if body.get(j).is_some_and(|t| t.is_ident("mut")) {
            j += 1;
        }
        let Some(name) = body.get(j).filter(|t| t.kind == Kind::Ident) else {
            i = j + 1;
            continue;
        };
        if body.get(j + 1).is_some_and(|t| t.is_punct(':')) {
            // Collect type tokens until the top-level `=` or `;`.
            let mut k = j + 2;
            let mut angle = 0i32;
            let mut group = 0i32;
            let mut ty = Vec::new();
            while let Some(t) = body.get(k) {
                match t.text.as_str() {
                    "<" => angle += 1,
                    ">" => angle -= 1,
                    "(" | "[" | "{" => group += 1,
                    ")" | "]" | "}" => group -= 1,
                    "=" | ";" if angle <= 0 && group <= 0 => break,
                    _ => {}
                }
                ty.push(t.clone());
                k += 1;
            }
            out.insert(name.text.clone(), tokens::join_tokens(&ty));
            i = k;
        } else {
            i = j + 1;
        }
    }
}

/// Split a group's children on top-level commas (angle-depth aware).
fn split_commas(children: &[Tree]) -> Vec<&[Tree]> {
    let mut out = Vec::new();
    let mut angle = 0i32;
    let mut start = 0usize;
    for (i, node) in children.iter().enumerate() {
        if let Tree::Leaf(t) = node {
            match t.text.as_str() {
                "<" => angle += 1,
                ">" => angle -= 1,
                "," if angle <= 0 => {
                    out.push(&children[start..i]);
                    start = i + 1;
                }
                _ => {}
            }
        }
    }
    if start < children.len() {
        out.push(&children[start..]);
    }
    out
}

fn type_text(trees: &[Tree]) -> String {
    tokens::to_text(trees)
}

fn leaf_text(node: Option<&Tree>) -> Option<&str> {
    match node {
        Some(Tree::Leaf(t)) if t.kind == Kind::Ident => Some(t.text.as_str()),
        _ => None,
    }
}

fn is_punct(node: Option<&Tree>, c: char) -> bool {
    matches!(node, Some(Tree::Leaf(t)) if t.is_punct(c))
}

fn is_ident(node: Option<&Tree>, s: &str) -> bool {
    matches!(node, Some(Tree::Leaf(t)) if t.is_ident(s))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::SourceFile;

    fn extract_src(src: &str) -> Items {
        let file = SourceFile::scan("crates/x/src/lib.rs".into(), "x".into(), src);
        extract(&[file])
    }

    #[test]
    fn free_fn_and_method_qualification() {
        let items = extract_src(
            "pub fn top(n: usize) {}\n\
             struct Foo {\n    /// Lookup table.\n    map: HashMap<u32, u32>,\n}\n\
             impl Foo {\n    pub fn get(&self, k: u32) -> u32 { self.map[&k] }\n}\n\
             impl Display for Foo {\n    fn fmt(&self) {}\n}\n",
        );
        let quals: Vec<&str> = items.fns.iter().map(|f| f.qual.as_str()).collect();
        assert_eq!(quals, vec!["top", "Foo::get", "Foo::fmt"]);
        assert!(items.fns[0].is_pub);
        let trait_impl: Vec<bool> = items.fns.iter().map(|f| f.trait_impl).collect();
        assert_eq!(trait_impl, [false, false, true]);
        assert_eq!(
            items.fns[0].types.get("n").map(String::as_str),
            Some("usize")
        );
        assert_eq!(
            items.fns[1].types.get("self").map(String::as_str),
            Some("Foo")
        );
        assert_eq!(items.field_type("Foo", "map"), Some("HashMap<u32, u32>"));
    }

    #[test]
    fn cfg_test_and_test_attr_mark_fns() {
        let items = extract_src(
            "fn real() {}\n\
             #[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {}\n    fn helper() {}\n}\n\
             fn after() {}\n",
        );
        let by_name = |n: &str| items.fns.iter().find(|f| f.name == n).unwrap();
        assert!(!by_name("real").in_test && !by_name("after").in_test);
        assert!(by_name("t").in_test);
        assert!(by_name("helper").in_test);
        // Test items' lines are cut from the code view.
        let lines: Vec<usize> = items.code[0].iter().map(|t| t.line).collect();
        assert!(lines.contains(&1) && lines.contains(&8));
        assert!((2..=7).all(|n| !lines.contains(&n)), "{lines:?}");
    }

    #[test]
    fn let_annotations_are_harvested() {
        let items = extract_src(
            "fn f() {\n    let xs: Vec<f64> = Vec::new();\n    let n = 3;\n    let m: std::collections::HashMap<u32, u32> = Default::default();\n}\n",
        );
        let f = &items.fns[0];
        assert_eq!(f.types.get("xs").map(String::as_str), Some("Vec<f64>"));
        assert!(!f.types.contains_key("n"));
        assert!(f.types.get("m").is_some_and(|t| t.contains("HashMap")));
    }

    #[test]
    fn type_items_record_must_use() {
        let items = extract_src(
            "#[must_use]\npub struct A;\npub struct B { x: u32 }\npub enum E { One, Two }\n",
        );
        let by_name = |n: &str| items.types.iter().find(|t| t.name == n).unwrap();
        assert!(by_name("A").must_use);
        assert!(!by_name("B").must_use);
        assert!(!by_name("E").must_use);
        assert!(by_name("E").is_pub);
    }

    #[test]
    fn generic_fn_params_are_found_past_generics() {
        let items = extract_src("fn g<T: Clone, U>(map: HashSet<T>, n: usize) -> usize { n }\n");
        let f = &items.fns[0];
        assert!(f.types.get("map").is_some_and(|t| t.contains("HashSet")));
        assert_eq!(f.types.get("n").map(String::as_str), Some("usize"));
    }
}
