//! Same-crate, name-based call graph over the extracted items.
//!
//! Resolution is deliberately over-approximate: a call site `foo(…)`
//! links to *every* same-crate `fn foo` unless a module/impl path
//! disambiguates it (`Type::foo(…)` prefers `Type::foo`; among bare
//! candidates, same-file ones win). Reachability-scoped rules (D001,
//! D003, P001) treat extra edges as extra scrutiny, so this errs on
//! the side of flagging — never on the side of silence. Cross-crate
//! calls are not resolved; each crate's public surface is rooted
//! separately instead.

use crate::items::Items;
use crate::lex::{Kind, Token};
use std::collections::BTreeMap;

/// Adjacency over `Items::fns` indices.
#[derive(Debug)]
pub struct CallGraph {
    edges: Vec<Vec<usize>>,
}

/// Keywords that look like calls when followed by `(`.
const NON_CALLS: &[&str] = &[
    "if", "while", "for", "match", "loop", "return", "in", "as", "move", "else", "let", "fn",
    "Some", "Ok", "Err", "None",
];

impl CallGraph {
    /// Build the graph from every fn body in `items`.
    pub fn build(items: &Items) -> CallGraph {
        // Same-crate indices: bare name → fn ids, qualified name → fn ids.
        let mut by_name: BTreeMap<(&str, &str), Vec<usize>> = BTreeMap::new();
        let mut by_qual: BTreeMap<(&str, &str), Vec<usize>> = BTreeMap::new();
        for (id, f) in items.fns.iter().enumerate() {
            by_name.entry((&f.krate, &f.name)).or_default().push(id);
            by_qual.entry((&f.krate, &f.qual)).or_default().push(id);
        }

        let mut edges = vec![Vec::new(); items.fns.len()];
        for (id, f) in items.fns.iter().enumerate() {
            let mut callees = Vec::new();
            for site in call_sites(&f.body) {
                // `Type::name(…)`: exact qualified match wins outright.
                if let Some(q) = &site.qual {
                    if let Some(ids) = by_qual.get(&(f.krate.as_str(), q.as_str())) {
                        callees.extend_from_slice(ids);
                        continue;
                    }
                }
                let Some(cands) = by_name.get(&(f.krate.as_str(), site.name.as_str())) else {
                    continue;
                };
                // Module-path disambiguation: same-file candidates win.
                let same_file: Vec<usize> = cands
                    .iter()
                    .copied()
                    .filter(|&c| items.fns[c].rel == f.rel)
                    .collect();
                if same_file.is_empty() {
                    callees.extend_from_slice(cands);
                } else {
                    callees.extend_from_slice(&same_file);
                }
            }
            callees.sort_unstable();
            callees.dedup();
            edges[id] = callees;
        }
        CallGraph { edges }
    }

    /// Direct callees of `id`.
    #[cfg(test)]
    pub fn callees(&self, id: usize) -> &[usize] {
        &self.edges[id]
    }

    /// BFS from `roots`; returns, per fn, the id of its BFS parent
    /// (`Some(parent)` when reached through a call, `None` when
    /// unreached or itself a root). Query membership with
    /// [`Reach::contains`] and render witnesses with [`Reach::chain`].
    pub fn reach(&self, roots: &[usize]) -> Reach {
        let n = self.edges.len();
        let mut reached = vec![false; n];
        let mut parent = vec![usize::MAX; n];
        let mut queue = std::collections::VecDeque::new();
        for &r in roots {
            if !reached[r] {
                reached[r] = true;
                queue.push_back(r);
            }
        }
        while let Some(f) = queue.pop_front() {
            for &c in &self.edges[f] {
                if !reached[c] {
                    reached[c] = true;
                    parent[c] = f;
                    queue.push_back(c);
                }
            }
        }
        Reach { reached, parent }
    }
}

/// Result of a reachability sweep.
#[derive(Debug)]
pub struct Reach {
    reached: Vec<bool>,
    parent: Vec<usize>,
}

impl Reach {
    pub fn contains(&self, id: usize) -> bool {
        self.reached[id]
    }

    /// Render `root → … → target` using each fn's qualified name.
    pub fn chain(&self, items: &Items, target: usize) -> String {
        let mut path = vec![target];
        let mut cur = target;
        while self.parent[cur] != usize::MAX {
            cur = self.parent[cur];
            path.push(cur);
            if path.len() > 64 {
                break; // cycles cannot happen (BFS tree), but stay safe
            }
        }
        path.reverse();
        path.iter()
            .map(|&id| items.fns[id].qual.as_str())
            .collect::<Vec<_>>()
            .join(" → ")
    }
}

/// One syntactic call site in a flattened fn body.
#[derive(Debug)]
pub struct CallSite {
    /// Bare callee name.
    pub name: String,
    /// `Type::name` when path-qualified.
    pub qual: Option<String>,
}

/// Extract call sites: `name(…)`, `path::name(…)`, `.name(…)`.
/// Macros (`name!(…)`) are excluded — panic macros are handled as
/// constructs, not calls.
pub fn call_sites(body: &[Token]) -> Vec<CallSite> {
    let mut out = Vec::new();
    for i in 0..body.len() {
        let t = &body[i];
        if t.kind != Kind::Ident || NON_CALLS.contains(&t.text.as_str()) {
            continue;
        }
        // A call is `ident(` — macros (`ident!(`) fail this because the
        // `!` sits between the name and the parenthesis.
        if !body.get(i + 1).is_some_and(|n| n.is_punct('(')) {
            continue;
        }
        let qual = if i >= 3
            && body[i - 1].is_punct(':')
            && body[i - 2].is_punct(':')
            && body[i - 3].kind == Kind::Ident
        {
            Some(format!("{}::{}", body[i - 3].text, t.text))
        } else {
            None
        };
        out.push(CallSite {
            name: t.text.clone(),
            qual,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::items;
    use crate::scan::SourceFile;

    fn graph_of(src: &str) -> (Items, CallGraph) {
        let file = SourceFile::scan("crates/x/src/lib.rs".into(), "x".into(), src);
        let items = items::extract(&[file]);
        let graph = CallGraph::build(&items);
        (items, graph)
    }

    fn id_of(items: &Items, qual: &str) -> usize {
        items.fns.iter().position(|f| f.qual == qual).unwrap()
    }

    #[test]
    fn direct_and_method_calls_resolve() {
        let (items, graph) = graph_of(
            "pub fn entry() { helper(); Foo::make(); }\n\
             fn helper() {}\n\
             struct Foo;\n\
             impl Foo {\n    fn make() -> Foo { Foo }\n}\n",
        );
        let entry = id_of(&items, "entry");
        let callees: Vec<&str> = graph
            .callees(entry)
            .iter()
            .map(|&c| items.fns[c].qual.as_str())
            .collect();
        assert_eq!(callees, vec!["helper", "Foo::make"]);
    }

    #[test]
    fn macros_are_not_calls() {
        let (items, graph) = graph_of("pub fn f() { panic!(\"boom\"); }\nfn panic_helper() {}\n");
        assert!(graph.callees(id_of(&items, "f")).is_empty());
    }

    #[test]
    fn qualified_match_beats_bare_name() {
        let (items, graph) = graph_of(
            "pub fn f() { A::run(); }\n\
             struct A;\nstruct B;\n\
             impl A {\n    fn run() {}\n}\n\
             impl B {\n    fn run() {}\n}\n",
        );
        let callees = graph.callees(id_of(&items, "f"));
        assert_eq!(callees.len(), 1);
        assert_eq!(items.fns[callees[0]].qual, "A::run");
    }

    #[test]
    fn reachability_and_chain() {
        let (items, graph) =
            graph_of("pub fn a() { b(); }\nfn b() { c(); }\nfn c() {}\nfn unrelated() {}\n");
        let a = id_of(&items, "a");
        let c = id_of(&items, "c");
        let reach = graph.reach(&[a]);
        assert!(reach.contains(c));
        assert!(!reach.contains(id_of(&items, "unrelated")));
        assert_eq!(reach.chain(&items, c), "a → b → c");
    }
}
