//! Every `prvm-lint` rule, as one flat table over one engine.
//!
//! All rules read the same views: the lossless token stream
//! (`lex.rs`), the items extracted from its token trees (`items.rs`)
//! and the same-crate call graph (`callgraph.rs`). Each [`RULES`] entry
//! pairs an id, description and fix hint with the detector that finds
//! its sites; [`check`] turns sites into findings. Rules come in three
//! scopes:
//!
//! * **file-scoped** (L003) match a token predicate on each file's code
//!   tokens outside test items ([`Items::code`]), at most one finding
//!   per line;
//! * **item-scoped** (L007, D002, D004, L008) look at each extracted fn
//!   or type;
//! * **reachability-scoped** (D001, D003, D005, P001) look at the fns
//!   reachable from roots configured in `lint.toml`, and report the
//!   call chain.
//!
//! Checks a compiler lint already makes live there instead, one engine
//! per check: `unwrap`/`expect` in library code (`clippy::unwrap_used`,
//! `clippy::expect_used`), `as` casts in `core`/`model`
//! (`clippy::as_conversions`) and `# Panics` docs on `core`'s API
//! (`clippy::missing_panics_doc`); DESIGN.md §8 lists their scopes.
//!
//! The rules (scopes in DESIGN.md §8 and §12):
//!
//! * **L003** — no raw `f64` resource arithmetic in `core` / `sim` that
//!   bypasses the `units.rs` newtypes.
//! * **L007** — non-trivial `pub fn`s on the hot paths must open a
//!   profiling span (`Span::enter` / `Span::timed`) so `--trace`
//!   timelines and phase histograms cover them (DESIGN.md §11); trivial
//!   accessors are exempt by size, deliberately span-free helpers via
//!   lint.toml.
//! * **L008** — the types listed in `[rule.L008] types` must carry
//!   `#[must_use]`: score books, registry handles, fault-plan builders
//!   and bench configs are all values that only matter if consumed.
//! * **D001** — no iteration over `HashMap`/`HashSet` in functions
//!   reachable from the configured determinism roots (`[rule.D001]
//!   roots`). Hash iteration order varies per process; result-affecting
//!   paths must use `BTreeMap` or sorted vecs.
//! * **D002** — no `Instant::now` / `SystemTime` / `RandomState` in
//!   result-affecting crates (`[rule.D002] exempt_crates` carves out
//!   the observability layers).
//! * **D003** — no float `.sum()` / `.product()` in functions reachable
//!   from the hot-path roots: reductions go through the blessed
//!   `prvm-par` fixed-order fold or an explicit sequential loop whose
//!   order is visible in the source.
//! * **D004** — no branching on worker count (`global_threads`,
//!   `.threads()`, `available_parallelism`) outside `crates/par`
//!   (`[rule.D004] home_crate`).
//! * **D005** — event handlers stay inline: no `Pool` use, `spawn`/
//!   `sleep` calls, or blocking `.recv()`/`.lock()`/`.wait()` reachable
//!   from the kernel event-handler roots (`[rule.D005] roots`). The
//!   discrete-event kernel's virtual clock only advances between
//!   events; a handler that blocks or forks work onto real threads
//!   reintroduces wall-clock nondeterminism the kernel exists to
//!   remove. Delays are modelled by scheduling future events instead.
//! * **P001** — panic-surface report: every panicking construct
//!   (`unwrap`/`expect`, panic-family macros, slice indexing, integer
//!   division by a non-literal) reachable from the configured root
//!   crates' API — each `pub fn` and each method of an
//!   `impl Trait for Type` block, such as a placer's `choose` — with
//!   the offending call chain in the finding. The `assert!` family is
//!   excluded by design: contract panics are documented under
//!   `# Panics`, which `clippy::missing_panics_doc` checks.

use crate::callgraph::CallGraph;
use crate::config::Config;
use crate::items::{FnItem, Items};
use crate::lex::{Kind, Token};
use crate::scan::SourceFile;
use std::collections::{BTreeMap, BTreeSet};

/// A single lint finding.
#[derive(Debug)]
pub struct Finding {
    /// Rule identifier, e.g. `"P001"`.
    pub rule: &'static str,
    /// Workspace-relative path.
    pub rel: String,
    /// 1-based line number.
    pub line: usize,
    /// The raw source line (trimmed), for allowlist matching and display.
    pub excerpt: String,
    /// Actionable fix hint.
    pub hint: &'static str,
    /// Rule-specific context, e.g. the offending call chain for P001.
    /// Empty for L003 and L007.
    pub detail: String,
}

/// Everything a rule reads.
pub struct Workspace<'a> {
    pub files: &'a [SourceFile],
    pub items: &'a Items,
    pub graph: &'a CallGraph,
    pub cfg: &'a Config,
}

/// Where a rule fired: file, 1-based line, and rule-specific detail.
struct Site {
    rel: String,
    line: usize,
    detail: String,
}

impl Site {
    fn new(rel: &str, line: usize, detail: String) -> Site {
        Site {
            rel: rel.to_string(),
            line,
            detail,
        }
    }
}

/// One rule: what it checks, how to fix a finding, and its detector.
pub struct Rule {
    pub id: &'static str,
    /// One line for `--rules` and the SARIF rule metadata.
    pub description: &'static str,
    /// Actionable fix hint attached to every finding.
    pub hint: &'static str,
    check: fn(&Workspace) -> Vec<Site>,
}

/// Every rule. `--rules`, the SARIF `rules[]` array and `--self-test`
/// all read this table.
pub const RULES: &[Rule] = &[
    Rule {
        id: "L003",
        description: "no raw f64 resource arithmetic in core/sim bypassing the units.rs newtypes",
        hint: "route the conversion through units.rs (`as_f64`, `fraction_of`, `from_f64_*`)",
        check: l003_no_raw_resource_math,
    },
    Rule {
        id: "L007",
        description: "non-trivial pub fns on hot paths open a profiling span (Span::enter/timed)",
        hint: "open a profiling span (`Span::enter(\"…\")`) so --trace covers this hot-path function, or justify the span-free site in lint.toml",
        check: l007_hot_paths_open_spans,
    },
    Rule {
        id: "L008",
        description: "configured builder/score types carry #[must_use]",
        hint: "builder/score types only matter when consumed: add #[must_use] so a dropped value warns",
        check: l008_must_use_types,
    },
    Rule {
        id: "D001",
        description: "no HashMap/HashSet iteration reachable from the determinism roots",
        hint: "hash iteration order is nondeterministic on a result-affecting path: use BTreeMap/BTreeSet or a sorted vec",
        check: d001_no_hash_iteration,
    },
    Rule {
        id: "D002",
        description: "no Instant::now/SystemTime/RandomState in result-affecting crates",
        hint: "wall-clock reads and randomized hashers belong in the observability layer: route through prvm-obs (timeline::stamp) or move the code to an exempt scope",
        check: d002_no_wall_clock,
    },
    Rule {
        id: "D003",
        description: "no float .sum()/.product() on hot paths (use the fixed-order fold)",
        hint: "float reduction on a hot path: use the prvm-par fixed-order fold or an explicit sequential loop so the summation order is pinned",
        check: d003_no_float_reductions,
    },
    Rule {
        id: "D004",
        description: "no branching on worker count outside crates/par",
        hint: "worker-count decisions live in crates/par: branching on thread count elsewhere forks behaviour between runs at different -j",
        check: d004_no_thread_count_branching,
    },
    Rule {
        id: "D005",
        description: "no Pool use, spawn/sleep or blocking calls reachable from kernel event handlers",
        hint: "event handlers run inline on the kernel's virtual clock: model delays by scheduling future events, move parallel work outside the kernel, or justify the site in lint.toml",
        check: d005_handlers_stay_inline,
    },
    Rule {
        id: "P001",
        description: "panic-surface report: panicking constructs reachable from pub fns and trait-impl methods of the [rule.P001] root crates",
        hint: "panicking construct reachable from the public API: return an error, use .get()/checked ops, or justify the audited invariant in lint.toml",
        check: p001_panic_surface,
    },
];

/// Run every rule over `ws`.
pub fn check(ws: &Workspace) -> Vec<Finding> {
    let files: BTreeMap<&str, &SourceFile> = ws.files.iter().map(|f| (f.rel.as_str(), f)).collect();
    let mut out = Vec::new();
    for rule in RULES {
        for site in (rule.check)(ws) {
            let excerpt = files
                .get(site.rel.as_str())
                .map_or_else(String::new, |f| f.excerpt(site.line));
            out.push(Finding {
                rule: rule.id,
                rel: site.rel,
                line: site.line,
                excerpt,
                hint: rule.hint,
                detail: site.detail,
            });
        }
    }
    out
}

/// Names in `lint.toml` that match nothing in the workspace: a
/// `[rule.D001|D003|D005] roots` name with no such fn in the rule's
/// crates, or a `[rule.L008] types` name with no such type. Each would
/// shrink a rule's coverage without a word.
pub fn unresolved_names(ws: &Workspace) -> Vec<String> {
    let mut out = Vec::new();
    for rule in ["D001", "D003", "D005"] {
        for name in ws.cfg.list(rule, "roots") {
            if !ws.items.fns.iter().any(|f| is_root(ws, rule, f, name)) {
                out.push(format!("[rule.{rule}] roots: `{name}` names no fn"));
            }
        }
    }
    for name in ws.cfg.list("L008", "types") {
        if !ws.items.types.iter().any(|t| &t.name == name) {
            out.push(format!("[rule.L008] types: `{name}` names no type"));
        }
    }
    out
}

/// Files on the placement hot path, where L007 wants spans.
const HOT_FILES: [&str; 3] = [
    "core/src/graph.rs",
    "core/src/pagerank.rs",
    "core/src/placer.rs",
];

/// Body lines holding code above which a hot-path `pub fn` is no
/// longer a trivial accessor and L007 requires a span.
const L007_TRIVIAL_LINES: usize = 12;

const INT_TYPES: [&str; 12] = [
    "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize",
];

/// Macros that always panic when reached.
const PANIC_MACROS: [&str; 4] = ["panic", "unreachable", "todo", "unimplemented"];

/// Assertion macros: contract checks whose argument lists P001 skips.
const ASSERT_MACROS: [&str; 3] = ["assert", "assert_eq", "assert_ne"];

/// Their debug forms, which P001 skips too.
const DEBUG_ASSERT_MACROS: [&str; 3] = ["debug_assert", "debug_assert_eq", "debug_assert_ne"];

/// Methods whose hash-container receivers leak iteration order.
const HASH_ITER_METHODS: [&str; 9] = [
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_iter",
    "into_keys",
    "into_values",
    "drain",
];

/// Methods that park the calling thread until someone else acts.
const D005_BLOCKING_METHODS: [&str; 5] = ["recv", "recv_timeout", "lock", "wait", "wait_timeout"];

fn is_hot(file: &str) -> bool {
    HOT_FILES.iter().any(|h| file.ends_with(h))
}

// ---- token predicates, shared by every rule -----------------------------

/// `c[i]` is an identifier spelled like one of `names`.
fn ident_at(c: &[Token], i: usize, names: &[&str]) -> bool {
    c.get(i)
        .is_some_and(|t| t.kind == Kind::Ident && names.contains(&t.text.as_str()))
}

fn punct_at(c: &[Token], i: usize, ch: char) -> bool {
    c.get(i).is_some_and(|t| t.is_punct(ch))
}

/// `name!` for one of `names`.
fn is_macro_call(c: &[Token], i: usize, names: &[&str]) -> bool {
    ident_at(c, i, names) && punct_at(c, i + 1, '!')
}

/// `.name(` for one of `names`.
fn is_method_call(c: &[Token], i: usize, names: &[&str]) -> bool {
    punct_at(c, i.wrapping_sub(1), '.') && ident_at(c, i, names) && punct_at(c, i + 1, '(')
}

/// `head::tail` for one of `tails`.
fn is_path(c: &[Token], i: usize, head: &str, tails: &[&str]) -> bool {
    ident_at(c, i, &[head])
        && punct_at(c, i + 1, ':')
        && punct_at(c, i + 2, ':')
        && ident_at(c, i + 3, tails)
}

/// `expr[`: a `[` right after a value (identifier, tuple field `.0`,
/// `)` or `]`), not after a keyword, an attribute `#`, a macro `!` or a
/// type position.
fn is_index_open(c: &[Token], i: usize) -> bool {
    punct_at(c, i, '[')
        && c.get(i.wrapping_sub(1)).is_some_and(|p| {
            p.kind == Kind::Ident && !is_keyword(&p.text)
                || p.kind == Kind::Number
                || p.is_punct(')')
                || p.is_punct(']')
        })
}

fn is_keyword(s: &str) -> bool {
    matches!(
        s,
        "in" | "as" | "mut" | "return" | "break" | "else" | "if" | "match" | "dyn" | "impl"
    )
}

/// Index one past the end of the group starting at `open` (which must
/// be a delimiter token); `open` itself when it is not a delimiter.
fn group_end(body: &[Token], open: usize) -> usize {
    let Some(t) = body.get(open) else {
        return open;
    };
    let (o, c) = match t.text.as_str() {
        "(" => ('(', ')'),
        "[" => ('[', ']'),
        "{" => ('{', '}'),
        _ => return open,
    };
    let mut depth = 0i32;
    for (j, u) in body.iter().enumerate().skip(open) {
        if u.is_punct(o) {
            depth += 1;
        } else if u.is_punct(c) {
            depth -= 1;
            if depth == 0 {
                return j + 1;
            }
        }
    }
    body.len()
}

// ---- file-scoped rules --------------------------------------------------

/// Sites of a file-scoped rule: in each file `scope` accepts, one per
/// line where `hit` matches a code token outside test items.
fn per_line(
    ws: &Workspace,
    scope: impl Fn(&SourceFile) -> bool,
    hit: impl Fn(&[Token], usize) -> bool,
) -> Vec<Site> {
    let mut sites = Vec::new();
    for (file, code) in ws.files.iter().zip(&ws.items.code) {
        if !scope(file) {
            continue;
        }
        let mut last = 0;
        for (i, t) in code.iter().enumerate() {
            if t.line != last && hit(code, i) {
                last = t.line;
                sites.push(Site::new(&file.rel, t.line, String::new()));
            }
        }
    }
    sites
}

/// L003: raw `f64` resource arithmetic bypassing the unit newtypes:
/// `.get() as f64`, `.0 as f64`, or a `Mhz`/`MemMib`/`DiskGb` built
/// around an `as u64` cast.
fn l003_no_raw_resource_math(ws: &Workspace) -> Vec<Site> {
    per_line(
        ws,
        |f| matches!(f.krate.as_str(), "core" | "sim"),
        |c, i| {
            let cast = |at: usize, ty: &str| ident_at(c, at, &["as"]) && ident_at(c, at + 1, &[ty]);
            let getter =
                is_method_call(c, i, &["get"]) && punct_at(c, i + 2, ')') && cast(i + 3, "f64");
            let field =
                punct_at(c, i.wrapping_sub(1), '.') && c[i].text == "0" && cast(i + 1, "f64");
            let unit = ident_at(c, i, &["Mhz", "MemMib", "DiskGb"])
                && punct_at(c, i + 1, '(')
                && (i + 2..group_end(c, i + 1)).any(|j| cast(j, "u64"));
            getter || field || unit
        },
    )
}

// ---- item-scoped rules --------------------------------------------------

/// Signature sites of the non-test, plain-`pub` fns (`pub(crate)` is
/// not API) that `flag` selects.
fn api_fns(ws: &Workspace, flag: impl Fn(&FnItem) -> bool) -> Vec<Site> {
    ws.items
        .fns
        .iter()
        .filter(|f| f.bare_pub && !f.in_test && flag(f))
        .map(|f| Site::new(&f.rel, f.line, String::new()))
        .collect()
}

/// L007: non-trivial public functions on the hot paths must open a
/// profiling span, so per-worker timelines and phase histograms see
/// them. Size is counted in body lines holding code; functions at or
/// under [`L007_TRIVIAL_LINES`] read as accessors and are exempt.
fn l007_hot_paths_open_spans(ws: &Workspace) -> Vec<Site> {
    api_fns(ws, |f| {
        let lines: BTreeSet<usize> = f.body.iter().map(|t| t.line).collect();
        is_hot(&f.rel)
            && lines.len() > L007_TRIVIAL_LINES
            && !(0..f.body.len()).any(|i| is_path(&f.body, i, "Span", &["enter", "timed"]))
    })
}

/// L008: the configured builder/score types must be `#[must_use]`.
fn l008_must_use_types(ws: &Workspace) -> Vec<Site> {
    let wanted = ws.cfg.list("L008", "types");
    ws.items
        .types
        .iter()
        .filter(|ty| ty.is_pub && wanted.contains(&ty.name) && !ty.must_use)
        .map(|ty| Site::new(&ty.rel, ty.line, format!("type {}", ty.name)))
        .collect()
}

/// Sites of a fn-body rule: every token of a non-test fn `exempt` does
/// not skip where `hit` matches, with the fn's name as detail.
fn in_bodies(
    ws: &Workspace,
    exempt: impl Fn(&FnItem) -> bool,
    hit: impl Fn(&[Token], usize) -> bool,
) -> Vec<Site> {
    let mut sites = Vec::new();
    for f in ws.items.fns.iter().filter(|f| !f.in_test && !exempt(f)) {
        for (i, t) in f.body.iter().enumerate() {
            if hit(&f.body, i) {
                sites.push(Site::new(&f.rel, t.line, format!("in {}", f.qual)));
            }
        }
    }
    sites
}

/// D002: wall-clock and randomized-hash constructors in covered crates.
fn d002_no_wall_clock(ws: &Workspace) -> Vec<Site> {
    let exempt = ws.cfg.list("D002", "exempt_crates");
    in_bodies(
        ws,
        |f| exempt.contains(&f.krate),
        |b, i| is_path(b, i, "Instant", &["now"]) || ident_at(b, i, &["SystemTime", "RandomState"]),
    )
}

/// D004: worker-count branching outside the parallel runtime.
fn d004_no_thread_count_branching(ws: &Workspace) -> Vec<Site> {
    let home = ws.cfg.list("D004", "home_crate");
    let exempt = ws.cfg.list("D004", "exempt_crates");
    in_bodies(
        ws,
        |f| home.contains(&f.krate) || exempt.contains(&f.krate),
        |b, i| {
            ident_at(b, i, &["global_threads", "available_parallelism"])
                || is_method_call(b, i, &["threads"])
        },
    )
}

// ---- reachability-scoped rules ------------------------------------------

/// Is `f` a root of `rule`: a non-test fn of its configured `crates`
/// (all crates when unset) called `name`, qualified or bare?
fn is_root(ws: &Workspace, rule: &str, f: &FnItem, name: &str) -> bool {
    let crates = ws.cfg.list(rule, "crates");
    !f.in_test
        && (crates.is_empty() || crates.contains(&f.krate))
        && (f.qual == name || f.name == name)
}

/// Fn ids matching `rule`'s configured roots.
fn roots(ws: &Workspace, rule: &str) -> Vec<usize> {
    let names = ws.cfg.list(rule, "roots");
    (0..ws.items.fns.len())
        .filter(|&id| {
            names
                .iter()
                .any(|n| is_root(ws, rule, &ws.items.fns[id], n))
        })
        .collect()
}

/// Sites of a reachability rule: for each non-test fn reachable from
/// `roots`, the `(line, what)` pairs `sites_in` reports, with the call
/// chain as detail.
fn reachable(
    ws: &Workspace,
    roots: &[usize],
    mut sites_in: impl FnMut(&FnItem) -> Vec<(usize, &'static str)>,
) -> Vec<Site> {
    if roots.is_empty() {
        return Vec::new();
    }
    let reach = ws.graph.reach(roots);
    let mut sites = Vec::new();
    for (id, f) in ws.items.fns.iter().enumerate() {
        if !reach.contains(id) || f.in_test {
            continue;
        }
        for (line, what) in sites_in(f) {
            let chain = reach.chain(ws.items, id);
            let detail = if what.is_empty() {
                format!("reachable via {chain}")
            } else {
                format!("{what} reachable via {chain}")
            };
            sites.push(Site::new(&f.rel, line, detail));
        }
    }
    sites
}

/// D001: hash-container iteration on determinism-critical paths.
fn d001_no_hash_iteration(ws: &Workspace) -> Vec<Site> {
    reachable(ws, &roots(ws, "D001"), |f| {
        hash_iteration_sites(f, ws.items)
            .into_iter()
            .map(|line| (line, ""))
            .collect()
    })
}

/// Type of the value feeding a `.method(…)` chain or a `for … in`
/// head: a plain local/param, or a `self.field` projection.
fn value_type<'a>(f: &'a FnItem, items: &'a Items, body: &[Token], at: usize) -> Option<String> {
    let tok = body.get(at)?;
    if tok.kind != Kind::Ident {
        return None;
    }
    // `self . field` — type comes from the impl's struct definition.
    if at >= 2 && body[at - 1].is_punct('.') && body[at - 2].is_ident("self") {
        let self_ty = f.self_type.as_deref()?;
        return items.field_type(self_ty, &tok.text).map(str::to_string);
    }
    // A chain base of `self` with a field projection just ahead
    // (`self.vals.iter()…` resolved from the left end).
    if tok.is_ident("self")
        && body.get(at + 1).is_some_and(|t| t.is_punct('.'))
        && body.get(at + 2).is_some_and(|t| t.kind == Kind::Ident)
    {
        let self_ty = f.self_type.as_deref()?;
        return items
            .field_type(self_ty, &body[at + 2].text)
            .map(str::to_string);
    }
    f.types.get(&tok.text).cloned()
}

fn is_hash_type(ty: &str) -> bool {
    ty.contains("HashMap") || ty.contains("HashSet")
}

fn is_float_type(ty: &str) -> bool {
    ty.contains("f64") || ty.contains("f32")
}

/// Lines inside `f` where a known hash container is iterated.
fn hash_iteration_sites(f: &FnItem, items: &Items) -> Vec<usize> {
    let body = &f.body;
    let mut sites = Vec::new();
    for i in 0..body.len() {
        // `recv . method (` where method leaks iteration order.
        if is_method_call(body, i, &HASH_ITER_METHODS) && i >= 2 {
            if let Some(ty) = value_type(f, items, body, i - 2) {
                if is_hash_type(&ty) {
                    sites.push(body[i].line);
                }
            }
        }
        // `for pat in [&[mut]] head {` — direct iteration.
        if body[i].is_ident("in") {
            let mut j = i + 1;
            while body
                .get(j)
                .is_some_and(|t| t.is_punct('&') || t.is_ident("mut"))
            {
                j += 1;
            }
            // `self . field {` or `head {`.
            let head = if body.get(j).is_some_and(|t| t.is_ident("self"))
                && body.get(j + 1).is_some_and(|t| t.is_punct('.'))
            {
                j + 2
            } else {
                j
            };
            if body.get(head + 1).is_some_and(|t| t.is_punct('{')) {
                if let Some(ty) = value_type(f, items, body, head) {
                    if is_hash_type(&ty) {
                        sites.push(body[head].line);
                    }
                }
            }
        }
    }
    sites.sort_unstable();
    sites.dedup();
    sites
}

/// D003: float reductions on hot paths.
fn d003_no_float_reductions(ws: &Workspace) -> Vec<Site> {
    reachable(ws, &roots(ws, "D003"), |f| {
        let body = &f.body;
        let mut sites = Vec::new();
        for i in 0..body.len() {
            if !(ident_at(body, i, &["sum", "product"]) && punct_at(body, i.wrapping_sub(1), '.')) {
                continue;
            }
            // `.sum::<f64>()` — explicit float turbofish.
            let turbofish_float = punct_at(body, i + 1, ':')
                && punct_at(body, i + 2, ':')
                && punct_at(body, i + 3, '<')
                && ident_at(body, i + 4, &["f64", "f32"]);
            // Bare `.sum()` whose receiver chain starts from a value of
            // known float element type.
            let bare_float = punct_at(body, i + 1, '(')
                && chain_base(body, i.saturating_sub(2))
                    .and_then(|b| value_type(f, ws.items, body, b))
                    .is_some_and(|ty| is_float_type(&ty));
            if turbofish_float || bare_float {
                sites.push((body[i].line, ""));
            }
        }
        sites
    })
}

/// Walk a method chain leftwards from `r` (the token just before the
/// final `.`) to the base value: skips balanced groups, `.name` links
/// and `path::` segments. Returns the base ident's index.
fn chain_base(body: &[Token], mut r: usize) -> Option<usize> {
    loop {
        let t = body.get(r)?;
        match t.text.as_str() {
            ")" | "]" => {
                // Skip the balanced group, then the callee name if any.
                let open = match t.text.as_str() {
                    ")" => "(",
                    _ => "[",
                };
                let mut depth = 0i32;
                loop {
                    let u = body.get(r)?;
                    if u.text == t.text {
                        depth += 1;
                    } else if u.text == open {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    r = r.checked_sub(1)?;
                }
                r = r.checked_sub(1)?;
            }
            _ if t.kind == Kind::Ident => {
                let Some(prev) = r.checked_sub(1).and_then(|p| body.get(p)) else {
                    return Some(r);
                };
                if prev.is_punct('.') {
                    r = r.checked_sub(2)?;
                } else if prev.is_punct(':') {
                    // `path::seg` — step over the `::`.
                    r = r.checked_sub(3)?;
                } else {
                    return Some(r);
                }
            }
            _ => return None,
        }
    }
}

/// D005: no thread spawning or blocking reachable from event handlers.
fn d005_handlers_stay_inline(ws: &Workspace) -> Vec<Site> {
    reachable(ws, &roots(ws, "D005"), |f| {
        let body = &f.body;
        let mut sites = Vec::new();
        for (i, t) in body.iter().enumerate() {
            let what = if t.is_ident("Pool") {
                "worker-pool use"
            } else if ident_at(body, i, &["spawn", "sleep"]) && punct_at(body, i + 1, '(') {
                "spawn/sleep call"
            } else if is_method_call(body, i, &D005_BLOCKING_METHODS) {
                "blocking call"
            } else {
                continue;
            };
            sites.push((t.line, what));
        }
        sites
    })
}

/// P001: panic-surface reachability from the API of the configured
/// crates: their `pub` fns and their trait-impl methods.
fn p001_panic_surface(ws: &Workspace) -> Vec<Site> {
    let root_crates = ws.cfg.list("P001", "root_crates");
    let exempt_files = ws.cfg.list("P001", "exempt_files");
    let roots: Vec<usize> = (0..ws.items.fns.len())
        .filter(|&id| {
            let f = &ws.items.fns[id];
            (f.is_pub || f.trait_impl) && !f.in_test && root_crates.contains(&f.krate)
        })
        .collect();
    let mut seen = BTreeSet::new();
    reachable(ws, &roots, |f| {
        if exempt_files.iter().any(|e| f.rel.ends_with(e.as_str())) {
            return Vec::new();
        }
        panic_sites(f)
            .into_iter()
            .filter(|&(line, what)| seen.insert((f.rel.clone(), line, what)))
            .collect()
    })
}

/// Panicking constructs in one fn body: `(line, kind)` pairs.
fn panic_sites(f: &FnItem) -> Vec<(usize, &'static str)> {
    let body = &f.body;
    let mut sites = Vec::new();
    let mut i = 0usize;
    while i < body.len() {
        // Assertion macros: contract checks, skip their argument group.
        if is_macro_call(body, i, &ASSERT_MACROS) || is_macro_call(body, i, &DEBUG_ASSERT_MACROS) {
            i = group_end(body, i + 2);
            continue;
        }
        let line = body[i].line;
        if is_macro_call(body, i, &PANIC_MACROS) {
            sites.push((line, "panic macro"));
        }
        if is_method_call(body, i, &["unwrap", "expect"]) {
            sites.push((line, "unwrap/expect"));
        }
        if is_index_open(body, i) {
            sites.push((line, "slice indexing"));
        }
        // Division where the divisor is a value of known integer type:
        // can panic on zero. Literal divisors are exempt.
        if punct_at(body, i, '/') {
            let lhs_ok = body.get(i.wrapping_sub(1)).is_some_and(|p| {
                p.kind == Kind::Ident
                    || p.kind == Kind::Number
                    || p.is_punct(')')
                    || p.is_punct(']')
            });
            let rhs_int = body.get(i + 1).is_some_and(|n| {
                n.kind == Kind::Ident
                    && f.types
                        .get(&n.text)
                        .is_some_and(|ty| INT_TYPES.contains(&ty.as_str()))
            });
            if lhs_ok && rhs_int {
                sites.push((line, "integer division"));
            }
        }
        i += 1;
    }
    sites
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::items;

    /// Run the whole engine over `files`: findings and unresolved names.
    fn lint(files: &[SourceFile], cfg: &Config) -> (Vec<Finding>, Vec<String>) {
        let items = items::extract(files);
        let graph = CallGraph::build(&items);
        let ws = Workspace {
            files,
            items: &items,
            graph: &graph,
            cfg,
        };
        (check(&ws), unresolved_names(&ws))
    }

    fn file(rel: &str, src: &str) -> SourceFile {
        let krate = rel
            .strip_prefix("crates/")
            .and_then(|r| r.split('/').next())
            .unwrap_or("");
        SourceFile::scan(rel.to_string(), krate.to_string(), src)
    }

    fn rules_fired(rel: &str, src: &str) -> Vec<String> {
        lint(&[file(rel, src)], &Config::default())
            .0
            .iter()
            .map(|f| format!("{}:{}", f.rule, f.line))
            .collect()
    }

    fn run_on(krate: &str, src: &str, cfg: &Config) -> Vec<(String, usize, String)> {
        lint(&[file(&format!("crates/{krate}/src/lib.rs"), src)], cfg)
            .0
            .into_iter()
            .map(|f| (f.rule.to_string(), f.line, f.detail))
            .collect()
    }

    #[test]
    fn l003_catches_raw_resource_math() {
        let src = "fn a(m: Mhz) -> f64 { m.get() as f64 }\nfn b(x: f64) -> Mhz { Mhz(x.round() as u64) }\n";
        let fired = rules_fired("crates/sim/src/engine.rs", src);
        assert!(fired.contains(&"L003:1".to_string()));
        assert!(fired.contains(&"L003:2".to_string()));
    }

    #[test]
    fn l003_reads_code_tokens_outside_tests_only() {
        // Comments, strings, raw strings with `#`s, nested block
        // comments and test items are not code; the code beside them
        // still fires.
        let src = "\
fn a(m: Mhz) -> f64 { // m.get() as f64
    foo(\"m.get() as f64\"); m.get() as f64
}
const R: &str = r#\"m.get() as f64 \"q\"\"#;
/* a /* b */ m.get() as f64 */ fn b(m: Mhz) -> f64 { m.get() as f64 }
#[cfg(test)]
mod tests {
    fn t(m: Mhz) -> f64 { m.get() as f64 }
}
";
        assert_eq!(
            rules_fired("crates/sim/src/engine.rs", src),
            ["L003:2", "L003:5"]
        );

        // A multi-line string keeps the lines after it exact.
        let multiline = "fn a(m: Mhz) -> f64 {\n    let s = \"first\nsecond\"; m.get() as f64\n}\n";
        assert_eq!(
            rules_fired("crates/sim/src/engine.rs", multiline),
            ["L003:3"]
        );

        // `#[cfg(test)]` on a statement exempts that statement only.
        let gated_use = "#[cfg(test)]\nuse foo::bar;\nfn c(m: Mhz) -> f64 { m.get() as f64 }\n";
        assert_eq!(
            rules_fired("crates/sim/src/engine.rs", gated_use),
            ["L003:3"]
        );
    }

    #[test]
    fn l007_requires_spans_in_long_hot_path_pub_fns() {
        let long_body: String = (0..16).map(|i| format!("    let x{i} = {i};\n")).collect();
        let bare = format!("pub fn work(v: &mut Vec<u64>) {{\n{long_body}}}\n");
        assert!(rules_fired("crates/core/src/pagerank.rs", &bare).contains(&"L007:1".to_string()));

        // The same function outside the hot files is exempt…
        assert!(rules_fired("crates/core/src/table.rs", &bare)
            .iter()
            .all(|r| !r.starts_with("L007")));

        // …as is a spanned version, whether via enter or timed…
        for span in [
            "let _s = Span::enter(\"work\");",
            "Span::timed(\"work\", || 1);",
        ] {
            let spanned = format!("pub fn work() {{\n    {span}\n{long_body}}}\n");
            assert!(
                rules_fired("crates/core/src/pagerank.rs", &spanned)
                    .iter()
                    .all(|r| !r.starts_with("L007")),
                "{span}"
            );
        }

        // …and a trivial accessor stays under the size threshold.
        let accessor = "pub fn len(&self) -> usize {\n    self.nodes.len()\n}\n";
        assert!(rules_fired("crates/core/src/graph.rs", accessor)
            .iter()
            .all(|r| !r.starts_with("L007")));

        // Private functions are the callee side; only the pub surface
        // must be covered.
        let private = format!("fn helper(v: &mut Vec<u64>) {{\n{long_body}}}\n");
        assert!(rules_fired("crates/core/src/placer.rs", &private)
            .iter()
            .all(|r| !r.starts_with("L007")));
        let crate_only = format!("pub(crate) fn helper(v: &mut Vec<u64>) {{\n{long_body}}}\n");
        assert!(rules_fired("crates/core/src/placer.rs", &crate_only)
            .iter()
            .all(|r| !r.starts_with("L007")));
    }

    fn base_cfg() -> Config {
        let mut cfg = Config::default();
        cfg.set("D001", "roots", &["entry"]);
        cfg.set("D003", "roots", &["entry"]);
        cfg.set("D002", "exempt_crates", &["obs", "bench"]);
        cfg.set("D004", "home_crate", &["par"]);
        cfg.set("D004", "exempt_crates", &["bench", "cli"]);
        cfg.set("P001", "root_crates", &["core"]);
        cfg.set("L008", "types", &["ScoreBook"]);
        cfg
    }

    #[test]
    fn d001_flags_hash_iteration_reachable_from_roots() {
        let src = "\
use std::collections::HashMap;
pub fn entry(map: HashMap<u32, u32>) { helper(&map); }
fn helper(map: &HashMap<u32, u32>) {
    for (k, v) in map.iter() { drop((k, v)); }
}
fn unreachable_fn(map: &HashMap<u32, u32>) {
    for (k, v) in map.iter() { drop((k, v)); }
}
";
        let fired = run_on("x", src, &base_cfg());
        let d001: Vec<_> = fired.iter().filter(|f| f.0 == "D001").collect();
        assert_eq!(d001.len(), 1, "{fired:?}");
        assert_eq!(d001[0].1, 4);
        assert!(d001[0].2.contains("entry → helper"), "{:?}", d001[0].2);
    }

    #[test]
    fn d001_flags_direct_for_loops_and_self_fields() {
        let src = "\
use std::collections::HashSet;
pub struct S { seen: HashSet<u64> }
impl S {
    pub fn entry(&self) {
        for v in &self.seen { drop(v); }
    }
}
";
        let mut cfg = base_cfg();
        cfg.set("D001", "roots", &["S::entry"]);
        let fired = run_on("x", src, &cfg);
        assert!(fired.iter().any(|f| f.0 == "D001" && f.1 == 5), "{fired:?}");
    }

    #[test]
    fn d001_ignores_btree_and_unreached_code() {
        let src = "\
use std::collections::BTreeMap;
pub fn entry(map: BTreeMap<u32, u32>) {
    for (k, v) in map.iter() { drop((k, v)); }
}
";
        let fired = run_on("x", src, &base_cfg());
        assert!(fired.iter().all(|f| f.0 != "D001"), "{fired:?}");
    }

    #[test]
    fn d002_flags_wall_clock_outside_exempt_crates() {
        let src = "pub fn f() { let t = std::time::Instant::now(); drop(t); }\n";
        let fired = run_on("sim", src, &base_cfg());
        assert!(fired.iter().any(|f| f.0 == "D002"), "{fired:?}");
        // Observability crates are exempt by scope.
        let fired = run_on("obs", src, &base_cfg());
        assert!(fired.iter().all(|f| f.0 != "D002"), "{fired:?}");
        // Mentions of the Instant *type* (not ::now) are fine.
        let typed = "pub fn record(start: Instant, end: Instant) { drop((start, end)); }\n";
        let fired = run_on("sim", typed, &base_cfg());
        assert!(fired.iter().all(|f| f.0 != "D002"), "{fired:?}");
    }

    #[test]
    fn d003_flags_float_reductions_on_hot_paths() {
        let src = "\
pub fn entry(xs: Vec<f64>) -> f64 {
    let explicit: f64 = xs.iter().sum::<f64>();
    let bare: f64 = xs.iter().sum();
    explicit + bare
}
pub fn counts(ns: Vec<u64>) -> u64 { ns.iter().sum::<u64>() }
";
        let fired = run_on("x", src, &base_cfg());
        let d003: Vec<_> = fired.iter().filter(|f| f.0 == "D003").collect();
        assert_eq!(d003.len(), 2, "{fired:?}");
        assert_eq!(d003[0].1, 2);
        assert_eq!(d003[1].1, 3);
    }

    #[test]
    fn d004_flags_thread_count_branching_outside_par() {
        let src = "pub fn f(pool: &Pool) -> bool { pool.threads() > 1 }\n";
        assert!(run_on("sim", src, &base_cfg())
            .iter()
            .any(|f| f.0 == "D004"));
        assert!(run_on("par", src, &base_cfg())
            .iter()
            .all(|f| f.0 != "D004"));
        assert!(run_on("cli", src, &base_cfg())
            .iter()
            .all(|f| f.0 != "D004"));
        // `set_global_threads` must not match `global_threads`.
        let setter = "pub fn f() { set_global_threads(2); }\n";
        assert!(run_on("sim", setter, &base_cfg())
            .iter()
            .all(|f| f.0 != "D004"));
    }

    #[test]
    fn d005_flags_spawn_and_blocking_reachable_from_handlers() {
        let src = "\
pub struct D;
impl D {
    pub fn on_scan(&mut self) { self.drain(); }
    fn drain(&mut self) {
        let pool = Pool::new(2);
        pool.spawn(drop);
    }
    pub fn on_sample(&mut self, rx: &Receiver<u32>) {
        let _ = rx.recv();
    }
}
pub fn elsewhere(rx: &Receiver<u32>) { let _ = rx.recv(); }
";
        let mut cfg = base_cfg();
        cfg.set("D005", "roots", &["on_scan", "on_sample"]);
        cfg.set("D005", "crates", &["sim"]);
        let fired = run_on("sim", src, &cfg);
        let d005: Vec<_> = fired.iter().filter(|f| f.0 == "D005").collect();
        // Pool::new + pool.spawn via on_scan → drain, rx.recv in
        // on_sample; `elsewhere` is not a handler and stays unflagged.
        assert_eq!(d005.len(), 3, "{fired:?}");
        assert!(d005.iter().any(|f| f.1 == 5 && f.2.contains("worker-pool")));
        assert!(d005
            .iter()
            .any(|f| f.1 == 6 && f.2.contains("D::on_scan → D::drain")));
        assert!(d005.iter().any(|f| f.1 == 9 && f.2.contains("blocking")));
    }

    #[test]
    fn d005_allows_scheduling_and_plain_compute() {
        let src = "\
pub struct D;
impl D {
    pub fn on_scan(&mut self, kernel: &mut Kernel) {
        kernel.schedule_in(300, 5);
        let receiver = self.pick();
        drop(receiver);
    }
    fn pick(&self) -> u32 { 7 }
}
";
        let mut cfg = base_cfg();
        cfg.set("D005", "roots", &["on_scan"]);
        cfg.set("D005", "crates", &["sim"]);
        let fired = run_on("sim", src, &cfg);
        assert!(fired.iter().all(|f| f.0 != "D005"), "{fired:?}");
    }

    #[test]
    fn p001_reports_constructs_with_call_chains() {
        let src = "\
pub fn api(v: &[u64], i: usize) -> u64 { inner(v, i) }
fn inner(v: &[u64], i: usize) -> u64 {
    if v.is_empty() { panic!(\"empty\"); }
    v[i]
}
fn not_reached(v: &[u64]) -> u64 { v[0] }
";
        let fired = run_on("core", src, &base_cfg());
        let p: Vec<_> = fired.iter().filter(|f| f.0 == "P001").collect();
        // panic! at line 3 and v[i] at line 4; v[0] at 6 is unreached
        // from any pub fn — but `not_reached` resolves nothing… it IS
        // unreachable, so exactly two findings.
        assert_eq!(p.len(), 2, "{fired:?}");
        assert!(p.iter().any(|f| f.1 == 3 && f.2.contains("api → inner")));
        assert!(p.iter().any(|f| f.1 == 4));
    }

    #[test]
    fn p001_skips_assert_macros_and_tests() {
        let src = "\
pub fn api(n: usize) -> usize {
    assert!(n > 0, \"contract\");
    debug_assert_eq!(n % 2, 0);
    n
}
#[cfg(test)]
mod tests {
    #[test]
    fn t() { Vec::<u8>::new()[0]; }
}
";
        let fired = run_on("core", src, &base_cfg());
        assert!(fired.iter().all(|f| f.0 != "P001"), "{fired:?}");
    }

    #[test]
    fn p001_integer_division_needs_known_int_divisor() {
        let src = "\
pub fn mean(total: u64, n: u64) -> u64 { total / n }
pub fn halve(total: u64) -> u64 { total / 2 }
pub fn ratio(a: f64, b: f64) -> f64 { a / b }
";
        let fired = run_on("core", src, &base_cfg());
        let p: Vec<_> = fired.iter().filter(|f| f.0 == "P001").collect();
        assert_eq!(p.len(), 1, "{fired:?}");
        assert_eq!(p[0].1, 1);
        assert!(p[0].2.contains("integer division"));
    }

    #[test]
    fn p001_indexing_is_a_value_followed_by_brackets() {
        // Lifetimes, char literals, type positions, macros, attributes
        // and array expressions are not indexing; a local and a tuple
        // field are (lines 6 and 8).
        let src = "\
pub fn f<'a>(x: &'a [u8]) -> char {
    let c = 'x';
    let y: &'a [u8] = x;
    let _v = vec![0u8; 4];
    #[allow(unused)]
    let z = y[0];
    let t = (z, [z; 2]);
    char::from(t.1[1]).max(c)
}
";
        let fired = run_on("core", src, &base_cfg());
        let lines: Vec<usize> = fired
            .iter()
            .filter(|f| f.0 == "P001")
            .map(|f| f.1)
            .collect();
        assert_eq!(lines, [6, 8], "{fired:?}");
    }

    #[test]
    fn p001_roots_include_trait_impl_methods() {
        // `pick` is private and called only from a trait-impl method,
        // which carries no `pub`: callers reach it through the trait
        // all the same. A private inherent method is not API.
        let src = "\
pub trait Placer { fn choose(&self, v: &[u64], i: usize) -> u64; }
pub struct Seeded;
impl Placer for Seeded {
    fn choose(&self, v: &[u64], i: usize) -> u64 { pick(v, i) }
}
fn pick(v: &[u64], i: usize) -> u64 { v[i] }
impl Seeded {
    fn inherent(&self, v: &[u64]) -> u64 { v[0] }
}
";
        let fired = run_on("core", src, &base_cfg());
        let p: Vec<_> = fired.iter().filter(|f| f.0 == "P001").collect();
        assert_eq!(p.len(), 1, "{fired:?}");
        assert_eq!(p[0].1, 6);
        assert!(p[0].2.contains("Seeded::choose → pick"), "{:?}", p[0].2);
    }

    #[test]
    fn l008_requires_must_use_on_listed_types() {
        let src = "pub struct ScoreBook { n: u32 }\npub struct Other;\n";
        let fired = run_on("core", src, &base_cfg());
        assert!(fired.iter().any(|f| f.0 == "L008" && f.1 == 1), "{fired:?}");
        let ok = "#[must_use]\npub struct ScoreBook { n: u32 }\n";
        let fired = run_on("core", ok, &base_cfg());
        assert!(fired.iter().all(|f| f.0 != "L008"), "{fired:?}");
    }

    #[test]
    fn unresolved_config_names_are_reported() {
        let src = "pub fn entry() {}\n#[must_use]\npub struct ScoreBook;\n";
        let mut cfg = base_cfg();
        cfg.set("D001", "roots", &["entry", "gone"]);
        cfg.set("D001", "crates", &["core"]);
        // The right name in the wrong crate resolves to nothing.
        cfg.set("D005", "roots", &["entry"]);
        cfg.set("D005", "crates", &["sim"]);
        cfg.set("L008", "types", &["ScoreBook", "Nope"]);
        let (_, unresolved) = lint(&[file("crates/core/src/lib.rs", src)], &cfg);
        assert_eq!(
            unresolved,
            [
                "[rule.D001] roots: `gone` names no fn",
                "[rule.D005] roots: `entry` names no fn",
                "[rule.L008] types: `Nope` names no type",
            ]
        );
        let (_, unresolved) = lint(&[file("crates/core/src/lib.rs", src)], &base_cfg());
        assert!(unresolved.is_empty(), "{unresolved:?}");
    }
}
