//! `prvm-lint` — workspace-native static analysis for the PageRankVM
//! reproduction.
//!
//! One engine (see DESIGN.md §8 and §12): a lossless lexer (`lex.rs`),
//! token trees (`tokens.rs`), item extraction (`items.rs`) and a
//! same-crate call graph (`callgraph.rs`). Every rule — L003, L007,
//! L008, D001–D005 and P001 — is one entry of the `RULES` table in
//! `rules.rs`, scoped by constants there and by `lint.toml`. Checks a
//! clippy lint makes (unwrap/expect, `as` casts, `# Panics` docs) are
//! left to clippy.
//!
//! ```text
//! cargo run -p prvm-lint                     # lint the workspace
//! cargo run -p prvm-lint -- --rules          # print the rule table
//! cargo run -p prvm-lint -- --format json    # machine-readable findings
//! cargo run -p prvm-lint -- --format sarif   # GitHub PR annotations
//! cargo run -p prvm-lint -- --self-test      # prove seeded violations fire
//! cargo run -p prvm-lint -- --allow-stale    # downgrade stale allowlist entries
//! ```
//!
//! No network, no registry: the only dependencies are the vendored
//! offline serde stand-ins already in-tree, so the linter runs in
//! sandboxes and CI unchanged.

mod allowlist;
mod callgraph;
mod config;
mod items;
mod lex;
#[cfg(test)]
mod lex_prop;
mod output;
mod rules;
mod scan;
mod selftest;
mod tokens;

use callgraph::CallGraph;
use rules::Finding;
use scan::SourceFile;
use std::fmt::Write as _;
use std::io::{ErrorKind, Write as _};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

#[derive(Clone, Copy, PartialEq)]
enum Format {
    Text,
    Json,
    Sarif,
}

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut allowlist_path: Option<PathBuf> = None;
    let mut format = Format::Text;
    let mut allow_stale = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--rules" => {
                let mut table = String::new();
                for rule in rules::RULES {
                    let _ = writeln!(table, "{}  {}", rule.id, rule.description);
                }
                return emit(&table, ExitCode::SUCCESS);
            }
            "--self-test" => {
                return match selftest::run() {
                    Ok(fired) => emit(
                        &format!("prvm-lint: self-test ok — all {fired} rules fired on the seeded tree\n"),
                        ExitCode::SUCCESS,
                    ),
                    Err(e) => {
                        eprintln!("prvm-lint: {e}");
                        ExitCode::FAILURE
                    }
                };
            }
            "--allow-stale" => allow_stale = true,
            "--format" => match args.next().as_deref() {
                Some("text") => format = Format::Text,
                Some("json") => format = Format::Json,
                Some("sarif") => format = Format::Sarif,
                other => {
                    return usage_error(&format!("--format expects text|json|sarif, got {other:?}"))
                }
            },
            "--root" => match args.next() {
                Some(v) => root = Some(PathBuf::from(v)),
                None => return usage_error("--root requires a directory argument"),
            },
            "--allowlist" => match args.next() {
                Some(v) => allowlist_path = Some(PathBuf::from(v)),
                None => return usage_error("--allowlist requires a file argument"),
            },
            other => {
                return usage_error(&format!("unknown argument `{other}`"));
            }
        }
    }

    let root = match root.map_or_else(find_workspace_root, Ok) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("prvm-lint: {e}");
            return ExitCode::FAILURE;
        }
    };
    let allowlist_path = allowlist_path.unwrap_or_else(|| root.join("lint.toml"));

    let report = match run_lint(&root, &allowlist_path) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("prvm-lint: {e}");
            return ExitCode::FAILURE;
        }
    };

    // Stale allowlist entries and unresolved names are themselves
    // findings about lint.toml: errors by default, warnings under
    // --allow-stale.
    let stale_ok = report.stale.is_empty() || allow_stale;
    for s in &report.stale {
        let sev = if allow_stale { "warning" } else { "error" };
        eprintln!("{sev}: {s}");
    }

    let text = match format {
        Format::Text => render_text(&report),
        Format::Json => {
            let json = output::to_json(&report.findings, report.scanned, report.allowed);
            format!("{json}\n")
        }
        Format::Sarif => format!("{}\n", output::to_sarif(&report.findings)),
    };
    let code = if report.findings.is_empty() && stale_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    };
    emit(&text, code)
}

/// Print `text` to stdout and exit with `code`. A closed stdout
/// (`prvm-lint --rules | head`) is not a failure: the reader has what it
/// wanted. Any other write error is.
fn emit(text: &str, code: ExitCode) -> ExitCode {
    match std::io::stdout().lock().write_all(text.as_bytes()) {
        Err(e) if e.kind() != ErrorKind::BrokenPipe => {
            eprintln!("prvm-lint: cannot write to stdout: {e}");
            ExitCode::FAILURE
        }
        _ => code,
    }
}

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("prvm-lint: {msg}");
    eprintln!(
        "usage: prvm-lint [--root DIR] [--allowlist FILE] [--format text|json|sarif] \
         [--allow-stale] [--rules] [--self-test]"
    );
    ExitCode::FAILURE
}

/// Outcome of one lint run.
pub(crate) struct Report {
    /// Unallowlisted findings, sorted by (file, line, rule).
    pub findings: Vec<Finding>,
    /// Files scanned.
    pub scanned: usize,
    /// Findings suppressed by the allowlist.
    pub allowed: usize,
    /// Allowlist entries in lint.toml.
    pub entries: usize,
    /// Rendered descriptions of lint.toml entries that matched nothing:
    /// allowlist lines and configured root/type names.
    pub stale: Vec<String>,
}

/// Lint the tree under `root` against `allowlist_path`.
pub(crate) fn run_lint(root: &Path, allowlist_path: &Path) -> Result<Report, String> {
    let (cfg, mut entries) = match std::fs::read_to_string(allowlist_path) {
        Ok(text) => config::parse(&text)?,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            (config::Config::default(), Vec::new())
        }
        Err(e) => return Err(format!("{}: {e}", allowlist_path.display())),
    };

    let mut files = collect_sources(root)?;
    files.sort_by(|a, b| a.rel.cmp(&b.rel));

    let extracted = items::extract(&files);
    let graph = CallGraph::build(&extracted);
    let ws = rules::Workspace {
        files: &files,
        items: &extracted,
        graph: &graph,
        cfg: &cfg,
    };
    let mut findings = rules::check(&ws);
    findings.sort_by(|a, b| (&a.rel, a.line, a.rule).cmp(&(&b.rel, b.line, b.rule)));

    let mut reported = Vec::new();
    let mut allowed = 0usize;
    for f in findings {
        if allowlist::allows(&mut entries, &f) {
            allowed += 1;
        } else {
            reported.push(f);
        }
    }

    let mut stale: Vec<String> = allowlist::stale(&entries)
        .into_iter()
        .map(|e| {
            format!(
                "lint.toml:{}: stale allowlist entry ({} | {} | {}) matches no finding — \
                 reason was: {} (pass --allow-stale to downgrade while refactoring)",
                e.line, e.rule, e.file, e.contains, e.reason
            )
        })
        .collect();
    stale.extend(rules::unresolved_names(&ws).into_iter().map(|name| {
        format!(
            "lint.toml: {name} — the rule would silently lose coverage \
             (pass --allow-stale to downgrade while refactoring)"
        )
    }));

    Ok(Report {
        findings: reported,
        scanned: files.len(),
        allowed,
        entries: entries.len(),
        stale,
    })
}

fn render_text(report: &Report) -> String {
    let mut out = String::new();
    let mut per_rule = std::collections::BTreeMap::<&str, usize>::new();
    for f in &report.findings {
        *per_rule.entry(f.rule).or_default() += 1;
        let _ = writeln!(out, "{}:{}: {}: {}", f.rel, f.line, f.rule, f.excerpt);
        if !f.detail.is_empty() {
            let _ = writeln!(out, "    {}", f.detail);
        }
        let _ = writeln!(out, "    hint: {}", f.hint);
    }
    if report.findings.is_empty() {
        let _ = writeln!(
            out,
            "prvm-lint: clean — {} files scanned, {} finding(s) allowlisted ({} entries)",
            report.scanned, report.allowed, report.entries
        );
    } else {
        let by_rule: Vec<String> = per_rule.iter().map(|(r, c)| format!("{r}×{c}")).collect();
        let _ = writeln!(
            out,
            "prvm-lint: {} finding(s) [{}] in {} files ({} allowlisted); see `--rules` and lint.toml",
            report.findings.len(),
            by_rule.join(", "),
            report.scanned,
            report.allowed
        );
    }
    out
}

/// Locate the workspace root: walk up from the current directory until a
/// `Cargo.toml` containing `[workspace]` appears.
fn find_workspace_root() -> Result<PathBuf, String> {
    let mut dir = std::env::current_dir().map_err(|e| e.to_string())?;
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Ok(dir);
            }
        }
        if !dir.pop() {
            return Err("no workspace Cargo.toml found above the current directory \
                 (run from the repo or pass --root)"
                .to_string());
        }
    }
}

/// Read and lex every `.rs` file under `crates/*/src`.
fn collect_sources(root: &Path) -> Result<Vec<SourceFile>, String> {
    let crates_dir = root.join("crates");
    let mut out = Vec::new();
    for krate in read_dir_sorted(&crates_dir)? {
        let src = krate.join("src");
        if !src.is_dir() {
            continue;
        }
        let crate_name = krate
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        let mut stack = vec![src.clone()];
        while let Some(dir) = stack.pop() {
            for path in read_dir_sorted(&dir)? {
                if path.is_dir() {
                    stack.push(path);
                    continue;
                }
                if path.extension().and_then(|e| e.to_str()) != Some("rs") {
                    continue;
                }
                let rel = path
                    .strip_prefix(root)
                    .map_err(|e| e.to_string())?
                    .components()
                    .map(|c| c.as_os_str().to_string_lossy())
                    .collect::<Vec<_>>()
                    .join("/");
                let text = std::fs::read_to_string(&path)
                    .map_err(|e| format!("{}: {e}", path.display()))?;
                out.push(SourceFile::scan(rel, crate_name.clone(), &text));
            }
        }
    }
    Ok(out)
}

fn read_dir_sorted(dir: &Path) -> Result<Vec<PathBuf>, String> {
    let rd = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut paths: Vec<PathBuf> = Vec::new();
    for entry in rd {
        paths.push(entry.map_err(|e| e.to_string())?.path());
    }
    paths.sort();
    Ok(paths)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rule_table_lists_all_rules() {
        let ids: Vec<&str> = rules::RULES.iter().map(|r| r.id).collect();
        assert_eq!(
            ids,
            ["L003", "L007", "L008", "D001", "D002", "D003", "D004", "D005", "P001"]
        );
    }

    #[test]
    fn clippy_keeps_the_checks_it_took_over() {
        // unwrap/expect in library code, `as` casts in core/model and
        // `# Panics` docs on core's API are clippy's to check (DESIGN.md
        // §8); this fails when one of those settings goes missing.
        let root = find_workspace_root().expect("workspace root");
        let as_conversions = "#![cfg_attr(not(test), warn(clippy::as_conversions))]";
        let mut wanted = vec![
            ("Cargo.toml".to_string(), "unwrap_used = \"warn\""),
            ("clippy.toml".to_string(), "allow-expect-in-tests = true"),
            ("crates/core/src/lib.rs".to_string(), as_conversions),
            ("crates/model/src/lib.rs".to_string(), as_conversions),
            (
                "crates/core/src/lib.rs".to_string(),
                "#![warn(clippy::missing_panics_doc)]",
            ),
        ];
        for krate in read_dir_sorted(&root.join("crates")).expect("crates/") {
            if krate.join("src/lib.rs").is_file() {
                let name = krate.file_name().expect("crate dir").to_string_lossy();
                wanted.push((
                    format!("crates/{name}/src/lib.rs"),
                    "#![warn(clippy::expect_used)]",
                ));
            }
        }
        assert!(wanted.len() > 5, "no crates/*/src/lib.rs found");
        let missing: Vec<String> = wanted
            .iter()
            .filter(|(rel, line)| {
                let text = std::fs::read_to_string(root.join(rel)).expect(rel);
                !text.lines().any(|l| l.trim() == *line)
            })
            .map(|(rel, line)| format!("{rel}: {line}"))
            .collect();
        assert!(
            missing.is_empty(),
            "clippy settings missing:\n{}",
            missing.join("\n")
        );
    }

    #[test]
    fn lint_run_on_this_workspace_is_clean() {
        // The repo's own acceptance criterion: the shipped tree lints
        // clean against the shipped allowlist, with no stale entries.
        let root = find_workspace_root().expect("workspace root");
        let report = run_lint(&root, &root.join("lint.toml")).expect("lint run");
        let rendered: Vec<String> = report
            .findings
            .iter()
            .map(|f| {
                format!(
                    "{}:{}: {}: {} [{}]",
                    f.rel, f.line, f.rule, f.excerpt, f.detail
                )
            })
            .collect();
        assert!(
            report.findings.is_empty(),
            "prvm-lint reports findings on the shipped tree:\n{}",
            rendered.join("\n")
        );
        assert!(
            report.stale.is_empty(),
            "stale allowlist entries:\n{}",
            report.stale.join("\n")
        );
    }

    #[test]
    fn lexer_reassembly_is_lossless_on_every_workspace_file() {
        // Satellite guarantee: lex → reassemble reproduces every real
        // source file byte-for-byte (the proptest in lex_lossless.rs
        // covers synthetic inputs; this covers the shipped tree).
        let root = find_workspace_root().expect("workspace root");
        let files = collect_sources(&root).expect("collect");
        assert!(files.len() > 40, "workspace scan looks truncated");
        for f in &files {
            let path = root.join(&f.rel);
            let text = std::fs::read_to_string(&path).expect("read");
            let reassembled: String = f.tokens.iter().map(|t| t.text.as_str()).collect();
            assert!(
                reassembled == text,
                "lossless reassembly failed for {}",
                f.rel
            );
        }
    }
}
