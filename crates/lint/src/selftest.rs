//! `--self-test`: prove the engine still catches seeded violations.
//!
//! Writes a synthetic workspace into a temp directory with exactly one
//! deliberate violation per rule (L003, L007, L008, D001–D005, P001), runs the
//! full lint pipeline on it with an empty allowlist, and fails unless
//! *every* rule in the `RULES` table fires — a rule added without a
//! seeded violation fails the self-test. This is the acceptance check
//! that a refactor of the lexer/call-graph stack cannot silently
//! lobotomise a rule: CI runs it next to the clean-tree check, so "zero
//! findings" always means "zero findings from a detector that
//! demonstrably detects".

use crate::rules::RULES;
use std::path::{Path, PathBuf};

const SELFTEST_TOML: &str = "\
[rule.D001]
roots = pagerank
crates = core

[rule.D002]
exempt_crates = obs, bench, testbed, solver, cli, lint

[rule.D003]
roots = pagerank
crates = core

[rule.D004]
home_crate = par
exempt_crates = bench, cli, testbed, lint

[rule.D005]
roots = handle
crates = sim

[rule.P001]
root_crates = core, sim

[rule.L008]
types = ScoreBook
";

/// Hot-path file seeding L007, D001 and D003.
const CORE_PAGERANK: &str = r#"//! Seeded violations: every line here is a deliberate lint target.
use std::collections::HashMap;

pub fn pagerank(map: &HashMap<u64, f64>, xs: &[f64]) -> f64 {
    let mut acc = 0.0;
    for (_k, val) in map.iter() {
        acc += val;
    }
    let partial: f64 = xs.iter().sum::<f64>();
    let a = acc + partial;
    let b = a * 2.0;
    let c = b - 1.0;
    let d = c.max(0.0);
    let e = d.min(1.0e9);
    let f = e + 0.5;
    let g = f * f;
    let h = g.sqrt();
    h + 1.0
}
"#;

/// Seeds L008 and P001. P001's only seed is an index in a private helper
/// that only a trait-impl method calls, so it fires only while such
/// methods count as API roots.
const CORE_LIB: &str = "\
pub mod pagerank;

pub struct ScoreBook {
    pub scores: Vec<f64>,
}

pub trait Placer {
    fn choose(&self, v: &[u64], i: usize) -> u64;
}

impl Placer for ScoreBook {
    fn choose(&self, v: &[u64], i: usize) -> u64 {
        pick(v, i)
    }
}

fn pick(v: &[u64], i: usize) -> u64 {
    v[i]
}
";

/// Sim crate seeding D002, D004, D005 and L003.
const SIM_LIB: &str = "\
pub fn simulate(pool: &Pool, m: Mhz) -> f64 {
    let started = std::time::Instant::now();
    let wide = pool.threads() > 1;
    let raw = m.get() as f64;
    drop((started, wide));
    raw
}

pub fn handle(pool: &Pool) {
    pool.spawn(drop);
}
";

/// Run the self-test; `Ok` with the rule count when every rule fired.
pub fn run() -> Result<usize, String> {
    let root = std::env::temp_dir().join(format!("prvm-lint-selftest-{}", std::process::id()));
    let result = seeded_run(&root);
    let _ = std::fs::remove_dir_all(&root); // best-effort cleanup
    let fired = result?;
    let missing: Vec<&str> = RULES
        .iter()
        .map(|r| r.id)
        .filter(|id| !fired.iter().any(|f| f == id))
        .collect();
    if missing.is_empty() {
        Ok(RULES.len())
    } else {
        Err(format!(
            "self-test FAILED: seeded violations for {} went undetected (fired: {})",
            missing.join(", "),
            fired.join(", ")
        ))
    }
}

/// Write the seeded tree and lint it; returns the fired rule ids.
fn seeded_run(root: &Path) -> Result<Vec<String>, String> {
    write(root, "lint.toml", SELFTEST_TOML)?;
    write(root, "crates/core/src/lib.rs", CORE_LIB)?;
    write(root, "crates/core/src/pagerank.rs", CORE_PAGERANK)?;
    write(root, "crates/sim/src/lib.rs", SIM_LIB)?;
    let report = crate::run_lint(root, &root.join("lint.toml"))?;
    let mut fired: Vec<String> = report.findings.iter().map(|f| f.rule.to_string()).collect();
    fired.sort();
    fired.dedup();
    Ok(fired)
}

fn write(root: &Path, rel: &str, text: &str) -> Result<(), String> {
    let path: PathBuf = root.join(rel);
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_tree_trips_every_rule() {
        let root =
            std::env::temp_dir().join(format!("prvm-lint-selftest-unit-{}", std::process::id()));
        let result = seeded_run(&root);
        let _ = std::fs::remove_dir_all(&root);
        let fired = result.expect("seeded run");
        for rule in RULES {
            assert!(
                fired.iter().any(|f| f == rule.id),
                "{} did not fire; fired: {fired:?}",
                rule.id
            );
        }
    }
}
