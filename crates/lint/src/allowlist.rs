//! The `lint.toml` allowlist: plain-text, one justified finding per line.
//!
//! Format (pipe-separated, `#` starts a comment line):
//!
//! ```text
//! P001 | crates/model/src/cluster.rs | location map and PM state agree | struct invariant …
//! ```
//!
//! Fields: rule id, file path (suffix match), a substring of the offending
//! source line (robust to line-number drift), and a mandatory one-line
//! reason. An entry suppresses every finding it matches. Entries that
//! match nothing are **errors** (see [`stale`]) so the file cannot
//! accumulate dead exceptions — `--allow-stale` downgrades them to
//! warnings for mid-refactor runs. Duplicate entries are rejected at
//! parse time.

use crate::rules::Finding;

/// One parsed allowlist entry.
#[derive(Debug)]
pub struct Entry {
    /// Rule id the entry applies to (`L003`, `D001`, `P001`, …).
    pub rule: String,
    /// Path suffix the finding's file must match.
    pub file: String,
    /// Substring of the raw source line.
    pub contains: String,
    /// Human justification (mandatory).
    pub reason: String,
    /// 1-based line in lint.toml, for diagnostics.
    pub line: usize,
    /// How many findings this entry suppressed.
    pub hits: usize,
}

/// Parse one `RULE | file | substring | reason` line (`n` is 1-based).
pub fn parse_entry(line: &str, n: usize) -> Result<Entry, String> {
    let parts: Vec<&str> = line.split('|').map(str::trim).collect();
    if parts.len() != 4 {
        return Err(format!(
            "lint.toml:{n}: expected `RULE | file | line-substring | reason`, got {} field(s)",
            parts.len()
        ));
    }
    if parts.iter().any(|p| p.is_empty()) {
        return Err(format!(
            "lint.toml:{n}: all four fields (including the reason) must be non-empty"
        ));
    }
    Ok(Entry {
        rule: parts[0].to_string(),
        file: parts[1].to_string(),
        contains: parts[2].to_string(),
        reason: parts[3].to_string(),
        line: n,
        hits: 0,
    })
}

/// Parse allowlist-only text (entries and comments, no config sections).
#[cfg(test)]
pub fn parse(text: &str) -> Result<Vec<Entry>, String> {
    let mut entries = Vec::new();
    for (n, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        entries.push(parse_entry(line, n + 1)?);
    }
    check_duplicates(&entries)?;
    Ok(entries)
}

/// Reject entries whose (rule, file, substring) triple repeats: the
/// second copy can only ever be stale.
pub fn check_duplicates(entries: &[Entry]) -> Result<(), String> {
    for (i, a) in entries.iter().enumerate() {
        for b in &entries[i + 1..] {
            if a.rule == b.rule && a.file == b.file && a.contains == b.contains {
                return Err(format!(
                    "lint.toml:{}: duplicate of entry at line {} ({} | {} | {})",
                    b.line, a.line, a.rule, a.file, a.contains
                ));
            }
        }
    }
    Ok(())
}

/// True (and records the hit) if some entry covers `finding`.
pub fn allows(entries: &mut [Entry], finding: &Finding) -> bool {
    for e in entries.iter_mut() {
        if e.rule == finding.rule
            && finding.rel.ends_with(&e.file)
            && finding.excerpt.contains(&e.contains)
        {
            e.hits += 1;
            return true;
        }
    }
    false
}

/// Entries that suppressed nothing this run — each one is a dead
/// exception and (without `--allow-stale`) an error.
pub fn stale(entries: &[Entry]) -> Vec<&Entry> {
    entries.iter().filter(|e| e.hits == 0).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(rule: &'static str, rel: &str, excerpt: &str) -> Finding {
        Finding {
            rule,
            rel: rel.to_string(),
            line: 1,
            excerpt: excerpt.to_string(),
            hint: "",
            detail: String::new(),
        }
    }

    #[test]
    fn parses_and_matches() {
        let text =
            "# comment\n\nP001 | crates/model/src/cluster.rs | state agree | struct invariant\n";
        let mut entries = parse(text).unwrap();
        assert_eq!(entries.len(), 1);
        let f = finding(
            "P001",
            "crates/model/src/cluster.rs",
            ".expect(\"location map and PM state agree\")",
        );
        assert!(allows(&mut entries, &f));
        assert_eq!(entries[0].hits, 1);
        let other = finding("L003", "crates/model/src/cluster.rs", "state agree");
        assert!(!allows(&mut entries, &other));
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(parse("P001 | file | substring\n").is_err());
        assert!(parse("P001 | file | substring | \n").is_err());
    }

    #[test]
    fn used_entries_are_not_stale() {
        let mut entries = parse("P001 | graph.rs | nodes[ix(id)] | audited\n").unwrap();
        let f = finding("P001", "crates/core/src/graph.rs", "&self.nodes[ix(id)]");
        assert!(allows(&mut entries, &f));
        assert!(stale(&entries).is_empty());
    }

    #[test]
    fn unused_entries_are_stale() {
        let mut entries = parse(
            "P001 | graph.rs | nodes[ix(id)] | audited\n\
             P001 | graph.rs | long_gone_line | removed in a refactor\n",
        )
        .unwrap();
        let f = finding("P001", "crates/core/src/graph.rs", "&self.nodes[ix(id)]");
        assert!(allows(&mut entries, &f));
        let dead = stale(&entries);
        assert_eq!(dead.len(), 1);
        assert_eq!(dead[0].contains, "long_gone_line");
        assert_eq!(dead[0].line, 2);
    }

    #[test]
    fn duplicate_entries_are_a_parse_error() {
        let err = parse(
            "P001 | graph.rs | nodes[ix(id)] | audited\n\
             P001 | graph.rs | nodes[ix(id)] | audited again\n",
        )
        .unwrap_err();
        assert!(err.contains("duplicate"), "got: {err}");
        assert!(err.contains("lint.toml:2"), "got: {err}");
    }

    #[test]
    fn same_substring_for_different_rules_is_not_duplicate() {
        let entries = parse(
            "D001 | graph.rs | nodes[ix(id)] | audited iteration\n\
             P001 | graph.rs | nodes[ix(id)] | audited panic surface\n",
        )
        .unwrap();
        assert_eq!(entries.len(), 2);
    }
}
