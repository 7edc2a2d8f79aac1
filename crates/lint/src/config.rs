//! `lint.toml` parsing: rule configuration sections plus the allowlist.
//!
//! The file stays hand-parseable (no TOML dependency) with two line
//! shapes:
//!
//! ```text
//! [rule.D001]                      # opens a rule's config section
//! roots = pagerank, Placer::choose # comma-separated value list
//!
//! P001 | crates/core/src/graph.rs | &self.nodes[ix(id)] | reason…
//! ```
//!
//! Pipe lines are allowlist entries wherever they appear; `key = v, v`
//! lines belong to the most recent `[rule.XXX]` header. Scoped roots
//! and exemptions therefore live next to the exceptions they justify,
//! and rules never hardcode paths.

use crate::allowlist::{self, Entry};
use std::collections::BTreeMap;

/// Parsed rule configuration: `rule id → key → values`.
#[derive(Debug, Default)]
pub struct Config {
    sections: BTreeMap<String, BTreeMap<String, Vec<String>>>,
}

impl Config {
    /// The value list for `rule.key`, empty when absent.
    pub fn list(&self, rule: &str, key: &str) -> &[String] {
        self.sections
            .get(rule)
            .and_then(|s| s.get(key))
            .map_or(&[], Vec::as_slice)
    }

    /// Membership test against `rule.key`.
    #[cfg(test)]
    pub fn contains(&self, rule: &str, key: &str, value: &str) -> bool {
        self.list(rule, key).iter().any(|v| v == value)
    }

    #[cfg(test)]
    pub fn set(&mut self, rule: &str, key: &str, values: &[&str]) {
        self.sections.entry(rule.to_string()).or_default().insert(
            key.to_string(),
            values.iter().map(|v| (*v).to_string()).collect(),
        );
    }
}

/// Parse the full `lint.toml`: config sections and allowlist entries.
pub fn parse(text: &str) -> Result<(Config, Vec<Entry>), String> {
    let mut config = Config::default();
    let mut entries = Vec::new();
    let mut section: Option<String> = None;
    for (n, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some(header) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
            let rule = header.strip_prefix("rule.").ok_or_else(|| {
                format!(
                    "lint.toml:{}: section `[{header}]` must be `[rule.XXX]`",
                    n + 1
                )
            })?;
            section = Some(rule.to_string());
            config.sections.entry(rule.to_string()).or_default();
            continue;
        }
        if line.contains('|') {
            entries.push(allowlist::parse_entry(line, n + 1)?);
            continue;
        }
        if let Some((key, values)) = line.split_once('=') {
            let Some(rule) = &section else {
                return Err(format!(
                    "lint.toml:{}: `key = values` outside any [rule.XXX] section",
                    n + 1
                ));
            };
            let values: Vec<String> = values
                .split(',')
                .map(str::trim)
                .filter(|v| !v.is_empty())
                .map(str::to_string)
                .collect();
            config
                .sections
                .get_mut(rule)
                .expect("section inserted at header")
                .insert(key.trim().to_string(), values);
            continue;
        }
        return Err(format!(
            "lint.toml:{}: expected a `[rule.XXX]` header, `key = values`, or a \
             `RULE | file | substring | reason` allowlist line",
            n + 1
        ));
    }
    allowlist::check_duplicates(&entries)?;
    Ok((config, entries))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sections_and_allowlist_coexist() {
        let text = "\
# comment
[rule.D001]
roots = pagerank, ProfileGraph::build
crates = core

[rule.D002]
exempt_crates = obs, bench

P001 | crates/core/src/graph.rs | nodes[ix(id)] | audited accessor
";
        let (cfg, entries) = parse(text).unwrap();
        assert_eq!(
            cfg.list("D001", "roots"),
            ["pagerank", "ProfileGraph::build"]
        );
        assert!(cfg.contains("D002", "exempt_crates", "obs"));
        assert!(!cfg.contains("D002", "exempt_crates", "core"));
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].rule, "P001");
    }

    #[test]
    fn malformed_lines_are_rejected() {
        assert!(parse("[wrong-section]\n").is_err());
        assert!(parse("key = value\n").is_err()); // outside a section
        assert!(parse("free text\n").is_err());
        assert!(parse("P001 | a | b\n").is_err()); // 3 fields
    }

    #[test]
    fn missing_keys_read_as_empty() {
        let (cfg, _) = parse("[rule.D004]\n").unwrap();
        assert!(cfg.list("D004", "roots").is_empty());
        assert!(cfg.list("P001", "root_crates").is_empty());
    }
}
