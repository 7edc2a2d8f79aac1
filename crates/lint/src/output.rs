//! Machine-readable finding output: `--format json` and `--format sarif`.
//!
//! Both formats are built as `serde::Value` trees (the vendored offline
//! serde stand-in) and encoded by `serde_json` — hand-assembled rather
//! than derived so keys like `$schema` and the SARIF nesting don't
//! depend on derive-macro features the stub lacks. The SARIF output is
//! the minimal 2.1.0 subset GitHub code scanning ingests for PR
//! annotations: tool driver + rule metadata, and one result per finding
//! with a physical location.

use crate::rules::{Finding, RULES};
use serde::Value;

fn obj(pairs: Vec<(&str, Value)>) -> Value {
    Value::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn s(text: &str) -> Value {
    Value::Str(text.to_string())
}

fn finding_value(f: &Finding) -> Value {
    obj(vec![
        ("rule", s(f.rule)),
        ("file", s(&f.rel)),
        ("line", Value::UInt(f.line as u64)),
        ("excerpt", s(&f.excerpt)),
        ("hint", s(f.hint)),
        ("detail", s(&f.detail)),
    ])
}

/// The `--format json` document.
pub fn to_json(findings: &[Finding], scanned: usize, allowlisted: usize) -> String {
    let doc = obj(vec![
        ("schema", s("prvm-lint/v1")),
        (
            "findings",
            Value::Array(findings.iter().map(finding_value).collect()),
        ),
        ("scanned", Value::UInt(scanned as u64)),
        ("allowlisted", Value::UInt(allowlisted as u64)),
    ]);
    serde_json::to_string_pretty(&doc).unwrap_or_else(|e| {
        // The Value tree contains no NaN/Inf; encoding cannot fail.
        unreachable!("JSON encoding of a finite Value tree failed: {e}")
    })
}

/// The `--format sarif` document (SARIF 2.1.0, GitHub-ingestible).
pub fn to_sarif(findings: &[Finding]) -> String {
    let rules: Vec<Value> = RULES
        .iter()
        .map(|rule| {
            obj(vec![
                ("id", s(rule.id)),
                ("shortDescription", obj(vec![("text", s(rule.description))])),
            ])
        })
        .collect();
    let results: Vec<Value> = findings
        .iter()
        .map(|f| {
            let message = if f.detail.is_empty() {
                format!("{} — {}", f.excerpt, f.hint)
            } else {
                format!("{} — {} ({})", f.excerpt, f.hint, f.detail)
            };
            obj(vec![
                ("ruleId", s(f.rule)),
                ("level", s("error")),
                ("message", obj(vec![("text", s(&message))])),
                (
                    "locations",
                    Value::Array(vec![obj(vec![(
                        "physicalLocation",
                        obj(vec![
                            ("artifactLocation", obj(vec![("uri", s(&f.rel))])),
                            (
                                "region",
                                obj(vec![("startLine", Value::UInt(f.line as u64))]),
                            ),
                        ]),
                    )])]),
                ),
            ])
        })
        .collect();
    let doc = obj(vec![
        (
            "$schema",
            s("https://json.schemastore.org/sarif-2.1.0.json"),
        ),
        ("version", s("2.1.0")),
        (
            "runs",
            Value::Array(vec![obj(vec![
                (
                    "tool",
                    obj(vec![(
                        "driver",
                        obj(vec![
                            ("name", s("prvm-lint")),
                            ("version", s(env!("CARGO_PKG_VERSION"))),
                            ("rules", Value::Array(rules)),
                        ]),
                    )]),
                ),
                ("results", Value::Array(results)),
            ])]),
        ),
    ]);
    serde_json::to_string_pretty(&doc)
        .unwrap_or_else(|e| unreachable!("SARIF encoding of a finite Value tree failed: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn synthetic() -> Vec<Finding> {
        vec![
            Finding {
                rule: "D001",
                rel: "crates/core/src/graph.rs".into(),
                line: 42,
                excerpt: "for (k, v) in self.index.iter() {".into(),
                hint: "use BTreeMap",
                detail: "reachable via ProfileGraph::build → walk".into(),
            },
            Finding {
                rule: "P001",
                rel: "crates/sim/src/engine.rs".into(),
                line: 7,
                excerpt: "let x = v[i];".into(),
                hint: "use .get()",
                detail: "slice indexing reachable via simulate".into(),
            },
        ]
    }

    #[test]
    fn json_round_trips_through_the_vendored_parser() {
        let text = to_json(&synthetic(), 80, 9);
        let doc: Value = serde_json::from_str(&text).expect("parse back");
        assert_eq!(doc.field("schema").unwrap(), &s("prvm-lint/v1"));
        assert_eq!(doc.field("scanned").unwrap().as_u64().unwrap(), 80);
        assert_eq!(doc.field("allowlisted").unwrap().as_u64().unwrap(), 9);
        let Value::Array(findings) = doc.field("findings").unwrap() else {
            panic!("findings must be an array");
        };
        assert_eq!(findings.len(), 2);
        assert_eq!(findings[0].field("rule").unwrap(), &s("D001"));
        assert_eq!(findings[0].field("line").unwrap().as_u64().unwrap(), 42);
        assert!(matches!(
            findings[1].field("detail").unwrap(),
            Value::Str(d) if d.contains("simulate")
        ));
    }

    #[test]
    fn sarif_round_trips_with_schema_and_locations() {
        let text = to_sarif(&synthetic());
        let doc: Value = serde_json::from_str(&text).expect("parse back");
        assert!(matches!(
            doc.field("$schema").unwrap(),
            Value::Str(u) if u.contains("sarif-2.1.0")
        ));
        assert_eq!(doc.field("version").unwrap(), &s("2.1.0"));
        let Value::Array(runs) = doc.field("runs").unwrap() else {
            panic!("runs must be an array");
        };
        let driver = runs[0].field("tool").unwrap().field("driver").unwrap();
        assert_eq!(driver.field("name").unwrap(), &s("prvm-lint"));
        let Value::Array(rules) = driver.field("rules").unwrap() else {
            panic!("rules must be an array");
        };
        assert_eq!(rules.len(), RULES.len());
        let Value::Array(results) = runs[0].field("results").unwrap() else {
            panic!("results must be an array");
        };
        assert_eq!(results.len(), 2);
        let loc = &results[1].field("locations").unwrap();
        let Value::Array(locs) = loc else {
            panic!("locations must be an array")
        };
        let phys = locs[0].field("physicalLocation").unwrap();
        assert_eq!(
            phys.field("artifactLocation")
                .unwrap()
                .field("uri")
                .unwrap(),
            &s("crates/sim/src/engine.rs")
        );
        assert_eq!(
            phys.field("region")
                .unwrap()
                .field("startLine")
                .unwrap()
                .as_u64()
                .unwrap(),
            7
        );
    }

    #[test]
    fn empty_finding_set_is_valid_output() {
        let json = to_json(&[], 80, 9);
        let doc: Value = serde_json::from_str(&json).expect("parse");
        assert!(matches!(doc.field("findings").unwrap(), Value::Array(a) if a.is_empty()));
        let sarif = to_sarif(&[]);
        let doc: Value = serde_json::from_str(&sarif).expect("parse");
        let Value::Array(runs) = doc.field("runs").unwrap() else {
            panic!()
        };
        assert!(matches!(runs[0].field("results").unwrap(), Value::Array(a) if a.is_empty()));
    }
}
