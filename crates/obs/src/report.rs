//! Run-report rendering: summarize a recorded JSONL event log (the
//! `pagerankvm report` subcommand) into per-phase wall-time breakdowns
//! and convergence diagnostics.

use serde::{Deserialize, Serialize, Value};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::BufRead;

/// Aggregated wall time for one span path, from `span_end` events.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PhaseAgg {
    pub name: String,
    pub count: u64,
    pub total_ns: u64,
}

/// Convergence record of one PageRank invocation, from
/// `pagerank.iteration` / `pagerank.done` events.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PagerankRun {
    pub run: u64,
    pub iterations: u64,
    /// False both for max-iters runs and for logs truncated before the
    /// `pagerank.done` event.
    pub converged: bool,
    pub final_residual: f64,
}

/// Everything `pagerankvm report` reconstructs from an event log.
///
/// Serializes to JSON for `pagerankvm report --format json`, so other
/// tooling can consume the breakdown without re-parsing the event log.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReportSummary {
    /// Total events in the log.
    pub events: u64,
    /// Wall time by span path, largest total first.
    pub phases: Vec<PhaseAgg>,
    /// PageRank invocations in run order.
    pub pagerank: Vec<PagerankRun>,
    /// Events per name, alphabetical.
    pub event_counts: Vec<(String, u64)>,
}

fn as_bool(value: &Value) -> Option<bool> {
    match value {
        Value::Bool(b) => Some(*b),
        _ => None,
    }
}

/// Reconstruct a [`ReportSummary`] from a JSONL event log.
///
/// # Errors
///
/// Fails on I/O errors or lines that are not valid event objects
/// (reported with their line number); blank lines are skipped.
pub fn summarize_events(reader: impl BufRead) -> Result<ReportSummary, String> {
    let mut events = 0u64;
    let mut event_counts: BTreeMap<String, u64> = BTreeMap::new();
    let mut phases: BTreeMap<String, (u64, u64)> = BTreeMap::new();
    // run -> (iterations, converged, final residual)
    let mut runs: BTreeMap<u64, (u64, bool, f64)> = BTreeMap::new();

    for (idx, line) in reader.lines().enumerate() {
        let line = line.map_err(|e| format!("line {}: read error: {e}", idx + 1))?;
        if line.trim().is_empty() {
            continue;
        }
        let entry: Value = serde_json::from_str(&line)
            .map_err(|e| format!("line {}: invalid JSON: {e}", idx + 1))?;
        let name = match entry.field("name") {
            Ok(Value::Str(name)) => name.clone(),
            _ => return Err(format!("line {}: event has no name", idx + 1)),
        };
        events += 1;
        *event_counts.entry(name.clone()).or_insert(0) += 1;
        let null = Value::Null;
        let fields = entry.field("fields").unwrap_or(&null);
        match name.as_str() {
            "span_end" => {
                let span = match fields.field("span") {
                    Ok(Value::Str(span)) => span.clone(),
                    _ => continue,
                };
                let ns = fields
                    .field("duration_ns")
                    .and_then(Value::as_u64)
                    .unwrap_or(0);
                let slot = phases.entry(span).or_insert((0, 0));
                slot.0 += 1;
                slot.1 = slot.1.saturating_add(ns);
            }
            "pagerank.iteration" => {
                let run = fields.field("run").and_then(Value::as_u64).unwrap_or(0);
                let iter = fields.field("iter").and_then(Value::as_u64).unwrap_or(0);
                let residual = fields
                    .field("residual")
                    .and_then(Value::as_f64)
                    .unwrap_or(f64::NAN);
                let slot = runs.entry(run).or_insert((0, false, f64::NAN));
                slot.0 = slot.0.max(iter);
                slot.2 = residual;
            }
            "pagerank.done" => {
                let run = fields.field("run").and_then(Value::as_u64).unwrap_or(0);
                let slot = runs.entry(run).or_insert((0, false, f64::NAN));
                if let Ok(n) = fields.field("iterations").and_then(Value::as_u64) {
                    slot.0 = n;
                }
                slot.1 = fields
                    .field("converged")
                    .ok()
                    .and_then(as_bool)
                    .unwrap_or(false);
                if let Ok(r) = fields.field("residual").and_then(Value::as_f64) {
                    slot.2 = r;
                }
            }
            _ => {}
        }
    }

    let mut phases: Vec<PhaseAgg> = phases
        .into_iter()
        .map(|(name, (count, total_ns))| PhaseAgg {
            name,
            count,
            total_ns,
        })
        .collect();
    phases.sort_by(|a, b| b.total_ns.cmp(&a.total_ns).then(a.name.cmp(&b.name)));

    Ok(ReportSummary {
        events,
        phases,
        pagerank: runs
            .into_iter()
            .map(
                |(run, (iterations, converged, final_residual))| PagerankRun {
                    run,
                    iterations,
                    converged,
                    final_residual,
                },
            )
            .collect(),
        event_counts: event_counts.into_iter().collect(),
    })
}

/// Nanoseconds as a human-scale duration.
fn fmt_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.0} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.1} µs", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.1} ms", ns / 1_000_000.0)
    } else {
        format!("{:.2} s", ns / 1_000_000_000.0)
    }
}

fn phase_table(out: &mut String, rows: &[(String, u64, f64)]) {
    // Share is relative to the root spans (paths without '/'), so
    // nested phases read as fractions of their run.
    let root_total: f64 = rows
        .iter()
        .filter(|(name, _, _)| !name.contains('/'))
        .map(|(_, _, total)| total)
        .sum();
    let denom = if root_total > 0.0 {
        root_total
    } else {
        rows.iter().map(|(_, _, total)| total).sum::<f64>().max(1.0)
    };
    let _ = writeln!(
        out,
        "  {:<32} {:>8} {:>12} {:>12} {:>7}",
        "phase", "count", "total", "mean", "share"
    );
    for (name, count, total_ns) in rows {
        let mean = if *count == 0 {
            0.0
        } else {
            total_ns / *count as f64
        };
        let _ = writeln!(
            out,
            "  {:<32} {:>8} {:>12} {:>12} {:>6.1}%",
            name,
            count,
            fmt_ns(*total_ns),
            fmt_ns(mean),
            100.0 * total_ns / denom
        );
    }
}

/// Render the `pagerankvm report` output for a summarized event log.
pub fn render_report(summary: &ReportSummary) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "events: {}", summary.events);

    if !summary.phases.is_empty() {
        let _ = writeln!(out, "\nphase breakdown");
        let rows: Vec<(String, u64, f64)> = summary
            .phases
            .iter()
            .map(|p| (p.name.clone(), p.count, p.total_ns as f64))
            .collect();
        phase_table(&mut out, &rows);
    }

    if !summary.pagerank.is_empty() {
        let _ = writeln!(out, "\npagerank convergence");
        for run in &summary.pagerank {
            if run.converged {
                let _ = writeln!(
                    out,
                    "  run {}: converged in {} iterations, final residual {:.3e}",
                    run.run, run.iterations, run.final_residual
                );
            } else {
                let _ = writeln!(
                    out,
                    "  run {}: NOT CONVERGED after {} iterations, final residual {:.3e}",
                    run.run, run.iterations, run.final_residual
                );
            }
        }
    }

    if !summary.event_counts.is_empty() {
        let _ = writeln!(out, "\nevent counts");
        for (name, count) in &summary.event_counts {
            let _ = writeln!(out, "  {name:<32} {count:>8}");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn sample_log() -> String {
        [
            r#"{"seq":1,"ts_s":0.001,"name":"graph.built","span":"place/graph_build","fields":{"nodes":10,"edges":20}}"#,
            r#"{"seq":2,"ts_s":0.002,"name":"span_end","span":"place","fields":{"span":"place/graph_build","duration_ns":2000000}}"#,
            r#"{"seq":3,"ts_s":0.003,"name":"pagerank.iteration","span":"place/pagerank","fields":{"run":1,"iter":1,"residual":0.5}}"#,
            r#"{"seq":4,"ts_s":0.004,"name":"pagerank.iteration","span":"place/pagerank","fields":{"run":1,"iter":2,"residual":0.01}}"#,
            r#"{"seq":5,"ts_s":0.005,"name":"pagerank.done","span":"place/pagerank","fields":{"run":1,"iterations":2,"converged":true,"residual":0.01}}"#,
            r#"{"seq":6,"ts_s":0.006,"name":"span_end","span":"place","fields":{"span":"place/pagerank","duration_ns":1000000}}"#,
            r#"{"seq":7,"ts_s":0.007,"name":"span_end","span":null,"fields":{"span":"place","duration_ns":4000000}}"#,
        ]
        .join("\n")
    }

    #[test]
    fn summarize_reconstructs_phases_and_convergence() {
        let summary = summarize_events(Cursor::new(sample_log())).expect("valid log");
        assert_eq!(summary.events, 7);
        assert_eq!(summary.phases.len(), 3);
        // Sorted by total time: the root span leads.
        assert_eq!(summary.phases[0].name, "place");
        assert_eq!(summary.phases[0].total_ns, 4_000_000);
        assert_eq!(summary.pagerank.len(), 1);
        let run = &summary.pagerank[0];
        assert_eq!(run.iterations, 2);
        assert!(run.converged);
        assert!((run.final_residual - 0.01).abs() < 1e-12);
        assert_eq!(
            summary
                .event_counts
                .iter()
                .find(|(n, _)| n == "span_end")
                .map(|(_, c)| *c),
            Some(3)
        );
    }

    #[test]
    fn truncated_log_reports_non_convergence() {
        // No pagerank.done event: the run must not read as converged.
        let log = r#"{"seq":1,"ts_s":0.0,"name":"pagerank.iteration","span":null,"fields":{"run":3,"iter":7,"residual":0.2}}"#;
        let summary = summarize_events(Cursor::new(log)).expect("valid log");
        assert_eq!(summary.pagerank.len(), 1);
        assert_eq!(summary.pagerank[0].run, 3);
        assert_eq!(summary.pagerank[0].iterations, 7);
        assert!(!summary.pagerank[0].converged);
    }

    #[test]
    fn invalid_lines_are_rejected_with_position() {
        let err = summarize_events(Cursor::new("not json")).unwrap_err();
        assert!(err.contains("line 1"), "{err}");
        let log = format!(
            "{}\n{{\"no_name\":1}}",
            sample_log().lines().next().unwrap()
        );
        let err = summarize_events(Cursor::new(log)).unwrap_err();
        assert!(err.contains("line 2"), "{err}");
    }

    #[test]
    fn render_mentions_convergence_and_phases() {
        let summary = summarize_events(Cursor::new(sample_log())).expect("valid log");
        let text = render_report(&summary);
        assert!(text.contains("phase breakdown"));
        assert!(text.contains("place/pagerank"));
        assert!(text.contains("converged in 2 iterations"));
        assert!(text.contains("events: 7"));
    }

    /// The JSON form of a summary (`report --format json`) round-trips
    /// losslessly — finite residuals only, since JSON has no NaN.
    #[test]
    fn summary_round_trips_through_json() {
        let summary = summarize_events(Cursor::new(sample_log())).expect("valid log");
        let json = serde_json::to_string(&summary).expect("serializes");
        let back: ReportSummary = serde_json::from_str(&json).expect("deserializes");
        assert_eq!(back, summary);
        assert!(json.contains("\"phases\""), "{json}");
        assert!(json.contains("place/pagerank"), "{json}");
    }
}
