//! Human-readable tables and the one-line JSON result.

use std::fmt::Write as _;

use crate::run::{Metric, Outcome};

/// A number as JSON: integers as integers, other finite values in full
/// (shortest round-trip) precision, non-finite values as 0.
fn json_number(v: f64) -> String {
    if !v.is_finite() {
        "0".to_string()
    } else if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

fn table(out: &mut String, title: &str, rows: &[Metric]) {
    let _ = writeln!(out, "{title}");
    for r in rows {
        let _ = writeln!(
            out,
            "  {:<32} {:>18} {}",
            r.name,
            fmt_value(r.value),
            r.unit
        );
    }
}

fn fmt_value(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else if v.abs() >= 100.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.4}")
    }
}

/// The human-readable report: end-to-end metrics (with `failed_ratio`),
/// exact counters, and the per-layer ledger when traced.
pub fn text(o: &Outcome) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "perfbench {} seed {}", o.workload.name(), o.seed);
    for note in &o.notes {
        let _ = writeln!(out, "  note: {note}");
    }
    let mut e2e = o.end_to_end.clone();
    e2e.push(Metric {
        name: "failed_ratio".into(),
        value: o.failed as f64 / o.attempted.max(1) as f64,
        unit: "-",
    });
    table(&mut out, "end-to-end (host time, timed pass)", &e2e);
    table(
        &mut out,
        "exact counters (deterministic per seed)",
        &o.exact,
    );
    if !o.ledger.is_empty() {
        let host: Vec<Metric> = o
            .ledger
            .iter()
            .filter(|x| !o.exact.iter().any(|e| e.name == x.name))
            .cloned()
            .collect();
        table(&mut out, "per-layer ledger (host time, traced pass)", &host);
        let _ = writeln!(out, "  ({} bench spans recorded)", o.spans.len());
    }
    out
}

/// The result line: `correct`, `attempted`, `failed`, and `metrics`
/// (end-to-end metrics, or the per-layer ledger when `trace`).
pub fn json(o: &Outcome, trace: bool) -> String {
    let metrics = if trace { &o.ledger } else { &o.end_to_end };
    let body: Vec<String> = metrics
        .iter()
        .map(|x| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                x.name,
                json_number(x.value),
                x.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.correct(),
        o.attempted,
        o.failed,
        body.join(", ")
    )
}
