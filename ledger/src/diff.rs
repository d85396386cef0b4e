//! `naiad-bench diff <a.json> <b.json>`: compares two result files row by
//! row. A bounded (end-to-end) row is `worse` or `better` only when its
//! median moved by more than the metric's bound *and* the two files'
//! recorded min–max ranges do not overlap; a move past the bound inside
//! overlapping ranges is `unresolved`, not `unchanged`.

use std::collections::BTreeMap;
use std::path::Path;

use crate::runner::{read_rows, Row};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Worse,
    Within,
    Unresolved,
    /// Per-layer rows carry no bound; the change is shown, not judged.
    Info,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Within => "within",
            Verdict::Unresolved => "unresolved",
            Verdict::Info => "-",
        }
    }
}

/// How much worse `b` is than `a`, as a share of `a`'s median: positive
/// is worse whichever direction the metric improves in.
fn worsening(a: &Row, b: &Row) -> f64 {
    let change =
        (b.summary.median - a.summary.median) / a.summary.median.abs().max(f64::MIN_POSITIVE);
    if a.direction == "lower" {
        change
    } else {
        -change
    }
}

pub fn judge(a: &Row, b: &Row) -> Verdict {
    let Some(bound) = a.bound else {
        return Verdict::Info;
    };
    let worse_by = worsening(a, b);
    if worse_by.abs() <= bound {
        return Verdict::Within;
    }
    let overlap = a.summary.min <= b.summary.max && b.summary.min <= a.summary.max;
    match (overlap, worse_by > 0.0) {
        (true, _) => Verdict::Unresolved,
        (false, true) => Verdict::Worse,
        (false, false) => Verdict::Better,
    }
}

/// Prints the comparison; returns whether any row is `worse`.
pub fn run(a_path: &Path, b_path: &Path) -> Result<bool, String> {
    let index = |rows: Vec<Row>| -> BTreeMap<(String, String), Row> {
        rows.into_iter()
            .map(|r| ((r.workload.clone(), r.metric.clone()), r))
            .collect()
    };
    let a = index(read_rows(a_path)?);
    let b = index(read_rows(b_path)?);
    println!(
        "{:<16} {:<40} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "a.median", "b.median", "worse by", "bound"
    );
    let mut any_worse = false;
    for (key, row_a) in &a {
        let Some(row_b) = b.get(key) else {
            println!("{:<16} {:<40} only in {}", key.0, key.1, a_path.display());
            continue;
        };
        let verdict = judge(row_a, row_b);
        any_worse |= verdict == Verdict::Worse;
        println!(
            "{:<16} {:<40} {:>14.4} {:>14.4} {:>8.1}% {:>7}  {}",
            key.0,
            key.1,
            row_a.summary.median,
            row_b.summary.median,
            worsening(row_a, row_b) * 100.0,
            row_a
                .bound
                .map_or("-".to_string(), |b| format!("{:.0}%", b * 100.0)),
            verdict.label(),
        );
    }
    for key in b.keys().filter(|k| !a.contains_key(*k)) {
        println!("{:<16} {:<40} only in {}", key.0, key.1, b_path.display());
    }
    Ok(any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::Summary;

    fn row(direction: &str, median: f64, min: f64, max: f64, bound: Option<f64>) -> Row {
        Row {
            metric: "m".into(),
            workload: "w".into(),
            layer: "end_to_end".into(),
            unit: "ms".into(),
            direction: direction.into(),
            summary: Summary {
                median,
                min,
                max,
                mad: 0.0,
                samples: 3,
            },
            bound,
        }
    }

    #[test]
    fn a_move_past_the_bound_needs_disjoint_ranges() {
        let base = row("lower", 100.0, 98.0, 102.0, Some(0.05));
        assert_eq!(
            judge(&base, &row("lower", 103.0, 101.0, 104.0, Some(0.05))),
            Verdict::Within
        );
        assert_eq!(
            judge(&base, &row("lower", 120.0, 118.0, 125.0, Some(0.05))),
            Verdict::Worse
        );
        assert_eq!(
            judge(&base, &row("lower", 120.0, 101.0, 140.0, Some(0.05))),
            Verdict::Unresolved
        );
        assert_eq!(
            judge(&base, &row("lower", 80.0, 78.0, 82.0, Some(0.05))),
            Verdict::Better
        );
    }

    #[test]
    fn direction_flips_the_sign_and_unbounded_rows_are_not_judged() {
        let base = row("higher", 100.0, 98.0, 102.0, Some(0.05));
        assert_eq!(
            judge(&base, &row("higher", 80.0, 78.0, 82.0, Some(0.05))),
            Verdict::Worse
        );
        assert_eq!(
            judge(&base, &row("higher", 120.0, 118.0, 122.0, Some(0.05))),
            Verdict::Better
        );
        let info = row("lower", 100.0, 100.0, 100.0, None);
        assert_eq!(
            judge(&info, &row("lower", 500.0, 500.0, 500.0, None)),
            Verdict::Info
        );
    }
}
