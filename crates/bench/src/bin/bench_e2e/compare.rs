//! `--compare BASE.json CANDIDATE.json`: judges every (end-to-end metric,
//! workload) pair of two `--json` artifacts against the benchmark's bounds
//! (`metrics::bound`: `BENCHMARK.json`'s wherever that file has one).
//!
//! - `regressed`: the candidate's median is worse than the base's by more
//!   than the bound;
//! - `unresolved`: not regressed, but either side's run-to-run spread
//!   `(q3 − q1) / median` is wider than the bound, so "no change" cannot be
//!   told from a change of that size;
//! - `improved`: better by more than both sides' spread;
//! - `within`: anything else.

use crate::json::Value;
use crate::metrics::{self, Better, Bound, Metric, END_TO_END};
use std::fmt::Write as _;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Within,
    Regressed,
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Within => "within",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One side of a comparison: the median and spread the artifact recorded.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Side {
    pub median: f64,
    pub spread: f64,
}

pub fn judge(metric: Metric, bound: Bound, base: Side, candidate: Side) -> Verdict {
    let worse_by = match metric.better {
        Better::Higher => base.median - candidate.median,
        Better::Lower => candidate.median - base.median,
    };
    let noise = base.spread.max(candidate.spread);
    match bound {
        Bound::Zero if candidate.median > 0.0 => Verdict::Regressed,
        Bound::Zero => Verdict::Within,
        Bound::Points(points) if worse_by > points => Verdict::Regressed,
        Bound::Points(points) if worse_by < -points => Verdict::Improved,
        Bound::Points(_) => Verdict::Within,
        Bound::Relative(_) if base.median == 0.0 => Verdict::Unresolved,
        Bound::Relative(share) => {
            let relative = worse_by / base.median.abs();
            if relative > share {
                Verdict::Regressed
            } else if noise > share {
                Verdict::Unresolved
            } else if relative < -noise {
                Verdict::Improved
            } else {
                Verdict::Within
            }
        }
    }
}

fn side(workload: &Value, metric: &str) -> Option<Side> {
    let entry = workload
        .get("end_to_end")?
        .as_arr()?
        .iter()
        .find(|e| e.get("name").and_then(Value::as_str) == Some(metric))?;
    Some(Side {
        median: entry.get("median")?.as_f64()?,
        spread: entry.get("spread")?.as_f64()?,
    })
}

fn workloads(doc: &Value) -> Result<&[Value], String> {
    doc.get("workloads")
        .and_then(Value::as_arr)
        .ok_or_else(|| "artifact has no \"workloads\" list".to_string())
}

fn name_of(workload: &Value) -> Result<&str, String> {
    workload
        .get("name")
        .and_then(Value::as_str)
        .ok_or_else(|| "workload without a name".to_string())
}

/// Compares two artifacts. Returns the table and whether anything
/// regressed.
///
/// # Errors
///
/// Either document is not a `bench_e2e --json` artifact.
pub fn compare(base: &Value, candidate: &Value) -> Result<(String, bool), String> {
    let mut out = String::new();
    let mut regressed = false;
    let _ = writeln!(
        out,
        "{:<15} {:<18} {:>12} {:>12} {:>9} {:>8} {:>8} {:>7}  verdict",
        "workload", "metric", "base", "candidate", "ratio", "spread_b", "spread_c", "bound"
    );
    let mut in_base = Vec::new();
    for base_workload in workloads(base)? {
        let name = name_of(base_workload)?;
        in_base.push(name);
        let candidate_workload = workloads(candidate)?
            .iter()
            .find(|w| name_of(w) == Ok(name));
        for metric in END_TO_END {
            let bound = metrics::bound(metric.name)
                .ok_or_else(|| format!("BENCHMARK.json gives {} no bound", metric.name))?;
            let Some(b) = side(base_workload, metric.name) else {
                continue;
            };
            let Some(c) = candidate_workload.and_then(|w| side(w, metric.name)) else {
                // A metric the base has and the candidate lost is a failure
                // of the candidate, not a skipped row.
                regressed = true;
                let _ = writeln!(
                    out,
                    "{name:<15} {:<18} missing from candidate  regressed",
                    metric.name
                );
                continue;
            };
            let verdict = judge(metric, bound, b, c);
            regressed |= verdict == Verdict::Regressed;
            let bound = match bound {
                Bound::Relative(share) => format!("{:.0}%", share * 100.0),
                Bound::Points(points) => format!("{points}pt"),
                Bound::Zero => "=0".to_string(),
            };
            let ratio = if b.median == 0.0 {
                "-".to_string()
            } else {
                format!("{:.4}x", c.median / b.median)
            };
            let _ = writeln!(
                out,
                "{name:<15} {:<18} {:>12.4} {:>12.4} {ratio:>9} {:>7.2}% {:>7.2}% {bound:>7}  {}",
                metric.name,
                b.median,
                c.median,
                b.spread * 100.0,
                c.spread * 100.0,
                verdict.name()
            );
        }
    }
    // Nothing to judge it against, but not to be passed over in silence.
    for candidate_workload in workloads(candidate)? {
        let name = name_of(candidate_workload)?;
        if !in_base.contains(&name) {
            let _ = writeln!(out, "{name:<15} only in candidate, not judged");
        }
    }
    Ok((out, regressed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{end_to_end, FAILED_RATIO, GOODPUT_MIB_S, SETUP_S, VIRT_OVERHEAD_PCT};

    fn side(median: f64, spread: f64) -> Side {
        Side { median, spread }
    }

    #[test]
    fn relative_bounds_follow_the_metric_direction() {
        let goodput = |b, c| {
            let higher_is_better = end_to_end(GOODPUT_MIB_S).unwrap();
            judge(higher_is_better, Bound::Relative(0.15), b, c)
        };
        let quiet = 0.01;
        assert_eq!(
            goodput(side(100.0, quiet), side(99.0, quiet)),
            Verdict::Within
        );
        assert_eq!(
            goodput(side(100.0, quiet), side(80.0, quiet)),
            Verdict::Regressed
        );
        assert_eq!(
            goodput(side(100.0, quiet), side(120.0, quiet)),
            Verdict::Improved
        );
        let setup = |b, c| {
            let lower_is_better = end_to_end(SETUP_S).unwrap();
            judge(lower_is_better, Bound::Relative(0.25), b, c)
        };
        assert_eq!(
            setup(side(1.0, quiet), side(1.3, quiet)),
            Verdict::Regressed
        );
        assert_eq!(setup(side(1.0, quiet), side(0.7, quiet)), Verdict::Improved);
        assert_eq!(setup(side(1.0, quiet), side(1.2, quiet)), Verdict::Within);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_not_unchanged() {
        let goodput = |b, c| {
            judge(
                end_to_end(GOODPUT_MIB_S).unwrap(),
                Bound::Relative(0.15),
                b,
                c,
            )
        };
        assert_eq!(
            goodput(side(100.0, 0.2), side(101.0, 0.01)),
            Verdict::Unresolved
        );
        assert_eq!(
            goodput(side(100.0, 0.01), side(101.0, 0.2)),
            Verdict::Unresolved
        );
        // Far beyond the bound is a regression however noisy the runs.
        assert_eq!(
            goodput(side(100.0, 0.2), side(50.0, 0.2)),
            Verdict::Regressed
        );
    }

    #[test]
    fn absolute_and_zero_bounds() {
        let virt = |b, c| {
            judge(
                end_to_end(VIRT_OVERHEAD_PCT).unwrap(),
                Bound::Points(0.5),
                b,
                c,
            )
        };
        assert_eq!(virt(side(20.0, 0.0), side(20.4, 0.0)), Verdict::Within);
        assert_eq!(virt(side(20.0, 0.0), side(20.6, 0.0)), Verdict::Regressed);
        assert_eq!(virt(side(20.0, 0.0), side(19.0, 0.0)), Verdict::Improved);
        let failed = |b, c| judge(end_to_end(FAILED_RATIO).unwrap(), Bound::Zero, b, c);
        assert_eq!(failed(side(0.0, 0.0), side(0.0, 0.0)), Verdict::Within);
        assert_eq!(failed(side(0.0, 0.0), side(0.001, 0.0)), Verdict::Regressed);
    }

    #[test]
    fn compares_two_artifacts_row_by_row() {
        let named = |name: &str, goodput: f64| {
            crate::json::parse(&format!(
                "{{\"workloads\": [{{\"name\": \"{name}\", \"end_to_end\": [\
                 {{\"name\": \"goodput_mib_s\", \"median\": {goodput}, \"spread\": 0.02}},\
                 {{\"name\": \"failed_ratio\", \"median\": 0, \"spread\": 0}}]}}]}}"
            ))
            .unwrap()
        };
        let artifact = |goodput: f64| named("net_small", goodput);
        let (table, regressed) = compare(&artifact(8.0), &artifact(8.1)).unwrap();
        assert!(!regressed, "{table}");
        assert_eq!(table.matches("within").count(), 2, "{table}");
        let (table, regressed) = compare(&artifact(8.0), &artifact(4.0)).unwrap();
        assert!(regressed);
        assert!(
            table.contains("0.5000x"),
            "every ratio with its base: {table}"
        );
        assert!(compare(&Value::Null, &artifact(1.0)).is_err());

        // A workload one side lacks: lost is a regression, new is reported.
        let (table, regressed) = compare(&artifact(8.0), &named("net_new", 8.0)).unwrap();
        assert!(regressed);
        assert!(table.contains("missing from candidate"), "{table}");
        assert!(
            table.contains("net_new         only in candidate"),
            "{table}"
        );
    }
}
