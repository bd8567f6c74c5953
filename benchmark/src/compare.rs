//! `compare <a.jsonl> <b.jsonl>`: holds two sets of recorded runs against
//! each other, per workload and end-to-end metric — "two sets of runs of
//! the same code agree" today, parent against change later.
//!
//! Each file holds one run record per line, as `--record` appends them.

use std::collections::BTreeMap;

use crate::names::{Better, MetricDef, END_TO_END, WORKLOADS};
use crate::stats;
use crate::surface::Json;

/// How one (workload, metric) pair compares.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// `b` is no worse than `a` by more than the bound.
    Ok,
    /// The run-to-run spread exceeds the bound and the two sets overlap:
    /// the runs cannot tell unchanged from regressed.
    Unresolved,
    /// `b`'s median is worse than `a`'s by more than the bound.
    Regression,
}

/// One row of the comparison.
pub struct Row {
    pub workload: String,
    pub metric: &'static str,
    pub median_a: f64,
    pub median_b: f64,
    /// Relative change of `b` against `a`, positive when `b` is worse.
    pub worse_by: f64,
    /// The wider interquartile range of the two sets, over its median.
    pub spread: f64,
    pub bound: f64,
    pub verdict: Verdict,
}

/// The runs of one file: per workload, per metric, every value read, plus
/// the ops attempted and failed.
#[derive(Default)]
struct RunSet {
    values: BTreeMap<String, BTreeMap<String, Vec<f64>>>,
    ops: BTreeMap<String, (f64, f64)>,
}

fn parse_runs(text: &str) -> Result<RunSet, String> {
    let mut set = RunSet::default();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let doc = Json::parse(line).map_err(|e| format!("line {}: {e}", n + 1))?;
        let field = |key: &str| doc.get(key).ok_or(format!("line {}: no `{key}`", n + 1));
        if field("trace")? == &Json::Bool(true) {
            continue;
        }
        let workload = field("workload")?.as_str().unwrap_or_default().to_string();
        let ops = set.ops.entry(workload.clone()).or_default();
        ops.0 += field("attempted")?.as_f64().unwrap_or(0.0);
        ops.1 += field("failed")?.as_f64().unwrap_or(0.0);
        let metrics = field("metrics")?.as_obj().unwrap_or_default();
        for (name, entry) in metrics {
            if let Some(v) = entry.get("value").and_then(Json::as_f64) {
                set.values
                    .entry(workload.clone())
                    .or_default()
                    .entry(name.clone())
                    .or_default()
                    .push(v);
            }
        }
    }
    Ok(set)
}

fn spread_of(values: &[f64]) -> f64 {
    if values.len() < 2 {
        0.0
    } else {
        stats::spread(values)
    }
}

/// Compares one metric's two samples.
pub fn judge(def: &MetricDef, a: &[f64], b: &[f64]) -> (f64, f64, Verdict) {
    let bound = def.bound.unwrap_or(0.0);
    let (ma, mb) = (stats::median(a), stats::median(b));
    let worse_by = match def.better {
        Better::Lower => (mb - ma) / ma,
        Better::Higher => (ma - mb) / ma,
    };
    let spread = spread_of(a).max(spread_of(b));
    let every_b_better = match def.better {
        Better::Lower => stats::sorted(b).last() < stats::sorted(a).first(),
        Better::Higher => stats::sorted(b).first() > stats::sorted(a).last(),
    };
    let verdict = if worse_by > bound {
        Verdict::Regression
    } else if spread > bound && !every_b_better {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    };
    (worse_by, spread, verdict)
}

/// Compares two record files' contents. Workloads or metrics missing
/// from either side are skipped and named in the second return value.
pub fn compare(a_text: &str, b_text: &str) -> Result<(Vec<Row>, Vec<String>), String> {
    let a = parse_runs(a_text).map_err(|e| format!("first file, {e}"))?;
    let b = parse_runs(b_text).map_err(|e| format!("second file, {e}"))?;
    let (mut rows, mut skipped) = (Vec::new(), Vec::new());
    for workload in WORKLOADS.iter().map(|w| w.name) {
        let (Some(va), Some(vb)) = (a.values.get(workload), b.values.get(workload)) else {
            skipped.push(format!("{workload}: not in both files"));
            continue;
        };
        for def in &END_TO_END {
            let (Some(xa), Some(xb)) = (va.get(def.name), vb.get(def.name)) else {
                skipped.push(format!("{workload} {}: not in both files", def.name));
                continue;
            };
            let (worse_by, spread, verdict) = judge(def, xa, xb);
            rows.push(Row {
                workload: workload.to_string(),
                metric: def.name,
                median_a: stats::median(xa),
                median_b: stats::median(xb),
                worse_by,
                spread,
                bound: def.bound.unwrap_or(0.0),
                verdict,
            });
        }
        // failed ops have no noise to hide in: any increase is a regression
        let share = |(attempted, failed): (f64, f64)| failed / attempted.max(1.0);
        let (fa, fb) = (share(a.ops[workload]), share(b.ops[workload]));
        rows.push(Row {
            workload: workload.to_string(),
            metric: "failed_share",
            median_a: fa,
            median_b: fb,
            worse_by: fb - fa,
            spread: 0.0,
            bound: 0.0,
            verdict: if fb > fa {
                Verdict::Regression
            } else {
                Verdict::Ok
            },
        });
    }
    Ok((rows, skipped))
}

/// Renders the comparison as a table.
pub fn render(rows: &[Row], skipped: &[String]) -> String {
    use std::fmt::Write as _;
    let mut out = format!(
        "{:<20} {:<18} {:>12} {:>12} {:>9} {:>8} {:>6}  verdict\n",
        "workload", "metric", "median a", "median b", "worse by", "spread", "bound"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:<20} {:<18} {:>12.4} {:>12.4} {:>+8.1}% {:>7.1}% {:>5.0}%  {}",
            r.workload,
            r.metric,
            r.median_a,
            r.median_b,
            r.worse_by * 100.0,
            r.spread * 100.0,
            r.bound * 100.0,
            match r.verdict {
                Verdict::Ok => "ok",
                Verdict::Unresolved => "unresolved",
                Verdict::Regression => "REGRESSION",
            }
        );
    }
    for s in skipped {
        let _ = writeln!(out, "skipped {s}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn def(name: &str) -> &'static MetricDef {
        END_TO_END.iter().find(|d| d.name == name).unwrap()
    }

    #[test]
    fn judge_applies_direction_bound_and_spread() {
        let lat = def("latency_p50_ms"); // lower is better, bound 0.10
        let steady = [10.0, 10.1, 9.9, 10.0];
        assert_eq!(
            judge(lat, &steady, &[10.5, 10.6, 10.4, 10.5]).2,
            Verdict::Ok
        );
        assert_eq!(
            judge(lat, &steady, &[11.5, 11.6, 11.4, 11.5]).2,
            Verdict::Regression
        );
        // faster is never a regression
        assert_eq!(judge(lat, &steady, &[5.0, 5.1, 4.9, 5.0]).2, Verdict::Ok);
        let tput = def("samples_per_s"); // higher is better
        let (worse_by, _, verdict) = judge(tput, &[100.0, 101.0, 99.0], &[80.0, 81.0, 79.0]);
        assert!((worse_by - 0.2).abs() < 1e-9);
        assert_eq!(verdict, Verdict::Regression);
        // noisy and overlapping: unresolved, not "unchanged"
        let noisy = [8.0, 12.0, 9.0, 11.5, 10.0];
        assert_eq!(judge(lat, &noisy, &noisy).2, Verdict::Unresolved);
        // noisy, but every run of b beats every run of a
        assert_eq!(
            judge(lat, &noisy, &[6.0, 7.5, 5.0, 7.0, 6.5]).2,
            Verdict::Ok
        );
    }

    fn record(workload: &str, failed: u64, value: f64) -> String {
        let metrics = END_TO_END
            .iter()
            .map(|d| {
                format!(
                    "\"{}\":{{\"value\":{value},\"unit\":\"{}\"}}",
                    d.name, d.unit
                )
            })
            .collect::<Vec<_>>()
            .join(",");
        format!(
            "{{\"workload\":\"{workload}\",\"trace\":false,\"attempted\":100,\
             \"failed\":{failed},\"metrics\":{{{metrics}}}}}\n"
        )
    }

    #[test]
    fn compare_reads_records_and_flags_any_new_failure() {
        let a: String = (0..3).map(|_| record("serve-int8-f4", 0, 20.0)).collect();
        let same = compare(&a, &a).unwrap();
        assert_eq!(same.0.len(), END_TO_END.len() + 1);
        assert!(same.0.iter().all(|r| r.verdict == Verdict::Ok));
        assert_eq!(same.1.len(), WORKLOADS.len() - 1, "five workloads skipped");
        let b: String = (0..3).map(|_| record("serve-int8-f4", 1, 20.0)).collect();
        let (rows, _) = compare(&a, &b).unwrap();
        let failed = rows.iter().find(|r| r.metric == "failed_share").unwrap();
        assert_eq!(failed.verdict, Verdict::Regression);
        assert!(render(&rows, &[]).contains("REGRESSION"));
        assert!(compare("not json", &a).is_err());
        // traced records are not end-to-end runs
        let traced = record("serve-int8-f4", 0, 1.0).replace("\"trace\":false", "\"trace\":true");
        assert!(compare(&traced, &a).unwrap().0.is_empty());
    }
}
