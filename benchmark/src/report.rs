//! What a run prints: a table for people, a full record (host facts
//! included) for `compare`, and the driver's result line, last.

use std::io::Write;

use crate::host;
use crate::names::MetricDef;
use crate::surface::Json;
use crate::workloads::{Measured, Workload};

/// One finished run.
pub struct Report {
    pub workload: Workload,
    pub seed: u64,
    pub trace: bool,
    pub seconds: f64,
    /// The metric table the run reports against.
    pub defs: &'static [MetricDef],
    /// What the run measured: one entry per metric of `defs`.
    pub run: Measured,
}

impl Report {
    /// The run is correct when no op failed and every metric that applies
    /// to the workload was measured: finite, and positive if it is bounded
    /// (a ladder self time may be negative, an end-to-end metric never 0).
    pub fn correct(&self) -> bool {
        self.run.failed == 0 && self.run.attempted > 0 && self.problems().is_empty()
    }

    /// The run's entry for `def`, if there is exactly one.
    fn value(&self, def: &MetricDef) -> Option<Option<f64>> {
        let mut entries = self.run.metrics.iter().filter(|(n, _)| *n == def.name);
        match (entries.next(), entries.next()) {
            (Some((_, value)), None) => Some(*value),
            _ => None,
        }
    }

    /// Metrics that are missing, repeated, unknown, not measured although
    /// they apply to the workload, or measured although they do not.
    pub fn problems(&self) -> Vec<String> {
        let mut out = Vec::new();
        for (name, _) in &self.run.metrics {
            if !self.defs.iter().any(|d| d.name == *name) {
                out.push(format!("{name} is not a metric of this run"));
            }
        }
        for def in self.defs {
            let applies = !self.trace || self.workload.measures(def.name);
            match self.value(def) {
                None => out.push(format!("{} is missing or repeated", def.name)),
                Some(None) if applies => out.push(format!("{} was not measured", def.name)),
                Some(Some(_)) if !applies => out.push(format!(
                    "{} does not apply to this workload and was measured",
                    def.name
                )),
                Some(Some(v)) if !v.is_finite() || (def.bound.is_some() && v <= 0.0) => {
                    out.push(format!("{} reads {v}", def.name));
                }
                Some(_) => {}
            }
        }
        out
    }

    /// The metrics as `{name: {value, unit}}`. A metric that does not
    /// apply to the workload is `null` — except on the driver's result
    /// line (`for_driver`), whose contract wants a number for every
    /// metric: there it reads 0.
    fn metrics_json(&self, for_driver: bool) -> Json {
        let not_applicable = if for_driver {
            Json::Num(0.0)
        } else {
            Json::Null
        };
        Json::Obj(
            self.defs
                .iter()
                .filter_map(|def| {
                    let value = self.value(def)?;
                    let value = value.map_or(not_applicable.clone(), Json::Num);
                    let entry = Json::obj([("value", value), ("unit", Json::from(def.unit))]);
                    Some((def.name.to_string(), entry))
                })
                .collect(),
        )
    }

    /// The driver's result line: exactly `correct`, `attempted`, `failed`
    /// and `metrics`.
    pub fn result_line(&self) -> String {
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.run.attempted as f64)),
            ("failed", Json::Num(self.run.failed as f64)),
            ("metrics", self.metrics_json(true)),
        ])
        .to_string_compact()
    }

    /// The full record: the result plus what it has to be read against.
    pub fn record(&self) -> Json {
        Json::obj([
            ("workload", Json::from(self.workload.name())),
            ("seed", Json::Num(self.seed as f64)),
            ("trace", Json::Bool(self.trace)),
            ("seconds", Json::Num(self.seconds)),
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.run.attempted as f64)),
            ("failed", Json::Num(self.run.failed as f64)),
            ("metrics", self.metrics_json(false)),
            (
                "notes",
                Json::Obj(
                    self.run
                        .notes
                        .iter()
                        .map(|(k, v)| (k.to_string(), Json::Num(*v)))
                        .collect(),
                ),
            ),
            ("host", host::facts(self.seed)),
        ])
    }

    /// Prints the table, the record and — last — the result line; appends
    /// the record to `record_path` when one is given.
    pub fn print(&self, record_path: Option<&str>) -> std::io::Result<()> {
        let out = std::io::stdout();
        let mut out = out.lock();
        writeln!(
            out,
            "{} seed {} ({}, {} s): {} ops, {} failed",
            self.workload.name(),
            self.seed,
            if self.trace { "traced" } else { "end to end" },
            self.seconds,
            self.run.attempted,
            self.run.failed
        )?;
        for def in self.defs {
            match self.value(def) {
                Some(Some(value)) => {
                    writeln!(out, "  {:<44} {:>16.4} {}", def.name, value, def.unit)?
                }
                Some(None) => writeln!(out, "  {:<44} {:>16}", def.name, "n/a")?,
                None => {}
            }
        }
        for (name, value) in &self.run.notes {
            writeln!(out, "  ({name} {value})")?;
        }
        for problem in self.problems() {
            writeln!(out, "  PROBLEM: {problem}")?;
        }
        let record = self.record().to_string_compact();
        writeln!(out, "record {record}")?;
        if let Some(path) = record_path {
            let mut file = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)?;
            writeln!(file, "{record}")?;
        }
        writeln!(out, "{}", self.result_line())?;
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::names::{END_TO_END, PER_LAYER};

    fn report(failed: u64, poison: Option<f64>) -> Report {
        let mut metrics: Vec<(&'static str, Option<f64>)> =
            END_TO_END.iter().map(|d| (d.name, Some(1.5))).collect();
        if let Some(v) = poison {
            metrics[2].1 = Some(v);
        }
        Report {
            workload: Workload::OfflineF32Im2row,
            seed: 3,
            trace: false,
            seconds: 1.0,
            defs: &END_TO_END,
            run: Measured {
                attempted: 10,
                failed,
                metrics,
                notes: vec![("ops", 10.0)],
            },
        }
    }

    /// A traced run of the training workload that measured exactly the
    /// metrics that apply to it.
    fn traced() -> Report {
        let workload = Workload::TrainInt8F4Flex;
        Report {
            workload,
            seed: 3,
            trace: true,
            seconds: 1.0,
            defs: &PER_LAYER,
            run: Measured {
                attempted: 10,
                failed: 0,
                metrics: PER_LAYER
                    .iter()
                    .map(|d| (d.name, workload.measures(d.name).then_some(-2.5)))
                    .collect(),
                notes: Vec::new(),
            },
        }
    }

    fn entry<'a>(run: &'a mut Measured, name: &str) -> &'a mut Option<f64> {
        &mut run.metrics.iter_mut().find(|(n, _)| *n == name).unwrap().1
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = report(0, None).result_line();
        let doc = Json::parse(&line).unwrap();
        let keys: Vec<&str> = doc
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
        let metrics = doc.get("metrics").unwrap().as_obj().unwrap();
        assert_eq!(metrics.len(), END_TO_END.len());
        for (def, (name, entry)) in END_TO_END.iter().zip(metrics) {
            assert_eq!(def.name, name);
            assert_eq!(entry.get("value").and_then(Json::as_f64), Some(1.5));
            assert_eq!(entry.get("unit").and_then(Json::as_str), Some(def.unit));
        }
        assert!(!line.contains('\n'));
    }

    /// The negative control of the verdict: a failed op, a NaN metric or a
    /// missing metric each make the run incorrect.
    #[test]
    fn a_failed_op_or_an_unmeasured_metric_is_not_correct() {
        assert!(report(0, None).correct());
        assert!(!report(1, None).correct());
        assert!(!report(0, Some(f64::NAN)).correct());
        assert!(!report(0, Some(-1.0)).correct());
        let mut short = report(0, None);
        short.run.metrics.pop();
        assert!(!short.correct());
        assert!(short.problems()[0].contains("is missing"));
        let mut unmeasured = report(0, None);
        unmeasured.run.metrics[0].1 = None;
        assert!(unmeasured.problems()[0].contains("was not measured"));
        let doc = Json::parse(&report(1, None).result_line()).unwrap();
        assert_eq!(doc.get("correct"), Some(&Json::Bool(false)));
        assert_eq!(doc.get("failed").and_then(Json::as_f64), Some(1.0));
    }

    /// A traced run must measure exactly the metrics that apply to its
    /// workload: dropping one, or inventing one, makes it incorrect.
    #[test]
    fn a_traced_run_measures_exactly_what_applies() {
        let whole = traced();
        assert!(whole.correct(), "{:?}", whole.problems());
        let value = |doc: &Json, name: &str| doc.get("metrics")?.get(name)?.get("value").cloned();
        // not applicable: null in the record, 0 on the driver's line
        let record = whole.record();
        assert_eq!(value(&record, "serve.http_us"), Some(Json::Null));
        assert_eq!(value(&record, "nn.optimizer_us"), Some(Json::Num(-2.5)));
        let line = Json::parse(&whole.result_line()).unwrap();
        assert_eq!(value(&line, "serve.http_us"), Some(Json::Num(0.0)));
        assert_eq!(value(&line, "nn.optimizer_us"), Some(Json::Num(-2.5)));

        let mut dropped = traced();
        *entry(&mut dropped.run, "nn.optimizer_us") = None;
        assert!(!dropped.correct());
        assert!(dropped.problems()[0].contains("nn.optimizer_us was not measured"));
        let mut invented = traced();
        *entry(&mut invented.run, "serve.http_us") = Some(1.0);
        assert!(!invented.correct());
        assert!(invented.problems()[0].contains("does not apply"));
    }
}
