//! Result files and their comparison.
//!
//! One schema for every result the ledger writes: where it was measured
//! (the fingerprint), with what (seed, seconds, scale, each workload's
//! constants), and per workload and metric every run's value with its
//! median and quartiles. `diff` only compares like with like.

use crate::json::Json;
use crate::spec::{self, END_TO_END};
use crate::stats::{iqr_share, median, quartiles};

/// Schema tag of the result file.
pub const SCHEMA: &str = "ctup-ledger/1";

/// One workload's runs, gathered.
#[derive(Debug, Clone, Default)]
pub struct Gathered {
    /// Every run passed its checks.
    pub correct: bool,
    /// Reports offered over all runs.
    pub attempted: f64,
    /// Reports failed over all runs.
    pub failed: f64,
    /// Per metric, in first-seen order: unit and each run's value.
    pub metrics: Vec<(String, String, Vec<f64>)>,
}

impl Gathered {
    /// A workload with no runs yet (and nothing wrong yet).
    pub fn new() -> Gathered {
        Gathered {
            correct: true,
            ..Gathered::default()
        }
    }

    /// Folds in one run's result object (the last line `bench` prints).
    pub fn add(&mut self, result: &Json) -> Result<(), String> {
        let field = |key: &str| {
            result
                .get(key)
                .ok_or_else(|| format!("result lacks {key:?}"))
        };
        self.correct &= field("correct")? == &Json::Bool(true);
        self.attempted += field("attempted")?.as_f64().unwrap_or(0.0);
        self.failed += field("failed")?.as_f64().unwrap_or(0.0);
        for (name, metric) in field("metrics")?.as_obj().unwrap_or(&[]) {
            let value = metric
                .get("value")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("metric {name:?} has no value"))?;
            let unit = metric.get("unit").and_then(Json::as_str).unwrap_or("");
            match self.metrics.iter_mut().find(|(n, _, _)| n == name) {
                Some((_, _, values)) => values.push(value),
                None => self
                    .metrics
                    .push((name.clone(), unit.to_string(), vec![value])),
            }
        }
        Ok(())
    }

    fn to_json(&self, workload: &spec::Workload) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, unit, values)| {
                let (q1, q3) = quartiles(values).unwrap_or((median(values), median(values)));
                (
                    name.clone(),
                    Json::obj(vec![
                        ("unit", Json::str(unit.as_str())),
                        ("median", Json::Num(median(values))),
                        ("q1", Json::Num(q1)),
                        ("q3", Json::Num(q3)),
                        (
                            "values",
                            Json::Arr(values.iter().map(|&v| Json::Num(v)).collect()),
                        ),
                    ]),
                )
            })
            .collect();
        Json::obj(vec![
            ("why", Json::str(workload.why)),
            ("constants", spec::constants(workload)),
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted)),
            ("failed", Json::Num(self.failed)),
            ("metrics", Json::Obj(metrics)),
        ])
    }
}

/// How a set of runs was made.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSetup {
    /// Seed of the first run; run `i` uses `seed + i`.
    pub seed: u64,
    /// Runs per workload.
    pub runs: usize,
    /// Seconds of measurement per run.
    pub seconds: f64,
    /// `full` or `tiny`.
    pub scale: String,
    /// Whether these are traced (per-layer) runs.
    pub traced: bool,
}

/// The whole result file.
pub fn result_file(
    fingerprint: Json,
    build: Json,
    setup: &RunSetup,
    workloads: &[(&'static spec::Workload, Gathered)],
) -> Json {
    Json::obj(vec![
        ("schema", Json::str(SCHEMA)),
        ("fingerprint", fingerprint),
        ("build", build),
        ("seed", Json::Num(setup.seed as f64)),
        ("runs", Json::Num(setup.runs as f64)),
        ("seconds", Json::Num(setup.seconds)),
        ("scale", Json::str(setup.scale.as_str())),
        ("traced", Json::Bool(setup.traced)),
        (
            "workloads",
            Json::Obj(
                workloads
                    .iter()
                    .map(|(w, g)| (w.name.to_string(), g.to_json(w)))
                    .collect(),
            ),
        ),
        // This file states measurements. A gain is claimed by a change,
        // against a parent's file, by the rule in the README — never here.
        ("claim", Json::Null),
    ])
}

/// What `diff` concluded for one (workload, metric).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Better by more than the bound.
    Improved,
    /// Within the bound either way.
    Unchanged,
    /// Worse by more than the bound.
    Regressed,
    /// A run-to-run spread wider than the bound: the runs cannot tell.
    Unresolved,
}

impl Verdict {
    /// Lower-case label.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One row of `diff`.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: &'static str,
    /// Median of the old file's runs.
    pub old: f64,
    /// Median of the new file's runs.
    pub new: f64,
    /// The wider of the two files' IQR / median.
    pub spread: f64,
    /// The metric's bound.
    pub bound: f64,
    /// How much worse `new` is than `old`, as a share of `old`
    /// (negative = better).
    pub worse_by: f64,
    /// The conclusion.
    pub verdict: Verdict,
}

/// Judges one metric from both files' per-run values: how much worse the
/// new median is, the wider of the two spreads, and what that means.
pub fn judge(metric: &spec::EndToEnd, old: &[f64], new: &[f64]) -> (f64, f64, Verdict) {
    let (old_med, new_med) = (median(old), median(new));
    let spread = iqr_share(old).max(iqr_share(new));
    let change = if old_med != 0.0 {
        (new_med - old_med) / old_med.abs()
    } else {
        0.0
    };
    let worse_by = if metric.higher_is_better {
        -change
    } else {
        change
    };
    let verdict = if spread > metric.bound {
        Verdict::Unresolved
    } else if worse_by > metric.bound {
        Verdict::Regressed
    } else if worse_by < -metric.bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    };
    (worse_by, spread, verdict)
}

fn values_of(file: &Json, workload: &str, metric: &str) -> Option<Vec<f64>> {
    file.get("workloads")?
        .get(workload)?
        .get("metrics")?
        .get(metric)?
        .get("values")?
        .as_arr()
        .map(|items| items.iter().filter_map(Json::as_f64).collect())
}

/// Compares two result files: one row per (workload, end-to-end metric).
/// Refuses files that were not measured alike.
pub fn diff(old: &Json, new: &Json, seed: Option<u64>) -> Result<Vec<Row>, String> {
    for (file, which) in [(old, "OLD"), (new, "NEW")] {
        if file.get("schema").and_then(Json::as_str) != Some(SCHEMA) {
            return Err(format!("{which} is not a {SCHEMA} result file"));
        }
        if file.get("traced") != Some(&Json::Bool(false)) {
            return Err(format!(
                "{which} holds traced runs; end-to-end metrics are only ever measured with tracing off"
            ));
        }
        if let Some(seed) = seed {
            if file.get("seed").and_then(Json::as_f64) != Some(seed as f64) {
                return Err(format!("{which} was not measured with --seed {seed}"));
            }
        }
    }
    for key in ["fingerprint", "seed", "runs", "seconds", "scale"] {
        if old.get(key) != new.get(key) {
            return Err(format!(
                "the files differ in {key:?}: {} vs {} — measure both on one machine with one setting",
                old.get(key).map_or_else(|| "none".into(), Json::render),
                new.get(key).map_or_else(|| "none".into(), Json::render),
            ));
        }
    }
    let mut rows = Vec::new();
    for w in &spec::WORKLOADS {
        let constants = |file: &Json| {
            file.get("workloads")?
                .get(w.name)?
                .get("constants")
                .cloned()
        };
        if constants(old) != constants(new) {
            return Err(format!("the files differ in the constants of {:?}", w.name));
        }
        for metric in &END_TO_END {
            let (Some(old_values), Some(new_values)) = (
                values_of(old, w.name, metric.name),
                values_of(new, w.name, metric.name),
            ) else {
                return Err(format!(
                    "{} / {} is missing from a file",
                    w.name, metric.name
                ));
            };
            let (worse_by, spread, verdict) = judge(metric, &old_values, &new_values);
            rows.push(Row {
                workload: w.name.to_string(),
                metric: metric.name,
                old: median(&old_values),
                new: median(&new_values),
                spread,
                bound: metric.bound,
                worse_by,
                verdict,
            });
        }
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(higher_is_better: bool) -> spec::EndToEnd {
        spec::EndToEnd {
            name: "m",
            unit: "u",
            higher_is_better,
            bound: 0.1,
        }
    }

    #[test]
    fn judge_respects_direction_bound_and_spread() {
        let steady = |x: f64| vec![x * 0.99, x, x * 1.01, x, x];
        let lower = metric(false);
        assert_eq!(
            judge(&lower, &steady(100.0), &steady(105.0)).2,
            Verdict::Unchanged
        );
        assert_eq!(
            judge(&lower, &steady(100.0), &steady(115.0)).2,
            Verdict::Regressed
        );
        assert_eq!(
            judge(&lower, &steady(100.0), &steady(85.0)).2,
            Verdict::Improved
        );
        let higher = metric(true);
        assert_eq!(
            judge(&higher, &steady(100.0), &steady(115.0)).2,
            Verdict::Improved
        );
        assert_eq!(
            judge(&higher, &steady(100.0), &steady(85.0)).2,
            Verdict::Regressed
        );
        // A spread wider than the bound settles nothing, whatever the medians say.
        let noisy = vec![60.0, 80.0, 100.0, 120.0, 140.0];
        assert_eq!(judge(&lower, &noisy, &steady(300.0)).2, Verdict::Unresolved);
    }

    fn file(seed: u64, rps: f64) -> Json {
        let one = |w: &'static spec::Workload| {
            let mut g = Gathered::new();
            for run in 0..3 {
                let metrics = END_TO_END
                    .iter()
                    .map(|m| {
                        let value = if m.name == "reports_per_s" { rps } else { 10.0 };
                        (
                            m.name.to_string(),
                            Json::obj(vec![
                                ("value", Json::Num(value + f64::from(run) * 0.01)),
                                ("unit", Json::str(m.unit)),
                            ]),
                        )
                    })
                    .collect();
                let line = Json::obj(vec![
                    ("correct", Json::Bool(true)),
                    ("attempted", Json::Num(100.0)),
                    ("failed", Json::Num(0.0)),
                    ("metrics", Json::Obj(metrics)),
                ]);
                g.add(&line).expect("well-formed result");
            }
            (w, g)
        };
        let setup = RunSetup {
            seed,
            runs: 3,
            seconds: 20.0,
            scale: "full".into(),
            traced: false,
        };
        let workloads: Vec<_> = spec::WORKLOADS.iter().map(one).collect();
        // The build differs between the two files of a pair by design.
        result_file(
            Json::obj(vec![("nproc", Json::Num(2.0))]),
            Json::obj(vec![("git_head", Json::str(format!("{rps}")))]),
            &setup,
            &workloads,
        )
    }

    #[test]
    fn diff_reports_every_row_and_finds_the_regression() {
        let text = file(199, 1000.0).render_pretty();
        let old = Json::parse(&text).expect("result files parse back");
        assert_eq!(old.get("claim"), Some(&Json::Null));
        let same = diff(&old, &old, Some(199)).expect("comparable");
        assert_eq!(same.len(), spec::WORKLOADS.len() * END_TO_END.len());
        assert!(same.iter().all(|r| r.verdict == Verdict::Unchanged));
        let slower = diff(&old, &file(199, 700.0), None).expect("comparable");
        let regressed: Vec<_> = slower
            .iter()
            .filter(|r| r.verdict == Verdict::Regressed)
            .collect();
        assert_eq!(regressed.len(), spec::WORKLOADS.len());
        assert!(regressed.iter().all(|r| r.metric == "reports_per_s"));
    }

    #[test]
    fn diff_refuses_files_measured_differently() {
        let old = file(199, 1000.0);
        assert!(diff(&old, &file(4242, 1000.0), None)
            .unwrap_err()
            .contains("seed"));
        assert!(diff(&old, &old, Some(7)).unwrap_err().contains("--seed 7"));
        let mut other_box = file(199, 1000.0);
        if let Json::Obj(pairs) = &mut other_box {
            pairs[1].1 = Json::obj(vec![("nproc", Json::Num(64.0))]);
        }
        assert!(diff(&old, &other_box, None)
            .unwrap_err()
            .contains("fingerprint"));
    }
}
