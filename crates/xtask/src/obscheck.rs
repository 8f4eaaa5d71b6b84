//! CI validators for the observability artifacts.
//!
//! `promcheck` validates a Prometheus text exposition (what
//! `ctup run --format prom` and `ctup serve`'s `/metrics` emit):
//! every sample line parses, every series has a `# TYPE` declaration,
//! histogram buckets are cumulative and end in `+Inf` with a matching
//! `_count`. `flightcheck` validates a crash dump (`flight-recorder.jsonl`):
//! one line, the terminal record — a flat JSON object carrying `outcome`
//! (`killed` or `gave_up`) and a numeric `seq`. `healthcheck` validates a
//! `/healthz` body from `ctup serve`: a flat JSON object whose `status`
//! string and `degraded` boolean agree, with numeric load gauges.
//!
//! Both are hand-rolled on purpose: the point of the check is that a
//! scraper with no knowledge of our code could consume the output, so
//! the validator must not share code with the producer. The flat-JSON
//! walk both flightcheck and healthcheck rely on lives once, in
//! [`crate::flatjson`].

use crate::flatjson::{parse_flat_object, FlatValue};
use std::collections::{BTreeMap, HashMap};

/// One problem found in an artifact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Problem {
    /// 1-based line in the artifact.
    pub line: usize,
    /// What is wrong.
    pub message: String,
}

impl std::fmt::Display for Problem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// Splits a sample line into `(name, labels, value)`. Labels keep their
/// braces stripped; `None` labels means no label set.
fn split_sample(line: &str) -> Option<(&str, Option<&str>, &str)> {
    if let Some(open) = line.find('{') {
        let close = line.rfind('}')?;
        if close < open {
            return None;
        }
        let name = &line[..open];
        let labels = &line[open + 1..close];
        let value = line[close + 1..].trim();
        Some((name, Some(labels), value))
    } else {
        let mut parts = line.splitn(2, ' ');
        let name = parts.next()?;
        let value = parts.next()?.trim();
        Some((name, None, value))
    }
}

fn valid_value(value: &str) -> bool {
    matches!(value, "+Inf" | "-Inf" | "NaN") || value.parse::<f64>().is_ok()
}

/// Extracts the `le` label of a `_bucket` series, if present.
fn le_of(labels: &str) -> Option<String> {
    for part in labels.split(',') {
        if let Some(rest) = part.trim().strip_prefix("le=") {
            return Some(rest.trim_matches('"').to_string());
        }
    }
    None
}

/// The base metric a series contributes to: `x_bucket`/`x_sum`/`x_count`
/// fold into `x` when `x` is a declared histogram.
fn base_name<'a>(name: &'a str, types: &HashMap<String, String>) -> &'a str {
    for suffix in ["_bucket", "_sum", "_count"] {
        if let Some(base) = name.strip_suffix(suffix) {
            if types.get(base).map(String::as_str) == Some("histogram") {
                return base;
            }
        }
    }
    name
}

/// Validates a Prometheus text exposition. Returns every problem found.
pub fn check_prom(text: &str) -> Vec<Problem> {
    let mut problems = Vec::new();
    let mut types: HashMap<String, String> = HashMap::new();
    #[expect(
        clippy::type_complexity,
        reason = "(base, labels-without-le) -> ordered (le, cumulative count, line)"
    )]
    let mut buckets: BTreeMap<(String, String), Vec<(String, f64, usize)>> = BTreeMap::new();
    let mut counts: HashMap<(String, String), f64> = HashMap::new();
    let mut samples = 0usize;

    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx + 1;
        let line = raw.trim_end();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('#') {
            let rest = rest.trim_start();
            if let Some(decl) = rest.strip_prefix("TYPE ") {
                let mut parts = decl.split_whitespace();
                match (parts.next(), parts.next(), parts.next()) {
                    (Some(name), Some(kind), None) => {
                        if !valid_metric_name(name) {
                            problems.push(Problem {
                                line: lineno,
                                message: format!("invalid metric name in TYPE line: {name:?}"),
                            });
                        }
                        if !matches!(kind, "counter" | "gauge" | "histogram" | "summary") {
                            problems.push(Problem {
                                line: lineno,
                                message: format!("unknown metric type {kind:?}"),
                            });
                        }
                        types.insert(name.to_string(), kind.to_string());
                    }
                    _ => problems.push(Problem {
                        line: lineno,
                        message: "malformed TYPE line (want `# TYPE name kind`)".into(),
                    }),
                }
            }
            continue;
        }

        let Some((name, labels, value)) = split_sample(line) else {
            problems.push(Problem {
                line: lineno,
                message: "unparseable sample line".into(),
            });
            continue;
        };
        samples += 1;
        if !valid_metric_name(name) {
            problems.push(Problem {
                line: lineno,
                message: format!("invalid metric name {name:?}"),
            });
        }
        if !valid_value(value) {
            problems.push(Problem {
                line: lineno,
                message: format!("invalid sample value {value:?}"),
            });
            continue;
        }
        let base = base_name(name, &types);
        if !types.contains_key(base) {
            problems.push(Problem {
                line: lineno,
                message: format!("series {name:?} has no preceding `# TYPE {base}` line"),
            });
        }
        let labelset = labels.unwrap_or("");
        if name.ends_with("_bucket") && base != name {
            let Some(le) = le_of(labelset) else {
                problems.push(Problem {
                    line: lineno,
                    message: format!("histogram bucket {name:?} lacks an `le` label"),
                });
                continue;
            };
            let others: Vec<&str> = labelset
                .split(',')
                .map(str::trim)
                .filter(|p| !p.starts_with("le="))
                .collect();
            let key = (base.to_string(), others.join(","));
            let count: f64 = value.parse().unwrap_or(f64::NAN);
            buckets.entry(key).or_default().push((le, count, lineno));
        } else if name.ends_with("_count") && base != name {
            let key = (base.to_string(), labelset.to_string());
            counts.insert(key, value.parse().unwrap_or(f64::NAN));
        }
    }

    for ((base, labels), series) in &buckets {
        let mut prev = f64::NEG_INFINITY;
        for (le, count, lineno) in series {
            if *count < prev {
                problems.push(Problem {
                    line: *lineno,
                    message: format!(
                        "histogram {base:?} bucket le={le:?} count {count} is below the \
                         previous bucket ({prev}) — buckets must be cumulative"
                    ),
                });
            }
            prev = *count;
        }
        if let Some((le, count, lineno)) = series.last() {
            if le != "+Inf" {
                problems.push(Problem {
                    line: *lineno,
                    message: format!("histogram {base:?} does not end in an `le=\"+Inf\"` bucket"),
                });
            } else if let Some(total) = counts.get(&(base.clone(), labels.clone())) {
                let diff = (count - total).abs();
                if diff > f64::EPSILON {
                    problems.push(Problem {
                        line: *lineno,
                        message: format!(
                            "histogram {base:?} `+Inf` bucket ({count}) disagrees with \
                             `_count` ({total})"
                        ),
                    });
                }
            }
        }
    }

    if samples == 0 {
        problems.push(Problem {
            line: 1,
            message: "exposition contains no samples".into(),
        });
    }
    problems
}

/// Result of a successful `/healthz` validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HealthSummary {
    /// The `status` string (`ok` or `degraded`).
    pub status: String,
    /// The `degraded` flag.
    pub degraded: bool,
    /// Active ingest sessions.
    pub sessions: u64,
    /// Admission-queue depth at publish time.
    pub queue_depth: u64,
    /// How long the front door has been degraded (0 when healthy).
    pub degraded_since_ms: u64,
    /// The `version+git_sha` build stamp of the serving binary.
    pub build: String,
}

/// The required non-negative integer gauges, in `HealthSummary` order.
const HEALTH_GAUGES: [&str; 3] = ["sessions", "queue_depth", "degraded_since_ms"];

/// Validates a `/healthz` body from `ctup serve`: one flat JSON object
/// whose `status` string and `degraded` boolean must agree (`ok` ⇔
/// `false`, `degraded` ⇔ `true`), with the non-negative integer gauges
/// in [`HEALTH_GAUGES`]. A healthy body must carry `degraded_since_ms`
/// of zero, and `build` must be a non-empty string — the
/// probe is how operators confirm which binary actually took a deploy.
/// Unknown extra keys are allowed so the document can grow without
/// breaking deployed probes.
pub fn check_health(text: &str) -> Result<HealthSummary, Vec<Problem>> {
    let mut problems = Vec::new();
    let pairs = match parse_flat_object(text) {
        Ok(pairs) => pairs,
        Err(message) => return Err(vec![Problem { line: 1, message }]),
    };
    let mut status: Option<String> = None;
    let mut degraded: Option<bool> = None;
    let mut build: Option<String> = None;
    let mut gauges: [Option<u64>; HEALTH_GAUGES.len()] = [None; HEALTH_GAUGES.len()];
    for (key, value) in pairs {
        match (key.as_str(), value) {
            ("build", FlatValue::Str(text)) => {
                if text.is_empty() {
                    problems.push(Problem {
                        line: 1,
                        message: "`build` must be a non-empty string".into(),
                    });
                }
                build = Some(text);
            }
            ("build", other) => problems.push(Problem {
                line: 1,
                message: format!("`build` must be a string, got {other:?}"),
            }),
            ("status", FlatValue::Str(text)) => {
                if text != "ok" && text != "degraded" {
                    problems.push(Problem {
                        line: 1,
                        message: format!("`status` must be \"ok\" or \"degraded\", got {text:?}"),
                    });
                }
                status = Some(text);
            }
            ("degraded", FlatValue::Raw(raw)) if raw == "true" || raw == "false" => {
                degraded = Some(raw == "true");
            }
            ("degraded", other) => problems.push(Problem {
                line: 1,
                message: format!("`degraded` must be a boolean, got {other:?}"),
            }),
            (gauge, value) if HEALTH_GAUGES.contains(&gauge) => {
                let parsed = match &value {
                    FlatValue::Raw(raw) => raw.parse::<u64>().ok(),
                    FlatValue::Str(_) => None,
                };
                match parsed {
                    Some(n) => {
                        if let Some(slot) = HEALTH_GAUGES
                            .iter()
                            .position(|&g| g == gauge)
                            .and_then(|i| gauges.get_mut(i))
                        {
                            *slot = Some(n);
                        }
                    }
                    None => problems.push(Problem {
                        line: 1,
                        message: format!("`{gauge}` must be a non-negative integer, got {value:?}"),
                    }),
                }
            }
            _ => {}
        }
    }
    for (name, missing) in [
        ("status", status.is_none()),
        ("degraded", degraded.is_none()),
        ("build", build.is_none()),
    ]
    .into_iter()
    .chain(
        HEALTH_GAUGES
            .iter()
            .zip(&gauges)
            .map(|(&name, slot)| (name, slot.is_none())),
    ) {
        if missing {
            problems.push(Problem {
                line: 1,
                message: format!("missing `{name}` field"),
            });
        }
    }
    if let (Some(status), Some(degraded)) = (&status, degraded) {
        let consistent = (status == "degraded") == degraded;
        if !consistent && (status == "ok" || status == "degraded") {
            problems.push(Problem {
                line: 1,
                message: format!("`status` {status:?} disagrees with `degraded` = {degraded}"),
            });
        }
    }
    if degraded == Some(false) {
        if let [_, _, Some(since_ms @ 1..)] = gauges {
            problems.push(Problem {
                line: 1,
                message: format!("`degraded_since_ms` is {since_ms} but `degraded` = false"),
            });
        }
    }
    if !problems.is_empty() {
        return Err(problems);
    }
    // The field loop above guarantees every slot is present here;
    // unwrap_or keeps the path panic-free anyway.
    let [sessions, queue_depth, degraded_since_ms] = gauges.map(Option::unwrap_or_default);
    Ok(HealthSummary {
        status: status.unwrap_or_default(),
        degraded: degraded.unwrap_or_default(),
        sessions,
        queue_depth,
        degraded_since_ms,
        build: build.unwrap_or_default(),
    })
}

/// Result of a successful crash-dump validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightSummary {
    /// The terminal outcome (`killed` or `gave_up`).
    pub outcome: String,
    /// The effective sequence number the apply stage stopped at.
    pub seq: u64,
}

/// Parses the terminal line, extracting `outcome` and `seq`.
fn parse_terminal_line(line: &str) -> Result<(String, u64), String> {
    let mut seq: Option<u64> = None;
    let mut outcome: Option<String> = None;
    for (key, value) in parse_flat_object(line)? {
        match (key.as_str(), value) {
            ("seq", FlatValue::Raw(raw)) => seq = raw.parse::<u64>().ok(),
            ("outcome", FlatValue::Str(text)) => outcome = Some(text),
            _ => {}
        }
    }
    match (outcome, seq) {
        (Some(outcome), Some(seq)) if ["killed", "gave_up"].contains(&outcome.as_str()) => {
            Ok((outcome, seq))
        }
        (Some(outcome), Some(_)) => Err(format!("unknown terminal outcome {outcome:?}")),
        (None, _) => Err("terminal line: missing string `outcome` field".into()),
        (_, None) => Err("terminal line: missing numeric `seq` field".into()),
    }
}

/// Validates a crash dump: the terminal line, and nothing after it (the
/// spans before a death are the span dump's to keep).
pub fn check_flight(text: &str) -> Result<FlightSummary, Vec<Problem>> {
    let mut problems = Vec::new();
    let mut lines = text.lines().enumerate();
    let terminal = match lines.next() {
        Some((_, first)) => {
            parse_terminal_line(first).map_err(|message| Problem { line: 1, message })
        }
        None => Err(Problem {
            line: 1,
            message: "dump is empty".into(),
        }),
    };
    for (idx, _) in lines {
        problems.push(Problem {
            line: idx + 1,
            message: "a crash dump is its terminal line only".into(),
        });
    }
    match terminal {
        Ok((outcome, seq)) if problems.is_empty() => Ok(FlightSummary { outcome, seq }),
        Ok(_) => Err(problems),
        Err(problem) => {
            problems.insert(0, problem);
            Err(problems)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOOD_PROM: &str = "\
# TYPE ctup_updates_processed counter
ctup_updates_processed{algorithm=\"opt\"} 60
# TYPE ctup_maintained_now gauge
ctup_maintained_now{algorithm=\"opt\"} 12
# TYPE ctup_update_total_nanos histogram
ctup_update_total_nanos_bucket{algorithm=\"opt\",le=\"1023\"} 10
ctup_update_total_nanos_bucket{algorithm=\"opt\",le=\"2047\"} 55
ctup_update_total_nanos_bucket{algorithm=\"opt\",le=\"+Inf\"} 60
ctup_update_total_nanos_sum{algorithm=\"opt\"} 81234
ctup_update_total_nanos_count{algorithm=\"opt\"} 60
";

    #[test]
    fn good_exposition_is_clean() {
        assert_eq!(check_prom(GOOD_PROM), Vec::new());
    }

    #[test]
    fn missing_type_line_is_flagged() {
        let problems = check_prom("ctup_x{a=\"b\"} 1\n");
        assert!(problems.iter().any(|p| p.message.contains("# TYPE")));
    }

    #[test]
    fn non_cumulative_buckets_are_flagged() {
        let text = "\
# TYPE h histogram
h_bucket{le=\"10\"} 5
h_bucket{le=\"20\"} 3
h_bucket{le=\"+Inf\"} 5
h_sum 1
h_count 5
";
        let problems = check_prom(text);
        assert!(problems.iter().any(|p| p.message.contains("cumulative")));
    }

    #[test]
    fn histogram_must_end_in_inf() {
        let text = "# TYPE h histogram\nh_bucket{le=\"10\"} 5\nh_sum 1\nh_count 5\n";
        let problems = check_prom(text);
        assert!(problems.iter().any(|p| p.message.contains("+Inf")));
    }

    #[test]
    fn inf_bucket_must_match_count() {
        let text = "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 4\nh_sum 1\nh_count 5\n";
        let problems = check_prom(text);
        assert!(problems.iter().any(|p| p.message.contains("disagrees")));
    }

    #[test]
    fn garbage_lines_are_flagged() {
        let problems = check_prom("# TYPE x counter\nx 1\nnot a line at all!!\n");
        assert!(!problems.is_empty());
    }

    #[test]
    fn empty_exposition_is_flagged() {
        let problems = check_prom("# just a comment\n");
        assert!(problems.iter().any(|p| p.message.contains("no samples")));
    }

    const TERMINAL: &str = "{\"outcome\":\"killed\",\"seq\":9,\"unit\":3}";
    const SPAN: &str = "{\"trace\":7,\"span\":11,\"parent\":5,\"stage\":\"engine-apply\",\"start\":10,\"end\":20,\"aux\":0}";

    #[test]
    fn good_flight_dump_is_its_terminal_line() {
        let killed = check_flight(&format!("{TERMINAL}\n")).expect("terminal line alone");
        assert_eq!((killed.outcome.as_str(), killed.seq), ("killed", 9));
        let gave_up = check_flight("{\"outcome\":\"gave_up\",\"seq\":4}\n").expect("gave_up");
        assert_eq!((gave_up.outcome.as_str(), gave_up.seq), ("gave_up", 4));
    }

    #[test]
    fn terminal_line_without_outcome_is_flagged() {
        let problems = check_flight(&format!("{{\"seq\":9}}\n{SPAN}\n")).expect_err("must fail");
        assert!(problems
            .iter()
            .any(|p| p.line == 1 && p.message.contains("outcome")));
    }

    #[test]
    fn missing_fields_are_flagged() {
        for terminal in [
            "{\"outcome\":\"killed\"}",
            "{\"outcome\":\"killed\",\"seq\":\"9\"}",
        ] {
            let problems = check_flight(&format!("{terminal}\n")).expect_err("must fail");
            assert!(
                problems
                    .iter()
                    .any(|p| p.line == 1 && p.message.contains("seq")),
                "{terminal}: {problems:?}"
            );
        }
    }

    #[test]
    fn terminal_line_must_come_first() {
        let problems = check_flight(&format!("{SPAN}\n{TERMINAL}\n")).expect_err("must fail");
        assert!(problems.iter().any(|p| p.line == 1));
        assert!(problems.iter().any(|p| p.line == 2));
    }

    #[test]
    fn unknown_outcome_is_flagged() {
        let problems =
            check_flight("{\"outcome\":\"applied\",\"seq\":1}\n").expect_err("must fail");
        assert!(problems.iter().any(|p| p.message.contains("applied")));
    }

    #[test]
    fn every_line_after_the_terminal_line_is_flagged() {
        let text = format!("{TERMINAL}\n{SPAN}\n{{\"seq\":5,\"outcome\":\"applied\"}}\n");
        let problems = check_flight(&text).expect_err("must fail");
        assert_eq!(problems.len(), 2, "{problems:?}");
        assert_eq!((problems[0].line, problems[1].line), (2, 3));
        assert!(problems[0].message.contains("terminal line only"));
    }

    #[test]
    fn empty_dump_is_flagged() {
        let problems = check_flight("").expect_err("must fail");
        assert!(problems.iter().any(|p| p.message.contains("empty")));
    }

    /// A well-formed body with the given leading fields appended with
    /// a healthy `degraded_since_ms` and a build stamp.
    fn health_body(status: &str, degraded: bool, sessions: i64, queue_depth: i64) -> String {
        format!(
            "{{\"status\":\"{status}\",\"degraded\":{degraded},\"sessions\":{sessions},\
             \"queue_depth\":{queue_depth},\"degraded_since_ms\":0,\
             \"build\":\"0.1.0+abcdef0\"}}"
        )
    }

    #[test]
    fn healthy_body_parses() {
        let summary = check_health(&health_body("ok", false, 3, 17)).expect("clean body");
        assert_eq!(summary.status, "ok");
        assert!(!summary.degraded);
        assert_eq!(summary.sessions, 3);
        assert_eq!(summary.queue_depth, 17);
        assert_eq!(summary.degraded_since_ms, 0);
    }

    #[test]
    fn degraded_body_parses() {
        let body = "{\"status\":\"degraded\",\"degraded\":true,\"sessions\":0,\"queue_depth\":0,\
                    \"degraded_since_ms\":450,\"build\":\"0.1.0+unknown\"}";
        let summary = check_health(body).expect("clean body");
        assert!(summary.degraded);
        assert_eq!(summary.degraded_since_ms, 450);
    }

    #[test]
    fn health_status_flag_disagreement_is_flagged() {
        let problems = check_health(&health_body("ok", true, 1, 0)).expect_err("must fail");
        assert!(problems.iter().any(|p| p.message.contains("disagrees")));
    }

    #[test]
    fn health_missing_gauge_is_flagged() {
        let body = "{\"status\":\"ok\",\"degraded\":false,\"sessions\":1}";
        let problems = check_health(body).expect_err("must fail");
        for gauge in ["queue_depth", "degraded_since_ms"] {
            assert!(
                problems
                    .iter()
                    .any(|p| p.message.contains(&format!("missing `{gauge}`"))),
                "no missing-field problem for {gauge}: {problems:?}"
            );
        }
    }

    #[test]
    fn health_non_integer_gauge_is_flagged() {
        let problems = check_health(&health_body("ok", false, -1, 0)).expect_err("must fail");
        assert!(problems
            .iter()
            .any(|p| p.message.contains("non-negative integer")));
    }

    #[test]
    fn health_unknown_status_is_flagged() {
        let problems = check_health(&health_body("meh", false, 0, 0)).expect_err("must fail");
        assert!(problems.iter().any(|p| p.message.contains("status")));
    }

    #[test]
    fn health_extra_keys_are_allowed() {
        let mut body = health_body("ok", false, 0, 0);
        body.truncate(body.len() - 1);
        body.push_str(",\"future_gauge\":7}");
        assert!(check_health(&body).is_ok());
    }

    #[test]
    fn health_build_stamp_is_surfaced() {
        let summary = check_health(&health_body("ok", false, 0, 0)).expect("clean body");
        assert_eq!(summary.build, "0.1.0+abcdef0");
    }

    #[test]
    fn health_missing_build_is_flagged() {
        let body = "{\"status\":\"ok\",\"degraded\":false,\"sessions\":0,\"queue_depth\":0,\
                    \"degraded_since_ms\":0}";
        let problems = check_health(body).expect_err("must fail");
        assert!(problems
            .iter()
            .any(|p| p.message.contains("missing `build`")));
    }

    #[test]
    fn health_empty_build_is_flagged() {
        let body = health_body("ok", false, 0, 0).replace("0.1.0+abcdef0", "");
        let problems = check_health(&body).expect_err("must fail");
        assert!(problems.iter().any(|p| p.message.contains("non-empty")));
    }

    #[test]
    fn health_degraded_since_on_healthy_body_is_flagged() {
        let body = "{\"status\":\"ok\",\"degraded\":false,\"sessions\":0,\"queue_depth\":0,\
                    \"degraded_since_ms\":900}";
        let problems = check_health(body).expect_err("must fail");
        assert!(problems
            .iter()
            .any(|p| p.message.contains("`degraded_since_ms` is 900")));
    }

    #[test]
    fn health_non_object_is_flagged() {
        let problems = check_health("status: ok").expect_err("must fail");
        assert!(problems.iter().any(|p| p.message.contains("braces")));
    }
}
