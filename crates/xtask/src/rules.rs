//! The lint rule registry: what rustc and clippy cannot check.
//!
//! | Rule | Invariant |
//! |------|-----------|
//! | L004 | every collected counter/histogram field appears in the report output |
//! | L005 | checkpoint-serialized structs may not change without a `FORMAT_VERSION` bump |
//! | L011 | non-test lines under each path in `lint/budget.toml` stay within its cap |
//!
//! L004 and L005 each relate two files (a struct and its renderer; the
//! serialized items, their recorded fingerprints and the version
//! constant), so no per-item lint can see them; L011 is a property of the
//! tree. The library-code policy that
//! clippy can express (no panics, no exact float comparison, no lossy
//! integer casts, reasoned `#[expect]` only) is set at each crate root
//! instead (DESIGN.md §10).

use crate::lexer::TokenKind;
use crate::source::SourceFile;

/// One rule violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Rule id, e.g. `L004`.
    pub rule: &'static str,
    /// File, relative to the lint root.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

/// All rules, in id order; the module docs say what each checks.
pub const RULES: &[&str] = &["L004", "L005", "L011"];

/// Extracts the field names of `struct name {{ … }}` from a lexed file.
/// Returns `None` when the struct is not found or has no brace body.
pub fn struct_fields(file: &SourceFile, name: &str) -> Option<Vec<(String, usize)>> {
    let toks = &file.tokens;
    let start = toks.windows(2).position(|w| {
        w[0].kind == TokenKind::Ident
            && w[0].text == "struct"
            && w[1].kind == TokenKind::Ident
            && w[1].text == name
    })?;
    // Find the opening brace (skip generics/where clauses — none here, but a
    // paren would mean a tuple struct, which has no named fields).
    let mut i = start + 2;
    while i < toks.len() {
        match toks[i].text.as_str() {
            "{" => break,
            ";" | "(" => return None,
            _ => i += 1,
        }
    }
    if i >= toks.len() {
        return None;
    }
    let mut fields = Vec::new();
    let mut depth = 0isize;
    while i < toks.len() {
        let t = &toks[i];
        match t.text.as_str() {
            "{" | "(" | "[" => depth += 1,
            "}" | ")" | "]" => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            _ => {
                // A field name is an ident directly followed by `:` at body
                // depth, not preceded by `:` (path segments live deeper
                // anyway) — struct bodies at depth 1 only contain
                // `attr* vis? name : type ,` sequences.
                if depth == 1
                    && t.kind == TokenKind::Ident
                    && toks.get(i + 1).map(|n| n.text.as_str()) == Some(":")
                    && i.checked_sub(1)
                        .map(|p| toks[p].text != ":" && toks[p].text != "::")
                        .unwrap_or(true)
                {
                    fields.push((t.text.clone(), t.line));
                }
            }
        }
        i += 1;
    }
    Some(fields)
}

/// Configuration of the L004 metrics-coverage rule.
#[derive(Debug, Clone)]
pub struct MetricsCoverage {
    /// File defining the structs, relative to root.
    pub struct_file: String,
    /// Struct names whose fields must all be reported.
    pub structs: Vec<String>,
    /// Files that together must mention every field.
    pub report_files: Vec<String>,
}

impl MetricsCoverage {
    /// The real repo's configuration.
    pub fn default_config() -> Vec<MetricsCoverage> {
        vec![
            // One renderer: `core::report::Snapshot`, whose `counters()` /
            // `gauges()` name every field, is what every CLI printout,
            // exposition and `/metrics` scrape goes through, so a field
            // missing there is missing everywhere.
            MetricsCoverage {
                struct_file: "crates/core/src/metrics.rs".into(),
                structs: vec!["Metrics".into(), "ResilienceStats".into()],
                report_files: vec!["crates/core/src/report.rs".into()],
            },
            MetricsCoverage {
                struct_file: "crates/storage/src/stats.rs".into(),
                structs: vec!["StorageStatsSnapshot".into()],
                report_files: vec!["crates/core/src/report.rs".into()],
            },
            // The snapshot renders histograms through `named()`, which
            // lists every latency field next to its definition.
            MetricsCoverage {
                struct_file: "crates/obs/src/latency.rs".into(),
                structs: vec!["LatencySnapshot".into()],
                report_files: vec!["crates/obs/src/latency.rs".into()],
            },
            MetricsCoverage {
                struct_file: "crates/core/src/net/stats.rs".into(),
                structs: vec!["NetStatsSnapshot".into()],
                report_files: vec!["crates/core/src/report.rs".into()],
            },
            // The span layer's own health counters (dropped spans, sampled
            // traces, exemplars): a tracing layer that can lose data
            // invisibly is worse than none.
            MetricsCoverage {
                struct_file: "crates/obs/src/span.rs".into(),
                structs: vec!["SpanCounters".into()],
                report_files: vec!["crates/core/src/report.rs".into()],
            },
        ]
    }
}

/// L004: metrics coverage. `lookup` loads a file by relative path;
/// violations are reported against the struct definition.
pub fn check_metrics_coverage(
    cfg: &MetricsCoverage,
    lookup: &dyn Fn(&str) -> Option<std::rc::Rc<SourceFile>>,
    sink: &mut Vec<Violation>,
) {
    let Some(def) = lookup(&cfg.struct_file) else {
        sink.push(Violation {
            rule: "L004",
            file: cfg.struct_file.clone(),
            line: 1,
            message: "metrics struct file not found".into(),
        });
        return;
    };
    let mut reported: std::collections::HashSet<String> = std::collections::HashSet::new();
    for rf in &cfg.report_files {
        let Some(f) = lookup(rf) else {
            sink.push(Violation {
                rule: "L004",
                file: rf.clone(),
                line: 1,
                message: "metrics report file not found".into(),
            });
            continue;
        };
        for t in &f.tokens {
            if t.kind == TokenKind::Ident {
                reported.insert(t.text.clone());
            }
        }
    }
    for name in &cfg.structs {
        let Some(fields) = struct_fields(&def, name) else {
            sink.push(Violation {
                rule: "L004",
                file: cfg.struct_file.clone(),
                line: 1,
                message: format!("struct `{name}` not found in {}", cfg.struct_file),
            });
            continue;
        };
        for (field, line) in fields {
            if !reported.contains(&field) {
                sink.push(Violation {
                    rule: "L004",
                    file: cfg.struct_file.clone(),
                    line,
                    message: format!(
                        "field `{field}` of `{name}` is collected but never reported \
                         (expected in {})",
                        cfg.report_files.join(", ")
                    ),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn struct_field_extraction() {
        let f = SourceFile::parse(
            "crates/core/src/metrics.rs",
            "pub struct Metrics { pub a: u64, #[serde(skip)] pub b_two: Inner, c: Vec<(u32, u8)> }",
        );
        let fields = struct_fields(&f, "Metrics").unwrap();
        let names: Vec<&str> = fields.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["a", "b_two", "c"]);
    }
}
