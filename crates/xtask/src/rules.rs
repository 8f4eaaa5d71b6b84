//! The lint rule registry: CTUP's domain invariants as code.
//!
//! | Rule | Invariant |
//! |------|-----------|
//! | L000 | `ctup-lint` directives must be well-formed and must fire |
//! | L001 | no panicking constructs in library code of `core`/`spatial`/`storage`/`obs` |
//! | L002 | no `==` / `!=` on floating-point expressions |
//! | L003 | no bare truncating integer `as` casts in `core`/`spatial` |
//! | L004 | every collected counter/histogram field appears in the report output |
//! | L005 | checkpoint-serialized structs may not change without a `FORMAT_VERSION` bump |
//!
//! Generic clippy cannot express L004/L005 at all and enforces L001–L003
//! only approximately; these rules encode what "correct" means for this
//! system: panics stay behind the supervisor boundary, coordinates are
//! never compared exactly, id spaces never truncate silently, observability
//! never rots, and the restart path never reads a checkpoint whose layout
//! drifted under it.

use crate::lexer::TokenKind;
use crate::source::SourceFile;

/// One rule violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Rule id, e.g. `L001`.
    pub rule: &'static str,
    /// File, relative to the lint root.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

/// Static description of a rule, for `--json` output and `known_rule`.
#[derive(Debug)]
pub struct RuleInfo {
    /// Rule id.
    pub id: &'static str,
    /// One-line summary.
    pub summary: &'static str,
}

/// All rules, in id order.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: "L000",
        summary: "ctup-lint suppression directives must parse, name a known rule, \
                  carry a reason, and actually fire",
    },
    RuleInfo {
        id: "L001",
        summary: "no unwrap/expect/panic!/unreachable!/todo!/unimplemented! in non-test \
                  library code of core, spatial, storage and obs",
    },
    RuleInfo {
        id: "L002",
        summary: "no == or != on floating-point expressions; use epsilon comparison or \
                  is_infinite()/is_nan()",
    },
    RuleInfo {
        id: "L003",
        summary: "no bare `as` casts to integer types in core and spatial; use try_from \
                  or the checked id-space helpers",
    },
    RuleInfo {
        id: "L004",
        summary: "every field of Metrics, ResilienceStats, StorageStatsSnapshot, \
                  LatencySnapshot and NetStatsSnapshot must appear in the CLI \
                  metrics report",
    },
    RuleInfo {
        id: "L005",
        summary: "checkpoint-serialized item signatures must match lint/fingerprints.toml \
                  unless FORMAT_VERSION is bumped",
    },
    RuleInfo {
        id: "L006",
        summary: "the global lock-acquisition order over Mutex/RwLock fields must be \
                  acyclic; cycles are reported with a witness path",
    },
    RuleInfo {
        id: "L007",
        summary: "no blocking call (channel send/recv, join, sleep, I/O) while a lock \
                  guard is live; condvar waits are exempt",
    },
    RuleInfo {
        id: "L008",
        summary: "Ordering::Relaxed only in the designated counters modules or behind a \
                  stats handle; anywhere else needs a reasoned suppression",
    },
    RuleInfo {
        id: "L009",
        summary: "a file that spawns OS threads must join a handle somewhere, or each \
                  spawn carries an explicit detach rationale",
    },
    RuleInfo {
        id: "L010",
        summary: "channels must be bounded (sync_channel/bounded); unbounded channels \
                  need a capacity rationale",
    },
    RuleInfo {
        id: "L011",
        summary: "non-test lines under each path in lint/budget.toml stay within its cap, \
                  and every crate has one",
    },
];

/// Whether `id` names a rule (used when validating suppressions).
pub fn known_rule(id: &str) -> bool {
    RULES.iter().any(|r| r.id == id)
}

/// A suppression that fired, recorded so unused suppressions can be flagged.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FiredSuppression {
    /// File the suppression lives in.
    pub file: String,
    /// Line of the directive comment.
    pub line: usize,
}

/// Accumulator shared by the per-file rules.
#[derive(Debug, Default)]
pub struct RuleSink {
    /// Confirmed violations.
    pub violations: Vec<Violation>,
    /// Suppressions that matched a candidate violation.
    pub fired: Vec<FiredSuppression>,
}

impl RuleSink {
    /// Records `v` unless a suppression covers it; a covering suppression is
    /// marked as fired.
    pub(crate) fn push(&mut self, file: &SourceFile, v: Violation) {
        if let Some(sup) = file.suppressed(v.rule, v.line) {
            self.fired.push(FiredSuppression {
                file: file.rel_path.clone(),
                line: sup.line,
            });
        } else {
            self.violations.push(v);
        }
    }
}

/// Crates whose library code must be panic-free (L001): everything that runs
/// inside the supervised worker or below it.
const PANIC_FREE: &[&str] = &[
    "crates/core/src/",
    "crates/spatial/src/",
    "crates/storage/src/",
    "crates/obs/src/",
];

/// Crates whose library code may not use bare integer `as` casts (L003):
/// the id-space arithmetic (cells, places, units) lives here.
const CAST_CHECKED: &[&str] = &["crates/core/src/", "crates/spatial/src/"];

fn in_scope(file: &SourceFile, prefixes: &[&str]) -> bool {
    prefixes.iter().any(|p| file.rel_path.starts_with(p))
}

/// Methods whose call panics (L001).
const PANICKY_METHODS: &[&str] = &["unwrap", "expect"];
/// Macros that panic (L001). `assert!` family is deliberately excluded:
/// asserting a broken invariant *should* trip the supervisor.
const PANICKY_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// L001: panic-free library code.
pub fn check_panics(file: &SourceFile, sink: &mut RuleSink) {
    if !in_scope(file, PANIC_FREE) {
        return;
    }
    let toks = &file.tokens;
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokenKind::Ident || file.in_test(i) {
            continue;
        }
        let name = t.text.as_str();
        let next = toks.get(i + 1).map(|n| n.text.as_str());
        let prev = i.checked_sub(1).map(|p| toks[p].text.as_str());
        if PANICKY_METHODS.contains(&name)
            && next == Some("(")
            && matches!(prev, Some(".") | Some("::"))
        {
            sink.push(
                file,
                Violation {
                    rule: "L001",
                    file: file.rel_path.clone(),
                    line: t.line,
                    message: format!(
                        "`.{name}()` in non-test library code: return a typed error, use a \
                         non-panicking fallback, or justify with \
                         `// ctup-lint: allow(L001, why)`"
                    ),
                },
            );
        }
        if PANICKY_MACROS.contains(&name) && next == Some("!") {
            sink.push(
                file,
                Violation {
                    rule: "L001",
                    file: file.rel_path.clone(),
                    line: t.line,
                    message: format!(
                        "`{name}!` in non-test library code: panics belong behind the \
                         supervisor boundary, not inside it"
                    ),
                },
            );
        }
    }
}

/// Tokens that terminate an operand scan for L002 when seen at depth 0.
const OPERAND_STOPS: &[&str] = &[
    ",",
    ";",
    "{",
    "}",
    "&&",
    "||",
    "=",
    "==",
    "!=",
    "<",
    ">",
    "<=",
    ">=",
    "=>",
    "->",
    "return",
    "if",
    "while",
    "match",
    "let",
    "else",
    "assert",
    "debug_assert",
    "?",
];

/// Collects the operand tokens on one side of a comparison operator.
/// `dir` is -1 (left) or +1 (right).
fn operand(file: &SourceFile, op_idx: usize, dir: isize) -> Vec<&crate::lexer::Token> {
    let toks = &file.tokens;
    let mut out = Vec::new();
    let mut depth = 0isize;
    let mut i = op_idx as isize + dir;
    while i >= 0 && (i as usize) < toks.len() {
        let t = &toks[i as usize];
        let text = t.text.as_str();
        let (open, close) = if dir < 0 { (")", "(") } else { ("(", ")") };
        let (open2, close2) = if dir < 0 { ("]", "[") } else { ("[", "]") };
        if text == open || text == open2 {
            depth += 1;
        } else if text == close || text == close2 {
            if depth == 0 {
                break;
            }
            depth -= 1;
        } else if depth == 0 && OPERAND_STOPS.contains(&text) {
            break;
        }
        out.push(t);
        i += dir;
    }
    out
}

/// Idents that mark an operand as floating-point for L002.
fn float_marker(t: &crate::lexer::Token) -> bool {
    t.kind == TokenKind::Float
        || (t.kind == TokenKind::Ident
            && matches!(
                t.text.as_str(),
                "f32" | "f64" | "INFINITY" | "NEG_INFINITY" | "NAN" | "EPSILON"
            ))
}

/// L002: no float equality. Applies to non-test library code everywhere —
/// exact float comparison is wrong in every crate, not just the hot path.
pub fn check_float_eq(file: &SourceFile, sink: &mut RuleSink) {
    for (i, t) in file.tokens.iter().enumerate() {
        if t.kind != TokenKind::Punct || (t.text != "==" && t.text != "!=") || file.in_test(i) {
            continue;
        }
        let lhs = operand(file, i, -1);
        let rhs = operand(file, i, 1);
        if lhs.iter().any(|t| float_marker(t)) || rhs.iter().any(|t| float_marker(t)) {
            sink.push(
                file,
                Violation {
                    rule: "L002",
                    file: file.rel_path.clone(),
                    line: t.line,
                    message: format!(
                        "`{}` on a floating-point expression: use an epsilon comparison or \
                         is_infinite()/is_nan()",
                        t.text
                    ),
                },
            );
        }
    }
}

/// Integer target types for L003.
const INT_TYPES: &[&str] = &[
    "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize",
];

/// L003: no bare integer `as` casts in the id-space crates. Casts to floats
/// round rather than truncate and are allowed; integer casts silently wrap.
pub fn check_casts(file: &SourceFile, sink: &mut RuleSink) {
    if !in_scope(file, CAST_CHECKED) {
        return;
    }
    let toks = &file.tokens;
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokenKind::Ident || t.text != "as" || file.in_test(i) {
            continue;
        }
        let Some(next) = toks.get(i + 1) else {
            continue;
        };
        if next.kind == TokenKind::Ident && INT_TYPES.contains(&next.text.as_str()) {
            sink.push(
                file,
                Violation {
                    rule: "L003",
                    file: file.rel_path.clone(),
                    line: t.line,
                    message: format!(
                        "bare `as {}` cast: use try_from or a checked id-space helper \
                         (silent wrap-around corrupts cell/place/unit ids)",
                        next.text
                    ),
                },
            );
        }
    }
}

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

/// L004: metrics coverage. `files` is the full parsed workspace keyed by
/// relative path; violations are reported against the struct definition.
pub fn check_metrics_coverage(
    cfg: &MetricsCoverage,
    lookup: &dyn Fn(&str) -> Option<std::rc::Rc<SourceFile>>,
    sink: &mut RuleSink,
) {
    let Some(def) = lookup(&cfg.struct_file) else {
        sink.violations.push(Violation {
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
            sink.violations.push(Violation {
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
            sink.violations.push(Violation {
                rule: "L004",
                file: cfg.struct_file.clone(),
                line: 1,
                message: format!("struct `{name}` not found in {}", cfg.struct_file),
            });
            continue;
        };
        for (field, line) in fields {
            if !reported.contains(&field) {
                sink.push(
                    &def,
                    Violation {
                        rule: "L004",
                        file: cfg.struct_file.clone(),
                        line,
                        message: format!(
                            "field `{field}` of `{name}` is collected but never reported \
                             (expected in {})",
                            cfg.report_files.join(", ")
                        ),
                    },
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_file(path: &str, src: &str) -> RuleSink {
        let f = SourceFile::parse(path, src);
        let mut sink = RuleSink::default();
        check_panics(&f, &mut sink);
        check_float_eq(&f, &mut sink);
        check_casts(&f, &mut sink);
        sink
    }

    #[test]
    fn l001_flags_unwrap_and_macros_outside_tests() {
        let sink = run_file(
            "crates/core/src/x.rs",
            "fn f() { a.unwrap(); b.expect(\"x\"); panic!(\"y\"); unreachable!(); }\n\
             #[cfg(test)] mod t { fn g() { c.unwrap(); panic!(); } }",
        );
        let l001: Vec<_> = sink
            .violations
            .iter()
            .filter(|v| v.rule == "L001")
            .collect();
        assert_eq!(l001.len(), 4);
    }

    #[test]
    fn l001_ignores_unwrap_or_and_out_of_scope_files() {
        let sink = run_file(
            "crates/core/src/x.rs",
            "fn f() { a.unwrap_or(0); b.unwrap_or_else(|| 1); c.unwrap_or_default(); }",
        );
        assert!(sink.violations.is_empty());
        let sink = run_file("crates/cli/src/x.rs", "fn f() { a.unwrap(); }");
        assert!(sink.violations.is_empty());
    }

    #[test]
    fn l002_flags_float_comparisons() {
        let sink = run_file(
            "crates/mogen/src/x.rs",
            "fn f(lb: f64) { if lb == f64::INFINITY {} if x != 0.5 {} if n == 3 {} }",
        );
        let l002: Vec<_> = sink
            .violations
            .iter()
            .filter(|v| v.rule == "L002")
            .collect();
        assert_eq!(l002.len(), 2);
    }

    #[test]
    fn l002_ignores_integer_comparisons_and_strings() {
        let sink = run_file(
            "crates/core/src/x.rs",
            "fn f() { if a == b {} if s == \"1.5\" {} if n != 3 {} }",
        );
        assert!(sink.violations.is_empty());
    }

    #[test]
    fn l003_flags_integer_casts_not_float_casts() {
        let sink = run_file(
            "crates/spatial/src/x.rs",
            "fn f(i: usize) { let a = i as u32; let b = i as f64; let c = x as usize; }",
        );
        let l003: Vec<_> = sink
            .violations
            .iter()
            .filter(|v| v.rule == "L003")
            .collect();
        assert_eq!(l003.len(), 2);
    }

    #[test]
    fn l003_out_of_scope_in_storage() {
        let sink = run_file("crates/storage/src/x.rs", "fn f(i: usize) { i as u32; }");
        assert!(sink.violations.iter().all(|v| v.rule != "L003"));
    }

    #[test]
    fn suppression_fires_and_is_recorded() {
        let sink = run_file(
            "crates/core/src/x.rs",
            "fn f() {\n    // ctup-lint: allow(L001, poisoned lock is unrecoverable)\n    a.lock().unwrap();\n}",
        );
        assert!(sink.violations.is_empty());
        assert_eq!(sink.fired.len(), 1);
        assert_eq!(sink.fired[0].line, 2);
    }

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
