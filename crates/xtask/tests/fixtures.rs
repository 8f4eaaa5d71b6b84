//! End-to-end tests of the lint engine against fixture workspaces written
//! to a temp directory: each test builds a tiny tree, runs [`xtask::run_lint`]
//! exactly like the binary does, and asserts on the resulting report.

// Fixture helpers are plain fns, outside the `allow-unwrap-in-tests` carve-out.
#![allow(clippy::unwrap_used)]

use std::fs;
use std::path::PathBuf;
use xtask::fingerprint::{FingerprintConfig, TrackedItem};
use xtask::rules::MetricsCoverage;
use xtask::{run_lint, LintConfig, LintReport};

/// A throwaway workspace under the OS temp dir, removed on drop.
struct Fixture {
    root: PathBuf,
}

impl Fixture {
    fn new(name: &str) -> Fixture {
        let root =
            std::env::temp_dir().join(format!("ctup-xtask-fixture-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        fs::create_dir_all(&root).unwrap();
        Fixture { root }
    }

    fn write(&self, rel: &str, content: &str) {
        let path = self.root.join(rel);
        fs::create_dir_all(path.parent().unwrap()).unwrap();
        fs::write(path, content).unwrap();
    }

    fn lint(&self, config: &LintConfig, update: bool) -> LintReport {
        run_lint(&self.root, config, update).unwrap()
    }
}

impl Drop for Fixture {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.root);
    }
}

/// Rules L001–L003 only; L004/L005 are opt-in per test.
fn base_config() -> LintConfig {
    LintConfig {
        metrics: Vec::new(),
        fingerprints: None,
    }
}

fn rules_at<'a>(report: &'a LintReport, file: &str) -> Vec<(&'a str, usize)> {
    report
        .violations
        .iter()
        .filter(|v| v.file == file)
        .map(|v| (v.rule, v.line))
        .collect()
}

#[test]
fn l001_flags_lib_panics_but_not_tests_or_out_of_scope_crates() {
    let fx = Fixture::new("l001-scope");
    fx.write(
        "crates/core/src/lib.rs",
        "pub fn f(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\n\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        None::<u32>.unwrap();\n        panic!(\"fine in tests\");\n    }\n}\n",
    );
    // Same code in a crate outside the panic-free scope is not flagged.
    fx.write(
        "crates/cli/src/lib.rs",
        "pub fn g(x: Option<u32>) -> u32 {\n    x.expect(\"cli may panic\")\n}\n",
    );
    let report = fx.lint(&base_config(), false);
    assert_eq!(
        rules_at(&report, "crates/core/src/lib.rs"),
        vec![("L001", 2)]
    );
    assert!(rules_at(&report, "crates/cli/src/lib.rs").is_empty());
}

#[test]
fn l001_all_banned_macros_fire() {
    let fx = Fixture::new("l001-macros");
    fx.write(
        "crates/storage/src/lib.rs",
        "pub fn f(n: u32) {\n    if n == 1 { panic!(\"a\") }\n    if n == 2 { unreachable!() }\n    if n == 3 { todo!() }\n}\n",
    );
    let report = fx.lint(&base_config(), false);
    assert_eq!(
        rules_at(&report, "crates/storage/src/lib.rs"),
        vec![("L001", 2), ("L001", 3), ("L001", 4)]
    );
}

#[test]
fn suppression_with_reason_silences_and_is_not_reported_unused() {
    let fx = Fixture::new("allow-ok");
    fx.write(
        "crates/core/src/lib.rs",
        "pub fn f(x: Option<u32>) -> u32 {\n    // ctup-lint: allow(L001, construction-time contract)\n    x.unwrap()\n}\n",
    );
    let report = fx.lint(&base_config(), false);
    assert!(report.clean(), "unexpected: {:?}", report.violations);
}

#[test]
fn trailing_suppression_covers_only_its_own_line() {
    let fx = Fixture::new("allow-trailing");
    fx.write(
        "crates/core/src/lib.rs",
        "pub fn f(x: Option<u32>, y: Option<u32>) -> u32 {\n    let a = x.unwrap(); // ctup-lint: allow(L001, measured hot path)\n    a + y.unwrap()\n}\n",
    );
    let report = fx.lint(&base_config(), false);
    // Line 2 is excused; line 3 is not.
    assert_eq!(
        rules_at(&report, "crates/core/src/lib.rs"),
        vec![("L001", 3)]
    );
}

#[test]
fn l000_flags_malformed_and_never_fired_directives() {
    let fx = Fixture::new("l000");
    fx.write(
        "crates/core/src/lib.rs",
        "// ctup-lint: allow(L001)\npub fn a() {}\n\n// ctup-lint: allow(L999, no such rule)\npub fn b() {}\n\n// ctup-lint: allow(L001, nothing here to excuse)\npub fn c() {}\n",
    );
    let report = fx.lint(&base_config(), false);
    let rules = rules_at(&report, "crates/core/src/lib.rs");
    // Missing reason, unknown rule, and a suppression that never fired.
    assert_eq!(rules, vec![("L000", 1), ("L000", 4), ("L000", 7)]);
}

#[test]
fn l002_flags_float_comparisons_but_not_integer_ones() {
    let fx = Fixture::new("l002");
    fx.write(
        "crates/core/src/lib.rs",
        "pub fn f(x: f64, n: u32) -> bool {\n    let a = x == 0.0;\n    let b = x.fract() != 0.0;\n    let c = n == 3;\n    let d = x.is_infinite();\n    a && b && c && d\n}\n",
    );
    let report = fx.lint(&base_config(), false);
    assert_eq!(
        rules_at(&report, "crates/core/src/lib.rs"),
        vec![("L002", 2), ("L002", 3)]
    );
}

#[test]
fn l003_flags_bare_casts_in_scope_only() {
    let fx = Fixture::new("l003");
    fx.write(
        "crates/spatial/src/lib.rs",
        "pub fn f(n: usize, x: u32) -> u64 {\n    let a = n as u64;\n    let b = x as f64;\n    a + b as u64\n}\n",
    );
    // Storage is outside the checked-cast scope.
    fx.write(
        "crates/storage/src/lib.rs",
        "pub fn g(n: usize) -> u64 {\n    n as u64\n}\n",
    );
    let report = fx.lint(&base_config(), false);
    // Line 2 (usize -> u64) and line 4 (f64 -> u64) fire; f64 target does not.
    assert_eq!(
        rules_at(&report, "crates/spatial/src/lib.rs"),
        vec![("L003", 2), ("L003", 4)]
    );
    assert!(rules_at(&report, "crates/storage/src/lib.rs").is_empty());
}

fn metrics_config() -> LintConfig {
    LintConfig {
        metrics: vec![MetricsCoverage {
            struct_file: "crates/core/src/metrics.rs".into(),
            structs: vec!["Metrics".into()],
            report_files: vec!["crates/cli/src/report.rs".into()],
        }],
        fingerprints: None,
    }
}

#[test]
fn l004_flags_collected_but_unreported_fields() {
    let fx = Fixture::new("l004");
    fx.write(
        "crates/core/src/metrics.rs",
        "/// Counters.\npub struct Metrics {\n    /// a.\n    pub updates: u64,\n    /// b.\n    pub cells_accessed: u64,\n}\n",
    );
    fx.write(
        "crates/cli/src/report.rs",
        "pub fn report(m: &Metrics) -> u64 {\n    m.updates\n}\n",
    );
    let report = fx.lint(&metrics_config(), false);
    let violations: Vec<_> = report
        .violations
        .iter()
        .filter(|v| v.rule == "L004")
        .collect();
    assert_eq!(violations.len(), 1, "{:?}", report.violations);
    assert!(violations[0].message.contains("cells_accessed"));

    // Reporting the field makes the tree clean.
    fx.write(
        "crates/cli/src/report.rs",
        "pub fn report(m: &Metrics) -> u64 {\n    m.updates + m.cells_accessed\n}\n",
    );
    let report = fx.lint(&metrics_config(), false);
    assert!(report.clean(), "{:?}", report.violations);
}

fn fingerprint_config() -> LintConfig {
    LintConfig {
        metrics: Vec::new(),
        fingerprints: Some(FingerprintConfig {
            version_file: "crates/core/src/checkpoint.rs".into(),
            version_const: "FORMAT_VERSION".into(),
            store: "lint/fingerprints.toml".into(),
            tracked: vec![TrackedItem {
                key: "core::checkpoint::Checkpoint".into(),
                file: "crates/core/src/checkpoint.rs".into(),
                item: "Checkpoint".into(),
            }],
        }),
    }
}

fn checkpoint_src(version: u32, extra_field: bool) -> String {
    format!(
        "pub const FORMAT_VERSION: u32 = {version};\n\npub struct Checkpoint {{\n    pub units: Vec<(f64, f64)>,\n{}}}\n",
        if extra_field { "    pub bounds: Vec<i64>,\n" } else { "" }
    )
}

#[test]
fn l005_update_roundtrip_detects_drift_and_accepts_version_bump() {
    let fx = Fixture::new("l005");
    fx.write("crates/core/src/checkpoint.rs", &checkpoint_src(1, false));

    // No store yet: the rule demands --update-fingerprints.
    let report = fx.lint(&fingerprint_config(), false);
    assert_eq!(report.violations.len(), 1);
    assert!(report.violations[0].message.contains("store missing"));

    // Recording then re-linting is clean.
    assert!(fx.lint(&fingerprint_config(), true).clean());
    assert!(fx.lint(&fingerprint_config(), false).clean());

    // Changing a serialized struct without a version bump is a violation
    // pointing at the offending file.
    fx.write("crates/core/src/checkpoint.rs", &checkpoint_src(1, true));
    let report = fx.lint(&fingerprint_config(), false);
    assert_eq!(report.violations.len(), 1);
    assert_eq!(report.violations[0].file, "crates/core/src/checkpoint.rs");
    assert!(report.violations[0].message.contains("FORMAT_VERSION bump"));

    // Bumping the version alone still requires re-recording...
    fx.write("crates/core/src/checkpoint.rs", &checkpoint_src(2, true));
    let report = fx.lint(&fingerprint_config(), false);
    assert_eq!(report.violations.len(), 1);
    assert!(report.violations[0].message.contains("recorded for 1"));

    // ...and bump + re-record is the sanctioned workflow.
    assert!(fx.lint(&fingerprint_config(), true).clean());
    let report = fx.lint(&fingerprint_config(), false);
    assert!(report.clean(), "{:?}", report.violations);
    let store = fs::read_to_string(fx.root.join("lint/fingerprints.toml")).unwrap();
    assert!(store.contains("format_version = 2"), "{store}");
    assert!(store.contains("core::checkpoint::Checkpoint"), "{store}");
}

#[test]
fn json_report_has_the_documented_shape() {
    let fx = Fixture::new("json");
    fx.write(
        "crates/core/src/lib.rs",
        "pub fn f(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\n",
    );
    let report = fx.lint(&base_config(), false);
    let json = xtask::json::render(&report);
    assert!(json.starts_with("{\"clean\":false,"));
    assert!(json.contains("\"files_checked\":1"));
    assert!(json.contains("\"rule\":\"L001\""));
    assert!(json.contains("\"file\":\"crates/core/src/lib.rs\""));
    assert!(json.contains("\"line\":2"));
    // The rule registry rides along for consumers.
    for rule in ["L000", "L001", "L002", "L003", "L004", "L005"] {
        assert!(
            json.contains(&format!("\"id\":\"{rule}\"")),
            "{rule} missing"
        );
    }
}

#[test]
fn files_in_test_directories_are_exempt_by_path() {
    let fx = Fixture::new("test-paths");
    fx.write(
        "crates/core/src/tests/helper.rs",
        "pub fn f(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\n",
    );
    let report = fx.lint(&base_config(), false);
    assert!(report.clean(), "{:?}", report.violations);
}

#[test]
fn l011_budget_fails_growth_and_crates_without_an_entry() {
    let fx = Fixture::new("budget");
    // Two non-test lines: the comment, the blank line and the test module
    // do not count.
    fx.write(
        "crates/core/src/lib.rs",
        "pub fn a() {\n}\n// note\n\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\n",
    );
    fx.write("crates/cli/src/main.rs", "fn main() {\n    let x = 1;\n}\n");
    fx.write(
        "lint/budget.toml",
        "[budget]\n\"crates/cli/src\" = 2\n\"crates/core/src\" = 5\n",
    );

    // The cli crate has three lines against a cap of two.
    let report = fx.lint(&base_config(), false);
    assert_eq!(rules_at(&report, "lint/budget.toml"), vec![("L011", 2)]);
    assert!(report.violations[0]
        .message
        .contains("has 3 non-test lines"));
    // Core's two lines fit its cap of five.
    assert_eq!(report.violations.len(), 1, "{:?}", report.violations);

    // A crate with no entry fails too.
    fx.write("crates/obs/src/lib.rs", "pub fn b() {}\n");
    fx.write(
        "lint/budget.toml",
        "[budget]\n\"crates/cli/src\" = 3\n\"crates/core/src\" = 2\n",
    );
    let report = fx.lint(&base_config(), false);
    assert_eq!(report.violations.len(), 1, "{:?}", report.violations);
    assert!(report.violations[0]
        .message
        .contains("`crates/obs/src` has no budget entry"));
}
