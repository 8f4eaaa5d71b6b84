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

/// L011 only, and only in a tree with a budget; L004/L005 are opt-in per
/// test.
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
fn files_in_test_directories_are_exempt_by_path() {
    let fx = Fixture::new("test-paths");
    fx.write(
        "crates/core/src/tests/helper.rs",
        "pub fn f(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\n",
    );
    fx.write("lint/budget.toml", "[budget]\n\"crates/core/src\" = 0\n");
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
