//! `cargo xtask` — workspace automation for the CTUP monitor.
//!
//! Subcommands: `lint`, a dependency-free pass over the tree that checks
//! what rustc and clippy cannot (see [`rules`] for the registry, DESIGN.md
//! §10 for the rationale): report coverage of every metrics field (L004),
//! checkpoint-format fingerprints (L005, [`fingerprint`]) and the line
//! budget (L011, [`budget`]); `promcheck`, `flightcheck` and `healthcheck`,
//! CI validators for the Prometheus exposition, the crash dump and the
//! `/healthz` body (see [`obscheck`]); `spancheck` for span dumps
//! ([`spancheck`]). The engine is a library so the rules can be exercised
//! against fixture trees in integration tests.

// Library lint policy, DESIGN.md §10: every suppression is a reasoned
// `#[expect]`; the `deny` list below holds outside test code.
#![deny(clippy::allow_attributes, clippy::allow_attributes_without_reason)]
#![cfg_attr(not(test), deny(clippy::float_cmp))]

pub mod budget;
pub mod fingerprint;
pub mod flatjson;
pub mod lexer;
pub mod obscheck;
pub mod rules;
pub mod source;
pub mod spancheck;

use fingerprint::FingerprintConfig;
use rules::{MetricsCoverage, Violation};
use source::SourceFile;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::rc::Rc;

/// Everything `run_lint` needs besides the tree itself.
#[derive(Debug, Clone)]
pub struct LintConfig {
    /// L004 coverage specs.
    pub metrics: Vec<MetricsCoverage>,
    /// L005 fingerprint spec; `None` disables the rule.
    pub fingerprints: Option<FingerprintConfig>,
}

impl Default for LintConfig {
    fn default() -> Self {
        LintConfig {
            metrics: MetricsCoverage::default_config(),
            fingerprints: Some(FingerprintConfig::default_config()),
        }
    }
}

/// Result of a lint run.
#[derive(Debug)]
pub struct LintReport {
    /// All violations, sorted by file, line, rule.
    pub violations: Vec<Violation>,
    /// Number of `.rs` files scanned.
    pub files_checked: usize,
}

impl LintReport {
    /// True when the workspace is clean.
    pub fn clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Collects the relative paths of every `.rs` file under the workspace
/// source roots: `src/` and `crates/*/src/`. Integration-test, bench and
/// example trees are intentionally not scanned — the budget counts library
/// code, and test files are classified by path anyway.
fn collect_sources(root: &Path) -> std::io::Result<Vec<String>> {
    let mut files = Vec::new();
    let mut roots: Vec<PathBuf> = vec![root.join("src")];
    let crates = root.join("crates");
    if crates.is_dir() {
        let mut entries: Vec<_> = std::fs::read_dir(&crates)?
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .collect();
        entries.sort();
        for e in entries {
            roots.push(e.join("src"));
        }
    }
    for r in roots {
        if r.is_dir() {
            walk(&r, &mut files)?;
        }
    }
    let mut rel: Vec<String> = files
        .iter()
        .filter_map(|f| {
            f.strip_prefix(root)
                .ok()
                .map(|p| p.to_string_lossy().replace('\\', "/"))
        })
        .collect();
    rel.sort();
    Ok(rel)
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    let mut entries: Vec<_> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            walk(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Runs the full rule registry over the workspace at `root`.
///
/// With `update_fingerprints`, L005 re-records `lint/fingerprints.toml`
/// instead of checking it (the other rules still run).
pub fn run_lint(
    root: &Path,
    config: &LintConfig,
    update_fingerprints: bool,
) -> std::io::Result<LintReport> {
    let mut files: BTreeMap<String, Rc<SourceFile>> = BTreeMap::new();
    for rel in collect_sources(root)? {
        let parsed = source::load(root, &rel)?;
        files.insert(rel.clone(), Rc::new(parsed));
    }
    // L004/L005 may reference files outside the scanned roots; load lazily
    // via the same cache semantics (they are all inside the tree in
    // practice, but fixture trees may be sparser).
    let lookup = |rel: &str| -> Option<Rc<SourceFile>> {
        files
            .get(rel)
            .cloned()
            .or_else(|| source::load(root, rel).ok().map(Rc::new))
    };

    let mut violations = Vec::new();
    for cfg in &config.metrics {
        rules::check_metrics_coverage(cfg, &lookup, &mut violations);
    }
    if let Some(cfg) = &config.fingerprints {
        fingerprint::check(cfg, root, &lookup, update_fingerprints, &mut violations);
    }
    budget::check(root, &files, &mut violations);

    violations
        .sort_by(|a, b| (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule)));
    Ok(LintReport {
        violations,
        files_checked: files.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_points_at_real_files() {
        let cfg = LintConfig::default();
        assert_eq!(cfg.metrics.len(), 5);
        // Every counter struct is held to the one renderer, `Snapshot`;
        // the latency histograms to `LatencySnapshot::named()`, which the
        // snapshot renders them through.
        for m in &cfg.metrics {
            let renderer = if m.struct_file == "crates/obs/src/latency.rs" {
                "crates/obs/src/latency.rs"
            } else {
                "crates/core/src/report.rs"
            };
            assert_eq!(m.report_files, vec![renderer.to_string()], "{m:?}");
        }
        let fp = cfg.fingerprints.unwrap();
        assert_eq!(fp.version_const, "FORMAT_VERSION");
        assert!(fp.tracked.len() >= 10);
    }
}
