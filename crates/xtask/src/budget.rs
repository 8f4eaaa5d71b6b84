//! L011 — the line budget.
//!
//! `lint/budget.toml` caps the non-test lines under each listed path: the
//! `src/` of every workspace crate, plus modules watched on their own. A
//! line counts when it carries a token outside test code
//! ([`SourceFile::in_test`]); comments and blank lines do not. A path over
//! its cap fails the lint, so growth is a decision taken in the diff that
//! raises the cap, and a deletion's win sticks once a diff lowers it. Caps
//! are edited by hand both ways. A crate with no entry fails too. A tree
//! without the file (the fixture trees) has no budget.

use crate::rules::Violation;
use crate::source::SourceFile;
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::rc::Rc;

/// The budget file, relative to the lint root.
const BUDGET_FILE: &str = "lint/budget.toml";

/// Lines of `file` that carry a token outside test code.
fn non_test_lines(file: &SourceFile) -> usize {
    let mut lines: Vec<usize> = (0..file.tokens.len())
        .filter(|&i| !file.in_test(i))
        .map(|i| file.tokens[i].line)
        .collect();
    lines.dedup();
    lines.len()
}

/// Parses the `"path" = cap` lines of the `[budget]` table into
/// path → (cap, line of the entry).
fn parse(text: &str) -> Result<BTreeMap<String, (usize, usize)>, String> {
    let mut caps = BTreeMap::new();
    for (no, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') || line == "[budget]" {
            continue;
        }
        let parsed = line
            .split_once('=')
            .and_then(|(k, v)| Some((k.trim().trim_matches('"'), v.trim().parse().ok()?)));
        let Some((path, cap)) = parsed else {
            return Err(format!("line {}: expected `\"path\" = lines`", no + 1));
        };
        caps.insert(path.to_string(), (cap, no + 1));
    }
    Ok(caps)
}

/// The `src/` root of the crate `rel` belongs to.
fn crate_root(rel: &str) -> String {
    match rel.strip_prefix("crates/") {
        Some(rest) => format!("crates/{}/src", rest.split('/').next().unwrap_or_default()),
        None => "src".to_string(),
    }
}

/// Runs L011 over the scanned `files`.
pub fn check(root: &Path, files: &BTreeMap<String, Rc<SourceFile>>, sink: &mut Vec<Violation>) {
    let fail = |sink: &mut Vec<Violation>, line: usize, message: String| {
        sink.push(Violation {
            rule: "L011",
            file: BUDGET_FILE.to_string(),
            line,
            message,
        });
    };
    let Ok(text) = std::fs::read_to_string(root.join(BUDGET_FILE)) else {
        return;
    };
    let caps = match parse(&text) {
        Ok(caps) => caps,
        Err(message) => {
            fail(sink, 1, message);
            return;
        }
    };
    for (path, &(cap, line)) in &caps {
        let used: usize = files
            .iter()
            .filter(|(rel, _)| rel.as_str() == path || rel.starts_with(&format!("{path}/")))
            .map(|(_, file)| non_test_lines(file))
            .sum();
        if used > cap {
            fail(
                sink,
                line,
                format!("`{path}` has {used} non-test lines, over its budget of {cap}"),
            );
        }
    }
    let roots: BTreeSet<String> = files.keys().map(|rel| crate_root(rel)).collect();
    for missing in roots.iter().filter(|r| !caps.contains_key(*r)) {
        fail(sink, 1, format!("crate `{missing}` has no budget entry"));
    }
}
