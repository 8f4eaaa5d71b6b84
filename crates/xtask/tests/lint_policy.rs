//! The library lint policy is a pair of inner attributes at every crate
//! root (DESIGN.md §10): `deny` of `#[allow]` and of reasonless
//! suppressions everywhere, and a `deny` of the panic, float-equality and
//! cast lints outside test code. Clippy enforces them but cannot notice
//! one going missing: an `#[expect]` turns its lint on where it sits, so
//! every `#[expect]` in the tree (and the fixtures in `ctup-core`'s
//! `lint_policy` module) stays fulfilled without the crate-root `deny`.
//! This test pins each root's attributes against the real tree.

use std::path::{Path, PathBuf};

/// `deny`-ed everywhere, test code included.
const SUPPRESSIONS: &str =
    "#![deny(clippy::allow_attributes,clippy::allow_attributes_without_reason)]";
/// No panicking constructs (beside the workspace-wide `unwrap_used` and
/// `expect_used`).
const PANICS: &[&str] = &[
    "clippy::panic",
    "clippy::unreachable",
    "clippy::todo",
    "clippy::unimplemented",
];
/// No lossy integer casts.
const CASTS: &[&str] = &[
    "clippy::cast_possible_truncation",
    "clippy::cast_sign_loss",
    "clippy::cast_possible_wrap",
];

/// The lints each crate root denies outside test code.
fn expected(root: &str) -> Option<Vec<&'static str>> {
    let mut lints = vec!["clippy::float_cmp"];
    match root {
        "crates/core/src/lib.rs" | "crates/spatial/src/lib.rs" => {
            lints.extend(PANICS);
            lints.extend(CASTS);
        }
        "crates/storage/src/lib.rs" | "crates/obs/src/lib.rs" => lints.extend(PANICS),
        "src/lib.rs"
        | "crates/cli/src/main.rs"
        | "crates/mogen/src/lib.rs"
        | "crates/sched/src/lib.rs"
        | "crates/xtask/src/lib.rs"
        | "crates/xtask/src/main.rs" => {}
        _ => return None,
    }
    lints.sort_unstable();
    Some(lints)
}

/// Every crate root the lint scans: `src/lib.rs`, and `lib.rs`,
/// `main.rs` and `bin/*.rs` under each `crates/*/src`.
fn crate_roots(tree: &Path) -> Vec<String> {
    let mut roots = vec!["src/lib.rs".to_string()];
    let mut crates: Vec<PathBuf> = std::fs::read_dir(tree.join("crates"))
        .into_iter()
        .flatten()
        .flatten()
        .map(|e| e.path())
        .collect();
    crates.sort();
    for dir in crates {
        let name = dir.file_name().unwrap_or_default().to_string_lossy();
        for file in ["lib.rs", "main.rs"] {
            if dir.join("src").join(file).is_file() {
                roots.push(format!("crates/{name}/src/{file}"));
            }
        }
        let mut bins: Vec<String> = std::fs::read_dir(dir.join("src/bin"))
            .into_iter()
            .flatten()
            .flatten()
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|f| f.ends_with(".rs"))
            .collect();
        bins.sort();
        roots.extend(
            bins.into_iter()
                .map(|b| format!("crates/{name}/src/bin/{b}")),
        );
    }
    roots
}

#[test]
fn every_crate_root_carries_the_library_lint_policy() {
    let tree = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let roots = crate_roots(&tree);
    assert!(roots.len() >= 10, "{roots:?}");
    for root in roots {
        let want = expected(&root).unwrap_or_else(|| panic!("{root}: no policy entry"));
        let text = std::fs::read_to_string(tree.join(&root)).unwrap_or_default();
        let flat: String = text.split_whitespace().collect();
        assert!(
            flat.contains(SUPPRESSIONS),
            "{root}: {SUPPRESSIONS} missing"
        );
        let open = "#![cfg_attr(not(test),deny(";
        let got = flat
            .split_once(open)
            .and_then(|(_, rest)| rest.split_once("))]"));
        let mut got: Vec<&str> = got
            .map(|(list, _)| list.split(',').filter(|l| !l.is_empty()).collect())
            .unwrap_or_default();
        got.sort_unstable();
        assert_eq!(got, want, "{root}: the non-test `deny` list");
    }
}
