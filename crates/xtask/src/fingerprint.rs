//! L005 — checkpoint-format fingerprints.
//!
//! The checkpoint codec is hand-written (`core::checkpoint`), so the
//! compiler cannot tell when someone edits a serialized struct and silently
//! breaks restart compatibility. This module hashes the *token signature*
//! of every item on the checkpoint wire format and pins the hashes in
//! `lint/fingerprints.toml` together with the `FORMAT_VERSION` they were
//! recorded for. Editing a tracked item without bumping `FORMAT_VERSION`
//! (and re-recording with `cargo xtask lint --update-fingerprints`) fails
//! the lint.

use crate::lexer::TokenKind;
use crate::rules::Violation;
use crate::source::SourceFile;
use std::collections::BTreeMap;
use std::path::Path;
use std::rc::Rc;

/// One item whose signature is pinned.
#[derive(Debug, Clone)]
pub struct TrackedItem {
    /// Stable key used in the fingerprint store, e.g.
    /// `core::checkpoint::Checkpoint`.
    pub key: String,
    /// File defining the item, relative to root.
    pub file: String,
    /// Item name (`struct X`, `enum X` or `type X`).
    pub item: String,
}

/// Configuration of the fingerprint rule.
#[derive(Debug, Clone)]
pub struct FingerprintConfig {
    /// File declaring the format-version constant.
    pub version_file: String,
    /// Name of the constant (`FORMAT_VERSION`).
    pub version_const: String,
    /// Items on the checkpoint wire format.
    pub tracked: Vec<TrackedItem>,
    /// Store path relative to root (`lint/fingerprints.toml`).
    pub store: String,
}

fn item(key: &str, file: &str, name: &str) -> TrackedItem {
    TrackedItem {
        key: key.to_string(),
        file: file.to_string(),
        item: name.to_string(),
    }
}

impl FingerprintConfig {
    /// The real repo's configuration: everything `Checkpoint::write` puts on
    /// the wire, transitively.
    pub fn default_config() -> FingerprintConfig {
        FingerprintConfig {
            version_file: "crates/core/src/checkpoint.rs".into(),
            version_const: "FORMAT_VERSION".into(),
            store: "lint/fingerprints.toml".into(),
            tracked: vec![
                item(
                    "core::checkpoint::Checkpoint",
                    "crates/core/src/checkpoint.rs",
                    "Checkpoint",
                ),
                item(
                    "core::config::CtupConfig",
                    "crates/core/src/config.rs",
                    "CtupConfig",
                ),
                item(
                    "core::config::QueryMode",
                    "crates/core/src/config.rs",
                    "QueryMode",
                ),
                item(
                    "core::ingest::GateState",
                    "crates/core/src/ingest.rs",
                    "GateState",
                ),
                item(
                    "core::ingest::GateUnitState",
                    "crates/core/src/ingest.rs",
                    "GateUnitState",
                ),
                item("core::types::Safety", "crates/core/src/types.rs", "Safety"),
                item("core::types::UnitId", "crates/core/src/types.rs", "UnitId"),
                item(
                    "storage::place::PlaceRecord",
                    "crates/storage/src/place.rs",
                    "PlaceRecord",
                ),
                item(
                    "storage::place::PlaceId",
                    "crates/storage/src/place.rs",
                    "PlaceId",
                ),
                item(
                    "spatial::point::Point",
                    "crates/spatial/src/point.rs",
                    "Point",
                ),
                item("spatial::rect::Rect", "crates/spatial/src/rect.rs", "Rect"),
                item(
                    "spatial::grid::CellId",
                    "crates/spatial/src/grid.rs",
                    "CellId",
                ),
            ],
        }
    }
}

/// FNV-1a 64-bit — tiny, dependency-free, and plenty for change detection.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Extracts the token signature of `struct|enum|type <name>` from `file`:
/// the item keyword through its closing `}` or `;`, comments and whitespace
/// normalized away. Returns `None` when the item is absent.
pub fn item_signature(file: &SourceFile, name: &str) -> Option<String> {
    let toks = &file.tokens;
    let start = toks.windows(2).position(|w| {
        w[0].kind == TokenKind::Ident
            && matches!(w[0].text.as_str(), "struct" | "enum" | "type" | "union")
            && w[1].kind == TokenKind::Ident
            && w[1].text == name
    })?;
    let mut parts: Vec<&str> = Vec::new();
    let mut depth = 0isize;
    for t in &toks[start..] {
        parts.push(t.text.as_str());
        match t.text.as_str() {
            "{" | "(" | "[" => depth += 1,
            "}" | ")" | "]" => {
                depth -= 1;
                if depth == 0 && t.text == "}" {
                    break;
                }
            }
            ";" if depth == 0 => break,
            _ => {}
        }
    }
    Some(parts.join(" "))
}

/// Hex fingerprint of an item signature.
pub fn fingerprint(signature: &str) -> String {
    format!("{:016x}", fnv1a(signature.as_bytes()))
}

/// Finds the integer value of `const <name> … = <int>;` in `file`.
pub fn const_int(file: &SourceFile, name: &str) -> Option<u64> {
    let toks = &file.tokens;
    let pos = toks
        .iter()
        .position(|t| t.kind == TokenKind::Ident && t.text == name)?;
    // Scan forward past the type annotation to `=` then the literal.
    let mut i = pos + 1;
    while i < toks.len() && toks[i].text != "=" && toks[i].text != ";" {
        i += 1;
    }
    if i >= toks.len() || toks[i].text != "=" {
        return None;
    }
    let lit = toks.get(i + 1)?;
    if lit.kind != TokenKind::Int {
        return None;
    }
    lit.text.replace('_', "").parse().ok()
}

/// The recorded fingerprint store.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct Store {
    /// `FORMAT_VERSION` the hashes were recorded for.
    pub format_version: u64,
    /// Item key → hex fingerprint.
    pub items: BTreeMap<String, String>,
}

impl Store {
    /// Parses the tiny TOML subset this tool writes (`key = value` lines,
    /// one `[items]` table, `#` comments).
    pub fn parse(text: &str) -> Result<Store, String> {
        let mut store = Store::default();
        let mut in_items = false;
        let mut saw_version = false;
        for (no, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if line == "[items]" {
                in_items = true;
                continue;
            }
            if line.starts_with('[') {
                return Err(format!("line {}: unknown table {line}", no + 1));
            }
            let Some((k, v)) = line.split_once('=') else {
                return Err(format!("line {}: expected `key = value`", no + 1));
            };
            let k = k.trim().trim_matches('"');
            let v = v.trim().trim_matches('"');
            if in_items {
                store.items.insert(k.to_string(), v.to_string());
            } else if k == "format_version" {
                store.format_version = v
                    .parse()
                    .map_err(|e| format!("line {}: bad format_version: {e}", no + 1))?;
                saw_version = true;
            } else {
                return Err(format!("line {}: unknown key {k:?}", no + 1));
            }
        }
        if !saw_version {
            return Err("missing format_version".into());
        }
        Ok(store)
    }

    /// Serializes the store.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(
            "# Checkpoint-format fingerprints — generated by `cargo xtask lint --update-fingerprints`.\n\
             # Do not edit by hand: bump FORMAT_VERSION in crates/core/src/checkpoint.rs and\n\
             # regenerate when the wire format intentionally changes.\n",
        );
        out.push_str(&format!(
            "format_version = {}\n\n[items]\n",
            self.format_version
        ));
        for (k, v) in &self.items {
            out.push_str(&format!("\"{k}\" = \"{v}\"\n"));
        }
        out
    }
}

/// Runs the L005 check (or, with `update`, re-records the store).
/// `lookup` resolves relative paths to parsed files.
pub fn check(
    cfg: &FingerprintConfig,
    root: &Path,
    lookup: &dyn Fn(&str) -> Option<Rc<SourceFile>>,
    update: bool,
    sink: &mut Vec<Violation>,
) {
    let fail = |sink: &mut Vec<Violation>, file: &str, line: usize, message: String| {
        sink.push(Violation {
            rule: "L005",
            file: file.to_string(),
            line,
            message,
        });
    };

    let Some(version_file) = lookup(&cfg.version_file) else {
        fail(sink, &cfg.version_file, 1, "version file not found".into());
        return;
    };
    let Some(current_version) = const_int(&version_file, &cfg.version_const) else {
        fail(
            sink,
            &cfg.version_file,
            1,
            format!(
                "const `{}` not found — the checkpoint module must declare its format version",
                cfg.version_const
            ),
        );
        return;
    };

    let mut current = Store {
        format_version: current_version,
        items: BTreeMap::new(),
    };
    for t in &cfg.tracked {
        let Some(f) = lookup(&t.file) else {
            fail(
                sink,
                &t.file,
                1,
                format!("tracked file for `{}` not found", t.key),
            );
            continue;
        };
        let Some(sig) = item_signature(&f, &t.item) else {
            fail(
                sink,
                &t.file,
                1,
                format!("tracked item `{}` ({}) not found", t.item, t.key),
            );
            continue;
        };
        current.items.insert(t.key.clone(), fingerprint(&sig));
    }

    let store_path = root.join(&cfg.store);
    if update {
        if let Some(parent) = store_path.parent() {
            let _ = std::fs::create_dir_all(parent);
        }
        if let Err(e) = std::fs::write(&store_path, current.render()) {
            fail(
                sink,
                &cfg.store,
                1,
                format!("cannot write fingerprint store: {e}"),
            );
        }
        return;
    }

    let recorded = match std::fs::read_to_string(&store_path) {
        Ok(text) => match Store::parse(&text) {
            Ok(s) => s,
            Err(e) => {
                fail(
                    sink,
                    &cfg.store,
                    1,
                    format!("corrupt fingerprint store: {e}"),
                );
                return;
            }
        },
        Err(_) => {
            fail(
                sink,
                &cfg.store,
                1,
                "fingerprint store missing — run `cargo xtask lint --update-fingerprints`".into(),
            );
            return;
        }
    };

    if recorded.format_version != current.format_version {
        fail(
            sink,
            &cfg.version_file,
            1,
            format!(
                "FORMAT_VERSION is {} but fingerprints were recorded for {} — run \
                 `cargo xtask lint --update-fingerprints` to re-record the new wire format",
                current.format_version, recorded.format_version
            ),
        );
        return;
    }

    for (key, hash) in &current.items {
        match recorded.items.get(key) {
            None => fail(
                sink,
                &cfg.store,
                1,
                format!(
                    "`{key}` is on the checkpoint wire format but has no recorded \
                     fingerprint — run `cargo xtask lint --update-fingerprints`"
                ),
            ),
            Some(old) if old != hash => {
                let t = cfg.tracked.iter().find(|t| &t.key == key);
                fail(
                    sink,
                    t.map(|t| t.file.as_str()).unwrap_or(cfg.store.as_str()),
                    1,
                    format!(
                        "checkpoint-serialized item `{key}` changed without a FORMAT_VERSION \
                         bump — bump `{}` in {} and run `cargo xtask lint --update-fingerprints`",
                        cfg.version_const, cfg.version_file
                    ),
                );
            }
            Some(_) => {}
        }
    }
    for key in recorded.items.keys() {
        if !current.items.contains_key(key) {
            fail(
                sink,
                &cfg.store,
                1,
                format!(
                    "fingerprint store records `{key}` which is no longer tracked — run \
                     `cargo xtask lint --update-fingerprints`"
                ),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn signature_normalizes_whitespace_and_comments() {
        let a = SourceFile::parse("x.rs", "pub struct P { pub x: f64, pub y: f64 }");
        let b = SourceFile::parse(
            "x.rs",
            "pub struct P {\n    // the x coordinate\n    pub x: f64,\n    pub y: f64\n}",
        );
        assert_eq!(item_signature(&a, "P"), item_signature(&b, "P"));
    }

    #[test]
    fn signature_changes_when_fields_change() {
        let a = SourceFile::parse("x.rs", "struct P { x: f64 }");
        let b = SourceFile::parse("x.rs", "struct P { x: f32 }");
        assert_ne!(
            fingerprint(&item_signature(&a, "P").unwrap()),
            fingerprint(&item_signature(&b, "P").unwrap())
        );
    }

    #[test]
    fn tuple_struct_and_type_alias_signatures() {
        let f = SourceFile::parse(
            "x.rs",
            "pub struct Id(pub u32);\npub type Safety = i64;\npub enum M { A(u32), B }",
        );
        assert_eq!(item_signature(&f, "Id").unwrap(), "struct Id ( pub u32 ) ;");
        assert_eq!(item_signature(&f, "Safety").unwrap(), "type Safety = i64 ;");
        assert!(item_signature(&f, "M").unwrap().ends_with('}'));
    }

    #[test]
    fn const_int_extraction() {
        let f = SourceFile::parse("x.rs", "pub const FORMAT_VERSION: u32 = 2;");
        assert_eq!(const_int(&f, "FORMAT_VERSION"), Some(2));
        assert_eq!(const_int(&f, "OTHER"), None);
    }

    #[test]
    fn store_roundtrip() {
        let mut s = Store {
            format_version: 3,
            items: BTreeMap::new(),
        };
        s.items.insert("a::B".into(), "00ff".into());
        let parsed = Store::parse(&s.render()).unwrap();
        assert_eq!(parsed, s);
    }

    #[test]
    fn store_rejects_garbage() {
        assert!(Store::parse("format_version = x\n").is_err());
        assert!(Store::parse("[weird]\n").is_err());
        assert!(Store::parse("").is_err());
    }
}
