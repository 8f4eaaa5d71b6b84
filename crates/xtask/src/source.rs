//! Per-file analysis context: tokens and test regions.
//!
//! Rules see a [`SourceFile`] and ask one question per token: "is this
//! inside test code?" Test code is anything under a `#[test]` /
//! `#[cfg(test)]`-style attribute (plus whole files in `tests/`,
//! `benches/` or `examples/` directories).

use crate::lexer::{lex, Token, TokenKind};
use std::ops::Range;
use std::path::Path;

/// One workspace source file, lexed and annotated.
#[derive(Debug)]
pub struct SourceFile {
    /// Path relative to the lint root, with `/` separators.
    pub rel_path: String,
    /// Token stream.
    pub tokens: Vec<Token>,
    /// Token-index ranges (into `tokens`) that belong to test items.
    pub test_regions: Vec<Range<usize>>,
}

impl SourceFile {
    /// Lexes and annotates `src` for the file at `rel_path`.
    pub fn parse(rel_path: &str, src: &str) -> SourceFile {
        let tokens = lex(src);
        #[expect(
            clippy::single_range_in_vec_init,
            reason = "a single region spanning the whole file: every token is test code"
        )]
        let test_regions = if path_is_test(rel_path) {
            vec![0..tokens.len()]
        } else {
            find_test_regions(&tokens)
        };
        SourceFile {
            rel_path: rel_path.to_string(),
            tokens,
            test_regions,
        }
    }

    /// Whether the token at `idx` lies inside test code.
    pub fn in_test(&self, idx: usize) -> bool {
        self.test_regions.iter().any(|r| r.contains(&idx))
    }
}

/// Whole-file test classification by path: integration tests, benches and
/// examples may panic freely.
fn path_is_test(rel_path: &str) -> bool {
    rel_path
        .split('/')
        .any(|seg| seg == "tests" || seg == "benches" || seg == "examples" || seg == "fixtures")
}

/// Finds token ranges covered by test items: any item annotated with an
/// attribute mentioning `test` or `bench` (`#[test]`, `#[cfg(test)]`,
/// `#[tokio::test]`, `#[cfg_attr(miri, ignore)]` does NOT match — it has no
/// `test` token — while `#[cfg(all(test, feature = "x"))]` does).
fn find_test_regions(tokens: &[Token]) -> Vec<Range<usize>> {
    let mut regions: Vec<Range<usize>> = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        // An attribute starts with `#` `[` (or `#` `!` `[` for inner).
        if tokens[i].text != "#" {
            i += 1;
            continue;
        }
        let mut j = i + 1;
        if j < tokens.len() && tokens[j].text == "!" {
            j += 1;
        }
        if j >= tokens.len() || tokens[j].text != "[" {
            i += 1;
            continue;
        }
        // Collect the attribute's tokens up to the matching `]`.
        let mut depth = 0usize;
        let attr_start = j;
        let mut attr_end = j;
        while attr_end < tokens.len() {
            match tokens[attr_end].text.as_str() {
                "[" => depth += 1,
                "]" => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            attr_end += 1;
        }
        let is_test_attr = tokens[attr_start..attr_end]
            .iter()
            .any(|t| t.kind == TokenKind::Ident && (t.text == "test" || t.text == "bench"));
        if !is_test_attr {
            i = attr_end + 1;
            continue;
        }
        // Find the item body: the first `{` at zero paren/bracket depth after
        // the attribute (skipping over further attributes, generics, the
        // parameter list…). A `;` at zero depth means a body-less item.
        let mut k = attr_end + 1;
        let mut depth = 0isize;
        let mut body_start = None;
        while k < tokens.len() {
            match tokens[k].text.as_str() {
                "(" | "[" => depth += 1,
                ")" | "]" => depth -= 1,
                "{" if depth == 0 => {
                    body_start = Some(k);
                    break;
                }
                ";" if depth == 0 => break,
                _ => {}
            }
            k += 1;
        }
        let Some(open) = body_start else {
            i = attr_end + 1;
            continue;
        };
        // Match the closing brace.
        let mut brace = 0usize;
        let mut close = open;
        while close < tokens.len() {
            match tokens[close].text.as_str() {
                "{" => brace += 1,
                "}" => {
                    brace -= 1;
                    if brace == 0 {
                        break;
                    }
                }
                _ => {}
            }
            close += 1;
        }
        regions.push(i..close + 1);
        // Continue scanning *after* this region: nested test regions would be
        // redundant.
        i = close + 1;
    }
    regions
}

/// Reads and parses a file from disk; `rel_path` is used for reporting.
pub fn load(root: &Path, rel_path: &str) -> std::io::Result<SourceFile> {
    let src = std::fs::read_to_string(root.join(rel_path))?;
    Ok(SourceFile::parse(rel_path, &src))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cfg_test_module_is_a_test_region() {
        let f = SourceFile::parse(
            "crates/core/src/x.rs",
            "fn live() { a.unwrap(); }\n#[cfg(test)]\nmod tests { fn t() { b.unwrap(); } }\n",
        );
        let unwraps: Vec<usize> = f
            .tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| t.text == "unwrap")
            .map(|(i, _)| i)
            .collect();
        assert_eq!(unwraps.len(), 2);
        assert!(!f.in_test(unwraps[0]));
        assert!(f.in_test(unwraps[1]));
    }

    #[test]
    fn test_fn_attribute_region() {
        let f = SourceFile::parse(
            "crates/core/src/x.rs",
            "#[test]\nfn t() { x.unwrap(); }\nfn live() { y.unwrap(); }\n",
        );
        let unwraps: Vec<usize> = f
            .tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| t.text == "unwrap")
            .map(|(i, _)| i)
            .collect();
        assert!(f.in_test(unwraps[0]));
        assert!(!f.in_test(unwraps[1]));
    }

    #[test]
    fn integration_test_file_is_all_test() {
        let f = SourceFile::parse("tests/chaos.rs", "fn f() { x.unwrap(); }");
        assert!((0..f.tokens.len()).all(|i| f.in_test(i)));
    }

    #[test]
    fn cfg_attr_miri_is_not_a_test_region() {
        let f = SourceFile::parse(
            "crates/core/src/x.rs",
            "#[cfg_attr(miri, ignore)]\nfn live() { x.unwrap(); }\n",
        );
        assert!(!f.in_test(5));
    }
}
