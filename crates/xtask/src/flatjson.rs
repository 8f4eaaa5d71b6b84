//! A tiny flat-JSON object walker shared by the observability validators.
//!
//! Both `cargo xtask flightcheck` (the crash dump's terminal line) and
//! `cargo xtask healthcheck` (`/healthz` bodies) consume the same
//! restricted grammar: one brace-delimited object of `"key":value`
//! pairs whose values are strings, numbers, booleans or null — never
//! nested objects or arrays. This module is the single implementation
//! of that walk; the per-artifact semantic checks live in
//! [`crate::obscheck`].
//!
//! Hand-rolled on purpose: the point of the validators is that a
//! consumer with no knowledge of our code could parse the output, so
//! they must not share a serde model (or any code) with the producer.

/// A scalar value in a flat JSON object: a decoded string, or the raw
/// text of a number / boolean / null token (kept raw so callers can
/// re-parse at whatever width they need).
#[derive(Debug, Clone, PartialEq)]
pub enum FlatValue {
    /// A decoded JSON string.
    Str(String),
    /// The raw token of a number, `true`, `false` or `null`.
    Raw(String),
}

/// Decodes one JSON string starting at byte `i` (which must be `"`).
/// Returns the decoded text and the index one past the closing quote.
fn parse_string(bytes: &[u8], mut i: usize) -> Result<(String, usize), String> {
    if bytes.get(i) != Some(&b'"') {
        return Err("expected string".into());
    }
    i += 1;
    let mut out = String::new();
    while i < bytes.len() {
        match bytes[i] {
            b'"' => return Ok((out, i + 1)),
            b'\\' => {
                let esc = *bytes.get(i + 1).ok_or("dangling escape")?;
                match esc {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'n' => out.push('\n'),
                    b't' => out.push('\t'),
                    b'r' => out.push('\r'),
                    b'u' => {
                        // \uXXXX — skip the hex digits, keep a placeholder.
                        out.push('\u{FFFD}');
                        i += 4;
                    }
                    other => return Err(format!("unknown escape \\{}", other as char)),
                }
                i += 2;
            }
            c => {
                out.push(c as char);
                i += 1;
            }
        }
    }
    Err("unterminated string".into())
}

/// Walks one flat JSON object into `(key, value)` pairs. This is a
/// structural validator, not a full JSON parser: it checks the brace
/// framing, walks `"key":value` pairs left to right, and understands
/// strings (with escapes), numbers, booleans and null — exactly the
/// grammar the crash dump, the span dumps and the `/healthz` endpoint emit.
pub fn parse_flat_object(line: &str) -> Result<Vec<(String, FlatValue)>, String> {
    let inner = line
        .trim()
        .strip_prefix('{')
        .and_then(|s| s.strip_suffix('}'))
        .ok_or_else(|| "not a JSON object (missing braces)".to_string())?;
    let bytes = inner.as_bytes();
    let mut i = 0usize;
    let mut pairs = Vec::new();

    while i < bytes.len() {
        let (key, next) = parse_string(bytes, i)?;
        i = next;
        if bytes.get(i) != Some(&b':') {
            return Err(format!("missing `:` after key {key:?}"));
        }
        i += 1;
        let value_start = i;
        let value_end;
        if bytes.get(i) == Some(&b'"') {
            let (text, next) = parse_string(bytes, i)?;
            value_end = next;
            pairs.push((key, FlatValue::Str(text)));
        } else {
            let mut j = i;
            while j < bytes.len() && bytes[j] != b',' {
                j += 1;
            }
            value_end = j;
            let raw = inner[value_start..value_end].trim();
            let is_number = raw.parse::<f64>().is_ok();
            if !is_number && raw != "true" && raw != "false" && raw != "null" {
                return Err(format!("key {key:?} has unparseable value {raw:?}"));
            }
            pairs.push((key, FlatValue::Raw(raw.to_string())));
        }
        i = value_end;
        match bytes.get(i) {
            Some(&b',') => i += 1,
            None => break,
            Some(other) => return Err(format!("expected `,` got `{}`", *other as char)),
        }
    }
    Ok(pairs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mixed_scalar_values_parse() {
        let pairs =
            parse_flat_object("{\"a\":\"s\",\"b\":3,\"c\":-1.5,\"d\":true,\"e\":null}").unwrap();
        assert_eq!(
            pairs,
            vec![
                ("a".into(), FlatValue::Str("s".into())),
                ("b".into(), FlatValue::Raw("3".into())),
                ("c".into(), FlatValue::Raw("-1.5".into())),
                ("d".into(), FlatValue::Raw("true".into())),
                ("e".into(), FlatValue::Raw("null".into())),
            ]
        );
    }

    #[test]
    fn escapes_decode() {
        let pairs = parse_flat_object("{\"k\":\"a \\\"b\\\"\\n\\t\\\\\"}").unwrap();
        assert_eq!(pairs[0].1, FlatValue::Str("a \"b\"\n\t\\".into()));
    }

    #[test]
    fn surrounding_whitespace_is_tolerated() {
        assert!(parse_flat_object("  {\"a\":1}\n").is_ok());
    }

    #[test]
    fn missing_braces_are_rejected() {
        assert!(parse_flat_object("\"a\":1").unwrap_err().contains("braces"));
    }

    #[test]
    fn missing_colon_is_rejected() {
        assert!(parse_flat_object("{\"a\" 1}").unwrap_err().contains(":"));
    }

    #[test]
    fn garbage_value_is_rejected() {
        let err = parse_flat_object("{\"a\":wat}").unwrap_err();
        assert!(err.contains("unparseable value"), "{err}");
    }

    #[test]
    fn nested_objects_are_rejected() {
        // The grammar is deliberately flat; a nested object reads as an
        // unparseable value token.
        assert!(parse_flat_object("{\"a\":{\"b\":1}}").is_err());
    }

    #[test]
    fn unterminated_string_is_rejected() {
        assert!(parse_flat_object("{\"a\":\"oops}")
            .unwrap_err()
            .contains("unterminated"));
    }

    #[test]
    fn empty_object_is_ok() {
        assert_eq!(parse_flat_object("{}").unwrap(), Vec::new());
    }
}
