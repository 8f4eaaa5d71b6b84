//! Minimal hand-rolled JSON writer. The workspace deliberately carries no
//! JSON dependency; the observability surface only ever *emits* JSON
//! (span and crash dumps, report output, bench snapshots), so a writer
//! with escaping is all that is needed.

/// Appends `s` to `out` as a JSON string literal (with quotes), escaping
/// per RFC 8259.
pub fn push_str_escaped(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Incremental writer for one JSON object: tracks whether a comma is due.
#[derive(Debug)]
pub struct ObjectWriter {
    buf: String,
    first: bool,
}

impl ObjectWriter {
    /// Opens an object (`{`).
    pub fn new() -> Self {
        ObjectWriter {
            buf: String::from("{"),
            first: true,
        }
    }

    fn key(&mut self, key: &str) {
        if !self.first {
            self.buf.push(',');
        }
        self.first = false;
        push_str_escaped(&mut self.buf, key);
        self.buf.push(':');
    }

    /// Writes `"key": <unsigned>`.
    pub fn field_u64(&mut self, key: &str, v: u64) -> &mut Self {
        self.key(key);
        self.buf.push_str(&v.to_string());
        self
    }

    /// Writes `"key": <bool>`.
    pub fn field_bool(&mut self, key: &str, v: bool) -> &mut Self {
        self.key(key);
        self.buf.push_str(if v { "true" } else { "false" });
        self
    }

    /// Writes `"key": "escaped string"`.
    pub fn field_str(&mut self, key: &str, v: &str) -> &mut Self {
        self.key(key);
        push_str_escaped(&mut self.buf, v);
        self
    }

    /// Writes `"key": <already-serialized JSON>`. The caller guarantees
    /// `raw` is valid JSON.
    pub fn field_raw(&mut self, key: &str, raw: &str) -> &mut Self {
        self.key(key);
        self.buf.push_str(raw);
        self
    }

    /// Closes the object and returns the serialized text.
    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

impl Default for ObjectWriter {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_specials() {
        let mut out = String::new();
        push_str_escaped(&mut out, "a\"b\\c\nd\te\u{1}");
        assert_eq!(out, "\"a\\\"b\\\\c\\nd\\te\\u0001\"");
    }

    #[test]
    fn object_writer_produces_valid_json() {
        let mut w = ObjectWriter::new();
        w.field_u64("n", 7)
            .field_bool("ok", true)
            .field_str("s", "x\"y")
            .field_raw("inner", "{\"a\":1}");
        assert_eq!(
            w.finish(),
            "{\"n\":7,\"ok\":true,\"s\":\"x\\\"y\",\"inner\":{\"a\":1}}"
        );
    }

    #[test]
    fn empty_object() {
        assert_eq!(ObjectWriter::new().finish(), "{}");
    }
}
