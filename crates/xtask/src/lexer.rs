//! A minimal Rust lexer — just enough structure for the lint rules.
//!
//! The workspace bans external dependencies in the linter (it must build
//! standalone, offline), so instead of `syn` we tokenize by hand. The rules
//! only need token kinds, token text and line numbers; they never need a
//! full syntax tree, and comments are skipped.

/// Kind of a lexed token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword.
    Ident,
    /// Integer literal (including hex/octal/binary and suffixed forms).
    Int,
    /// Floating-point literal (`1.0`, `1e3`, `2f64`, …).
    Float,
    /// String literal of any flavour (`"…"`, `r#"…"#`, `b"…"`).
    Str,
    /// Character or byte literal (`'a'`, `b'\n'`).
    Char,
    /// Lifetime (`'a`, `'_`, `'static`).
    Lifetime,
    /// Punctuation; multi-character operators are a single token (`==`,
    /// `!=`, `::`, `..`, `->`, …).
    Punct,
}

/// One token with its text and 1-based source line.
#[derive(Debug, Clone)]
pub struct Token {
    /// What kind of token this is.
    pub kind: TokenKind,
    /// The token's source text.
    pub text: String,
    /// 1-based line the token starts on.
    pub line: usize,
}

/// Multi-character operators, longest first so greedy matching works.
const OPERATORS: &[&str] = &[
    "..=", "<<=", ">>=", "...", "==", "!=", "<=", ">=", "&&", "||", "->", "=>", "::", "..", "+=",
    "-=", "*=", "/=", "%=", "^=", "&=", "|=", "<<", ">>",
];

fn is_ident_start(c: char) -> bool {
    c == '_' || c.is_alphabetic()
}

fn is_ident_continue(c: char) -> bool {
    c == '_' || c.is_alphanumeric()
}

struct Cursor<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
    line: usize,
}

impl<'a> Cursor<'a> {
    fn peek(&self) -> Option<char> {
        self.src[self.pos..].chars().next()
    }

    fn peek_at(&self, offset: usize) -> Option<char> {
        self.src[self.pos..].chars().nth(offset)
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek()?;
        self.pos += c.len_utf8();
        if c == '\n' {
            self.line += 1;
        }
        Some(c)
    }

    fn starts_with(&self, s: &str) -> bool {
        self.src[self.pos..].starts_with(s)
    }

    fn advance(&mut self, n_bytes: usize) {
        let end = (self.pos + n_bytes).min(self.bytes.len());
        for &b in &self.bytes[self.pos..end] {
            if b == b'\n' {
                self.line += 1;
            }
        }
        self.pos = end;
    }
}

/// Tokenizes `src`. Unterminated constructs (strings, block comments) are
/// tolerated: lexing always reaches the end of input — a linter must not
/// give up on a file humans are still editing.
pub fn lex(src: &str) -> Vec<Token> {
    let mut cur = Cursor {
        src,
        bytes: src.as_bytes(),
        pos: 0,
        line: 1,
    };
    let mut tokens = Vec::new();

    'outer: while let Some(c) = cur.peek() {
        // Whitespace.
        if c.is_whitespace() {
            cur.bump();
            continue;
        }

        // Line comments (covers `///` and `//!` doc comments too).
        if cur.starts_with("//") {
            while cur.peek().is_some_and(|c| c != '\n') {
                cur.bump();
            }
            continue;
        }

        // Block comments, which nest in Rust.
        if cur.starts_with("/*") {
            cur.advance(2);
            let mut depth = 1usize;
            while depth > 0 {
                if cur.starts_with("/*") {
                    cur.advance(2);
                    depth += 1;
                } else if cur.starts_with("*/") {
                    cur.advance(2);
                    depth -= 1;
                } else if cur.bump().is_none() {
                    break;
                }
            }
            continue;
        }

        let line = cur.line;
        let start = cur.pos;

        // Raw / byte / c-string prefixes. An identifier immediately followed
        // by a quote (or `#"` for raw strings) is a string prefix.
        if is_ident_start(c) {
            // Look ahead: consume the would-be identifier without committing.
            let mut end = cur.pos;
            for ch in src[cur.pos..].chars() {
                if is_ident_continue(ch) {
                    end += ch.len_utf8();
                } else {
                    break;
                }
            }
            let ident = &src[cur.pos..end];
            let after = src[end..].chars().next();
            let is_string_prefix = matches!(ident, "r" | "b" | "br" | "rb" | "c" | "cr")
                && matches!(after, Some('"') | Some('#'));
            let is_byte_char = ident == "b" && after == Some('\'');
            if is_string_prefix && consume_maybe_raw_string(&mut cur, end) {
                tokens.push(Token {
                    kind: TokenKind::Str,
                    text: src[start..cur.pos].to_string(),
                    line,
                });
                continue;
            }
            if is_byte_char {
                cur.advance(end - cur.pos); // the `b`; cursor now at `'`
                consume_char_literal(&mut cur);
                tokens.push(Token {
                    kind: TokenKind::Char,
                    text: src[start..cur.pos].to_string(),
                    line,
                });
                continue;
            }
            // Plain identifier / keyword.
            cur.advance(end - cur.pos);
            tokens.push(Token {
                kind: TokenKind::Ident,
                text: ident.to_string(),
                line,
            });
            continue;
        }

        // Ordinary string literal.
        if c == '"' {
            cur.bump();
            consume_until_quote(&mut cur, '"');
            tokens.push(Token {
                kind: TokenKind::Str,
                text: src[start..cur.pos].to_string(),
                line,
            });
            continue;
        }

        // Char literal or lifetime.
        if c == '\'' {
            // `'\…'` and `'x'` are char literals; `'ident` is a lifetime.
            let next = cur.peek_at(1);
            let is_char = match next {
                Some('\\') => true,
                Some(n) if is_ident_continue(n) => cur.peek_at(2) == Some('\''),
                Some(_) => true, // e.g. '(' — only valid as a char literal
                None => true,
            };
            if is_char {
                consume_char_literal(&mut cur);
                tokens.push(Token {
                    kind: TokenKind::Char,
                    text: src[start..cur.pos].to_string(),
                    line,
                });
            } else {
                cur.bump();
                while let Some(n) = cur.peek() {
                    if is_ident_continue(n) {
                        cur.bump();
                    } else {
                        break;
                    }
                }
                tokens.push(Token {
                    kind: TokenKind::Lifetime,
                    text: src[start..cur.pos].to_string(),
                    line,
                });
            }
            continue;
        }

        // Numbers.
        if c.is_ascii_digit() {
            let kind = consume_number(&mut cur);
            tokens.push(Token {
                kind,
                text: src[start..cur.pos].to_string(),
                line,
            });
            continue;
        }

        // Multi-character operators, longest match first.
        for op in OPERATORS {
            if cur.starts_with(op) {
                cur.advance(op.len());
                tokens.push(Token {
                    kind: TokenKind::Punct,
                    text: (*op).to_string(),
                    line,
                });
                continue 'outer;
            }
        }

        // Single punctuation character.
        cur.bump();
        tokens.push(Token {
            kind: TokenKind::Punct,
            text: c.to_string(),
            line,
        });
    }

    tokens
}

/// Consumes a (raw) string starting at the prefix end `ident_end`; returns
/// false if it turned out not to be a string (leaves the cursor untouched).
fn consume_maybe_raw_string(cur: &mut Cursor<'_>, ident_end: usize) -> bool {
    let rest = &cur.src[ident_end..];
    let hashes = rest.chars().take_while(|&c| c == '#').count();
    let after_hashes = &rest[hashes..];
    if !after_hashes.starts_with('"') {
        return false;
    }
    // prefix + hashes + opening quote
    cur.advance(ident_end - cur.pos + hashes + 1);
    if hashes == 0 && !cur.src[..ident_end].ends_with('r') {
        // b"…" / c"…": escapes are honoured.
        consume_until_quote(cur, '"');
        return true;
    }
    // Raw string: ends at `"` followed by the same number of hashes; when the
    // prefix had no hashes (r"…"), a bare quote ends it and escapes are inert.
    let closer = format!("\"{}", "#".repeat(hashes));
    while cur.pos < cur.src.len() {
        if cur.starts_with(&closer) {
            cur.advance(closer.len());
            return true;
        }
        cur.bump();
    }
    true
}

/// Consumes up to and including an unescaped closing quote.
fn consume_until_quote(cur: &mut Cursor<'_>, quote: char) {
    while let Some(c) = cur.bump() {
        if c == '\\' {
            cur.bump();
        } else if c == quote {
            break;
        }
    }
}

/// Consumes a whole char literal with the cursor positioned on the opening
/// `'`; handles escapes (including multi-character ones like `'\u{41}'`).
fn consume_char_literal(cur: &mut Cursor<'_>) {
    cur.bump(); // opening quote
    consume_until_quote(cur, '\'');
}

/// Consumes a numeric literal; decides int vs float.
fn consume_number(cur: &mut Cursor<'_>) -> TokenKind {
    if cur.starts_with("0x") || cur.starts_with("0o") || cur.starts_with("0b") {
        cur.advance(2);
        while let Some(c) = cur.peek() {
            if c.is_ascii_alphanumeric() || c == '_' {
                cur.bump();
            } else {
                break;
            }
        }
        return TokenKind::Int;
    }
    let mut float = false;
    consume_digits(cur);
    // Fractional part: `.` not followed by another `.` (range) or an
    // identifier start (method call / tuple-index chain like `1.max(2)`).
    if cur.peek() == Some('.') {
        match cur.peek_at(1) {
            Some('.') => {}
            Some(c) if is_ident_start(c) => {}
            _ => {
                float = true;
                cur.bump();
                consume_digits(cur);
            }
        }
    }
    // Exponent.
    if matches!(cur.peek(), Some('e') | Some('E')) {
        let (sign_ofs, digit) = match cur.peek_at(1) {
            Some('+') | Some('-') => (1, cur.peek_at(2)),
            other => (0, other),
        };
        if digit.is_some_and(|c| c.is_ascii_digit()) {
            float = true;
            cur.bump();
            if sign_ofs == 1 {
                cur.bump();
            }
            consume_digits(cur);
        }
    }
    // Type suffix (`u32`, `f64`, …).
    let suffix_start = cur.pos;
    while let Some(c) = cur.peek() {
        if is_ident_continue(c) {
            cur.bump();
        } else {
            break;
        }
    }
    let suffix = &cur.src[suffix_start..cur.pos];
    if suffix.starts_with('f') {
        float = true;
    }
    if float {
        TokenKind::Float
    } else {
        TokenKind::Int
    }
}

fn consume_digits(cur: &mut Cursor<'_>) {
    while let Some(c) = cur.peek() {
        if c.is_ascii_digit() || c == '_' {
            cur.bump();
        } else {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokenKind, String)> {
        lex(src).into_iter().map(|t| (t.kind, t.text)).collect()
    }

    #[test]
    fn idents_and_puncts() {
        let toks = kinds("a.b == c::d != e");
        let texts: Vec<&str> = toks.iter().map(|(_, t)| t.as_str()).collect();
        assert_eq!(texts, ["a", ".", "b", "==", "c", "::", "d", "!=", "e"]);
    }

    #[test]
    fn float_vs_int_vs_range_vs_method() {
        assert_eq!(kinds("1.5")[0].0, TokenKind::Float);
        assert_eq!(kinds("1e9")[0].0, TokenKind::Float);
        assert_eq!(kinds("1E-9")[0].0, TokenKind::Float);
        assert_eq!(kinds("2f64")[0].0, TokenKind::Float);
        assert_eq!(kinds("17")[0].0, TokenKind::Int);
        assert_eq!(kinds("0x1f")[0].0, TokenKind::Int);
        assert_eq!(kinds("1_000")[0].0, TokenKind::Int);
        // `0..n` is two ints around a range operator.
        let toks = kinds("0..n");
        assert_eq!(toks[0].0, TokenKind::Int);
        assert_eq!(toks[1].1, "..");
        // `1.max(2)` is an int, not a float.
        assert_eq!(kinds("1.max(2)")[0].0, TokenKind::Int);
    }

    #[test]
    fn strings_and_chars_and_lifetimes() {
        assert_eq!(kinds(r#""a == b""#)[0].0, TokenKind::Str);
        assert_eq!(kinds(r##"r#"raw "inner" text"#"##)[0].0, TokenKind::Str);
        assert_eq!(kinds(r#"b"bytes""#)[0].0, TokenKind::Str);
        assert_eq!(kinds("'x'")[0].0, TokenKind::Char);
        assert_eq!(kinds(r"'\n'")[0].0, TokenKind::Char);
        assert_eq!(kinds("b'q'")[0].0, TokenKind::Char);
        assert_eq!(kinds("&'a str")[1].0, TokenKind::Lifetime);
        assert_eq!(kinds("'static")[0].0, TokenKind::Lifetime);
    }

    #[test]
    fn comments_are_not_tokenized() {
        let tokens = lex("a // x == y\nb /* x == y */ c");
        let texts: Vec<&str> = tokens.iter().map(|t| t.text.as_str()).collect();
        assert_eq!(texts, ["a", "b", "c"]);
        assert_eq!(tokens[1].line, 2);
    }

    #[test]
    fn nested_block_comments() {
        let tokens = lex("a /* outer /* inner */ still comment */ b");
        let texts: Vec<&str> = tokens.iter().map(|t| t.text.as_str()).collect();
        assert_eq!(texts, ["a", "b"]);
    }

    #[test]
    fn line_numbers() {
        let tokens = lex("a\nb\n\nc");
        let lines: Vec<usize> = tokens.iter().map(|t| t.line).collect();
        assert_eq!(lines, [1, 2, 4]);
    }

    #[test]
    fn operator_inside_string_is_not_a_token() {
        let tokens = lex(r#"let s = "x == y"; s"#);
        assert!(!tokens.iter().any(|t| t.text == "=="));
    }

    #[test]
    fn unterminated_string_reaches_eof() {
        let tokens = lex("let s = \"never closed\nmore");
        assert!(!tokens.is_empty());
    }
}
