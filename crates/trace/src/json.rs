//! A minimal, dependency-free JSON reader.
//!
//! The workspace's vendored `serde` is an API shim (derives expand to
//! nothing), so there is no `serde_json` to lean on. This module is just
//! enough recursive-descent RFC 8259 grammar to read the JSON the
//! workspace writes: [`parse`] builds a [`Value`] (the perf gate reads
//! `BENCH_perf.json` through it), and [`validate`] proves that the
//! Chrome-trace exporter emits well-formed JSON. Neither ever panics.
//! Depth is capped so adversarial proptest inputs cannot overflow the
//! stack.

use std::fmt;

/// Maximum nesting depth accepted before bailing out.
const MAX_DEPTH: usize = 256;

/// A parse failure: byte offset plus a static description.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input where parsing failed.
    pub at: usize,
    /// What the parser expected or rejected.
    pub message: &'static str,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.at)
    }
}

impl std::error::Error for JsonError {}

/// A parsed JSON value. Objects keep their members in document order.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// Any number, as the nearest `f64`.
    Number(f64),
    /// A string with its escapes decoded.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object's members, in document order.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// The number, if this is one.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The string, if this is one.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    #[must_use]
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The members, if this is an object.
    #[must_use]
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(members) => Some(members),
            _ => None,
        }
    }

    /// The first member named `key`, if this is an object that has one.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &'static str) -> JsonError {
        JsonError {
            at: self.pos,
            message,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek();
        if b.is_some() {
            self.pos += 1;
        }
        b
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect_literal(&mut self, lit: &'static str, value: Value) -> Result<Value, JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    /// The four hex digits of a `\u` escape.
    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut code = 0;
        for _ in 0..4 {
            let digit = self
                .bump()
                .and_then(|c| char::from(c).to_digit(16))
                .ok_or_else(|| self.err("invalid \\u escape"))?;
            code = code * 16 + digit;
        }
        Ok(code)
    }

    /// The character a `\u` escape (the `\u` already consumed) stands
    /// for. A surrogate pair decodes to one character; a lone surrogate,
    /// which the grammar allows but no `char` can hold, decodes to
    /// U+FFFD.
    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let high = self.hex4()?;
        if (0xD800..0xDC00).contains(&high) && self.bytes[self.pos..].starts_with(b"\\u") {
            let resume = self.pos;
            self.pos += 2;
            let low = self.hex4()?;
            if (0xDC00..0xE000).contains(&low) {
                let code = 0x10000 + ((high - 0xD800) << 10) + (low - 0xDC00);
                return Ok(char::from_u32(code).unwrap_or(char::REPLACEMENT_CHARACTER));
            }
            self.pos = resume;
        }
        Ok(char::from_u32(high).unwrap_or(char::REPLACEMENT_CHARACTER))
    }

    fn string(&mut self) -> Result<String, JsonError> {
        if self.bump() != Some(b'"') {
            return Err(self.err("expected '\"'"));
        }
        let mut out = String::new();
        // Unescaped text is copied a run at a time. Runs end only at an
        // ASCII byte, so every slice falls on a char boundary.
        let mut run = self.pos;
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    out.push_str(&self.text[run..self.pos]);
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    out.push_str(&self.text[run..self.pos]);
                    self.pos += 1;
                    let decoded = match self.bump() {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'b') => '\u{8}',
                        Some(b'f') => '\u{c}',
                        Some(b'n') => '\n',
                        Some(b'r') => '\r',
                        Some(b't') => '\t',
                        Some(b'u') => self.unicode_escape()?,
                        _ => return Err(self.err("invalid escape")),
                    };
                    out.push(decoded);
                    run = self.pos;
                }
                Some(c) if c < 0x20 => return Err(self.err("raw control char in string")),
                Some(_) => self.pos += 1,
            }
        }
    }

    fn digits(&mut self) -> Result<(), JsonError> {
        let start = self.pos;
        while self.peek().is_some_and(|c| c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.pos == start {
            Err(self.err("expected digit"))
        } else {
            Ok(())
        }
    }

    fn number(&mut self) -> Result<Value, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(c) if c.is_ascii_digit() => self.digits()?,
            _ => return Err(self.err("expected digit")),
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            self.digits()?;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            self.digits()?;
        }
        // Every JSON number is a valid Rust float literal; one too large
        // for `f64` reads as infinity.
        self.text[start..self.pos]
            .parse()
            .map(Value::Number)
            .map_err(|_| self.err("malformed number"))
    }

    fn value(&mut self, depth: usize) -> Result<Value, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => self.string().map(Value::String),
            Some(b't') => self.expect_literal("true", Value::Bool(true)),
            Some(b'f') => self.expect_literal("false", Value::Bool(false)),
            Some(b'n') => self.expect_literal("null", Value::Null),
            Some(b'-') => self.number(),
            Some(c) if c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn object(&mut self, depth: usize) -> Result<Value, JsonError> {
        self.pos += 1; // consume '{'
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            if self.bump() != Some(b':') {
                return Err(self.err("expected ':'"));
            }
            members.push((key, self.value(depth + 1)?));
            self.skip_ws();
            match self.bump() {
                Some(b',') => {}
                Some(b'}') => return Ok(Value::Object(members)),
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Value, JsonError> {
        self.pos += 1; // consume '['
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.bump() {
                Some(b',') => {}
                Some(b']') => return Ok(Value::Array(items)),
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }
}

/// Parses `input`, which must be exactly one JSON document.
///
/// # Errors
///
/// Returns a [`JsonError`] with the byte offset of the first violation.
pub fn parse(input: &str) -> Result<Value, JsonError> {
    let mut p = Parser {
        text: input,
        bytes: input.as_bytes(),
        pos: 0,
    };
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos == p.bytes.len() {
        Ok(value)
    } else {
        Err(p.err("trailing bytes after document"))
    }
}

/// Validate that `input` is exactly one well-formed JSON document:
/// [`parse`], discarding the value.
///
/// # Errors
///
/// Returns a [`JsonError`] with the byte offset of the first violation.
pub fn validate(input: &str) -> Result<(), JsonError> {
    parse(input).map(|_| ())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_valid_documents() {
        for doc in [
            "null",
            "true",
            "-0.5e+10",
            "[]",
            "{}",
            "\"esc \\u00e9 \\n\"",
            "{\"a\":[1,2,{\"b\":null}],\"c\":\"x\"}",
            "  [ 1 , 2 ]  ",
        ] {
            assert!(validate(doc).is_ok(), "should accept: {doc}");
        }
    }

    #[test]
    fn rejects_invalid_documents() {
        for doc in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "{\"a\" 1}",
            "nul",
            "01",
            "\"unterminated",
            "\"bad \\x escape\"",
            "1 2",
            "[1] trailing",
        ] {
            assert!(validate(doc).is_err(), "should reject: {doc}");
        }
    }

    #[test]
    fn parse_builds_values_in_document_order() {
        let doc = "{\"b\": [1, -2.5e1, true, null], \"a\": {\"x\": \"y\"}, \"b\": 0}";
        let v = parse(doc).expect("valid");
        let b = v.get("b").and_then(Value::as_array).expect("array");
        assert_eq!(
            b,
            [
                Value::Number(1.0),
                Value::Number(-25.0),
                Value::Bool(true),
                Value::Null
            ]
        );
        assert_eq!(
            v.get("a").and_then(|a| a.get("x")),
            Some(&Value::String("y".into()))
        );
        let keys: Vec<&str> = v
            .as_object()
            .expect("object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["b", "a", "b"], "members keep document order");
        assert_eq!(v.get("missing"), None);
        assert_eq!(Value::Null.get("a"), None);
    }

    #[test]
    fn parse_decodes_every_escape() {
        let v = parse(r#""q\" s\\ /\/ \b\f\n\r\t é \u00e9 \ud83d\ude00 \ud800x""#).expect("valid");
        assert_eq!(
            v.as_str(),
            Some("q\" s\\ // \u{8}\u{c}\n\r\t é é 😀 \u{fffd}x")
        );
    }

    #[test]
    fn parse_errors_carry_the_offset() {
        let err = parse("[1, x]").unwrap_err();
        assert_eq!(err.at, 4);
        assert_eq!(err.to_string(), "expected a JSON value at byte 4");
    }

    #[test]
    fn rejects_pathological_nesting() {
        let deep = "[".repeat(MAX_DEPTH + 2);
        assert_eq!(validate(&deep).unwrap_err().message, "nesting too deep");
    }
}
