//! A small canonical-JSON value model with a writer and parser.
//!
//! Every wire format of the workspace (the JSON-lines job format, the
//! file-backed compile-cache tier, the server's documents, witnesses) is
//! written and read through this module; no serialization crate is used.
//! It holds a compact [`Value`] tree, a deterministic writer (object
//! fields keep insertion order, so equal values render byte-identically —
//! which the content-addressed fingerprints rely on), and a strict
//! recursive-descent parser for the subset of JSON the service emits.

use std::fmt;

/// A JSON value.
///
/// Objects preserve insertion order: the writer is deterministic, making
/// the rendered string usable as a canonical form for fingerprinting.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (stored as `f64`; integers up to 2^53 round-trip exactly —
    /// larger values such as fingerprints travel as hex strings instead).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object with insertion-ordered fields.
    Obj(Vec<(String, Value)>),
}

/// A JSON syntax or schema error, with a byte offset for syntax errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// What went wrong.
    pub message: String,
    /// Byte offset in the input (0 for schema errors on parsed values).
    pub offset: usize,
}

impl JsonError {
    /// A schema-level error (wrong shape rather than bad syntax).
    pub fn schema(message: impl Into<String>) -> Self {
        JsonError {
            message: message.into(),
            offset: 0,
        }
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.offset > 0 {
            write!(f, "{} at byte {}", self.message, self.offset)
        } else {
            write!(f, "{}", self.message)
        }
    }
}

impl std::error::Error for JsonError {}

/// Types rendering themselves into a [`Value`].
pub trait ToJson {
    /// The JSON form of `self`.
    fn to_json(&self) -> Value;
}

/// Types reconstructible from a [`Value`].
pub trait FromJson: Sized {
    /// Parses `value`, reporting shape mismatches as [`JsonError`].
    ///
    /// # Errors
    ///
    /// Returns a schema error when `value` has the wrong shape.
    fn from_json(value: &Value) -> Result<Self, JsonError>;
}

impl Value {
    /// Field lookup on an object (first match), `None` otherwise.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The boolean payload, if this is a `Bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The numeric payload, if this is a `Num`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as an exact non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The string payload, if this is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The element list, if this is an `Arr`.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The field list, if this is an `Obj`.
    pub fn as_obj(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Obj(fields) => Some(fields),
            _ => None,
        }
    }

    /// Renders compact canonical JSON (no whitespace, fields in insertion
    /// order).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(true) => out.push_str("true"),
            Value::Bool(false) => out.push_str("false"),
            Value::Num(n) => {
                if !n.is_finite() {
                    // JSON has no NaN/Infinity; match JSON.stringify and
                    // emit null so the output always re-parses.
                    out.push_str("null");
                } else if n.fract() == 0.0 && n.abs() <= 2f64.powi(53) {
                    out.push_str(&format!("{}", *n as i64));
                } else {
                    out.push_str(&format!("{n}"));
                }
            }
            Value::Str(s) => write_escaped(s, out),
            Value::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Value::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses a complete JSON document.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] with the byte offset of the first problem.
    pub fn parse(input: &str) -> Result<Value, JsonError> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.error("trailing characters after JSON value"));
        }
        Ok(v)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Containers deeper than this are rejected rather than risking a stack
/// overflow on adversarial input (the parser is recursive-descent).
const MAX_DEPTH: u32 = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: u32,
}

impl Parser<'_> {
    fn error(&self, message: &str) -> JsonError {
        JsonError {
            message: message.to_string(),
            offset: self.pos.max(1),
        }
    }

    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected {:?}", b as char)))
        }
    }

    fn value(&mut self) -> Result<Value, JsonError> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.error("expected a JSON value")),
        }
    }

    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<Value, JsonError>,
    ) -> Result<Value, JsonError> {
        if self.depth >= MAX_DEPTH {
            return Err(self.error("nesting deeper than 128 levels"));
        }
        self.depth += 1;
        let result = parse(self);
        self.depth -= 1;
        result
    }

    fn literal(&mut self, lit: &str, v: Value) -> Result<Value, JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.error(&format!("expected {lit:?}")))
        }
    }

    fn number(&mut self) -> Result<Value, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii digits");
        let n: f64 = text.parse().map_err(|_| self.error("malformed number"))?;
        if !n.is_finite() {
            return Err(self.error("number out of range"));
        }
        Ok(Value::Num(n))
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{0008}'),
                        Some(b'f') => out.push('\u{000C}'),
                        Some(b'u') => {
                            let code = self.u_escape()?;
                            let c = if (0xD800..=0xDBFF).contains(&code) {
                                // UTF-16 high surrogate: RFC 8259 carries
                                // non-BMP characters as a \uXXXX\uXXXX pair.
                                if self.bytes.get(self.pos) != Some(&b'\\')
                                    || self.bytes.get(self.pos + 1) != Some(&b'u')
                                {
                                    return Err(self.error("unpaired high surrogate"));
                                }
                                self.pos += 1; // now at the second 'u'
                                let low = self.u_escape()?;
                                if !(0xDC00..=0xDFFF).contains(&low) {
                                    return Err(self.error("bad low surrogate"));
                                }
                                let combined = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                                char::from_u32(combined)
                                    .ok_or_else(|| self.error("invalid surrogate pair"))?
                            } else if (0xDC00..=0xDFFF).contains(&code) {
                                return Err(self.error("unpaired low surrogate"));
                            } else {
                                char::from_u32(code)
                                    .ok_or_else(|| self.error("invalid \\u code point"))?
                            };
                            out.push(c);
                            continue; // u_escape already advanced past the digits
                        }
                        _ => return Err(self.error("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(b) if b < 0x80 => {
                    // ASCII fast path: push the byte directly (validating
                    // the full remaining input per character would make
                    // string parsing O(n²)).
                    out.push(b as char);
                    self.pos += 1;
                }
                Some(b) => {
                    // Multi-byte UTF-8: decode only this sequence (1-4
                    // bytes, length from the leading byte).
                    let len = match b {
                        0xC0..=0xDF => 2,
                        0xE0..=0xEF => 3,
                        0xF0..=0xF7 => 4,
                        _ => return Err(self.error("invalid UTF-8")),
                    };
                    let seq = self
                        .bytes
                        .get(self.pos..self.pos + len)
                        .ok_or_else(|| self.error("truncated UTF-8 sequence"))?;
                    let s = std::str::from_utf8(seq).map_err(|_| self.error("invalid UTF-8"))?;
                    out.push_str(s);
                    self.pos += len;
                }
            }
        }
    }

    /// Reads `uXXXX` (cursor on the `u`), leaving the cursor one past the
    /// last hex digit.
    fn u_escape(&mut self) -> Result<u32, JsonError> {
        let hex = self
            .bytes
            .get(self.pos + 1..self.pos + 5)
            .ok_or_else(|| self.error("truncated \\u escape"))?;
        let hex = std::str::from_utf8(hex).map_err(|_| self.error("non-ascii \\u escape"))?;
        let code = u32::from_str_radix(hex, 16).map_err(|_| self.error("bad \\u escape"))?;
        self.pos += 5;
        Ok(code)
    }

    fn array(&mut self) -> Result<Value, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(self.error("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Value, JsonError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(fields));
                }
                _ => return Err(self.error("expected ',' or '}'")),
            }
        }
    }
}

/// Convenience: required field lookup with a schema error naming the key.
///
/// # Errors
///
/// Returns a schema error when `key` is missing.
pub fn require<'v>(value: &'v Value, key: &str) -> Result<&'v Value, JsonError> {
    value
        .get(key)
        .ok_or_else(|| JsonError::schema(format!("missing field {key:?}")))
}

/// Convenience: required `u64` field.
///
/// # Errors
///
/// Returns a schema error when missing or not an exact integer.
pub fn require_u64(value: &Value, key: &str) -> Result<u64, JsonError> {
    require(value, key)?
        .as_u64()
        .ok_or_else(|| JsonError::schema(format!("field {key:?} must be a non-negative integer")))
}

/// Convenience: required string field.
///
/// # Errors
///
/// Returns a schema error when missing or not a string.
pub fn require_str<'v>(value: &'v Value, key: &str) -> Result<&'v str, JsonError> {
    require(value, key)?
        .as_str()
        .ok_or_else(|| JsonError::schema(format!("field {key:?} must be a string")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_scalars() {
        for text in ["null", "true", "false", "0", "42", "-7", "1.5", "\"hi\""] {
            let v = Value::parse(text).unwrap();
            assert_eq!(v.render(), text);
        }
    }

    #[test]
    fn roundtrip_nested() {
        let text = r#"{"id":"j1","source":{"benchmark":"ising","size":2},"xs":[1,2,3],"ok":true}"#;
        let v = Value::parse(text).unwrap();
        assert_eq!(v.render(), text);
        assert_eq!(v.get("id").and_then(Value::as_str), Some("j1"));
        assert_eq!(
            v.get("source")
                .and_then(|s| s.get("size"))
                .and_then(Value::as_u64),
            Some(2)
        );
        assert_eq!(
            v.get("xs").and_then(Value::as_arr).map(<[Value]>::len),
            Some(3)
        );
    }

    #[test]
    fn escapes_roundtrip() {
        let v = Value::Str("a\"b\\c\nd\te".into());
        let rendered = v.render();
        assert_eq!(Value::parse(&rendered).unwrap(), v);
    }

    #[test]
    fn unicode_escape_parses() {
        let v = Value::parse("\"\\u00e9\"").unwrap();
        assert_eq!(v.as_str(), Some("é"));
    }

    #[test]
    fn surrogate_pairs_combine() {
        // 😀 U+1F600 as the UTF-16 pair standard encoders emit.
        let v = Value::parse("\"\\ud83d\\ude00\"").unwrap();
        assert_eq!(v.as_str(), Some("😀"));
        // Followed by more content.
        let v = Value::parse("\"a\\ud83d\\ude00b\"").unwrap();
        assert_eq!(v.as_str(), Some("a😀b"));
    }

    #[test]
    fn lone_surrogates_rejected() {
        assert!(Value::parse("\"\\ud83d\"").is_err());
        assert!(Value::parse("\"\\ud83dx\"").is_err());
        assert!(Value::parse("\"\\ud83d\\u0041\"").is_err());
        assert!(Value::parse("\"\\ude00\"").is_err());
    }

    #[test]
    fn whitespace_tolerated() {
        let v = Value::parse(" { \"a\" : [ 1 , 2 ] , \"b\" : null } ").unwrap();
        assert_eq!(v.render(), r#"{"a":[1,2],"b":null}"#);
    }

    #[test]
    fn errors_carry_offsets() {
        assert!(Value::parse("").is_err());
        assert!(Value::parse("{").is_err());
        assert!(Value::parse("[1,]").is_err());
        assert!(Value::parse("tru").is_err());
        assert!(Value::parse("1 2")
            .unwrap_err()
            .message
            .contains("trailing"));
    }

    #[test]
    fn canonical_rendering_is_deterministic() {
        let a = Value::Obj(vec![
            ("x".into(), Value::Num(1.0)),
            ("y".into(), Value::Num(2.0)),
        ]);
        let b = Value::parse(&a.render()).unwrap();
        assert_eq!(a.render(), b.render());
    }

    #[test]
    fn large_strings_parse_in_linear_time() {
        // 2 MB of inline-QASM-like content; O(n²) parsing took over a
        // minute here, linear parsing is well under a second.
        let body = "h q[0];\\ncx q[0],q[1];\\n".repeat(100_000);
        let doc = format!("{{\"qasm\":\"{body}\"}}");
        let started = std::time::Instant::now();
        let v = Value::parse(&doc).unwrap();
        assert!(v.get("qasm").is_some());
        assert!(
            started.elapsed() < std::time::Duration::from_secs(5),
            "parse took {:?}",
            started.elapsed()
        );
    }

    #[test]
    fn multibyte_utf8_survives_parsing() {
        let v = Value::parse("\"héllo — 😀 日本\"").unwrap();
        assert_eq!(v.as_str(), Some("héllo — 😀 日本"));
    }

    #[test]
    fn depth_limit_rejects_instead_of_overflowing() {
        let deep = "[".repeat(100_000) + &"]".repeat(100_000);
        let err = Value::parse(&deep).unwrap_err();
        assert!(err.message.contains("nesting"), "got {err}");
        // 100 levels is fine.
        let ok = "[".repeat(100) + &"]".repeat(100);
        assert!(Value::parse(&ok).is_ok());
    }

    #[test]
    fn non_finite_numbers_never_escape() {
        assert!(Value::parse("1e999").is_err(), "overflow to inf rejected");
        assert_eq!(Value::Num(f64::NAN).render(), "null");
        assert_eq!(Value::Num(f64::INFINITY).render(), "null");
    }

    #[test]
    fn u64_boundaries() {
        assert_eq!(Value::Num(0.0).as_u64(), Some(0));
        assert_eq!(Value::Num(-1.0).as_u64(), None);
        assert_eq!(Value::Num(1.5).as_u64(), None);
    }
}
