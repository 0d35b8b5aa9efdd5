//! A self-contained JSON value, parser and serializer.
//!
//! The workspace's dependency policy (DESIGN.md §6) rules out serde, but
//! the planning service speaks JSON over the wire: network specs come
//! in, mapping plans go out. This module is the single JSON
//! implementation the whole tree shares — `pim-nets` deserializes
//! [`NetworkSpec`](https://docs.rs/pim-nets)s through it, `vw-sdk-serve`
//! renders every response with it, and `vwsdk sweep --format json`
//! reuses the same serializer, so machine-readable output is
//! byte-identical no matter which entry point produced it.
//!
//! Design points:
//!
//! * Objects preserve **insertion order** (a `Vec` of pairs, not a hash
//!   map), which makes serialization deterministic — a requirement for
//!   the server's byte-identical-to-the-`Planner` guarantee.
//! * The parser is a recursive-descent parser with a nesting-depth
//!   limit; it reports errors with 1-based line and column. It accepts
//!   exactly RFC 8259 JSON (no comments, no trailing commas).
//! * Numbers are stored as `f64`. Integers below 2^53 round-trip
//!   exactly and serialize without a fractional part. A literal past
//!   `f64`'s range is refused, so the parser never produces a non-finite
//!   float; a computed one serializes as `null`.
//!
//! # Example
//!
//! ```
//! use pim_report::json::JsonValue;
//!
//! let value = JsonValue::parse(r#"{"name": "tiny", "layers": [1, 2]}"#)?;
//! assert_eq!(value.get("name").and_then(JsonValue::as_str), Some("tiny"));
//! assert_eq!(value.render(), r#"{"name":"tiny","layers":[1,2]}"#);
//! // parse ∘ render is the identity on values.
//! assert_eq!(JsonValue::parse(&value.render())?, value);
//! # Ok::<(), pim_report::json::JsonError>(())
//! ```

use std::error::Error;
use std::fmt;

/// 2^53, the first integer that two different integer literals parse to
/// (2^53 + 1 rounds down to it), so the integer accessors refuse it and
/// everything above.
pub const MAX_EXACT_INTEGER: u64 = 1 << 53;

/// Maximum nesting depth the parser accepts; deeper documents are
/// rejected instead of overflowing the stack (the server parses
/// untrusted bodies).
const MAX_DEPTH: usize = 128;

/// Error raised while parsing malformed JSON text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    message: String,
    /// 1-based line of the offending character.
    line: usize,
    /// 1-based column of the offending character.
    column: usize,
}

impl JsonError {
    fn new(message: impl Into<String>, line: usize, column: usize) -> Self {
        Self {
            message: message.into(),
            line,
            column,
        }
    }

    /// 1-based line number where parsing failed.
    pub fn line(&self) -> usize {
        self.line
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid JSON at line {}, column {}: {}",
            self.line, self.column, self.message
        )
    }
}

impl Error for JsonError {}

/// A JSON document: the value tree of RFC 8259.
///
/// Objects keep their members in insertion order so that serialization
/// is deterministic; see the [module docs](self).
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (stored as `f64`).
    Number(f64),
    /// A string.
    String(String),
    /// An array of values.
    Array(Vec<JsonValue>),
    /// An object: ordered `(key, value)` members.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Parses a JSON document.
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] with line/column information for malformed
    /// text, trailing garbage, or nesting deeper than 128 levels.
    pub fn parse(text: &str) -> Result<JsonValue, JsonError> {
        let mut parser = Parser::new(text);
        parser.skip_whitespace();
        let value = parser.parse_value(0)?;
        parser.skip_whitespace();
        if !parser.at_end() {
            return Err(parser.error("unexpected trailing characters"));
        }
        Ok(value)
    }

    /// Builds an object from ordered `(key, value)` pairs.
    pub fn object<K: Into<String>>(members: impl IntoIterator<Item = (K, JsonValue)>) -> JsonValue {
        JsonValue::Object(members.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Builds an array from values.
    pub fn array(items: impl IntoIterator<Item = JsonValue>) -> JsonValue {
        JsonValue::Array(items.into_iter().collect())
    }

    /// Member lookup on objects; `None` for missing keys or non-objects.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The payload as a `u64`, if this is a non-negative integral number
    /// below [`MAX_EXACT_INTEGER`]: the values whose integer literal is
    /// the only one that parses to them.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            JsonValue::Number(n)
                if n.fract() == 0.0 && (0.0..MAX_EXACT_INTEGER as f64).contains(&n) =>
            {
                Some(n as u64)
            }
            _ => None,
        }
    }

    /// The payload as a `usize` (see [`JsonValue::as_u64`]).
    pub fn as_usize(&self) -> Option<usize> {
        self.as_u64().and_then(|n| usize::try_from(n).ok())
    }

    /// The items, if this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The ordered members, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Object(members) => Some(members),
            _ => None,
        }
    }

    /// Serializes compactly (no whitespace). Deterministic: equal values
    /// render to equal bytes.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Serializes with two-space indentation and newlines, for humans.
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, level: usize) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(true) => out.push_str("true"),
            JsonValue::Bool(false) => out.push_str("false"),
            JsonValue::Number(n) => write_number(out, *n),
            JsonValue::String(s) => write_string(out, s),
            JsonValue::Array(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_break(out, indent, level + 1);
                    item.write(out, indent, level + 1);
                }
                write_break(out, indent, level);
                out.push(']');
            }
            JsonValue::Object(members) => {
                if members.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (key, value)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_break(out, indent, level + 1);
                    write_string(out, key);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    value.write(out, indent, level + 1);
                }
                write_break(out, indent, level);
                out.push('}');
            }
        }
    }
}

impl fmt::Display for JsonValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

impl From<bool> for JsonValue {
    fn from(b: bool) -> Self {
        JsonValue::Bool(b)
    }
}

impl From<f64> for JsonValue {
    fn from(n: f64) -> Self {
        JsonValue::Number(n)
    }
}

impl From<u64> for JsonValue {
    fn from(n: u64) -> Self {
        JsonValue::Number(n as f64)
    }
}

impl From<usize> for JsonValue {
    fn from(n: usize) -> Self {
        JsonValue::Number(n as f64)
    }
}

impl From<&str> for JsonValue {
    fn from(s: &str) -> Self {
        JsonValue::String(s.to_string())
    }
}

impl From<String> for JsonValue {
    fn from(s: String) -> Self {
        JsonValue::String(s)
    }
}

fn write_break(out: &mut String, indent: Option<usize>, level: usize) {
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..width * level {
            out.push(' ');
        }
    }
}

fn write_number(out: &mut String, n: f64) {
    if !n.is_finite() {
        // The parser can never produce these; a computed NaN/inf has no
        // JSON spelling, so degrade to null rather than emit garbage.
        out.push_str("null");
    } else if n.fract() == 0.0 && n.abs() <= 9007199254740992.0 {
        out.push_str(&format!("{}", n as i64));
    } else {
        // Rust's shortest round-trip float formatting re-parses exactly.
        out.push_str(&format!("{n}"));
    }
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Self {
            bytes: text.as_bytes(),
            pos: 0,
        }
    }

    fn at_end(&self) -> bool {
        self.pos >= self.bytes.len()
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn error(&self, message: impl Into<String>) -> JsonError {
        let mut line = 1;
        let mut column = 1;
        for &b in &self.bytes[..self.pos.min(self.bytes.len())] {
            if b == b'\n' {
                line += 1;
                column = 1;
            } else {
                column += 1;
            }
        }
        JsonError::new(message, line, column)
    }

    fn skip_whitespace(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(format!("expected {:?}", byte as char)))
        }
    }

    fn consume_literal(&mut self, literal: &str, value: JsonValue) -> Result<JsonValue, JsonError> {
        if self.bytes[self.pos..].starts_with(literal.as_bytes()) {
            self.pos += literal.len();
            Ok(value)
        } else {
            Err(self.error(format!("expected {literal:?}")))
        }
    }

    fn parse_value(&mut self, depth: usize) -> Result<JsonValue, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.error("nesting deeper than 128 levels"));
        }
        match self.peek() {
            Some(b'{') => self.parse_object(depth),
            Some(b'[') => self.parse_array(depth),
            Some(b'"') => Ok(JsonValue::String(self.parse_string()?)),
            Some(b't') => self.consume_literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.consume_literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.consume_literal("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.parse_number(),
            Some(other) => Err(self.error(format!("unexpected character {:?}", other as char))),
            None => Err(self.error("unexpected end of input")),
        }
    }

    fn parse_object(&mut self, depth: usize) -> Result<JsonValue, JsonError> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        // Hashed key tracking keeps duplicate detection linear — a
        // hostile megabyte of keys must not cost quadratic comparisons.
        let mut seen: std::collections::HashSet<String> = std::collections::HashSet::new();
        self.skip_whitespace();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(members));
        }
        loop {
            self.skip_whitespace();
            if self.peek() != Some(b'"') {
                return Err(self.error("expected a string key"));
            }
            let key = self.parse_string()?;
            self.skip_whitespace();
            self.expect(b':')?;
            self.skip_whitespace();
            let value = self.parse_value(depth + 1)?;
            if !seen.insert(key.clone()) {
                // First-wins or last-wins would silently drop a value
                // the client meant; with validating consumers above us,
                // rejection is the only honest answer.
                return Err(self.error(format!("duplicate object key {key:?}")));
            }
            members.push((key, value));
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(members));
                }
                _ => return Err(self.error("expected ',' or '}' in object")),
            }
        }
    }

    fn parse_array(&mut self, depth: usize) -> Result<JsonValue, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_whitespace();
            items.push(self.parse_value(depth + 1)?);
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(self.error("expected ',' or ']' in array")),
            }
        }
    }

    fn parse_string(&mut self) -> Result<String, JsonError> {
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
                        Some(b'b') => out.push('\u{08}'),
                        Some(b'f') => out.push('\u{0c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            out.push(self.parse_unicode_escape()?);
                            continue;
                        }
                        _ => return Err(self.error("invalid escape sequence")),
                    }
                    self.pos += 1;
                }
                Some(b) if b < 0x20 => {
                    return Err(self.error("unescaped control character in string"))
                }
                Some(_) => {
                    // Copy one whole UTF-8 scalar (input is a &str, so
                    // the byte stream is valid UTF-8 by construction).
                    let start = self.pos;
                    self.pos += 1;
                    while self.pos < self.bytes.len() && self.bytes[self.pos] & 0xc0 == 0x80 {
                        self.pos += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..self.pos])
                            .expect("slice on char boundary"),
                    );
                }
            }
        }
    }

    fn parse_hex4(&mut self) -> Result<u32, JsonError> {
        let mut code = 0u32;
        for _ in 0..4 {
            let digit = match self.peek() {
                Some(b @ b'0'..=b'9') => (b - b'0') as u32,
                Some(b @ b'a'..=b'f') => (b - b'a' + 10) as u32,
                Some(b @ b'A'..=b'F') => (b - b'A' + 10) as u32,
                _ => return Err(self.error("invalid \\u escape: expected 4 hex digits")),
            };
            code = code * 16 + digit;
            self.pos += 1;
        }
        Ok(code)
    }

    fn parse_unicode_escape(&mut self) -> Result<char, JsonError> {
        let first = self.parse_hex4()?;
        if (0xd800..0xdc00).contains(&first) {
            // High surrogate: a low surrogate escape must follow.
            if self.peek() == Some(b'\\') && self.bytes.get(self.pos + 1) == Some(&b'u') {
                self.pos += 2;
                let second = self.parse_hex4()?;
                if !(0xdc00..0xe000).contains(&second) {
                    return Err(self.error("invalid low surrogate in \\u pair"));
                }
                let combined = 0x10000 + ((first - 0xd800) << 10) + (second - 0xdc00);
                return char::from_u32(combined)
                    .ok_or_else(|| self.error("invalid surrogate pair"));
            }
            return Err(self.error("unpaired high surrogate in \\u escape"));
        }
        if (0xdc00..0xe000).contains(&first) {
            return Err(self.error("unpaired low surrogate in \\u escape"));
        }
        char::from_u32(first).ok_or_else(|| self.error("invalid \\u code point"))
    }

    fn parse_number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => {
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
            }
            _ => return Err(self.error("malformed number")),
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.error("malformed number: digits must follow '.'"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.error("malformed number: empty exponent"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii number");
        // `str::parse` answers `Ok(inf)` past f64's range; JSON has no
        // spelling for that, so it is out of range like a parse failure.
        match text.parse::<f64>() {
            Ok(n) if n.is_finite() => Ok(JsonValue::Number(n)),
            _ => Err(self.error(format!("number {text:?} out of range"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(text: &str) -> JsonValue {
        JsonValue::parse(text).unwrap()
    }

    #[test]
    fn scalars_parse_and_render() {
        assert_eq!(parse("null"), JsonValue::Null);
        assert_eq!(parse("true"), JsonValue::Bool(true));
        assert_eq!(parse("false").render(), "false");
        assert_eq!(parse("42"), JsonValue::Number(42.0));
        assert_eq!(parse("-3.5").render(), "-3.5");
        assert_eq!(parse("1e3").render(), "1000");
        assert_eq!(parse("\"hi\"").as_str(), Some("hi"));
    }

    #[test]
    fn integers_render_without_fraction() {
        assert_eq!(JsonValue::from(4294u64).render(), "4294");
        assert_eq!(JsonValue::from(0usize).render(), "0");
        assert_eq!(JsonValue::Number(-7.0).render(), "-7");
        assert_eq!(JsonValue::Number(4.67).render(), "4.67");
    }

    #[test]
    fn nonfinite_numbers_render_as_null() {
        assert_eq!(JsonValue::Number(f64::NAN).render(), "null");
        assert_eq!(JsonValue::Number(f64::INFINITY).render(), "null");
    }

    #[test]
    fn objects_preserve_member_order() {
        let v = parse(r#"{"z": 1, "a": 2}"#);
        assert_eq!(v.render(), r#"{"z":1,"a":2}"#);
        assert_eq!(v.get("a"), Some(&JsonValue::Number(2.0)));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn arrays_and_nesting_round_trip() {
        let text = r#"{"layers":[{"k":[3,3]},{"k":[5,5]}],"deep":[[[1]]]}"#;
        let v = parse(text);
        assert_eq!(v.render(), text);
        assert_eq!(JsonValue::parse(&v.render_pretty()).unwrap(), v);
    }

    #[test]
    fn string_escapes_round_trip() {
        let v = parse(r#""a\"b\\c\nd\teé😀""#);
        assert_eq!(v.as_str(), Some("a\"b\\c\nd\teé😀"));
        assert_eq!(JsonValue::parse(&v.render()).unwrap(), v);
        let control = JsonValue::String("\u{01}".to_string());
        assert_eq!(control.render(), "\"\\u0001\"");
        assert_eq!(JsonValue::parse(&control.render()).unwrap(), control);
    }

    #[test]
    fn malformed_documents_report_positions() {
        let err = JsonValue::parse("{\"a\": }").unwrap_err();
        assert_eq!((err.line(), err.column), (1, 7));
        let err = JsonValue::parse("[1,\n 2,]").unwrap_err();
        assert_eq!(err.line(), 2);
        assert!(JsonValue::parse("").is_err());
        assert!(JsonValue::parse("{} trailing").is_err());
        assert!(JsonValue::parse("[1 2]").is_err());
        assert!(JsonValue::parse("{'a': 1}").is_err());
        assert!(JsonValue::parse("01").is_err());
        assert!(JsonValue::parse("1.").is_err());
        assert!(JsonValue::parse("\"unterminated").is_err());
        assert!(JsonValue::parse("\"bad \\q escape\"").is_err());
        assert!(JsonValue::parse("\"\\ud800 unpaired\"").is_err());
        assert!(JsonValue::parse("nulL").is_err());
    }

    #[test]
    fn duplicate_object_keys_are_rejected() {
        let err = JsonValue::parse(r#"{"a": 1, "b": 2, "a": 3}"#).unwrap_err();
        assert!(
            err.to_string().contains("duplicate object key \"a\""),
            "{err}"
        );
        assert!(JsonValue::parse(r#"{"a": {"x": 1, "x": 2}}"#).is_err());
        // Equal keys in *different* objects stay fine.
        assert!(JsonValue::parse(r#"[{"a": 1}, {"a": 2}]"#).is_ok());
    }

    #[test]
    fn depth_limit_rejects_hostile_nesting() {
        let deep = "[".repeat(200) + &"]".repeat(200);
        let err = JsonValue::parse(&deep).unwrap_err();
        assert!(err.to_string().contains("nesting"));
        let ok = "[".repeat(100) + &"]".repeat(100);
        assert!(JsonValue::parse(&ok).is_ok());
    }

    #[test]
    fn numeric_accessors_guard_exactness() {
        assert_eq!(parse("7").as_u64(), Some(7));
        assert_eq!(parse("7").as_usize(), Some(7));
        assert_eq!(parse("-1").as_u64(), None);
        assert_eq!(parse("1.5").as_u64(), None);
        assert_eq!(parse("true").as_u64(), None);
    }

    #[test]
    fn integers_stop_below_two_to_the_53() {
        assert_eq!(
            parse("9007199254740991").as_u64(),
            Some(MAX_EXACT_INTEGER - 1)
        );
        // 2^53, 2^53 + 1 and 2^53 + 0.5 all parse to the same f64.
        for text in ["9007199254740992", "9007199254740993", "9007199254740992.5"] {
            assert_eq!(parse(text).as_u64(), None, "{text}");
        }
    }

    #[test]
    fn numbers_past_the_f64_range_are_refused() {
        for text in ["1e400", "-1e400", "[1, 2e999]"] {
            let err = JsonValue::parse(text).unwrap_err();
            assert!(err.to_string().contains("out of range"), "{text}: {err}");
        }
        // Underflow is not overflow: a tiny literal is a finite zero.
        assert_eq!(parse("1e-400"), JsonValue::Number(0.0));
    }

    #[test]
    fn builders_compose_documents() {
        let v = JsonValue::object([
            ("name", JsonValue::from("tiny")),
            ("layers", JsonValue::array([1usize.into(), 2usize.into()])),
            ("ok", true.into()),
        ]);
        assert_eq!(v.render(), r#"{"name":"tiny","layers":[1,2],"ok":true}"#);
    }

    #[test]
    fn pretty_rendering_is_indented() {
        let v = parse(r#"{"a":[1,2],"b":{}}"#);
        let pretty = v.render_pretty();
        assert!(pretty.contains("{\n  \"a\": [\n    1,\n    2\n  ],\n  \"b\": {}\n}"));
    }
}
