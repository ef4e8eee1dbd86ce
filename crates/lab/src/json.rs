//! A minimal, deterministic JSON emitter and parser.
//!
//! The workspace derives no serde traits (the offline `serde` shim's
//! derives would expand to nothing; see `shims/README.md`), so this module
//! is what moves campaign reports on and off disk. Two properties matter more than
//! generality:
//!
//! * **Determinism** — objects keep insertion order and floats print via
//!   Rust's shortest-round-trip formatting, so semantically equal reports
//!   serialize to byte-identical text (the campaign runner's
//!   thread-count-invariance guarantee rests on this);
//! * **Exact round trips** — integers are kept as literals (no `f64`
//!   detour), and shortest-round-trip floats re-parse to the same bits, so
//!   `parse(emit(v)) == v` including for `u64` seeds above 2^53.
//!
//! Not supported (not needed by reports): non-string keys, `NaN`/`Inf`
//! (rejected at emit time), and streaming input.

use std::fmt;

/// A JSON document node.
///
/// Numbers are stored as their literal text, which keeps `u64` exact and
/// floats at shortest-round-trip precision; use [`Json::integer`] /
/// [`Json::float`] to construct them and [`Json::as_u64`] / [`Json::as_f64`]
/// to read them back.
///
/// # Examples
///
/// ```
/// use comet_lab::Json;
///
/// let doc = Json::object([
///     ("name", Json::string("smoke")),
///     ("seed", Json::integer(u64::MAX)),
///     ("ratio", Json::float(0.1)),
/// ]);
/// let text = doc.to_string();
/// let back = Json::parse(&text)?;
/// assert_eq!(back, doc);
/// assert_eq!(back.get("seed").and_then(Json::as_u64), Some(u64::MAX));
/// # Ok::<(), comet_lab::JsonError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A numeric literal (kept as text for exactness).
    Number(String),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Json>),
    /// An object in insertion order (duplicate keys are not merged).
    Object(Vec<(String, Json)>),
}

impl Json {
    /// An exact unsigned-integer node.
    pub fn integer(v: u64) -> Json {
        Json::Number(v.to_string())
    }

    /// A float node at shortest-round-trip precision.
    ///
    /// # Panics
    ///
    /// Panics on non-finite values (JSON cannot represent them; reports
    /// never contain them).
    pub fn float(v: f64) -> Json {
        assert!(v.is_finite(), "JSON cannot represent {v}");
        // `{:?}` is Rust's shortest representation that round-trips to the
        // same f64; it is valid JSON for all finite values (e.g. `1.0`,
        // `6.5e-9`) except that it may omit a fraction for integral floats
        // (`1.0` does include it).
        Json::Number(format!("{v:?}"))
    }

    /// A string node.
    pub fn string(v: impl Into<String>) -> Json {
        Json::String(v.into())
    }

    /// An object node from `(key, value)` pairs, preserving order.
    pub fn object<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Object(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Looks up a key in an object node.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The elements of an array node.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(v) => Some(v),
            _ => None,
        }
    }

    /// The text of a string node.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::String(s) => Some(s),
            _ => None,
        }
    }

    /// Parses a number node as `u64` (exact; rejects floats).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Number(n) => n.parse().ok(),
            _ => None,
        }
    }

    /// Parses a number node as `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Number(n) => n.parse().ok(),
            _ => None,
        }
    }

    /// The value of a bool node.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Parses a JSON document.
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] with a byte offset on malformed input or
    /// trailing garbage.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after document"));
        }
        Ok(v)
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Number(n) => out.push_str(n),
            Json::String(s) => write_escaped(out, s),
            Json::Array(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                // Arrays of scalars stay on one line; arrays of containers
                // get one element per line.
                let scalar = items
                    .iter()
                    .all(|i| !matches!(i, Json::Array(_) | Json::Object(_)));
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    if !scalar {
                        newline(out, indent + 1);
                    } else if i > 0 {
                        out.push(' ');
                    }
                    item.write(out, indent + 1);
                }
                if !scalar {
                    newline(out, indent);
                }
                out.push(']');
            }
            Json::Object(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, indent + 1);
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write(out, indent + 1);
                }
                newline(out, indent);
                out.push('}');
            }
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write(&mut out, 0);
        f.write_str(&out)
    }
}

fn newline(out: &mut String, indent: usize) {
    out.push('\n');
    for _ in 0..indent {
        out.push_str("  ");
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
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

/// A parse failure with its byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// A document that parsed but lacks an expected field or value; the
/// report and spec readers wrap it in their own error types.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct SchemaError(pub(crate) String);

pub(crate) fn schema(m: impl Into<String>) -> SchemaError {
    SchemaError(m.into())
}

pub(crate) fn field<'j>(obj: &'j Json, key: &str) -> Result<&'j Json, SchemaError> {
    obj.get(key)
        .ok_or_else(|| schema(format!("missing '{key}'")))
}

pub(crate) fn u64_field(obj: &Json, key: &str) -> Result<u64, SchemaError> {
    field(obj, key)?
        .as_u64()
        .ok_or_else(|| schema(format!("'{key}' is not an integer")))
}

pub(crate) fn f64_field(obj: &Json, key: &str) -> Result<f64, SchemaError> {
    field(obj, key)?
        .as_f64()
        .ok_or_else(|| schema(format!("'{key}' is not a number")))
}

pub(crate) fn str_field(obj: &Json, key: &str) -> Result<String, SchemaError> {
    Ok(field(obj, key)?
        .as_str()
        .ok_or_else(|| schema(format!("'{key}' is not a string")))?
        .to_string())
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, c: u8) -> Result<(), JsonError> {
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected '{}'", c as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::String(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(self.err(format!("unexpected character '{}'", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
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
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| self.err("non-ASCII \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            // Reports only escape control characters; reject
                            // surrogate pairs rather than mis-decoding them.
                            let c = char::from_u32(code)
                                .ok_or_else(|| self.err("unsupported \\u code point"))?;
                            out.push(c);
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar; `pos` always sits on a char
                    // boundary because advances are whole chars or ASCII.
                    let c = self.text[self.pos..].chars().next().expect("peeked a byte");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII number");
        if text.is_empty() || text == "-" || text.parse::<f64>().is_err() {
            return Err(self.err("malformed number"));
        }
        Ok(Json::Number(text.to_string()))
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(pairs));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(v: &Json) {
        let text = v.to_string();
        let back = Json::parse(&text).expect("own output parses");
        assert_eq!(&back, v, "text was: {text}");
        assert_eq!(back.to_string(), text, "re-emission is stable");
    }

    #[test]
    fn scalars_roundtrip() {
        for v in [
            Json::Null,
            Json::Bool(true),
            Json::Bool(false),
            Json::integer(0),
            Json::integer(u64::MAX),
            Json::float(0.1),
            Json::float(-6.5e-19),
            Json::float(1.0),
            Json::string(""),
            Json::string("tab\tnewline\nquote\"backslash\\"),
            Json::string("unicode: λ=1550nm"),
        ] {
            roundtrip(&v);
        }
    }

    #[test]
    fn nested_structures_roundtrip() {
        let doc = Json::object([
            ("empty_arr", Json::Array(vec![])),
            ("empty_obj", Json::Object(vec![])),
            (
                "cells",
                Json::Array(vec![
                    Json::object([("a", Json::integer(1))]),
                    Json::object([("a", Json::integer(2))]),
                ]),
            ),
            ("hist", Json::Array((0..10).map(Json::integer).collect())),
        ]);
        roundtrip(&doc);
    }

    #[test]
    fn u64_seeds_survive_exactly() {
        // 2^53 + 1 is not representable as f64: literal storage keeps it.
        let seed = (1u64 << 53) + 1;
        let doc = Json::object([("seed", Json::integer(seed))]);
        let back = Json::parse(&doc.to_string()).unwrap();
        assert_eq!(back.get("seed").unwrap().as_u64(), Some(seed));
    }

    #[test]
    fn float_bits_survive() {
        for bits in [
            0x3FB999999999999Au64,
            0x7FEFFFFFFFFFFFFF,
            0x0000000000000001,
        ] {
            let v = f64::from_bits(bits);
            let doc = Json::float(v);
            let back = Json::parse(&doc.to_string()).unwrap();
            assert_eq!(back.as_f64().unwrap().to_bits(), bits);
        }
    }

    #[test]
    fn object_key_order_is_preserved() {
        let text = "{\"b\": 1, \"a\": 2}";
        let doc = Json::parse(text).unwrap();
        match &doc {
            Json::Object(pairs) => {
                assert_eq!(pairs[0].0, "b");
                assert_eq!(pairs[1].0, "a");
            }
            _ => panic!("object expected"),
        }
    }

    #[test]
    fn malformed_inputs_rejected() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\" 1}",
            "tru",
            "\"unterminated",
            "1 2",
            "-",
            "1e",
            "{\"a\": 1,}",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn whitespace_tolerated() {
        let doc = Json::parse(" \n\t{ \"a\" : [ 1 , 2 ] , \"b\" : null } \r\n").unwrap();
        assert_eq!(doc.get("a").unwrap().as_array().unwrap().len(), 2);
        assert_eq!(doc.get("b"), Some(&Json::Null));
    }

    #[test]
    #[should_panic(expected = "cannot represent")]
    fn non_finite_floats_rejected_at_emit() {
        let _ = Json::float(f64::NAN);
    }
}
