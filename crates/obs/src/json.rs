//! A minimal JSON backend for the trace format.
//!
//! The vendored `serde` shim carries no `serde_json`, so this module
//! provides the two halves the observability layer needs: a [`Serializer`]
//! that renders any `Serialize` type to a compact JSON string, and a small
//! recursive-descent [`parse`] function producing a [`Json`] value tree.
//! Numbers are emitted with Rust's shortest round-trip formatting, so
//! `f64 → JSON → f64` is exact; non-finite floats become `null`.

use serde::ser::{
    Error as SerError, Serialize, SerializeMap, SerializeSeq, SerializeStruct,
    SerializeStructVariant, Serializer,
};
use std::fmt::{self, Display, Write as _};

/// Serializes `value` to a compact JSON string.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> String {
    let mut out = String::new();
    value
        .serialize(JsonSerializer { out: &mut out })
        .expect("writing JSON to a String cannot fail");
    out
}

/// Serialization error. Writing to a `String` cannot actually fail, so this
/// only materializes if a `Serialize` impl reports a custom error.
#[derive(Debug)]
pub struct JsonError(String);

impl Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl SerError for JsonError {
    fn custom<T: Display>(msg: T) -> Self {
        JsonError(msg.to_string())
    }
}

struct JsonSerializer<'a> {
    out: &'a mut String,
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn write_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        // `{:?}` is Rust's shortest representation that parses back to the
        // same bits, e.g. `0.1`, `1.0`, `1.75e-3` stays exact.
        let _ = write!(out, "{v:?}");
    } else {
        out.push_str("null");
    }
}

/// Writes comma-separated items between `open`/`close` delimiters.
struct DelimitedWriter<'a> {
    out: &'a mut String,
    first: bool,
    close: char,
}

impl<'a> DelimitedWriter<'a> {
    fn begin(out: &'a mut String, open: char, close: char) -> Self {
        out.push(open);
        DelimitedWriter {
            out,
            first: true,
            close,
        }
    }

    fn sep(&mut self) {
        if self.first {
            self.first = false;
        } else {
            self.out.push(',');
        }
    }

    fn finish(self) {
        self.out.push(self.close);
    }
}

impl<'a> Serializer for JsonSerializer<'a> {
    type Ok = ();
    type Error = JsonError;
    type SerializeSeq = DelimitedWriter<'a>;
    type SerializeMap = DelimitedWriter<'a>;
    type SerializeStruct = DelimitedWriter<'a>;
    type SerializeStructVariant = VariantWriter<'a>;

    fn serialize_bool(self, v: bool) -> Result<(), JsonError> {
        self.out.push_str(if v { "true" } else { "false" });
        Ok(())
    }

    fn serialize_i64(self, v: i64) -> Result<(), JsonError> {
        let _ = write!(self.out, "{v}");
        Ok(())
    }

    fn serialize_u64(self, v: u64) -> Result<(), JsonError> {
        let _ = write!(self.out, "{v}");
        Ok(())
    }

    fn serialize_f64(self, v: f64) -> Result<(), JsonError> {
        write_f64(self.out, v);
        Ok(())
    }

    fn serialize_str(self, v: &str) -> Result<(), JsonError> {
        write_escaped(self.out, v);
        Ok(())
    }

    fn serialize_unit(self) -> Result<(), JsonError> {
        self.out.push_str("null");
        Ok(())
    }

    fn serialize_none(self) -> Result<(), JsonError> {
        self.out.push_str("null");
        Ok(())
    }

    fn serialize_some<T: Serialize + ?Sized>(self, value: &T) -> Result<(), JsonError> {
        value.serialize(self)
    }

    fn serialize_seq(self, _len: Option<usize>) -> Result<DelimitedWriter<'a>, JsonError> {
        Ok(DelimitedWriter::begin(self.out, '[', ']'))
    }

    fn serialize_map(self, _len: Option<usize>) -> Result<DelimitedWriter<'a>, JsonError> {
        Ok(DelimitedWriter::begin(self.out, '{', '}'))
    }

    fn serialize_struct(
        self,
        _name: &'static str,
        _len: usize,
    ) -> Result<DelimitedWriter<'a>, JsonError> {
        Ok(DelimitedWriter::begin(self.out, '{', '}'))
    }

    fn serialize_unit_variant(
        self,
        _name: &'static str,
        _variant_index: u32,
        variant: &'static str,
    ) -> Result<(), JsonError> {
        write_escaped(self.out, variant);
        Ok(())
    }

    fn serialize_struct_variant(
        self,
        _name: &'static str,
        _variant_index: u32,
        variant: &'static str,
        _len: usize,
    ) -> Result<VariantWriter<'a>, JsonError> {
        self.out.push('{');
        write_escaped(self.out, variant);
        self.out.push(':');
        Ok(VariantWriter {
            inner: DelimitedWriter::begin(self.out, '{', '}'),
        })
    }
}

impl SerializeSeq for DelimitedWriter<'_> {
    type Ok = ();
    type Error = JsonError;

    fn serialize_element<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<(), JsonError> {
        self.sep();
        value.serialize(JsonSerializer { out: self.out })
    }

    fn end(self) -> Result<(), JsonError> {
        self.finish();
        Ok(())
    }
}

impl SerializeMap for DelimitedWriter<'_> {
    type Ok = ();
    type Error = JsonError;

    fn serialize_entry<K: Serialize + ?Sized, V: Serialize + ?Sized>(
        &mut self,
        key: &K,
        value: &V,
    ) -> Result<(), JsonError> {
        self.sep();
        // JSON object keys must be strings: serialize the key, then require
        // that it rendered as one.
        let start = self.out.len();
        key.serialize(JsonSerializer { out: self.out })?;
        if !self.out[start..].starts_with('"') {
            return Err(JsonError::custom("JSON map keys must serialize as strings"));
        }
        self.out.push(':');
        value.serialize(JsonSerializer { out: self.out })
    }

    fn end(self) -> Result<(), JsonError> {
        self.finish();
        Ok(())
    }
}

impl SerializeStruct for DelimitedWriter<'_> {
    type Ok = ();
    type Error = JsonError;

    fn serialize_field<T: Serialize + ?Sized>(
        &mut self,
        key: &'static str,
        value: &T,
    ) -> Result<(), JsonError> {
        self.sep();
        write_escaped(self.out, key);
        self.out.push(':');
        value.serialize(JsonSerializer { out: self.out })
    }

    fn end(self) -> Result<(), JsonError> {
        self.finish();
        Ok(())
    }
}

/// Struct-variant writer: the inner `{fields}` object plus the wrapping
/// `{"Variant": ... }` object that still needs closing.
pub struct VariantWriter<'a> {
    inner: DelimitedWriter<'a>,
}

impl SerializeStructVariant for VariantWriter<'_> {
    type Ok = ();
    type Error = JsonError;

    fn serialize_field<T: Serialize + ?Sized>(
        &mut self,
        key: &'static str,
        value: &T,
    ) -> Result<(), JsonError> {
        self.inner.sep();
        write_escaped(self.inner.out, key);
        self.inner.out.push(':');
        value.serialize(JsonSerializer {
            out: self.inner.out,
        })
    }

    fn end(self) -> Result<(), JsonError> {
        let out = {
            self.inner.out.push(self.inner.close);
            // Close the outer `{"Variant": ...}` wrapper too.
            let DelimitedWriter { out, .. } = self.inner;
            out
        };
        out.push('}');
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

/// A parsed JSON value.
///
/// Objects preserve insertion order (they are association lists, not maps),
/// which keeps parsing allocation-light and makes tests deterministic.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number; JSON does not distinguish integer from float.
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Json>),
    /// An object, as ordered key–value pairs.
    Object(Vec<(String, Json)>),
}

/// Parses one JSON document.
///
/// # Errors
///
/// Returns a message naming the byte offset of the first syntax error, or
/// trailing non-whitespace after the document.
pub fn parse(input: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing content at byte {}", p.pos));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
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

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", char::from(b), self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::String),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if matches!(b, b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>()
            .map(Json::Number)
            .map_err(|_| format!("invalid number {text:?} at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
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
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                                16,
                            )
                            .map_err(|_| "bad \\u escape")?;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| format!("invalid codepoint {code:#x}"))?,
                            );
                            self.pos += 4;
                        }
                        other => return Err(format!("bad escape {other:?}")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the run up to the next quote or backslash in one
                    // step. Both are ASCII, which never occurs inside a
                    // multi-byte character, so the run is whole characters;
                    // validating only the run keeps parsing linear.
                    let start = self.pos;
                    while !matches!(self.peek(), None | Some(b'"' | b'\\')) {
                        self.pos += 1;
                    }
                    let run = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| "invalid UTF-8 in string")?;
                    out.push_str(run);
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
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
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(entries));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            entries.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(entries));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Typed accessors
// ---------------------------------------------------------------------------
//
// Every reader of a parsed document (trace events, both checkpoint formats)
// walks the value tree through these. The `get_*` readers take an object's
// fields plus a key, the `as_*` readers a value plus a description of where
// it sits. A `get_*` failure reads `field "key": …`, an `as_*` failure
// `<description>: …`. Messages are only formatted on failure, so a
// successful read never allocates.

/// An object's fields, in document order.
pub type Fields = [(String, Json)];

/// The largest integer an `f64` JSON number carries exactly (2^53).
const MAX_EXACT_INT: f64 = 9_007_199_254_740_992.0;

fn mismatch(what: &str, expected: &str, got: &Json) -> String {
    format!("{what}: expected {expected}, got {got:?}")
}

/// The value of field `key`; `Err` (`missing field "key"`) when absent.
pub fn get<'a>(fields: &'a Fields, key: &str) -> Result<&'a Json, String> {
    fields
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
        .ok_or_else(|| format!("missing field {key:?}"))
}

/// Reads field `key` with `read` and reports a failure as `field "key": …`
/// (`read` gets an empty description, so its message starts at the `:`).
fn read_field<'a, T>(
    fields: &'a Fields,
    key: &str,
    read: impl FnOnce(&'a Json, &str) -> Result<T, String>,
) -> Result<T, String> {
    read(get(fields, key)?, "").map_err(|e| format!("field {key:?}{e}"))
}

/// Field `key` read with `read` (which receives the key as its
/// description), or `None` when the field is `null` — an optional record.
pub fn get_nullable<'a, T>(
    fields: &'a Fields,
    key: &str,
    read: impl FnOnce(&'a Json, &str) -> Result<T, String>,
) -> Result<Option<T>, String> {
    match get(fields, key)? {
        Json::Null => Ok(None),
        value => read(value, key).map(Some),
    }
}

/// Reads field `key` with `read`, or returns `default` when the field is
/// absent — for fields added to a schema after its first version.
pub fn get_or<T>(
    fields: &Fields,
    key: &str,
    default: T,
    read: impl FnOnce(&Fields, &str) -> Result<T, String>,
) -> Result<T, String> {
    if fields.iter().any(|(k, _)| k == key) {
        read(fields, key)
    } else {
        Ok(default)
    }
}

/// `value` as an object's fields.
pub fn as_object<'a>(value: &'a Json, what: &str) -> Result<&'a Fields, String> {
    match value {
        Json::Object(fields) => Ok(fields),
        other => Err(mismatch(what, "an object", other)),
    }
}

/// `value` as an array.
pub fn as_array<'a>(value: &'a Json, what: &str) -> Result<&'a [Json], String> {
    match value {
        Json::Array(items) => Ok(items),
        other => Err(mismatch(what, "an array", other)),
    }
}

/// `value` as an array of exactly `N` items — a pair, a triple, ….
pub fn as_tuple<'a, const N: usize>(value: &'a Json, what: &str) -> Result<&'a [Json; N], String> {
    let items = as_array(value, what)?;
    items
        .try_into()
        .map_err(|_| format!("{what}: expected {N} items, got {}", items.len()))
}

/// `value` as a number.
pub fn as_f64(value: &Json, what: &str) -> Result<f64, String> {
    match value {
        Json::Number(n) => Ok(*n),
        other => Err(mismatch(what, "a number", other)),
    }
}

/// `value` as a number, reading `null` as NaN (the serializer writes every
/// non-finite float as `null`).
pub fn as_f64_or_nan(value: &Json, what: &str) -> Result<f64, String> {
    match value {
        Json::Null => Ok(f64::NAN),
        other => as_f64(other, what),
    }
}

/// `value` as a non-negative integer a JSON number holds exactly: a
/// negative, fractional, non-finite or above-2^53 number is an `Err`, so a
/// malformed count or index is rejected, never truncated.
pub fn as_u64(value: &Json, what: &str) -> Result<u64, String> {
    let n = as_f64(value, what)?;
    if n.fract() == 0.0 && (0.0..=MAX_EXACT_INT).contains(&n) {
        Ok(n as u64)
    } else {
        Err(format!("{what}: expected a non-negative integer, got {n}"))
    }
}

/// [`as_u64`] as an index.
pub fn as_usize(value: &Json, what: &str) -> Result<usize, String> {
    as_u64(value, what).map(|n| n as usize)
}

/// `value` as a bool.
pub fn as_bool(value: &Json, what: &str) -> Result<bool, String> {
    match value {
        Json::Bool(b) => Ok(*b),
        other => Err(mismatch(what, "a bool", other)),
    }
}

/// `value` as a string slice.
pub fn as_str<'a>(value: &'a Json, what: &str) -> Result<&'a str, String> {
    match value {
        Json::String(s) => Ok(s),
        other => Err(mismatch(what, "a string", other)),
    }
}

/// Field `key` as an object's fields.
pub fn get_object<'a>(fields: &'a Fields, key: &str) -> Result<&'a Fields, String> {
    read_field(fields, key, as_object)
}

/// Field `key` as an array, each item read with `read` (which receives the
/// key as its description).
pub fn get_vec<T>(
    fields: &Fields,
    key: &str,
    mut read: impl FnMut(&Json, &str) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    read_field(fields, key, as_array)?
        .iter()
        .map(|item| read(item, key))
        .collect()
}

/// Field `key` as a number.
pub fn get_f64(fields: &Fields, key: &str) -> Result<f64, String> {
    read_field(fields, key, as_f64)
}

/// Field `key` as a number, reading `null` as NaN — the trace-event
/// convention, and a censored in-flight run's unrevealed quality.
pub fn get_f64_or_nan(fields: &Fields, key: &str) -> Result<f64, String> {
    read_field(fields, key, as_f64_or_nan)
}

/// Field `key` as a number, reading `null` as `-inf` — HYBRID's best-sum
/// sentinel before its first round.
pub fn get_f64_or_neg_inf(fields: &Fields, key: &str) -> Result<f64, String> {
    read_field(fields, key, |value, what| match value {
        Json::Null => Ok(f64::NEG_INFINITY),
        other => as_f64(other, what),
    })
}

/// Field `key` as a non-negative integer (see [`as_u64`]).
pub fn get_u64(fields: &Fields, key: &str) -> Result<u64, String> {
    read_field(fields, key, as_u64)
}

/// Field `key` as a `u32` — a format version, say; a larger integer is an
/// `Err`, not truncated.
pub fn get_u32(fields: &Fields, key: &str) -> Result<u32, String> {
    let n = get_u64(fields, key)?;
    u32::try_from(n).map_err(|_| format!("field {key:?}: {n} exceeds u32"))
}

/// [`get_u64`] as an index.
pub fn get_usize(fields: &Fields, key: &str) -> Result<usize, String> {
    read_field(fields, key, as_usize)
}

/// Field `key` as a bool.
pub fn get_bool(fields: &Fields, key: &str) -> Result<bool, String> {
    read_field(fields, key, as_bool)
}

/// Field `key` as an owned string.
pub fn get_str(fields: &Fields, key: &str) -> Result<String, String> {
    read_field(fields, key, as_str).map(str::to_string)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_render() {
        assert_eq!(to_string(&true), "true");
        assert_eq!(to_string(&42u64), "42");
        assert_eq!(to_string(&-7i32), "-7");
        assert_eq!(to_string(&0.1f64), "0.1");
        assert_eq!(to_string(&f64::NAN), "null");
        assert_eq!(to_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(to_string(&Option::<u32>::None), "null");
        assert_eq!(to_string(&vec![1u32, 2, 3]), "[1,2,3]");
    }

    #[test]
    fn parse_round_trips_floats_exactly() {
        for &v in &[0.1f64, 1.0 / 3.0, 1.75e-3, 1e300, -0.0, 123456789.123456] {
            let s = to_string(&v);
            match parse(&s).unwrap() {
                Json::Number(back) => assert_eq!(back.to_bits(), v.to_bits(), "{s}"),
                other => panic!("parsed {s} to {other:?}"),
            }
        }
    }

    #[test]
    fn parse_handles_nesting_and_whitespace() {
        let doc = r#" { "a" : [ 1 , { "b" : null } , "x" ] , "c" : true } "#;
        let parsed = parse(doc).unwrap();
        assert_eq!(
            parsed,
            Json::Object(vec![
                (
                    "a".into(),
                    Json::Array(vec![
                        Json::Number(1.0),
                        Json::Object(vec![("b".into(), Json::Null)]),
                        Json::String("x".into()),
                    ])
                ),
                ("c".into(), Json::Bool(true)),
            ])
        );
    }

    #[test]
    fn parse_rejects_malformed_documents() {
        for bad in ["", "{", "[1,", "{\"a\" 1}", "tru", "1 2", "\"\\q\""] {
            assert!(parse(bad).is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn unicode_strings_survive() {
        let s = "héllo ∑ \u{1}";
        let rendered = to_string(s);
        assert_eq!(parse(&rendered).unwrap(), Json::String(s.into()));
    }

    #[test]
    fn accessors_read_typed_fields_and_name_the_culprit() {
        let doc =
            parse(r#"{"n":3,"x":0.5,"z":null,"b":true,"s":"hi","v":[1,2],"p":[[0,1.5]]}"#).unwrap();
        let f = as_object(&doc, "doc").unwrap();
        assert_eq!(get_u64(f, "n"), Ok(3));
        assert_eq!(get_f64(f, "x"), Ok(0.5));
        assert!(get_f64_or_nan(f, "z").unwrap().is_nan());
        assert_eq!(get_f64_or_neg_inf(f, "z"), Ok(f64::NEG_INFINITY));
        assert_eq!(get_bool(f, "b"), Ok(true));
        assert_eq!(get_str(f, "s").as_deref(), Ok("hi"));
        assert_eq!(get_vec(f, "v", as_usize), Ok(vec![1, 2]));
        let pairs = get_vec(f, "p", |v, what| {
            let [a, b] = as_tuple(v, what)?;
            Ok((as_usize(a, what)?, as_f64(b, what)?))
        });
        assert_eq!(pairs, Ok(vec![(0, 1.5)]));
        assert_eq!(get_or(f, "absent", 7, get_u64), Ok(7));
        assert_eq!(get_nullable(f, "z", as_f64), Ok(None));
        assert_eq!(get_nullable(f, "x", as_f64), Ok(Some(0.5)));
        assert_eq!(get(f, "absent"), Err("missing field \"absent\"".into()));
        assert_eq!(
            get_f64(f, "z"),
            Err("field \"z\": expected a number, got Null".into())
        );
        assert_eq!(
            get_bool(f, "n"),
            Err("field \"n\": expected a bool, got Number(3.0)".into())
        );
        assert!(get_vec(f, "v", as_bool)
            .unwrap_err()
            .starts_with("v: expected a bool"));
        assert!(as_tuple::<3>(&Json::Array(vec![]), "t")
            .unwrap_err()
            .contains("expected 3 items"));
    }

    #[test]
    fn integers_are_validated_not_truncated() {
        for bad in ["-1", "1.5", "-1.5", "1e300", "9007199254740994"] {
            let v = parse(bad).unwrap();
            let err = as_u64(&v, "idx").unwrap_err();
            assert!(
                err.contains("idx: expected a non-negative integer"),
                "{err}"
            );
        }
        assert_eq!(
            as_usize(&parse("9007199254740992").unwrap(), "i"),
            Ok(1 << 53)
        );
        assert_eq!(as_u64(&Json::Number(-0.0), "z"), Ok(0));
        let big = parse("{\"v\":4294967299}").unwrap();
        assert!(get_u32(as_object(&big, "doc").unwrap(), "v").is_err());
        assert!(as_u64(&Json::Null, "n").is_err());
    }
}
