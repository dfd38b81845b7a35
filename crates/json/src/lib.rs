//! The workspace's one JSON codec: a value type, a parser, and the
//! two writer primitives every hand-written document shares.
//!
//! This workspace vendors no serde. Every serialized artifact — the
//! daemon's `nocomm-service/v1` requests and responses,
//! `sweep-checkpoint/v1`, `threshold-table/v1`, `engine-metrics/v1`,
//! the smoke reports and the `BENCH_*` files — is written by hand and
//! read back through [`parse`], a recursive-descent pass over the
//! standard JSON grammar. Readers then walk the [`Json`] tree with the
//! typed accessors, which name the offending field in their errors.
//!
//! Numbers are kept as their raw token until a caller asks for a
//! typed value, so `u64`-range integers stay exact and `f64`s
//! round-trip bit-for-bit (Rust's shortest float formatting, used by
//! [`write_number`], re-parses to the identical bits).
//!
//! Parsing is linear in the input length, and the tree borrows from
//! the input: number tokens, keys and strings without escapes are
//! slices of the text, so a large document such as a 65,537-point
//! sweep checkpoint costs one allocation per array or object rather
//! than one per token.

#![forbid(unsafe_code)]

use std::borrow::Cow;
use std::fmt::Write as _;

/// How deeply arrays and objects may nest. The parser recurses once
/// per level, so without a bound a short line of `[`s would overflow
/// the stack of whichever thread parses it; every document this
/// workspace writes nests at most four deep.
const MAX_DEPTH: usize = 128;

/// A parsed JSON value, borrowing from the text it was parsed from.
#[derive(Clone, Debug, PartialEq)]
pub enum Json<'a> {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept as its raw token.
    Number(&'a str),
    /// A string with escapes resolved (owned only when it had any).
    String(Cow<'a, str>),
    /// An ordered array.
    Array(Vec<Json<'a>>),
    /// An ordered object (duplicate keys are a parse error).
    Object(Vec<Field<'a>>),
}

/// One object member: its key and value.
pub type Field<'a> = (Cow<'a, str>, Json<'a>);

impl<'a> Json<'a> {
    /// The value's JSON type name, for error messages.
    #[must_use]
    pub fn type_name(&self) -> &'static str {
        match self {
            Json::Null => "null",
            Json::Bool(_) => "bool",
            Json::Number(_) => "number",
            Json::String(_) => "string",
            Json::Array(_) => "array",
            Json::Object(_) => "object",
        }
    }

    /// The object's fields, or an error naming `what`.
    ///
    /// # Errors
    ///
    /// Returns a message when the value is not an object.
    pub fn fields(&self, what: &str) -> Result<&[Field<'a>], String> {
        match self {
            Json::Object(fields) => Ok(fields),
            other => Err(format!(
                "{what} must be an object, found {}",
                other.type_name()
            )),
        }
    }

    /// The array's items, or an error naming `what`.
    ///
    /// # Errors
    ///
    /// Returns a message when the value is not an array.
    pub fn items(&self, what: &str) -> Result<&[Json<'a>], String> {
        match self {
            Json::Array(items) => Ok(items),
            other => Err(format!(
                "{what} must be an array, found {}",
                other.type_name()
            )),
        }
    }

    /// The string's content, or an error naming `what`.
    ///
    /// # Errors
    ///
    /// Returns a message when the value is not a string.
    pub fn str(&self, what: &str) -> Result<&str, String> {
        match self {
            Json::String(s) => Ok(s),
            other => Err(format!(
                "{what} must be a string, found {}",
                other.type_name()
            )),
        }
    }

    /// The number as a `u64`, or an error naming `what`.
    ///
    /// # Errors
    ///
    /// Returns a message when the value is not a non-negative integer
    /// in `u64` range.
    pub fn u64(&self, what: &str) -> Result<u64, String> {
        match self {
            Json::Number(raw) => raw
                .parse::<u64>()
                .map_err(|_| format!("{what} must be a non-negative integer, found {raw}")),
            other => Err(format!(
                "{what} must be a number, found {}",
                other.type_name()
            )),
        }
    }

    /// The number as a finite `f64`, or an error naming `what`.
    ///
    /// # Errors
    ///
    /// Returns a message when the value is not a finite number.
    pub fn f64(&self, what: &str) -> Result<f64, String> {
        match self {
            Json::Number(raw) => match raw.parse::<f64>() {
                Ok(v) if v.is_finite() => Ok(v),
                _ => Err(format!("{what} must be a finite number, found {raw}")),
            },
            other => Err(format!(
                "{what} must be a number, found {}",
                other.type_name()
            )),
        }
    }

    /// The boolean, or an error naming `what`.
    ///
    /// # Errors
    ///
    /// Returns a message when the value is not a boolean.
    pub fn bool(&self, what: &str) -> Result<bool, String> {
        match self {
            Json::Bool(b) => Ok(*b),
            other => Err(format!(
                "{what} must be a boolean, found {}",
                other.type_name()
            )),
        }
    }
}

/// Looks up a required field inside a named object.
///
/// # Errors
///
/// Returns a message when the field is absent.
pub fn field<'f, 'a>(
    fields: &'f [Field<'a>],
    key: &str,
    within: &str,
) -> Result<&'f Json<'a>, String> {
    fields
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
        .ok_or_else(|| format!("{within} is missing required field {key:?}"))
}

/// Looks up an optional field inside an object.
#[must_use]
pub fn field_opt<'f, 'a>(fields: &'f [Field<'a>], key: &str) -> Option<&'f Json<'a>> {
    fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

/// Parses one complete JSON document; trailing non-whitespace is an
/// error.
///
/// # Errors
///
/// Returns a byte-offset-tagged message on malformed input.
pub fn parse(text: &str) -> Result<Json<'_>, String> {
    let mut p = Parser {
        text,
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
        items: Vec::new(),
        fields: Vec::new(),
    };
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.fail("trailing data after the value"));
    }
    Ok(value)
}

/// Appends a JSON string literal (with escaping) to `out`.
pub fn write_str(out: &mut String, text: &str) {
    out.push('"');
    for c in text.chars() {
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

/// Appends a finite `f64` as its shortest round-trip token — the
/// `{:?}` formatting, which is always a valid JSON number for finite
/// values and re-parses to identical bits.
pub fn write_number(out: &mut String, value: f64) {
    debug_assert!(value.is_finite());
    let _ = write!(out, "{value:?}");
}

/// Recursive-descent state over the raw bytes. `pos` only ever
/// advances over ASCII tokens or whole runs of `text`, so it always
/// sits on a `char` boundary.
struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
    /// Items of the open arrays, innermost last; each array moves its
    /// own run out on close, so its vector is allocated at its exact
    /// length once.
    items: Vec<Json<'a>>,
    /// Members of the open objects, likewise.
    fields: Vec<Field<'a>>,
}

impl<'a> Parser<'a> {
    fn fail(&self, message: &str) -> String {
        format!("byte {}: {message}", self.pos)
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, byte: u8) -> Result<(), String> {
        if self.bytes.get(self.pos) == Some(&byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.fail(&format!("expected {:?}", char::from(byte))))
        }
    }

    fn value(&mut self) -> Result<Json<'a>, String> {
        self.skip_ws();
        match self.bytes.get(self.pos) {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Json::String(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c.is_ascii_digit() || *c == b'-' => self.number(),
            _ => Err(self.fail("expected a JSON value")),
        }
    }

    /// Parses one array or object, one level deeper.
    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<Json<'a>, String>,
    ) -> Result<Json<'a>, String> {
        if self.depth == MAX_DEPTH {
            return Err(self.fail(&format!("nested deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn literal(&mut self, word: &str, value: Json<'a>) -> Result<Json<'a>, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.fail(&format!("expected `{word}`")))
        }
    }

    fn number(&mut self) -> Result<Json<'a>, String> {
        let start = self.pos;
        if self.bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|c| c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        if self.pos == start || (self.pos == start + 1 && self.bytes[start] == b'-') {
            return Err(self.fail("expected digits"));
        }
        let Some(raw) = self.text.get(start..self.pos) else {
            return Err(self.fail("number is not UTF-8"));
        };
        // Syntax check now; range/type checks stay with the typed
        // accessors (e.g. `1e999` scans fine but is rejected as a
        // non-finite f64).
        if raw.parse::<f64>().is_err() {
            return Err(self.fail("malformed number"));
        }
        Ok(Json::Number(raw))
    }

    fn string(&mut self) -> Result<Cow<'a, str>, String> {
        self.eat(b'"')?;
        let run = self.run();
        if self.bytes.get(self.pos + run) == Some(&b'"') {
            // No escapes: the string is a slice of the input.
            let text = self.take(run)?;
            self.pos += 1;
            return Ok(Cow::Borrowed(text));
        }
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return Err(self.fail("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(Cow::Owned(out));
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let escaped = match self.bytes.get(self.pos) {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'n') => '\n',
                        Some(b't') => '\t',
                        Some(b'r') => '\r',
                        Some(b'u') => {
                            // `\uXXXX` for one BMP scalar (the writer
                            // only emits these for control characters).
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32);
                            let Some(ch) = hex else {
                                return Err(self.fail("bad \\u escape"));
                            };
                            self.pos += 4;
                            ch
                        }
                        _ => return Err(self.fail("unsupported escape")),
                    };
                    out.push(escaped);
                    self.pos += 1;
                }
                Some(_) => {
                    let run = self.run();
                    out.push_str(self.take(run)?);
                }
            }
        }
    }

    /// The length of the string run at `pos`: up to the next quote or
    /// backslash, or the end of the input. Both stops are ASCII, so
    /// the run ends on a `char` boundary and each byte is scanned once.
    fn run(&self) -> usize {
        let rest = &self.bytes[self.pos..];
        rest.iter()
            .position(|&b| b == b'"' || b == b'\\')
            .unwrap_or(rest.len())
    }

    /// Consumes the next `len` bytes as a slice of the input.
    fn take(&mut self, len: usize) -> Result<&'a str, String> {
        let text: &'a str = self.text;
        let Some(chunk) = text.get(self.pos..self.pos + len) else {
            return Err(self.fail("string is not UTF-8"));
        };
        self.pos += len;
        Ok(chunk)
    }

    fn array(&mut self) -> Result<Json<'a>, String> {
        self.eat(b'[')?;
        let base = self.items.len();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b']') {
            self.pos += 1;
            return Ok(Json::Array(Vec::new()));
        }
        loop {
            let item = self.value()?;
            self.items.push(item);
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(self.items.split_off(base)));
                }
                _ => return Err(self.fail("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self) -> Result<Json<'a>, String> {
        self.eat(b'{')?;
        let base = self.fields.len();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b'}') {
            self.pos += 1;
            return Ok(Json::Object(Vec::new()));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            if self.fields[base..].iter().any(|(k, _)| *k == key) {
                return Err(self.fail(&format!("duplicate key {key:?}")));
            }
            self.skip_ws();
            self.eat(b':')?;
            let value = self.value()?;
            self.fields.push((key, value));
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(self.fields.split_off(base)));
                }
                _ => return Err(self.fail("expected `,` or `}`")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_round_trip() {
        let doc = r#"{"kind": "pwin", "n": 3, "delta": 1.0, "ok": true, "xs": [0.1, -2e-3], "none": null}"#;
        let parsed = parse(doc).unwrap();
        let fields = parsed.fields("root").unwrap();
        assert_eq!(
            field(fields, "kind", "root").unwrap().str("kind").unwrap(),
            "pwin"
        );
        assert_eq!(field(fields, "n", "root").unwrap().u64("n").unwrap(), 3);
        assert_eq!(
            field(fields, "delta", "root").unwrap().f64("d").unwrap(),
            1.0
        );
        assert!(field(fields, "ok", "root").unwrap().bool("ok").unwrap());
        let xs = field(fields, "xs", "root").unwrap().items("xs").unwrap();
        assert_eq!(xs[1].f64("x").unwrap(), -2e-3);
        assert!(field_opt(fields, "missing").is_none());
    }

    #[test]
    fn malformed_documents_are_rejected() {
        for bad in [
            "",
            "{",
            "{\"a\": }",
            "{\"a\": 1,}",
            "{\"a\": 1} trailing",
            "{\"a\": 1, \"a\": 2}",
            "[1 2]",
            "nul",
            "\"unterminated",
            "{\"delta\": 1e}",
            "{} {}",
            "[1, 2,]",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must be rejected");
        }
        let err = parse("{} {}").unwrap_err();
        assert!(err.contains("trailing"), "{err}");
        let err = parse("{\"a\": 1, \"a\": 2}").unwrap_err();
        assert!(err.contains("duplicate key"), "{err}");
        // A lone `-` is not a number.
        assert!(parse("-").is_err());
    }

    #[test]
    fn nesting_is_bounded() {
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&ok).is_ok());
        let deep = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        let err = parse(&deep).unwrap_err();
        assert!(err.contains("nested deeper"), "{err}");
        // Far too deep to recurse through on any thread's stack.
        assert!(parse(&"[{\"a\": ".repeat(1 << 20)).is_err());
    }

    #[test]
    fn f64_tokens_round_trip_bitwise() {
        for v in [0.1, 1.0 / 3.0, 0.622, 2.5e-7, f64::MIN_POSITIVE, 0.0] {
            let mut out = String::new();
            write_number(&mut out, v);
            let back = parse(&out).unwrap().f64("v").unwrap();
            assert_eq!(back.to_bits(), v.to_bits(), "{v:?}");
        }
    }

    #[test]
    fn string_escapes_round_trip() {
        let mut out = String::new();
        write_str(&mut out, "a \"quote\"\nline\t\\end\u{1}");
        let back = parse(&out).unwrap();
        assert_eq!(back.str("s").unwrap(), "a \"quote\"\nline\t\\end\u{1}");
    }

    #[test]
    fn typed_accessors_name_the_offender() {
        let v = parse("{\"n\": \"three\"}").unwrap();
        let fields = v.fields("root").unwrap();
        let err = field(fields, "n", "root").unwrap().u64("n").unwrap_err();
        assert!(err.contains("n must be a number"), "{err}");
        let err = v.items("root").unwrap_err();
        assert!(err.contains("root must be an array"), "{err}");
    }
}
