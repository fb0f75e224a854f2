//! A minimal, deterministic JSON layer — std only, no macros, no traits.
//!
//! The serving protocol needs exactly two things from JSON: parse one
//! request line into a lookup-able value, and write one response line with
//! a **stable field order** so warm and cold answers to the same query are
//! byte-identical (pinned by `tests/serve.rs`). [`Value`] keeps object
//! fields in document order (a `Vec`, not a map), and [`Obj`] writes
//! fields strictly in call order. Floats are written with Rust's shortest
//! round-trip formatting, which is a pure function of the bits — exact
//! carbon bits additionally travel as 16-digit hex strings
//! (`Obj::field_bits`) so clients never depend on decimal round-trips.

use std::fmt::Write as _;

/// A parsed JSON value. Objects preserve document field order and are
/// queried by linear scan — request lines are small.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (as `f64` — request numbers are small integers or
    /// levels; exact 64-bit quantities travel as hex strings).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, fields in document order (first duplicate wins on get).
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Field of an object by key (`None` for non-objects/missing keys).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as a non-negative integer (rejects fractions,
    /// negatives and anything above 2^53).
    pub fn as_usize(&self) -> Option<usize> {
        let n = self.as_f64()?;
        ((0.0..=9_007_199_254_740_992.0).contains(&n) && n.fract() == 0.0).then_some(n as usize)
    }

    /// The boolean payload, if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Why a request line failed to parse (byte offset included).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the offending character.
    pub at: usize,
    /// What was wrong.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Parses one complete JSON document (trailing whitespace allowed,
/// trailing content rejected).
pub fn parse(text: &str) -> Result<Value, ParseError> {
    let mut p = Parser {
        text,
        bytes: text.as_bytes(),
        at: 0,
    };
    p.skip_ws();
    let value = p.value(0)?;
    p.skip_ws();
    if p.at != p.bytes.len() {
        return Err(p.err("trailing content after the JSON value"));
    }
    Ok(value)
}

/// Nesting depth guard — request lines are flat; a deeply nested bomb is
/// rejected rather than recursed into.
const MAX_DEPTH: usize = 32;

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> ParseError {
        ParseError {
            at: self.at,
            message: message.to_string(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.at).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.at += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.at += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, ParseError> {
        if self.bytes[self.at..].starts_with(word.as_bytes()) {
            self.at += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected `{word}`")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, ParseError> {
        if depth > MAX_DEPTH {
            return Err(self.err("value nested too deeply"));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn object(&mut self, depth: usize) -> Result<Value, ParseError> {
        self.eat(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.at += 1;
            return Ok(Value::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b'}') => {
                    self.at += 1;
                    return Ok(Value::Obj(fields));
                }
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Value, ParseError> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.at += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b']') => {
                    self.at += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.at += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.at += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.at += 1;
                            let first = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&first) {
                                // High surrogate: a low surrogate must follow.
                                if self.peek() != Some(b'\\') {
                                    return Err(self.err("unpaired surrogate"));
                                }
                                self.at += 1;
                                self.eat(b'u')?;
                                let low = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&low) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let code = 0x10000 + ((first - 0xD800) << 10) + (low - 0xDC00);
                                char::from_u32(code)
                            } else {
                                char::from_u32(first)
                            };
                            match c {
                                Some(c) => out.push(c),
                                None => return Err(self.err("invalid unicode escape")),
                            }
                            // hex4 leaves `at` past the digits; undo the
                            // +1 the common path below would double-apply.
                            self.at -= 1;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.at += 1;
                }
                Some(_) => {
                    // Copy the run of plain characters up to the next
                    // quote or backslash in one step. Both are ASCII, so
                    // the run ends on a char boundary of the `&str` input.
                    let rest = &self.bytes[self.at..];
                    let run = rest
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .unwrap_or(rest.len());
                    let plain = self
                        .text
                        .get(self.at..self.at + run)
                        .ok_or_else(|| self.err("invalid UTF-8 in string"))?;
                    out.push_str(plain);
                    self.at += run;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let end = self.at + 4;
        if end > self.bytes.len() {
            return Err(self.err("truncated unicode escape"));
        }
        let digits = std::str::from_utf8(&self.bytes[self.at..end])
            .map_err(|_| self.err("invalid unicode escape"))?;
        let code =
            u32::from_str_radix(digits, 16).map_err(|_| self.err("invalid unicode escape"))?;
        self.at = end;
        Ok(code)
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.at;
        if self.peek() == Some(b'-') {
            self.at += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.at += 1;
        }
        if self.peek() == Some(b'.') {
            self.at += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.at += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.at += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.at += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.at += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.at])
            .map_err(|_| self.err("invalid number"))?;
        text.parse::<f64>()
            .ok()
            .filter(|n| n.is_finite())
            .map(Value::Num)
            .ok_or_else(|| self.err("invalid number"))
    }
}

/// Writes `s` as a JSON string literal (quotes included) into `out`.
pub fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// An ordered JSON object writer: fields appear exactly in call order, so
/// a response's bytes are a pure function of the values written.
pub struct Obj {
    buf: String,
    empty: bool,
}

impl Obj {
    /// Starts `{`.
    pub fn new() -> Obj {
        Obj {
            buf: String::from("{"),
            empty: true,
        }
    }

    fn key(&mut self, key: &str) {
        if !self.empty {
            self.buf.push(',');
        }
        self.empty = false;
        write_escaped(&mut self.buf, key);
        self.buf.push(':');
    }

    /// Adds a string field.
    pub fn field_str(mut self, key: &str, value: &str) -> Obj {
        self.key(key);
        write_escaped(&mut self.buf, value);
        self
    }

    /// Adds an integer field.
    pub fn field_int(mut self, key: &str, value: usize) -> Obj {
        self.key(key);
        let _ = write!(self.buf, "{value}");
        self
    }

    /// Adds a float field (shortest round-trip decimal; non-finite values
    /// become `null`, which the protocol never produces for results).
    pub fn field_num(mut self, key: &str, value: f64) -> Obj {
        self.key(key);
        if value.is_finite() {
            let _ = write!(self.buf, "{value}");
        } else {
            self.buf.push_str("null");
        }
        self
    }

    /// Adds a float's exact bits as a 16-digit hex string — the field
    /// clients compare for bit-identity.
    pub(crate) fn field_bits(self, key: &str, value: f64) -> Obj {
        let hex = format!("{:016x}", value.to_bits());
        self.field_str(key, &hex)
    }

    /// Adds a boolean field.
    pub(crate) fn field_bool(mut self, key: &str, value: bool) -> Obj {
        self.key(key);
        self.buf.push_str(if value { "true" } else { "false" });
        self
    }

    /// Adds a pre-rendered JSON fragment (an [`Obj::finish`] result or an
    /// array built from them) verbatim.
    pub(crate) fn field_raw(mut self, key: &str, json: &str) -> Obj {
        self.key(key);
        self.buf.push_str(json);
        self
    }

    /// Closes `}` and returns the bytes.
    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

impl Default for Obj {
    fn default() -> Obj {
        Obj::new()
    }
}

/// Renders pre-rendered JSON fragments as an array.
pub(crate) fn array(items: &[String]) -> String {
    let mut out = String::from("[");
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(item);
    }
    out.push(']');
    out
}

/// Parses a 16-digit hex string back into `f64` bits — the inverse of
/// `Obj::field_bits`.
pub fn bits_from_hex(hex: &str) -> Option<f64> {
    (hex.len() == 16)
        .then(|| u64::from_str_radix(hex, 16).ok())
        .flatten()
        .map(f64::from_bits)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_request_line() {
        let v = parse(r#"{"op":"assess","draws":64,"seed":9,"warm":true,"x":null}"#).unwrap();
        assert_eq!(v.get("op").and_then(Value::as_str), Some("assess"));
        assert_eq!(v.get("draws").and_then(Value::as_usize), Some(64));
        assert_eq!(v.get("seed").and_then(Value::as_usize), Some(9));
        assert_eq!(v.get("warm").and_then(Value::as_bool), Some(true));
        assert_eq!(v.get("x"), Some(&Value::Null));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn parses_nesting_arrays_and_escapes() {
        let v = parse(r#"{"a":[1,2.5,-3e2],"s":"line\nbreak A😀"}"#).unwrap();
        let arr = v.get("a").and_then(Value::as_array).unwrap();
        assert_eq!(arr.len(), 3);
        assert_eq!(arr[2].as_f64(), Some(-300.0));
        assert_eq!(
            v.get("s").and_then(Value::as_str),
            Some("line\nbreak A\u{1F600}")
        );
    }

    #[test]
    fn a_mebibyte_string_round_trips_through_the_writer_and_parser() {
        // ASCII, two- and four-byte UTF-8, and every escape the writer
        // emits (quote, backslash, newline, tab, a \u control).
        let unit = "plain ascii é 😀 \"quoted\" back\\slash\nline\ttab\u{1}";
        let text = unit.repeat((1 << 20) / unit.len() + 1);
        assert!(text.len() >= 1 << 20);
        let line = Obj::new().field_str("pad", &text).finish();
        let v = parse(&line).unwrap();
        assert_eq!(v.get("pad").and_then(Value::as_str), Some(text.as_str()));
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            r#"{"a"}"#,
            r#"{"a":}"#,
            "[1,]",
            "{} trailing",
            "nul",
            r#""unterminated"#,
            "1e999",
            &format!("{}1{}", "[".repeat(40), "]".repeat(40)),
        ] {
            assert!(parse(bad).is_err(), "should reject: {bad:?}");
        }
    }

    #[test]
    fn writer_is_ordered_and_escaped() {
        let line = Obj::new()
            .field_str("op", "status")
            .field_int("n", 3)
            .field_num("x", 1.5)
            .field_bool("ok", true)
            .field_str("s", "a\"b\\c\nd")
            .field_raw("arr", &array(&["1".into(), "2".into()]))
            .finish();
        assert_eq!(
            line,
            r#"{"op":"status","n":3,"x":1.5,"ok":true,"s":"a\"b\\c\nd","arr":[1,2]}"#
        );
        let back = parse(&line).unwrap();
        assert_eq!(back.get("s").and_then(Value::as_str), Some("a\"b\\c\nd"));
    }

    #[test]
    fn bits_round_trip_exactly() {
        for x in [0.0, -0.0, 1.0 / 3.0, f64::MIN_POSITIVE, 1234.5678e300] {
            let line = Obj::new().field_bits("b", x).finish();
            let v = parse(&line).unwrap();
            let back = bits_from_hex(v.get("b").and_then(Value::as_str).unwrap()).unwrap();
            assert_eq!(back.to_bits(), x.to_bits());
        }
        assert_eq!(bits_from_hex("zz"), None);
    }
}
