//! A minimal, deterministic JSON layer — std only, no macros, no traits.
//!
//! The serving protocol needs exactly two things from JSON: parse one
//! request line into a lookup-able value, and write one response line with
//! a **stable field order** so warm and cold answers to the same query are
//! byte-identical (pinned by `tests/serve.rs`). [`Value`] keeps object
//! fields in document order (a `Vec`, not a map), and [`Obj`] writes
//! fields strictly in call order. Floats are written by
//! `frame::csv::push_f64`, the workspace's one writer of numbers: the
//! bytes of Rust's shortest round-trip `Display`, a pure function of the
//! bits. Exact carbon bits additionally travel as 16-digit hex strings
//! (`Obj::field_bits`) so clients never depend on decimal round-trips. A
//! parsed number keeps its literal text ([`Number`]), inline when short.

use std::fmt::Write as _;

/// A parsed JSON value. Objects preserve document field order and are
/// queried by linear scan — request lines are small.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number, as its literal text (checked finite when parsed),
    /// so an integer field reads it exactly, past 2^53 too.
    Num(Number),
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

    /// The literal text of a number, if this is one (`8`, `-3`, `1e3`).
    pub fn as_number(&self) -> Option<&str> {
        match self {
            Value::Num(number) => Some(number.as_str()),
            _ => None,
        }
    }

    /// The numeric payload as the nearest `f64`, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        self.as_number()?.parse().ok()
    }

    /// The numeric payload as a `usize`, read exactly from an integer
    /// literal (`1e3`, `8.0` and negatives are not one).
    pub fn as_usize(&self) -> Option<usize> {
        self.as_number()?.parse().ok()
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

/// A JSON number's literal text. A literal of at most 22 bytes (every
/// `u64`, `u64::MAX` included) is held in the value itself and a longer
/// one in a box, so a request line of many short numbers costs no
/// allocation apiece. [`Value::as_number`] reads the text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Number(Literal);

/// The longest number literal held inline.
const INLINE_NUMBER: usize = 22;

#[derive(Debug, Clone, PartialEq, Eq)]
enum Literal {
    /// The literal's length, then its bytes, zero-padded.
    Inline(u8, [u8; INLINE_NUMBER]),
    Boxed(Box<str>),
}

impl Number {
    fn new(text: &str) -> Number {
        let mut bytes = [0; INLINE_NUMBER];
        match bytes.get_mut(..text.len()) {
            Some(head) => {
                head.copy_from_slice(text.as_bytes());
                Number(Literal::Inline(text.len() as u8, bytes))
            }
            None => Number(Literal::Boxed(text.into())),
        }
    }

    /// The literal's text.
    fn as_str(&self) -> &str {
        match &self.0 {
            Literal::Inline(len, bytes) => {
                // audit: allow(panic-surface) — `Number::new` copied these bytes whole from a `&str`
                std::str::from_utf8(&bytes[..usize::from(*len)]).expect("a number literal is UTF-8")
            }
            Literal::Boxed(text) => text,
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
        let code = hex_digits(&self.bytes[self.at..end])
            .ok_or_else(|| self.err("invalid unicode escape"))?;
        self.at = end;
        Ok(code as u32)
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
        match text.parse::<f64>() {
            Ok(n) if n.is_finite() => Ok(Value::Num(Number::new(text))),
            _ => Err(self.err("invalid number")),
        }
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

    /// Adds a float field (shortest round-trip decimal, by
    /// `frame::csv::push_f64`; non-finite values become `null`, which the
    /// protocol never produces for results).
    pub fn field_num(mut self, key: &str, value: f64) -> Obj {
        self.key(key);
        if value.is_finite() {
            frame::csv::push_f64(&mut self.buf, value);
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
        .then(|| hex_digits(hex.as_bytes()))
        .flatten()
        .map(f64::from_bits)
}

/// The value of `digits`, all of them ASCII hex digits (no sign, unlike
/// `u64::from_str_radix`), or `None`. At most 16 digits.
fn hex_digits(digits: &[u8]) -> Option<u64> {
    digits.iter().try_fold(0u64, |value, &digit| {
        let nibble = (digit as char).to_digit(16)?;
        Some(value << 4 | u64::from(nibble))
    })
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
    fn integer_fields_are_read_exactly_from_their_literal() {
        let v = parse(r#"{"a":9007199254740993,"b":18446744073709551615,"c":8.0,"d":1e3,"e":-3}"#)
            .unwrap();
        let field = |key| v.get(key).unwrap();
        assert_eq!(field("a").as_usize(), Some(9_007_199_254_740_993));
        assert_eq!(field("b").as_number(), Some("18446744073709551615"));
        for key in ["c", "d", "e"] {
            assert_eq!(field(key).as_usize(), None, "{key}");
        }
        assert_eq!(field("d").as_f64(), Some(1000.0));
    }

    #[test]
    fn numbers_stay_inline_up_to_22_bytes_and_read_the_same_past_them() {
        assert_eq!(std::mem::size_of::<Value>(), 32);
        let long_float = format!("1.{}e-5", "7".repeat(300));
        let long_integer = "1".repeat(30);
        for text in [
            u64::MAX.to_string(),
            "-1234567890.123456e-10".to_string(),
            long_float.clone(),
            long_integer.clone(),
        ] {
            let number = Number::new(&text);
            let inline = matches!(number.0, Literal::Inline(..));
            assert_eq!(inline, text.len() <= INLINE_NUMBER, "{text}");
            assert_eq!(number.as_str(), text);
        }
        let v = parse(&format!(r#"{{"f":{long_float},"i":{long_integer}}}"#)).unwrap();
        let field = |key| v.get(key).unwrap();
        assert_eq!(field("f").as_f64(), long_float.parse().ok());
        assert_eq!(field("i").as_f64(), long_integer.parse().ok());
        assert_eq!(field("i").as_number(), Some(long_integer.as_str()));
        assert_eq!(field("i").as_usize(), None);
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
            r#"{"op":"st\u+061tus"}"#,
            r#""\u-061""#,
            r#""\u 061""#,
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
        assert_eq!(bits_from_hex("+00000000000000a"), None);
        assert_eq!(bits_from_hex("-00000000000000a"), None);
        assert_eq!(
            bits_from_hex("000000000000000A").map(f64::to_bits),
            Some(10)
        );
    }
}
