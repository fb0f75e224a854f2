//! Minimal CSV reader/writer (RFC 4180 quoting, empty field = null).
//!
//! Every CSV this workspace reads goes through one byte-level
//! [`Tokenizer`], and every CSV it writes through one escape rule
//! ([`escape_into`]). The dialect:
//!
//! - Records end at `\n`. One trailing `\r` is stripped from each raw line
//!   (inside a quoted field too), so CRLF files read like LF files.
//! - A record whose quote count is odd continues on the next raw line
//!   (the newline becomes part of the quoted field).
//! - With comments on ([`Tokenizer::strip_comments`]), a raw line whose
//!   `trim_start()` begins with `#` is dropped before quote accounting,
//!   inside a quoted field too, and does not count as a line in errors.
//! - Trailing blank records are dropped; an interior blank record is one
//!   empty field.
//! - Fields are split on `,`. A field that starts with `"` is quoted: `""`
//!   inside it is one quote, and text after the closing quote is appended
//!   (`"a"b` reads `ab`). A quote anywhere else is an error, and so is a
//!   quote left open at the end of input.
//! - Each record is checked as UTF-8 once; invalid UTF-8 is an error,
//!   never replaced.
//!
//! [`parse`] and [`ChunkedReader`] read a CSV into typed [`DataFrame`]s
//! (whole-file, or in bounded chunks for inputs too large to materialize);
//! typed readers such as `top500::io` take the tokenizer's fields as
//! `&str` and never build a frame. The writer ([`write()`], [`write_header`],
//! [`write_rows`]) renders a frame column by column into one buffer.

use crate::column::{Column, Value};
use crate::error::{FrameError, Result};
use crate::frame::DataFrame;
use std::fmt::{Display, Write as _};
use std::io::BufRead;
use std::ops::Range;

fn csv_error(line: usize, message: &str) -> FrameError {
    FrameError::Csv {
        line,
        message: message.to_string(),
    }
}

/// Where one field's text lives: a range of the record itself, or, for a
/// quoted field (whose `""` pairs are unescaped), a range of the
/// tokenizer's unescape buffer.
#[derive(Debug, Clone)]
enum Span {
    Raw(Range<usize>),
    Unescaped(Range<usize>),
}

/// The one field of a blank record.
const BLANK: &[Span] = &[Span::Raw(0..0)];

/// One record's fields, borrowed from the [`Tokenizer`] until its next
/// call.
#[derive(Debug, Clone, Copy)]
pub struct Record<'a> {
    /// 1-based line the record starts on (comment lines not counted).
    line: usize,
    text: &'a str,
    unescaped: &'a str,
    spans: &'a [Span],
}

impl<'a> Record<'a> {
    /// Checks the record has exactly `width` fields (the header's count).
    pub fn check_width(&self, width: usize) -> Result<()> {
        if self.spans.len() == width {
            return Ok(());
        }
        Err(FrameError::Csv {
            line: self.line,
            message: format!("expected {width} fields, got {}", self.spans.len()),
        })
    }

    /// The record's fields in order, unescaped.
    pub fn fields(&self) -> impl ExactSizeIterator<Item = &'a str> + 'a {
        let (text, unescaped) = (self.text, self.unescaped);
        self.spans.iter().map(move |span| match span {
            Span::Raw(range) => &text[range.clone()],
            Span::Unescaped(range) => &unescaped[range.clone()],
        })
    }
}

/// Byte-level CSV tokenizer over any [`BufRead`]: yields one [`Record`] at
/// a time in the module's dialect, reusing its buffers, so a record costs
/// no allocation once the buffers have grown to the longest one.
#[derive(Debug)]
pub struct Tokenizer<R> {
    input: R,
    strip_comments: bool,
    /// The current logical record: its raw lines joined by `\n`.
    raw: Vec<u8>,
    /// Unescaped text of the current record's quoted fields.
    unescaped: String,
    spans: Vec<Span>,
    /// Non-comment raw lines read so far.
    line_no: usize,
    /// Blank records held back until a later record shows they are
    /// interior (trailing ones are dropped at the end of input): how many,
    /// and the line of the first. Blank records are single raw lines, so
    /// held ones sit on consecutive lines.
    blanks: usize,
    blank_line: usize,
    /// Start line of the record waiting in `raw` behind held blanks.
    staged: Option<usize>,
}

impl<R: BufRead> Tokenizer<R> {
    /// Tokenizer over `input`, comments off.
    pub fn new(input: R) -> Tokenizer<R> {
        Tokenizer {
            input,
            strip_comments: false,
            raw: Vec::new(),
            unescaped: String::new(),
            spans: Vec::new(),
            line_no: 0,
            blanks: 0,
            blank_line: 0,
            staged: None,
        }
    }

    /// Drops `#` comment lines (see the module docs) before parsing. Line
    /// numbers in errors then count only non-comment lines.
    pub fn strip_comments(mut self) -> Tokenizer<R> {
        self.strip_comments = true;
        self
    }

    /// The next record: `Ok(None)` at the end of input, `Err` on an I/O
    /// error or a malformed record (callers stop at the first error).
    pub fn next_record(&mut self) -> Result<Option<Record<'_>>> {
        loop {
            if let Some(line) = self.staged {
                if self.blanks > 0 {
                    self.blanks -= 1;
                    self.blank_line += 1;
                    return Ok(Some(Record {
                        line: self.blank_line - 1,
                        text: "",
                        unescaped: "",
                        spans: BLANK,
                    }));
                }
                self.staged = None;
                return self.split(line).map(Some);
            }
            match self.read_logical()? {
                None => {
                    self.blanks = 0;
                    return Ok(None);
                }
                Some(line) if self.raw.is_empty() => {
                    if self.blanks == 0 {
                        self.blank_line = line;
                    }
                    self.blanks += 1;
                }
                Some(line) => self.staged = Some(line),
            }
        }
    }

    /// Reads the next logical record into `raw`: raw lines joined by `\n`
    /// until its quote count is even, or the input ends. Returns the line
    /// it starts on, `None` when no line is left.
    fn read_logical(&mut self) -> Result<Option<usize>> {
        self.raw.clear();
        let mut start = None;
        let mut open = false;
        loop {
            let line_at = self.raw.len();
            if start.is_some() {
                self.raw.push(b'\n');
            }
            let content_at = self.raw.len();
            let read = self
                .input
                .read_until(b'\n', &mut self.raw)
                .map_err(|e| FrameError::Io(e.to_string()))?;
            if read == 0 {
                self.raw.truncate(line_at);
                return Ok(start);
            }
            if self.raw.last() == Some(&b'\n') {
                self.raw.pop();
            }
            if self.raw.len() > content_at && self.raw.last() == Some(&b'\r') {
                self.raw.pop();
            }
            let content = &self.raw[content_at..];
            if self.strip_comments && is_comment(content) {
                self.raw.truncate(line_at);
                continue;
            }
            self.line_no += 1;
            start.get_or_insert(self.line_no);
            if content.iter().filter(|&&b| b == b'"').count() % 2 == 1 {
                open = !open;
            }
            if !open {
                return Ok(start);
            }
        }
    }

    /// Checks the record in `raw` as UTF-8 and splits it into fields.
    fn split(&mut self, line: usize) -> Result<Record<'_>> {
        let text = std::str::from_utf8(&self.raw).map_err(|_| csv_error(line, "invalid UTF-8"))?;
        self.spans.clear();
        self.unescaped.clear();
        split_fields(text, line, &mut self.spans, &mut self.unescaped)?;
        Ok(Record {
            line,
            text,
            unescaped: &self.unescaped,
            spans: &self.spans,
        })
    }
}

/// True when `line` is a comment: its `str::trim_start()` begins with `#`.
/// Bytes after the first non-whitespace character are not inspected, so a
/// comment is dropped before its encoding is checked.
fn is_comment(line: &[u8]) -> bool {
    // `char::is_whitespace` on ASCII: tab, LF, VT, FF, CR and space.
    let Some(at) = line
        .iter()
        .position(|b| !matches!(b, b'\t' | b'\n' | 0x0B | 0x0C | b'\r' | b' '))
    else {
        return false;
    };
    let rest = &line[at..];
    match rest.first() {
        Some(b'#') => true,
        Some(b) if b.is_ascii() => false,
        // Unicode whitespace (NEL, NBSP, …) may still come before a `#`.
        _ => {
            let valid = match std::str::from_utf8(rest) {
                Ok(text) => text,
                Err(e) => std::str::from_utf8(&rest[..e.valid_up_to()]).unwrap_or_default(),
            };
            valid.trim_start().starts_with('#')
        }
    }
}

/// Splits one logical record into field spans, unescaping quoted fields
/// into `unescaped`.
fn split_fields(
    text: &str,
    line: usize,
    spans: &mut Vec<Span>,
    unescaped: &mut String,
) -> Result<()> {
    let bytes = text.as_bytes();
    let plain_end = |mut at: usize| {
        while at < bytes.len() && bytes[at] != b',' && bytes[at] != b'"' {
            at += 1;
        }
        at
    };
    let mut at = 0;
    loop {
        let start = at;
        at = plain_end(at);
        if bytes.get(at) != Some(&b'"') {
            spans.push(Span::Raw(start..at));
        } else if at > start {
            return Err(csv_error(line, "quote inside unquoted field"));
        } else {
            let from = unescaped.len();
            at += 1;
            loop {
                let Some(quote) = bytes[at..].iter().position(|&b| b == b'"') else {
                    return Err(csv_error(line, "unterminated quote"));
                };
                let quote = at + quote;
                unescaped.push_str(&text[at..quote]);
                if bytes.get(quote + 1) == Some(&b'"') {
                    unescaped.push('"');
                    at = quote + 2;
                } else {
                    at = quote + 1;
                    break;
                }
            }
            // Text after the closing quote joins the field; the closing
            // quote is never followed by another, so any later quote is
            // inside a non-empty field.
            let tail = at;
            at = plain_end(at);
            if bytes.get(at) == Some(&b'"') {
                return Err(csv_error(line, "quote inside unquoted field"));
            }
            unescaped.push_str(&text[tail..at]);
            spans.push(Span::Unescaped(from..unescaped.len()));
        }
        if at >= bytes.len() {
            return Ok(());
        }
        at += 1;
    }
}

/// Infers a cell value: empty → null, else i64, else f64, else bool, else str.
fn infer_value(field: &str) -> Value {
    if field.is_empty() {
        return Value::Null;
    }
    if let Ok(i) = field.parse::<i64>() {
        return Value::I64(i);
    }
    if let Ok(f) = field.parse::<f64>() {
        return Value::F64(f);
    }
    match field {
        "true" | "TRUE" | "True" => Value::Bool(true),
        "false" | "FALSE" | "False" => Value::Bool(false),
        _ => Value::Str(field.to_string()),
    }
}

/// Column type lattice used during inference: Null < I64 < F64, anything
/// else degrades to Str; Bool only merges with Bool/Null.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Unknown,
    I64,
    F64,
    Bool,
    Str,
}

impl Kind {
    fn merge(self, v: &Value) -> Kind {
        let vk = match v {
            Value::Null => return self,
            Value::I64(_) => Kind::I64,
            Value::F64(_) => Kind::F64,
            Value::Bool(_) => Kind::Bool,
            Value::Str(_) => Kind::Str,
        };
        match (self, vk) {
            (Kind::Unknown, k) => k,
            (a, b) if a == b => a,
            (Kind::I64, Kind::F64) | (Kind::F64, Kind::I64) => Kind::F64,
            _ => Kind::Str,
        }
    }
}

/// Builds a typed frame from header names and per-column inferred cells.
fn frame_from_cells(names: &[String], cells: Vec<Vec<Value>>) -> Result<DataFrame> {
    let mut df = DataFrame::new();
    for (name, values) in names.iter().zip(cells) {
        let kind = values.iter().fold(Kind::Unknown, Kind::merge);
        let column = match kind {
            Kind::I64 => Column::I64(
                values
                    .iter()
                    .map(|v| match v {
                        Value::I64(i) => Some(*i),
                        _ => None,
                    })
                    .collect(),
            ),
            Kind::F64 => Column::F64(
                values
                    .iter()
                    .map(|v| match v {
                        Value::F64(f) => Some(*f),
                        Value::I64(i) => Some(*i as f64),
                        _ => None,
                    })
                    .collect(),
            ),
            Kind::Bool => Column::Bool(
                values
                    .iter()
                    .map(|v| match v {
                        Value::Bool(b) => Some(*b),
                        _ => None,
                    })
                    .collect(),
            ),
            // Unknown (all nulls) defaults to string.
            Kind::Str | Kind::Unknown => Column::Str(
                values
                    .into_iter()
                    .map(|v| match v {
                        Value::Str(s) => Some(s),
                        Value::I64(i) => Some(i.to_string()),
                        Value::F64(f) => Some(f.to_string()),
                        Value::Bool(b) => Some(b.to_string()),
                        Value::Null => None,
                    })
                    .collect(),
            ),
        };
        df.add_column(name.clone(), column)?;
    }
    Ok(df)
}

/// Parses CSV text (first record = header) into a typed [`DataFrame`].
///
/// Types are inferred per column across all rows; mixed int/float widens to
/// float, any other mixture falls back to string. Empty fields become nulls.
/// This is [`ChunkedReader`] drained as one chunk; empty input gives a
/// frame with no columns.
pub fn parse(text: &str) -> Result<DataFrame> {
    ChunkedReader::new(text.as_bytes(), usize::MAX)
        .next_chunk()
        .unwrap_or_else(|| Ok(DataFrame::new()))
}

/// Streaming CSV reader that yields [`DataFrame`] chunks of at most
/// `rows_per_chunk` rows, so arbitrarily large inputs parse in bounded
/// memory (at most one chunk of cells plus one record is resident at any
/// time).
///
/// It drains the module's [`Tokenizer`], so the dialect is exactly
/// [`parse`]'s, records re-merged across raw lines and chunk boundaries
/// included. The one divergence is column *type inference*, which is
/// necessarily per chunk rather than whole-file: a column whose kinds mix
/// *across* chunks comes back with different chunk-local types than
/// [`parse`] would assign globally (one non-numeric cell degrades a
/// whole-file numeric column to string, while chunks without it still
/// parse as numbers). Columns that are kind-consistent, or mix only within
/// one chunk, parse identically. Typed readers that know their schema
/// (`top500::io`) read the tokenizer's fields directly and infer nothing.
///
/// A header-only input yields exactly one zero-row chunk (so consumers can
/// still validate the schema); an empty input yields no chunks. After the
/// first `Err`, the reader is fused and yields `None` forever.
#[derive(Debug)]
pub struct ChunkedReader<R> {
    records: Tokenizer<R>,
    rows_per_chunk: usize,
    /// Header names, from the first record.
    names: Option<Vec<String>>,
    emitted_any: bool,
    fused: bool,
}

impl<R: BufRead> ChunkedReader<R> {
    /// Reader over `input` yielding chunks of at most `rows_per_chunk`
    /// data rows (the header does not count; a budget of 0 is treated
    /// as 1).
    pub fn new(input: R, rows_per_chunk: usize) -> ChunkedReader<R> {
        ChunkedReader {
            records: Tokenizer::new(input),
            rows_per_chunk: rows_per_chunk.max(1),
            names: None,
            emitted_any: false,
            fused: false,
        }
    }

    /// Reads the next chunk: `None` at end of input, `Some(Err)` on the
    /// first I/O or CSV error (after which the reader is fused).
    pub fn next_chunk(&mut self) -> Option<Result<DataFrame>> {
        if self.fused {
            return None;
        }
        let result = self.advance();
        if matches!(result, Some(Err(_)) | None) {
            self.fused = true;
        }
        result
    }

    fn advance(&mut self) -> Option<Result<DataFrame>> {
        if self.names.is_none() {
            self.names = match self.records.next_record() {
                Ok(Some(header)) => Some(header.fields().map(str::to_string).collect()),
                Ok(None) => return None,
                Err(e) => return Some(Err(e)),
            };
        }
        let names = self.names.as_deref()?;
        let mut cells: Vec<Vec<Value>> = vec![Vec::new(); names.len()];
        let mut rows = 0;
        while rows < self.rows_per_chunk {
            let record = match self.records.next_record() {
                Ok(Some(record)) => record,
                Ok(None) => break,
                Err(e) => return Some(Err(e)),
            };
            if let Err(e) = record.check_width(names.len()) {
                return Some(Err(e));
            }
            for (column, field) in cells.iter_mut().zip(record.fields()) {
                column.push(infer_value(field));
            }
            rows += 1;
        }
        if rows == 0 && self.emitted_any {
            return None;
        }
        self.emitted_any = true;
        Some(frame_from_cells(names, cells))
    }
}

impl<R: BufRead> Iterator for ChunkedReader<R> {
    type Item = Result<DataFrame>;

    fn next(&mut self) -> Option<Result<DataFrame>> {
        self.next_chunk()
    }
}

/// Appends `field` to `out`, quoted (with `"` doubled) when it holds a
/// `,`, a `"` or a newline — the one escape rule of every CSV this
/// workspace writes.
pub fn escape_into(out: &mut String, field: &str) {
    if !field.bytes().any(|b| matches!(b, b',' | b'"' | b'\n')) {
        out.push_str(field);
        return;
    }
    out.push('"');
    for piece in field.split_inclusive('"') {
        out.push_str(piece);
        if piece.ends_with('"') {
            out.push('"');
        }
    }
    out.push('"');
}

/// Serialises a frame to CSV text (header + rows, `\n` separators, empty
/// field for nulls). Equivalent to [`write_header`] followed by
/// [`write_rows`] — streaming writers use the two halves directly to append
/// chunk-at-a-time rows under a single header.
pub fn write(df: &DataFrame) -> String {
    let mut out = String::new();
    push_header(&mut out, df);
    push_rows(&mut out, df);
    out
}

/// Serialises just the header line (column names, `\n`-terminated) of a
/// frame. Byte-identical to the first line [`write()`] produces.
pub fn write_header(df: &DataFrame) -> String {
    let mut out = String::new();
    push_header(&mut out, df);
    out
}

/// Serialises just the data rows (no header) of a frame. Byte-identical to
/// what [`write()`] produces after its header line, so appending
/// `write_rows` output of successive chunks under one [`write_header`]
/// reproduces `write` over the concatenated frame exactly.
pub fn write_rows(df: &DataFrame) -> String {
    let mut out = String::new();
    push_rows(&mut out, df);
    out
}

fn push_header(out: &mut String, df: &DataFrame) {
    for (i, name) in df.names().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        escape_into(out, name);
    }
    out.push('\n');
}

/// Renders every row, cell by cell: numbers and booleans through their
/// `Display`, text through [`escape_into`], nulls as empty fields.
fn push_rows(out: &mut String, df: &DataFrame) {
    let columns = df.columns();
    for row in 0..df.len() {
        for (i, column) in columns.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            match column {
                Column::F64(v) => push_display(out, v.get(row)),
                Column::I64(v) => push_display(out, v.get(row)),
                Column::Bool(v) => push_display(out, v.get(row)),
                Column::Str(v) => {
                    if let Some(Some(text)) = v.get(row) {
                        escape_into(out, text);
                    }
                }
            }
        }
        out.push('\n');
    }
}

/// Appends a cell's `Display`, written straight into `out` (nothing for a
/// null).
fn push_display<T: Display>(out: &mut String, cell: Option<&Option<T>>) {
    if let Some(Some(value)) = cell {
        // Writing into a `String` cannot fail.
        let _ = write!(out, "{value}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_basic_types() {
        let df = parse("rank,name,power\n1,Frontier,22.7\n2,Aurora,\n").unwrap();
        assert_eq!(df.len(), 2);
        assert_eq!(df.column("rank").unwrap().type_name(), "i64");
        assert_eq!(df.column("power").unwrap().type_name(), "f64");
        assert_eq!(df.value("power", 1).unwrap(), Value::Null);
    }

    #[test]
    fn mixed_int_float_widens() {
        let df = parse("x\n1\n2.5\n").unwrap();
        assert_eq!(df.column("x").unwrap().type_name(), "f64");
        assert_eq!(df.numeric("x").unwrap(), vec![Some(1.0), Some(2.5)]);
    }

    #[test]
    fn mixed_number_string_degrades_to_str() {
        let df = parse("x\n1\nabc\n").unwrap();
        assert_eq!(df.column("x").unwrap().type_name(), "str");
        assert_eq!(df.value("x", 0).unwrap(), Value::Str("1".into()));
    }

    #[test]
    fn quoted_fields_with_commas() {
        let df = parse("name,v\n\"MareNostrum 5, ACC\",3\n").unwrap();
        assert_eq!(
            df.value("name", 0).unwrap(),
            Value::Str("MareNostrum 5, ACC".into())
        );
    }

    #[test]
    fn escaped_quotes() {
        let df = parse("name\n\"say \"\"hi\"\"\"\n").unwrap();
        assert_eq!(
            df.value("name", 0).unwrap(),
            Value::Str("say \"hi\"".into())
        );
    }

    #[test]
    fn embedded_newline_in_quotes() {
        let df = parse("name,v\n\"two\nlines\",1\n").unwrap();
        assert_eq!(df.len(), 1);
        assert_eq!(
            df.value("name", 0).unwrap(),
            Value::Str("two\nlines".into())
        );
    }

    #[test]
    fn crlf_handled() {
        let df = parse("a,b\r\n1,2\r\n").unwrap();
        assert_eq!(df.len(), 1);
        assert_eq!(df.value("b", 0).unwrap(), Value::I64(2));
    }

    #[test]
    fn field_count_mismatch_is_error() {
        let err = parse("a,b\n1\n").unwrap_err();
        assert!(matches!(err, FrameError::Csv { line: 2, .. }));
    }

    #[test]
    fn unterminated_quote_is_error() {
        assert!(parse("a\n\"oops\n").is_err());
    }

    #[test]
    fn roundtrip_preserves_values() {
        let text = "rank,name,power\n1,Frontier,22.7\n2,\"X, Y\",\n";
        let df = parse(text).unwrap();
        let df2 = parse(&write(&df)).unwrap();
        assert_eq!(df, df2);
    }

    #[test]
    fn empty_input_is_empty_frame() {
        let df = parse("").unwrap();
        assert_eq!(df.width(), 0);
        assert_eq!(df.len(), 0);
    }

    #[test]
    fn bool_inference() {
        let df = parse("flag\ntrue\nfalse\n\n").unwrap();
        assert_eq!(df.column("flag").unwrap().type_name(), "bool");
    }

    // ----------------------------------------------------------- tokenizer

    /// Every record's (line, fields) until the end of input or the first
    /// error.
    fn tokens(text: &[u8], comments: bool) -> (Vec<(usize, Vec<String>)>, Option<FrameError>) {
        let mut tokenizer = Tokenizer::new(text);
        if comments {
            tokenizer = tokenizer.strip_comments();
        }
        let mut records = Vec::new();
        loop {
            match tokenizer.next_record() {
                Ok(Some(r)) => records.push((r.line, r.fields().map(str::to_string).collect())),
                Ok(None) => return (records, None),
                Err(e) => return (records, Some(e)),
            }
        }
    }

    fn owned(fields: &[&str]) -> Vec<String> {
        fields.iter().map(|f| f.to_string()).collect()
    }

    #[test]
    fn tokenizer_quoting_rules() {
        let (records, err) = tokens(b"a,\"b,c\",\"d\"\"e\"\n\"\"x,,\"q\"tail\n", false);
        assert_eq!(err, None);
        assert_eq!(
            records,
            vec![
                (1, owned(&["a", "b,c", "d\"e"])),
                (2, owned(&["x", "", "qtail"])),
            ]
        );
        for (bad, message) in [
            (&b"ab\"c\n"[..], "quote inside unquoted field"),
            (b"\"a\"b\"\n", "quote inside unquoted field"),
            (b"\"open,\n", "unterminated quote"),
        ] {
            let (records, err) = tokens(bad, false);
            assert!(records.is_empty());
            assert_eq!(err, Some(csv_error(1, message)), "{bad:?}");
        }
    }

    #[test]
    fn tokenizer_holds_blanks_until_they_prove_interior() {
        let (records, err) = tokens(b"x\n\n\n1\n\n\n", false);
        assert_eq!(err, None);
        let lines: Vec<usize> = records.iter().map(|r| r.0).collect();
        assert_eq!(lines, vec![1, 2, 3, 4]);
        assert_eq!(records[1].1, owned(&[""]));
    }

    #[test]
    fn tokenizer_strips_one_cr_per_raw_line_and_drops_comments_inside_quotes() {
        let (records, _) = tokens(b"a\r\r\n\"b\r\nc\"\r\n", false);
        assert_eq!(records, vec![(1, owned(&["a\r"])), (2, owned(&["b\nc"]))]);
        // The comment line inside the quoted field is dropped and not
        // counted, so `tail` is on line 3.
        let (records, err) = tokens(b"# lead\n\"x\n  # inner\ny\"\ntail\n", true);
        assert_eq!(err, None);
        assert_eq!(records, vec![(1, owned(&["x\ny"])), (3, owned(&["tail"]))]);
        // Unicode whitespace before `#` still makes a comment.
        let (records, _) = tokens("\u{a0}# nbsp\nv\n".as_bytes(), true);
        assert_eq!(records, vec![(1, owned(&["v"]))]);
    }

    #[test]
    fn tokenizer_strip_comments_matches_prefiltered_text() {
        // Comment lines anywhere read as if they were never in the file.
        let raw = "# template header\nrank,name\n# interior note\n1,alpha\n2,beta\n";
        let filtered: String = raw
            .lines()
            .filter(|l| !l.trim_start().starts_with('#'))
            .map(|l| format!("{l}\n"))
            .collect();
        let stripped = tokens(raw.as_bytes(), true);
        assert_eq!(stripped, tokens(filtered.as_bytes(), false));
        assert_eq!(stripped.0[1], (2, owned(&["1", "alpha"])));
    }

    #[test]
    fn tokenizer_rejects_invalid_utf8_at_its_record() {
        let (records, err) = tokens(b"ok\nbad\xff,1\n", false);
        assert_eq!(records, vec![(1, owned(&["ok"]))]);
        assert_eq!(err, Some(csv_error(2, "invalid UTF-8")));
        // A comment line is dropped before its bytes are checked.
        let (records, err) = tokens(b"#\xff\nok\n", true);
        assert_eq!((records, err), (vec![(1, owned(&["ok"]))], None));
    }

    // ----------------------------------------------------- chunked reader

    /// Reads `text` in chunks of `rows` and returns every chunk.
    fn chunks_of(text: &str, rows: usize) -> Vec<DataFrame> {
        ChunkedReader::new(text.as_bytes(), rows)
            .map(|c| c.expect("chunk parses"))
            .collect()
    }

    /// Concatenated row count across chunks.
    fn total_rows(chunks: &[DataFrame]) -> usize {
        chunks.iter().map(DataFrame::len).sum()
    }

    #[test]
    fn chunked_reader_matches_parse_row_for_row() {
        let text = "rank,name,power\n1,Frontier,22.7\n2,Aurora,\n3,Eagle,12.5\n4,Fugaku,29.9\n";
        let whole = parse(text).unwrap();
        for rows in [1usize, 2, 3, 10, usize::MAX] {
            let chunks = chunks_of(text, rows);
            assert_eq!(total_rows(&chunks), whole.len(), "rows {rows}");
            let mut row = 0;
            for chunk in &chunks {
                assert!(chunk.len() <= rows, "chunk over budget at rows {rows}");
                for local in 0..chunk.len() {
                    for name in whole.names() {
                        assert_eq!(
                            chunk.value(name, local).unwrap(),
                            whole.value(name, row).unwrap(),
                            "row {row} column {name} at rows {rows}"
                        );
                    }
                    row += 1;
                }
            }
        }
    }

    #[test]
    fn chunked_reader_quoted_newline_spanning_chunk_boundary() {
        // The quoted field's embedded newline lands exactly on a 1-row
        // chunk boundary; the record must be re-merged, not split.
        let text = "name,v\nplain,1\n\"two\nlines\",2\nlast,3\n";
        let chunks = chunks_of(text, 1);
        assert_eq!(chunks.len(), 3);
        assert_eq!(
            chunks[1].value("name", 0).unwrap(),
            Value::Str("two\nlines".into())
        );
        assert_eq!(chunks[1].value("v", 0).unwrap(), Value::I64(2));
        assert_eq!(
            chunks[2].value("name", 0).unwrap(),
            Value::Str("last".into())
        );
    }

    #[test]
    fn chunked_reader_header_only_yields_one_empty_chunk() {
        let chunks = chunks_of("a,b\n", 4);
        assert_eq!(chunks.len(), 1);
        assert_eq!(chunks[0].len(), 0);
        assert_eq!(chunks[0].names(), &["a", "b"]);
    }

    #[test]
    fn chunked_reader_empty_input_yields_nothing() {
        assert!(chunks_of("", 4).is_empty());
    }

    #[test]
    fn chunked_reader_drops_trailing_blank_lines_only() {
        // Interior blank = one empty field (kept); trailing blanks dropped —
        // identical to `parse`.
        let text = "x\n1\n\n2\n\n\n";
        let whole = parse(text).unwrap();
        let chunks = chunks_of(text, 2);
        assert_eq!(total_rows(&chunks), whole.len());
        assert_eq!(whole.len(), 3);
        assert_eq!(chunks[0].value("x", 1).unwrap(), Value::Null);
    }

    #[test]
    fn chunked_reader_crlf_and_no_final_newline() {
        let chunks = chunks_of("a,b\r\n1,2\r\n3,4", 10);
        assert_eq!(chunks.len(), 1);
        assert_eq!(chunks[0].len(), 2);
        assert_eq!(chunks[0].value("b", 1).unwrap(), Value::I64(4));
    }

    #[test]
    fn chunked_reader_errors_fuse() {
        let mut reader = ChunkedReader::new("a,b\n1,2\n1\n9,9\n".as_bytes(), 1);
        assert!(reader.next_chunk().unwrap().is_ok());
        let err = reader.next_chunk().unwrap().unwrap_err();
        assert!(matches!(err, FrameError::Csv { line: 3, .. }), "{err:?}");
        assert!(reader.next_chunk().is_none(), "reader must fuse after Err");
    }

    #[test]
    fn chunked_reader_unterminated_quote_at_eof_is_error() {
        let mut reader = ChunkedReader::new("a\n\"oops\n".as_bytes(), 8);
        assert!(reader.next_chunk().unwrap().is_err());
        assert!(reader.next_chunk().is_none());
    }

    #[test]
    fn header_plus_chunked_rows_byte_identical_to_whole_write() {
        // The streaming-artifact contract: write_header + per-chunk
        // write_rows must concatenate to exactly what `write` produces
        // over the whole frame, quoting included.
        let names = ["plain", "with, comma", "with \"quote\"", "multi\nline"];
        let xs = [Some(1.5), None, Some(-3.0), Some(0.25)];
        let frame = |names: &[&str], xs: &[Option<f64>]| {
            DataFrame::new()
                .with_column("name", Column::from_str_iter(names.iter().copied()))
                .unwrap()
                .with_column("x", Column::F64(xs.to_vec()))
                .unwrap()
        };
        let df = frame(&names, &xs);
        let whole = write(&df);
        let mut pieced = write_header(&df);
        for row in 0..names.len() {
            pieced.push_str(&write_rows(&frame(&names[row..=row], &xs[row..=row])));
        }
        assert_eq!(pieced, whole);
    }

    #[test]
    fn typed_writer_renders_every_kind_like_value_display() {
        let df = DataFrame::new()
            .with_column("s", Column::Str(vec![Some("a\"b".into()), None]))
            .unwrap()
            .with_column("i", Column::I64(vec![Some(-7), None]))
            .unwrap()
            .with_column("f", Column::F64(vec![Some(-0.0), Some(1e21)]))
            .unwrap()
            .with_column("b", Column::Bool(vec![None, Some(true)]))
            .unwrap();
        let mut expected = String::from("s,i,f,b\n");
        for row in 0..df.len() {
            let cells: Vec<String> = df
                .names()
                .iter()
                .map(|name| {
                    let mut cell = String::new();
                    escape_into(&mut cell, &df.value(name, row).unwrap().to_string());
                    cell
                })
                .collect();
            expected.push_str(&cells.join(","));
            expected.push('\n');
        }
        assert_eq!(write(&df), expected);
        assert_eq!(
            write(&df),
            "s,i,f,b\n\"a\"\"b\",-7,-0,\n,,1000000000000000000000,true\n"
        );
    }
}
