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
//! Readers are typed by their schema, and nothing infers a type from a
//! column's contents. A reader (the fleet reader in `top500::io`, the
//! scenario matrix in `easyc`, Table II in `top500::appendix`) maps the
//! header record once onto the columns it knows ([`Header`]), then takes
//! each record's fields as `&str`: text verbatim, numbers by one rule
//! ([`number`]). No reader builds a [`DataFrame`]. The writer ([`write()`],
//! [`write_header`], [`write_rows`]) renders a frame column by column into
//! one buffer.

use crate::column::Column;
use crate::error::{FrameError, Result};
use crate::frame::DataFrame;
use std::collections::HashSet;
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

/// A header record mapped once onto the `N` columns a typed reader knows,
/// so that each data record spreads into those columns with no name
/// lookup.
#[derive(Debug, Clone)]
pub struct Header<'c, const N: usize> {
    columns: &'c [&'c str; N],
    /// Per header field: the index in `columns` it fills, or `None` for a
    /// name the reader does not know.
    slots: Vec<Option<usize>>,
}

impl<'c, const N: usize> Header<'c, N> {
    /// Maps `header`'s names onto `columns`. Unknown names are ignored;
    /// any name that repeats, known or not, is
    /// [`FrameError::DuplicateColumn`].
    pub fn map(header: &Record<'_>, columns: &'c [&'c str; N]) -> Result<Header<'c, N>> {
        let mut seen = HashSet::new();
        let mut slots = Vec::with_capacity(header.spans.len());
        for name in header.fields() {
            if !seen.insert(name) {
                return Err(FrameError::DuplicateColumn(name.to_string()));
            }
            slots.push(columns.iter().position(|c| *c == name));
        }
        Ok(Header { columns, slots })
    }

    /// True when the header names `column`.
    pub fn has(&self, column: &str) -> bool {
        self.slots
            .iter()
            .flatten()
            .any(|&at| self.columns[at] == column)
    }

    /// `record`'s fields in the reader's column order, `""` for a column
    /// the header does not name. A record whose width differs from the
    /// header's is an error.
    pub fn cells<'a>(&self, record: &Record<'a>) -> Result<[&'a str; N]> {
        record.check_width(self.slots.len())?;
        let mut cells = [""; N];
        for (slot, field) in self.slots.iter().zip(record.fields()) {
            if let Some(at) = *slot {
                cells[at] = field;
            }
        }
        Ok(cells)
    }
}

/// A numeric cell, by the one rule every reader shares: the text read as
/// an `i64` first (and widened, so `-0` reads `+0.0`), else as an `f64`.
/// Anything that is not a finite number (an empty cell, `NaN`, `inf`, an
/// overflowing literal such as `1e999`, a stray token such as `unknown`)
/// is `None`.
pub fn number(cell: &str) -> Option<f64> {
    let value = match cell.parse::<i64>() {
        Ok(i) => i as f64,
        Err(_) => cell.parse::<f64>().ok()?,
    };
    value.is_finite().then_some(value)
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

    // -------------------------------------------------- header and number

    #[test]
    fn header_maps_known_names_once_and_spreads_records() {
        const COLUMNS: [&str; 3] = ["name", "mask", "pue"];
        let mut records = Tokenizer::new(&b"mask,note,name\nall,x,007\n\"a,b\",,\nshort\n"[..]);
        let first = records.next_record().unwrap().unwrap();
        let header = Header::map(&first, &COLUMNS).unwrap();
        assert!(header.has("name") && header.has("mask") && !header.has("pue"));
        assert!(!header.has("note"), "an unknown name is not a column");
        let record = records.next_record().unwrap().unwrap();
        assert_eq!(header.cells(&record).unwrap(), ["007", "all", ""]);
        let record = records.next_record().unwrap().unwrap();
        assert_eq!(header.cells(&record).unwrap(), ["", "a,b", ""]);
        let record = records.next_record().unwrap().unwrap();
        assert_eq!(
            header.cells(&record).unwrap_err(),
            csv_error(4, "expected 3 fields, got 1")
        );
        // Any repeated name is an error, one the reader ignores too.
        for text in ["name,mask,name\n", "name,x,x\n"] {
            let mut records = Tokenizer::new(text.as_bytes());
            let first = records.next_record().unwrap().unwrap();
            assert!(matches!(
                Header::map(&first, &COLUMNS),
                Err(FrameError::DuplicateColumn(_))
            ));
        }
    }

    #[test]
    fn number_reads_i64_first_then_f64_and_only_finite_values() {
        let bits = |cell: &str| number(cell).map(f64::to_bits);
        assert_eq!(bits("1"), Some(1.0f64.to_bits()));
        assert_eq!(bits("-0"), Some(0.0f64.to_bits()));
        assert_eq!(bits("-0.0"), Some((-0.0f64).to_bits()));
        assert_eq!(bits("1e2"), Some(100.0f64.to_bits()));
        // An integer past 2^53 rounds as `i64 as f64` does.
        assert_eq!(
            bits("9007199254740993"),
            Some((9_007_199_254_740_993i64 as f64).to_bits())
        );
        for cell in ["", "NaN", "inf", "-inf", "1e999", " 1", "1.5x", "True"] {
            assert_eq!(number(cell), None, "{cell:?}");
        }
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
