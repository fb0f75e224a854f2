//! Minimal CSV reader/writer (RFC 4180 quoting, empty field = null).
//!
//! The Top 500 appendix dataset and every figure artifact round-trip through
//! this module, so it is tested for quoting, embedded separators, CRLF and
//! type inference. For inputs too large to materialize, [`ChunkedReader`]
//! streams the same dialect as bounded [`DataFrame`] chunks.

use crate::column::{Column, Value};
use crate::error::{FrameError, Result};
use crate::frame::DataFrame;
use std::io::BufRead;

/// Splits one logical CSV record that has already been isolated (no embedded
/// newlines — those are handled by [`parse`]).
fn split_record(line: &str, line_no: usize) -> Result<Vec<String>> {
    let mut fields = Vec::new();
    let mut field = String::new();
    let mut chars = line.chars().peekable();
    let mut in_quotes = false;
    while let Some(c) = chars.next() {
        if in_quotes {
            match c {
                '"' => {
                    if chars.peek() == Some(&'"') {
                        chars.next();
                        field.push('"');
                    } else {
                        in_quotes = false;
                    }
                }
                other => field.push(other),
            }
        } else {
            match c {
                ',' => fields.push(std::mem::take(&mut field)),
                '"' => {
                    if field.is_empty() {
                        in_quotes = true;
                    } else {
                        return Err(FrameError::Csv {
                            line: line_no,
                            message: "quote inside unquoted field".into(),
                        });
                    }
                }
                other => field.push(other),
            }
        }
    }
    if in_quotes {
        return Err(FrameError::Csv {
            line: line_no,
            message: "unterminated quote".into(),
        });
    }
    fields.push(field);
    Ok(fields)
}

/// Joins raw text lines into logical records, re-merging lines that were
/// split inside a quoted field.
fn logical_records(text: &str) -> Vec<(usize, String)> {
    let mut records = Vec::new();
    let mut pending = String::new();
    let mut pending_start = 0usize;
    for (i, raw) in text.lines().enumerate() {
        let line = raw.strip_suffix('\r').unwrap_or(raw);
        if pending.is_empty() {
            pending_start = i + 1;
            pending.push_str(line);
        } else {
            pending.push('\n');
            pending.push_str(line);
        }
        // A record is complete when it contains an even number of quotes.
        if pending.matches('"').count().is_multiple_of(2) {
            records.push((pending_start, std::mem::take(&mut pending)));
        }
    }
    if !pending.is_empty() {
        records.push((pending_start, pending));
    }
    records
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

/// Builds a typed frame from header names and isolated logical records —
/// the shared back half of [`parse`] and [`ChunkedReader`], so whole-file
/// and streamed chunks go through one code path.
fn frame_from_records(names: &[String], records: &[(usize, String)]) -> Result<DataFrame> {
    let mut cells: Vec<Vec<Value>> = vec![Vec::new(); names.len()];
    for (line_no, record) in records {
        let fields = split_record(record, *line_no)?;
        if fields.len() != names.len() {
            return Err(FrameError::Csv {
                line: *line_no,
                message: format!("expected {} fields, got {}", names.len(), fields.len()),
            });
        }
        for (col, field) in cells.iter_mut().zip(&fields) {
            col.push(infer_value(field));
        }
    }
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
                    .iter()
                    .map(|v| match v {
                        Value::Str(s) => Some(s.clone()),
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
pub fn parse(text: &str) -> Result<DataFrame> {
    let mut records = logical_records(text);
    // Trailing blank lines are newline artifacts, not records; interior
    // blank lines are one empty (null) field — meaningful for one-column
    // data, a field-count error otherwise.
    while records.last().map(|(_, r)| r.is_empty()).unwrap_or(false) {
        records.pop();
    }
    let mut iter = records.into_iter();
    let (header_line, header) = match iter.next() {
        Some(h) => h,
        None => return Ok(DataFrame::new()),
    };
    let names = split_record(&header, header_line)?;
    let rest: Vec<(usize, String)> = iter.collect();
    frame_from_records(&names, &rest)
}

/// Streaming CSV reader that yields [`DataFrame`] chunks of at most
/// `rows_per_chunk` rows, so arbitrarily large inputs parse in bounded
/// memory (at most one chunk of records plus one partial logical record is
/// resident at any time).
///
/// The dialect is identical to [`parse`]: RFC 4180 quoting, CRLF, embedded
/// newlines (records are re-merged across raw lines until the quote count
/// is even — including across chunk boundaries), trailing blank lines
/// dropped, interior blank lines kept. The one divergence is column *type
/// inference*, which is necessarily per chunk rather than whole-file: a
/// column whose kinds mix *across* chunks comes back with different
/// chunk-local types than [`parse`] would assign globally. Concretely, one
/// non-numeric cell degrades a whole-file numeric column to string
/// (every cell then reads as a string), while chunks without the
/// offending cell still parse as numbers — consumers that must match
/// whole-file semantics on such mixed columns need to parse whole-file.
/// Columns that are kind-consistent (or only mix within one chunk) parse
/// identically.
///
/// A header-only input yields exactly one zero-row chunk (so consumers can
/// still validate the schema); an empty input yields no chunks. After the
/// first `Err`, the reader is fused and yields `None` forever.
#[derive(Debug)]
pub struct ChunkedReader<R> {
    input: R,
    rows_per_chunk: usize,
    /// Drop lines whose trimmed start is `#` (the Top 500 template's
    /// comment convention) before any quote accounting, exactly like the
    /// pre-filter the whole-file importer applies.
    strip_comments: bool,
    /// Header names, parsed from the first logical record.
    names: Option<Vec<String>>,
    /// Completed records waiting to be emitted (bounded by one chunk).
    ready: Vec<(usize, String)>,
    /// Completed *empty* records held back until we know whether they are
    /// interior (kept, like [`parse`]) or trailing (dropped).
    blanks: Vec<(usize, String)>,
    /// Partial logical record: content, 1-based start line, quote parity.
    pending: String,
    pending_start: usize,
    pending_active: bool,
    pending_quotes_even: bool,
    line_no: usize,
    emitted_any: bool,
    eof: bool,
    fused: bool,
}

impl<R: BufRead> ChunkedReader<R> {
    /// Reader over `input` yielding chunks of at most `rows_per_chunk`
    /// data rows (the header does not count; a budget of 0 is treated
    /// as 1).
    pub fn new(input: R, rows_per_chunk: usize) -> ChunkedReader<R> {
        ChunkedReader {
            input,
            rows_per_chunk: rows_per_chunk.max(1),
            strip_comments: false,
            names: None,
            ready: Vec::new(),
            blanks: Vec::new(),
            pending: String::new(),
            pending_start: 0,
            pending_active: false,
            pending_quotes_even: true,
            line_no: 0,
            emitted_any: false,
            eof: false,
            fused: false,
        }
    }

    /// Drops `#`-prefixed comment lines before parsing. Line numbers in
    /// errors then count only non-comment lines, matching a pre-filtered
    /// whole-file parse.
    pub fn strip_comments(mut self) -> ChunkedReader<R> {
        self.strip_comments = true;
        self
    }

    /// Column names of the input, available once the first chunk has been
    /// read.
    pub fn names(&self) -> Option<&[String]> {
        self.names.as_deref()
    }

    /// Completes the pending logical record and routes it to `ready` (via
    /// the blank-holding queue, so trailing blanks can still be dropped).
    fn complete_pending(&mut self) {
        let record = std::mem::take(&mut self.pending);
        let start = self.pending_start;
        self.pending_active = false;
        self.pending_quotes_even = true;
        if record.is_empty() {
            self.blanks.push((start, record));
        } else {
            self.ready.append(&mut self.blanks);
            self.ready.push((start, record));
        }
    }

    /// Reads raw lines until one chunk of records is ready or EOF.
    fn fill(&mut self) -> Result<()> {
        // +1: the first record is the header, not a data row. Saturating,
        // so a `usize::MAX` budget means "everything", not a wrapped 0.
        let want = self
            .rows_per_chunk
            .saturating_add(usize::from(self.names.is_none()));
        let mut line = String::new();
        while !self.eof && self.ready.len() < want {
            line.clear();
            let read = self
                .input
                .read_line(&mut line)
                .map_err(|e| FrameError::Io(e.to_string()))?;
            if read == 0 {
                self.eof = true;
                if self.pending_active {
                    self.complete_pending();
                }
                // Blanks still held at EOF are trailing: drop them.
                self.blanks.clear();
                break;
            }
            let content = line.strip_suffix('\n').unwrap_or(&line);
            let content = content.strip_suffix('\r').unwrap_or(content);
            if self.strip_comments && content.trim_start().starts_with('#') {
                continue;
            }
            self.line_no += 1;
            if !self.pending_active {
                self.pending_active = true;
                self.pending_start = self.line_no;
            } else {
                self.pending.push('\n');
            }
            self.pending.push_str(content);
            if content.matches('"').count() % 2 == 1 {
                self.pending_quotes_even = !self.pending_quotes_even;
            }
            // A record is complete when it contains an even number of
            // quotes — the same rule the whole-file splitter uses.
            if self.pending_quotes_even {
                self.complete_pending();
            }
        }
        Ok(())
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
        if let Err(e) = self.fill() {
            return Some(Err(e));
        }
        if self.names.is_none() {
            let (header_line, header) = match self.ready.first() {
                Some(h) => (h.0, h.1.clone()),
                None => return None, // empty input
            };
            self.ready.remove(0);
            match split_record(&header, header_line) {
                Ok(names) => self.names = Some(names),
                Err(e) => return Some(Err(e)),
            }
        }
        if self.ready.is_empty() && self.eof {
            if self.emitted_any {
                return None;
            }
            // Header-only input: one empty chunk so the schema is visible.
            self.emitted_any = true;
            let names = self.names.clone().expect("header parsed above");
            return Some(frame_from_records(&names, &[]));
        }
        let take = self.rows_per_chunk.min(self.ready.len());
        let records: Vec<(usize, String)> = self.ready.drain(..take).collect();
        self.emitted_any = true;
        let names = self.names.clone().expect("header parsed above");
        Some(frame_from_records(&names, &records))
    }
}

impl<R: BufRead> Iterator for ChunkedReader<R> {
    type Item = Result<DataFrame>;

    fn next(&mut self) -> Option<Result<DataFrame>> {
        self.next_chunk()
    }
}

/// Quotes a field when it contains separators, quotes or newlines.
fn escape(field: &str) -> String {
    if field.contains(',') || field.contains('"') || field.contains('\n') {
        format!("\"{}\"", field.replace('"', "\"\""))
    } else {
        field.to_string()
    }
}

/// Serialises a frame to CSV text (header + rows, `\n` separators, empty
/// field for nulls). Equivalent to [`write_header`] followed by
/// [`write_rows`] — streaming writers use the two halves directly to append
/// chunk-at-a-time rows under a single header.
pub fn write(df: &DataFrame) -> String {
    let mut out = write_header(df);
    out.push_str(&write_rows(df));
    out
}

/// Serialises just the header line (column names, `\n`-terminated) of a
/// frame. Byte-identical to the first line [`write()`] produces.
pub fn write_header(df: &DataFrame) -> String {
    let mut out = df
        .names()
        .iter()
        .map(|n| escape(n))
        .collect::<Vec<_>>()
        .join(",");
    out.push('\n');
    out
}

/// Serialises just the data rows (no header) of a frame. Byte-identical to
/// what [`write()`] produces after its header line, so appending
/// `write_rows` output of successive chunks under one [`write_header`]
/// reproduces `write` over the concatenated frame exactly.
pub fn write_rows(df: &DataFrame) -> String {
    let mut out = String::new();
    for row in 0..df.len() {
        let mut fields = Vec::with_capacity(df.width());
        for name in df.names() {
            let v = df.value(name, row).expect("in-range row and known column");
            fields.push(escape(&v.to_string()));
        }
        out.push_str(&fields.join(","));
        out.push('\n');
    }
    out
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
    fn chunked_reader_strip_comments_matches_prefiltered_parse() {
        let raw = "# template header\nrank,name\n# interior note\n1,alpha\n2,beta\n";
        let filtered: String = raw
            .lines()
            .filter(|l| !l.trim_start().starts_with('#'))
            .collect::<Vec<_>>()
            .join("\n");
        let whole = parse(&filtered).unwrap();
        let chunks: Vec<DataFrame> = ChunkedReader::new(raw.as_bytes(), 1)
            .strip_comments()
            .map(|c| c.unwrap())
            .collect();
        assert_eq!(total_rows(&chunks), whole.len());
        assert_eq!(
            chunks[0].value("name", 0).unwrap(),
            Value::Str("alpha".into())
        );
    }

    #[test]
    fn chunked_reader_reports_names() {
        let mut reader = ChunkedReader::new("a,b\n1,2\n".as_bytes(), 1);
        assert!(reader.names().is_none());
        let first = reader.next_chunk().unwrap().unwrap();
        assert_eq!(first.names(), &["a", "b"]);
        assert_eq!(reader.names().unwrap(), &["a", "b"]);
    }

    #[test]
    fn header_plus_chunked_rows_byte_identical_to_whole_write() {
        // The streaming-artifact contract: write_header + per-chunk
        // write_rows must concatenate to exactly what `write` produces
        // over the whole frame, quoting included.
        let df = DataFrame::new()
            .with_column(
                "name",
                Column::from_str_iter(vec![
                    "plain".to_string(),
                    "with, comma".to_string(),
                    "with \"quote\"".to_string(),
                    "multi\nline".to_string(),
                ]),
            )
            .unwrap()
            .with_column(
                "x",
                Column::F64(vec![Some(1.5), None, Some(-3.0), Some(0.25)]),
            )
            .unwrap();
        let whole = write(&df);
        let mut pieced = write_header(&df);
        for row in 0..df.len() {
            let chunk = df.take(&[row]).unwrap();
            pieced.push_str(&write_rows(&chunk));
        }
        assert_eq!(pieced, whole);
    }
}
