//! Minimal CSV reader/writer (RFC 4180 quoting, empty field = null).
//!
//! Every CSV this workspace reads goes through one byte-level
//! [`Tokenizer`], and every CSV it writes through one escape rule
//! ([`escape_into`]). The dialect:
//!
//! - One UTF-8 byte-order mark (`EF BB BF`) at the very start of the input
//!   is dropped, as spreadsheet "CSV UTF-8" exports write one; any other
//!   is text.
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
//! - A record, its raw lines and the newlines joining them, holds at most
//!   [`MAX_RECORD_BYTES`]: reading stops there with an error naming the
//!   line it starts on, so no input is ever buffered whole.
//!
//! Readers are typed by their schema, and nothing infers a type from a
//! column's contents. A reader (the fleet reader in `top500::io`, the
//! scenario matrix in `easyc`, Table II in `top500::appendix`) maps the
//! header record once onto the columns it knows ([`Header`]), then takes
//! each record's fields as `&str`: text verbatim, numbers by one rule
//! ([`number`]). No reader builds a [`DataFrame`]. The writer ([`write()`],
//! [`write_header`], [`write_rows`]) renders a frame column by column into
//! one buffer, and writes numbers by one rule too ([`push_f64`]: exactly
//! the bytes of `Display`, from a Ryū shortest round-trip formatter), the
//! rule `top500::io::export_csv` and serve's JSON writer also call.

use crate::column::Column;
use crate::error::{FrameError, Result};
use crate::frame::DataFrame;
use std::collections::HashSet;
use std::fmt::{Display, Write as _};
use std::io::{BufRead, Read};
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

/// The UTF-8 byte-order mark.
const BOM: &[u8] = b"\xEF\xBB\xBF";

/// The most bytes one record may hold, the newlines inside its quoted
/// fields included: a file with no newline, or a quote left open, is an
/// error at this size rather than one buffer of the whole input.
pub const MAX_RECORD_BYTES: usize = 1 << 20;

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
    /// True until the first raw line is read (a [`BOM`] may lead it).
    at_start: bool,
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
            at_start: true,
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
    /// it starts on, `None` when no line is left. A record past
    /// [`MAX_RECORD_BYTES`] is an error naming the line it starts on.
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
            // Room for the rest of the record and a `\r\n`: a line cut
            // short of its newline here runs past the cap.
            let room = (MAX_RECORD_BYTES + 2).saturating_sub(content_at);
            let read = (&mut self.input)
                .take(room as u64)
                .read_until(b'\n', &mut self.raw)
                .map_err(|e| FrameError::Io(e.to_string()))?;
            let cut = read == room && self.raw.last() != Some(&b'\n');
            if read == 0 {
                self.raw.truncate(line_at);
                return Ok(start);
            }
            if std::mem::take(&mut self.at_start) && self.raw.starts_with(BOM) {
                self.raw.drain(..BOM.len());
            }
            if self.raw.last() == Some(&b'\n') {
                self.raw.pop();
            }
            if self.raw.len() > content_at && self.raw.last() == Some(&b'\r') {
                self.raw.pop();
            }
            if cut || self.raw.len() > MAX_RECORD_BYTES {
                let line = start.unwrap_or(self.line_no + 1);
                let message = format!("record longer than {MAX_RECORD_BYTES} bytes");
                return Err(csv_error(line, &message));
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

/// Appends `v` to `out` as exactly the bytes of `write!(out, "{v}")`, the
/// one rule every writer of numbers shares: the shortest decimal that
/// reads back as `v` (of two equally short ones the nearer, an exact tie
/// rounded up), laid out with no exponent; `-0`, `NaN`, `inf` and `-inf`
/// as written. [`number`] reads every finite output back bit for bit.
pub fn push_f64(out: &mut String, v: f64) {
    if v.is_nan() {
        out.push_str("NaN");
        return;
    }
    if v.is_sign_negative() {
        out.push('-');
    }
    let v = v.abs();
    if v == f64::INFINITY {
        out.push_str("inf");
    } else if v < EXACT_INTEGERS && (v as u64) as f64 == v {
        // An integer below 2^53 is its own shortest decimal, zero included
        // (`Display` writes it with no point), so there is nothing to search.
        let mut buf = [0; 20];
        out.push_str(write_digits(&mut buf, v as u64));
    } else {
        let (digits, exp) = shortest(v.to_bits());
        push_fixed(out, digits, exp);
    }
}

/// 2^53: every integer below it is a double, and prints as its digits.
const EXACT_INTEGERS: f64 = 9_007_199_254_740_992.0;

/// Appends `digits × 10^exp` (`digits` > 0) in `Display`'s fixed notation:
/// `0.` and zeros before the digits, a point among them, or zeros after.
fn push_fixed(out: &mut String, digits: u64, exp: i32) {
    let mut buf = [0; 20];
    let text = write_digits(&mut buf, digits);
    let point = exp + text.len() as i32;
    match usize::try_from(point) {
        Ok(point) if point >= text.len() => {
            out.push_str(text);
            out.extend(std::iter::repeat_n('0', point - text.len()));
        }
        Ok(point) if point > 0 => {
            let (int, frac) = text.split_at(point);
            out.push_str(int);
            out.push('.');
            out.push_str(frac);
        }
        _ => {
            out.push_str("0.");
            out.extend(std::iter::repeat_n('0', point.unsigned_abs() as usize));
            out.push_str(text);
        }
    }
}

/// "00" to "99", two bytes each.
static DIGIT_PAIRS: [u8; 200] = digit_pairs();

const fn digit_pairs() -> [u8; 200] {
    let mut pairs = [0; 200];
    let mut i = 0;
    while i < 100 {
        pairs[2 * i] = b'0' + (i / 10) as u8;
        pairs[2 * i + 1] = b'0' + (i % 10) as u8;
        i += 1;
    }
    pairs
}

/// Writes the decimal digits of `n` at the end of `buf` (20 places hold
/// `u64::MAX`) and returns them.
fn write_digits(buf: &mut [u8; 20], mut n: u64) -> &str {
    let mut at = buf.len();
    while n >= 10 {
        let pair = (n % 100) as usize * 2;
        at -= 2;
        buf[at..at + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
        n /= 100;
    }
    if n > 0 || at == buf.len() {
        at -= 1;
        buf[at] = b'0' + n as u8;
    }
    // audit: allow(panic-surface) — `buf[at..]` holds only the ASCII digits written above
    std::str::from_utf8(&buf[at..]).expect("ASCII digits")
}

// Ryū (Ulf Adams, "Ryū: fast float-to-string conversion", PLDI 2018): the
// shortest decimal in a double's rounding interval, from a 128-bit
// multiply-shift by a power of five or its reciprocal.

/// Significant bits of every entry of the two power-of-five tables.
const POW5_BITS: i32 = 125;

/// `POW5_SPLIT[i]`: the top 125 bits of 5^i.
static POW5_SPLIT: [u128; 326] = pow5_split();

/// `POW5_INV_SPLIT[i]`: floor(2^j / 5^i) + 1, j = bitlen(5^i) + 124.
static POW5_INV_SPLIT: [u128; 342] = pow5_inv_split();

/// A 1,024-bit unsigned integer, least significant limb first: room for
/// 5^325 and for 2^1023, the numerator the reciprocals are divided from.
type Big = [u64; 16];

/// floor(x / 2^shift) mod 2^128.
const fn big_window(x: &Big, shift: i32) -> u128 {
    const fn limb(x: &Big, at: usize) -> u128 {
        if at < x.len() {
            x[at] as u128
        } else {
            0
        }
    }
    let (word, bit) = ((shift / 64) as usize, shift % 64);
    let low = limb(x, word) | limb(x, word + 1) << 64;
    if bit == 0 {
        low
    } else {
        low >> bit | limb(x, word + 2) << (128 - bit)
    }
}

const fn pow5_split() -> [u128; 326] {
    let mut table = [0; 326];
    let mut pow: Big = [0; 16];
    pow[0] = 1;
    let mut i = 0;
    while i < table.len() {
        let bits = pow5_bits(i as i32);
        table[i] = if bits <= POW5_BITS {
            big_window(&pow, 0) << (POW5_BITS - bits)
        } else {
            big_window(&pow, bits - POW5_BITS)
        };
        let mut carry = 0;
        let mut k = 0;
        while k < pow.len() {
            let product = pow[k] as u128 * 5 + carry;
            pow[k] = product as u64;
            carry = product >> 64;
            k += 1;
        }
        i += 1;
    }
    table
}

const fn pow5_inv_split() -> [u128; 342] {
    let mut table = [0; 342];
    // floor(2^1023 / 5^i). Floor divisions compose, so one more division
    // by five steps i, and a right shift by 1023 - j leaves floor(2^j / 5^i).
    let mut quotient: Big = [0; 16];
    quotient[15] = 1 << 63;
    let mut i = 0;
    while i < table.len() {
        let j = pow5_bits(i as i32) - 1 + POW5_BITS;
        table[i] = big_window(&quotient, 1023 - j) + 1;
        let mut rest = 0;
        let mut k = quotient.len();
        while k > 0 {
            k -= 1;
            let part = rest << 64 | quotient[k] as u128;
            quotient[k] = (part / 5) as u64;
            rest = part % 5;
        }
        i += 1;
    }
    table
}

/// bitlen(5^e) for 0 <= e <= 3528 (1 for e = 0).
const fn pow5_bits(e: i32) -> i32 {
    ((e as u32 * 1_217_359) >> 19) as i32 + 1
}

/// floor(log10(2^e)) for 0 <= e <= 1650.
fn log10_pow2(e: i32) -> u32 {
    (e as u32 * 78_913) >> 18
}

/// floor(log10(5^e)) for 0 <= e <= 2620.
fn log10_pow5(e: i32) -> u32 {
    (e as u32 * 732_923) >> 20
}

/// True when 5^p divides `v` (> 0).
fn multiple_of_pow5(mut v: u64, p: u32) -> bool {
    let mut factors = 0;
    while v.is_multiple_of(5) {
        v /= 5;
        factors += 1;
    }
    factors >= p
}

/// floor(m × mul / 2^j), exact for `m` < 2^55, a table entry `mul` and
/// 64 <= j < 192.
fn mul_shift(m: u64, mul: u128, j: i32) -> u64 {
    let m = u128::from(m);
    let low = (m * (mul as u64 as u128)) >> 64;
    let high = m * (mul >> 64);
    ((low + high) >> (j - 64)) as u64
}

/// The shortest `digits × 10^exp` in the rounding interval of the finite,
/// positive double with `bits`; of two, the one nearer the double, an
/// exact tie rounded up where reference Ryū rounds it to even, as
/// `Display` does.
fn shortest(bits: u64) -> (u64, i32) {
    let mantissa = bits & ((1 << 52) - 1);
    let exponent = (bits >> 52) as i32;
    // Two extra bits below the mantissa hold the interval's bounds.
    let (e2, m2) = match exponent {
        0 => (1 - 1023 - 52 - 2, mantissa),
        _ => (exponent - 1023 - 52 - 2, 1 << 52 | mantissa),
    };
    let accept_bounds = m2.is_multiple_of(2);
    let mv = 4 * m2;
    let mm_shift = u64::from(mantissa != 0 || exponent <= 1);
    let mm = mv - 1 - mm_shift;
    // `vr`, `vp` and `vm`: the double and its interval's upper and lower
    // bounds, each floored at scale 10^e10. Only whether the lower bound
    // is exact there is needed: rounding ties up, the reference's check
    // of `vr` for an exact tie has nothing left to decide.
    let (mut vr, mut vp, mut vm, e10);
    let mut vm_exact = false;
    if e2 >= 0 {
        let q = log10_pow2(e2) - u32::from(e2 > 3);
        let j = -e2 + q as i32 + POW5_BITS + pow5_bits(q as i32) - 1;
        let mul = POW5_INV_SPLIT[q as usize];
        (vr, vp, vm, e10) = (
            mul_shift(mv, mul, j),
            mul_shift(mv + 2, mul, j),
            mul_shift(mm, mul, j),
            q as i32,
        );
        // At most one of `mv`, `mv + 2` and `mm` is a multiple of five.
        if q <= 21 && !mv.is_multiple_of(5) {
            if accept_bounds {
                vm_exact = multiple_of_pow5(mm, q);
            } else {
                vp -= u64::from(multiple_of_pow5(mv + 2, q));
            }
        }
    } else {
        let q = log10_pow5(-e2) - u32::from(-e2 > 1);
        let i = -e2 - q as i32;
        let j = q as i32 - (pow5_bits(i) - POW5_BITS);
        let mul = POW5_SPLIT[i as usize];
        (vr, vp, vm, e10) = (
            mul_shift(mv, mul, j),
            mul_shift(mv + 2, mul, j),
            mul_shift(mm, mul, j),
            q as i32 + e2,
        );
        if q <= 1 {
            if accept_bounds {
                vm_exact = mm_shift == 1;
            } else {
                vp -= 1;
            }
        }
    }
    // Remove digits while the interval still holds a shorter number; the
    // most significant digit removed decides the rounding.
    let mut removed = 0;
    let round_up;
    if vm_exact {
        // Rare: the lower bound is itself a candidate, so the zeros it
        // ends in may go too.
        let mut last = 0;
        while vp / 10 > vm / 10 || (vm_exact && vm.is_multiple_of(10)) {
            vm_exact &= vm.is_multiple_of(10);
            last = vr % 10;
            (vr, vp, vm) = (vr / 10, vp / 10, vm / 10);
            removed += 1;
        }
        round_up = (vr == vm && !(accept_bounds && vm_exact)) || last >= 5;
    } else {
        // Eight, four, two and one digits at a time, so that a short
        // output such as `1.4` costs a few divisions, not fifteen.
        let mut up = false;
        for (count, pow) in [(8, 100_000_000), (4, 10_000), (2, 100), (1, 10)] {
            while vp / pow > vm / pow {
                up = vr % pow >= pow / 2;
                (vr, vp, vm) = (vr / pow, vp / pow, vm / pow);
                removed += count;
            }
        }
        round_up = vr == vm || up;
    }
    (vr + u64::from(round_up), e10 + removed)
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

/// Renders every row, cell by cell: floats through [`push_f64`], integers
/// and booleans through their `Display`, text through [`escape_into`],
/// nulls as empty fields.
fn push_rows(out: &mut String, df: &DataFrame) {
    let columns = df.columns();
    for row in 0..df.len() {
        for (i, column) in columns.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            match column {
                Column::F64(v) => {
                    if let Some(Some(x)) = v.get(row) {
                        push_f64(out, *x);
                    }
                }
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

    #[test]
    fn tokenizer_drops_one_leading_byte_order_mark() {
        let plain = tokens(b"name,mask\nfull,all\n", false);
        assert_eq!(tokens(b"\xEF\xBB\xBFname,mask\nfull,all\n", false), plain);
        // Before a comment line too, and alone it leaves no record.
        let (records, err) = tokens(b"\xEF\xBB\xBF# lead\nv\n", true);
        assert_eq!((records, err), (vec![(1, owned(&["v"]))], None));
        assert_eq!(tokens(b"\xEF\xBB\xBF", false), (vec![], None));
        // Only one, and only at the start: any other is text.
        let (records, _) = tokens(b"\xEF\xBB\xBF\xEF\xBB\xBFa\n\xEF\xBB\xBFb\n", false);
        assert_eq!(
            records,
            vec![(1, owned(&["\u{feff}a"])), (2, owned(&["\u{feff}b"]))]
        );
    }

    #[test]
    fn tokenizer_caps_a_record_at_max_record_bytes() {
        let at_cap = "x".repeat(MAX_RECORD_BYTES);
        for text in [
            format!("{at_cap}\n"),
            format!("{at_cap}\r\n"),
            at_cap.clone(),
        ] {
            let (records, err) = tokens(text.as_bytes(), false);
            assert_eq!((records.len(), err), (1, None));
        }
        let too_long = csv_error(2, &format!("record longer than {MAX_RECORD_BYTES} bytes"));
        for text in [
            format!("a\n{at_cap}x\n"),
            format!("a\n{at_cap}x"),
            format!("a\n\"{}\n{}\"\n", &at_cap[2..], "y"),
        ] {
            let (records, err) = tokens(text.as_bytes(), false);
            assert_eq!((records.len(), err), (1, Some(too_long.clone())));
        }
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

    // ------------------------------------------------------------ push_f64

    fn pushed(v: f64) -> String {
        let mut out = String::new();
        push_f64(&mut out, v);
        out
    }

    /// `push_f64` against `Display`, the oracle it must equal.
    fn assert_displays(v: f64) {
        assert_eq!(pushed(v), format!("{v}"), "bits {:016x}", v.to_bits());
    }

    /// SplitMix64, the sweeps' seeded bit patterns.
    fn split_mix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    #[test]
    fn push_f64_writes_display_on_the_edges() {
        let exact = (1u64 << 53) as f64;
        let mut edges = vec![
            0.0,
            5e-324,
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE.next_up(),
            f64::MIN_POSITIVE.next_down(),
            f64::MAX,
            f64::MIN,
            exact - 1.0,
            exact,
            exact + 2.0,
            // Exact ties between two shortest candidates: `Display` rounds
            // them up, reference Ryū to even.
            2f64.powi(-25),
            f64::from_bits(0x42ee_7717_8229_0d54),
            2f64.powi(50) + 0.25,
            f64::NAN,
            f64::INFINITY,
        ];
        let mut around = |v: f64| edges.extend([v, v.next_up(), v.next_down()]);
        for e in 0..2098u64 {
            // 2^-1074 up to 2^1023: subnormal bits first, then exponents.
            around(f64::from_bits(if e < 52 { 1 << e } else { (e - 51) << 52 }));
        }
        for e in -323..=308 {
            around(format!("1e{e}").parse().unwrap());
        }
        for v in edges {
            assert_displays(v);
            assert_displays(-v);
        }
        assert_eq!(pushed(2f64.powi(-25)), "0.000000029802322387695313");
        assert_eq!(pushed(2f64.powi(50) + 0.25), "1125899906842624.3");
        assert_eq!(pushed(-0.0), "-0");
        assert_eq!(pushed(1e21), "1000000000000000000000");
    }

    #[test]
    fn push_f64_writes_display_for_seeded_bits_and_short_decimals() {
        let mut state = 0x5eed;
        for _ in 0..1 << 18 {
            assert_displays(f64::from_bits(split_mix(&mut state)));
        }
        // m × 10^e with a few significant digits: the shape of most cells.
        for _ in 0..1 << 16 {
            let r = split_mix(&mut state);
            let m = r % 10u64.pow((r >> 8) as u32 % 9 + 1);
            let e = ((r >> 16) % 41) as i32 - 20;
            assert_displays(format!("{m}e{e}").parse().unwrap());
        }
    }

    /// The release-mode soak (`cargo test --release -p frame -- --ignored`).
    #[test]
    #[ignore = "10^8 bit patterns: a release-mode soak"]
    fn push_f64_writes_display_for_a_hundred_million_bit_patterns() {
        let mut state = 0x50a6;
        let (mut ours, mut display) = (String::new(), String::new());
        for _ in 0..100_000_000 {
            let v = f64::from_bits(split_mix(&mut state));
            ours.clear();
            display.clear();
            push_f64(&mut ours, v);
            write!(display, "{v}").unwrap();
            assert_eq!(ours, display, "bits {:016x}", v.to_bits());
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
