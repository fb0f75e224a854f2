//! Property-based tests over the core invariants (proptest).

use proptest::prelude::*;
use top500_carbon::analysis::interpolate::nearest_peer_interpolation;
use top500_carbon::easyc::{
    embodied, operational, Assessment, DataScenario, DrawPlan, EasyC, EasyCConfig,
    EmbodiedEstimate, FleetColumns, FleetState, FleetView, MetricMask, OperationalEstimate,
    OverrideSet, PartialAssessment, ScenarioMatrix, SevenMetrics, SystemFootprint, SystemView,
};
use top500_carbon::frame::{csv, stats, Column, DataFrame, FrameError};
use top500_carbon::serve::json;
use top500_carbon::top500::io::{export_csv, import_csv, stream_csv, ImportError};
use top500_carbon::top500::stream::{FleetChunks, InMemoryChunks};
use top500_carbon::top500::synthetic::{generate_full, SyntheticConfig};
use top500_carbon::top500::{SystemRecord, Top500List};

// ------------------------------------------------------------ interpolation

proptest! {
    #[test]
    fn interpolation_preserves_present_values(
        values in prop::collection::vec(prop::option::of(0.0f64..1e6), 0..200)
    ) {
        match nearest_peer_interpolation(&values, 5) {
            Some(filled) => {
                prop_assert_eq!(filled.len(), values.len());
                for (orig, out) in values.iter().zip(&filled) {
                    if let Some(v) = orig {
                        prop_assert_eq!(v, out);
                    }
                }
            }
            None => prop_assert!(values.iter().all(Option::is_none) && !values.is_empty()),
        }
    }

    #[test]
    fn interpolated_values_bounded_by_present_extremes(
        values in prop::collection::vec(prop::option::of(0.0f64..1e6), 1..200)
    ) {
        prop_assume!(values.iter().any(Option::is_some));
        let present: Vec<f64> = values.iter().flatten().copied().collect();
        let (lo, hi) = (
            present.iter().copied().fold(f64::INFINITY, f64::min),
            present.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        );
        let filled = nearest_peer_interpolation(&values, 5).unwrap();
        for v in filled {
            prop_assert!(v >= lo - 1e-9 && v <= hi + 1e-9);
        }
    }

    #[test]
    fn interpolation_translation_equivariant(
        values in prop::collection::vec(prop::option::of(0.0f64..1e5), 1..100),
        shift in 0.0f64..1e5
    ) {
        prop_assume!(values.iter().any(Option::is_some));
        let shifted: Vec<Option<f64>> = values.iter().map(|v| v.map(|x| x + shift)).collect();
        let a = nearest_peer_interpolation(&values, 5).unwrap();
        let b = nearest_peer_interpolation(&shifted, 5).unwrap();
        for (x, y) in a.iter().zip(&b) {
            prop_assert!((x + shift - y).abs() < 1e-6);
        }
    }
}

// ------------------------------------------------------------------- stats

proptest! {
    #[test]
    fn quantile_is_monotone_in_q(
        values in prop::collection::vec(-1e6f64..1e6, 1..100),
        q1 in 0.0f64..1.0,
        q2 in 0.0f64..1.0
    ) {
        let (lo_q, hi_q) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
        let a = stats::quantile(&values, lo_q).unwrap();
        let b = stats::quantile(&values, hi_q).unwrap();
        prop_assert!(a <= b + 1e-9);
    }

    #[test]
    fn mean_between_min_and_max(values in prop::collection::vec(-1e6f64..1e6, 1..100)) {
        let m = stats::mean(&values).unwrap();
        let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(m >= lo - 1e-6 && m <= hi + 1e-6);
    }

    #[test]
    fn kahan_sum_matches_naive_for_moderate_values(
        values in prop::collection::vec(-1e6f64..1e6, 0..200)
    ) {
        let naive: f64 = values.iter().sum();
        prop_assert!((stats::sum(&values) - naive).abs() < 1e-3);
    }
}

// --------------------------------------------------------------------- CSV

/// Writes `text` and `x` as the two columns of a frame with a row index
/// (so no row is blank) and reads the records back through the tokenizer
/// and a header mapped onto `row,text,x`: each row's text verbatim and its
/// `x` by `csv::number`.
fn csv_roundtrip(
    text: &[String],
    x: &[Option<f64>],
) -> Result<Vec<(String, Option<f64>)>, FrameError> {
    const COLUMNS: [&str; 3] = ["row", "text", "x"];
    let df = DataFrame::new()
        .with_column(
            "row",
            Column::I64((0..text.len() as i64).map(Some).collect()),
        )?
        .with_column("text", Column::from_str_iter(text.iter().cloned()))?
        .with_column("x", Column::F64(x.to_vec()))?;
    let written = csv::write(&df);
    let mut records = csv::Tokenizer::new(written.as_bytes());
    let first = records.next_record()?.expect("a header record");
    let header = csv::Header::map(&first, &COLUMNS)?;
    let mut rows = Vec::new();
    while let Some(record) = records.next_record()? {
        let [row, text, x] = header.cells(&record)?;
        assert_eq!(csv::number(row), Some(rows.len() as f64));
        rows.push((text.to_string(), csv::number(x)));
    }
    Ok(rows)
}

proptest! {
    #[test]
    fn csv_roundtrip_arbitrary_strings(
        cells in prop::collection::vec("[ -~\n\"]{0,20}", 1..20)
    ) {
        // Any text, commas, quotes and newlines included (the writer
        // quotes them), reads back verbatim, even when it looks like a
        // number or is empty.
        let back = csv_roundtrip(&cells, &vec![None; cells.len()]).unwrap();
        let texts: Vec<String> = back.into_iter().map(|(text, _)| text).collect();
        prop_assert_eq!(texts, cells);
    }

    #[test]
    fn csv_roundtrip_numeric_with_nulls(
        values in prop::collection::vec(prop::option::of(-1e9f64..1e9), 1..50)
    ) {
        // `Display` writes the shortest text that reads back as the same
        // `f64`, so every number returns bit for bit; a null returns as
        // `None`, an all-null column included.
        let back = csv_roundtrip(&vec![String::new(); values.len()], &values).unwrap();
        let bits: Vec<Option<u64>> = back.iter().map(|(_, x)| x.map(f64::to_bits)).collect();
        let expected: Vec<Option<u64>> = values.iter().map(|x| x.map(f64::to_bits)).collect();
        prop_assert_eq!(bits, expected);
    }
}

// ---------------------------------------------------------- CSV byte soup

/// The row-at-a-time record splitter `frame::csv` used before its
/// byte-level tokenizer (`logical_records`), kept as the tokenizer's
/// oracle. Raw lines end at `\n` and lose one trailing `\r` each (the
/// streamed reader's rule; `str::lines` would strip `\r\n` and then one
/// more `\r`); with `comments`, `#` lines are dropped first, as
/// `import_csv` used to pre-filter; trailing blank records are dropped, as
/// the tokenizer drops them.
fn oracle_records(text: &str, comments: bool) -> Vec<(usize, String)> {
    let lines = text
        .split_terminator('\n')
        .map(|raw| raw.strip_suffix('\r').unwrap_or(raw))
        .filter(|line| !(comments && line.trim_start().starts_with('#')));
    let mut records = Vec::new();
    let mut pending = String::new();
    let mut pending_start = 0usize;
    for (i, line) in lines.enumerate() {
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
    while records.last().is_some_and(|(_, r)| r.is_empty()) {
        records.pop();
    }
    records
}

/// The `String`-per-field splitter of one isolated record that `frame::csv`
/// used before its byte-level tokenizer (`split_record`), kept as the
/// tokenizer's oracle.
fn oracle_split(line: &str, line_no: usize) -> Result<Vec<String>, FrameError> {
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

/// Every record until the first malformed one, and that error. A record
/// is its fields plus, when its width differs from the first record's (as
/// every reader checks rows against its header), the width error. Both errors
/// carry the line the record starts on.
type Tokens = (Vec<(Vec<String>, Option<FrameError>)>, Option<FrameError>);

fn oracle_tokens(text: &str, comments: bool) -> Tokens {
    let mut records: Vec<(Vec<String>, Option<FrameError>)> = Vec::new();
    for (line, record) in oracle_records(text, comments) {
        let fields = match oracle_split(&record, line) {
            Ok(fields) => fields,
            Err(e) => return (records, Some(e)),
        };
        let width = records.first().map_or(fields.len(), |first| first.0.len());
        let mismatch = (fields.len() != width).then(|| FrameError::Csv {
            line,
            message: format!("expected {width} fields, got {}", fields.len()),
        });
        records.push((fields, mismatch));
    }
    (records, None)
}

fn tokenizer_tokens(bytes: &[u8], comments: bool) -> Tokens {
    let mut tokenizer = csv::Tokenizer::new(bytes);
    if comments {
        tokenizer = tokenizer.strip_comments();
    }
    let mut records = Vec::new();
    loop {
        match tokenizer.next_record() {
            Ok(Some(r)) => {
                let width = records
                    .first()
                    .map_or(r.fields().len(), |first: &(Vec<String>, _)| first.0.len());
                let mismatch = r.check_width(width).err();
                records.push((r.fields().map(str::to_string).collect(), mismatch));
            }
            Ok(None) => return (records, None),
            Err(e) => return (records, Some(e)),
        }
    }
}

/// Every streamed record in rank order (each chunk is rank-sorted on its
/// own, and the sort is stable), or the stream's error.
fn streamed_fleet(bytes: &[u8], rows_per_chunk: usize) -> Result<Vec<SystemRecord>, ImportError> {
    let mut reader = stream_csv(bytes, rows_per_chunk);
    let mut all = Vec::new();
    while let Some(chunk) = reader.next_chunk() {
        all.extend(chunk?.systems().iter().cloned());
    }
    all.sort_by_key(|s| s.rank);
    Ok(all)
}

/// Soup pieces, weighted toward CSV structure. Pieces from
/// `SOUP_UTF8_PIECES` on are not valid UTF-8 on their own: a lone
/// continuation byte, a lead byte without its continuation, and 0xFF.
const SOUP: &[&[u8]] = &[
    b",",
    b",",
    b",",
    b"\"",
    b"\"",
    b"\"",
    b"\n",
    b"\n",
    b"\r",
    b"\r",
    b"#",
    b" ",
    b" ",
    b"0",
    b"1",
    b"3",
    b"7",
    b"9",
    b".",
    b"-",
    b"e",
    b"a",
    b"x",
    b"N",
    "\u{e9}".as_bytes(),
    "\u{a0}".as_bytes(),
    &[0x80],
    &[0xC3],
    &[0xFF],
];
const SOUP_UTF8_PIECES: usize = SOUP.len() - 3;

/// Prefixes: none, or a valid Top500 header (after a comment, too).
/// `rank` and `rmax_tflops` lead every header.
const SOUP_HEADERS: &[&str] = &[
    "",
    "rank,rmax_tflops",
    "rank,rmax_tflops,name,vendor",
    "# template\nrank,rmax_tflops,power_kw",
];

/// Whole cells for rows shaped like the header: numbers (with `-0` and
/// `-0.0`, whose signs a reader must keep apart), text that looks like a
/// number or a boolean, quoted text holding separators, quotes, newlines
/// and a `#` line, and tokens that read as missing. The first
/// `SOUP_RANKS` cells are also drawn for `rank`, the first `SOUP_RMAX`
/// for `rmax_tflops`, so many rows import and some do not.
const SOUP_CELLS: &[&str] = &[
    "1",
    "2",
    "7",
    "3",
    "1e3",
    "2.5",
    "-0",
    "x",
    "-0.0",
    "1.50",
    "007",
    "",
    "1e999",
    "NaN",
    "inf",
    "True",
    "false",
    " 3",
    "Mare Nostrum",
    "\"Mare, Nostrum\"",
    "\"say \"\"hi\"\"\"",
    "\"two\nlines\"",
    "\"two\n# lines\"",
    "\u{e9}",
];
const SOUP_RANKS: usize = 8;
const SOUP_RMAX: usize = 7;

/// One line of a soup case: a row shaped like the header, byte soup, a
/// comment or a blank line; `\n` or `\r\n` after it.
fn soup_line(
    out: &mut Vec<u8>,
    kind: usize,
    picks: &[usize],
    crlf: bool,
    width: usize,
    utf8: bool,
) {
    let pick = |i: usize, of: usize| picks.get(i).map_or(0, |p| p % of);
    match kind {
        0..=11 => {
            for column in 0..width {
                let of = match column {
                    0 => SOUP_RANKS,
                    1 => SOUP_RMAX,
                    _ => SOUP_CELLS.len(),
                };
                if column > 0 {
                    out.push(b',');
                }
                out.extend_from_slice(SOUP_CELLS[pick(column, of)].as_bytes());
            }
        }
        12 | 13 => {
            let pieces = if utf8 {
                &SOUP[..SOUP_UTF8_PIECES]
            } else {
                SOUP
            };
            for p in picks {
                out.extend_from_slice(pieces[p % pieces.len()]);
            }
        }
        14 => out.extend_from_slice(b"  # a comment"),
        _ => {}
    }
    out.extend_from_slice(if crlf { b"\r\n" } else { b"\n" });
}

/// Byte soup: an optional UTF-8 byte-order mark (a quarter of the cases)
/// and Top500 header, then lines of header-shaped rows, arbitrary bytes
/// weighted toward `,` `"` `\n` `\r` `#`, space, digits and letters
/// (invalid UTF-8 mixed in for half the cases), comments and blanks.
fn byte_soup() -> impl Strategy<Value = Vec<u8>> {
    (
        0usize..SOUP_HEADERS.len(),
        prop::collection::vec(
            (
                0usize..16,
                prop::collection::vec(0usize..1024, 0..12),
                prop::bool::ANY,
            ),
            0..12,
        ),
        prop::bool::ANY,
        0usize..4,
    )
        .prop_map(|(header, lines, utf8, bom)| {
            let header = SOUP_HEADERS[header];
            let width = header.lines().last().map_or(3, |h| h.split(',').count());
            let mut bytes = Vec::new();
            if bom == 0 {
                bytes.extend_from_slice("\u{feff}".as_bytes());
            }
            if !header.is_empty() {
                bytes.extend_from_slice(header.as_bytes());
                bytes.push(b'\n');
            }
            for (kind, picks, crlf) in lines {
                soup_line(&mut bytes, kind, &picks, crlf, width, utf8);
            }
            bytes
        })
}

proptest! {
    #[test]
    fn csv_byte_soup_never_panics_and_every_reader_agrees(bytes in byte_soup()) {
        // Hostile input on the ingest surface: nothing may panic; the
        // tokenizer must equal the row-at-a-time oracle (which drops one
        // leading byte-order mark) wherever the oracle applies (valid
        // UTF-8); a streamed fleet must end the same way at every chunk
        // budget; the whole-file import must agree with it; and the
        // scenario-matrix reader, fed the soup bare and under a matrix
        // header, must answer without panicking.
        let text = std::str::from_utf8(&bytes).ok();
        for comments in [false, true] {
            let tokens = tokenizer_tokens(&bytes, comments);
            if let Some(text) = text {
                let text = text.strip_prefix('\u{feff}').unwrap_or(text);
                prop_assert_eq!(&tokens, &oracle_tokens(text, comments), "comments {}", comments);
            }
        }
        let fleet = streamed_fleet(&bytes, usize::MAX);
        for rows in [1usize, 2, 7] {
            prop_assert_eq!(&streamed_fleet(&bytes, rows), &fleet, "rows {}", rows);
        }
        if let Some(text) = text {
            let imported = import_csv(text).map(|list| list.systems().to_vec());
            prop_assert_eq!(&imported, &fleet);
            let _ = ScenarioMatrix::from_csv(text);
            let _ = ScenarioMatrix::from_csv(&format!("name,mask,aci_override\n{text}"));
        }
    }
}

// ------------------------------------------------------ serve JSON soup

/// Pieces of JSON soup: structure, string escapes (a signed, a short and
/// a lone-surrogate `\u` escape among them), number fragments, literals
/// whole and cut, whitespace, control and multi-byte characters, and an
/// eight-deep opening run, so nesting past the parser's depth guard is
/// common.
const JSON_SOUP: &[&str] = &[
    "{",
    "}",
    "[",
    "]",
    ":",
    ",",
    "\"",
    "\"",
    "\\",
    "\\u",
    "\\u00e9",
    "\\u+061",
    "\\u06",
    "\\ud83d",
    "\\ude00",
    "\\n",
    "0",
    "1",
    "9",
    "-",
    "+",
    ".",
    "e",
    "E",
    "1e999",
    "true",
    "false",
    "null",
    "nul",
    " ",
    "\n",
    "\r",
    "\t",
    "\u{1}",
    "\"op\"",
    "\"status\"",
    "\u{e9}",
    "\u{1F600}",
    "[[[[[[[[",
    "{\"a\":",
];

fn json_soup() -> impl Strategy<Value = String> {
    prop::collection::vec(0usize..JSON_SOUP.len(), 0..48)
        .prop_map(|picks| picks.into_iter().map(|p| JSON_SOUP[p]).collect())
}

proptest! {
    #[test]
    fn json_byte_soup_never_panics_and_written_strings_parse_back(
        text in json_soup(),
        key in json_soup(),
    ) {
        // serve parses every request line with this parser: on any input
        // it answers without panicking, and an error's offset points into
        // the line (its end included). Any text the writer puts in a
        // string field, as key or value, parses back verbatim.
        if let Err(e) = json::parse(&text) {
            prop_assert!(e.at <= text.len(), "error at {} of {} bytes", e.at, text.len());
        }
        let line = json::Obj::new().field_str(&key, &text).finish();
        let parsed = json::parse(&line).unwrap();
        prop_assert_eq!(parsed.get(&key).and_then(json::Value::as_str), Some(text.as_str()));
    }
}

// ------------------------------------------------------------------- EasyC

fn arb_record() -> impl Strategy<Value = SystemRecord> {
    (
        1u32..=500,
        1.0f64..2e6,
        prop::option::of(1u64..10_000),
        prop::option::of(1u64..100_000),
        prop::option::of(0.0f64..50_000.0),
        prop::bool::ANY,
    )
        .prop_map(|(rank, rmax, nodes, gpus, power, accelerated)| {
            let mut r = SystemRecord::bare(rank, rmax, rmax * 1.4);
            r.processor = Some("AMD EPYC 7763 64C 2.45GHz".to_string());
            r.total_cores = nodes.map(|n| n * 128);
            r.node_count = nodes;
            r.country = Some("United States".to_string());
            if accelerated {
                r.accelerator = Some("NVIDIA A100 SXM4 80GB".to_string());
                r.accelerator_count = gpus;
            }
            r.power_kw = power.filter(|p| *p > 0.0);
            r
        })
}

proptest! {
    #[test]
    fn estimates_never_panic_and_are_finite(record in arb_record()) {
        let fp: SystemFootprint = EasyC::new().assess(&record);
        if let Some(v) = fp.operational_mt() {
            prop_assert!(v.is_finite() && v >= 0.0);
        }
        if let Some(v) = fp.embodied_mt() {
            prop_assert!(v.is_finite() && v >= 0.0);
        }
    }

    #[test]
    fn more_accelerators_never_less_embodied(
        record in arb_record(),
        nodes in 1u64..10_000,
        gpus in 1u64..50_000,
        extra in 1u64..10_000
    ) {
        // Force an estimable accelerated configuration so the property is
        // exercised on every generated case.
        let mut record = record;
        record.node_count = Some(nodes);
        record.total_cores = Some(nodes * 128);
        record.accelerator = Some("NVIDIA A100 SXM4 80GB".to_string());
        record.accelerator_count = Some(gpus);
        let tool = EasyC::new();
        let base = tool.assess(&record);
        let mut bigger = record.clone();
        bigger.accelerator_count = Some(gpus + extra);
        let more = tool.assess(&bigger);
        prop_assert!(more.embodied_mt().unwrap() >= base.embodied_mt().unwrap());
    }

    #[test]
    fn higher_measured_power_means_more_operational(
        record in arb_record(),
        factor in 1.1f64..10.0
    ) {
        prop_assume!(record.power_kw.is_some());
        let tool = EasyC::new();
        let base = tool.assess(&record);
        prop_assume!(base.operational_mt().is_some());
        let mut hotter = record.clone();
        hotter.power_kw = record.power_kw.map(|p| p * factor);
        let more = tool.assess(&hotter);
        prop_assert!(more.operational_mt().unwrap() > base.operational_mt().unwrap());
    }
}

// ------------------------------------------------------- scenario masks

fn arb_mask() -> impl Strategy<Value = MetricMask> {
    (0u16..0x800).prop_map(MetricMask::from_bits)
}

proptest! {
    #[test]
    fn mask_composition_laws(a in arb_mask(), b in arb_mask(), c in arb_mask()) {
        // Boolean-algebra laws the ScenarioMatrix composition relies on.
        prop_assert_eq!(a.union(b), b.union(a));
        prop_assert_eq!(a.intersect(b), b.intersect(a));
        prop_assert_eq!(a.union(b.union(c)), a.union(b).union(c));
        prop_assert_eq!(a.intersect(b.intersect(c)), a.intersect(b).intersect(c));
        prop_assert_eq!(a.intersect(b.union(c)), a.intersect(b).union(a.intersect(c)));
        prop_assert_eq!(a.complement().complement(), a);
        prop_assert_eq!(a.union(a.complement()), MetricMask::ALL);
        prop_assert_eq!(a.intersect(a.complement()), MetricMask::NONE);
        prop_assert_eq!(a.union(MetricMask::NONE), a);
        prop_assert_eq!(a.intersect(MetricMask::ALL), a);
    }

    #[test]
    fn mask_spec_roundtrips(mask in arb_mask()) {
        let spec = mask.to_spec();
        prop_assert_eq!(MetricMask::parse(&spec).unwrap(), mask, "spec {}", spec);
    }

    #[test]
    fn mask_application_is_idempotent_and_monotone(
        record in arb_record(),
        mask in arb_mask()
    ) {
        let metrics = SevenMetrics::extract(&record);
        let once = mask.apply_metrics(&record, &metrics);
        let twice = mask.apply_metrics(&record, &once);
        prop_assert_eq!(&once, &twice);
        // Masking never reveals data: visible-field count only shrinks.
        prop_assert!(once.present_count() <= metrics.present_count());
        // Composing masks equals applying the intersection.
        let narrower = mask.intersect(MetricMask::ALL.without(
            top500_carbon::easyc::MetricBit::Nodes,
        ));
        let composed = narrower.apply_metrics(&record, &metrics);
        let sequential = MetricMask::ALL
            .without(top500_carbon::easyc::MetricBit::Nodes)
            .apply_metrics(&record, &mask.apply_metrics(&record, &metrics));
        prop_assert_eq!(composed, sequential);
    }

    #[test]
    fn masked_assessment_never_panics(record in arb_record(), mask in arb_mask()) {
        let scenario = DataScenario::masked("prop", mask);
        let fp = EasyC::new().assess_scenario(&record, &scenario);
        if let Some(v) = fp.operational_mt() {
            prop_assert!(v.is_finite() && v >= 0.0);
        }
        if let Some(v) = fp.embodied_mt() {
            prop_assert!(v.is_finite() && v >= 0.0);
        }
    }

    #[test]
    fn view_lens_identical_to_clone_path_for_arbitrary_masks(
        record in arb_record(),
        mask in arb_mask()
    ) {
        // The zero-copy SystemView must reproduce the legacy clone-based
        // masking (apply_record + apply_metrics on owned copies) exactly,
        // for both estimators, under any mask.
        let metrics = SevenMetrics::extract(&record);
        let masked_record = mask.apply_record(&record);
        let masked_metrics = mask.apply_metrics(&record, &metrics);
        let via_clones_op =
            operational::estimate_with(&masked_record, &masked_metrics, &OverrideSet::NONE);
        let via_clones_emb = embodied::estimate(&masked_record, &masked_metrics);

        let view = SystemView::new(&record, &metrics, mask);
        let via_view_op = operational::estimate_view(&view, &OverrideSet::NONE);
        let via_view_emb = embodied::estimate_view(&view);
        prop_assert_eq!(via_view_op, via_clones_op);
        prop_assert_eq!(via_view_emb, via_clones_emb);

        // And the public facade routes through the same lens.
        let fp = EasyC::new().assess_scenario(&record, &DataScenario::masked("prop", mask));
        prop_assert_eq!(&fp.operational, &operational::estimate_view(&view, &OverrideSet::NONE));
        prop_assert_eq!(&fp.embodied, &embodied::estimate_view(&view));
    }

    #[test]
    fn masked_assessment_clones_no_record(record in arb_record(), mask in arb_mask()) {
        let scenario = DataScenario::masked("prop", mask);
        let tool = EasyC::new();
        let before = top500_carbon::top500::record::clones_on_thread();
        let _ = tool.assess_scenario(&record, &scenario);
        prop_assert_eq!(top500_carbon::top500::record::clones_on_thread(), before);
    }

    #[test]
    fn streamed_session_bit_identical_for_arbitrary_chunks_and_masks(
        n in 1u32..48,
        seed in 0u64..1_000,
        rows_per_chunk in 1usize..64,
        mask in arb_mask()
    ) {
        // The streaming fold must reproduce the in-memory session exactly
        // — coverage, sequential-sum totals, both interval families — for
        // any chunk budget (including budgets larger than the fleet) and
        // any availability mask.
        let list = generate_full(&SyntheticConfig { n, seed, ..Default::default() });
        let matrix = ScenarioMatrix::new()
            .with(DataScenario::full("full"))
            .with(DataScenario::masked("masked", mask));
        let session = Assessment::of(&list)
            .scenarios(&matrix)
            .uncertainty(24)
            .seed(seed)
            .run();
        let streamed = Assessment::stream(InMemoryChunks::new(&list, rows_per_chunk))
            .scenarios(&matrix)
            .uncertainty(24)
            .seed(seed)
            .run()
            .expect("in-memory chunks cannot fail");
        prop_assert_eq!(streamed.systems(), list.len());
        prop_assert!(streamed.peak_chunk_rows() <= rows_per_chunk);
        for (s, m) in streamed.slices().iter().zip(session.slices()) {
            prop_assert_eq!(s.coverage, m.coverage);
            let mut op = 0.0;
            let mut emb = 0.0;
            for fp in &m.footprints {
                if let Ok(o) = &fp.operational { op += o.mt_co2e; }
                if let Ok(e) = &fp.embodied { emb += e.mt_co2e; }
            }
            prop_assert_eq!(s.operational_total_mt, op);
            prop_assert_eq!(s.embodied_total_mt, emb);
            let name = s.scenario.name.as_str();
            prop_assert_eq!(s.interval, session.interval(name));
            prop_assert_eq!(s.embodied_interval, session.embodied_interval(name));
        }
    }

    #[test]
    fn streamed_out_artifact_equals_in_memory_artifact_for_arbitrary_chunks_and_masks(
        n in 1u32..40,
        seed in 0u64..1_000,
        rows_per_chunk in 1usize..64,
        mask in arb_mask()
    ) {
        // The `--stream --out` parity contract at property scale: spilling
        // each (scenario × chunk) row block through the shared
        // footprints_frame + write_rows path and concatenating per
        // scenario (matrix order) must reproduce the in-memory columnar
        // CSV byte for byte, whatever the chunk budget or availability
        // mask. (The file-backed SweepCsvWriter rides the same code path —
        // its byte identity is pinned by tests/streaming.rs.)
        let list = generate_full(&SyntheticConfig { n, seed, ..Default::default() });
        let matrix = ScenarioMatrix::new()
            .with(DataScenario::full("full"))
            .with(DataScenario::masked("masked", mask));
        let expected = csv::write(
            &Assessment::of(&list).scenarios(&matrix).run().to_frame(),
        );
        let mut spills = vec![String::new(); matrix.len()];
        Assessment::stream(InMemoryChunks::new(&list, rows_per_chunk))
            .scenarios(&matrix)
            .rows(|block| {
                spills[block.scenario_index].push_str(&csv::write_rows(
                    &top500_carbon::easyc::batch::footprints_frame(
                        &block.scenario.name,
                        block.footprints,
                    ),
                ));
            })
            .run()
            .expect("in-memory chunks cannot fail");
        let mut pieced = csv::write_header(
            &top500_carbon::easyc::batch::footprints_frame("", &[]),
        );
        for spill in &spills {
            pieced.push_str(spill);
        }
        prop_assert_eq!(pieced, expected);
    }

    #[test]
    fn paired_delta_never_wider_than_independent_difference_and_streams_bit_identically(
        n in 1u32..40,
        seed in 0u64..1_000,
        rows_per_chunk in 1usize..64,
        mask in arb_mask()
    ) {
        // The CRN tightness guarantee: for any fleet, seed and mask, the
        // paired ScenarioDelta interval is no wider than the naive
        // difference of the two independent per-scenario intervals (both
        // scenarios replay identical per-system perturbations, so the
        // shared noise cancels in the pairing), and the streaming fold
        // reproduces the in-memory delta bit for bit at any chunking.
        let list = generate_full(&SyntheticConfig { n, seed, ..Default::default() });
        let matrix = ScenarioMatrix::new()
            .with(DataScenario::full("full"))
            .with(DataScenario::masked("masked", mask));
        let session = Assessment::of(&list)
            .scenarios(&matrix)
            .uncertainty(200)
            .confidence(0.9)
            .seed(seed)
            .run();
        let delta = session.compare("full", "masked").expect("draws requested");
        for (paired, variant_iv, baseline_iv, family) in [
            (delta.operational, session.interval("masked"), session.interval("full"), "op"),
            (
                delta.embodied,
                session.embodied_interval("masked"),
                session.embodied_interval("full"),
                "emb",
            ),
        ] {
            match (paired, variant_iv, baseline_iv) {
                (Some(paired), Some(v), Some(b)) => {
                    let naive = top500_carbon::easyc::Interval::independent_difference(&v, &b);
                    prop_assert!(
                        paired.width() <= naive.width() + 1e-9 * naive.width().abs().max(1.0),
                        "{family}: paired {} wider than naive {}", paired.width(), naive.width()
                    );
                    prop_assert!(paired.lo <= paired.hi);
                }
                // A family missing on either side pairs to nothing.
                (paired, v, b) => prop_assert!(
                    paired.is_none() && (v.is_none() || b.is_none()),
                    "{family}: inconsistent presence"
                ),
            }
        }
        let streamed = Assessment::stream(InMemoryChunks::new(&list, rows_per_chunk))
            .scenarios(&matrix)
            .uncertainty(200)
            .confidence(0.9)
            .seed(seed)
            .run()
            .expect("in-memory chunks cannot fail");
        prop_assert_eq!(streamed.compare("full", "masked"), Some(delta));
        prop_assert_eq!(
            streamed.operational_draws("masked"),
            session.operational_draws("masked")
        );
        prop_assert_eq!(
            streamed.embodied_draws("masked"),
            session.embodied_draws("masked")
        );
    }

    #[test]
    fn matrix_preserves_scenario_order(masks in prop::collection::vec(arb_mask(), 1..8)) {
        let mut matrix = ScenarioMatrix::new();
        for (i, mask) in masks.iter().enumerate() {
            matrix.push(DataScenario::masked(format!("s{i}"), *mask));
        }
        prop_assert_eq!(matrix.len(), masks.len());
        for (i, scenario) in matrix.scenarios().iter().enumerate() {
            prop_assert_eq!(&scenario.name, &format!("s{i}"));
            prop_assert_eq!(scenario.mask, masks[i]);
        }
    }

    #[test]
    fn matrix_csv_round_trips_names_masks_and_override_bits(
        scenarios in prop::collection::vec(
            (
                arb_scenario_name(),
                arb_mask(),
                arb_override_cell(),
                arb_override_cell(),
                arb_override_cell(),
            ),
            0..8,
        )
    ) {
        // serve reads a client's `matrix_csv` through `from_csv`. Any name
        // (without `\r`, one of which is stripped from every raw line)
        // comes back verbatim, every mask as `to_spec` wrote it, and every
        // override bit for bit, except that `-0.0`, which `Display` writes
        // as `-0`, reads back `+0.0`.
        let mut text =
            String::from("name,mask,pue_override,utilization_override,aci_override\n");
        for (name, mask, pue, utilization, aci) in &scenarios {
            csv::escape_into(&mut text, name);
            text.push(',');
            text.push_str(&mask.to_spec());
            for value in [pue, utilization, aci] {
                text.push(',');
                if let Some(value) = value {
                    text.push_str(&value.to_string());
                }
            }
            text.push('\n');
        }
        let matrix = ScenarioMatrix::from_csv(&text).unwrap();
        prop_assert_eq!(matrix.len(), scenarios.len());
        let read_bits = |v: Option<f64>| v.map(f64::to_bits);
        let written_bits = |v: &Option<f64>| v.map(|x| if x == 0.0 { 0 } else { x.to_bits() });
        for (read, (name, mask, pue, utilization, aci)) in matrix.scenarios().iter().zip(&scenarios) {
            prop_assert_eq!(&read.name, name);
            prop_assert_eq!(read.mask, *mask);
            prop_assert_eq!(read_bits(read.overrides.pue), written_bits(pue));
            prop_assert_eq!(read_bits(read.overrides.utilization), written_bits(utilization));
            prop_assert_eq!(read_bits(read.overrides.aci_g_per_kwh), written_bits(aci));
        }
    }
}

/// A scenario name drawn from digits, letters, space, `,`, `"`, `\n`, `.`,
/// `+` and `-` (no `\r`), half the time from the characters of numbers
/// only, so names like `007`, `+1`, `1e3` and `-0` are common.
fn arb_scenario_name() -> impl Strategy<Value = String> {
    (
        prop::bool::ANY,
        "[0-9.eE+-]{1,6}",
        "[0-9a-zA-Z ,\"\n.+-]{0,12}",
    )
        .prop_map(|(numeric, number_like, any)| if numeric { number_like } else { any })
}

/// One matrix override cell: empty, or a finite `f64` drawn as arbitrary
/// bits, as a multiple of 1/4 (integers among them) or as `-0.0`.
fn arb_override_cell() -> impl Strategy<Value = Option<f64>> {
    prop::option::of((0usize..3, 0u64..u64::MAX, -4000i64..4000)).prop_map(|cell| {
        cell.map(|(kind, bits, quarters)| match kind {
            0 => f64::from_bits(bits),
            1 => quarters as f64 / 4.0,
            _ => -0.0,
        })
        .filter(|x| x.is_finite())
    })
}

// ------------------------------------------------------- columnar kernels

fn arb_overrides() -> impl Strategy<Value = OverrideSet> {
    (
        prop::option::of(1.0f64..3.0),
        prop::option::of(0.05f64..1.0),
        prop::option::of(10.0f64..1000.0),
    )
        .prop_map(|(pue, utilization, aci_g_per_kwh)| OverrideSet {
            pue,
            utilization,
            aci_g_per_kwh,
        })
}

proptest! {
    #[test]
    fn columnar_estimate_kernels_bit_identical_on_any_subrange(
        records in prop::collection::vec(arb_record(), 1..24),
        mask in arb_mask(),
        overrides in arb_overrides(),
        split in (0usize..=24, 0usize..=24),
    ) {
        // The struct-of-arrays chunk kernels must reproduce the
        // row-at-a-time view reference bit for bit on any sub-range of any
        // fleet, under any mask and override set — including error rows,
        // whose payloads (field names, formatted values) must match the
        // reference exactly.
        let records: Vec<SystemRecord> = records
            .into_iter()
            .enumerate()
            .map(|(i, mut r)| {
                r.rank = i as u32 + 1;
                r
            })
            .collect();
        let list = Top500List::new(records);
        let metrics: Vec<SevenMetrics> =
            list.systems().iter().map(SevenMetrics::extract).collect();
        let columns = FleetColumns::build(&list, &metrics);
        let scenario = DataScenario::masked("prop", mask).with_overrides(overrides);
        let view = FleetView::new(&list, &metrics, &scenario);
        let (a, b) = split;
        let (lo, hi) = (a.min(b).min(list.len()), a.max(b).min(list.len()));
        let op = operational::estimate_columns(&columns, &view, lo..hi);
        let emb = embodied::estimate_columns(&columns, &view, lo..hi);
        prop_assert_eq!(op.len(), hi - lo);
        prop_assert_eq!(emb.len(), hi - lo);
        for (k, row) in (lo..hi).enumerate() {
            let sview = SystemView::new(&list.systems()[row], &metrics[row], mask);
            prop_assert_eq!(&op[k], &operational::estimate_view(&sview, &overrides));
            prop_assert_eq!(&emb[k], &embodied::estimate_view(&sview));
        }
    }

    #[test]
    fn columnar_session_matches_serial_assess_scenario(
        n in 1u32..40,
        seed in 0u64..1_000,
        mask in arb_mask(),
        overrides in arb_overrides(),
        workers in 1usize..5,
        rows_per_chunk in 1usize..48,
    ) {
        // The whole session pipeline — FleetColumns built per chunk, (scenario
        // × sub-range) items through the columnar kernels at any worker count
        // and chunk granularity — must equal the serial per-record facade.
        let list = generate_full(&SyntheticConfig { n, seed, ..Default::default() });
        let matrix = ScenarioMatrix::new()
            .with(DataScenario::full("full"))
            .with(DataScenario::masked("masked", mask).with_overrides(overrides));
        let mut footprints = vec![Vec::new(); matrix.len()];
        Assessment::stream(InMemoryChunks::new(&list, rows_per_chunk))
            .workers(workers)
            .scenarios(&matrix)
            .rows(|block| footprints[block.scenario_index].extend_from_slice(block.footprints))
            .run()
            .expect("in-memory chunks cannot fail");
        let tool = EasyC::new();
        for (fps, scenario) in footprints.iter().zip(matrix.scenarios()) {
            prop_assert_eq!(fps.len(), list.len());
            for (record, fp) in list.systems().iter().zip(fps) {
                let reference = tool.assess_scenario(record, scenario);
                prop_assert_eq!(&fp.operational, &reference.operational);
                prop_assert_eq!(&fp.embodied, &reference.embodied);
            }
        }
    }

    #[test]
    fn blocked_draw_kernels_bit_identical_to_serial_reference(
        n in 1u32..32,
        seed in 0u64..1_000,
        draws in 1usize..48,
        mask in arb_mask(),
        workers in 1usize..4,
        rows_per_chunk in 1usize..48,
    ) {
        // The blocked (sample-chunk × scenario) draw kernels — factor
        // columns hoisted per scenario, one noise column per sample shared
        // across scenarios — must reproduce the serial DrawPlan reference
        // vectors exactly, in-memory and streamed, at any worker count and
        // fleet chunking.
        let list = generate_full(&SyntheticConfig { n, seed, ..Default::default() });
        let matrix = ScenarioMatrix::new()
            .with(DataScenario::full("full"))
            .with(DataScenario::masked("masked", mask));
        let session = Assessment::of(&list)
            .workers(workers)
            .scenarios(&matrix)
            .uncertainty(draws)
            .seed(seed)
            .run();
        let plan = DrawPlan::new(draws).with_seed(seed);
        for slice in session.slices() {
            let name = slice.scenario.name.as_str();
            let op_bases: Vec<(usize, OperationalEstimate)> = slice
                .footprints
                .iter()
                .enumerate()
                .filter_map(|(i, f)| f.operational.as_ref().ok().cloned().map(|op| (i, op)))
                .collect();
            let emb_bases: Vec<EmbodiedEstimate> = slice
                .footprints
                .iter()
                .filter_map(|f| f.embodied.as_ref().ok().cloned())
                .collect();
            match session.operational_draws(name) {
                Some(got) => {
                    prop_assert!(!op_bases.is_empty());
                    let reference = plan.operational_draws(&op_bases);
                    prop_assert_eq!(got, reference.as_slice());
                }
                None => prop_assert!(op_bases.is_empty(), "draws dropped despite coverage"),
            }
            match session.embodied_draws(name) {
                Some(got) => {
                    prop_assert!(!emb_bases.is_empty());
                    let reference = plan.embodied_draws(&emb_bases);
                    prop_assert_eq!(got, reference.as_slice());
                }
                None => prop_assert!(emb_bases.is_empty(), "draws dropped despite coverage"),
            }
        }
        let streamed = Assessment::stream(InMemoryChunks::new(&list, rows_per_chunk))
            .workers(workers)
            .scenarios(&matrix)
            .uncertainty(draws)
            .seed(seed)
            .run()
            .expect("in-memory chunks cannot fail");
        for name in ["full", "masked"] {
            prop_assert_eq!(streamed.operational_draws(name), session.operational_draws(name));
            prop_assert_eq!(streamed.embodied_draws(name), session.embodied_draws(name));
        }
    }
}

// ------------------------------------------------------------ parallelism

proptest! {
    #[test]
    fn split_ranges_is_a_partition(len in 0usize..10_000, parts in 0usize..64) {
        let ranges = top500_carbon::parallel::split_ranges(len, parts);
        let mut covered = 0usize;
        for (i, r) in ranges.iter().enumerate() {
            prop_assert_eq!(r.start, covered, "range {} not contiguous", i);
            prop_assert!(!r.is_empty());
            covered = r.end;
        }
        if len > 0 && parts > 0 {
            prop_assert_eq!(covered, len);
        }
    }
}

// ----------------------------------------------------------------- bitset

proptest! {
    /// `for_each_set_bit` swept word-by-word visits exactly the set
    /// indices, each once, in strictly ascending order — the contract the
    /// columnar kernels lean on when they walk presence masks.
    #[test]
    fn bitset_word_sweep_visits_exactly_the_set_indices_ascending(
        len in 0usize..200,
        raw in prop::collection::vec(0usize..256, 0..80)
    ) {
        let mut expect: Vec<usize> = raw.into_iter().filter(|&i| i < len).collect();
        expect.sort_unstable();
        expect.dedup();
        let mut b = top500_carbon::frame::bitset::Bitset::new(len);
        for &i in &expect {
            b.set(i);
        }
        prop_assert_eq!(b.count_ones(), expect.len());
        let mut visited = Vec::new();
        for w in 0..b.words().len() {
            top500_carbon::frame::bitset::for_each_set_bit(b.word(w), w * 64, |i| {
                visited.push(i);
            });
        }
        prop_assert_eq!(&visited, &expect);
        for i in 0..len {
            prop_assert_eq!(b.get(i), expect.binary_search(&i).is_ok(), "bit {}", i);
        }
        // Bits past `len` in the tail word are never set.
        if len % 64 != 0 {
            let tail = b.word(len / 64);
            prop_assert_eq!(tail >> (len % 64), 0, "tail past len must stay zero");
        }
    }
}

// ------------------------------------------------------- running fold

proptest! {
    #[test]
    fn absorb_over_any_adjacent_chunking_is_the_serial_left_fold(
        n in 1u32..48,
        seed in 0u64..1_000,
        chunk in 1usize..64,
        draws in 1usize..7,
        mask in arb_mask(),
    ) {
        // The fold's determinism contract at property scale: one consumer
        // absorbing any adjacent chunking finishes to the term-level
        // serial left fold, bit for bit — totals, counts and draw slots.
        let list = generate_full(&SyntheticConfig { n, seed, ..Default::default() });
        let scenario = DataScenario::masked("prop", mask);
        let tool = EasyC::new();
        let fps: Vec<SystemFootprint> = list
            .systems()
            .iter()
            .map(|r| tool.assess_scenario(r, &scenario))
            .collect();
        // Deterministic synthetic Monte-Carlo term for (row, slot) —
        // stands in for the blocked draw kernels' per-sample `*slot += t`.
        let term = |row: usize, slot: usize| ((row * 37 + slot * 11 + 5) as f64).sqrt() * 0.25;

        // The serial reference: the exact running `+=` loop the engine
        // used to carry, term by term in rank order.
        let (mut op_ref, mut emb_ref) = (0.0f64, 0.0f64);
        let (mut op_cov, mut emb_cov) = (0usize, 0usize);
        let mut slot_ref = vec![0.0f64; draws];
        for (row, fp) in fps.iter().enumerate() {
            if let Ok(o) = &fp.operational {
                op_cov += 1;
                op_ref += o.mt_co2e;
            }
            if let Ok(e) = &fp.embodied {
                emb_cov += 1;
                emb_ref += e.mt_co2e;
            }
            for (slot, acc) in slot_ref.iter_mut().enumerate() {
                *acc += term(row, slot);
            }
        }

        let mut single = PartialAssessment::identity(draws);
        let mut row = 0usize;
        for block in fps.chunks(chunk) {
            single.absorb(row, block);
            let (op_slots, _emb_slots) = single.draw_slots();
            for local in 0..block.len() {
                for (slot, acc) in op_slots.iter_mut().enumerate() {
                    *acc += term(row + local, slot);
                }
            }
            row += block.len();
        }
        let single = single.finish();
        prop_assert_eq!(single.total, fps.len());
        prop_assert_eq!(single.op_covered, op_cov);
        prop_assert_eq!(single.emb_covered, emb_cov);
        prop_assert_eq!(single.op_errors, fps.len() - op_cov);
        prop_assert_eq!(single.operational_mt.to_bits(), op_ref.to_bits());
        prop_assert_eq!(single.embodied_mt.to_bits(), emb_ref.to_bits());
        if op_cov > 0 {
            prop_assert_eq!(single.op_draws.len(), draws);
            for (got, want) in single.op_draws.iter().zip(&slot_ref) {
                prop_assert_eq!(got.to_bits(), want.to_bits());
            }
        } else {
            prop_assert!(single.op_draws.is_empty());
        }
    }

    #[test]
    fn csv_stream_bit_identical_to_in_memory_session(
        n in 1u32..40,
        seed in 0u64..1_000,
        rows_per_chunk in 1usize..48,
        workers in 1usize..4,
        mask in arb_mask(),
        stray in prop::option::of((0usize..4, 0usize..40, 0usize..3)),
    ) {
        // The chunked CSV stream must reproduce the in-memory session over
        // the whole-file import exactly: coverage, totals, both interval
        // families, retained draw vectors, and compare deltas, for any
        // fleet, seed, chunk budget, worker count and availability mask —
        // and with a stray token in one numeric cell, which must read as
        // missing in that cell alone, whatever the chunking.
        let list = generate_full(&SyntheticConfig { n, seed, ..Default::default() });
        let mut text = export_csv(&list);
        if let Some((token, row, from_end)) = stray {
            // `annual_energy_mwh`, `utilization` and `ssd_gb` are the last
            // three fields of a data line, all numeric.
            let token = ["unknown", "n/a", "NaN", "inf"][token];
            let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
            let line = &mut lines[1 + row % n as usize];
            let mut fields: Vec<&str> = line.rsplitn(4, ',').collect();
            fields[from_end] = token;
            let edited = fields.into_iter().rev().collect::<Vec<_>>().join(",");
            *line = edited;
            text = lines.join("\n") + "\n";
        }
        let matrix = ScenarioMatrix::new()
            .with(DataScenario::full("full"))
            .with(DataScenario::masked("masked", mask));
        let imported = import_csv(&text).unwrap();
        let session = Assessment::of(&imported)
            .workers(workers)
            .scenarios(&matrix)
            .uncertainty(24)
            .seed(seed)
            .run();
        let streamed = Assessment::stream(stream_csv(text.as_bytes(), rows_per_chunk))
            .workers(workers)
            .scenarios(&matrix)
            .uncertainty(24)
            .seed(seed)
            .run()
            .expect("CSV stream");
        prop_assert_eq!(streamed.systems(), imported.len());
        for (s, m) in streamed.slices().iter().zip(session.slices()) {
            prop_assert_eq!(s.coverage, m.coverage);
            let mut op = 0.0;
            let mut emb = 0.0;
            for fp in &m.footprints {
                if let Ok(o) = &fp.operational { op += o.mt_co2e; }
                if let Ok(e) = &fp.embodied { emb += e.mt_co2e; }
            }
            prop_assert_eq!(s.operational_total_mt.to_bits(), op.to_bits());
            prop_assert_eq!(s.embodied_total_mt.to_bits(), emb.to_bits());
            prop_assert_eq!(
                s.operational_total_mt.to_bits(),
                m.operational_total_mt.to_bits()
            );
            prop_assert_eq!(s.embodied_total_mt.to_bits(), m.embodied_total_mt.to_bits());
            let name = s.scenario.name.as_str();
            prop_assert_eq!(s.interval, session.interval(name));
            prop_assert_eq!(s.embodied_interval, session.embodied_interval(name));
        }
        prop_assert_eq!(
            streamed.compare("full", "masked"),
            session.compare("full", "masked")
        );
        for name in ["full", "masked"] {
            prop_assert_eq!(streamed.operational_draws(name), session.operational_draws(name));
            prop_assert_eq!(streamed.embodied_draws(name), session.embodied_draws(name));
        }
    }
}

// ------------------------------------------------ incremental updates

proptest! {
    /// `FleetState::update_rows` — the O(k) splice and footprint-cache
    /// repair — is bit-identical to a cold `Assessment` over the
    /// edited fleet: per-system footprint bits, both interval families and
    /// the paired comparison, for any fleet, seed, mask and touched range,
    /// with and without a warm cache.
    #[test]
    fn incremental_update_rows_matches_a_cold_rerun(
        n in 2u32..36,
        seed in 0u64..500,
        draws in 1usize..25,
        mask in arb_mask(),
        start_pick in 0usize..10_000,
        len_pick in 1usize..6,
        bump in 1u32..50,
        warm_pick in 0usize..2,
    ) {
        let warm = warm_pick == 1;
        let list = generate_full(&SyntheticConfig { n, seed, ..Default::default() });
        let config = EasyCConfig::default();
        let mut state = FleetState::from_list(list.clone(), config);
        if warm {
            state.warm();
        }
        let matrix = ScenarioMatrix::new()
            .with(DataScenario::full("full"))
            .with(DataScenario::masked("masked", mask));
        let query = |state: &FleetState| {
            state
                .query()
                .scenarios(&matrix)
                .uncertainty(draws)
                .seed(seed)
                .workers(2)
                .run()
        };
        // Two draws queries before the splice cache the noise matrix (a
        // key's first query only remembers the key) that the query after
        // it reads: the noise depends on no row content.
        query(&state);
        query(&state);
        let len = state.len();
        let first = start_pick % len;
        let k = len_pick.min(len - first);
        let mut rows: Vec<SystemRecord> = list.systems()[first..first + k].to_vec();
        for (i, r) in rows.iter_mut().enumerate() {
            // A footprint-changing edit that keeps the position's rank.
            r.power_kw = Some(1000.0 + f64::from(bump) * 25.0 + i as f64);
            r.rmax_tflops *= 1.0 + f64::from(bump) / 100.0;
        }
        state.update_rows(first, rows.clone()).expect("rank-preserving splice");
        prop_assert_eq!(state.is_warm(), warm);
        let incremental = query(&state);

        // Cold reference: a fresh session over the edited fleet.
        let mut edited = list.systems().to_vec();
        edited[first..first + k].clone_from_slice(&rows);
        let cold_list = Top500List::new(edited);
        let cold = Assessment::of(&cold_list)
            .scenarios(&matrix)
            .uncertainty(draws)
            .seed(seed)
            .workers(2)
            .run();

        for (w, c) in incremental.slices().iter().zip(cold.slices()) {
            prop_assert_eq!(w.coverage, c.coverage);
            prop_assert_eq!(w.footprints.len(), c.footprints.len());
            for (x, y) in w.footprints.iter().zip(&c.footprints) {
                match (&x.operational, &y.operational) {
                    (Ok(a), Ok(b)) => prop_assert_eq!(a.mt_co2e.to_bits(), b.mt_co2e.to_bits()),
                    (Err(_), Err(_)) => {}
                    other => prop_assert!(false, "operational divergence: {other:?}"),
                }
                match (&x.embodied, &y.embodied) {
                    (Ok(a), Ok(b)) => prop_assert_eq!(a.mt_co2e.to_bits(), b.mt_co2e.to_bits()),
                    (Err(_), Err(_)) => {}
                    other => prop_assert!(false, "embodied divergence: {other:?}"),
                }
            }
        }
        for name in ["full", "masked"] {
            prop_assert_eq!(incremental.interval(name), cold.interval(name));
            prop_assert_eq!(
                incremental.embodied_interval(name),
                cold.embodied_interval(name)
            );
        }
        prop_assert_eq!(
            incremental.compare("full", "masked"),
            cold.compare("full", "masked")
        );

        // The repaired cache folds to the cold run's first slice.
        if warm {
            let repaired = state.cached_totals().expect("still warm");
            let reference = &cold.slices()[0];
            prop_assert_eq!(
                repaired.operational_mt.to_bits(),
                reference.operational_total_mt.to_bits()
            );
            prop_assert_eq!(
                repaired.embodied_mt.to_bits(),
                reference.embodied_total_mt.to_bits()
            );
            prop_assert_eq!(repaired.op_covered, reference.coverage.operational);
            prop_assert_eq!(repaired.emb_covered, reference.coverage.embodied);
            prop_assert_eq!(repaired.total, reference.coverage.total);
        }
    }
}

// ------------------------------------------- one plan, three sources

/// The configurations the three-way property draws from: the default, a
/// PUE override, and both prior overrides at once.
fn config_of(pick: usize) -> EasyCConfig {
    let base = EasyCConfig::default();
    match pick % 3 {
        0 => base,
        1 => EasyCConfig {
            pue_override: Some(1.3),
            ..base
        },
        _ => EasyCConfig {
            pue_override: Some(1.7),
            utilization_override: Some(0.6),
            ..base
        },
    }
}

proptest! {
    /// One `Assessment` plan over its three sources — a borrowed list, a
    /// chunk source, and a resident `FleetState` (cold, and warm under its
    /// own default) — returns the same coverage, totals bits, intervals,
    /// retained draw vectors and paired deltas, with footprints equal
    /// wherever the source keeps them. A query given a `.config(..)` that
    /// differs from the state's own must recompute rather than serve the
    /// warm default cache, so the non-default configurations also run
    /// against a state warmed under the default one.
    #[test]
    fn list_stream_and_state_sources_agree_bit_for_bit(
        n in 1u32..40,
        seed in 0u64..1_000,
        chunk_rows in 1usize..64,
        mask in arb_mask(),
        draws_pick in 0usize..2,
        k in 1usize..24,
        workers in 1usize..4,
        config_pick in 0usize..3,
    ) {
        let draws = if draws_pick == 0 { 0 } else { k };
        // A later state query at fewer draws must not read the matrix
        // cached for `draws`.
        let fewer = draws / 2;
        let config = config_of(config_pick);
        let list = generate_full(&SyntheticConfig { n, seed, ..Default::default() });
        let matrix = ScenarioMatrix::new()
            .with(DataScenario::full("full"))
            .with(DataScenario::masked("masked", mask));
        let reference_of = |draws: usize| {
            Assessment::of(&list)
                .config(config)
                .workers(workers)
                .scenarios(&matrix)
                .uncertainty(draws)
                .seed(seed)
                .run()
        };
        let reference = reference_of(draws);
        let fewer_reference = reference_of(fewer);
        let streamed = Assessment::stream(InMemoryChunks::new(&list, chunk_rows))
            .config(config)
            .workers(workers)
            .scenarios(&matrix)
            .uncertainty(draws)
            .seed(seed)
            .run()
            .expect("in-memory chunks cannot fail");
        // A state under the default configuration, queried with `config`:
        // cold, then warm (its cache may serve only a default config). Its
        // first draws query remembers the noise key, the second fills and
        // caches the matrix, the warm one reads it, and the last, at fewer
        // draws, has a key of its own.
        let mut default_state = FleetState::from_list(list.clone(), EasyCConfig::default());
        let query = |state: &FleetState, draws: usize| {
            state
                .query()
                .config(config)
                .workers(workers)
                .scenarios(&matrix)
                .uncertainty(draws)
                .seed(seed)
                .run()
        };
        let state_cold = query(&default_state, draws);
        let state_cold_again = query(&default_state, draws);
        default_state.warm();
        let state_warm = query(&default_state, draws);
        let state_fewer = query(&default_state, fewer);
        // A state planned under `config` itself, warm: its cache serves
        // the full scenario whatever the configuration.
        let mut own_state = FleetState::from_list(list.clone(), config);
        own_state.warm();
        let own_query = |draws: usize| {
            own_state
                .query()
                .workers(workers)
                .scenarios(&matrix)
                .uncertainty(draws)
                .seed(seed)
                .run()
        };
        let own_warm = own_query(draws);
        let own_warm_again = own_query(draws);
        let own_warm_cached = own_query(draws);
        let own_fewer = own_query(fewer);

        for (label, got, keeps_footprints, reference) in [
            ("stream", &streamed, false, &reference),
            ("state cold", &state_cold, true, &reference),
            ("state cold, filling noise", &state_cold_again, true, &reference),
            ("state warm, cached noise", &state_warm, true, &reference),
            ("state warm, fewer draws", &state_fewer, true, &fewer_reference),
            ("own-config state warm", &own_warm, true, &reference),
            ("own-config state, filling noise", &own_warm_again, true, &reference),
            ("own-config state, cached noise", &own_warm_cached, true, &reference),
            ("own-config state, fewer draws", &own_fewer, true, &fewer_reference),
        ] {
            prop_assert_eq!(got.systems(), reference.systems(), "{}", label);
            prop_assert_eq!(got.len(), reference.len(), "{}", label);
            for (g, r) in got.slices().iter().zip(reference.slices()) {
                let name = r.scenario.name.as_str();
                prop_assert_eq!(&g.scenario, &r.scenario, "{}", label);
                prop_assert_eq!(g.coverage, r.coverage, "{} `{}`", label, name);
                prop_assert_eq!(
                    g.operational_total_mt.to_bits(),
                    r.operational_total_mt.to_bits(),
                    "{} `{}`", label, name
                );
                prop_assert_eq!(
                    g.embodied_total_mt.to_bits(),
                    r.embodied_total_mt.to_bits(),
                    "{} `{}`", label, name
                );
                prop_assert_eq!(g.interval, r.interval, "{} `{}`", label, name);
                prop_assert_eq!(g.embodied_interval, r.embodied_interval, "{} `{}`", label, name);
                if keeps_footprints {
                    prop_assert_eq!(&g.footprints, &r.footprints, "{} `{}`", label, name);
                } else {
                    prop_assert!(g.footprints.is_empty(), "{} keeps no footprints", label);
                }
                prop_assert_eq!(
                    got.operational_draws(name),
                    reference.operational_draws(name),
                    "{} `{}`", label, name
                );
                prop_assert_eq!(
                    got.embodied_draws(name),
                    reference.embodied_draws(name),
                    "{} `{}`", label, name
                );
            }
            prop_assert_eq!(
                got.compare("full", "masked"),
                reference.compare("full", "masked"),
                "{}", label
            );
        }
        prop_assert_eq!(reference.slices()[0].footprints.len(), list.len());
        prop_assert_eq!(reference.compare("full", "masked").is_some(), draws > 0);
    }
}
