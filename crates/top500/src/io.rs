//! CSV import/export for Top500-style system lists.
//!
//! top500.org exports its list as CSV; a site that licenses the real data
//! (or any federation keeping its own inventory) can feed it straight into
//! the pipeline through this module. The schema is a pragmatic superset of
//! the top500.org export: unknown columns are ignored, absent columns mean
//! "item not reported" — which is exactly the missingness the study models.
//!
//! Reading is typed: [`CsvFleetReader`] maps the header onto [`COLUMNS`]
//! once (`frame::csv::Header`), then parses each record of `frame::csv`'s
//! tokenizer straight into a [`SystemRecord`]. A text column is taken
//! verbatim, a numeric one is read by `frame::csv::number` on its own;
//! nothing is inferred from the rest of the column. [`import_csv`] is that
//! reader drained into one list, and [`export_csv`] writes with
//! `frame::csv`'s escape rule, so `import_csv(&export_csv(&list))` gives
//! `list` back, with two exceptions the reading dialect forces on text
//! fields: a `\r\n` inside text comes back as `\n` (one `\r` is stripped
//! from every raw line), and text with a newline followed by a line whose
//! first non-blank character is `#` does not read back as written (that
//! line is a comment, and the quote closing the field goes with it).

use crate::list::Top500List;
use crate::record::SystemRecord;
use crate::stream::FleetChunks;
use frame::csv::{self, number};
use frame::FrameError;
use std::fmt::{Display, Write as _};
use std::io::BufRead;

/// Column names recognised by the importer (case-sensitive, snake_case).
pub const COLUMNS: [&str; 21] = [
    "rank",
    "name",
    "country",
    "region",
    "year",
    "vendor",
    "processor",
    "total_cores",
    "accelerator",
    "accelerator_count",
    "rmax_tflops",
    "rpeak_tflops",
    "nmax",
    "power_kw",
    "node_count",
    "cpu_count",
    "memory_gb",
    "memory_type",
    "ssd_gb",
    "utilization",
    "annual_energy_mwh",
];

/// Import error: structural problems with the CSV.
#[derive(Debug, Clone, PartialEq)]
pub enum ImportError {
    /// The CSV itself failed to parse.
    Csv(FrameError),
    /// A required column is absent.
    MissingColumn(&'static str),
    /// A row had no usable rank or Rmax.
    BadRow {
        /// 0-based row index within the data rows.
        row: usize,
        /// What was wrong.
        message: String,
    },
}

impl std::fmt::Display for ImportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ImportError::Csv(e) => write!(f, "CSV error: {e}"),
            ImportError::MissingColumn(c) => write!(f, "required column `{c}` missing"),
            ImportError::BadRow { row, message } => write!(f, "row {row}: {message}"),
        }
    }
}

impl std::error::Error for ImportError {}

impl From<FrameError> for ImportError {
    fn from(e: FrameError) -> ImportError {
        ImportError::Csv(e)
    }
}

fn count(cell: &str) -> Option<u64> {
    number(cell).filter(|v| *v >= 0.0).map(|v| v as u64)
}

/// A text cell, verbatim; an empty cell is missing.
fn text(cell: &str) -> Option<String> {
    (!cell.is_empty()).then(|| cell.to_string())
}

/// Converts one data row, its cells in [`COLUMNS`] order (`""` where the
/// file has no such column), into a record. `row` is the global 0-based
/// data-row index reported in errors.
fn system_of(cells: [&str; COLUMNS.len()], row: usize) -> Result<SystemRecord, ImportError> {
    let [rank, name, country, region, year, vendor, processor, total_cores, accelerator, accelerator_count, rmax_tflops, rpeak_tflops, nmax, power_kw, node_count, cpu_count, memory_gb, memory_type, ssd_gb, utilization, annual_energy_mwh] =
        cells;
    let bad = |message: String| ImportError::BadRow { row, message };
    // A rank or year past `u32::MAX` is an error, never wrapped.
    let fit = |column: &str, cell: &str, value: u64| {
        u32::try_from(value).map_err(|_| bad(format!("{column} `{cell}` is out of range")))
    };
    let rank = fit(
        "rank",
        rank,
        count(rank).ok_or_else(|| bad("rank not a number".into()))?,
    )?;
    let year = count(year).map(|y| fit("year", year, y)).transpose()?;
    let rmax = number(rmax_tflops)
        .filter(|v| *v > 0.0)
        .ok_or_else(|| bad("rmax_tflops missing or non-positive".into()))?;
    let country = text(country);
    // An explicit region wins over the country-derived default (it is the
    // only location signal anonymous systems carry).
    let region = hwdb::grid::Region::parse(region)
        .or_else(|| country.as_deref().and_then(hwdb::grid::country_region));
    Ok(SystemRecord {
        rank,
        name: text(name),
        country,
        region,
        year,
        vendor: text(vendor),
        processor: text(processor),
        total_cores: count(total_cores),
        accelerator: text(accelerator),
        accelerator_count: count(accelerator_count),
        rmax_tflops: rmax,
        rpeak_tflops: number(rpeak_tflops).unwrap_or(rmax * 1.4),
        nmax: count(nmax),
        power_kw: number(power_kw),
        node_count: count(node_count),
        cpu_count: count(cpu_count),
        memory_gb: number(memory_gb),
        memory_type: text(memory_type),
        ssd_gb: number(ssd_gb),
        utilization: number(utilization),
        annual_energy_mwh: number(annual_energy_mwh),
    })
}

/// Parses a Top500-style CSV into a list. `rank` and `rmax_tflops` are
/// required (an empty or comment-only file has neither); everything else
/// is optional and becomes a missing item, as does a numeric cell holding
/// anything but a finite number. This is [`stream_csv`] drained as one
/// chunk.
pub fn import_csv(text: &str) -> Result<Top500List, ImportError> {
    // An unbounded budget reads the whole file as one chunk, and a file
    // without a header record is an error, so the first call answers.
    stream_csv(text.as_bytes(), usize::MAX)
        .next_chunk()
        .unwrap_or_else(|| Ok(Top500List::default()))
}

/// Streams a Top500-schema CSV as bounded [`Top500List`] chunks — the
/// larger-than-memory counterpart of [`import_csv`], implementing
/// [`FleetChunks`] for the incremental assessment session.
///
/// `#` lines are comments. The header is checked before any row: it must
/// exist and name `rank` and `rmax_tflops`, and no name may repeat. Each
/// cell is then read on its own (text verbatim, a non-finite or
/// non-numeric number missing), so a file imports the same whatever the
/// chunk budget. One caveat bounds the equivalence with a whole-file
/// import: rows must be rank-ordered (each chunk is sorted by rank on its
/// own, like any [`Top500List`], but chunks are emitted in file order).
/// After the first error the reader is fused.
#[derive(Debug)]
pub struct CsvFleetReader<R> {
    records: csv::Tokenizer<R>,
    rows_per_chunk: usize,
    /// The header mapped onto [`COLUMNS`], once, from the first record.
    header: Option<csv::Header<'static, { COLUMNS.len() }>>,
    rows_seen: usize,
    emitted_any: bool,
    fused: bool,
}

/// Opens a chunked CSV stream over any buffered reader, `rows_per_chunk`
/// data rows at a time (a budget of 0 is treated as 1).
pub fn stream_csv<R: BufRead>(input: R, rows_per_chunk: usize) -> CsvFleetReader<R> {
    CsvFleetReader {
        records: csv::Tokenizer::new(input).strip_comments(),
        rows_per_chunk: rows_per_chunk.max(1),
        header: None,
        rows_seen: 0,
        emitted_any: false,
        fused: false,
    }
}

impl<R: BufRead> CsvFleetReader<R> {
    /// Reads the header record and maps it onto [`COLUMNS`].
    fn header(&mut self) -> Result<csv::Header<'static, { COLUMNS.len() }>, ImportError> {
        let record = self
            .records
            .next_record()?
            .ok_or(ImportError::MissingColumn("rank"))?;
        let header = csv::Header::map(&record, &COLUMNS)?;
        for required in ["rank", "rmax_tflops"] {
            if !header.has(required) {
                return Err(ImportError::MissingColumn(required));
            }
        }
        Ok(header)
    }

    fn advance(&mut self) -> Option<Result<Top500List, ImportError>> {
        if self.header.is_none() {
            match self.header() {
                Ok(header) => self.header = Some(header),
                Err(e) => return Some(Err(e)),
            }
        }
        let header = self.header.as_ref()?;
        let mut systems = Vec::new();
        while systems.len() < self.rows_per_chunk {
            let record = match self.records.next_record() {
                Ok(Some(record)) => record,
                Ok(None) => break,
                Err(e) => return Some(Err(e.into())),
            };
            let cells = match header.cells(&record) {
                Ok(cells) => cells,
                Err(e) => return Some(Err(e.into())),
            };
            match system_of(cells, self.rows_seen + systems.len()) {
                Ok(system) => systems.push(system),
                Err(e) => return Some(Err(e)),
            }
        }
        if systems.is_empty() && self.emitted_any {
            return None;
        }
        self.emitted_any = true;
        self.rows_seen += systems.len();
        Some(Ok(Top500List::new(systems)))
    }
}

impl<R: BufRead> FleetChunks for CsvFleetReader<R> {
    type Error = ImportError;

    fn next_chunk(&mut self) -> Option<Result<Top500List, ImportError>> {
        if self.fused {
            return None;
        }
        let result = self.advance();
        if matches!(result, Some(Err(_)) | None) {
            self.fused = true;
        }
        result
    }
}

/// Serialises a list back to the canonical CSV schema (all columns, empty
/// fields for missing items), text escaped by `frame::csv::escape_into`.
/// `import_csv(export_csv(list))` round-trips, except for text holding
/// `\r\n` or a newline followed by a `#`-led line (see the module docs).
pub fn export_csv(list: &Top500List) -> String {
    let mut out = COLUMNS.join(",");
    out.push('\n');
    for s in list.systems() {
        // Writing into a `String` cannot fail.
        let _ = write!(out, "{}", s.rank);
        push_text(&mut out, &s.name);
        push_text(&mut out, &s.country);
        out.push(',');
        if let Some(region) = s.region {
            out.push_str(region.as_str());
        }
        push_number(&mut out, s.year);
        push_text(&mut out, &s.vendor);
        push_text(&mut out, &s.processor);
        push_number(&mut out, s.total_cores);
        push_text(&mut out, &s.accelerator);
        push_number(&mut out, s.accelerator_count);
        push_number(&mut out, Some(s.rmax_tflops));
        push_number(&mut out, Some(s.rpeak_tflops));
        push_number(&mut out, s.nmax);
        push_number(&mut out, s.power_kw);
        push_number(&mut out, s.node_count);
        push_number(&mut out, s.cpu_count);
        push_number(&mut out, s.memory_gb);
        push_text(&mut out, &s.memory_type);
        push_number(&mut out, s.ssd_gb);
        push_number(&mut out, s.utilization);
        push_number(&mut out, s.annual_energy_mwh);
        out.push('\n');
    }
    out
}

/// Appends a separator and the value's `Display` (nothing when missing).
fn push_number<T: Display>(out: &mut String, value: Option<T>) {
    out.push(',');
    if let Some(value) = value {
        let _ = write!(out, "{value}");
    }
}

fn push_text(out: &mut String, value: &Option<String>) {
    out.push(',');
    if let Some(text) = value {
        csv::escape_into(out, text);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::{generate_full, mask_baseline, MaskRates, SyntheticConfig};

    #[test]
    fn minimal_csv_imports() {
        let list = import_csv("rank,rmax_tflops\n1,1000\n2,500\n").unwrap();
        assert_eq!(list.len(), 2);
        assert_eq!(list.by_rank(1).unwrap().rmax_tflops, 1000.0);
        // Rpeak defaulted.
        assert!(list.by_rank(2).unwrap().rpeak_tflops > 500.0);
    }

    #[test]
    fn full_schema_imports() {
        let text = "rank,name,country,processor,total_cores,accelerator,accelerator_count,rmax_tflops,power_kw,node_count\n\
                    1,Frontier,United States,AMD EPYC 64C 2GHz,8699904,AMD Instinct MI250X,37632,1353000,22786,9408\n";
        let list = import_csv(text).unwrap();
        let s = list.by_rank(1).unwrap();
        assert_eq!(s.name.as_deref(), Some("Frontier"));
        assert_eq!(s.accelerator_count, Some(37632));
        assert_eq!(s.power_kw, Some(22786.0));
        assert!(s.region.is_some(), "region derived from country");
    }

    #[test]
    fn missing_required_column_fails() {
        assert_eq!(
            import_csv("name\nfoo\n").unwrap_err(),
            ImportError::MissingColumn("rank")
        );
        assert_eq!(
            import_csv("rank\n1\n").unwrap_err(),
            ImportError::MissingColumn("rmax_tflops")
        );
    }

    #[test]
    fn bad_rmax_is_row_error() {
        let err = import_csv("rank,rmax_tflops\n1,-5\n").unwrap_err();
        assert!(matches!(err, ImportError::BadRow { row: 0, .. }));
    }

    #[test]
    fn rank_or_year_past_u32_is_a_row_error_in_both_readers() {
        // `4294967297` is `u32::MAX + 2`: a wrapping cast read it as 1.
        for (text, column) in [
            (
                "rank,name,rmax_tflops\n1,alpha,100\n4294967297,beta,50\n",
                "rank",
            ),
            (
                "rank,rmax_tflops,year\n1,100,2020\n2,50,4294967297\n",
                "year",
            ),
        ] {
            let err = import_csv(text).unwrap_err();
            assert!(matches!(err, ImportError::BadRow { row: 1, .. }), "{err}");
            assert!(err.to_string().contains(column), "{err}");
            assert!(err.to_string().contains("4294967297"), "{err}");
            for rows in [1, usize::MAX] {
                assert_eq!(stream_all(text, rows).unwrap_err(), err, "rows {rows}");
            }
        }
        // `u32::MAX` itself still fits.
        let list = import_csv("rank,rmax_tflops,year\n4294967295,1,4294967295\n").unwrap();
        assert_eq!(list.systems()[0].rank, u32::MAX);
        assert_eq!(list.systems()[0].year, Some(u32::MAX));
    }

    #[test]
    fn roundtrip_preserves_records() {
        let full = generate_full(&SyntheticConfig {
            n: 50,
            ..Default::default()
        });
        let masked = mask_baseline(&full, &MaskRates::default(), 3);
        let back = import_csv(&export_csv(&masked)).unwrap();
        assert_eq!(back.len(), masked.len());
        for (a, b) in masked.systems().iter().zip(back.systems()) {
            assert_eq!(a.rank, b.rank);
            assert_eq!(a.name, b.name);
            assert_eq!(a.node_count, b.node_count);
            assert_eq!(a.accelerator, b.accelerator);
            assert_eq!(a.power_kw, b.power_kw);
            assert_eq!(a.memory_gb, b.memory_gb);
            assert_eq!(a.utilization, b.utilization);
        }
    }

    #[test]
    fn quoted_names_with_commas_roundtrip() {
        let mut s = SystemRecord::bare(1, 100.0, 140.0);
        s.name = Some("MareNostrum 5, ACC".into());
        let list = Top500List::new(vec![s]);
        let back = import_csv(&export_csv(&list)).unwrap();
        assert_eq!(
            back.by_rank(1).unwrap().name.as_deref(),
            Some("MareNostrum 5, ACC")
        );
    }

    #[test]
    fn unknown_columns_ignored() {
        let list = import_csv("rank,rmax_tflops,frobnication\n1,10,whatever\n").unwrap();
        assert_eq!(list.len(), 1);
    }

    // ---------------------------------------------------- streamed import

    fn stream_all(text: &str, rows: usize) -> Result<Vec<SystemRecord>, ImportError> {
        let mut reader = stream_csv(text.as_bytes(), rows);
        let mut all = Vec::new();
        while let Some(chunk) = reader.next_chunk() {
            all.extend(chunk?.systems().iter().cloned());
        }
        Ok(all)
    }

    #[test]
    fn streamed_import_matches_whole_file_import() {
        let full = generate_full(&SyntheticConfig {
            n: 60,
            ..Default::default()
        });
        let masked = mask_baseline(&full, &MaskRates::default(), 3);
        let text = export_csv(&masked);
        let whole = import_csv(&text).unwrap();
        for rows in [1usize, 7, 32, 60, 500] {
            let streamed = stream_all(&text, rows).unwrap();
            assert_eq!(streamed, whole.systems(), "rows {rows}");
        }
    }

    #[test]
    fn non_finite_cells_import_as_missing() {
        let csv = |bad: [&str; 4]| {
            format!(
                "rank,rmax_tflops,power_kw,memory_gb,ssd_gb,utilization,annual_energy_mwh,node_count\n\
                 1,1000,{0},512,10,0.8,{1},100\n\
                 2,900,500,{2},20,{0},4000,{3}\n\
                 3,800,400,256,{3},0.5,3000,{1}\n\
                 4,700,300,128,40,0.7,2000,50\n",
                bad[0], bad[1], bad[2], bad[3]
            )
        };
        let dirty = csv(["NaN", "inf", "-inf", "1e999"]);
        let clean = import_csv(&csv([""; 4])).unwrap();
        assert_eq!(import_csv(&dirty).unwrap().systems(), clean.systems());
        for rows in [1usize, 3] {
            let streamed = stream_all(&dirty, rows).unwrap();
            assert_eq!(streamed, clean.systems(), "rows {rows}");
        }
    }

    #[test]
    fn streamed_import_handles_comments_and_quotes() {
        let text =
            "# a template comment\nrank,name,rmax_tflops\n1,\"Mare, Nostrum\",100\n2,plain,50\n";
        let streamed = stream_all(text, 1).unwrap();
        assert_eq!(streamed.len(), 2);
        assert_eq!(streamed[0].name.as_deref(), Some("Mare, Nostrum"));
        assert_eq!(import_csv(text).unwrap().systems(), streamed);

        // An interior comment line and quoted fields spanning raw lines.
        let text = "# template comment\nrank,name,rmax_tflops\n1,\"Mare,\nNostrum\",100\n\
                    # interior comment\n2,plain,50\n3,\"also\nsplit\",25\n4,tail,10\n";
        let whole = import_csv(text).unwrap();
        assert_eq!(whole.len(), 4);
        assert_eq!(whole.systems()[0].name.as_deref(), Some("Mare,\nNostrum"));
        for rows in [1usize, 2, 3] {
            assert_eq!(
                stream_all(text, rows).unwrap(),
                whole.systems(),
                "rows {rows}"
            );
        }
    }

    #[test]
    fn streamed_import_missing_required_column_fails_on_first_chunk() {
        let mut reader = stream_csv("name\nfoo\nbar\n".as_bytes(), 1);
        assert_eq!(
            reader.next_chunk().unwrap().unwrap_err(),
            ImportError::MissingColumn("rank")
        );
        assert!(reader.next_chunk().is_none(), "reader must fuse");
    }

    #[test]
    fn streamed_import_reports_global_row_in_errors() {
        // Row 2 (0-based, third data row) is bad; with small chunks the
        // error must still carry the global index, like import_csv, and
        // no row after it may be delivered.
        let text = "rank,rmax_tflops\n1,10\n2,20\n3,-5\n4,40\n5,50\n";
        let whole_err = import_csv(text).unwrap_err();
        assert!(matches!(whole_err, ImportError::BadRow { row: 2, .. }));
        for rows in [1usize, 2, 4] {
            let mut reader = stream_csv(text.as_bytes(), rows);
            let mut delivered = Vec::new();
            let streamed_err = loop {
                match reader.next_chunk() {
                    Some(Ok(list)) => delivered.extend(list.systems().iter().map(|s| s.rank)),
                    Some(Err(e)) => break e,
                    None => panic!("rows {rows}: stream ended without the bad row"),
                }
            };
            assert_eq!(streamed_err, whole_err, "rows {rows}");
            assert!(
                reader.next_chunk().is_none(),
                "rows {rows}: fused after error"
            );
            assert!(
                delivered.iter().all(|&rank| rank < 3),
                "rows {rows}: {delivered:?}"
            );
        }
    }

    #[test]
    fn text_fields_round_trip_verbatim() {
        // Text that looks like a number or a boolean, or needs quoting,
        // must come back as written, whole-file and streamed alike.
        let texts = [
            "007",
            "1.50",
            "True",
            "false",
            "1e3",
            "Mare, Nostrum",
            "say \"hi\"",
            "two\nlines",
        ];
        let systems: Vec<SystemRecord> = texts
            .iter()
            .enumerate()
            .map(|(i, text)| {
                let mut s = SystemRecord::bare(i as u32 + 1, 100.0, 140.0);
                s.name = Some(text.to_string());
                s.vendor = Some(texts[texts.len() - 1 - i].to_string());
                s
            })
            .collect();
        let list = Top500List::new(systems);
        let text = export_csv(&list);
        assert_eq!(import_csv(&text).unwrap().systems(), list.systems());
        for rows in [1usize, 3] {
            assert_eq!(
                stream_all(&text, rows).unwrap(),
                list.systems(),
                "rows {rows}"
            );
        }

        // The two documented exceptions: one `\r` is stripped from every
        // raw line, so `\r\n` in text comes back as `\n`; and a `#`-led
        // line inside text is a comment, taking the closing quote with it.
        let named = |name: &str| {
            let mut s = SystemRecord::bare(1, 100.0, 140.0);
            s.name = Some(name.to_string());
            export_csv(&Top500List::new(vec![s]))
        };
        let text = named("a\r\nb");
        let mut expected = SystemRecord::bare(1, 100.0, 140.0);
        expected.name = Some("a\nb".into());
        assert_eq!(import_csv(&text).unwrap().systems(), [expected.clone()]);
        assert_eq!(stream_all(&text, 1).unwrap(), [expected]);
        let text = named("two\n# lines");
        let expected = ImportError::Csv(FrameError::Csv {
            line: 2,
            message: "unterminated quote".into(),
        });
        assert_eq!(import_csv(&text).unwrap_err(), expected);
        assert_eq!(stream_all(&text, 1).unwrap_err(), expected);
    }

    #[test]
    fn empty_or_comment_only_input_misses_rank() {
        for text in ["", "# only a comment\n", "#a\r\n  # b\n"] {
            assert_eq!(
                import_csv(text).unwrap_err(),
                ImportError::MissingColumn("rank"),
                "{text:?}"
            );
            let mut reader = stream_csv(text.as_bytes(), 4);
            assert_eq!(
                reader.next_chunk().unwrap().unwrap_err(),
                ImportError::MissingColumn("rank"),
                "{text:?}"
            );
            assert!(reader.next_chunk().is_none(), "{text:?}: fused");
        }
    }

    #[test]
    fn numeric_cells_read_as_i64_first_then_f64() {
        let list = import_csv("rank,rmax_tflops,power_kw,memory_gb\n1,10,-0,-0.0\n").unwrap();
        let s = &list.systems()[0];
        assert_eq!(s.power_kw.map(f64::to_bits), Some(0.0f64.to_bits()));
        assert_eq!(s.memory_gb.map(f64::to_bits), Some((-0.0f64).to_bits()));
    }

    #[test]
    fn duplicated_header_name_is_error() {
        let text = "rank,rmax_tflops,name,name\n1,10,a,b\n";
        let expected = ImportError::Csv(FrameError::DuplicateColumn("name".into()));
        assert_eq!(import_csv(text).unwrap_err(), expected);
        assert_eq!(stream_all(text, 1).unwrap_err(), expected);
    }

    #[test]
    fn streamed_import_header_only_is_empty_fleet() {
        let mut reader = stream_csv("rank,rmax_tflops\n".as_bytes(), 8);
        let first = reader.next_chunk().unwrap().unwrap();
        assert!(first.is_empty());
        assert!(reader.next_chunk().is_none());
    }
}
