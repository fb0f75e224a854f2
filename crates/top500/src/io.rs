//! CSV import/export for Top500-style system lists.
//!
//! top500.org exports its list as CSV; a site that licenses the real data
//! (or any federation keeping its own inventory) can feed it straight into
//! the pipeline through this module. The schema is a pragmatic superset of
//! the top500.org export: unknown columns are ignored, absent columns mean
//! "item not reported" — which is exactly the missingness the study models.

use crate::list::Top500List;
use crate::record::SystemRecord;
use crate::stream::FleetChunks;
use frame::{csv, DataFrame, FrameError, Value};
use std::io::BufRead;

/// Column names recognised by the importer (case-sensitive, snake_case).
pub const COLUMNS: &[&str] = &[
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

/// A numeric cell: a number, or text that parses as one. Anything that is
/// not a finite number (`NaN`, `inf`, an overflowing literal such as
/// `1e999`, a stray token such as `unknown`) reads as missing, like an
/// empty cell. A cell's value therefore never depends on how the CSV
/// reader typed the rest of its column (a whole file or one chunk).
fn opt_f64(df: &DataFrame, col: &str, row: usize) -> Option<f64> {
    let value = match df.value(col, row).ok()? {
        Value::Str(text) => text.parse::<f64>().ok(),
        other => other.as_f64(),
    };
    value.filter(|v| v.is_finite())
}

fn opt_u64(df: &DataFrame, col: &str, row: usize) -> Option<u64> {
    opt_f64(df, col, row)
        .filter(|v| *v >= 0.0)
        .map(|v| v as u64)
}

fn opt_str(df: &DataFrame, col: &str, row: usize) -> Option<String> {
    match df.value(col, row) {
        Ok(Value::Str(s)) if !s.is_empty() => Some(s),
        Ok(Value::I64(i)) => Some(i.to_string()),
        Ok(Value::F64(x)) => Some(x.to_string()),
        _ => None,
    }
}

/// Checks the two required columns are present.
fn check_required(df: &DataFrame) -> Result<(), ImportError> {
    for required in ["rank", "rmax_tflops"] {
        if !df.names().iter().any(|n| n == required) {
            return Err(ImportError::MissingColumn(if required == "rank" {
                "rank"
            } else {
                "rmax_tflops"
            }));
        }
    }
    Ok(())
}

/// Converts one parsed CSV row into a record. `row` indexes the frame,
/// `row_label` is the global 0-based data-row index reported in errors
/// (they differ when the frame is one chunk of a streamed file). Shared by
/// [`import_csv`] and [`CsvFleetReader`], so the row-conversion rules
/// cannot drift between the two paths.
fn row_to_record(
    df: &DataFrame,
    row: usize,
    row_label: usize,
) -> Result<SystemRecord, ImportError> {
    let has = |c: &str| df.names().iter().any(|n| n == c);
    let rank = opt_u64(df, "rank", row).ok_or_else(|| ImportError::BadRow {
        row: row_label,
        message: "rank not a number".into(),
    })?;
    let rmax = opt_f64(df, "rmax_tflops", row)
        .filter(|v| *v > 0.0)
        .ok_or_else(|| ImportError::BadRow {
            row: row_label,
            message: "rmax_tflops missing or non-positive".into(),
        })?;
    let rpeak = if has("rpeak_tflops") {
        opt_f64(df, "rpeak_tflops", row).unwrap_or(rmax * 1.4)
    } else {
        rmax * 1.4
    };
    let mut s = SystemRecord::bare(rank as u32, rmax, rpeak);
    if has("name") {
        s.name = opt_str(df, "name", row);
    }
    if has("country") {
        s.country = opt_str(df, "country", row);
        s.region = s.country.as_deref().and_then(hwdb::grid::country_region);
    }
    if has("region") {
        // Explicit region wins over the country-derived default (it is
        // the only location signal anonymous systems carry).
        if let Some(region) = opt_str(df, "region", row)
            .as_deref()
            .and_then(hwdb::grid::Region::parse)
        {
            s.region = Some(region);
        }
    }
    if has("year") {
        s.year = opt_u64(df, "year", row).map(|y| y as u32);
    }
    if has("vendor") {
        s.vendor = opt_str(df, "vendor", row);
    }
    if has("processor") {
        s.processor = opt_str(df, "processor", row);
    }
    if has("total_cores") {
        s.total_cores = opt_u64(df, "total_cores", row);
    }
    if has("accelerator") {
        s.accelerator = opt_str(df, "accelerator", row);
    }
    if has("accelerator_count") {
        s.accelerator_count = opt_u64(df, "accelerator_count", row);
    }
    if has("nmax") {
        s.nmax = opt_u64(df, "nmax", row);
    }
    if has("power_kw") {
        s.power_kw = opt_f64(df, "power_kw", row);
    }
    if has("node_count") {
        s.node_count = opt_u64(df, "node_count", row);
    }
    if has("cpu_count") {
        s.cpu_count = opt_u64(df, "cpu_count", row);
    }
    if has("memory_gb") {
        s.memory_gb = opt_f64(df, "memory_gb", row);
    }
    if has("memory_type") {
        s.memory_type = opt_str(df, "memory_type", row);
    }
    if has("ssd_gb") {
        s.ssd_gb = opt_f64(df, "ssd_gb", row);
    }
    if has("utilization") {
        s.utilization = opt_f64(df, "utilization", row);
    }
    if has("annual_energy_mwh") {
        s.annual_energy_mwh = opt_f64(df, "annual_energy_mwh", row);
    }
    Ok(s)
}

/// Parses a Top500-style CSV into a list. `rank` and `rmax_tflops` are
/// required; everything else is optional and becomes a missing item, as
/// does a numeric cell holding anything but a finite number.
pub fn import_csv(text: &str) -> Result<Top500List, ImportError> {
    // `#`-prefixed lines are comments (the `template` command emits them).
    let cleaned: String = text
        .lines()
        .filter(|l| !l.trim_start().starts_with('#'))
        .collect::<Vec<_>>()
        .join("\n");
    let df = csv::parse(&cleaned)?;
    check_required(&df)?;
    let mut systems = Vec::with_capacity(df.len());
    for row in 0..df.len() {
        systems.push(row_to_record(&df, row, row)?);
    }
    Ok(Top500List::new(systems))
}

/// Streams a Top500-schema CSV as bounded [`Top500List`] chunks — the
/// larger-than-memory counterpart of [`import_csv`], implementing
/// [`FleetChunks`] for the incremental assessment session.
///
/// The schema, comment handling (`#` lines) and per-row conversion are
/// exactly [`import_csv`]'s (one shared code path); the required-column
/// check runs on the first chunk. Each numeric cell is read on its own (a
/// non-finite or non-numeric value is missing), so a stray token imports
/// the same whole-file and streamed. One caveat bounds the equivalence
/// with a whole-file import: rows must be rank-ordered (each chunk is
/// sorted by rank on its own, like any [`Top500List`], but chunks are
/// emitted in file order). After the first error the reader is fused.
#[derive(Debug)]
pub struct CsvFleetReader<R> {
    chunks: csv::ChunkedReader<R>,
    rows_seen: usize,
    checked: bool,
    fused: bool,
}

/// Opens a chunked CSV stream over any buffered reader, `rows_per_chunk`
/// data rows at a time.
pub fn stream_csv<R: BufRead>(input: R, rows_per_chunk: usize) -> CsvFleetReader<R> {
    CsvFleetReader {
        chunks: csv::ChunkedReader::new(input, rows_per_chunk).strip_comments(),
        rows_seen: 0,
        checked: false,
        fused: false,
    }
}

impl<R: BufRead> FleetChunks for CsvFleetReader<R> {
    type Error = ImportError;

    fn next_chunk(&mut self) -> Option<Result<Top500List, ImportError>> {
        if self.fused {
            return None;
        }
        let df = match self.chunks.next_chunk()? {
            Ok(df) => df,
            Err(e) => {
                self.fused = true;
                return Some(Err(e.into()));
            }
        };
        if !self.checked {
            if let Err(e) = check_required(&df) {
                self.fused = true;
                return Some(Err(e));
            }
            self.checked = true;
        }
        let mut systems = Vec::with_capacity(df.len());
        for row in 0..df.len() {
            match row_to_record(&df, row, self.rows_seen + row) {
                Ok(s) => systems.push(s),
                Err(e) => {
                    self.fused = true;
                    return Some(Err(e));
                }
            }
        }
        self.rows_seen += df.len();
        Some(Ok(Top500List::new(systems)))
    }
}

/// Serialises a list back to the canonical CSV schema (all columns, empty
/// fields for missing items). `import_csv(export_csv(list))` round-trips.
pub fn export_csv(list: &Top500List) -> String {
    let mut out = COLUMNS.join(",");
    out.push('\n');
    for s in list.systems() {
        let quote = |v: &Option<String>| -> String {
            match v {
                Some(text) if text.contains(',') || text.contains('"') => {
                    format!("\"{}\"", text.replace('"', "\"\""))
                }
                Some(text) => text.clone(),
                None => String::new(),
            }
        };
        let num = |v: Option<f64>| v.map(|x| format!("{x}")).unwrap_or_default();
        let int = |v: Option<u64>| v.map(|x| x.to_string()).unwrap_or_default();
        let fields = [
            s.rank.to_string(),
            quote(&s.name),
            quote(&s.country),
            s.region.map(|r| r.as_str().to_string()).unwrap_or_default(),
            s.year.map(|y| y.to_string()).unwrap_or_default(),
            quote(&s.vendor),
            quote(&s.processor),
            int(s.total_cores),
            quote(&s.accelerator),
            int(s.accelerator_count),
            format!("{}", s.rmax_tflops),
            format!("{}", s.rpeak_tflops),
            int(s.nmax),
            num(s.power_kw),
            int(s.node_count),
            int(s.cpu_count),
            num(s.memory_gb),
            quote(&s.memory_type),
            num(s.ssd_gb),
            num(s.utilization),
            num(s.annual_energy_mwh),
        ];
        out.push_str(&fields.join(","));
        out.push('\n');
    }
    out
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
    fn streamed_import_header_only_is_empty_fleet() {
        let mut reader = stream_csv("rank,rmax_tflops\n".as_bytes(), 8);
        let first = reader.next_chunk().unwrap().unwrap();
        assert!(first.is_empty());
        assert!(reader.next_chunk().is_none());
    }
}
