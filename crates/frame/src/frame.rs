//! The [`DataFrame`] type: equal-length named columns with relational
//! operations sized for this study (hundreds to millions of rows).

use crate::column::{Column, Value};
use crate::error::{FrameError, Result};
use std::collections::HashMap;

/// An ordered set of named, equal-length, nullable columns.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DataFrame {
    names: Vec<String>,
    columns: Vec<Column>,
    rows: usize,
}

impl DataFrame {
    /// Creates an empty frame with no columns and no rows.
    pub fn new() -> DataFrame {
        DataFrame::default()
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows
    }

    /// True when the frame has no rows (it may still have columns).
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Number of columns.
    pub fn width(&self) -> usize {
        self.columns.len()
    }

    /// Column names in insertion order.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// Columns in insertion order (parallel to [`DataFrame::names`]).
    pub(crate) fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Adds a column. The first column fixes the row count; later columns
    /// must match it. Errors on duplicates and length mismatches.
    pub(crate) fn add_column(&mut self, name: impl Into<String>, column: Column) -> Result<()> {
        let name = name.into();
        if self.names.contains(&name) {
            return Err(FrameError::DuplicateColumn(name));
        }
        if self.columns.is_empty() {
            self.rows = column.len();
        } else if column.len() != self.rows {
            return Err(FrameError::LengthMismatch {
                column: name,
                got: column.len(),
                expected: self.rows,
            });
        }
        self.names.push(name);
        self.columns.push(column);
        Ok(())
    }

    /// Builder-style `add_column`.
    pub fn with_column(mut self, name: impl Into<String>, column: Column) -> Result<DataFrame> {
        self.add_column(name, column)?;
        Ok(self)
    }

    /// Index of a column by name.
    fn index_of(&self, name: &str) -> Result<usize> {
        self.names
            .iter()
            .position(|n| n == name)
            .ok_or_else(|| FrameError::UnknownColumn(name.to_string()))
    }

    /// Borrow a column by name.
    pub fn column(&self, name: &str) -> Result<&Column> {
        Ok(&self.columns[self.index_of(name)?])
    }

    /// Numeric view of a column (integers widen to f64).
    pub fn numeric(&self, name: &str) -> Result<Vec<Option<f64>>> {
        self.column(name)?.numeric(name)
    }

    /// One cell as an owned [`Value`].
    pub fn value(&self, name: &str, row: usize) -> Result<Value> {
        if row >= self.rows {
            return Err(FrameError::RowOutOfBounds {
                row,
                len: self.rows,
            });
        }
        Ok(self.column(name)?.value(row))
    }

    /// Group rows by the string key in `key` (nulls grouped under `None`)
    /// and return `(key, row_indices)` pairs in first-appearance order.
    pub(crate) fn group_indices_by_str(
        &self,
        key: &str,
    ) -> Result<Vec<(Option<String>, Vec<usize>)>> {
        let col = self.column(key)?;
        let values = col.as_str().ok_or_else(|| FrameError::TypeMismatch {
            column: key.to_string(),
            requested: "str",
            actual: col.type_name(),
        })?;
        let mut order: Vec<Option<String>> = Vec::new();
        let mut map: HashMap<Option<String>, Vec<usize>> = HashMap::new();
        for (i, v) in values.iter().enumerate() {
            let entry = map.entry(v.clone());
            if let std::collections::hash_map::Entry::Vacant(_) = entry {
                order.push(v.clone());
            }
            map.entry(v.clone()).or_default().push(i);
        }
        Ok(order
            .into_iter()
            .map(|k| {
                let rows = map.remove(&k).expect("key recorded in order map");
                (k, rows)
            })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> DataFrame {
        DataFrame::new()
            .with_column(
                "rank",
                Column::I64(vec![Some(1), Some(2), Some(3), Some(4)]),
            )
            .unwrap()
            .with_column(
                "power",
                Column::F64(vec![Some(30.0), None, Some(10.0), Some(20.0)]),
            )
            .unwrap()
            .with_column(
                "vendor",
                Column::Str(vec![
                    Some("HPE".into()),
                    Some("HPE".into()),
                    None,
                    Some("Dell".into()),
                ]),
            )
            .unwrap()
    }

    #[test]
    fn dimensions() {
        let df = sample();
        assert_eq!(df.len(), 4);
        assert_eq!(df.width(), 3);
        assert_eq!(df.names(), &["rank", "power", "vendor"]);
    }

    #[test]
    fn duplicate_column_rejected() {
        let err = sample()
            .with_column("rank", Column::I64(vec![Some(9); 4]))
            .unwrap_err();
        assert!(matches!(err, FrameError::DuplicateColumn(_)));
    }

    #[test]
    fn length_mismatch_rejected() {
        let err = sample()
            .with_column("x", Column::I64(vec![Some(1)]))
            .unwrap_err();
        assert!(matches!(err, FrameError::LengthMismatch { .. }));
    }

    #[test]
    fn unknown_column_error() {
        assert!(matches!(
            sample().column("nope"),
            Err(FrameError::UnknownColumn(_))
        ));
    }

    #[test]
    fn group_by_string_keeps_first_appearance_order() {
        let groups = sample().group_indices_by_str("vendor").unwrap();
        let keys: Vec<_> = groups.iter().map(|(k, _)| k.clone()).collect();
        assert_eq!(
            keys,
            vec![Some("HPE".to_string()), None, Some("Dell".to_string())]
        );
        assert_eq!(groups[0].1, vec![0, 1]);
    }
}
