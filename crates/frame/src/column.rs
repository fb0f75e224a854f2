//! Nullable typed columns.

use crate::error::{FrameError, Result};

/// A nullable, homogeneous column of values.
///
/// Nulls are represented in-band as `Option<T>` so that missing-data
/// semantics (the heart of the coverage study) are explicit at the type level.
#[derive(Debug, Clone, PartialEq)]
pub enum Column {
    /// Nullable floats.
    F64(Vec<Option<f64>>),
    /// Nullable integers.
    I64(Vec<Option<i64>>),
    /// Nullable strings.
    Str(Vec<Option<String>>),
    /// Nullable booleans.
    Bool(Vec<Option<bool>>),
}

impl Column {
    /// Number of rows (including nulls).
    pub(crate) fn len(&self) -> usize {
        match self {
            Column::F64(v) => v.len(),
            Column::I64(v) => v.len(),
            Column::Str(v) => v.len(),
            Column::Bool(v) => v.len(),
        }
    }

    /// Static name of the column's type, for error messages.
    pub(crate) fn type_name(&self) -> &'static str {
        match self {
            Column::F64(_) => "f64",
            Column::I64(_) => "i64",
            Column::Str(_) => "str",
            Column::Bool(_) => "bool",
        }
    }

    /// Numeric view: floats pass through, integers widen; other types fail.
    pub(crate) fn numeric(&self, name: &str) -> Result<Vec<Option<f64>>> {
        match self {
            Column::F64(v) => Ok(v.clone()),
            Column::I64(v) => Ok(v.iter().map(|x| x.map(|i| i as f64)).collect()),
            other => Err(FrameError::TypeMismatch {
                column: name.to_string(),
                requested: "numeric",
                actual: other.type_name(),
            }),
        }
    }
}

/// Convenience constructors mirroring `vec!`-style ergonomics.
impl Column {
    /// Builds a string column from plain values (no nulls).
    pub fn from_str_iter<S: Into<String>>(values: impl IntoIterator<Item = S>) -> Column {
        Column::Str(values.into_iter().map(|s| Some(s.into())).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn len_and_nulls() {
        let c = Column::F64(vec![Some(1.0), None, Some(3.0)]);
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn numeric_widens_integers() {
        let c = Column::I64(vec![Some(2), None]);
        let n = c.numeric("x").unwrap();
        assert_eq!(n, vec![Some(2.0), None]);
    }

    #[test]
    fn numeric_rejects_strings() {
        let c = Column::from_str_iter(["a"]);
        let err = c.numeric("name").unwrap_err();
        assert!(matches!(err, FrameError::TypeMismatch { .. }));
    }
}
