//! Nullable typed columns.

use crate::error::{FrameError, Result};
use std::fmt;

/// A single cell value, used at row-level APIs and CSV boundaries.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Missing value (CSV empty field).
    Null,
    /// 64-bit float.
    F64(f64),
    /// 64-bit signed integer.
    I64(i64),
    /// UTF-8 string.
    Str(String),
    /// Boolean.
    Bool(bool),
}

impl Value {
    /// Best-effort numeric view (integers widen to `f64`).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::F64(v) => Some(*v),
            Value::I64(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// String view for `Str` values.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => Ok(()),
            Value::F64(v) => write!(f, "{v}"),
            Value::I64(v) => write!(f, "{v}"),
            Value::Str(s) => write!(f, "{s}"),
            Value::Bool(b) => write!(f, "{b}"),
        }
    }
}

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

    /// Cell accessor producing an owned [`Value`].
    pub fn value(&self, row: usize) -> Value {
        match self {
            Column::F64(v) => v[row].map(Value::F64).unwrap_or(Value::Null),
            Column::I64(v) => v[row].map(Value::I64).unwrap_or(Value::Null),
            Column::Str(v) => v[row].clone().map(Value::Str).unwrap_or(Value::Null),
            Column::Bool(v) => v[row].map(Value::Bool).unwrap_or(Value::Null),
        }
    }

    /// Typed view of a string column.
    pub fn as_str(&self) -> Option<&[Option<String>]> {
        match self {
            Column::Str(v) => Some(v),
            _ => None,
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
    fn value_accessor() {
        let c = Column::Str(vec![Some("a".into()), None]);
        assert_eq!(c.value(0), Value::Str("a".into()));
        assert_eq!(c.value(1), Value::Null);
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

    #[test]
    fn value_display() {
        assert_eq!(Value::F64(1.5).to_string(), "1.5");
        assert_eq!(Value::Null.to_string(), "");
        assert_eq!(Value::Bool(true).to_string(), "true");
    }
}
