//! Error type shared by all `frame` operations.

use std::fmt;

/// Result alias for fallible `frame` operations.
pub type Result<T> = std::result::Result<T, FrameError>;

/// Errors produced by dataframe construction, access and I/O.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// A referenced column name does not exist in the frame.
    UnknownColumn(String),
    /// A column was added whose length differs from the frame's row count.
    LengthMismatch {
        /// Column being inserted.
        column: String,
        /// Length of the offending column.
        got: usize,
        /// Row count of the frame.
        expected: usize,
    },
    /// A column exists but has a different type than requested.
    TypeMismatch {
        /// Column being accessed.
        column: String,
        /// Type requested by the caller.
        requested: &'static str,
        /// Actual type of the column.
        actual: &'static str,
    },
    /// A column with this name already exists.
    DuplicateColumn(String),
    /// Malformed CSV input.
    Csv {
        /// 1-based line number of the offending record.
        line: usize,
        /// Description of the problem.
        message: String,
    },
    /// Operation required a non-empty input (e.g. quantile of nothing).
    Empty(&'static str),
    /// An underlying reader failed while streaming CSV chunks. The message
    /// is the `std::io::Error` rendering (kept as text so `FrameError` stays
    /// `Clone + PartialEq`).
    Io(String),
    /// Generic invalid-argument error.
    InvalidArgument(String),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::UnknownColumn(name) => write!(f, "unknown column `{name}`"),
            FrameError::LengthMismatch {
                column,
                got,
                expected,
            } => write!(
                f,
                "column `{column}` has length {got} but the frame has {expected} rows"
            ),
            FrameError::TypeMismatch {
                column,
                requested,
                actual,
            } => write!(f, "column `{column}` is of type {actual}, not {requested}"),
            FrameError::DuplicateColumn(name) => write!(f, "column `{name}` already exists"),
            FrameError::Csv { line, message } => write!(f, "CSV error at line {line}: {message}"),
            FrameError::Empty(what) => write!(f, "{what} requires a non-empty input"),
            FrameError::Io(message) => write!(f, "I/O error: {message}"),
            FrameError::InvalidArgument(msg) => write!(f, "invalid argument: {msg}"),
        }
    }
}

impl std::error::Error for FrameError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_unknown_column() {
        let e = FrameError::UnknownColumn("power".into());
        assert_eq!(e.to_string(), "unknown column `power`");
    }

    #[test]
    fn display_length_mismatch() {
        let e = FrameError::LengthMismatch {
            column: "x".into(),
            got: 3,
            expected: 5,
        };
        assert!(e.to_string().contains("length 3"));
        assert!(e.to_string().contains("5 rows"));
    }

    #[test]
    fn display_csv() {
        let e = FrameError::Csv {
            line: 7,
            message: "unterminated quote".into(),
        };
        assert!(e.to_string().contains("line 7"));
    }

    #[test]
    fn error_is_std_error() {
        fn takes_err(_: &dyn std::error::Error) {}
        takes_err(&FrameError::Empty("quantile"));
    }
}
