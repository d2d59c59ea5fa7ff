//! Error type shared across the relation substrate.

use std::fmt;

/// Errors produced while building, parsing or accessing relations.
#[derive(Debug)]
pub enum Error {
    /// A row had a different number of cells than the schema.
    ArityMismatch {
        /// Number of columns in the schema.
        expected: usize,
        /// Number of cells in the offending row.
        got: usize,
    },
    /// A column name was referenced that does not exist.
    UnknownColumn(String),
    /// A column index was out of range.
    ColumnOutOfRange {
        /// The offending index.
        index: usize,
        /// Number of columns in the relation.
        len: usize,
    },
    /// A row index was out of range.
    RowOutOfRange {
        /// The offending index.
        index: usize,
        /// Number of rows in the relation.
        len: usize,
    },
    /// Malformed CSV input.
    Csv {
        /// 1-based line number of the offending record.
        line: usize,
        /// Human-readable description.
        message: String,
    },
    /// An underlying I/O failure.
    Io(std::io::Error),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::ArityMismatch { expected, got } => {
                write!(
                    f,
                    "row arity mismatch: schema has {expected} columns, row has {got}"
                )
            }
            Error::UnknownColumn(name) => write!(f, "unknown column: {name:?}"),
            Error::ColumnOutOfRange { index, len } => {
                write!(
                    f,
                    "column index {index} out of range for relation with {len} columns"
                )
            }
            Error::RowOutOfRange { index, len } => {
                write!(
                    f,
                    "row index {index} out of range for relation with {len} rows"
                )
            }
            Error::Csv { line, message } => write!(f, "CSV error at line {line}: {message}"),
            Error::Io(e) => write!(f, "I/O error: {e}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Self {
        Error::Io(e)
    }
}

/// Convenient result alias for this crate.
pub type Result<T> = std::result::Result<T, Error>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = Error::ArityMismatch {
            expected: 3,
            got: 2,
        };
        assert!(e.to_string().contains("3"));
        assert!(e.to_string().contains("2"));

        let e = Error::UnknownColumn("foo".into());
        assert!(e.to_string().contains("foo"));

        let e = Error::ColumnOutOfRange { index: 9, len: 4 };
        assert!(e.to_string().contains("9"));

        let e = Error::RowOutOfRange { index: 5, len: 2 };
        assert_eq!(
            e.to_string(),
            "row index 5 out of range for relation with 2 rows"
        );

        let e = Error::Csv {
            line: 17,
            message: "unterminated quote".into(),
        };
        assert!(e.to_string().contains("17"));
        assert!(e.to_string().contains("unterminated"));
    }

    #[test]
    fn io_error_round_trips_source() {
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "nope");
        let e: Error = io.into();
        assert!(matches!(e, Error::Io(_)));
        use std::error::Error as _;
        assert!(e.source().is_some());
    }
}
