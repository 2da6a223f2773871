//! Storage-layer error type.

use crate::value::DataType;
use std::fmt;

/// Errors produced by the storage layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// A row's arity did not match the table schema.
    ArityMismatch {
        table: String,
        expected: usize,
        got: usize,
    },
    /// A row value's type did not match the column's declared type
    /// (`got: None` means a NULL arrived in a NOT NULL column).
    TypeMismatch {
        table: String,
        column: String,
        expected: DataType,
        got: Option<DataType>,
    },
    /// Lookup of an unknown table.
    UnknownTable(String),
    /// Lookup of an unknown column.
    UnknownColumn { table: String, column: String },
    /// A table with this name already exists.
    DuplicateTable(String),
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::ArityMismatch {
                table,
                expected,
                got,
            } => write!(
                f,
                "row arity mismatch for table '{table}': expected {expected} values, got {got}"
            ),
            StorageError::TypeMismatch {
                table,
                column,
                expected,
                got,
            } => {
                let got = got.map(|t| t.to_string()).unwrap_or_else(|| "NULL".into());
                write!(
                    f,
                    "type mismatch for column '{column}' of table '{table}': expected {expected}, got {got}"
                )
            }
            StorageError::UnknownTable(t) => write!(f, "unknown table '{t}'"),
            StorageError::UnknownColumn { table, column } => {
                write!(f, "unknown column '{column}' in table '{table}'")
            }
            StorageError::DuplicateTable(t) => write!(f, "table '{t}' already exists"),
        }
    }
}

impl std::error::Error for StorageError {}

impl From<StorageError> for String {
    fn from(e: StorageError) -> String {
        e.to_string()
    }
}
