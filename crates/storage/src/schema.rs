//! Table schemas: ordered, named, typed columns.

use crate::value::DataType;
use std::fmt;
use std::sync::Arc;

/// A single column definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnDef {
    pub name: String,
    pub data_type: DataType,
    /// Whether NULLs may appear; the TPC-H tables are all NOT NULL.
    pub nullable: bool,
}

impl ColumnDef {
    pub fn new(name: impl Into<String>, data_type: DataType) -> Self {
        ColumnDef {
            name: name.into(),
            data_type,
            nullable: false,
        }
    }

    pub fn nullable(mut self) -> Self {
        self.nullable = true;
        self
    }
}

/// An ordered list of column definitions shared by a table and its rows.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Schema {
    columns: Vec<ColumnDef>,
}

/// Shared schema handle.
pub type SchemaRef = Arc<Schema>;

impl Schema {
    pub fn new(columns: Vec<ColumnDef>) -> Self {
        Schema { columns }
    }

    /// Convenience constructor from `(name, type)` pairs.
    pub fn from_pairs(pairs: &[(&str, DataType)]) -> Self {
        Schema {
            columns: pairs.iter().map(|(n, t)| ColumnDef::new(*n, *t)).collect(),
        }
    }

    pub fn columns(&self) -> &[ColumnDef] {
        &self.columns
    }

    pub fn len(&self) -> usize {
        self.columns.len()
    }

    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }

    pub fn column(&self, idx: usize) -> &ColumnDef {
        &self.columns[idx]
    }

    /// Index of the column with the given name (case-insensitive, as in SQL).
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.columns
            .iter()
            .position(|c| c.name.eq_ignore_ascii_case(name))
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, c) in self.columns.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{} {}", c.name, c.data_type)?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_of_is_case_insensitive() {
        let s = Schema::from_pairs(&[("C_CustKey", DataType::Int), ("c_name", DataType::Str)]);
        assert_eq!(s.index_of("c_custkey"), Some(0));
        assert_eq!(s.index_of("C_NAME"), Some(1));
        assert_eq!(s.index_of("missing"), None);
    }

    #[test]
    fn display_formats() {
        let s = Schema::from_pairs(&[("a", DataType::Int)]);
        assert_eq!(s.to_string(), "(a INT)");
    }
}
