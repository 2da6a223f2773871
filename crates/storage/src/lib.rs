//! # cse-storage
//!
//! In-memory storage substrate for the similar-subexpression reproduction:
//! typed values, schemas, row tables, statistics, secondary indexes, delta
//! tables for view maintenance, and a catalog tying them together. Every
//! stored row — of a table, a delta, a view's contents, a spool or an
//! executor breaker — lives in a [`RowBuf`]: chunks of rows, no allocation
//! per row.
//!
//! This crate plays the role of SQL Server's storage engine in the paper's
//! experiments: base tables hold the TPC-H data, spool operators
//! materialize covering subexpressions into work tables (row buffers
//! created at runtime), and updates captured in [`DeltaTable`]s drive
//! materialized-view maintenance (§6.4 of the paper).

#![forbid(unsafe_code)]

pub mod catalog;
pub mod dates;
pub mod delta;
pub mod error;
pub mod index;
pub mod schema;
pub mod stats;
pub mod table;
pub mod testkit;
pub mod value;

pub use catalog::{Catalog, CatalogEntry, CatalogMutation, MaterializedView};
pub use delta::{DeltaAction, DeltaTable};
pub use error::StorageError;
pub use index::{BTreeIndex, HashIndex};
pub use schema::{ColumnDef, Schema, SchemaRef};
pub use stats::{ColumnStats, TableStats};
pub use table::{row, Row, RowBuf, Table, CHUNK_ROWS};
pub use value::{DataType, Value};
