//! # cse-tpch
//!
//! Deterministic, in-memory TPC-H data generation. Substitutes for the
//! paper's 1 GB dbgen database: the distributions that drive selectivity
//! and join cardinality estimates are faithful; free text is synthetic.

#![forbid(unsafe_code)]

pub mod generator;
pub mod rng;
pub mod schema;
pub mod text;

pub use generator::{
    customer_row, generate_catalog, generate_table, TpchConfig, END_DATE, START_DATE,
};
pub use schema::TpchTable;
