//! # cse-cost
//!
//! Cost model and cardinality estimation: table statistics snapshots,
//! predicate selectivity, SPJ/aggregate cardinality, and per-operator cost
//! formulas (including the spool write/read costs C_W and C_R that drive
//! the paper's heuristics).

#![forbid(unsafe_code)]

pub mod cardinality;
pub mod model;
pub mod selectivity;
pub mod stats_view;

pub use cardinality::Cardinality;
pub use model::CostModel;
pub use selectivity::{Selectivity, DEFAULT_EQ_SEL, DEFAULT_SEL};
pub use stats_view::StatsCatalog;
