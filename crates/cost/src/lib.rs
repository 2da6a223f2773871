//! # cse-cost
//!
//! Cost model and cardinality estimation over the catalog's statistics:
//! predicate selectivity, SPJ/aggregate cardinality, and per-operator cost
//! formulas (including the spool write/read costs C_W and C_R that drive
//! the paper's heuristics).

#![forbid(unsafe_code)]

pub mod cardinality;
pub mod model;
pub mod selectivity;

pub use cardinality::{col_ndv, join_rows, rel_rows, Cardinality, Factor};
pub use model::{CostModel, MODEL};
pub use selectivity::{Selectivity, DEFAULT_EQ_SEL, DEFAULT_SEL};

/// One table `t` with `schema` and `rows` in a catalog, and its rel.
#[cfg(test)]
fn one_table<R: AsRef<[cse_storage::Value]>>(
    schema: &[(&str, cse_storage::DataType)],
    rows: impl IntoIterator<Item = R>,
) -> (
    cse_algebra::PlanContext,
    cse_storage::Catalog,
    cse_algebra::RelId,
) {
    let schema = cse_storage::Schema::from_pairs(schema);
    let mut cat = cse_storage::Catalog::new();
    let t = cse_storage::Table::with_rows("t", schema.clone(), rows);
    cat.register_table(t).unwrap();
    let mut ctx = cse_algebra::PlanContext::new();
    let blk = ctx.new_block();
    let rel = ctx.add_base_rel("t", "t", std::sync::Arc::new(schema), blk);
    (ctx, cat, rel)
}
