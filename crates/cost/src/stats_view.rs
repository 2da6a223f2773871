//! Statistics access for the estimator: resolves global column references
//! to per-table column statistics from the catalog.

use cse_algebra::{ColRef, PlanContext, RelKind};
use cse_storage::{lowered, Catalog, ColumnStats, TableStats};
use std::collections::HashMap;
use std::sync::Arc;

/// Immutable snapshot of per-table statistics keyed by catalog name.
#[derive(Debug, Clone, Default)]
pub struct StatsCatalog {
    tables: HashMap<String, Arc<TableStats>>,
}

impl StatsCatalog {
    pub fn new() -> Self {
        StatsCatalog::default()
    }

    /// Snapshot all statistics from a storage catalog.
    pub fn from_catalog(catalog: &Catalog) -> Self {
        let mut tables = HashMap::new();
        for name in catalog.table_names() {
            if let Ok(stats) = catalog.stats(name) {
                tables.insert(name.to_ascii_lowercase(), stats);
            }
        }
        StatsCatalog { tables }
    }

    pub fn insert(&mut self, name: impl Into<String>, stats: Arc<TableStats>) {
        self.tables.insert(name.into().to_ascii_lowercase(), stats);
    }

    pub fn get(&self, name: &str) -> Option<&Arc<TableStats>> {
        self.tables.get(lowered(name).as_ref())
    }

    /// Row count of a table instance; 1000 when unknown (so costs stay
    /// finite and comparisons remain meaningful).
    pub fn rel_rows(&self, ctx: &PlanContext, rel: cse_algebra::RelId) -> f64 {
        let info = ctx.rel(rel);
        match info.kind {
            RelKind::Base => self
                .get(&info.name)
                .map(|s| s.row_count as f64)
                .unwrap_or(1000.0)
                .max(1.0),
            RelKind::AggOutput => 1.0,
        }
    }

    /// Column statistics for a catalog-table column, if known.
    pub(crate) fn col_stats(&self, ctx: &PlanContext, c: ColRef) -> Option<&ColumnStats> {
        let info = ctx.rel(c.rel);
        match info.kind {
            RelKind::Base => self
                .get(&info.name)
                .and_then(|s| s.columns.get(c.col as usize)),
            RelKind::AggOutput => None,
        }
    }

    /// Number of distinct values of a column; falls back to sqrt(rows) for
    /// derived columns.
    pub fn col_ndv(&self, ctx: &PlanContext, c: ColRef) -> f64 {
        match self.col_stats(ctx, c) {
            Some(s) => (s.distinct as f64).max(1.0),
            None => self.rel_rows(ctx, c.rel).sqrt().max(1.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cse_storage::{row, DataType, Schema, Table, Value};
    use std::sync::Arc as SArc;

    fn catalog() -> Catalog {
        let mut t = Table::new("t", Schema::from_pairs(&[("a", DataType::Int)]));
        for i in 0..10 {
            t.push(row(vec![Value::Int(i % 3)])).unwrap();
        }
        let mut c = Catalog::new();
        c.register_table(t).unwrap();
        c
    }

    #[test]
    fn snapshot_and_lookup() {
        let sc = StatsCatalog::from_catalog(&catalog());
        assert_eq!(sc.get("T").unwrap().row_count, 10);
        assert!(sc.get("missing").is_none());
    }

    #[test]
    fn rel_rows_and_ndv() {
        let sc = StatsCatalog::from_catalog(&catalog());
        let mut ctx = PlanContext::new();
        let b = ctx.new_block();
        let schema = SArc::new(Schema::from_pairs(&[("a", DataType::Int)]));
        let r = ctx.add_base_rel("t", "t", schema, b);
        assert_eq!(sc.rel_rows(&ctx, r), 10.0);
        assert_eq!(sc.col_ndv(&ctx, ColRef::new(r, 0)), 3.0);
        // Unknown table defaults.
        let r2 = ctx.add_base_rel(
            "ghost",
            "ghost",
            SArc::new(Schema::from_pairs(&[("x", DataType::Int)])),
            b,
        );
        assert_eq!(sc.rel_rows(&ctx, r2), 1000.0);
    }
}
