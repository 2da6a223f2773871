//! Catalog invariant pass: structural consistency of a [`Catalog`] as a
//! whole — views backed by storage, statistics that match their table,
//! indexes that actually point at the rows they claim.
//!
//! The other passes audit what the *optimizer* derived; this one audits
//! what the optimizer is *given*. Its main consumer is crash recovery
//! (`cse-durable`), which refuses to resume serving on a rebuilt catalog
//! that fails this pass, but it is equally applicable to a live catalog
//! after a mutation storm.

use crate::diag::rules;
use cse_diag::Report;
use cse_storage::{Catalog, CatalogEntry};

fn check_entry(report: &mut Report, name: &str, entry: &CatalogEntry) {
    let table = entry.table.as_ref();
    let n_rows = table.row_count();
    let n_cols = table.schema().len();

    if entry.stats.row_count as usize != n_rows {
        report.error(
            rules::CATALOG_STATS_DRIFT,
            name,
            format!(
                "stats claim {} row(s) but the table holds {n_rows}",
                entry.stats.row_count
            ),
        );
    }
    if entry.stats.columns.len() != n_cols {
        report.error(
            rules::CATALOG_STATS_DRIFT,
            name,
            format!(
                "stats cover {} column(s) but the schema has {n_cols}",
                entry.stats.columns.len()
            ),
        );
    }

    let hash_cols = entry.hash_indexes.iter().map(|i| ("hash", i.column));
    let btree_cols = entry.btree_indexes.iter().map(|i| ("btree", i.column));
    for (kind, column) in hash_cols.chain(btree_cols) {
        if column >= n_cols {
            report.error(
                rules::CATALOG_INDEX_STALE,
                name,
                format!("{kind} index on column #{column} is out of schema bounds ({n_cols})"),
            );
        }
    }

    // Containment: every row must be reachable through every index on its
    // own key. A stale index (built before a replace_table) fails here.
    for (row_id, row) in table.scan().enumerate() {
        for idx in &entry.hash_indexes {
            let Some(key) = row.get(idx.column) else {
                continue;
            };
            if !idx.lookup(key).any(|id| id == row_id as u32) {
                report.error(
                    rules::CATALOG_INDEX_STALE,
                    name,
                    format!(
                        "hash index on column #{} does not cover row {row_id}",
                        idx.column
                    ),
                );
                return; // one stale index drowns the report; stop early
            }
        }
        for idx in &entry.btree_indexes {
            let Some(key) = row.get(idx.column) else {
                continue;
            };
            if !idx.lookup(key).contains(&(row_id as u32)) {
                report.error(
                    rules::CATALOG_INDEX_STALE,
                    name,
                    format!(
                        "btree index on column #{} does not cover row {row_id}",
                        idx.column
                    ),
                );
                return;
            }
        }
    }
}

/// Audit a catalog's structural invariants. Errors mean the catalog must
/// not be served; recovery treats a non-clean report as fatal.
pub fn verify_catalog(catalog: &Catalog) -> Report {
    let mut report = Report::new();
    for name in catalog.table_names() {
        if let Ok(entry) = catalog.get(name) {
            check_entry(&mut report, name, entry);
        }
    }
    for view in catalog.views() {
        if !catalog.contains(&view.name) {
            report.error(
                rules::CATALOG_VIEW_MISSING_TABLE,
                view.name.as_str(),
                "materialized view has no backing table in the catalog",
            );
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use cse_storage::schema::Schema;
    use cse_storage::table::{row, Table};
    use cse_storage::value::{DataType, Value};
    use cse_storage::MaterializedView;

    fn table_named(name: &str, vals: &[i64]) -> Table {
        let mut t = Table::new(name, Schema::from_pairs(&[("a", DataType::Int)]));
        for v in vals {
            t.push(row(vec![Value::Int(*v)])).unwrap();
        }
        t
    }

    #[test]
    fn healthy_catalog_is_clean() {
        let mut c = Catalog::new();
        c.register_table(table_named("t", &[1, 2, 3])).unwrap();
        c.create_hash_index("t", "a").unwrap();
        c.create_btree_index("t", "a").unwrap();
        let report = verify_catalog(&c);
        assert!(report.is_clean(), "{}", report.render());
    }

    #[test]
    fn view_without_backing_table_fires() {
        let mut c = Catalog::new();
        c.register_view(MaterializedView {
            name: "ghost".into(),
            definition_sql: "select 1".into(),
        });
        let report = verify_catalog(&c);
        assert!(report
            .fired_rules()
            .contains(&rules::CATALOG_VIEW_MISSING_TABLE));
    }

    #[test]
    fn stats_drift_fires_on_handcrafted_entry() {
        // Build a catalog whose stats lie about the row count by going
        // through replace_table with different data, then re-attaching
        // the old stats. There is no public API that produces this state,
        // so synthesize it the way corruption would: via a raw entry.
        let mut c = Catalog::new();
        c.register_table(table_named("t", &[1, 2, 3])).unwrap();
        let stale_stats = c.get("t").unwrap().stats.clone();
        c.replace_table(table_named("t", &[1]));
        let mut broken = c.get("t").unwrap().clone();
        broken.stats = stale_stats;
        c.put_entry_for_test("t", broken);
        let report = verify_catalog(&c);
        assert!(report.fired_rules().contains(&rules::CATALOG_STATS_DRIFT));
    }

    #[test]
    fn stale_index_fires() {
        let mut c = Catalog::new();
        c.register_table(table_named("t", &[1, 2, 3])).unwrap();
        c.create_hash_index("t", "a").unwrap();
        let with_index = c.get("t").unwrap().clone();
        c.replace_table(table_named("t", &[7, 8]));
        let mut broken = c.get("t").unwrap().clone();
        broken.hash_indexes = with_index.hash_indexes;
        c.put_entry_for_test("t", broken);
        let report = verify_catalog(&c);
        assert!(report.fired_rules().contains(&rules::CATALOG_INDEX_STALE));
    }
}
