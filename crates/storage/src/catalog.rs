//! The catalog: tables, statistics, indexes and materialized views.

use crate::delta::DeltaTable;
use crate::error::StorageError;
use crate::index::{BTreeIndex, HashIndex};
use crate::stats::TableStats;
use crate::table::Table;
use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::Arc;

/// The catalog key of a table or view name: its ASCII lower case, borrowed
/// when the name has no ASCII capital (lowering already lower-cases every
/// FROM name, so a lookup from a plan allocates nothing).
pub fn lowered(name: &str) -> Cow<'_, str> {
    if name.bytes().any(|b| b.is_ascii_uppercase()) {
        Cow::Owned(name.to_ascii_lowercase())
    } else {
        Cow::Borrowed(name)
    }
}

/// A registered materialized view: its name doubles as a table in the
/// catalog, plus the SQL text of its definition (the maintenance planner
/// parses it, once per view set, schema and size band, and rewrites it, at
/// the AST level, to read the delta's insert table instead of the updated
/// base table).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MaterializedView {
    pub name: String,
    pub definition_sql: String,
}

/// A replayable catalog mutation.
///
/// Every way the catalog can change is expressible as one of these
/// variants, and [`Catalog::apply_mutation`] is the single code path that
/// performs them. The durability layer (`cse-durable`) serializes
/// mutations into its write-ahead log and replays them through the same
/// `apply_mutation` during recovery, so a recovered catalog cannot diverge
/// from the live one by construction.
#[derive(Debug, Clone)]
pub enum CatalogMutation {
    /// Register a new table (statistics recomputed with a full scan).
    RegisterTable { table: Table },
    /// Replace a table's contents; stale stats and indexes are dropped.
    ReplaceTable { table: Table },
    /// Build a B-tree index on `table.column`.
    CreateBtreeIndex { table: String, column: String },
    /// Build a hash index on `table.column`.
    CreateHashIndex { table: String, column: String },
    /// Register a materialized-view definition.
    RegisterView {
        name: String,
        definition_sql: String,
    },
    /// Append a captured delta's inserts to its base table; its stats and
    /// indexes follow the new contents.
    ApplyDelta { delta: DeltaTable },
}

impl CatalogMutation {
    /// Short human-readable tag for logs and diagnostics.
    pub fn kind(&self) -> &'static str {
        match self {
            CatalogMutation::RegisterTable { .. } => "register_table",
            CatalogMutation::ReplaceTable { .. } => "replace_table",
            CatalogMutation::CreateBtreeIndex { .. } => "create_btree_index",
            CatalogMutation::CreateHashIndex { .. } => "create_hash_index",
            CatalogMutation::RegisterView { .. } => "register_view",
            CatalogMutation::ApplyDelta { .. } => "apply_delta",
        }
    }
}

/// One registered table together with its statistics and indexes.
#[derive(Debug, Clone)]
pub struct CatalogEntry {
    pub table: Arc<Table>,
    pub stats: Arc<TableStats>,
    pub hash_indexes: Vec<Arc<HashIndex>>,
    pub btree_indexes: Vec<Arc<BTreeIndex>>,
}

impl CatalogEntry {
    /// Whether column `col` has a hash index and whether it has a B-tree
    /// index, in that order.
    pub fn indexed(&self, col: usize) -> (bool, bool) {
        (
            self.hash_indexes.iter().any(|i| i.column == col),
            self.btree_indexes.iter().any(|i| i.column == col),
        )
    }

    /// Append the rows of `inserts` in place, folding them into the stats
    /// and every index. Each part is copied first only if a catalog clone
    /// still shares it, so the clone keeps its snapshot; a copied table
    /// shares its full chunks and copies only its tail.
    fn append(&mut self, inserts: &Table) {
        let first = self.table.row_count();
        let table = Arc::make_mut(&mut self.table);
        table.extend(inserts.scan());
        Arc::make_mut(&mut self.stats).append(table, first);
        for idx in &mut self.hash_indexes {
            Arc::make_mut(idx).extend(table, first);
        }
        for idx in &mut self.btree_indexes {
            Arc::make_mut(idx).extend(table, first);
        }
    }
}

/// Name-to-table registry shared by the planner, optimizer and executor.
#[derive(Debug, Default, Clone)]
pub struct Catalog {
    entries: HashMap<String, CatalogEntry>,
    views: HashMap<String, MaterializedView>,
}

impl Catalog {
    pub fn new() -> Self {
        Catalog::default()
    }

    /// Register a table, computing its statistics with a full scan.
    pub fn register_table(&mut self, table: Table) -> Result<(), StorageError> {
        self.register_table_with_stats(Arc::new(TableStats::analyze(&table)), table)
    }

    /// Register a table with precomputed statistics (used by the TPC-H
    /// loader, which knows the stats as it generates).
    pub fn register_table_with_stats(
        &mut self,
        stats: Arc<TableStats>,
        table: Table,
    ) -> Result<(), StorageError> {
        let key = table.name().to_ascii_lowercase();
        if self.entries.contains_key(&key) {
            return Err(StorageError::DuplicateTable(key));
        }
        self.entries.insert(
            key,
            CatalogEntry {
                table: Arc::new(table),
                stats,
                hash_indexes: Vec::new(),
                btree_indexes: Vec::new(),
            },
        );
        Ok(())
    }

    /// Replace a table's contents (or register it, if new). The statistics
    /// are recomputed; indexes over the old contents are stale and dropped
    /// with the old entry — callers rebuild the ones they need. (A delta
    /// keeps them: [`Catalog::apply_delta`].)
    pub fn replace_table(&mut self, table: Table) {
        let key = table.name().to_ascii_lowercase();
        let stats = Arc::new(TableStats::analyze(&table));
        self.entries.insert(
            key,
            CatalogEntry {
                table: Arc::new(table),
                stats,
                hash_indexes: Vec::new(),
                btree_indexes: Vec::new(),
            },
        );
    }

    pub fn get(&self, name: &str) -> Result<&CatalogEntry, StorageError> {
        self.entries
            .get(lowered(name).as_ref())
            .ok_or_else(|| StorageError::UnknownTable(name.to_string()))
    }

    pub fn table(&self, name: &str) -> Result<Arc<Table>, StorageError> {
        Ok(self.get(name)?.table.clone())
    }

    pub fn stats(&self, name: &str) -> Result<Arc<TableStats>, StorageError> {
        Ok(self.get(name)?.stats.clone())
    }

    pub fn contains(&self, name: &str) -> bool {
        self.entries.contains_key(lowered(name).as_ref())
    }

    pub fn table_names(&self) -> impl Iterator<Item = &str> {
        self.entries.keys().map(String::as_str)
    }

    /// Overwrite an entry wholesale, bypassing the invariant maintenance
    /// every normal mutation path performs. Exists only so verifier tests
    /// can synthesize corrupt states (stale stats, stale indexes) that the
    /// public API refuses to produce.
    #[doc(hidden)]
    pub fn put_entry_for_test(&mut self, name: &str, entry: CatalogEntry) {
        self.entries.insert(name.to_ascii_lowercase(), entry);
    }

    /// Build and attach a B-tree index on `column` of table `name`.
    pub fn create_btree_index(&mut self, name: &str, column: &str) -> Result<(), StorageError> {
        let key = name.to_ascii_lowercase();
        let entry = self
            .entries
            .get_mut(&key)
            .ok_or_else(|| StorageError::UnknownTable(name.to_string()))?;
        let col =
            entry
                .table
                .schema()
                .index_of(column)
                .ok_or_else(|| StorageError::UnknownColumn {
                    table: name.to_string(),
                    column: column.to_string(),
                })?;
        let idx = BTreeIndex::build(&entry.table, col);
        entry.btree_indexes.push(Arc::new(idx));
        Ok(())
    }

    /// Build and attach a hash index on `column` of table `name`.
    pub fn create_hash_index(&mut self, name: &str, column: &str) -> Result<(), StorageError> {
        let key = name.to_ascii_lowercase();
        let entry = self
            .entries
            .get_mut(&key)
            .ok_or_else(|| StorageError::UnknownTable(name.to_string()))?;
        let col =
            entry
                .table
                .schema()
                .index_of(column)
                .ok_or_else(|| StorageError::UnknownColumn {
                    table: name.to_string(),
                    column: column.to_string(),
                })?;
        let idx = HashIndex::build(&entry.table, col);
        entry.hash_indexes.push(Arc::new(idx));
        Ok(())
    }

    /// Register a materialized view. The view's *contents* must be
    /// registered separately as a table of the same name.
    pub fn register_view(&mut self, view: MaterializedView) {
        self.views.insert(view.name.to_ascii_lowercase(), view);
    }

    pub fn view(&self, name: &str) -> Option<&MaterializedView> {
        self.views.get(lowered(name).as_ref())
    }

    pub fn views(&self) -> impl Iterator<Item = &MaterializedView> {
        self.views.values()
    }

    /// Apply a captured delta to its base table: append its inserts in
    /// place, folding them into the stats and every index the table has, so
    /// the entry ends equal to registering the new contents and building
    /// those indexes afresh. A delta whose schema differs from the base's
    /// changes nothing: a different column count is an `ArityMismatch`,
    /// otherwise the first differing column is a `TypeMismatch`.
    pub fn apply_delta(&mut self, delta: &DeltaTable) -> Result<(), StorageError> {
        let entry = self
            .entries
            .get_mut(&delta.base.to_ascii_lowercase())
            .ok_or_else(|| StorageError::UnknownTable(delta.base.clone()))?;
        let (base, got) = (entry.table.schema(), delta.inserts.schema());
        if base.len() != got.len() {
            return Err(StorageError::ArityMismatch {
                table: delta.base.clone(),
                expected: base.len(),
                got: got.len(),
            });
        }
        let differs = base
            .columns()
            .iter()
            .zip(got.columns())
            .find(|(b, g)| b != g);
        if let Some((b, g)) = differs {
            return Err(StorageError::TypeMismatch {
                table: delta.base.clone(),
                column: b.name.clone(),
                expected: b.data_type,
                got: Some(g.data_type),
            });
        }
        entry.append(&delta.inserts);
        Ok(())
    }

    /// Apply a journaled mutation. Live mutation and WAL replay share this
    /// single entry point, so recovery is deterministic by construction.
    pub fn apply_mutation(&mut self, m: &CatalogMutation) -> Result<(), StorageError> {
        match m {
            CatalogMutation::RegisterTable { table } => self.register_table(table.clone()),
            CatalogMutation::ReplaceTable { table } => {
                self.replace_table(table.clone());
                Ok(())
            }
            CatalogMutation::CreateBtreeIndex { table, column } => {
                self.create_btree_index(table, column)
            }
            CatalogMutation::CreateHashIndex { table, column } => {
                self.create_hash_index(table, column)
            }
            CatalogMutation::RegisterView {
                name,
                definition_sql,
            } => {
                self.register_view(MaterializedView {
                    name: name.clone(),
                    definition_sql: definition_sql.clone(),
                });
                Ok(())
            }
            CatalogMutation::ApplyDelta { delta } => self.apply_delta(delta),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;
    use crate::table::{row, Row, CHUNK_ROWS};
    use crate::value::{DataType, Value};

    fn t(name: &str) -> Table {
        let mut t = Table::new(name, Schema::from_pairs(&[("a", DataType::Int)]));
        t.push(row(vec![Value::Int(7)])).unwrap();
        t
    }

    #[test]
    fn lowered_borrows_a_lower_case_name() {
        assert!(matches!(lowered("lineitem"), Cow::Borrowed("lineitem")));
        assert!(matches!(lowered("LineItem"), Cow::Owned(s) if s == "lineitem"));
        let mut c = Catalog::new();
        c.register_table(t("Orders")).unwrap();
        assert!(c.get("ORDERS").is_ok() && c.get("orders").is_ok() && c.contains("oRdErs"));
    }

    #[test]
    fn register_and_lookup() {
        let mut c = Catalog::new();
        c.register_table(t("Foo")).unwrap();
        assert!(c.contains("foo"));
        assert!(c.contains("FOO"));
        assert_eq!(c.table("foo").unwrap().row_count(), 1);
        assert_eq!(c.stats("foo").unwrap().row_count, 1);
    }

    #[test]
    fn duplicate_rejected() {
        let mut c = Catalog::new();
        c.register_table(t("foo")).unwrap();
        assert!(matches!(
            c.register_table(t("FOO")),
            Err(StorageError::DuplicateTable(_))
        ));
    }

    #[test]
    fn unknown_table() {
        let c = Catalog::new();
        assert!(matches!(
            c.table("nope"),
            Err(StorageError::UnknownTable(_))
        ));
    }

    #[test]
    fn index_creation() {
        let mut c = Catalog::new();
        c.register_table(t("foo")).unwrap();
        c.create_btree_index("foo", "a").unwrap();
        c.create_hash_index("foo", "a").unwrap();
        let e = c.get("foo").unwrap();
        assert_eq!(e.btree_indexes.len(), 1);
        assert_eq!(e.hash_indexes.len(), 1);
        assert!(c.create_btree_index("foo", "zzz").is_err());
    }

    #[test]
    fn views() {
        let mut c = Catalog::new();
        c.register_view(MaterializedView {
            name: "v1".into(),
            definition_sql: "select 1".into(),
        });
        assert!(c.view("V1").is_some());
        assert_eq!(c.views().count(), 1);
    }

    #[test]
    fn replace_table_recomputes_stats() {
        let mut c = Catalog::new();
        c.register_table(t("foo")).unwrap();
        let mut t2 = Table::new("foo", Schema::from_pairs(&[("a", DataType::Int)]));
        t2.push(row(vec![Value::Int(1)])).unwrap();
        t2.push(row(vec![Value::Int(2)])).unwrap();
        c.replace_table(t2);
        assert_eq!(c.stats("foo").unwrap().row_count, 2);
    }

    #[test]
    fn replace_table_invalidates_stale_stats_and_indexes() {
        let mut c = Catalog::new();
        c.register_table(t("foo")).unwrap();
        c.create_btree_index("foo", "a").unwrap();
        c.create_hash_index("foo", "a").unwrap();
        let old_stats = c.stats("foo").unwrap();
        let mut t2 = Table::new("foo", Schema::from_pairs(&[("a", DataType::Int)]));
        for v in [1i64, 2, 3] {
            t2.push(row(vec![Value::Int(v)])).unwrap();
        }
        c.replace_table(t2);
        let e = c.get("foo").unwrap();
        // Indexes built over the old contents must be gone, not silently
        // pointing at stale row ids.
        assert!(e.btree_indexes.is_empty());
        assert!(e.hash_indexes.is_empty());
        assert_eq!(e.stats.row_count, 3);
        assert_ne!(old_stats.row_count, e.stats.row_count);
    }

    #[test]
    fn apply_delta_appends_and_extends_indexes() {
        use crate::delta::DeltaTable;
        let mut c = Catalog::new();
        let schema = Schema::from_pairs(&[("a", DataType::Int)]);
        let mut base = Table::new("foo", schema.clone());
        for v in [1i64, 2, 3] {
            base.push(row(vec![Value::Int(v)])).unwrap();
        }
        c.register_table(base).unwrap();
        c.create_hash_index("foo", "a").unwrap();
        let mut d = DeltaTable::new("foo", &schema);
        d.record(row(vec![Value::Int(9)])).unwrap();
        d.record(row(vec![Value::Int(2)])).unwrap();
        c.apply_delta(&d).unwrap();
        let got: Vec<i64> = c
            .table("foo")
            .unwrap()
            .scan()
            .map(|r| r[0].as_i64().unwrap())
            .collect();
        assert_eq!(got, vec![1, 2, 3, 9, 2]);
        assert_eq!(c.stats("foo").unwrap().row_count, 5);
        // The appended rows are in the index the table had.
        let e = c.get("foo").unwrap();
        let ids = |k: i64| {
            e.hash_indexes[0]
                .lookup(&Value::Int(k))
                .collect::<Vec<u32>>()
        };
        assert_eq!((ids(2), ids(9)), (vec![1, 4], vec![3]));
    }

    /// A delta whose schema differs from its base's in one column's type
    /// names that column and leaves the catalog as it was.
    #[test]
    fn apply_delta_reports_the_differing_column() {
        use crate::delta::DeltaTable;
        let mut c = Catalog::new();
        let schema = Schema::from_pairs(&[("a", DataType::Int), ("b", DataType::Int)]);
        c.register_table(Table::with_rows(
            "foo",
            schema,
            [[Value::Int(1), Value::Int(2)]],
        ))
        .unwrap();
        let before = held(&c);
        let other = Schema::from_pairs(&[("a", DataType::Int), ("b", DataType::Str)]);
        let mut d = DeltaTable::new("foo", &other);
        d.record([Value::Int(3), Value::str("x")]).unwrap();
        let err = c.apply_delta(&d).unwrap_err();
        assert!(
            matches!(
                &err,
                StorageError::TypeMismatch {
                    column,
                    expected: DataType::Int,
                    got: Some(DataType::Str),
                    ..
                } if column == "b"
            ),
            "{err:?}"
        );
        assert_eq!(held(&c), before);
    }

    /// An insert-only delta appends to a table a catalog clone still
    /// holds: the clone keeps its rows, and both share every full chunk —
    /// the append copied only the tail.
    #[test]
    fn appending_to_a_shared_table_copies_only_its_tail() {
        use crate::delta::DeltaTable;
        let schema = Schema::from_pairs(&[("a", DataType::Int)]);
        let n = 2 * CHUNK_ROWS + 10;
        let rows = (0..n as i64).map(|v| [Value::Int(v)]);
        let mut c = Catalog::new();
        c.register_table(Table::with_rows("foo", schema.clone(), rows))
            .unwrap();
        let snapshot = c.clone();
        let mut d = DeltaTable::new("foo", &schema);
        for v in [-1, -2] {
            d.record([Value::Int(v)]).unwrap();
        }
        c.apply_mutation(&CatalogMutation::ApplyDelta { delta: d })
            .unwrap();

        let (old, new) = (snapshot.table("foo").unwrap(), c.table("foo").unwrap());
        assert_eq!((old.row_count(), new.row_count()), (n, n + 2));
        assert!(old.scan().zip(new.scan()).all(|(a, b)| a == b));
        assert_eq!(new.get(n + 1), Some(&[Value::Int(-2)][..]));
        let (a, b) = (old.slab().full_chunks(), new.slab().full_chunks());
        assert_eq!((a.len(), b.len()), (2, 2));
        assert!(a.iter().zip(b).all(|(x, y)| Arc::ptr_eq(x, y)));
    }

    #[test]
    fn apply_delta_unknown_base_fails() {
        use crate::delta::DeltaTable;
        let mut c = Catalog::new();
        let schema = Schema::from_pairs(&[("a", DataType::Int)]);
        let d = DeltaTable::new("nope", &schema);
        assert!(matches!(
            c.apply_delta(&d),
            Err(StorageError::UnknownTable(_))
        ));
    }

    /// Every entry is what registering its table afresh would give: stats
    /// equal to a new analysis, field for field, and every index equal to
    /// a fresh build over the current rows.
    fn assert_fresh(c: &Catalog) {
        for name in c.table_names() {
            let e = c.get(name).unwrap();
            assert_eq!(*e.stats, TableStats::analyze(&e.table), "stats of {name}");
            for idx in &e.hash_indexes {
                assert_eq!(**idx, HashIndex::build(&e.table, idx.column), "{name}");
            }
            for idx in &e.btree_indexes {
                assert_eq!(**idx, BTreeIndex::build(&e.table, idx.column), "{name}");
            }
        }
    }

    /// A deep copy of what a catalog holds, to check a clone keeps it.
    type Held = Vec<(
        String,
        Vec<Row>,
        TableStats,
        Vec<HashIndex>,
        Vec<BTreeIndex>,
    )>;

    fn held(c: &Catalog) -> Held {
        let mut out: Held = c
            .table_names()
            .map(|name| {
                let e = c.get(name).unwrap();
                let hash = e.hash_indexes.iter().map(|i| (**i).clone()).collect();
                let btree = e.btree_indexes.iter().map(|i| (**i).clone()).collect();
                let rows = e.table.rows();
                (name.to_string(), rows, (*e.stats).clone(), hash, btree)
            })
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Property test: random mutation sequences applied through
    /// `apply_mutation` leave the catalog in a consistent state — stats
    /// and indexes always equal a fresh analysis and build of the current
    /// contents (a delta maintains the indexes a table has; replacing the
    /// table drops them), and a clone taken before a mutation still holds
    /// what it held.
    #[test]
    fn random_mutation_sequences_stay_consistent() {
        use crate::delta::DeltaTable;
        use crate::testkit::TestRng;

        let names = ["alpha", "beta", "gamma"];
        let schema = Schema::from_pairs(&[("a", DataType::Int), ("b", DataType::Int)]);
        let cells = |rng: &mut TestRng| {
            let (a, b) = (rng.range_i64(0, 10), rng.range_i64(0, 4));
            row(vec![Value::Int(a), Value::Int(b)])
        };
        let mut appends = 0usize;
        for seed in [1u64, 7, 42, 1234] {
            let mut rng = TestRng::new(seed);
            let mut c = Catalog::new();
            for _ in 0..200 {
                let name = *rng.pick(&names);
                let column = rng.pick(&["a", "b"]).to_string();
                let m = match rng.range_usize(0, 8) {
                    0 => {
                        let mut tbl = Table::new(name, schema.clone());
                        for _ in 0..rng.range_usize(0, 5) {
                            tbl.push(cells(&mut rng)).unwrap();
                        }
                        CatalogMutation::RegisterTable { table: tbl }
                    }
                    1 => {
                        let mut tbl = Table::new(name, schema.clone());
                        for _ in 0..rng.range_usize(0, 5) {
                            tbl.push(cells(&mut rng)).unwrap();
                        }
                        CatalogMutation::ReplaceTable { table: tbl }
                    }
                    2 => CatalogMutation::CreateBtreeIndex {
                        table: name.into(),
                        column,
                    },
                    3 => CatalogMutation::CreateHashIndex {
                        table: name.into(),
                        column,
                    },
                    4 => CatalogMutation::RegisterView {
                        name: name.into(),
                        definition_sql: format!("select a from {name}"),
                    },
                    _ => {
                        let mut d = DeltaTable::new(name, &schema);
                        for _ in 0..rng.range_usize(0, 4) {
                            d.record(cells(&mut rng)).unwrap();
                        }
                        appends += 1;
                        CatalogMutation::ApplyDelta { delta: d }
                    }
                };
                let snapshot = c.clone();
                let before = held(&snapshot);
                // Errors (duplicate registration, unknown base, …) are
                // legal outcomes; consistency must hold either way.
                let _ = c.apply_mutation(&m);
                assert_fresh(&c);
                assert_eq!(held(&snapshot), before, "a clone must keep its snapshot");
            }
        }
        assert!(appends > 50, "{appends}");
    }
}
