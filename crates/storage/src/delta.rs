//! Delta tables for materialized-view maintenance (paper §6.4).
//!
//! When a base table is updated, the inserted/deleted tuples are captured in
//! an internal work table — the *delta table* — which then drives
//! maintenance for every affected view. The paper treats delta tables as
//! special tables when generating table signatures; here each side of a
//! delta is just a [`Table`] under a name of its own (`Δtable+` for the
//! inserts, `Δtable-` for the deletes), chosen once in [`DeltaTable::new`].
//! The maintenance planner registers the insert side under that name in its
//! working catalog, so an expression over a delta gets a table signature no
//! expression over the base table shares.

use crate::error::StorageError;
use crate::schema::Schema;
use crate::table::Table;
use crate::value::Value;

/// Kind of change captured by a delta row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeltaAction {
    Insert,
    Delete,
}

/// A captured set of changes against one base table.
///
/// The experiments in §6.4 update the `customer` table with inserts, so the
/// common case is an insert-only delta; deletes are carried for
/// completeness (maintenance treats them as negative multiplicities).
#[derive(Debug, Clone)]
pub struct DeltaTable {
    /// Name of the base table this delta applies to.
    pub base: String,
    /// Inserted rows (same schema as the base table).
    pub inserts: Table,
    /// Deleted rows.
    pub deletes: Table,
}

impl DeltaTable {
    /// Create an empty delta for a base table with the given schema.
    pub fn new(base: impl Into<String>, schema: &Schema) -> Self {
        let base = base.into();
        DeltaTable {
            inserts: Table::new(format!("Δ{base}+"), schema.clone()),
            deletes: Table::new(format!("Δ{base}-"), schema.clone()),
            base,
        }
    }

    /// Capture one changed row, validating it against the delta's schema.
    ///
    /// Arity and per-column type errors are reported here, at capture time,
    /// rather than deferred to view maintenance where the offending row is
    /// no longer identifiable. NULLs are admitted only in nullable columns.
    pub fn record(
        &mut self,
        action: DeltaAction,
        row: impl AsRef<[Value]>,
    ) -> Result<(), StorageError> {
        let row = row.as_ref();
        let target = match action {
            DeltaAction::Insert => &mut self.inserts,
            DeltaAction::Delete => &mut self.deletes,
        };
        let schema = target.schema().clone();
        if row.len() != schema.len() {
            return Err(StorageError::ArityMismatch {
                table: target.name().to_string(),
                expected: schema.len(),
                got: row.len(),
            });
        }
        for (v, col) in row.iter().zip(schema.columns()) {
            let ok = match v.data_type() {
                None => col.nullable,
                Some(t) => t == col.data_type,
            };
            if !ok {
                return Err(StorageError::TypeMismatch {
                    table: target.name().to_string(),
                    column: col.name.clone(),
                    expected: col.data_type,
                    got: v.data_type(),
                });
            }
        }
        target.push_values(row.iter().cloned());
        Ok(())
    }

    pub fn insert_count(&self) -> usize {
        self.inserts.row_count()
    }

    pub fn delete_count(&self) -> usize {
        self.deletes.row_count()
    }

    pub fn is_empty(&self) -> bool {
        self.insert_count() == 0 && self.delete_count() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::row;
    use crate::value::DataType;

    #[test]
    fn record_and_count() {
        let schema = Schema::from_pairs(&[("a", DataType::Int)]);
        let mut d = DeltaTable::new("customer", &schema);
        assert!(d.is_empty());
        d.record(DeltaAction::Insert, row(vec![Value::Int(1)]))
            .unwrap();
        d.record(DeltaAction::Insert, row(vec![Value::Int(2)]))
            .unwrap();
        d.record(DeltaAction::Delete, row(vec![Value::Int(9)]))
            .unwrap();
        assert_eq!(d.insert_count(), 2);
        assert_eq!(d.delete_count(), 1);
        assert!(!d.is_empty());
        assert_eq!(d.inserts.name(), "Δcustomer+");
    }

    #[test]
    fn record_rejects_arity_mismatch() {
        let schema = Schema::from_pairs(&[("a", DataType::Int), ("b", DataType::Str)]);
        let mut d = DeltaTable::new("customer", &schema);
        let err = d
            .record(DeltaAction::Insert, row(vec![Value::Int(1)]))
            .unwrap_err();
        assert!(matches!(
            err,
            crate::error::StorageError::ArityMismatch {
                expected: 2,
                got: 1,
                ..
            }
        ));
        assert!(d.is_empty());
    }

    #[test]
    fn record_rejects_type_mismatch() {
        let schema = Schema::from_pairs(&[("a", DataType::Int)]);
        let mut d = DeltaTable::new("customer", &schema);
        let err = d
            .record(DeltaAction::Delete, row(vec![Value::str("oops")]))
            .unwrap_err();
        assert!(matches!(
            err,
            crate::error::StorageError::TypeMismatch {
                expected: DataType::Int,
                got: Some(DataType::Str),
                ..
            }
        ));
        assert!(d.is_empty());
    }

    #[test]
    fn record_rejects_null_in_not_null_column() {
        let schema = Schema::from_pairs(&[("a", DataType::Int)]);
        let mut d = DeltaTable::new("customer", &schema);
        let err = d
            .record(DeltaAction::Insert, row(vec![Value::Null]))
            .unwrap_err();
        assert!(matches!(
            err,
            crate::error::StorageError::TypeMismatch { got: None, .. }
        ));
    }

    #[test]
    fn record_accepts_null_in_nullable_column() {
        use crate::schema::ColumnDef;
        let schema = Schema::new(vec![ColumnDef::new("a", DataType::Int).nullable()]);
        let mut d = DeltaTable::new("customer", &schema);
        d.record(DeltaAction::Insert, row(vec![Value::Null]))
            .unwrap();
        assert_eq!(d.insert_count(), 1);
    }
}
