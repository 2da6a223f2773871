//! Table and column statistics used by the cardinality estimator.
//!
//! Statistics are computed by a single scan over a loaded table: row count,
//! and per column the min/max, an approximate distinct count and the null
//! count. Distinct counts are exact for the table sizes used here (a hash
//! set per column); for very large tables a sampling cut-over keeps the cost
//! bounded. A table that grows by appends keeps what the scan accumulated,
//! so its stats follow each append at the cost of the appended rows.

use crate::table::Table;
use crate::value::Value;
use std::collections::HashSet;

/// Above this many rows, [`TableStats::analyze`] samples every 7th row.
const SAMPLE_ABOVE: usize = 4_000_000;

/// Statistics for one column.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnStats {
    pub min: Option<Value>,
    pub max: Option<Value>,
    /// Approximate number of distinct non-null values.
    pub distinct: u64,
    pub null_count: u64,
}

impl ColumnStats {
    /// Statistics of an empty column.
    pub fn empty() -> Self {
        ColumnStats {
            min: None,
            max: None,
            distinct: 0,
            null_count: 0,
        }
    }
}

/// Statistics for a whole table.
#[derive(Debug, Clone)]
pub struct TableStats {
    pub row_count: u64,
    pub columns: Vec<ColumnStats>,
    /// What the scan accumulated, kept once the table has been appended to
    /// (the distinct sets are what an append cannot recompute).
    scan: Option<Box<Scan>>,
}

/// Stats are equal when they say the same; whether they kept their scan is
/// how they got here, not what they say.
impl PartialEq for TableStats {
    fn eq(&self, other: &Self) -> bool {
        self.row_count == other.row_count && self.columns == other.columns
    }
}

/// The running state of [`TableStats::analyze`]'s scan.
#[derive(Debug, Clone)]
struct Scan {
    sampled: u64,
    columns: Vec<ColumnScan>,
}

#[derive(Debug, Clone, Default)]
struct ColumnScan {
    min: Option<Value>,
    max: Option<Value>,
    distinct: HashSet<Value>,
    nulls: u64,
}

impl Scan {
    fn new(ncols: usize) -> Self {
        Scan {
            sampled: 0,
            columns: vec![ColumnScan::default(); ncols],
        }
    }

    /// Fold in one row. Nulls are counted on every row; the rest only on
    /// sampled rows.
    fn add(&mut self, row: &[Value], in_sample: bool) {
        if in_sample {
            self.sampled += 1;
        }
        for (c, v) in self.columns.iter_mut().zip(row) {
            if v.is_null() {
                c.nulls += 1;
                continue;
            }
            if !in_sample {
                continue;
            }
            match &c.min {
                Some(m) if m.total_cmp(v) != std::cmp::Ordering::Greater => {}
                _ => c.min = Some(v.clone()),
            }
            match &c.max {
                Some(m) if m.total_cmp(v) != std::cmp::Ordering::Less => {}
                _ => c.max = Some(v.clone()),
            }
            c.distinct.insert(v.clone());
        }
    }

    /// The stats of a table of `nrows` rows this scan has seen.
    fn finish(&self, nrows: usize) -> TableStats {
        let sampled = self.sampled;
        let scale = if sampled == 0 {
            1.0
        } else {
            nrows as f64 / sampled as f64
        };
        let columns = self
            .columns
            .iter()
            .map(|c| ColumnStats {
                min: c.min.clone(),
                max: c.max.clone(),
                distinct: ((c.distinct.len() as f64 * scale).round() as u64)
                    .min(nrows as u64)
                    .max(if nrows > 0 { 1 } else { 0 }),
                null_count: c.nulls,
            })
            .collect();
        TableStats {
            row_count: nrows as u64,
            columns,
            scan: None,
        }
    }
}

impl TableStats {
    /// Stats that assume nothing: used when a table was registered without
    /// analysis. One row avoids divide-by-zero in the estimator.
    pub fn unknown(num_columns: usize) -> Self {
        TableStats {
            row_count: 1,
            columns: vec![ColumnStats::empty(); num_columns],
            scan: None,
        }
    }

    /// Compute statistics with a full scan of `table`.
    pub fn analyze(table: &Table) -> Self {
        let nrows = table.row_count();
        // Exact distinct counting is fine up to a few million rows; above
        // that, sample deterministically.
        let sample_every = if nrows > SAMPLE_ABOVE { 7 } else { 1 };
        let mut scan = Scan::new(table.schema().len());
        for (i, row) in table.scan().enumerate() {
            scan.add(row, i % sample_every == 0);
        }
        scan.finish(nrows)
    }

    /// Fold the rows of `table` from `first` on, just appended, into these
    /// stats of the table before the append. The result equals
    /// [`TableStats::analyze`] of the grown table. Stats without a kept
    /// scan (the first append, or a table past the sampling cut-over) are
    /// analyzed once over the whole table, keeping the scan for the next.
    pub fn append(&mut self, table: &Table, first: usize) {
        let nrows = table.row_count();
        if nrows > SAMPLE_ABOVE {
            *self = TableStats::analyze(table);
            return;
        }
        let scan = match self.scan.take() {
            Some(mut scan) => {
                table.scan().skip(first).for_each(|r| scan.add(r, true));
                scan
            }
            None => {
                let mut scan = Box::new(Scan::new(table.schema().len()));
                table.scan().for_each(|r| scan.add(r, true));
                scan
            }
        };
        let stats = scan.finish(nrows);
        *self = TableStats {
            scan: Some(scan),
            ..stats
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;
    use crate::table::row;
    use crate::value::DataType;

    fn table_with_ints(vals: &[i64]) -> Table {
        let mut t = Table::new("t", Schema::from_pairs(&[("a", DataType::Int)]));
        for v in vals {
            t.push(row(vec![Value::Int(*v)])).unwrap();
        }
        t
    }

    #[test]
    fn analyze_basic() {
        let t = table_with_ints(&[1, 2, 2, 3, 3, 3]);
        let s = TableStats::analyze(&t);
        assert_eq!(s.row_count, 6);
        assert_eq!(s.columns[0].distinct, 3);
        assert_eq!(s.columns[0].min, Some(Value::Int(1)));
        assert_eq!(s.columns[0].max, Some(Value::Int(3)));
        assert_eq!(s.columns[0].null_count, 0);
    }

    #[test]
    fn analyze_counts_nulls() {
        let mut t = Table::new("t", Schema::from_pairs(&[("a", DataType::Int)]));
        t.push(row(vec![Value::Null])).unwrap();
        t.push(row(vec![Value::Int(9)])).unwrap();
        let s = TableStats::analyze(&t);
        assert_eq!(s.columns[0].null_count, 1);
        assert_eq!(s.columns[0].distinct, 1);
    }

    #[test]
    fn empty_table() {
        let t = table_with_ints(&[]);
        let s = TableStats::analyze(&t);
        assert_eq!(s.row_count, 0);
        assert_eq!(s.columns[0].distinct, 0);
    }

    /// Appends fold in like a fresh analysis, ties between `Int(3)` and
    /// `Float(3.0)` and NULLs included, whether or not the stats kept a scan.
    #[test]
    fn appends_equal_a_fresh_analysis() {
        let mut t = table_with_ints(&[]);
        let mut s = TableStats::analyze(&t);
        for batch in [
            vec![Value::Float(3.0), Value::Null],
            vec![Value::Int(3), Value::Int(-1), Value::Null],
            vec![Value::Float(7.5)],
            vec![],
        ] {
            let first = t.row_count();
            t.extend(batch.into_iter().map(|v| [v]));
            s.append(&t, first);
            assert_eq!(s, TableStats::analyze(&t));
        }
        assert_eq!(s.columns[0].min, Some(Value::Int(-1)));
        assert!(matches!(s.columns[0].max, Some(Value::Float(_))));
        assert_eq!((s.columns[0].distinct, s.columns[0].null_count), (3, 2));
    }
}
