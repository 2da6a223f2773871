//! Table and column statistics used by the cardinality estimator.
//!
//! Statistics are computed by a single scan over a loaded table: row count,
//! and per column the min/max, the distinct count and the null count. Every
//! row is counted at every table size. A table that grows by appends keeps
//! what the scan accumulated, so its stats follow each append at the cost
//! of the appended rows.

use crate::table::Table;
use crate::value::Value;
use std::collections::HashSet;
use std::hash::{BuildHasherDefault, Hash, Hasher};

/// Statistics for one column.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnStats {
    pub min: Option<Value>,
    pub max: Option<Value>,
    /// Number of distinct non-null values.
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
    columns: Vec<ColumnScan>,
}

#[derive(Debug, Clone)]
struct ColumnScan {
    min: Option<Value>,
    max: Option<Value>,
    /// Every distinct non-null value seen, hashed through `Value`'s own
    /// `Hash` (consistent with its `Eq`) and [`Fold`]. A set of the values'
    /// hashes alone is half the size, but freeing that smaller set lowers
    /// glibc's dynamic mmap and trim thresholds, and the executor's
    /// per-request buffers then page-fault (EXPERIMENTS *Planner: the CSE
    /// phase derives each fact once*).
    distinct: HashSet<Value, BuildHasherDefault<Fold>>,
    /// The last hash seen in each of `RECENT` slots (a hash `h` in slot
    /// `h % RECENT`), which answers most repeats without probing
    /// `distinct`. Slot `i` starts at a value no hash of that slot has.
    recent: Box<[u64; RECENT]>,
    nulls: u64,
}

/// Slots of [`ColumnScan::recent`].
const RECENT: usize = 256;

/// Rows [`Scan::add`] counts a column at a time.
const BLOCK: usize = 1024;

impl ColumnScan {
    /// Fold in one value.
    fn add(&mut self, v: &Value) {
        if v.is_null() {
            self.nulls += 1;
            return;
        }
        let mut h = Fold::default();
        v.hash(&mut h);
        let h = h.finish();
        // A value seen before (its hash lately in its slot, or the value in
        // the set) was already compared with the bounds.
        let recent = &mut self.recent[(h % RECENT as u64) as usize];
        let seen = *recent == h || !self.distinct.insert(v.clone());
        *recent = h;
        if seen {
            return;
        }
        match &self.min {
            Some(m) if m.total_cmp(v) != std::cmp::Ordering::Greater => {}
            _ => self.min = Some(v.clone()),
        }
        match &self.max {
            Some(m) if m.total_cmp(v) != std::cmp::Ordering::Less => {}
            _ => self.max = Some(v.clone()),
        }
    }
}

impl Default for ColumnScan {
    fn default() -> Self {
        ColumnScan {
            min: None,
            max: None,
            distinct: HashSet::default(),
            recent: Box::new(std::array::from_fn(|i| i as u64 + 1)),
            nulls: 0,
        }
    }
}

/// The fixed hasher of distinct counting: each word is folded in with a
/// 128-bit multiply (the high half XOR-ed onto the low), so every input bit
/// reaches every output bit and two distinct values share a hash about as
/// often as two random 64-bit numbers, which [`ColumnScan::recent`] relies
/// on. A byte string is its length, then its little-endian words.
#[derive(Default)]
struct Fold(u64);

impl Hasher for Fold {
    fn write(&mut self, bytes: &[u8]) {
        self.write_u64(bytes.len() as u64);
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u8(&mut self, x: u8) {
        self.write_u64(u64::from(x));
    }

    fn write_u64(&mut self, x: u64) {
        const K: u64 = 0x9e37_79b9_7f4a_7c15;
        let m = u128::from(self.0 ^ x ^ K) * u128::from(K.rotate_left(31) | 1);
        self.0 = (m as u64) ^ ((m >> 64) as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

impl Scan {
    fn new(ncols: usize) -> Self {
        Scan {
            columns: vec![ColumnScan::default(); ncols],
        }
    }

    /// Fold in `rows` a block at a time, column by column within a block,
    /// so that one column's sets stay in cache while it is counted.
    fn add<'r>(&mut self, mut rows: impl Iterator<Item = &'r [Value]>) {
        let mut block: Vec<&[Value]> = Vec::with_capacity(BLOCK);
        loop {
            block.clear();
            block.extend(rows.by_ref().take(BLOCK));
            if block.is_empty() {
                return;
            }
            for (c, column) in self.columns.iter_mut().enumerate() {
                block
                    .iter()
                    .filter_map(|row| row.get(c))
                    .for_each(|v| column.add(v));
            }
        }
    }

    /// The stats of a table of `nrows` rows this scan has seen.
    fn finish(&self, nrows: usize) -> TableStats {
        let nrows = nrows as u64;
        let columns = self
            .columns
            .iter()
            .map(|c| ColumnStats {
                min: c.min.clone(),
                max: c.max.clone(),
                distinct: (c.distinct.len() as u64)
                    .min(nrows)
                    .max(u64::from(nrows > 0)),
                null_count: c.nulls,
            })
            .collect();
        TableStats {
            row_count: nrows,
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
        let mut scan = Scan::new(table.schema().len());
        scan.add(table.scan());
        scan.finish(table.row_count())
    }

    /// Fold the rows of `table` from `first` on, just appended, into these
    /// stats of the table before the append. The result equals
    /// [`TableStats::analyze`] of the grown table. Stats without a kept
    /// scan (the first append) are analyzed once over the whole table,
    /// keeping the scan for the next.
    pub fn append(&mut self, table: &Table, first: usize) {
        let scan = match self.scan.take() {
            Some(mut scan) => {
                scan.add(table.scan().skip(first));
                scan
            }
            None => {
                let mut scan = Box::new(Scan::new(table.schema().len()));
                scan.add(table.scan());
                scan
            }
        };
        let stats = scan.finish(table.row_count());
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
