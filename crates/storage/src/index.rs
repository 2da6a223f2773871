//! Secondary indexes.
//!
//! Two flavours: an equality [`HashIndex`] and an ordered [`BTreeIndex`]
//! supporting range scans (e.g. TPC-H's clustered index on `o_orderdate`
//! that makes the paper's Example 7 consumer cheap). Indexes map key values
//! to row positions in the owning table. Rows appended to the table are
//! folded in with `extend`, which leaves an index equal to a fresh build.

use crate::table::Table;
use crate::value::Value;
use std::collections::hash_map::{Entry, HashMap};
use std::collections::BTreeMap;
use std::ops::Bound;

/// Equality index: value -> row ids, ascending. A key holds its first and
/// last row id; every row links to the next row with its key, so an index
/// costs one map entry a key and four bytes a row.
#[derive(Debug, Clone, PartialEq)]
pub struct HashIndex {
    pub column: usize,
    ends: HashMap<Value, (u32, u32)>,
    next: Vec<u32>,
}

/// The end of a chain of row ids.
const END: u32 = u32::MAX;

impl HashIndex {
    /// Build over the given column of `table`.
    pub fn build(table: &Table, column: usize) -> Self {
        let (ends, next) = (HashMap::new(), Vec::with_capacity(table.row_count()));
        let mut idx = HashIndex { column, ends, next };
        idx.extend(table, 0);
        idx
    }

    /// Fold in the rows of `table` from row id `first` on (the rows indexed
    /// so far).
    pub fn extend(&mut self, table: &Table, first: usize) {
        debug_assert_eq!(first, self.next.len());
        for r in table.scan().skip(first) {
            let id = self.next.len() as u32;
            self.next.push(END);
            match self.ends.entry(r[self.column].clone()) {
                Entry::Occupied(mut at) => {
                    let last = std::mem::replace(&mut at.get_mut().1, id);
                    self.next[last as usize] = id;
                }
                Entry::Vacant(at) => {
                    at.insert((id, id));
                }
            }
        }
    }

    /// The ids of the rows whose key equals `key`, ascending.
    pub fn lookup(&self, key: &Value) -> impl Iterator<Item = u32> + '_ {
        let mut at = self.ends.get(key).map_or(END, |&(first, _)| first);
        std::iter::from_fn(move || {
            let id = (at != END).then_some(at)?;
            at = self.next[id as usize];
            Some(id)
        })
    }
}

/// Ordered index: supports point and range lookups.
#[derive(Debug, Clone, PartialEq)]
pub struct BTreeIndex {
    pub column: usize,
    map: BTreeMap<Value, Vec<u32>>,
}

impl BTreeIndex {
    pub fn build(table: &Table, column: usize) -> Self {
        let mut idx = BTreeIndex {
            column,
            map: BTreeMap::new(),
        };
        idx.extend(table, 0);
        idx
    }

    /// Fold in the rows of `table` from row id `first` on.
    pub fn extend(&mut self, table: &Table, first: usize) {
        for (id, r) in (first as u32..).zip(table.scan().skip(first)) {
            self.map.entry(r[self.column].clone()).or_default().push(id);
        }
    }

    pub fn lookup(&self, key: &Value) -> &[u32] {
        self.map.get(key).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Row ids whose key lies within the given bounds.
    pub fn range(&self, lo: Bound<&Value>, hi: Bound<&Value>) -> impl Iterator<Item = u32> + '_ {
        self.map
            .range::<Value, _>((lo, hi))
            .flat_map(|(_, ids)| ids.iter().copied())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;
    use crate::table::row;
    use crate::value::DataType;

    fn sample() -> Table {
        let mut t = Table::new("t", Schema::from_pairs(&[("k", DataType::Int)]));
        for v in [5i64, 3, 5, 8, 1] {
            t.push(row(vec![Value::Int(v)])).unwrap();
        }
        t
    }

    #[test]
    fn hash_index_lookup() {
        let t = sample();
        let idx = HashIndex::build(&t, 0);
        let ids = |k: i64| idx.lookup(&Value::Int(k)).collect::<Vec<u32>>();
        assert_eq!(ids(5), [0, 2]);
        assert_eq!(ids(42), [] as [u32; 0]);
    }

    #[test]
    fn btree_index_range() {
        let t = sample();
        let idx = BTreeIndex::build(&t, 0);
        let got: Vec<u32> = idx
            .range(
                Bound::Included(&Value::Int(3)),
                Bound::Excluded(&Value::Int(8)),
            )
            .collect();
        assert_eq!(got, vec![1, 0, 2]); // key 3 then key 5 (rows 0 and 2)
    }

    #[test]
    fn btree_point_lookup() {
        let t = sample();
        let idx = BTreeIndex::build(&t, 0);
        assert_eq!(idx.lookup(&Value::Int(1)), &[4]);
    }
}
