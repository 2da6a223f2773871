//! In-memory row-oriented tables and work tables, stored in one row slab.

use crate::error::StorageError;
use crate::schema::{Schema, SchemaRef};
use crate::value::{Value, CELL_BYTES};
use std::sync::Arc;

/// A delivered row: a result set's rows, and what a caller hands in to be
/// stored. Stored rows live in a [`RowBuf`] and are borrowed as `&[Value]`.
pub type Row = Arc<[Value]>;

/// Build a row from values.
pub fn row(values: Vec<Value>) -> Row {
    Arc::from(values.into_boxed_slice())
}

/// Rows in a chunk of a [`RowBuf`].
pub const CHUNK_ROWS: usize = 1024;

/// Rows of `width` values each, with no allocation per row: full chunks of
/// [`CHUNK_ROWS`] rows, each shared by every clone of the buffer, and one
/// tail chunk that a clone copies. Appending to a clone therefore copies at
/// most a chunk, never the rows before it. The first chunk grows as it
/// fills; a full chunk is moved, not copied, behind its `Arc`, and the next
/// is allocated at exactly a chunk's size, so the buffer never reserves more
/// than a chunk beyond what it holds.
#[derive(Debug, Clone)]
pub struct RowBuf {
    width: usize,
    len: usize,
    full: Vec<Arc<Vec<Value>>>,
    tail: Vec<Value>,
}

impl RowBuf {
    pub fn new(width: usize) -> Self {
        RowBuf {
            width,
            len: 0,
            full: Vec::new(),
            tail: Vec::new(),
        }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// What the held rows are charged as.
    pub fn bytes(&self) -> usize {
        self.len * self.width.max(1) * CELL_BYTES
    }

    /// Append a row; `row` yields exactly `width` values.
    pub fn push(&mut self, row: impl IntoIterator<Item = Value>) {
        self.tail.extend(row);
        self.len += 1;
        debug_assert_eq!(self.tail.len(), self.tail_rows() * self.width);
        if self.len.is_multiple_of(CHUNK_ROWS) {
            self.tail.shrink_to_fit();
            let next = Vec::with_capacity(CHUNK_ROWS * self.width);
            self.full
                .push(Arc::new(std::mem::replace(&mut self.tail, next)));
        }
    }

    /// Row `i`, if there is one.
    #[inline]
    pub fn get(&self, i: usize) -> Option<&[Value]> {
        if i >= self.len {
            return None;
        }
        let c = i / CHUNK_ROWS;
        let chunk = if c < self.full.len() {
            &self.full[c]
        } else {
            &self.tail
        };
        let at = i % CHUNK_ROWS * self.width;
        chunk.get(at..at + self.width)
    }

    /// Row `i`; panics past the end.
    #[inline]
    pub fn row(&self, i: usize) -> &[Value] {
        match self.get(i) {
            Some(r) => r,
            None => panic!("row {i} of a buffer of {} rows", self.len),
        }
    }

    /// Every row, in insertion order: one walk over each chunk's values.
    pub fn rows(&self) -> impl Iterator<Item = &[Value]> + '_ {
        let w = self.width;
        let full = self.full.iter().map(|c| (&c[..], CHUNK_ROWS));
        let chunks = full.chain(std::iter::once((&self.tail[..], self.tail_rows())));
        chunks.flat_map(move |(c, n)| (0..n).map(move |i| c.get(i * w..i * w + w).unwrap_or(&[])))
    }

    /// The full chunks, each shared by every clone of this buffer.
    #[cfg(test)]
    pub(crate) fn full_chunks(&self) -> &[Arc<Vec<Value>>] {
        &self.full
    }

    fn tail_rows(&self) -> usize {
        self.len - self.full.len() * CHUNK_ROWS
    }
}

/// An in-memory table. Base tables, delta tables and materialized-view
/// contents all use this representation; its rows live in a [`RowBuf`].
#[derive(Debug, Clone)]
pub struct Table {
    name: String,
    schema: SchemaRef,
    rows: RowBuf,
}

impl Table {
    pub fn new(name: impl Into<String>, schema: Schema) -> Self {
        Table {
            name: name.into(),
            rows: RowBuf::new(schema.len()),
            schema: Arc::new(schema),
        }
    }

    /// A table holding copies of `rows` (arity is debug-asserted).
    pub fn with_rows(
        name: impl Into<String>,
        schema: Schema,
        rows: impl IntoIterator<Item = impl AsRef<[Value]>>,
    ) -> Self {
        let mut t = Table::new(name, schema);
        t.extend(rows);
        t
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    pub fn schema(&self) -> &SchemaRef {
        &self.schema
    }

    pub fn row_count(&self) -> usize {
        self.rows.len()
    }

    /// Stored row `i`, if there is one.
    pub fn get(&self, i: usize) -> Option<&[Value]> {
        self.rows.get(i)
    }

    /// A copy of every row, each in an allocation of its own. Readers that
    /// only look use [`Table::scan`].
    pub fn rows(&self) -> Vec<Row> {
        self.scan().map(Row::from).collect()
    }

    /// The slab the rows are stored in.
    pub fn slab(&self) -> &RowBuf {
        &self.rows
    }

    /// Append a copy of a row, checking arity (type checks are the loader's
    /// job).
    pub fn push(&mut self, r: impl AsRef<[Value]>) -> Result<(), StorageError> {
        let r = r.as_ref();
        if r.len() != self.schema.len() {
            return Err(StorageError::ArityMismatch {
                table: self.name.clone(),
                expected: self.schema.len(),
                got: r.len(),
            });
        }
        self.rows.push(r.iter().cloned());
        Ok(())
    }

    /// Append one row of `values`, moved into the slab without an arity
    /// check (bulk load fast path); arity is debug-asserted.
    pub fn push_values(&mut self, values: impl IntoIterator<Item = Value>) {
        self.rows.push(values);
    }

    /// Append copies of many rows without per-row arity checks; arity is
    /// debug-asserted.
    pub fn extend(&mut self, rows: impl IntoIterator<Item = impl AsRef<[Value]>>) {
        for r in rows {
            self.rows.push(r.as_ref().iter().cloned());
        }
    }

    /// Sequential scan, in insertion order.
    pub fn scan(&self) -> impl Iterator<Item = &[Value]> + '_ {
        self.rows.rows()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::DataType;

    fn sample() -> Table {
        let mut t = Table::new(
            "t",
            Schema::from_pairs(&[("a", DataType::Int), ("b", DataType::Str)]),
        );
        t.push(row(vec![Value::Int(1), Value::str("x")])).unwrap();
        t.push(row(vec![Value::Int(2), Value::str("y")])).unwrap();
        t
    }

    #[test]
    fn push_and_scan() {
        let t = sample();
        assert_eq!(t.row_count(), 2);
        let vals: Vec<i64> = t.scan().map(|r| r[0].as_i64().unwrap()).collect();
        assert_eq!(vals, vec![1, 2]);
    }

    #[test]
    fn arity_mismatch_rejected() {
        let mut t = sample();
        let err = t.push(row(vec![Value::Int(1)])).unwrap_err();
        assert!(matches!(err, StorageError::ArityMismatch { .. }));
    }

    fn pair(i: usize) -> [Value; 2] {
        [Value::Int(i as i64), Value::Int(-(i as i64))]
    }

    /// Rows pushed one by one and a table extended in bulk read back the
    /// same, on both sides of every chunk boundary, by position and by scan.
    #[test]
    fn push_and_extend_cross_the_chunk_boundary() {
        let n = 2 * CHUNK_ROWS + 3;
        let mut buf = RowBuf::new(2);
        for i in 0..n {
            buf.push(pair(i));
        }
        let schema = Schema::from_pairs(&[("a", DataType::Int), ("b", DataType::Int)]);
        let table = Table::with_rows("t", schema, (0..n).map(pair));
        for slab in [&buf, table.slab()] {
            assert_eq!(slab.len(), n);
            assert_eq!(slab.full_chunks().len(), 2);
            for i in [
                0,
                CHUNK_ROWS - 1,
                CHUNK_ROWS,
                CHUNK_ROWS + 1,
                2 * CHUNK_ROWS,
                n - 1,
            ] {
                assert_eq!(slab.row(i), &pair(i)[..], "row {i}");
            }
            assert_eq!(slab.get(n), None);
            assert!(slab
                .rows()
                .eq((0..n).map(pair).collect::<Vec<_>>().iter().map(|r| &r[..])));
        }
    }

    /// A buffer of width 0 (a breaker that keeps no column) still counts
    /// and yields its rows.
    #[test]
    fn zero_width_rows_are_counted() {
        let mut buf = RowBuf::new(0);
        for _ in 0..CHUNK_ROWS + 1 {
            buf.push(std::iter::empty());
        }
        assert_eq!(buf.rows().count(), CHUNK_ROWS + 1);
        assert_eq!(buf.row(CHUNK_ROWS), &[] as &[Value]);
        assert_eq!(buf.get(CHUNK_ROWS + 1), None);
    }
}
