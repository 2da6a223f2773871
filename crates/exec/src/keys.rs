//! Group-by and join keys hashed in place.
//!
//! A key is a set of positions in a borrowed row: it is hashed with
//! [`Value::hash`] straight from the row and compared column by column
//! only on a hash hit, so no per-row key vector is built. Equality is
//! [`Value`]'s total-order equality — `Int(3)` equals `Float(3.0)` and
//! NULL equals NULL (group-by wants one NULL group; joins skip NULL keys
//! before they get here).

#![expect(
    clippy::indexing_slicing,
    reason = "slot index masked by the power-of-two table length; stored ids are < hashes.len() by construction; key positions and row numbers are the caller's, resolved against the rows they index"
)]

use cse_storage::Value;
use std::hash::{Hash, Hasher};

/// Multiply-rotate hasher (FxHash style) with a final avalanche.
/// `Value::hash` feeds integers as `f64` bits, whose low ~40 bits are zero
/// for small values; without the finalizer every such key would land in
/// the same slot of a power-of-two table.
#[derive(Default)]
struct KeyHasher(u64);

impl KeyHasher {
    #[inline]
    fn mix(&mut self, x: u64) {
        self.0 = (self.0.rotate_left(5) ^ x).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            self.mix(chunk.iter().rev().fold(0, |x, b| (x << 8) | u64::from(*b)));
        }
    }
    #[inline]
    fn write_u8(&mut self, x: u8) {
        self.mix(u64::from(x));
    }
    #[inline]
    fn write_u32(&mut self, x: u32) {
        self.mix(u64::from(x));
    }
    #[inline]
    fn write_u64(&mut self, x: u64) {
        self.mix(x);
    }
    /// The 64-bit finalizer of MurmurHash3.
    #[inline]
    fn finish(&self) -> u64 {
        let mut h = self.0;
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        h ^ (h >> 33)
    }
}

/// Hash of the key columns `pos` of `row`.
#[inline]
pub(crate) fn key_hash(row: &[Value], pos: &[usize]) -> u64 {
    let mut h = KeyHasher::default();
    pos.iter().for_each(|p| row[*p].hash(&mut h));
    h.finish()
}

/// Are the key columns `pa` of `a` equal to the key columns `pb` of `b`?
#[inline]
pub(crate) fn key_eq(a: &[Value], pa: &[usize], b: &[Value], pb: &[usize]) -> bool {
    pa.iter().zip(pb).all(|(x, y)| a[*x] == b[*y])
}

const EMPTY: u32 = u32::MAX;

/// Open-addressing index from key hash to dense entry ids `0, 1, 2, …`
/// (insertion order). The caller keeps what an entry *is* — a group's
/// first row, a build-side chain — in vectors indexed by the id, and
/// supplies the key comparison for a hash hit.
pub(crate) struct KeyTable {
    /// Power-of-two slot array holding entry ids, at most half full.
    slots: Vec<u32>,
    /// Full hash of every entry, by id: filters comparisons, feeds regrowth.
    hashes: Vec<u64>,
}

impl KeyTable {
    pub(crate) fn with_capacity(entries: usize) -> Self {
        KeyTable {
            slots: vec![EMPTY; (entries * 2).next_power_of_two().max(16)],
            hashes: Vec::with_capacity(entries),
        }
    }

    /// The id of the entry with this `hash` for which `eq(id)` holds
    /// (`Ok`), or the empty slot where it would go (`Err`).
    #[inline]
    fn probe(&self, hash: u64, mut eq: impl FnMut(usize) -> bool) -> Result<usize, usize> {
        let mask = self.slots.len() - 1;
        let mut slot = hash as usize & mask;
        loop {
            let id = self.slots[slot] as usize;
            if id == EMPTY as usize {
                return Err(slot);
            }
            if self.hashes[id] == hash && eq(id) {
                return Ok(id);
            }
            slot = (slot + 1) & mask;
        }
    }

    #[inline]
    pub(crate) fn find(&self, hash: u64, eq: impl FnMut(usize) -> bool) -> Option<usize> {
        self.probe(hash, eq).ok()
    }

    /// Find the entry as [`KeyTable::find`] does, or add it under the next
    /// id; the flag says whether it was added.
    #[inline]
    pub(crate) fn find_or_insert(
        &mut self,
        hash: u64,
        eq: impl FnMut(usize) -> bool,
    ) -> (usize, bool) {
        if (self.hashes.len() + 1) * 2 > self.slots.len() {
            self.grow();
        }
        match self.probe(hash, eq) {
            Ok(id) => (id, false),
            Err(slot) => {
                let id = self.hashes.len();
                self.slots[slot] = id as u32;
                self.hashes.push(hash);
                (id, true)
            }
        }
    }

    fn grow(&mut self) {
        self.slots = vec![EMPTY; self.slots.len() * 2];
        for id in 0..self.hashes.len() {
            if let Err(slot) = self.probe(self.hashes[id], |_| false) {
                self.slots[slot] = id as u32;
            }
        }
    }
}

/// Rows a breaker holds: `width` values a row, no allocation per row. The
/// first chunk grows as it fills; a full chunk is followed by one allocated
/// at exactly its size, so held rows are never moved again and the buffer
/// never reserves more than a chunk beyond what it holds.
pub(crate) struct RowBuf {
    width: usize,
    len: usize,
    chunks: Vec<Vec<Value>>,
}

const CHUNK_ROWS: usize = 1024;

impl RowBuf {
    pub(crate) fn new(width: usize) -> Self {
        RowBuf {
            width,
            len: 0,
            chunks: Vec::new(),
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// What the held rows are charged as.
    pub(crate) fn bytes(&self) -> usize {
        self.len * self.width.max(1) * std::mem::size_of::<Value>()
    }

    /// Append a row; `row` yields exactly `width` values.
    #[expect(
        clippy::expect_used,
        reason = "a chunk is pushed above whenever the last one is full, including the first row"
    )]
    pub(crate) fn push(&mut self, row: impl Iterator<Item = Value>) {
        if self.len.is_multiple_of(CHUNK_ROWS) {
            let reserve = if self.len == 0 { 0 } else { CHUNK_ROWS };
            self.chunks.push(Vec::with_capacity(reserve * self.width));
        }
        let chunk = self.chunks.last_mut().expect("a chunk was pushed above");
        chunk.extend(row);
        self.len += 1;
        debug_assert_eq!(chunk.len(), ((self.len - 1) % CHUNK_ROWS + 1) * self.width);
    }

    #[inline]
    pub(crate) fn row(&self, i: usize) -> &[Value] {
        &self.chunks[i / CHUNK_ROWS][i % CHUNK_ROWS * self.width..][..self.width]
    }

    /// Every row, in insertion order.
    pub(crate) fn rows(&self) -> impl Iterator<Item = &[Value]> {
        (0..self.len).map(|i| self.row(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Longest run of occupied slots a lookup may have to walk.
    fn longest_probe(t: &KeyTable) -> usize {
        let (mut run, mut longest) = (0, 0);
        for s in t.slots.iter().chain(t.slots.iter()) {
            run = if *s == EMPTY { 0 } else { run + 1 };
            longest = longest.max(run);
        }
        longest
    }

    fn table_of(keys: impl Iterator<Item = Value>) -> KeyTable {
        let rows: Vec<Vec<Value>> = keys.map(|k| vec![k]).collect();
        let mut t = KeyTable::with_capacity(0);
        for (i, r) in rows.iter().enumerate() {
            let h = key_hash(r, &[0]);
            let (id, added) = t.find_or_insert(h, |id| key_eq(&rows[id], &[0], r, &[0]));
            assert!(added && id == i, "sequential keys are distinct");
        }
        for (i, r) in rows.iter().enumerate() {
            let found = t.find(key_hash(r, &[0]), |id| key_eq(&rows[id], &[0], r, &[0]));
            assert_eq!(found, Some(i));
        }
        t
    }

    /// Small ints are hashed as `f64` bits (low bits all zero) and dates as
    /// a bare `i32`: both must still spread over a power-of-two table.
    #[test]
    fn sequential_int_and_date_keys_do_not_pile_up() {
        let ints = table_of((0..10_000).map(Value::Int));
        assert!(longest_probe(&ints) <= 32, "{}", longest_probe(&ints));
        let dates = table_of((8_000..18_000).map(Value::Date));
        assert!(longest_probe(&dates) <= 32, "{}", longest_probe(&dates));
    }

    #[test]
    fn numeric_equal_keys_meet_and_null_is_a_key() {
        let (a, b) = ([Value::Int(3)], [Value::Float(3.0)]);
        assert_eq!(key_hash(&a, &[0]), key_hash(&b, &[0]));
        assert!(key_eq(&a, &[0], &b, &[0]));
        assert!(!key_eq(&a, &[0], &[Value::Float(3.5)], &[0]));
        assert!(key_eq(&[Value::Null], &[0], &[Value::Null], &[0]));
        // Multi-column keys read their own positions on each side.
        let l = [Value::str("x"), Value::Date(9)];
        let r = [Value::Date(9), Value::Int(0), Value::str("x")];
        assert_eq!(key_hash(&l, &[0, 1]), key_hash(&r, &[2, 0]));
        assert!(key_eq(&l, &[0, 1], &r, &[2, 0]));
    }
}
