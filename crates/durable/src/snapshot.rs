//! Catalog snapshots: a checksummed, LSN-stamped image of the whole
//! catalog, encoded as the compacted mutation sequence that rebuilds it.
//!
//! Layout (little-endian):
//!
//! ```text
//! | magic: u32 | version: u32 | lsn: u64 | payload_len: u32 | crc: u32 |
//! | payload: count: u32, then `count` length-prefixed mutations |
//! ```
//!
//! The payload is literally a list of [`CatalogMutation`]s — register
//! every table (sorted by name for deterministic bytes), rebuild every
//! index, re-register every view — replayed through the same
//! [`Catalog::apply_mutation`] path the WAL uses. A snapshot is just a
//! log with the history compacted away.

use crate::crc::crc32;
use crate::{codec, DurableError};
use cse_storage::{Catalog, CatalogMutation};

pub const SNAP_MAGIC: u32 = 0x4353_4E50; // "CSNP"
pub const SNAP_VERSION: u32 = 1;

/// The mutation sequence that rebuilds `catalog` from empty.
pub fn catalog_as_mutations(catalog: &Catalog) -> Vec<CatalogMutation> {
    let mut names: Vec<String> = catalog.table_names().map(str::to_string).collect();
    names.sort();
    let mut out = Vec::new();
    for name in &names {
        let Ok(entry) = catalog.get(name) else {
            continue;
        };
        out.push(CatalogMutation::RegisterTable {
            table: entry.table.as_ref().clone(),
        });
        for idx in &entry.btree_indexes {
            out.push(CatalogMutation::CreateBtreeIndex {
                table: name.clone(),
                column: entry.table.schema().column(idx.column).name.clone(),
            });
        }
        for idx in &entry.hash_indexes {
            out.push(CatalogMutation::CreateHashIndex {
                table: name.clone(),
                column: entry.table.schema().column(idx.column).name.clone(),
            });
        }
    }
    let mut views: Vec<_> = catalog.views().collect();
    views.sort_by(|a, b| a.name.cmp(&b.name));
    for v in views {
        out.push(CatalogMutation::RegisterView {
            name: v.name.clone(),
            definition_sql: v.definition_sql.clone(),
        });
    }
    out
}

/// Encode a snapshot of `catalog` covering every mutation up to `lsn`.
pub fn encode_snapshot(lsn: u64, catalog: &Catalog) -> Vec<u8> {
    let mutations = catalog_as_mutations(catalog);
    let mut payload = Vec::new();
    payload.extend_from_slice(&(mutations.len() as u32).to_le_bytes());
    for m in &mutations {
        let enc = codec::encode_mutation(m);
        payload.extend_from_slice(&(enc.len() as u32).to_le_bytes());
        payload.extend_from_slice(&enc);
    }
    let mut out = Vec::with_capacity(24 + payload.len());
    out.extend_from_slice(&SNAP_MAGIC.to_le_bytes());
    out.extend_from_slice(&SNAP_VERSION.to_le_bytes());
    out.extend_from_slice(&lsn.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

fn u32_at(b: &[u8], at: usize) -> Option<u32> {
    b.get(at..at + 4)
        .map(|s| u32::from_le_bytes([s[0], s[1], s[2], s[3]]))
}

/// Decode and rebuild a snapshot. Any structural or checksum failure is
/// [`DurableError::CorruptSnapshot`]: a snapshot is published atomically,
/// so unlike the WAL there is no benign torn shape to tolerate.
pub(crate) fn decode_snapshot(bytes: &[u8]) -> Result<(u64, Catalog), DurableError> {
    let corrupt = || DurableError::CorruptSnapshot;
    if bytes.len() < 24 {
        return Err(corrupt());
    }
    if u32_at(bytes, 0) != Some(SNAP_MAGIC) || u32_at(bytes, 4) != Some(SNAP_VERSION) {
        return Err(corrupt());
    }
    let mut lsn_bytes = [0u8; 8];
    lsn_bytes.copy_from_slice(&bytes[8..16]);
    let lsn = u64::from_le_bytes(lsn_bytes);
    let payload_len = u32_at(bytes, 16).ok_or_else(corrupt)? as usize;
    let stored_crc = u32_at(bytes, 20).ok_or_else(corrupt)?;
    let payload = bytes.get(24..).ok_or_else(corrupt)?;
    if payload.len() != payload_len || crc32(payload) != stored_crc {
        return Err(corrupt());
    }
    let count = u32_at(payload, 0).ok_or_else(corrupt)? as usize;
    let mut catalog = Catalog::new();
    let mut pos = 4usize;
    for _ in 0..count {
        let len = u32_at(payload, pos).ok_or_else(corrupt)? as usize;
        pos += 4;
        let enc = payload.get(pos..pos + len).ok_or_else(corrupt)?;
        pos += len;
        let m = codec::decode_mutation(enc).map_err(|_| corrupt())?;
        catalog.apply_mutation(&m).map_err(|_| corrupt())?;
    }
    if pos != payload.len() {
        return Err(corrupt());
    }
    Ok((lsn, catalog))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cse_storage::schema::Schema;
    use cse_storage::table::{row, Table};
    use cse_storage::value::{DataType, Value};
    use cse_storage::MaterializedView;

    fn sample_catalog() -> Catalog {
        let mut c = Catalog::new();
        let schema = Schema::from_pairs(&[("k", DataType::Int), ("s", DataType::Str)]);
        let mut t = Table::new("orders", schema.clone());
        for i in 0..10 {
            t.push(row(vec![Value::Int(i), Value::str(format!("r{i}"))]))
                .unwrap();
        }
        c.register_table(t).unwrap();
        c.create_btree_index("orders", "k").unwrap();
        c.create_hash_index("orders", "s").unwrap();
        let mut v = Table::new("v_sum", Schema::from_pairs(&[("total", DataType::Int)]));
        v.push(row(vec![Value::Int(45)])).unwrap();
        c.register_table(v).unwrap();
        c.register_view(MaterializedView {
            name: "v_sum".into(),
            definition_sql: "select sum(k) as total from orders".into(),
        });
        c
    }

    #[test]
    fn snapshot_roundtrips_catalog() {
        let c = sample_catalog();
        let bytes = encode_snapshot(17, &c);
        let (lsn, rebuilt) = decode_snapshot(&bytes).unwrap();
        assert_eq!(lsn, 17);
        assert!(crate::catalogs_equivalent(&c, &rebuilt).is_ok());
    }

    #[test]
    fn snapshot_bytes_are_deterministic() {
        let c = sample_catalog();
        assert_eq!(encode_snapshot(5, &c), encode_snapshot(5, &c));
    }

    #[test]
    fn corrupted_snapshot_is_detected() {
        let c = sample_catalog();
        let mut bytes = encode_snapshot(3, &c);
        let n = bytes.len();
        bytes[n / 2] ^= 0x20;
        let err = decode_snapshot(&bytes).unwrap_err();
        assert_eq!(err.code(), "WAL_CORRUPT_SNAPSHOT");
        assert!(decode_snapshot(&bytes[..10]).is_err());
        assert!(decode_snapshot(b"not a snapshot at all....").is_err());
    }
}
