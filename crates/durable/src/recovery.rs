//! Crash recovery: snapshot load + WAL suffix replay + invariant check.
//!
//! The protocol mirrors ARIES-style redo restricted to catalog mutations:
//! load the newest published snapshot (if any), replay every WAL record
//! with an LSN beyond it through [`Catalog::apply_mutation`], tolerate a
//! torn tail, and refuse to serve a catalog that fails the `cse-verify`
//! catalog invariant pass.

use crate::store::Store;
use crate::{codec, snapshot, wal, DurableError, TailStatus};
use cse_govern::{sites, FailpointRegistry};
use cse_storage::{Catalog, CatalogEntry};

/// What recovery found and did; surfaced to operators (qserve prints it)
/// and asserted on by the crash-restart harness.
#[derive(Debug)]
pub struct RecoveryInfo {
    /// LSN the loaded snapshot covers (0 = no snapshot).
    pub snapshot_lsn: u64,
    /// WAL records replayed (LSN beyond the snapshot).
    pub replayed: usize,
    /// WAL records skipped because the snapshot already covers them
    /// (crash landed between snapshot publish and log truncation).
    pub skipped: usize,
    /// Highest LSN the recovered catalog reflects.
    pub last_lsn: u64,
    /// How the log ended ([`TailStatus::code`] is the stable reason code).
    pub tail: TailStatus,
    /// Diagnostics from the `cse-verify` catalog invariant pass (clean
    /// when recovery returns `Ok`).
    pub verify: cse_diag::Report,
}

/// Rebuild the catalog from a store's snapshot + WAL.
///
/// A torn tail is tolerated (the durable prefix wins, reported via
/// [`RecoveryInfo::tail`]); mid-log corruption, a corrupt snapshot, an
/// undecodable record, a record that fails to apply, or a catalog that
/// fails invariant verification are all hard errors — serving must not
/// resume on silently lossy state.
pub fn recover<S: Store>(
    store: &S,
    registry: &FailpointRegistry,
) -> Result<(Catalog, RecoveryInfo), DurableError> {
    let (snapshot_lsn, mut catalog) = match store.read_snapshot()? {
        Some(bytes) => snapshot::decode_snapshot(&bytes)?,
        None => (0, Catalog::new()),
    };
    let image = store.read_wal()?;
    let scan = wal::scan_wal(&image)?;
    let mut replayed = 0usize;
    let mut skipped = 0usize;
    let mut last_lsn = snapshot_lsn;
    for (lsn, payload) in &scan.records {
        if *lsn <= snapshot_lsn {
            skipped += 1;
            continue;
        }
        if registry.should_fail(sites::RECOVER_REPLAY) {
            return Err(DurableError::Injected {
                site: sites::RECOVER_REPLAY,
            });
        }
        let m = codec::decode_mutation(payload)?;
        catalog
            .apply_mutation(&m)
            .map_err(|err| DurableError::ReplayApply {
                lsn: *lsn,
                kind: m.kind(),
                detail: err.to_string(),
            })?;
        replayed += 1;
        last_lsn = *lsn;
    }
    let verify = cse_verify::catalog::verify_catalog(&catalog);
    if verify.error_count() > 0 {
        return Err(DurableError::VerifyFailed {
            errors: verify.error_count(),
        });
    }
    Ok((
        catalog,
        RecoveryInfo {
            snapshot_lsn,
            replayed,
            skipped,
            last_lsn,
            tail: scan.tail,
            verify,
        },
    ))
}

fn entry_signature(e: &CatalogEntry) -> (Vec<u8>, usize, Vec<usize>, Vec<usize>) {
    let mut rows: Vec<&[cse_storage::Value]> = e.table.scan().collect();
    rows.sort();
    let mut digest = Vec::new();
    for r in rows {
        for v in r.iter() {
            digest.extend_from_slice(format!("{v};").as_bytes());
        }
        digest.push(b'\n');
    }
    let mut btree: Vec<usize> = e.btree_indexes.iter().map(|i| i.column).collect();
    btree.sort_unstable();
    let mut hash: Vec<usize> = e.hash_indexes.iter().map(|i| i.column).collect();
    hash.sort_unstable();
    (digest, e.stats.row_count as usize, btree, hash)
}

/// Structural equivalence of two catalogs: same tables (schema + row
/// multiset + stats row count + index columns) and same views. Returns a
/// description of the first difference, for test failure messages.
pub fn catalogs_equivalent(a: &Catalog, b: &Catalog) -> Result<(), String> {
    let mut names_a: Vec<&str> = a.table_names().collect();
    let mut names_b: Vec<&str> = b.table_names().collect();
    names_a.sort_unstable();
    names_b.sort_unstable();
    if names_a != names_b {
        return Err(format!("table sets differ: {names_a:?} vs {names_b:?}"));
    }
    for name in names_a {
        let (ea, eb) = (
            a.get(name).map_err(|e| e.to_string())?,
            b.get(name).map_err(|e| e.to_string())?,
        );
        if ea.table.schema().as_ref() != eb.table.schema().as_ref() {
            return Err(format!("schema of '{name}' differs"));
        }
        let (rows_a, count_a, bt_a, h_a) = entry_signature(ea);
        let (rows_b, count_b, bt_b, h_b) = entry_signature(eb);
        if rows_a != rows_b {
            return Err(format!("row contents of '{name}' differ"));
        }
        if count_a != count_b {
            return Err(format!(
                "stats row_count of '{name}' differs: {count_a} vs {count_b}"
            ));
        }
        if bt_a != bt_b || h_a != h_b {
            return Err(format!("index set of '{name}' differs"));
        }
        for (ca, cb) in ea.stats.columns.iter().zip(eb.stats.columns.iter()) {
            if ca.distinct != cb.distinct || ca.null_count != cb.null_count {
                return Err(format!("column stats of '{name}' differ"));
            }
        }
    }
    let mut views_a: Vec<(&str, &str)> = a
        .views()
        .map(|v| (v.name.as_str(), v.definition_sql.as_str()))
        .collect();
    let mut views_b: Vec<(&str, &str)> = b
        .views()
        .map(|v| (v.name.as_str(), v.definition_sql.as_str()))
        .collect();
    views_a.sort_unstable();
    views_b.sort_unstable();
    if views_a != views_b {
        return Err(format!("view sets differ: {views_a:?} vs {views_b:?}"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::SimStore;
    use cse_storage::schema::Schema;
    use cse_storage::table::{row, Table};
    use cse_storage::value::{DataType, Value};
    use cse_storage::CatalogMutation;

    fn table_named(name: &str, vals: &[i64]) -> Table {
        let mut t = Table::new(name, Schema::from_pairs(&[("a", DataType::Int)]));
        for v in vals {
            t.push(row(vec![Value::Int(*v)])).unwrap();
        }
        t
    }

    fn append_record(store: &mut SimStore, lsn: u64, m: &CatalogMutation) {
        let frame = wal::encode_frame(lsn, &codec::encode_mutation(m));
        store.append_wal(&frame).unwrap();
        store.sync_wal().unwrap();
    }

    #[test]
    fn replay_from_empty_store() {
        let store = SimStore::new();
        let reg = FailpointRegistry::disabled();
        let (catalog, info) = recover(&store, &reg).unwrap();
        assert_eq!(catalog.table_names().count(), 0);
        assert_eq!(info.last_lsn, 0);
        assert_eq!(info.tail, TailStatus::Clean);
        assert_eq!(info.tail.code(), "WAL_CLEAN");
    }

    #[test]
    fn replay_applies_wal_suffix_after_snapshot() {
        let mut store = SimStore::new();
        let reg = FailpointRegistry::disabled();
        let mut oracle = Catalog::new();
        oracle.register_table(table_named("t1", &[1, 2])).unwrap();
        store
            .write_snapshot(&snapshot::encode_snapshot(1, &oracle))
            .unwrap();
        // A stale record the snapshot already covers (pre-truncation
        // crash) plus a live suffix record.
        append_record(
            &mut store,
            1,
            &CatalogMutation::RegisterTable {
                table: table_named("t1", &[1, 2]),
            },
        );
        let m2 = CatalogMutation::RegisterTable {
            table: table_named("t2", &[7]),
        };
        append_record(&mut store, 2, &m2);
        oracle.apply_mutation(&m2).unwrap();

        let (catalog, info) = recover(&store, &reg).unwrap();
        assert_eq!(info.snapshot_lsn, 1);
        assert_eq!(info.skipped, 1);
        assert_eq!(info.replayed, 1);
        assert_eq!(info.last_lsn, 2);
        catalogs_equivalent(&oracle, &catalog).unwrap();
    }

    #[test]
    fn replay_failpoint_injects() {
        let mut store = SimStore::new();
        append_record(
            &mut store,
            1,
            &CatalogMutation::RegisterTable {
                table: table_named("t1", &[1]),
            },
        );
        let mut reg = FailpointRegistry::disabled();
        reg.arm(cse_govern::FailSpec {
            site: sites::RECOVER_REPLAY.to_string(),
            probability: 1.0,
            seed: 42,
        });
        let err = recover(&store, &reg).unwrap_err();
        assert_eq!(err.code(), "WAL_REPLAY_FAULT");
        // A crash during recovery must itself be recoverable.
        reg.disarm(sites::RECOVER_REPLAY);
        let (catalog, _) = recover(&store, &reg).unwrap();
        assert!(catalog.contains("t1"));
    }

    #[test]
    fn equivalence_notices_differences() {
        let mut a = Catalog::new();
        a.register_table(table_named("t", &[1, 2])).unwrap();
        let mut b = Catalog::new();
        b.register_table(table_named("t", &[1, 3])).unwrap();
        assert!(catalogs_equivalent(&a, &a).is_ok());
        assert!(catalogs_equivalent(&a, &b).is_err());
        let mut c = Catalog::new();
        c.register_table(table_named("t", &[1, 2])).unwrap();
        c.create_hash_index("t", "a").unwrap();
        assert!(catalogs_equivalent(&a, &c).is_err());
    }
}
