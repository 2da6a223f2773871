//! Recovery storm: kill the durability layer at every WAL failpoint,
//! across seeds, restart, and assert the recovered catalog is equivalent
//! to a crash-free oracle over the durable prefix.
//!
//! The durability promise under test:
//!
//! - everything acknowledged past a durability barrier survives the crash
//!   (recovered `last_lsn` ≥ highest synced LSN);
//! - the recovered catalog equals the oracle built by applying exactly the
//!   first `last_lsn` mutations to a fresh catalog — no divergence, no
//!   silent reordering;
//! - a torn tail is tolerated with a stable reason code; corruption inside
//!   the durable prefix is a hard error with a stable reason code — never
//!   a panic, never silent data loss.
//!
//! Deterministic under `CSE_FAIL_SEED` (the ci.sh robustness sweep runs
//! seeds 1, 7 and 42).

use similar_subexpr::durable::{
    catalogs_equivalent, recover, DurableCatalog, DurableError, DurableOptions, SimStore,
    TailStatus,
};
use similar_subexpr::govern::{sites, FailSpec, FailpointRegistry};
use similar_subexpr::storage::delta::{DeltaAction, DeltaTable};
use similar_subexpr::storage::schema::Schema;
use similar_subexpr::storage::table::{row, Table};
use similar_subexpr::storage::value::{DataType, Value};
use similar_subexpr::storage::{Catalog, CatalogMutation};

fn env_seed() -> u64 {
    std::env::var("CSE_FAIL_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(42)
}

fn table_named(name: &str, vals: &[i64]) -> Table {
    let schema = Schema::from_pairs(&[("k", DataType::Int), ("s", DataType::Str)]);
    let mut t = Table::new(name, schema);
    for v in vals {
        t.push(row(vec![Value::Int(*v), Value::str(format!("row-{v}"))]))
            .unwrap();
    }
    t
}

/// A deterministic mutation workload covering every journaled kind:
/// registrations, replacements, index builds, view registration, delta
/// application, and a drop. Applying any prefix to a fresh catalog is
/// valid, which is exactly what the oracle needs.
fn workload() -> Vec<CatalogMutation> {
    let mut out = Vec::new();
    for i in 0..6i64 {
        out.push(CatalogMutation::RegisterTable {
            table: table_named(&format!("t{i}"), &[i, i + 10, i + 20]),
        });
    }
    out.push(CatalogMutation::CreateBtreeIndex {
        table: "t0".into(),
        column: "k".into(),
    });
    out.push(CatalogMutation::CreateHashIndex {
        table: "t1".into(),
        column: "s".into(),
    });
    out.push(CatalogMutation::ReplaceTable {
        table: table_named("t2", &[100, 200]),
    });
    out.push(CatalogMutation::RegisterView {
        name: "t3".into(),
        definition_sql: "select k from t0".into(),
    });
    let mut delta = DeltaTable::new(
        "t4",
        &Schema::from_pairs(&[("k", DataType::Int), ("s", DataType::Str)]),
    );
    delta
        .record(
            DeltaAction::Insert,
            row(vec![Value::Int(77), Value::str("row-77")]),
        )
        .unwrap();
    delta
        .record(
            DeltaAction::Delete,
            row(vec![Value::Int(4), Value::str("row-4")]),
        )
        .unwrap();
    out.push(CatalogMutation::ApplyDelta { delta });
    out.push(CatalogMutation::DropTable { name: "t5".into() });
    for i in 6..10i64 {
        out.push(CatalogMutation::RegisterTable {
            table: table_named(&format!("t{i}"), &[i]),
        });
    }
    out
}

/// Oracle: the catalog a crash-free run would hold after the first
/// `prefix` mutations.
fn oracle(prefix: usize) -> Catalog {
    let mut c = Catalog::new();
    for m in workload().iter().take(prefix) {
        c.apply_mutation(m)
            .expect("workload prefix applies cleanly");
    }
    c
}

/// Run the workload against a durable catalog with `site` armed at the
/// given probability, crash at the first injected fault (or run to
/// completion), then restart and check the recovered state against the
/// oracle.
fn crash_restart_check(site: &str, probability: f64, seed: u64, opts: DurableOptions) {
    let store = SimStore::new();
    let registry = FailpointRegistry::from_specs(&[FailSpec {
        site: site.to_string(),
        probability,
        seed,
    }]);
    let (mut dc, _) = DurableCatalog::open(store.clone(), opts, registry.clone())
        .expect("open on empty store cannot hit a write-path fault");
    let mut synced_lsn = 0u64;
    let mut crashed = false;
    for m in &workload() {
        match dc.apply(m) {
            Ok(()) => {
                if dc.unsynced() == 0 {
                    synced_lsn = dc.last_lsn();
                }
            }
            Err(err) => {
                assert!(
                    err.code().starts_with("WAL_"),
                    "{site}: fault surfaced without a WAL_ code: {err}"
                );
                crashed = true;
                break;
            }
        }
    }
    if !crashed {
        dc.flush().expect("no fault armed past the workload");
        synced_lsn = dc.last_lsn();
    }
    drop(dc);
    store.crash(seed);
    registry.disarm(site);

    let (recovered, info) = match recover(&store, &registry) {
        Ok(v) => v,
        Err(err) => panic!("{site} seed {seed}: restart failed: {err}"),
    };
    assert!(
        info.last_lsn >= synced_lsn,
        "{site} seed {seed}: durability violated — synced through lsn {synced_lsn} \
         but recovered only to {}",
        info.last_lsn
    );
    let expect = oracle(info.last_lsn as usize);
    if let Err(diff) = catalogs_equivalent(&expect, &recovered) {
        panic!("{site} seed {seed}: recovered catalog diverges from oracle: {diff}");
    }
    assert!(info.verify.is_clean(), "{}", info.verify.render());
}

/// Every write-path failpoint × seeds {1, 7, 42} (plus the sweep seed),
/// under both sync-every-commit and group-commit cadences.
#[test]
fn every_wal_failpoint_crash_restarts_to_oracle() {
    let mut seeds = vec![1u64, 7, 42];
    let env = env_seed();
    if !seeds.contains(&env) {
        seeds.push(env);
    }
    for site in [sites::WAL_APPEND, sites::WAL_FSYNC, sites::SNAPSHOT_WRITE] {
        for &seed in &seeds {
            for probability in [0.3, 1.0] {
                crash_restart_check(
                    site,
                    probability,
                    seed,
                    DurableOptions {
                        group_commit: 1,
                        snapshot_every: 5,
                    },
                );
                crash_restart_check(
                    site,
                    probability,
                    seed,
                    DurableOptions {
                        group_commit: 4,
                        snapshot_every: 0,
                    },
                );
            }
        }
    }
}

/// A fault injected *during replay* must itself be recoverable: disarm
/// and recover again, landing on the same oracle state.
#[test]
fn crash_during_recovery_is_recoverable() {
    for &seed in &[1u64, 7, 42, env_seed()] {
        let store = SimStore::new();
        let (mut dc, _) = DurableCatalog::open(
            store.clone(),
            DurableOptions {
                group_commit: 1,
                snapshot_every: 0,
            },
            FailpointRegistry::disabled(),
        )
        .unwrap();
        for m in &workload() {
            dc.apply(m).unwrap();
        }
        let n = workload().len();
        drop(dc);

        let registry = FailpointRegistry::from_specs(&[FailSpec {
            site: sites::RECOVER_REPLAY.to_string(),
            probability: 1.0,
            seed,
        }]);
        let err = recover(&store, &registry).expect_err("certain replay fault");
        assert_eq!(err.code(), "WAL_REPLAY_FAULT");

        registry.disarm(sites::RECOVER_REPLAY);
        let (recovered, info) = recover(&store, &registry).expect("second restart");
        assert_eq!(info.replayed, n);
        catalogs_equivalent(&oracle(n), &recovered).unwrap();
    }
}

/// A torn tail (simulated partial append) recovers to the durable prefix
/// with the `WAL_TORN_TAIL` reason code — no panic, no hard error.
#[test]
fn torn_tail_recovers_durable_prefix() {
    let store = SimStore::new();
    let (mut dc, _) = DurableCatalog::open(
        store.clone(),
        DurableOptions {
            group_commit: 1,
            snapshot_every: 0,
        },
        FailpointRegistry::disabled(),
    )
    .unwrap();
    let n = workload().len();
    for m in &workload() {
        dc.apply(m).unwrap();
    }
    drop(dc);
    // Shear the last few bytes off the synced log: the final frame is now
    // incomplete, everything before it intact.
    store.truncate_wal_to(store.wal_len() - 3);
    let (recovered, info) = recover(&store, &FailpointRegistry::disabled()).unwrap();
    assert!(matches!(info.tail, TailStatus::TornTail { .. }));
    assert_eq!(info.tail.code(), "WAL_TORN_TAIL");
    assert_eq!(info.last_lsn as usize, n - 1);
    catalogs_equivalent(&oracle(n - 1), &recovered).unwrap();
}

/// A corrupted checksum *inside* the durable prefix (valid frames after
/// it) must be detected and reported as `WAL_CORRUPT_FRAME` — replaying
/// past it would silently drop acknowledged records.
#[test]
fn corrupted_wal_checksum_is_detected() {
    let store = SimStore::new();
    let (mut dc, _) = DurableCatalog::open(
        store.clone(),
        DurableOptions {
            group_commit: 1,
            snapshot_every: 0,
        },
        FailpointRegistry::disabled(),
    )
    .unwrap();
    for m in &workload() {
        dc.apply(m).unwrap();
    }
    drop(dc);
    // Flip one payload bit in the first frame.
    store.corrupt_wal_byte(20, 0x10);
    let err = recover(&store, &FailpointRegistry::disabled())
        .expect_err("mid-log corruption must not recover silently");
    assert_eq!(err.code(), "WAL_CORRUPT_FRAME");
    assert!(matches!(err, DurableError::CorruptFrame { .. }));
}

/// A corrupted snapshot is detected (`WAL_CORRUPT_SNAPSHOT`), not served.
#[test]
fn corrupted_snapshot_is_detected() {
    let store = SimStore::new();
    let (mut dc, _) = DurableCatalog::open(
        store.clone(),
        DurableOptions {
            group_commit: 1,
            snapshot_every: 0,
        },
        FailpointRegistry::disabled(),
    )
    .unwrap();
    for m in &workload() {
        dc.apply(m).unwrap();
    }
    dc.snapshot().unwrap();
    drop(dc);
    assert!(store.has_snapshot());
    store.corrupt_snapshot_byte(40, 0x04);
    let err = recover(&store, &FailpointRegistry::disabled())
        .expect_err("corrupt snapshot must not recover silently");
    assert_eq!(err.code(), "WAL_CORRUPT_SNAPSHOT");
}

/// A crash landing between snapshot publish and WAL truncation leaves
/// records the snapshot already covers; recovery must skip them instead
/// of double-applying.
#[test]
fn snapshot_published_before_truncation_skips_covered_records() {
    let store = SimStore::new();
    let (mut dc, _) = DurableCatalog::open(
        store.clone(),
        DurableOptions {
            group_commit: 1,
            snapshot_every: 0,
        },
        FailpointRegistry::disabled(),
    )
    .unwrap();
    let n = workload().len();
    for m in &workload() {
        dc.apply(m).unwrap();
    }
    // Publish the snapshot by hand without truncating: the exact on-disk
    // state of a crash between the two steps.
    let bytes = similar_subexpr::durable::snapshot::encode_snapshot(dc.last_lsn(), dc.catalog());
    drop(dc);
    {
        use similar_subexpr::durable::Store as _;
        let mut s = store.clone();
        s.write_snapshot(&bytes).unwrap();
    }
    let (recovered, info) = recover(&store, &FailpointRegistry::disabled()).unwrap();
    assert_eq!(info.skipped, n);
    assert_eq!(info.replayed, 0);
    catalogs_equivalent(&oracle(n), &recovered).unwrap();
}

/// §6.4 through the journal: the mutations `plan_insert` emits for three
/// inserts (`ReplaceTable` per view, `ApplyDelta` for the base), the last
/// two from the plan the first cached, go through `DurableCatalog::apply`;
/// after a restart the recovered views and base equal the live catalog,
/// the catalog `maintain_insert` produces on a plain `Catalog`, and a
/// recomputation of every view. The plan cache is not journaled: one more
/// insert plans afresh on the recovered catalog and runs the cached plan
/// on the live one, and both end equal.
#[test]
fn journaled_view_maintenance_recovers_to_the_live_catalog() {
    use cse_bench::{experiments, workloads};
    use similar_subexpr::core::{plan_insert, plan_materialized_view, MaintenancePlans};
    use similar_subexpr::prelude::*;

    let cfg = CseConfig::default();
    let seeded = generate_catalog(&TpchConfig::new(0.001));
    let store = SimStore::new();
    let (mut dc, _) = DurableCatalog::open(
        store.clone(),
        DurableOptions {
            group_commit: 2,
            snapshot_every: 7,
        },
        FailpointRegistry::disabled(),
    )
    .unwrap();
    let mut names: Vec<&str> = seeded.table_names().collect();
    names.sort_unstable();
    for name in names {
        let table = seeded.table(name).unwrap().as_ref().clone();
        dc.apply(&CatalogMutation::RegisterTable { table }).unwrap();
    }
    let mut plain = seeded.clone();
    for (name, def) in workloads::maintenance_views() {
        for m in plan_materialized_view(dc.catalog(), name, &def, &cfg).unwrap() {
            dc.apply(&m).unwrap();
        }
        create_materialized_view(&mut plain, name, &def, &cfg).unwrap();
    }
    let (mut live_plans, mut plain_plans) = (MaintenancePlans::new(), MaintenancePlans::new());
    for round in 0..3 {
        let rows = experiments::new_customers(dc.catalog(), 20 + round);
        let (mutations, report) = plan_insert(
            dc.catalog(),
            "customer",
            rows.clone(),
            &cfg,
            &mut live_plans,
        )
        .unwrap();
        assert_eq!(report.views.len(), 3);
        assert_eq!(report.planned, round == 0);
        let kinds: Vec<&str> = mutations.iter().map(CatalogMutation::kind).collect();
        assert_eq!(
            kinds,
            [
                "replace_table",
                "replace_table",
                "replace_table",
                "apply_delta"
            ]
        );
        for m in &mutations {
            dc.apply(m).unwrap();
        }
        maintain_insert(&mut plain, "customer", rows, &cfg, &mut plain_plans).unwrap();
    }
    dc.flush().unwrap();
    let mut live = dc.catalog().clone();
    drop(dc);

    let (mut recovered, info) = recover(&store, &FailpointRegistry::disabled()).unwrap();
    assert!(info.verify.is_clean(), "{}", info.verify.render());
    catalogs_equivalent(&live, &recovered).unwrap();
    catalogs_equivalent(&plain, &recovered).unwrap();
    // The views' join indexes were journaled with them. The live ones took
    // every insert in place; recovery rebuilt them: the same indexes.
    let hash_indexes = |c: &Catalog, t: &str| -> Vec<_> {
        let e = c.get(t).unwrap();
        e.hash_indexes.iter().map(|i| i.as_ref().clone()).collect()
    };
    let indexed = ["customer", "orders", "lineitem", "nation"];
    assert_eq!(
        indexed.map(|t| hash_indexes(&recovered, t).len()),
        [2, 2, 1, 1]
    );
    for t in indexed {
        assert_eq!(hash_indexes(&live, t), hash_indexes(&recovered, t), "{t}");
        assert_eq!(hash_indexes(&plain, t), hash_indexes(&recovered, t), "{t}");
    }
    assert_eq!(
        recovered.table("customer").unwrap().row_count(),
        seeded.table("customer").unwrap().row_count() + 20 + 21 + 22
    );
    for (name, def) in workloads::maintenance_views() {
        let o = optimize_sql(&recovered, &def, &CseConfig::no_cse()).unwrap();
        let fresh = Engine::new(&recovered, &o.ctx)
            .execute(&o.plan)
            .unwrap()
            .results
            .remove(0);
        let stored = recovered.table(name).unwrap();
        let maintained = ResultSet::new(fresh.columns.clone(), stored.rows());
        assert!(
            maintained.approx_eq(&fresh, 1e-9),
            "recovered view {name} differs from recomputation"
        );
    }

    let rows = experiments::new_customers(&live, 23);
    let empty = &mut MaintenancePlans::new();
    let cold = maintain_insert(&mut recovered, "customer", rows.clone(), &cfg, empty);
    let warm = maintain_insert(&mut live, "customer", rows, &cfg, &mut live_plans);
    assert_eq!(
        (cold.unwrap().planned, warm.unwrap().planned),
        (true, false)
    );
    catalogs_equivalent(&live, &recovered).unwrap();
}
