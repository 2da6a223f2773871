//! §6.4 end-to-end: maintained materialized views must equal views
//! recomputed from scratch, the maintenance batch must share the common
//! delta ⋈ orders ⋈ lineitem work, and a cached batch must be planned
//! again once a view, a schema, a table's size or an index it relies on
//! changes.

use cse_bench::{experiments, workloads};
use similar_subexpr::prelude::*;

fn sorted_rows(t: &Table) -> Vec<Vec<Value>> {
    let mut rows: Vec<Vec<Value>> = t.scan().map(<[Value]>::to_vec).collect();
    rows.sort_by(|a, b| {
        for (x, y) in a.iter().zip(b.iter()) {
            let o = x.total_cmp(y);
            if !o.is_eq() {
                return o;
            }
        }
        std::cmp::Ordering::Equal
    });
    rows
}

fn rows_approx_eq(a: &[Vec<Value>], b: &[Vec<Value>]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b.iter()).all(|(ra, rb)| {
            ra.iter()
                .zip(rb.iter())
                .all(|(x, y)| match (x.as_f64(), y.as_f64()) {
                    (Some(fx), Some(fy)) => {
                        (fx - fy).abs() <= 1e-6 * fx.abs().max(fy.abs()).max(1.0)
                    }
                    _ => x == y,
                })
        })
}

#[test]
fn maintained_views_match_recomputation() {
    let cfg = CseConfig::default();
    let mut plans = MaintenancePlans::new();
    let mut catalog = generate_catalog(&TpchConfig::new(0.002));
    for (name, def) in workloads::maintenance_views() {
        create_materialized_view(&mut catalog, name, &def, &cfg).unwrap();
    }
    let inserts = experiments::new_customers(&catalog, 150);
    let report = maintain_insert(&mut catalog, "customer", inserts, &cfg, &mut plans).unwrap();
    assert_eq!(report.views.len(), 3);
    assert_eq!(report.delta_rows, 150);

    // Recompute each view from the (already updated) base tables and
    // compare with the incrementally maintained contents.
    for (name, def) in workloads::maintenance_views() {
        let o = optimize_sql(&catalog, &def, &CseConfig::no_cse()).unwrap();
        let engine = Engine::new(&catalog, &o.ctx);
        let fresh = engine.execute(&o.plan).unwrap().results.remove(0);
        let mut fresh_rows: Vec<Vec<Value>> = fresh.rows.iter().map(|r| r.to_vec()).collect();
        fresh_rows.sort_by(|a, b| {
            for (x, y) in a.iter().zip(b.iter()) {
                let o = x.total_cmp(y);
                if !o.is_eq() {
                    return o;
                }
            }
            std::cmp::Ordering::Equal
        });
        let maintained = sorted_rows(&catalog.table(name).unwrap());
        assert!(
            rows_approx_eq(&maintained, &fresh_rows),
            "view {name} diverged after incremental maintenance \
             ({} maintained rows vs {} recomputed)",
            maintained.len(),
            fresh_rows.len()
        );
    }
}

#[test]
fn maintenance_batch_detects_sharing() {
    let cfg = CseConfig::default();
    let mut plans = MaintenancePlans::new();
    let mut catalog = generate_catalog(&TpchConfig::new(0.002));
    for (name, def) in workloads::maintenance_views() {
        create_materialized_view(&mut catalog, name, &def, &cfg).unwrap();
    }
    let inserts = experiments::new_customers(&catalog, 150);
    let report = maintain_insert(&mut catalog, "customer", inserts, &cfg, &mut plans).unwrap();
    assert!(
        !report.cse.candidates.is_empty(),
        "the three maintenance queries share delta⋈orders⋈lineitem: {:?}",
        report.cse
    );
    assert!(report.cse.final_cost < report.cse.baseline_cost);
}

/// §6.4 at the size of the delta: the views' equijoin columns are indexed
/// at creation, so the shared delta ⋈ orders ⋈ lineitem probes them per
/// delta row instead of scanning both tables, and the batch still shares.
#[test]
fn a_small_delta_is_joined_through_indexes() {
    let cfg = CseConfig::default();
    let mut plans = MaintenancePlans::new();
    let mut catalog = generate_catalog(&TpchConfig::new(0.002));
    for (name, def) in workloads::maintenance_views() {
        create_materialized_view(&mut catalog, name, &def, &cfg).unwrap();
    }
    let indexed = |t: &str| catalog.get(t).unwrap().hash_indexes.len();
    let counts = ["customer", "orders", "lineitem", "nation"].map(indexed);
    assert_eq!(
        counts,
        [2, 2, 1, 1],
        "c_custkey, c_nationkey, o_custkey, ..."
    );
    let rows_of = |t: &str| catalog.table(t).unwrap().row_count();
    let (orders, lineitem) = (rows_of("orders"), rows_of("lineitem"));

    let rows = experiments::returning_customers(&catalog, 50);
    let report = maintain_insert(&mut catalog, "customer", rows, &cfg, &mut plans).unwrap();
    let scanned = report.metrics.base_rows_scanned;
    assert!(
        scanned * 4 < orders + lineitem,
        "a 50-row delta scanned {scanned} rows of {orders} orders + {lineitem} lineitems"
    );
    let plan = report.plan.expect("the views read customer");
    let defs: Vec<String> = plan.spools.values().map(|s| s.plan.render()).collect();
    assert!(
        defs.iter().any(|d| d.contains("IndexNlJoin")),
        "spools: {defs:?}"
    );
    for (name, _) in workloads::maintenance_views() {
        assert_view_is_fresh(&catalog, name);
    }
}

#[test]
fn maintenance_cost_factor_matches_paper_shape() {
    // Paper: maintenance time reduced by about 3x. Compare estimated costs
    // of the maintenance batch (robust against wall-clock noise).
    let (no, yes) = experiments::view_maintenance(&experiments::catalog(0.002), 150);
    assert_eq!(no.views, 3);
    assert_eq!(yes.views, 3);
    assert!(yes.candidates >= 1);
}

#[test]
fn unaffected_views_are_skipped() {
    let cfg = CseConfig::default();
    let mut plans = MaintenancePlans::new();
    let mut catalog = generate_catalog(&TpchConfig::new(0.001));
    create_materialized_view(
        &mut catalog,
        "mv_parts",
        "select p_brand, count(*) as n from part group by p_brand",
        &cfg,
    )
    .unwrap();
    let before = sorted_rows(&catalog.table("mv_parts").unwrap());
    let inserts = experiments::new_customers(&catalog, 10);
    let report = maintain_insert(&mut catalog, "customer", inserts, &cfg, &mut plans).unwrap();
    assert!(report.views.is_empty(), "part view must not be touched");
    let after = sorted_rows(&catalog.table("mv_parts").unwrap());
    assert_eq!(before, after);
}

#[test]
fn rejects_non_self_maintainable_views() {
    let cfg = CseConfig::default();
    let mut catalog = generate_catalog(&TpchConfig::new(0.001));
    let err = create_materialized_view(
        &mut catalog,
        "mv_avg",
        "select c_nationkey, avg(c_acctbal) as a from customer group by c_nationkey",
        &cfg,
    )
    .unwrap_err();
    assert!(err.contains("AVG"), "unexpected error: {err}");
}

// ---------------------------------------------------------------------
// Plan-then-apply: validation at capture, atomicity, merge semantics.

use similar_subexpr::core::MaintenanceReport;
use similar_subexpr::storage::schema::{ColumnDef, Schema};
use similar_subexpr::storage::table::row;
use similar_subexpr::storage::value::DataType;
use similar_subexpr::storage::CatalogMutation;

/// What a caller can see of a catalog: every table with its row count
/// (sorted), and the registered views (sorted).
fn visible(catalog: &Catalog) -> (Vec<(String, usize)>, Vec<String>) {
    let mut tables: Vec<(String, usize)> = catalog
        .table_names()
        .map(|n| (n.to_string(), catalog.table(n).unwrap().row_count()))
        .collect();
    tables.sort();
    let mut views: Vec<String> = catalog.views().map(|v| v.name.clone()).collect();
    views.sort();
    (tables, views)
}

/// The stored view equals its definition recomputed from the catalog's
/// current contents (as a bag of rows).
fn assert_view_is_fresh(catalog: &Catalog, view: &str) {
    let def = &catalog.view(view).unwrap().definition_sql;
    let o = optimize_sql(catalog, def, &CseConfig::no_cse()).unwrap();
    let engine = Engine::new(catalog, &o.ctx);
    let fresh = engine.execute(&o.plan).unwrap().results.remove(0);
    let stored = catalog.table(view).unwrap().rows();
    let maintained = ResultSet::new(fresh.columns.clone(), stored);
    assert!(
        maintained.approx_eq(&fresh, 1e-9),
        "view {view} diverged from recomputation:\n maintained {:?}\n recomputed {:?}",
        maintained.rows,
        fresh.rows
    );
}

/// `t(k nullable, v)` with groups 1, 2 and NULL, and a grouped view over it.
fn small_catalog() -> Catalog {
    let schema = Schema::new(vec![
        ColumnDef::new("k", DataType::Int).nullable(),
        ColumnDef::new("v", DataType::Int),
    ]);
    let rows = [(Some(1), 10), (Some(2), 20), (None, 5), (Some(1), 1)]
        .into_iter()
        .map(|(k, v)| row(vec![k.map_or(Value::Null, Value::Int), Value::Int(v)]));
    let mut catalog = Catalog::new();
    catalog
        .register_table(Table::with_rows("t", schema, rows))
        .unwrap();
    create_materialized_view(
        &mut catalog,
        "v_by_k",
        "select k, sum(v) as total, count(*) as n, min(v) as lo, max(v) as hi from t group by k",
        &CseConfig::default(),
    )
    .unwrap();
    catalog
}

fn kv(k: Option<i64>, v: i64) -> similar_subexpr::storage::Row {
    row(vec![k.map_or(Value::Null, Value::Int), Value::Int(v)])
}

#[test]
fn malformed_rows_are_errors_and_leave_the_catalog_untouched() {
    let cfg = CseConfig::default();
    let mut plans = MaintenancePlans::new();
    let mut catalog = generate_catalog(&TpchConfig::new(0.001));
    for (name, def) in workloads::maintenance_views() {
        create_materialized_view(&mut catalog, name, &def, &cfg).unwrap();
    }
    let before = visible(&catalog);
    let good = experiments::new_customers(&catalog, 2);

    // Wrong arity: one column short.
    let short = row(good[0].iter().skip(1).cloned().collect());
    let err = maintain_insert(
        &mut catalog,
        "customer",
        vec![good[1].clone(), short],
        &cfg,
        &mut plans,
    )
    .expect_err("a short row must be refused");
    assert!(err.contains("arity"), "unexpected error: {err}");
    assert_eq!(visible(&catalog), before);

    // Wrong type: a string where c_custkey's integer belongs.
    let mut cells = good[0].to_vec();
    cells[0] = Value::str("not a key");
    let err = maintain_insert(&mut catalog, "customer", vec![row(cells)], &cfg, &mut plans)
        .expect_err("an ill-typed row must be refused");
    assert!(err.contains("type mismatch"), "unexpected error: {err}");
    assert_eq!(visible(&catalog), before);

    // The same catalog still takes a well-formed insert.
    maintain_insert(&mut catalog, "customer", good, &cfg, &mut plans).unwrap();
    assert!(visible(&catalog).0.iter().all(|(n, _)| !n.contains('Δ')));
}

#[test]
fn scalar_aggregate_view_merges_into_its_single_row() {
    let cfg = CseConfig::default();
    let mut plans = MaintenancePlans::new();
    let mut catalog = generate_catalog(&TpchConfig::new(0.001));
    create_materialized_view(
        &mut catalog,
        "mv_totals",
        "select sum(c_acctbal) as s, count(*) as n, min(c_custkey) as lo, max(c_custkey) as hi \
         from customer",
        &cfg,
    )
    .unwrap();
    for round in 0..2 {
        let inserts = experiments::new_customers(&catalog, 7);
        maintain_insert(&mut catalog, "customer", inserts, &cfg, &mut plans).unwrap();
        let stored = catalog.table("mv_totals").unwrap();
        assert_eq!(stored.row_count(), 1, "round {round}: {:?}", stored.rows());
        assert_view_is_fresh(&catalog, "mv_totals");
    }
}

#[test]
fn new_groups_null_keys_empty_and_consecutive_deltas() {
    let cfg = CseConfig::default();
    let mut plans = MaintenancePlans::new();
    let mut catalog = small_catalog();
    let stored_keys = |c: &Catalog| -> Vec<Value> {
        let t = c.table("v_by_k").unwrap();
        t.scan().map(|r| r[0].clone()).collect()
    };
    let original = stored_keys(&catalog);
    assert_eq!(original.len(), 3);

    // An empty delta changes nothing and still reports the view.
    let before = sorted_rows(&catalog.table("v_by_k").unwrap());
    let report = maintain_insert(&mut catalog, "t", Vec::new(), &cfg, &mut plans).unwrap();
    assert_eq!((report.delta_rows, report.views.len()), (0, 1));
    assert_eq!(sorted_rows(&catalog.table("v_by_k").unwrap()), before);
    assert_eq!(catalog.table("t").unwrap().row_count(), 4);

    // New groups 7 and 9 are appended after the stored rows; group 1 and
    // the NULL group merge in place (NULL keys form one group).
    let delta = vec![
        kv(Some(7), 70),
        kv(None, 3),
        kv(Some(1), 100),
        kv(Some(9), -4),
        kv(None, 50),
    ];
    maintain_insert(&mut catalog, "t", delta, &cfg, &mut plans).unwrap();
    let keys = stored_keys(&catalog);
    assert_eq!(keys[..3], original[..], "stored rows keep their positions");
    assert_eq!(keys.len(), 5);
    assert_eq!(keys.iter().filter(|k| k.is_null()).count(), 1);
    assert_view_is_fresh(&catalog, "v_by_k");
    assert_eq!(catalog.stats("t").unwrap().row_count, 9);

    // A second insert on top of the first, touching old and new groups.
    let delta = vec![kv(Some(9), 1), kv(Some(2), 2), kv(Some(11), 0)];
    maintain_insert(&mut catalog, "t", delta, &cfg, &mut plans).unwrap();
    assert_eq!(stored_keys(&catalog).len(), 6);
    assert_view_is_fresh(&catalog, "v_by_k");
    assert_eq!(catalog.stats("t").unwrap().row_count, 12);
}

/// Stored ⊕ delta is the executor's aggregate merge: a SUM pushed past
/// `i64::MAX` carries on as a float, exactly as recomputing the view does,
/// instead of panicking (debug) or wrapping negative (release).
#[test]
fn sum_past_i64_max_merges_like_recomputation() {
    let cfg = CseConfig::default();
    let mut plans = MaintenancePlans::new();
    let mut catalog = small_catalog();
    // Group 1 holds 10 + 1; the first delta takes it just past i64::MAX,
    // the second adds to the float it became.
    for v in [i64::MAX - 10, 5] {
        maintain_insert(&mut catalog, "t", vec![kv(Some(1), v)], &cfg, &mut plans).unwrap();
        assert_view_is_fresh(&catalog, "v_by_k");
    }
    let view = catalog.table("v_by_k").unwrap();
    let group1 = view.scan().find(|r| r[0] == Value::Int(1)).unwrap();
    assert!(matches!(group1[1], Value::Float(f) if f >= i64::MAX as f64));
    assert_eq!(group1[2], Value::Int(4), "COUNT stays integral");
}

#[test]
fn a_request_that_fails_after_capture_changes_nothing() {
    let mut catalog = small_catalog();
    let mut plans = MaintenancePlans::new();
    let (cfg, canceled) = (CseConfig::default(), CseConfig::default());
    canceled.cancel.cancel();
    // Canceled while it plans, then, once an insert has cached the batch,
    // while it executes the cached plan: neither is applied, and the
    // cached plan stays.
    for (insert, stage) in [(0, "pipeline/entry"), (2, "maintenance/execute")] {
        let before = visible(&catalog);
        let view_before = sorted_rows(&catalog.table("v_by_k").unwrap());
        let err = maintain_insert(
            &mut catalog,
            "t",
            vec![kv(Some(1), 1)],
            &canceled,
            &mut plans,
        )
        .expect_err("a canceled request must not be applied");
        assert!(err.contains("REQ_CANCELED"), "insert {insert}: {err}");
        assert!(err.contains(stage), "insert {insert}: {err}");
        assert_eq!(visible(&catalog), before);
        assert_eq!(sorted_rows(&catalog.table("v_by_k").unwrap()), view_before);
        let rows = vec![kv(Some(2), 1)];
        let report = maintain_insert(&mut catalog, "t", rows, &cfg, &mut plans).unwrap();
        assert_eq!(report.planned, insert == 0, "insert {}", insert + 1);
        assert_view_is_fresh(&catalog, "v_by_k");
    }

    // A cached plan whose shared spool faults: the insert returns the fault,
    // naming its site, and applies nothing; the cached plan stays and serves
    // the next insert.
    let mut catalog = generate_catalog(&TpchConfig::new(0.001));
    let mut plans = MaintenancePlans::new();
    for (name, def) in workloads::maintenance_views() {
        create_materialized_view(&mut catalog, name, &def, &cfg).unwrap();
    }
    let insert = |catalog: &mut Catalog, cfg: &CseConfig, plans: &mut MaintenancePlans| {
        let rows = experiments::returning_customers(catalog, 20);
        maintain_insert(catalog, "customer", rows, cfg, plans)
    };
    let first = insert(&mut catalog, &cfg, &mut plans).unwrap();
    let cached = first.plan.expect("three views read customer");
    assert!(!cached.spools.is_empty(), "the batch must share a spool");
    let faulty = CseConfig {
        failpoints: FailpointRegistry::from_specs(&[FailSpec {
            site: "spool.materialize".to_string(),
            probability: 1.0,
            seed: 1,
        }]),
        ..CseConfig::default()
    };
    let before = visible(&catalog);
    let views: Vec<_> = workloads::maintenance_views()
        .iter()
        .map(|(name, _)| sorted_rows(&catalog.table(name).unwrap()))
        .collect();
    let err = insert(&mut catalog, &faulty, &mut plans)
        .expect_err("a faulted insert must not be applied");
    assert!(err.contains("spool.materialize"), "{err}");
    assert_eq!(visible(&catalog), before);
    for ((name, _), rows) in workloads::maintenance_views().iter().zip(&views) {
        assert_eq!(&sorted_rows(&catalog.table(name).unwrap()), rows, "{name}");
    }
    let report = insert(&mut catalog, &cfg, &mut plans).expect("a clean insert after the fault");
    assert!(!report.planned, "the cached plan survives the fault");
    let plan = report.plan.expect("the cached plan");
    assert_eq!(plan.root.render(), cached.root.render());
    for (name, _) in workloads::maintenance_views() {
        assert_view_is_fresh(&catalog, name);
    }
}

// ---------------------------------------------------------------------
// The cached maintenance plan: used while it fits, rebuilt when not.

/// A session over the three §6.4 views that has taken two 50-row inserts,
/// the first planned and the second run from the cached plan.
fn warm_session() -> Session {
    let mut session = Session::new(generate_catalog(&TpchConfig::new(0.002)));
    for (name, def) in workloads::maintenance_views() {
        session.create_materialized_view(name, &def).unwrap();
    }
    for planned in [true, false] {
        let rows = experiments::returning_customers(session.catalog(), 50);
        let report = session.insert("customer", rows).unwrap();
        assert_eq!(report.planned, planned);
        assert!(!report.cse.candidates.is_empty(), "{:?}", report.cse);
    }
    session
}

/// Insert `rows` returning customers: the insert must plan its batch,
/// refresh `views` views, and leave every view equal to its recomputation.
fn assert_replans(session: &mut Session, rows: usize, views: usize) -> MaintenanceReport {
    let delta = experiments::returning_customers(session.catalog(), rows);
    let report = session.insert("customer", delta).unwrap();
    assert!(report.planned, "the cached plan no longer fits");
    assert_eq!(report.views.len(), views, "{:?}", report.views);
    for view in session.catalog().views() {
        assert_view_is_fresh(session.catalog(), &view.name);
    }
    report
}

#[test]
fn a_new_view_replans_the_batch() {
    let mut session = warm_session();
    session
        .create_materialized_view(
            "mv_segment",
            "select c_mktsegment, count(*) as n from customer group by c_mktsegment",
        )
        .unwrap();
    assert_replans(&mut session, 50, 4);
}

/// Replacing `orders` with its own rows keeps its schema and size but
/// drops the hash indexes the cached plan probes. A session never replaces
/// a table, so this drives a bare catalog and a plan cache of its own.
#[test]
fn a_lost_index_replans_the_batch() {
    let cfg = CseConfig::default();
    let mut catalog = generate_catalog(&TpchConfig::new(0.002));
    let mut plans = MaintenancePlans::new();
    for (name, def) in workloads::maintenance_views() {
        create_materialized_view(&mut catalog, name, &def, &cfg).unwrap();
    }
    let insert = |catalog: &mut Catalog, plans: &mut MaintenancePlans| {
        let rows = experiments::returning_customers(catalog, 50);
        maintain_insert(catalog, "customer", rows, &cfg, plans).unwrap()
    };
    for planned in [true, false] {
        assert_eq!(insert(&mut catalog, &mut plans).planned, planned);
    }
    let table = catalog.table("orders").unwrap().as_ref().clone();
    let replace = CatalogMutation::ReplaceTable { table };
    catalog.apply_mutation(&replace).unwrap();
    let report = insert(&mut catalog, &mut plans);
    assert!(report.planned, "the cached plan no longer fits");
    assert_eq!(report.views.len(), 3, "{:?}", report.views);
    for view in catalog.views() {
        assert_view_is_fresh(&catalog, &view.name);
    }
}

#[test]
fn a_delta_outside_the_band_replans_the_batch() {
    let mut session = warm_session();
    assert_replans(&mut session, 5_000, 3);
}

#[test]
fn a_new_configuration_replans_the_batch() {
    let mut session = warm_session();
    session.set_config(CseConfig::no_cse());
    let report = assert_replans(&mut session, 50, 3);
    assert!(report.cse.candidates.is_empty(), "{:?}", report.cse);
}

#[test]
fn self_maintainability_is_decided_at_creation() {
    let cfg = CseConfig::default();
    let mut catalog = generate_catalog(&TpchConfig::new(0.001));
    let before = visible(&catalog);
    for (definition, hint) in [
        (
            "select a.c_nationkey, count(*) as n from customer a, customer b \
             where a.c_custkey = b.c_custkey group by a.c_nationkey",
            "self-join",
        ),
        (
            "select c_nationkey, count(*) as n from customer \
             where c_acctbal > (select min(c_acctbal) from customer) group by c_nationkey",
            "subquer",
        ),
        (
            "select c_nationkey, sum(c_acctbal) / count(*) as mean from customer \
             group by c_nationkey",
            "SUM and COUNT",
        ),
    ] {
        let err = create_materialized_view(&mut catalog, "mv_bad", definition, &cfg)
            .expect_err(definition);
        assert!(err.contains(hint), "{definition}: unexpected error: {err}");
        assert_eq!(visible(&catalog), before);
    }
}
