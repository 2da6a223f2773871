//! B-tree index range scans (the machinery behind the paper's Example 7:
//! a consumer made cheap by an index on `o_orderdate` should not be forced
//! through a covering subexpression).

use similar_subexpr::optimizer::PhysicalPlan;
use similar_subexpr::prelude::*;

fn catalogs() -> (Catalog, Catalog) {
    let plain = generate_catalog(&TpchConfig::new(0.002));
    let mut indexed = generate_catalog(&TpchConfig::new(0.002));
    indexed.create_btree_index("orders", "o_orderdate").unwrap();
    (plain, indexed)
}

const POINTY: &str = "select o_orderkey, o_totalprice from orders \
                      where o_orderdate = '1995-01-01'";

#[test]
fn index_scan_is_chosen_and_correct() {
    let (plain, indexed) = catalogs();
    let cfg = CseConfig::default();
    let o_plain = optimize_sql(&plain, POINTY, &cfg).unwrap();
    let o_indexed = optimize_sql(&indexed, POINTY, &cfg).unwrap();
    // The indexed catalog's plan must use the index and be cheaper.
    let mut uses_index = false;
    o_indexed.plan.root.visit(&mut |p| {
        uses_index |= matches!(p, PhysicalPlan::IndexRangeScan { .. });
    });
    assert!(uses_index, "plan:\n{}", o_indexed.plan.root.render());
    assert!(o_indexed.plan.cost < o_plain.plan.cost);
    // Same rows either way.
    let r_plain = Engine::new(&plain, &o_plain.ctx)
        .execute(&o_plain.plan)
        .unwrap();
    let r_indexed = Engine::new(&indexed, &o_indexed.ctx)
        .execute(&o_indexed.plan)
        .unwrap();
    assert!(r_plain.results[0].approx_eq(&r_indexed.results[0], 1e-12));
}

#[test]
fn range_predicates_use_the_index_too() {
    let (plain, indexed) = catalogs();
    let sql = "select o_orderkey from orders \
               where o_orderdate >= '1998-01-01' and o_orderdate < '1998-02-01'";
    let cfg = CseConfig::default();
    let o = optimize_sql(&indexed, sql, &cfg).unwrap();
    let mut uses_index = false;
    o.plan.root.visit(&mut |p| {
        uses_index |= matches!(p, PhysicalPlan::IndexRangeScan { .. });
    });
    assert!(uses_index);
    let a = Engine::new(&indexed, &o.ctx).execute(&o.plan).unwrap();
    let o2 = optimize_sql(&plain, sql, &cfg).unwrap();
    let b = Engine::new(&plain, &o2.ctx).execute(&o2.plan).unwrap();
    assert!(a.results[0].approx_eq(&b.results[0], 1e-12));
    assert!(
        !a.results[0].rows.is_empty(),
        "January 1998 must have orders"
    );
}

#[test]
fn cheap_indexed_consumer_can_decline_sharing() {
    // Example 7's logic: with an index making one consumer very cheap, the
    // optimizer is free to serve it from the index while the other
    // consumer computes normally — the plan remains correct either way.
    let (_, indexed) = catalogs();
    let batch = "select o_orderkey, sum(l_extendedprice) as r \
                 from orders, lineitem \
                 where o_orderkey = l_orderkey and o_orderdate = '1995-01-01' \
                 group by o_orderkey; \
                 select o_orderkey, sum(l_quantity) as q \
                 from orders, lineitem \
                 where o_orderkey = l_orderkey and o_orderdate > '1995-01-01' \
                 group by o_orderkey;";
    let with = optimize_sql(&indexed, batch, &CseConfig::default()).unwrap();
    let without = optimize_sql(&indexed, batch, &CseConfig::no_cse()).unwrap();
    let a = Engine::new(&indexed, &with.ctx)
        .execute(&with.plan)
        .unwrap();
    let b = Engine::new(&indexed, &without.ctx)
        .execute(&without.plan)
        .unwrap();
    for (x, y) in a.results.iter().zip(b.results.iter()) {
        assert!(x.approx_eq(y, 1e-9));
    }
    assert!(with.plan.cost <= without.plan.cost);
}

#[test]
fn not_equal_conjunct_survives_index_subsumption() {
    // `o_orderdate > X and o_orderkey <> K`: the <> conjunct cannot be
    // represented by the index interval and must be applied as residual.
    let (_, indexed) = catalogs();
    let orders = indexed.table("orders").unwrap();
    let some_key = orders
        .scan()
        .find(|r| {
            r[4].as_i64().unwrap()
                > similar_subexpr::storage::dates::parse_date("1998-01-01").unwrap() as i64
        })
        .map(|r| r[0].as_i64().unwrap())
        .expect("an order in 1998");
    let sql = format!(
        "select o_orderkey from orders \
         where o_orderdate >= '1998-01-01' and o_orderkey <> {some_key}"
    );
    let o = optimize_sql(&indexed, &sql, &CseConfig::default()).unwrap();
    let out = Engine::new(&indexed, &o.ctx).execute(&o.plan).unwrap();
    assert!(
        !out.results[0]
            .rows
            .iter()
            .any(|r| r[0].as_i64() == Some(some_key)),
        "excluded key leaked through the index scan"
    );
}

/// `t(k INT NULL, d DATE NULL, v INT)`, 2 000 rows with about one key in
/// seven NULL — what TPC-H data never has — without and with B-tree
/// indexes on `k` and `d`.
fn nullable_catalogs() -> (Catalog, Catalog) {
    use similar_subexpr::storage::testkit::TestRng;
    use similar_subexpr::storage::{row, ColumnDef, DataType, Schema};
    let schema = Schema::new(vec![
        ColumnDef::new("k", DataType::Int).nullable(),
        ColumnDef::new("d", DataType::Date).nullable(),
        ColumnDef::new("v", DataType::Int),
    ]);
    let mut rng = TestRng::new(0x1D8);
    let mut t = Table::new("t", schema);
    let day0 = similar_subexpr::storage::dates::parse_date("1994-01-01").unwrap();
    for v in 0..2000 {
        let mut nullable = |x: Value| {
            if rng.chance(1.0 / 7.0) {
                Value::Null
            } else {
                x
            }
        };
        let k = nullable(Value::Int(v % 103 - 3));
        let d = nullable(Value::Date(day0 + (v * 7 % 2400) as i32));
        t.push(row(vec![k, d, Value::Int(v)])).unwrap();
    }
    let mut plain = Catalog::new();
    plain.register_table(t).unwrap();
    let mut indexed = plain.clone();
    indexed.create_btree_index("t", "k").unwrap();
    indexed.create_btree_index("t", "d").unwrap();
    (plain, indexed)
}

fn is_index_scan(o: &Optimized) -> bool {
    let mut uses_index = false;
    o.plan.root.visit(&mut |p| {
        uses_index |= matches!(p, PhysicalPlan::IndexRangeScan { .. });
    });
    uses_index
}

#[test]
fn index_scan_returns_what_the_predicate_accepts() {
    // The interval only narrows the scan; NULL keys, bounds of another
    // comparison class and conjuncts the interval could not take are all
    // decided by the predicate — with the index kept, and with it dropped
    // between planning and execution (the plain catalog is that state).
    let (plain, indexed) = nullable_catalogs();
    let cfg = CseConfig::default();
    for (pred, in_class) in [
        ("k < 3", true),
        ("k <= 0", true),
        ("k > 3", true),
        ("k = 5", true),
        ("k > 5 and k < 3", true),
        ("k < 3 and k < 'abc'", true),
        ("k < 'abc'", false),
        ("d >= '1994-03-01' and d < '1994-09-01'", true),
        ("d < '1994-09-01' and d < '1994-13-40'", true),
        ("d < '1994-13-40'", false),
    ] {
        let sql = format!("select v from t where {pred}");
        let by_scan = optimize_sql(&plain, &sql, &cfg).unwrap();
        let by_index = optimize_sql(&indexed, &sql, &cfg).unwrap();
        assert_eq!(
            is_index_scan(&by_index),
            in_class,
            "{pred}: an index is offered exactly for bounds of the column's class\n{}",
            by_index.plan.root.render()
        );
        let want = Engine::new(&plain, &by_scan.ctx)
            .execute(&by_scan.plan)
            .unwrap();
        for (catalog, state) in [(&indexed, "kept"), (&plain, "dropped")] {
            let got = Engine::new(catalog, &by_index.ctx)
                .execute(&by_index.plan)
                .unwrap();
            assert!(
                want.results[0].approx_eq(&got.results[0], 1e-12),
                "{pred} (index {state}): {} rows by scan, {} by index",
                want.results[0].rows.len(),
                got.results[0].rows.len()
            );
        }
    }
    // The probes are not vacuous: NULL keys exist and `k < 3` has rows.
    let o = optimize_sql(&plain, "select v from t where k < 3", &cfg).unwrap();
    let out = Engine::new(&plain, &o.ctx).execute(&o.plan).unwrap();
    assert!(!out.results[0].rows.is_empty());
}

/// `base_rows_scanned` counts rows *read*: every row of a table scan, and
/// of an index scan the rows the index returned — not the fewer the whole
/// predicate then accepted. With the index dropped after planning the same
/// plan reads the whole table; the narrowing is the only difference.
#[test]
fn index_scan_counts_the_rows_the_index_returned() {
    let (plain, indexed) = nullable_catalogs();
    let sql = "select v from t where k > 3 and v < 500";
    let o = optimize_sql(&indexed, sql, &CseConfig::default()).unwrap();
    assert!(is_index_scan(&o), "{}", o.plan.root.render());
    let t = plain.table("t").unwrap();
    let in_interval = |r: &&[Value]| r[0].as_i64().is_some_and(|k| k > 3);
    let returned = t.scan().filter(in_interval).count();
    let kept = Engine::new(&indexed, &o.ctx).execute(&o.plan).unwrap();
    let dropped = Engine::new(&plain, &o.ctx).execute(&o.plan).unwrap();
    assert!(kept.results[0].approx_eq(&dropped.results[0], 1e-12));
    let accepted = kept.results[0].rows.len();
    assert!(0 < accepted && accepted < returned && returned < t.row_count());
    assert_eq!(kept.metrics.base_rows_scanned, returned);
    assert_eq!(dropped.metrics.base_rows_scanned, t.row_count());
}
