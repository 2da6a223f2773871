//! SQL-semantics correctness against hand-computed expectations on tiny
//! hand-built tables — independent of TPC-H and of sharing.

use similar_subexpr::prelude::*;
use similar_subexpr::storage::{row, DataType, Schema};

fn tiny_catalog() -> Catalog {
    let mut cat = Catalog::new();
    let mut dept = Table::new(
        "dept",
        Schema::from_pairs(&[("d_id", DataType::Int), ("d_name", DataType::Str)]),
    );
    for (id, name) in [(1, "eng"), (2, "ops"), (3, "empty")] {
        dept.push(row(vec![Value::Int(id), Value::str(name)]))
            .unwrap();
    }
    let mut emp = Table::new(
        "emp",
        Schema::from_pairs(&[
            ("e_id", DataType::Int),
            ("e_dept", DataType::Int),
            ("e_salary", DataType::Float),
            ("e_hired", DataType::Date),
        ]),
    );
    let rows = [
        (1, 1, 100.0, "2020-01-15"),
        (2, 1, 200.0, "2021-06-01"),
        (3, 2, 150.0, "2019-12-31"),
        (4, 2, 50.0, "2022-03-10"),
        (5, 2, 75.0, "2020-07-04"),
    ];
    for (id, dept, sal, hired) in rows {
        emp.push(row(vec![
            Value::Int(id),
            Value::Int(dept),
            Value::Float(sal),
            Value::date(hired).unwrap(),
        ]))
        .unwrap();
    }
    cat.register_table(dept).unwrap();
    cat.register_table(emp).unwrap();
    cat
}

fn query(catalog: &Catalog, sql: &str) -> ResultSet {
    let o = optimize_sql(catalog, sql, &CseConfig::default()).expect("optimize");
    let engine = Engine::new(catalog, &o.ctx);
    engine.execute(&o.plan).expect("execute").results.remove(0)
}

#[test]
fn filter_and_project() {
    let cat = tiny_catalog();
    let rs = query(&cat, "select e_id from emp where e_salary > 100");
    let mut ids: Vec<i64> = rs.rows.iter().map(|r| r[0].as_i64().unwrap()).collect();
    ids.sort();
    assert_eq!(ids, vec![2, 3]);
}

#[test]
fn join_with_alias() {
    let cat = tiny_catalog();
    let rs = query(
        &cat,
        "select d.d_name, e.e_salary from dept d, emp e where d.d_id = e.e_dept and e.e_salary < 100",
    );
    assert_eq!(rs.rows.len(), 2); // salaries 50 and 75, both ops
    assert!(rs.rows.iter().all(|r| r[0].as_str() == Some("ops")));
}

#[test]
fn group_by_with_aggregates() {
    let cat = tiny_catalog();
    let rs = query(
        &cat,
        "select e_dept, sum(e_salary) as total, count(*) as n, min(e_salary) as lo, max(e_salary) as hi \
         from emp group by e_dept",
    )
    .canonicalized();
    assert_eq!(rs.rows.len(), 2);
    // dept 1: total 300, n 2, lo 100, hi 200
    assert_eq!(rs.rows[0][0], Value::Int(1));
    assert_eq!(rs.rows[0][1], Value::Float(300.0));
    assert_eq!(rs.rows[0][2], Value::Int(2));
    assert_eq!(rs.rows[0][3], Value::Float(100.0));
    assert_eq!(rs.rows[0][4], Value::Float(200.0));
    // dept 2: total 275, n 3
    assert_eq!(rs.rows[1][1], Value::Float(275.0));
    assert_eq!(rs.rows[1][2], Value::Int(3));
}

#[test]
fn avg_decomposes_to_sum_over_count() {
    let cat = tiny_catalog();
    let rs = query(
        &cat,
        "select e_dept, avg(e_salary) as a from emp group by e_dept",
    )
    .canonicalized();
    assert_eq!(rs.rows[0][1], Value::Float(150.0)); // dept 1: 300/2
    let a2 = rs.rows[1][1].as_f64().unwrap();
    assert!((a2 - 275.0 / 3.0).abs() < 1e-9);
}

#[test]
fn having_filters_groups() {
    let cat = tiny_catalog();
    let rs = query(
        &cat,
        "select e_dept, sum(e_salary) as total from emp group by e_dept having sum(e_salary) > 280",
    );
    assert_eq!(rs.rows.len(), 1);
    assert_eq!(rs.rows[0][0], Value::Int(1));
}

#[test]
fn order_by_on_alias() {
    let cat = tiny_catalog();
    let rs = query(&cat, "select e_id, e_salary as s from emp order by s desc");
    let sal: Vec<f64> = rs.rows.iter().map(|r| r[1].as_f64().unwrap()).collect();
    assert_eq!(sal, vec![200.0, 150.0, 100.0, 75.0, 50.0]);
}

#[test]
fn date_literals_coerce() {
    let cat = tiny_catalog();
    let rs = query(&cat, "select e_id from emp where e_hired < '2020-06-01'");
    let mut ids: Vec<i64> = rs.rows.iter().map(|r| r[0].as_i64().unwrap()).collect();
    ids.sort();
    assert_eq!(ids, vec![1, 3]);
}

#[test]
fn between_works() {
    let cat = tiny_catalog();
    let rs = query(
        &cat,
        "select e_id from emp where e_salary between 75 and 150",
    );
    let mut ids: Vec<i64> = rs.rows.iter().map(|r| r[0].as_i64().unwrap()).collect();
    ids.sort();
    assert_eq!(ids, vec![1, 3, 5]);
}

#[test]
fn select_star_joins() {
    let cat = tiny_catalog();
    let rs = query(&cat, "select * from dept, emp where d_id = e_dept");
    assert_eq!(rs.columns.len(), 2 + 4);
    assert_eq!(rs.rows.len(), 5);
}

#[test]
fn scalar_subquery_in_where() {
    let cat = tiny_catalog();
    // Employees above the mean salary (115).
    let rs = query(
        &cat,
        "select e_id from emp where e_salary > (select sum(e_salary) / 5 from emp)",
    );
    let mut ids: Vec<i64> = rs.rows.iter().map(|r| r[0].as_i64().unwrap()).collect();
    ids.sort();
    assert_eq!(ids, vec![2, 3]);
}

#[test]
fn empty_group_by_result() {
    let cat = tiny_catalog();
    let rs = query(
        &cat,
        "select e_dept, count(*) as n from emp where e_salary > 10000 group by e_dept",
    );
    assert!(rs.rows.is_empty());
}

#[test]
fn scalar_aggregate_over_empty_input() {
    let cat = tiny_catalog();
    let rs = query(
        &cat,
        "select count(*) as n, sum(e_salary) as s from emp where e_salary > 10000",
    );
    assert_eq!(rs.rows.len(), 1);
    assert_eq!(rs.rows[0][0], Value::Int(0));
    assert!(rs.rows[0][1].is_null());
}

#[test]
fn or_predicates() {
    let cat = tiny_catalog();
    let rs = query(
        &cat,
        "select e_id from emp where e_salary < 60 or e_salary > 190",
    );
    let mut ids: Vec<i64> = rs.rows.iter().map(|r| r[0].as_i64().unwrap()).collect();
    ids.sort();
    assert_eq!(ids, vec![2, 4]);
}

#[test]
fn arithmetic_in_projection() {
    let cat = tiny_catalog();
    let rs = query(
        &cat,
        "select e_id, e_salary * 2 + 1 as x from emp where e_id = 1",
    );
    assert_eq!(rs.rows[0][1], Value::Float(201.0));
}

#[test]
fn errors_are_reported() {
    let cat = tiny_catalog();
    assert!(optimize_sql(&cat, "select nope from emp", &CseConfig::default()).is_err());
    assert!(optimize_sql(&cat, "select e_id from ghost", &CseConfig::default()).is_err());
    assert!(optimize_sql(&cat, "select e_id from", &CseConfig::default()).is_err());
    // Ambiguous column across two tables with same schema prefix: e_dept
    // appears once, d_id once — construct a real ambiguity via self-ish
    // aliases.
    assert!(optimize_sql(
        &cat,
        "select e_salary from emp a, emp b where a.e_id = b.e_id",
        &CseConfig::default()
    )
    .is_err());
}

/// ROADMAP 1a, the poisoned sibling: Q2's cut-off is a string that is not a
/// date, so its comparison is NULL for every row and Q2 is empty — which
/// must not leak into Q1 through a covering predicate the two share.
#[test]
fn ill_typed_sibling_does_not_poison_the_covering_predicate() {
    let catalog = generate_catalog(&TpchConfig::new(0.002));
    let sql =
        "select c_nationkey, c_mktsegment, sum(l_extendedprice) as le, sum(l_quantity) as lq \
         from customer, orders, lineitem \
         where c_custkey = o_custkey and o_orderkey = l_orderkey \
           and o_orderdate < '1996-07-01' and c_nationkey > 0 and c_nationkey < 20 \
         group by c_nationkey, c_mktsegment; \
         select c_nationkey, sum(l_extendedprice) as le, sum(l_quantity) as lq \
         from customer, orders, lineitem \
         where c_custkey = o_custkey and o_orderkey = l_orderkey \
           and o_orderdate < '1996-13-26' and c_nationkey > 5 and c_nationkey < 25 \
         group by c_nationkey";
    let run = |cfg: CseConfig| {
        // The plan must also pass cse-verify (its covering pass included).
        let cfg = CseConfig {
            verify: true,
            ..cfg
        };
        let o = optimize_sql(&catalog, sql, &cfg).expect("optimize");
        let engine = Engine::new(&catalog, &o.ctx);
        engine.execute(&o.plan).expect("execute").results
    };
    let reference = run(CseConfig::no_cse());
    assert!(!reference[0].rows.is_empty(), "Q1 has rows");
    assert!(reference[1].rows.is_empty(), "Q2 compares a date with text");
    for (name, cfg) in [
        ("default", CseConfig::default()),
        ("no_heuristics", CseConfig::no_heuristics()),
    ] {
        let got = run(cfg);
        for (i, (g, w)) in got.iter().zip(&reference).enumerate() {
            assert!(
                g.approx_eq(w, 1e-9),
                "{name}: statement {i} differs from no_cse()"
            );
        }
    }
}

/// Every statement's result under the default configuration, checked
/// against the paper's "No CSE" configuration, and the default's report.
fn query_batch_as_no_cse(catalog: &Catalog, sql: &str) -> (Vec<ResultSet>, CseReport) {
    let run = |cfg: CseConfig| {
        let o = optimize_sql(catalog, sql, &cfg).expect("optimize");
        let engine = Engine::new(catalog, &o.ctx);
        (engine.execute(&o.plan).expect("execute").results, o.report)
    };
    let (got, report) = run(CseConfig::default());
    let (want, _) = run(CseConfig::no_cse());
    assert_eq!(got.len(), want.len());
    for (i, (g, w)) in got.iter().zip(&want).enumerate() {
        assert!(g.approx_eq(w, 1e-9), "statement {i} differs from no_cse()");
    }
    (got, report)
}

#[test]
fn unsat_scalar_aggregate_still_returns_one_row() {
    // A scalar aggregate over a contradictory WHERE still has its one row.
    let cat = tiny_catalog();
    let sql = "select count(*) as n from emp where e_id < 2 and e_id > 4";
    let (rs, _) = query_batch_as_no_cse(&cat, sql);
    assert_eq!(rs[0].rows.len(), 1);
    assert_eq!(rs[0].rows[0][0], Value::Int(0));
}

#[test]
fn unsat_grouped_aggregate_returns_no_groups() {
    let cat = tiny_catalog();
    let sql = "select e_dept, count(*) as n from emp where e_id < 2 and e_id > 4 group by e_dept";
    let (rs, _) = query_batch_as_no_cse(&cat, sql);
    assert!(rs[0].rows.is_empty());
}

#[test]
fn redundant_conjuncts_leave_shared_results_unchanged() {
    // Both statements carry `c_nationkey < 24` next to a tighter bound,
    // which construction step 2 drops from the covering predicate they
    // share.
    let catalog = generate_catalog(&TpchConfig::new(0.002));
    let sql = "select c_nationkey, sum(l_quantity) as lq \
               from customer, orders, lineitem \
               where c_custkey = o_custkey and o_orderkey = l_orderkey \
                 and c_nationkey < 20 and c_nationkey < 24 \
               group by c_nationkey; \
               select c_nationkey, sum(l_extendedprice) as le \
               from customer, orders, lineitem \
               where c_custkey = o_custkey and o_orderkey = l_orderkey \
                 and c_nationkey > 5 and c_nationkey < 22 and c_nationkey < 24 \
               group by c_nationkey";
    let (rs, report) = query_batch_as_no_cse(&catalog, sql);
    assert!(report.spools_used > 0, "the statements share a spool");
    assert!(rs.iter().all(|r| !r.rows.is_empty()));
}
