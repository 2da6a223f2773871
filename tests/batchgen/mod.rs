//! Seeded catalogs and batches of similar SPJG statements over the
//! customer/orders/lineitem/nation/part templates: what the generated-batch
//! differential suite (`tests/generated_batches.rs`) runs, and what the
//! generation oracle (`crates/core/tests/heuristics.rs`) constructs over.
//!
//! A seed's [`stream`] draws its catalog first and its batch second.

// Each suite that includes this module uses a different part of it.
#![allow(dead_code)]

use cse_storage::testkit::TestRng;
use cse_storage::{row, Catalog, Row, Table, Value};
use cse_tpch::TpchTable;

/// The PRNG stream of `seed`.
pub fn stream(seed: u64) -> TestRng {
    TestRng::new(0xBA7C_4000 + seed)
}

/// The seeds `cargo test` runs: the first 40 (15 and 17 found the scalar
/// COUNT rolled up as a SUM of no partial counts) and 253, which found a
/// consumer admitted to a CSE that had dropped its compensation column.
pub fn fixed_seeds() -> impl Iterator<Item = u64> {
    (0..40).chain([253])
}

/// `NULL` with probability `p`, else `v`.
pub fn nullable(v: Value, p: f64, rng: &mut TestRng) -> Value {
    if rng.chance(p) {
        Value::Null
    } else {
        v
    }
}

/// A key that joins and groups the same whether stored as `Int(k)` or as
/// `Float(k)`; NULL now and then.
pub fn key(rng: &mut TestRng, hi: i64) -> Value {
    let k = rng.range_i64(0, hi);
    let v = if rng.chance(0.2) {
        Value::Float(k as f64)
    } else {
        Value::Int(k)
    };
    nullable(v, 0.08, rng)
}

/// Quarter steps: every sum is exact in an `f64`, whatever the order.
pub fn quarters(rng: &mut TestRng, hi: i64) -> Value {
    nullable(
        Value::Float(rng.range_i64(0, hi * 4) as f64 / 4.0),
        0.05,
        rng,
    )
}

pub fn word(rng: &mut TestRng, words: &[&str]) -> Value {
    nullable(Value::str(rng.pick(words)), 0.1, rng)
}

pub fn date(rng: &mut TestRng) -> Value {
    let (y, m) = (1995 + rng.range_i64(0, 3), 1 + rng.range_i64(0, 12));
    Value::date(&format!("{y}-{m:02}-15")).expect("valid date")
}

/// One row of `table`: the columns the templates read are drawn, the rest
/// are NULL.
pub fn gen_row(rng: &mut TestRng, table: TpchTable, i: i64) -> Row {
    let schema = table.schema();
    let mut vals = vec![Value::Null; schema.len()];
    let mut set = |name: &str, v: Value| {
        let at = schema.index_of(name).expect("template column");
        vals[at] = v;
    };
    match table {
        TpchTable::Nation => {
            set("n_nationkey", Value::Int(i));
            set("n_name", Value::str(format!("nation{i}")));
            set("n_regionkey", key(rng, 3));
        }
        TpchTable::Customer => {
            set("c_custkey", Value::Int(i));
            set("c_nationkey", key(rng, 8));
            set(
                "c_mktsegment",
                word(rng, &["AUTO", "BUILDING", "MACHINERY"]),
            );
            set("c_acctbal", quarters(rng, 100));
        }
        TpchTable::Orders => {
            set("o_orderkey", Value::Int(i));
            set("o_custkey", key(rng, 20));
            set("o_orderdate", date(rng));
            set(
                "o_orderpriority",
                word(rng, &["1-URGENT", "2-HIGH", "3-LOW"]),
            );
            set("o_totalprice", quarters(rng, 1000));
        }
        TpchTable::Lineitem => {
            set("l_orderkey", key(rng, 44));
            set("l_partkey", key(rng, 12));
            set("l_quantity", quarters(rng, 50));
            set("l_extendedprice", quarters(rng, 900));
            set("l_discount", quarters(rng, 1));
            set("l_returnflag", word(rng, &["A", "N", "R"]));
            set("l_shipdate", date(rng));
        }
        _ => {
            set("p_partkey", Value::Int(i));
            set("p_type", word(rng, &["BRASS", "COPPER", "STEEL"]));
            set("p_brand", word(rng, &["Brand#1", "Brand#2"]));
            set("p_size", Value::Int(rng.range_i64(1, 50)));
        }
    }
    row(vals)
}

pub fn gen_catalog(rng: &mut TestRng) -> Catalog {
    let tables = [
        (TpchTable::Nation, 6),
        (TpchTable::Customer, 18),
        (TpchTable::Orders, 40),
        (TpchTable::Lineitem, 110),
        (TpchTable::Part, 10),
    ];
    let empty = rng.chance(0.2).then(|| rng.range_usize(0, tables.len()));
    let mut catalog = Catalog::new();
    for (t, (table, n)) in tables.into_iter().enumerate() {
        let mut rows: Vec<Row> = Vec::new();
        for i in 0..n {
            rows.push(gen_row(rng, table, i));
            if rng.chance(0.1) {
                rows.push(rows[rows.len() - 1].clone()); // a duplicate row
            }
        }
        if empty == Some(t) {
            rows.clear();
        }
        let table = Table::with_rows(table.name(), table.schema(), rows);
        catalog.register_table(table).expect("fresh catalog");
    }
    catalog
}

/// One generated statement and, if it has an ORDER BY, the output column
/// and direction the result must be sorted by.
#[derive(Clone)]
pub struct Stmt {
    pub sql: String,
    pub order: Option<(String, bool)>,
}

pub const COL_JOINS: &str = "c_custkey = o_custkey and o_orderkey = l_orderkey";

pub fn gen_stmt(rng: &mut TestRng, family: usize) -> Stmt {
    // (tables, join predicate, group-by candidates, aggregate candidates)
    let (from, joins, groups, aggs): (&str, &str, &[&str], &[&str]) = match family {
        0 => (
            "customer, orders, lineitem",
            COL_JOINS,
            &["c_nationkey", "c_mktsegment"],
            &[
                "sum(l_extendedprice)",
                "sum(l_quantity)",
                "count(*)",
                "min(l_discount)",
                "count(l_returnflag)",
            ],
        ),
        1 => (
            "customer, orders, lineitem, nation",
            "c_custkey = o_custkey and o_orderkey = l_orderkey and c_nationkey = n_nationkey",
            &["n_regionkey", "n_name", "c_nationkey"],
            &[
                "sum(l_extendedprice)",
                "max(l_quantity)",
                "count(*)",
                "avg(l_discount)",
            ],
        ),
        2 => (
            "part, orders, lineitem",
            "p_partkey = l_partkey and o_orderkey = l_orderkey",
            &["p_type", "p_brand"],
            &["sum(l_quantity)", "count(*)", "max(l_extendedprice)"],
        ),
        _ => (
            "customer, orders",
            "c_custkey = o_custkey",
            &["c_nationkey", "o_orderpriority", "c_mktsegment"],
            &["sum(o_totalprice)", "count(*)", "min(c_acctbal)"],
        ),
    };
    let mut preds = vec![joins.to_string()];
    if from.contains("customer") && rng.chance(0.8) {
        let lo = rng.range_i64(-1, 4);
        preds.push(format!("c_nationkey > {lo}"));
        preds.push(format!("c_nationkey < {}", lo + rng.range_i64(1, 8)));
    }
    if rng.chance(0.7) {
        let (y, m) = (1995 + rng.range_i64(0, 3), 1 + rng.range_i64(0, 12));
        preds.push(format!("o_orderdate < '{y}-{m:02}-01'"));
    }
    if from.contains("part") && rng.chance(0.5) {
        preds.push(format!("p_size < {}", rng.range_i64(5, 50)));
    }
    // A subset of the group-by candidates; empty is a scalar aggregate.
    let keys: Vec<&str> = groups.iter().copied().filter(|_| rng.chance(0.5)).collect();
    let mut picked: Vec<&str> = aggs.iter().copied().filter(|_| rng.chance(0.5)).collect();
    if picked.is_empty() {
        picked.push(aggs[0]);
    }
    let mut select: Vec<String> = keys.iter().map(|k| k.to_string()).collect();
    select.extend(
        picked
            .iter()
            .enumerate()
            .map(|(i, a)| format!("{a} as a{i}")),
    );
    let mut sql = format!(
        "select {} from {from} where {}",
        select.join(", "),
        preds.join(" and ")
    );
    if !keys.is_empty() {
        sql.push_str(&format!(" group by {}", keys.join(", ")));
    }
    // The nested shape of §6.3: HAVING against a scalar subquery over the
    // same three-table join.
    if family <= 1 && rng.chance(0.25) {
        sql.push_str(&format!(
            " having sum(l_discount) > (select sum(l_discount) / {} \
             from customer, orders, lineitem where {COL_JOINS})",
            rng.range_i64(2, 30)
        ));
    }
    let order = rng.chance(0.3).then(|| {
        let col = match keys.first() {
            Some(k) if rng.chance(0.5) => k.to_string(),
            _ => "a0".to_string(),
        };
        (col, rng.chance(0.5))
    });
    if let Some((col, desc)) = &order {
        sql.push_str(&format!(
            " order by {col}{}",
            if *desc { " desc" } else { "" }
        ));
    }
    Stmt { sql, order }
}

/// 2–6 statements, mostly of one family so that they share.
pub fn gen_batch(rng: &mut TestRng) -> Vec<Stmt> {
    let family = rng.range_usize(0, 4);
    (0..rng.range_usize(2, 7))
        .map(|_| {
            let f = if rng.chance(0.75) {
                family
            } else {
                rng.range_usize(0, 4)
            };
            gen_stmt(rng, f)
        })
        .collect()
}

pub fn sql_of(batch: &[Stmt]) -> String {
    batch.iter().map(|s| format!("{};\n", s.sql)).collect()
}
