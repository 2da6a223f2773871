//! Deterministic TPC-H data generation.
//!
//! The generator reproduces dbgen's value *distributions* (uniform keys,
//! date ranges, 1–7 lineitems per order, 25 nations over 5 regions, ...) so
//! that selectivities — the quantity the paper's experiments depend on —
//! match the real benchmark. Absolute string contents differ.

use crate::rng::SplitMix64;
use crate::schema::TpchTable;
use crate::text::{self, CommentPool};
use cse_storage::{row, Catalog, Row, Table, TableStats, Value};
use std::sync::Arc;

/// Generation parameters.
#[derive(Debug, Clone, Copy)]
pub struct TpchConfig {
    /// Scale factor; SF=1 is the paper's 1 GB database. The experiments here
    /// default to much smaller factors (see `cse-bench`).
    pub scale: f64,
    /// Seed for all value streams.
    pub seed: u64,
}

impl Default for TpchConfig {
    fn default() -> Self {
        TpchConfig {
            scale: 0.01,
            seed: 0x7c5e_2007,
        }
    }
}

impl TpchConfig {
    pub fn new(scale: f64) -> Self {
        TpchConfig {
            scale,
            ..Default::default()
        }
    }

    /// Scaled row count for a table (region/nation are fixed-size).
    pub fn rows(&self, table: TpchTable) -> u64 {
        match table {
            TpchTable::Region | TpchTable::Nation => table.base_rows(),
            _ => ((table.base_rows() as f64 * self.scale).round() as u64).max(1),
        }
    }
}

/// First order date in dbgen (1992-01-01, days since epoch).
pub const START_DATE: i32 = 8035;
/// Last order date in dbgen (1998-08-02).
pub const END_DATE: i32 = 10440;

fn comment_pool(cfg: &TpchConfig) -> CommentPool {
    CommentPool::new(cfg.seed, 512)
}

/// Generate one table.
pub fn generate_table(cfg: &TpchConfig, which: TpchTable) -> Table {
    let pool = comment_pool(cfg);
    match which {
        TpchTable::Region => gen_region(cfg, &pool),
        TpchTable::Nation => gen_nation(cfg, &pool),
        TpchTable::Supplier => gen_supplier(cfg, &pool),
        TpchTable::Customer => gen_customer(cfg, &pool),
        TpchTable::Part => gen_part(cfg, &pool),
        TpchTable::PartSupp => gen_partsupp(cfg, &pool),
        TpchTable::Orders => gen_orders(cfg, &pool),
        TpchTable::Lineitem => gen_lineitem(cfg, &pool),
    }
}

/// Generate all eight tables and register them (with analyzed statistics)
/// in a fresh catalog.
pub fn generate_catalog(cfg: &TpchConfig) -> Catalog {
    let mut catalog = Catalog::new();
    for t in TpchTable::ALL {
        let table = generate_table(cfg, t);
        let stats = Arc::new(TableStats::analyze(&table));
        catalog
            .register_table_with_stats(stats, table)
            .expect("fresh catalog has no duplicates");
    }
    catalog
}

fn gen_region(cfg: &TpchConfig, pool: &CommentPool) -> Table {
    let mut rng = SplitMix64::derive(cfg.seed, "region");
    let mut t = Table::new("region", TpchTable::Region.schema());
    for (k, name) in text::REGIONS.iter().enumerate() {
        t.push_values([
            Value::Int(k as i64),
            Value::str(name),
            Value::Str(pool.pick(&mut rng)),
        ]);
    }
    t
}

fn gen_nation(cfg: &TpchConfig, pool: &CommentPool) -> Table {
    let mut rng = SplitMix64::derive(cfg.seed, "nation");
    let mut t = Table::new("nation", TpchTable::Nation.schema());
    for (k, (name, region)) in text::NATIONS.iter().enumerate() {
        t.push_values([
            Value::Int(k as i64),
            Value::str(name),
            Value::Int(*region),
            Value::Str(pool.pick(&mut rng)),
        ]);
    }
    t
}

fn gen_supplier(cfg: &TpchConfig, pool: &CommentPool) -> Table {
    let mut rng = SplitMix64::derive(cfg.seed, "supplier");
    let n = cfg.rows(TpchTable::Supplier);
    let mut t = Table::new("supplier", TpchTable::Supplier.schema());
    for k in 1..=n as i64 {
        let nation = rng.int_range(0, 24);
        t.push_values([
            Value::Int(k),
            Value::str(format!("Supplier#{k:09}")),
            Value::Str(pool.pick(&mut rng)),
            Value::Int(nation),
            Value::str(text::phone(&mut rng, nation)),
            Value::Float((rng.float_range(-999.99, 9999.99) * 100.0).round() / 100.0),
            Value::Str(pool.pick(&mut rng)),
        ]);
    }
    t
}

fn gen_customer(cfg: &TpchConfig, pool: &CommentPool) -> Table {
    let mut rng = SplitMix64::derive(cfg.seed, "customer");
    let n = cfg.rows(TpchTable::Customer);
    let mut t = Table::new("customer", TpchTable::Customer.schema());
    for k in 1..=n as i64 {
        let nation = rng.int_range(0, 24);
        t.push_values(customer_values(k, nation, &mut rng, pool));
    }
    t
}

/// Build a single customer row (also used by the view-maintenance
/// experiment to fabricate inserted customers).
pub fn customer_row(key: i64, nation: i64, rng: &mut SplitMix64, pool: &CommentPool) -> Row {
    row(customer_values(key, nation, rng, pool).into())
}

fn customer_values(key: i64, nation: i64, rng: &mut SplitMix64, pool: &CommentPool) -> [Value; 8] {
    [
        Value::Int(key),
        Value::str(format!("Customer#{key:09}")),
        Value::Str(pool.pick(rng)),
        Value::Int(nation),
        Value::str(text::phone(rng, nation)),
        Value::Float((rng.float_range(-999.99, 9999.99) * 100.0).round() / 100.0),
        Value::Str(pool.domains().segments.pick(rng)),
        Value::Str(pool.pick(rng)),
    ]
}

fn gen_part(cfg: &TpchConfig, pool: &CommentPool) -> Table {
    let mut rng = SplitMix64::derive(cfg.seed, "part");
    let n = cfg.rows(TpchTable::Part);
    let d = pool.domains();
    let mut t = Table::new("part", TpchTable::Part.schema());
    for k in 1..=n as i64 {
        let ptype = d.types.pick(&mut rng);
        let container = d.containers.pick(&mut rng);
        t.push_values([
            Value::Int(k),
            Value::str(format!("part {k}")),
            Value::Str(d.mfgrs.pick(&mut rng)),
            Value::Str(d.brands.pick(&mut rng)),
            Value::Str(ptype),
            Value::Int(rng.int_range(1, 50)),
            Value::Str(container),
            Value::Float(
                (90_000.0 + (k % 200_001) as f64 * 0.01 + 100.0 * (k % 1000) as f64 * 0.01).round()
                    / 100.0,
            ),
            Value::Str(pool.pick(&mut rng)),
        ]);
    }
    t
}

fn gen_partsupp(cfg: &TpchConfig, pool: &CommentPool) -> Table {
    let mut rng = SplitMix64::derive(cfg.seed, "partsupp");
    let parts = cfg.rows(TpchTable::Part) as i64;
    let suppliers = cfg.rows(TpchTable::Supplier) as i64;
    let mut t = Table::new("partsupp", TpchTable::PartSupp.schema());
    // dbgen: 4 suppliers per part.
    for p in 1..=parts {
        for s in 0..4 {
            let suppkey = 1 + (p + s * (suppliers / 4).max(1)) % suppliers;
            t.push_values([
                Value::Int(p),
                Value::Int(suppkey),
                Value::Int(rng.int_range(1, 9999)),
                Value::Float((rng.float_range(1.0, 1000.0) * 100.0).round() / 100.0),
                Value::Str(pool.pick(&mut rng)),
            ]);
        }
    }
    t
}

fn gen_orders(cfg: &TpchConfig, pool: &CommentPool) -> Table {
    let mut rng = SplitMix64::derive(cfg.seed, "orders");
    let n = cfg.rows(TpchTable::Orders);
    let customers = cfg.rows(TpchTable::Customer) as i64;
    let d = pool.domains();
    let mut t = Table::new("orders", TpchTable::Orders.schema());
    for k in 1..=n as i64 {
        let orderdate = rng.int_range(START_DATE as i64, (END_DATE - 151) as i64) as i32;
        t.push_values([
            Value::Int(k),
            Value::Int(rng.int_range(1, customers)),
            Value::Str(d.order_status.pick(&mut rng)),
            Value::Float((rng.float_range(850.0, 450_000.0) * 100.0).round() / 100.0),
            Value::Date(orderdate),
            Value::Str(d.priorities.pick(&mut rng)),
            Value::Str(d.clerks.pick(&mut rng)),
            Value::Int(0),
            Value::Str(pool.pick(&mut rng)),
        ]);
    }
    t
}

fn gen_lineitem(cfg: &TpchConfig, pool: &CommentPool) -> Table {
    // Lineitems are generated per order so that l_orderkey joins and
    // per-order line counts (1-7) match dbgen. Order dates are regenerated
    // from the same stream as gen_orders to keep l_shipdate > o_orderdate.
    let mut orng = SplitMix64::derive(cfg.seed, "orders");
    let mut rng = SplitMix64::derive(cfg.seed, "lineitem");
    let orders = cfg.rows(TpchTable::Orders);
    let parts = cfg.rows(TpchTable::Part) as i64;
    let suppliers = cfg.rows(TpchTable::Supplier) as i64;
    let customers = cfg.rows(TpchTable::Customer) as i64;
    let d = pool.domains();
    let mut t = Table::new("lineitem", TpchTable::Lineitem.schema());
    for ok in 1..=orders as i64 {
        // Mirror gen_orders' stream usage (orderdate is drawn first there)
        // to recover o_orderdate for this order key.
        let orderdate = orng.int_range(START_DATE as i64, (END_DATE - 151) as i64) as i32;
        let _custkey = orng.int_range(1, customers);
        let _status = orng.pick(text::ORDER_STATUS);
        let _total = orng.float_range(850.0, 450_000.0);
        let _prio = orng.pick(text::PRIORITIES);
        let _clerk = orng.int_range(1, 1000);
        let _c = orng.next_u64(); // comment pick in gen_orders

        let lines = rng.int_range(1, 7);
        for ln in 1..=lines {
            let quantity = rng.int_range(1, 50) as f64;
            let price_per_unit = rng.float_range(900.0, 2100.0);
            let extended = (quantity * price_per_unit * 100.0).round() / 100.0;
            let shipdate = orderdate + rng.int_range(1, 121) as i32;
            let commitdate = orderdate + rng.int_range(30, 90) as i32;
            let receiptdate = shipdate + rng.int_range(1, 30) as i32;
            t.push_values([
                Value::Int(ok),
                Value::Int(rng.int_range(1, parts)),
                Value::Int(rng.int_range(1, suppliers)),
                Value::Int(ln),
                Value::Float(quantity),
                Value::Float(extended),
                Value::Float((rng.int_range(0, 10) as f64) / 100.0),
                Value::Float((rng.int_range(0, 8) as f64) / 100.0),
                Value::Str(d.return_flags.pick(&mut rng)),
                Value::Str(d.line_status.pick(&mut rng)),
                Value::Date(shipdate),
                Value::Date(commitdate),
                Value::Date(receiptdate),
                Value::Str(d.ship_instruct.pick(&mut rng)),
                Value::Str(d.ship_modes.pick(&mut rng)),
                Value::Str(pool.pick(&mut rng)),
            ]);
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn tiny() -> TpchConfig {
        TpchConfig {
            scale: 0.001,
            seed: 42,
        }
    }

    #[test]
    fn row_counts_scale() {
        let cfg = tiny();
        assert_eq!(cfg.rows(TpchTable::Region), 5);
        assert_eq!(cfg.rows(TpchTable::Nation), 25);
        assert_eq!(cfg.rows(TpchTable::Customer), 150);
        assert_eq!(cfg.rows(TpchTable::Orders), 1500);
    }

    #[test]
    fn generation_is_deterministic() {
        let cfg = tiny();
        let a = generate_table(&cfg, TpchTable::Customer);
        let b = generate_table(&cfg, TpchTable::Customer);
        assert_eq!(a.row_count(), b.row_count());
        for (ra, rb) in a.scan().zip(b.scan()) {
            assert_eq!(ra, rb);
        }
    }

    #[test]
    fn lineitem_orderkeys_join_orders() {
        let cfg = tiny();
        let orders = generate_table(&cfg, TpchTable::Orders);
        let lineitem = generate_table(&cfg, TpchTable::Lineitem);
        let max_ok = orders.row_count() as i64;
        // 1-7 lines per order on average 4.
        let ratio = lineitem.row_count() as f64 / orders.row_count() as f64;
        assert!((2.5..=5.5).contains(&ratio), "ratio {ratio}");
        for r in lineitem.scan().take(500) {
            let ok = r[0].as_i64().unwrap();
            assert!((1..=max_ok).contains(&ok));
        }
    }

    #[test]
    fn lineitem_shipdate_after_orderdate() {
        let cfg = tiny();
        let orders = generate_table(&cfg, TpchTable::Orders);
        let lineitem = generate_table(&cfg, TpchTable::Lineitem);
        let odate: Vec<i64> = orders.scan().map(|r| r[4].as_i64().unwrap()).collect();
        for r in lineitem.scan().take(2000) {
            let ok = r[0].as_i64().unwrap() as usize;
            let ship = r[10].as_i64().unwrap();
            assert!(ship > odate[ok - 1], "shipdate precedes orderdate");
        }
    }

    #[test]
    fn orderdate_selectivity_matches_dbgen_shape() {
        // `o_orderdate < 1996-07-01` selects ~68% of orders in dbgen.
        let cfg = TpchConfig {
            scale: 0.004,
            seed: 9,
        };
        let orders = generate_table(&cfg, TpchTable::Orders);
        let cutoff = cse_storage::dates::parse_date("1996-07-01").unwrap() as i64;
        let sel = orders
            .scan()
            .filter(|r| r[4].as_i64().unwrap() < cutoff)
            .count() as f64
            / orders.row_count() as f64;
        assert!((0.6..0.8).contains(&sel), "selectivity {sel}");
    }

    #[test]
    fn catalog_has_all_tables_with_stats() {
        let cfg = tiny();
        let cat = generate_catalog(&cfg);
        for t in TpchTable::ALL {
            assert!(cat.contains(t.name()), "{} missing", t.name());
            let stats = cat.stats(t.name()).unwrap();
            assert!(stats.row_count > 0);
        }
        // Nation key stats: 25 distinct values 0..24.
        let ns = cat.stats("nation").unwrap();
        assert_eq!(ns.row_count, 25);
        assert_eq!(ns.columns[0].distinct, 25);
    }

    /// Each enumerated column of a generated catalog stores one allocation
    /// per distinct value, not one per row.
    #[test]
    fn enumerated_columns_hold_one_allocation_per_value() {
        let cat = generate_catalog(&tiny());
        for (table, column) in [
            ("customer", "c_mktsegment"),
            ("part", "p_mfgr"),
            ("part", "p_brand"),
            ("part", "p_type"),
            ("part", "p_container"),
            ("orders", "o_orderstatus"),
            ("orders", "o_orderpriority"),
            ("orders", "o_clerk"),
            ("lineitem", "l_returnflag"),
            ("lineitem", "l_linestatus"),
            ("lineitem", "l_shipinstruct"),
            ("lineitem", "l_shipmode"),
        ] {
            let t = cat.table(table).unwrap();
            let c = t.schema().index_of(column).unwrap();
            let (mut texts, mut allocations) = (HashSet::new(), HashSet::new());
            for r in t.scan() {
                let Value::Str(s) = &r[c] else {
                    panic!("{table}.{column} holds strings")
                };
                texts.insert(s.to_string());
                allocations.insert(s.as_ptr());
            }
            assert!(
                texts.len() > 1 && texts.len() < t.row_count(),
                "{table}.{column}"
            );
            assert_eq!(allocations.len(), texts.len(), "{table}.{column}");
        }
    }

    #[test]
    fn customer_nationkey_in_range() {
        let cfg = tiny();
        let c = generate_table(&cfg, TpchTable::Customer);
        for r in c.scan() {
            let nk = r[3].as_i64().unwrap();
            assert!((0..25).contains(&nk));
        }
    }
}
