//! Request generators: the benchmark's own copies of the paper's query
//! templates (§6), with the constants — date cut-offs, `c_nationkey`
//! ranges, `p_size` bounds — drawn from a seeded PRNG.
//!
//! The constants move inside narrow windows around the paper's values, so
//! two requests of one class do nearly the same work but are never the
//! same string: a plan or result cache keyed on SQL text cannot win here.
//! The class mix of a round is fixed (only the order and the constants
//! depend on the seed), so every seed puts the same load on every layer.

use crate::check;
use cse_storage::testkit::TestRng;
use cse_storage::Row;
use cse_tpch::rng::SplitMix64;
use cse_tpch::text::CommentPool;

/// One SQL batch sent as one request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Template the request was drawn from; metrics are broken down by it.
    pub class: &'static str,
    pub sql: String,
}

/// One step of the `view-maint` workload.
#[derive(Debug, Clone, PartialEq)]
pub enum MaintOp {
    /// `Session::insert("customer", rows)`.
    Insert(Vec<Row>),
    /// `Session::query` over one materialized view.
    Read(Request),
}

/// The three materialized views of §6.4: the Example 1 queries, at the
/// paper's constants.
pub const VIEWS: [(&str, &str); 3] = [
    (
        "mv_nation_segment",
        "select c_nationkey, c_mktsegment, sum(l_extendedprice) as le, sum(l_quantity) as lq \
         from customer, orders, lineitem \
         where c_custkey = o_custkey and o_orderkey = l_orderkey \
           and o_orderdate < '1996-07-01' and c_nationkey > 0 and c_nationkey < 20 \
         group by c_nationkey, c_mktsegment",
    ),
    (
        "mv_nation",
        "select c_nationkey, sum(l_extendedprice) as le, sum(l_quantity) as lq \
         from customer, orders, lineitem \
         where c_custkey = o_custkey and o_orderkey = l_orderkey \
           and o_orderdate < '1996-07-01' and c_nationkey > 5 and c_nationkey < 25 \
         group by c_nationkey",
    ),
    (
        "mv_region",
        "select n_regionkey, sum(l_extendedprice) as le, sum(l_quantity) as lq \
         from customer, orders, lineitem, nation \
         where c_custkey = o_custkey and o_orderkey = l_orderkey \
           and c_nationkey = n_nationkey \
           and o_orderdate < '1996-07-01' and c_nationkey > 2 and c_nationkey < 24 \
         group by n_regionkey",
    ),
];

/// Requests per round of each class. Changing a number here changes the
/// workload: the baseline must be measured again.
///
/// Latency percentiles are pooled over classes whose latencies differ by
/// up to 200x, so the counts are chosen to keep p50 and p90 well inside
/// one class's block of the sorted sample and off the cliff between two
/// blocks, where a few requests more or less would move them by tens of
/// percent. Blocks are listed with each mix, in ascending latency.
///
/// `share-batch`: nested + table1 0-67 % (p50), scaleup4 -76 %,
/// scaleup6 -82 %, table2 + scaleup8 -100 % (p90).
const SHARE_BATCH_MIX: [(&str, usize); 6] = [
    ("table1", 10),
    ("table2", 4),
    ("nested", 12),
    ("scaleup4", 3),
    ("scaleup6", 2),
    ("scaleup8", 2),
];
/// `opt-heavy`: scaleup10 0-67 % (p50), table4 -100 % (p90).
const OPT_HEAVY_MIX: [(&str, usize); 2] = [("table4", 3), ("scaleup10", 6)];
/// `no-share`: customer-agg 0-25 %, disjoint5 -37.5 %, lineitem-agg
/// -62.5 % (p50), join3 -100 % (p90).
const NO_SHARE_MIX: [(&str, usize); 4] = [
    ("disjoint5", 12),
    ("customer-agg", 24),
    ("lineitem-agg", 24),
    ("join3", 36),
];
/// `serve-mix` draws a quarter of its requests from `share-batch` classes
/// and the rest from `no-share` classes: customer-agg 0-19 %, disjoint5
/// -31 %, lineitem-agg -62.5 % (p50), join3 -75 %, nested + table1 -96 %
/// (p90), scaleup4 and table2 -100 %.
const SERVE_MIX: [(&str, usize); 8] = [
    ("table1", 10),
    ("table2", 2),
    ("nested", 10),
    ("scaleup4", 2),
    ("disjoint5", 12),
    ("customer-agg", 18),
    ("lineitem-agg", 30),
    ("join3", 12),
];
/// Inserts per `view-maint` round, rows per insert, and how often a view
/// is read.
pub const MAINT_INSERTS: usize = 80;
pub const MAINT_ROWS_PER_INSERT: usize = 50;
pub const MAINT_READ_EVERY: usize = 10;

/// The seeded constants of one request.
struct Knobs<'a> {
    rng: &'a mut TestRng,
}

impl Knobs<'_> {
    /// A date in `month` (1..=11) or the month after it, on day 1..=28.
    fn date(&mut self, year: i32, month: u32) -> String {
        assert!(
            (1..=11).contains(&month),
            "month {month} has no month after it"
        );
        let m = month + self.rng.range_i64(0, 2) as u32;
        let d = self.rng.range_i64(1, 29);
        format!("{year}-{m:02}-{d:02}")
    }

    /// A lower bound at or up to two above the paper's.
    fn lo(&mut self, paper: i64) -> i64 {
        paper + self.rng.range_i64(0, 3)
    }

    /// An upper bound at or up to two below the paper's.
    fn hi(&mut self, paper: i64) -> i64 {
        paper - self.rng.range_i64(0, 3)
    }
}

/// Example 1 / §6.1: Q1–Q3 share one date cut-off, as in the paper; Q4
/// (§6.2) joins `part` instead of `customer` and triggers stacked CSEs.
fn example1_batch(k: &mut Knobs, with_q4: bool) -> String {
    let date = k.date(1996, 6);
    let (lo1, hi1) = (k.lo(0), k.hi(20));
    let (lo2, hi2) = (k.lo(5), k.hi(25));
    let (lo3, hi3) = (k.lo(2), k.hi(24));
    let mut sql = format!(
        "select c_nationkey, c_mktsegment, sum(l_extendedprice) as le, sum(l_quantity) as lq \
         from customer, orders, lineitem \
         where c_custkey = o_custkey and o_orderkey = l_orderkey \
           and o_orderdate < '{date}' and c_nationkey > {lo1} and c_nationkey < {hi1} \
         group by c_nationkey, c_mktsegment;\n\
         select c_nationkey, sum(l_extendedprice) as le, sum(l_quantity) as lq \
         from customer, orders, lineitem \
         where c_custkey = o_custkey and o_orderkey = l_orderkey \
           and o_orderdate < '{date}' and c_nationkey > {lo2} and c_nationkey < {hi2} \
         group by c_nationkey;\n\
         select n_regionkey, sum(l_extendedprice) as le, sum(l_quantity) as lq \
         from customer, orders, lineitem, nation \
         where c_custkey = o_custkey and o_orderkey = l_orderkey \
           and c_nationkey = n_nationkey \
           and o_orderdate < '{date}' and c_nationkey > {lo3} and c_nationkey < {hi3} \
         group by n_regionkey"
    );
    if with_q4 {
        sql.push_str(&format!(
            ";\nselect p_type, sum(l_quantity) as qty \
             from part, orders, lineitem \
             where p_partkey = l_partkey and o_orderkey = l_orderkey \
               and o_orderdate < '{date}' \
             group by p_type"
        ));
    }
    sql
}

/// §6.3 (TPC-H Q11-like): nations whose discount total exceeds a fraction
/// of the global total. The main block and the subquery share the
/// customer ⋈ orders ⋈ lineitem aggregate.
fn nested_query(k: &mut Knobs) -> String {
    let date = k.date(1998, 6);
    let divisor = 25 + k.rng.range_i64(-3, 4);
    format!(
        "select c_nationkey, n_name, sum(l_discount) as totaldisc \
         from customer, orders, lineitem, nation \
         where c_custkey = o_custkey and o_orderkey = l_orderkey \
           and c_nationkey = n_nationkey and o_orderdate < '{date}' \
         group by c_nationkey, n_name \
         having sum(l_discount) > (select sum(l_discount) / {divisor} \
           from customer, orders, lineitem \
           where c_custkey = o_custkey and o_orderkey = l_orderkey \
             and o_orderdate < '{date}') \
         order by totaldisc desc"
    )
}

/// §6.5 scale-up batch: `n` queries over customer ⋈ orders ⋈ lineitem with
/// varying predicates, groupings and an optional `nation` join.
fn scaleup_batch(k: &mut Knobs, n: usize) -> String {
    let mut stmts = Vec::with_capacity(n);
    for i in 0..n {
        let (year, month) = [(1995, 1), (1995, 7), (1996, 1), (1996, 7), (1997, 1)][i % 5];
        let date = k.date(year, month);
        let lo = k.lo((i % 5) as i64);
        let hi = k.hi(22 + (i % 5) as i64);
        stmts.push(match i % 3 {
            0 => format!(
                "select c_nationkey, sum(l_extendedprice) as le \
                 from customer, orders, lineitem \
                 where c_custkey = o_custkey and o_orderkey = l_orderkey \
                   and o_orderdate < '{date}' and c_nationkey > {lo} and c_nationkey < {hi} \
                 group by c_nationkey"
            ),
            1 => format!(
                "select c_nationkey, c_mktsegment, sum(l_quantity) as lq \
                 from customer, orders, lineitem \
                 where c_custkey = o_custkey and o_orderkey = l_orderkey \
                   and o_orderdate < '{date}' and c_nationkey > {lo} and c_nationkey < {hi} \
                 group by c_nationkey, c_mktsegment"
            ),
            _ => format!(
                "select n_regionkey, sum(l_extendedprice) as le \
                 from customer, orders, lineitem, nation \
                 where c_custkey = o_custkey and o_orderkey = l_orderkey \
                   and c_nationkey = n_nationkey \
                   and o_orderdate < '{date}' and c_nationkey > {lo} and c_nationkey < {hi} \
                 group by n_regionkey"
            ),
        });
    }
    stmts.join(";\n")
}

/// Table 4: two queries joining all eight TPC-H tables, aggregating by
/// region, with different local predicates.
fn complex_join_batch(k: &mut Knobs) -> String {
    let mut q = |year: i32, month: u32, lo: i64, hi: i64, size: i64| {
        let date = k.date(year, month);
        let (lo, hi) = (k.lo(lo), k.hi(hi));
        let size = size + k.rng.range_i64(-2, 3);
        format!(
            "select r_name, sum(l_extendedprice) as revenue, sum(ps_supplycost) as cost \
             from region, nation, customer, orders, lineitem, part, partsupp, supplier \
             where r_regionkey = n_regionkey and n_nationkey = c_nationkey \
               and c_custkey = o_custkey and o_orderkey = l_orderkey \
               and l_partkey = p_partkey and l_suppkey = s_suppkey \
               and ps_partkey = p_partkey and ps_suppkey = s_suppkey \
               and o_orderdate < '{date}' \
               and c_nationkey > {lo} and c_nationkey < {hi} \
               and p_size < {size} \
             group by r_name"
        )
    };
    let first = q(1996, 6, 0, 20, 30);
    let second = q(1996, 11, 2, 24, 40);
    format!("{first};\n{second}")
}

/// §6 overhead paragraph: five statements over disjoint table sets.
fn disjoint_batch(k: &mut Knobs) -> String {
    let bal = k.rng.range_i64(-100, 101);
    let odate = k.date(1995, 11);
    let ldate = k.date(1995, 11);
    let size = 20 + k.rng.range_i64(-2, 3);
    format!(
        "select c_nationkey, count(*) as n from customer where c_acctbal > {bal} group by c_nationkey;\n\
         select o_orderpriority, count(*) as n from orders where o_orderdate < '{odate}' group by o_orderpriority;\n\
         select l_returnflag, sum(l_quantity) as q from lineitem where l_shipdate < '{ldate}' group by l_returnflag;\n\
         select p_brand, count(*) as n from part where p_size < {size} group by p_brand;\n\
         select s_nationkey, sum(s_acctbal) as bal from supplier group by s_nationkey"
    )
}

/// A sub-millisecond single-table group-by: fixed per-request cost shows.
fn customer_agg(k: &mut Knobs) -> String {
    let hi = k.hi(24);
    format!(
        "select c_mktsegment, count(*) as n, sum(c_acctbal) as bal \
         from customer where c_nationkey < {hi} group by c_mktsegment"
    )
}

/// A filtered scan and group-by over the largest table.
fn lineitem_agg(k: &mut Knobs) -> String {
    let date = k.date(1997, 6);
    format!(
        "select l_returnflag, l_linestatus, sum(l_quantity) as qty, sum(l_extendedprice) as price \
         from lineitem where l_shipdate < '{date}' group by l_returnflag, l_linestatus"
    )
}

/// One three-way join: the executor's join path with nothing to share.
fn join3(k: &mut Knobs) -> String {
    let date = k.date(1996, 6);
    let hi = k.hi(24);
    format!(
        "select c_mktsegment, sum(l_extendedprice) as le \
         from customer, orders, lineitem \
         where c_custkey = o_custkey and o_orderkey = l_orderkey \
           and o_orderdate < '{date}' and c_nationkey < {hi} \
         group by c_mktsegment"
    )
}

fn request_of(class: &'static str, k: &mut Knobs) -> Request {
    let sql = match class {
        "table1" => example1_batch(k, false),
        "table2" => example1_batch(k, true),
        "nested" => nested_query(k),
        "scaleup4" => scaleup_batch(k, 4),
        "scaleup6" => scaleup_batch(k, 6),
        "scaleup8" => scaleup_batch(k, 8),
        "scaleup10" => scaleup_batch(k, 10),
        "table4" => complex_join_batch(k),
        "disjoint5" => disjoint_batch(k),
        "customer-agg" => customer_agg(k),
        "lineitem-agg" => lineitem_agg(k),
        "join3" => join3(k),
        other => unreachable!("unknown request class {other}"),
    };
    Request { class, sql }
}

/// The PRNG stream of one workload: the seed mixed with the workload name,
/// so workloads do not share constants.
fn stream(seed: u64, workload: &str) -> TestRng {
    let tag = check::fnv(check::FNV_OFFSET, workload.as_bytes());
    TestRng::new(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ tag)
}

/// Draw the mix's requests and put them in a seeded order.
fn draw(seed: u64, workload: &str, mix: &[(&'static str, usize)]) -> Vec<Request> {
    let mut rng = stream(seed, workload);
    let mut out = Vec::new();
    for &(class, count) in mix {
        for _ in 0..count {
            out.push(request_of(class, &mut Knobs { rng: &mut rng }));
        }
    }
    for i in (1..out.len()).rev() {
        out.swap(i, rng.range_usize(0, i + 1));
    }
    out
}

/// One round of the named SQL workload.
pub fn sql_round(workload: &str, seed: u64) -> Vec<Request> {
    match workload {
        "share-batch" => draw(seed, workload, &SHARE_BATCH_MIX),
        "opt-heavy" => draw(seed, workload, &OPT_HEAVY_MIX),
        "no-share" => draw(seed, workload, &NO_SHARE_MIX),
        "serve-mix" => draw(seed, workload, &SERVE_MIX),
        other => unreachable!("{other} is not a SQL workload"),
    }
}

/// True for classes drawn from `no-share`: cheap requests with nothing to
/// share, used where a measurement needs light requests only.
pub fn is_light(class: &str) -> bool {
    NO_SHARE_MIX.iter().any(|(c, _)| *c == class)
}

/// One round of `view-maint`: inserts of new `customer` rows with a read
/// of one view after every [`MAINT_READ_EVERY`]th. Inserted keys are
/// drawn from the keys already present (`existing_customers` of them), so
/// each delta joins real orders; a fresh key would join nothing and the
/// maintenance batch would stop at its first probe.
pub fn maint_round(seed: u64, existing_customers: i64) -> Vec<MaintOp> {
    let mut rng = stream(seed, "view-maint");
    let mut filler = SplitMix64::derive(seed, "view-maint");
    let pool = CommentPool::new(seed, 64);
    let mut ops = Vec::new();
    for i in 1..=MAINT_INSERTS {
        let rows = (0..MAINT_ROWS_PER_INSERT)
            .map(|_| {
                let key = rng.range_i64(1, existing_customers + 1);
                let nation = rng.range_i64(0, 25);
                cse_tpch::customer_row(key, nation, &mut filler, &pool)
            })
            .collect();
        ops.push(MaintOp::Insert(rows));
        if i % MAINT_READ_EVERY == 0 {
            let lo = rng.range_i64(0, 6);
            let sql = match (i / MAINT_READ_EVERY) % 3 {
                0 => format!(
                    "select c_nationkey, c_mktsegment, le, lq from mv_nation_segment \
                     where c_nationkey > {lo}"
                ),
                1 => format!("select c_nationkey, le, lq from mv_nation where c_nationkey > {lo}"),
                _ => "select n_regionkey, le, lq from mv_region".to_string(),
            };
            ops.push(MaintOp::Read(Request {
                class: "view-read",
                sql,
            }));
        }
    }
    ops
}

#[cfg(test)]
mod tests {
    use super::*;
    use similar_subexpr::Session;

    const SQL_WORKLOADS: [&str; 4] = ["share-batch", "opt-heavy", "no-share", "serve-mix"];

    #[test]
    fn same_seed_gives_the_same_requests() {
        for workload in SQL_WORKLOADS {
            assert_eq!(sql_round(workload, 7), sql_round(workload, 7));
        }
        assert_eq!(maint_round(7, 1500), maint_round(7, 1500));
    }

    #[test]
    fn another_seed_gives_other_requests_of_the_same_classes() {
        for workload in SQL_WORKLOADS {
            let (a, b) = (sql_round(workload, 7), sql_round(workload, 8));
            assert_ne!(a, b);
            let classes = |reqs: &[Request]| {
                let mut c: Vec<&str> = reqs.iter().map(|r| r.class).collect();
                c.sort_unstable();
                c
            };
            assert_eq!(classes(&a), classes(&b));
        }
        assert_ne!(maint_round(7, 1500), maint_round(8, 1500));
    }

    #[test]
    fn requests_of_a_round_are_distinct_strings() {
        // customer-agg has one knob with three values, so it is left out.
        for workload in ["share-batch", "opt-heavy"] {
            let reqs = sql_round(workload, 42);
            let mut sqls: Vec<&str> = reqs.iter().map(|r| r.sql.as_str()).collect();
            sqls.sort_unstable();
            sqls.dedup();
            assert_eq!(sqls.len(), reqs.len(), "{workload}");
        }
    }

    #[test]
    fn serve_mix_is_a_quarter_sharing_requests() {
        let reqs = sql_round("serve-mix", 42);
        let light = reqs.iter().filter(|r| is_light(r.class)).count();
        assert_eq!(light * 4, reqs.len() * 3);
    }

    #[test]
    fn maint_round_reads_after_every_tenth_insert() {
        let ops = maint_round(42, 1500);
        let reads = ops
            .iter()
            .filter(|op| matches!(op, MaintOp::Read(_)))
            .count();
        assert_eq!(reads, MAINT_INSERTS / MAINT_READ_EVERY);
        assert_eq!(ops.len(), MAINT_INSERTS + reads);
        assert!(matches!(ops[MAINT_READ_EVERY], MaintOp::Read(_)));
    }

    /// Sharing requests must give the optimizer something to share and
    /// bypass requests nothing, on seeds the mixes were not tuned on too.
    #[test]
    fn sharing_requests_yield_candidates_and_bypass_requests_none() {
        let session = Session::new(cse_tpch::generate_catalog(&cse_tpch::TpchConfig::new(
            crate::workloads::SF,
        )));
        for seed in [42, 1, 2] {
            for workload in ["share-batch", "opt-heavy", "no-share"] {
                for r in sql_round(workload, seed) {
                    let report = session.plan(&r.sql).expect("request plans").report;
                    if workload == "no-share" {
                        assert_eq!(report.candidates.len(), 0, "{} seed {seed}", r.class);
                        assert_eq!(report.spools_used, 0, "{} seed {seed}", r.class);
                    } else {
                        assert!(!report.candidates.is_empty(), "{} seed {seed}", r.class);
                    }
                }
            }
        }
    }
}
