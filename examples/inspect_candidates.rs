//! Candidate introspection: print the covering-subexpression candidates
//! the optimizer generates for the paper's Example 1 batch, with and
//! without heuristic pruning (compare against Figure 6 of the paper).
//!
//! Run with: `cargo run --release --example inspect_candidates`

use similar_subexpr::prelude::*;

const BATCH: &str = "select c_nationkey, c_mktsegment, sum(l_extendedprice) as le, sum(l_quantity) as lq from customer, orders, lineitem where c_custkey = o_custkey and o_orderkey = l_orderkey and o_orderdate < '1996-07-01' and c_nationkey > 0 and c_nationkey < 20 group by c_nationkey, c_mktsegment;
select c_nationkey, sum(l_extendedprice) as le, sum(l_quantity) as lq from customer, orders, lineitem where c_custkey = o_custkey and o_orderkey = l_orderkey and o_orderdate < '1996-07-01' and c_nationkey > 5 and c_nationkey < 25 group by c_nationkey;
select n_regionkey, sum(l_extendedprice) as le, sum(l_quantity) as lq from customer, orders, lineitem, nation where c_custkey = o_custkey and o_orderkey = l_orderkey and c_nationkey = n_nationkey and o_orderdate < '1996-07-01' and c_nationkey > 2 and c_nationkey < 24 group by n_regionkey;";

fn main() {
    let catalog = generate_catalog(&TpchConfig::new(0.002));
    for (name, cfg) in [
        ("heuristics", CseConfig::default()),
        ("no-heuristics", CseConfig::no_heuristics()),
    ] {
        let o = optimize_sql(&catalog, BATCH, &cfg).unwrap();
        println!(
            "== {name}: signatures={} candidates={} cse_opts={} base={:.1} final={:.1} spools={}",
            o.report.sharable_signatures,
            o.report.candidates.len(),
            o.report.cse_optimizations,
            o.report.baseline_cost,
            o.report.final_cost,
            o.plan.spools.len()
        );
        for c in &o.report.candidates {
            println!(
                "  {} tables={:?} grouped={} consumers={} rows={:.0}",
                c.id.0, c.tables, c.grouped, c.consumers, c.est_rows
            );
        }
    }
}
