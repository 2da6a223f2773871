//! §5.3 end-to-end: two candidates whose consumer sets live in *disjoint*
//! statement subtrees are independent (Definition 5.2/5.3) — the
//! enumeration decides each without cross-products of subsets — while
//! same-statement sharing keeps the LCA inside the statement.

use similar_subexpr::prelude::*;

/// Statement 1 shares customer⋈orders⋈lineitem between its main block and
/// its HAVING subquery; statement 2 shares part⋈lineitem the same way.
/// The two candidates' LCAs are inside different statements: independent.
const BATCH: &str = "
select c_nationkey, sum(l_discount) as totaldisc
from customer, orders, lineitem
where c_custkey = o_custkey and o_orderkey = l_orderkey
group by c_nationkey
having sum(l_discount) > (select sum(l_discount) / 25
  from customer, orders, lineitem
  where c_custkey = o_custkey and o_orderkey = l_orderkey);

select p_brand, sum(l_extendedprice) as revenue
from part, lineitem
where p_partkey = l_partkey and p_size < 26
group by p_brand
having sum(l_extendedprice) > (select sum(l_extendedprice) / 50
  from part, lineitem
  where p_partkey = l_partkey and p_size < 26);
";

#[test]
fn independent_candidates_both_chosen() {
    let catalog = generate_catalog(&TpchConfig::new(0.002));
    let o = optimize_sql(&catalog, BATCH, &CseConfig::default()).unwrap();
    assert!(
        o.report.candidates.len() >= 2,
        "both statements must contribute a candidate: {:?}",
        o.report.candidates
    );
    // Both families of sharing are profitable; both spools in the plan.
    assert!(
        o.plan.spools.len() >= 2,
        "expected two independent spools, got {} (report {:?})",
        o.plan.spools.len(),
        o.report
    );
    // Independence keeps the enumeration small: per-cluster decisions, not
    // a 2^N walk (2 candidates competing would need up to 3; independent
    // clusters decide with ~2 each including the no-cluster comparison).
    assert!(
        o.report.cse_optimizations <= 6,
        "independent clusters must not multiply optimizations: {}",
        o.report.cse_optimizations
    );
}

#[test]
fn independent_results_are_correct() {
    let catalog = generate_catalog(&TpchConfig::new(0.002));
    let base = optimize_sql(&catalog, BATCH, &CseConfig::no_cse()).unwrap();
    let yes = optimize_sql(&catalog, BATCH, &CseConfig::default()).unwrap();
    let out_base = Engine::new(&catalog, &base.ctx)
        .execute(&base.plan)
        .unwrap();
    let out_yes = Engine::new(&catalog, &yes.ctx).execute(&yes.plan).unwrap();
    assert_eq!(out_base.results.len(), 2);
    for (a, b) in out_base.results.iter().zip(out_yes.results.iter()) {
        assert!(a.approx_eq(b, 1e-9));
    }
    // Each spool read at least twice (main block + subquery).
    for (&id, &reads) in &out_yes.metrics.spool_reads {
        assert!(reads >= 2, "spool {id} read only {reads} time(s)");
    }
}

#[test]
fn statement_internal_sharing_has_statement_level_lca() {
    // With a single statement, the candidate's consumers are both inside
    // it; enabling the candidate must not affect the other statement's
    // groups at all (history reuse) — observable as a small optimization
    // count when run standalone.
    let catalog = generate_catalog(&TpchConfig::new(0.002));
    let single = "select p_brand, sum(l_extendedprice) as revenue \
                  from part, lineitem \
                  where p_partkey = l_partkey and p_size < 26 \
                  group by p_brand \
                  having sum(l_extendedprice) > (select sum(l_extendedprice) / 50 \
                    from part, lineitem where p_partkey = l_partkey and p_size < 26)";
    let o = optimize_sql(&catalog, single, &CseConfig::default()).unwrap();
    assert_eq!(o.report.candidates.len(), 1, "{:?}", o.report.candidates);
    assert_eq!(o.plan.spools.len(), 1);
}

/// A consumer is a query block or a candidate definition (§5.5), once
/// each: one memo group per logical join, not one per join order that
/// reaches it.
#[test]
fn no_candidate_has_more_consumers_than_blocks_and_definitions() {
    use cse_bench::workloads;
    use similar_subexpr::algebra::RelKind;
    let catalog = generate_catalog(&TpchConfig::new(0.002));
    let mut batches = vec![
        workloads::table1_batch(),
        workloads::table2_batch(),
        workloads::NESTED.to_string(),
        workloads::complex_join_batch(),
        BATCH.to_string(),
    ];
    batches.extend((2..=10).map(workloads::scaleup_batch));
    for sql in &batches {
        for cfg in [CseConfig::default(), CseConfig::no_heuristics()] {
            let o = optimize_sql(&catalog, sql, &cfg).unwrap();
            let blocks: std::collections::BTreeSet<_> = o
                .ctx
                .rels()
                .filter(|(_, r)| r.kind == RelKind::Base)
                .map(|(_, r)| r.block)
                .collect();
            let most = blocks.len() + o.report.candidates.len();
            for c in &o.report.candidates {
                assert!(
                    c.consumers <= most,
                    "{}: {} consumers, {} blocks + {} definitions\n{sql}",
                    c.id,
                    c.consumers,
                    blocks.len(),
                    o.report.candidates.len()
                );
            }
        }
    }
}
