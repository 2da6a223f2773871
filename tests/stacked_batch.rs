//! §6.2 end-to-end: adding Q4 (part ⋈ orders ⋈ lineitem) to the Example 1
//! batch changes the optimal covering-subexpression choice and enables
//! stacked candidates (a narrower CSE consumed inside a wider CSE's
//! definition).

use cse_bench::workloads;
use similar_subexpr::prelude::*;

fn catalog() -> Catalog {
    generate_catalog(&TpchConfig::new(0.002))
}

fn run(catalog: &Catalog, cfg: &CseConfig) -> (Optimized, ExecOutput) {
    let o = optimize_sql(catalog, &workloads::table2_batch(), cfg).expect("optimize");
    let engine = Engine::new(catalog, &o.ctx);
    let out = engine.execute(&o.plan).expect("execute");
    (o, out)
}

#[test]
fn four_query_batch_results_match_baseline() {
    let catalog = catalog();
    let (_, base) = run(&catalog, &CseConfig::no_cse());
    let (opt, shared) = run(&catalog, &CseConfig::default());
    assert_eq!(base.results.len(), 4);
    for (b, s) in base.results.iter().zip(shared.results.iter()) {
        assert!(b.approx_eq(s, 1e-9), "results diverge");
    }
    assert!(!opt.plan.spools.is_empty());
}

#[test]
fn q4_changes_the_candidate_set() {
    // Paper: the additional query results in a different overall choice of
    // covering subexpressions (2 candidates with heuristics rather than 1).
    let catalog = catalog();
    let t1 = optimize_sql(&catalog, &workloads::table1_batch(), &CseConfig::default()).unwrap();
    let t2 = optimize_sql(&catalog, &workloads::table2_batch(), &CseConfig::default()).unwrap();
    assert!(
        t2.report.candidates.len() > t1.report.candidates.len(),
        "Q4 must add a sharing opportunity: {} vs {}",
        t2.report.candidates.len(),
        t1.report.candidates.len()
    );
    // The orders ⋈ lineitem pre-aggregate family must be among them.
    assert!(
        t2.report
            .candidates
            .iter()
            .any(|c| c.tables == ["lineitem", "orders"]),
        "expected an orders⋈lineitem candidate: {:?}",
        t2.report.candidates
    );
}

#[test]
fn stacked_candidate_has_def_internal_consumer() {
    // The narrower {orders,lineitem} candidate should have picked up a
    // consumer inside the wider {customer,orders,lineitem} candidate's
    // definition: more consumers than the four queries alone provide... or
    // at minimum, as many (the stacked extension is cost-based).
    let catalog = catalog();
    let t2 = optimize_sql(&catalog, &workloads::table2_batch(), &CseConfig::default()).unwrap();
    let ol = t2
        .report
        .candidates
        .iter()
        .find(|c| c.tables == ["lineitem", "orders"])
        .expect("orders⋈lineitem candidate");
    assert!(
        ol.consumers >= 4,
        "pre-aggregate candidate must cover Q1..Q4's partials (+ stacked): {ol:?}"
    );
}

#[test]
fn batch_cost_improves_about_2x() {
    let catalog = catalog();
    let (no, _) = run(&catalog, &CseConfig::no_cse());
    let (yes, _) = run(&catalog, &CseConfig::default());
    let ratio = no.plan.cost / yes.plan.cost;
    assert!(ratio > 1.5, "paper Table 2 shows ≈1.9x, got {ratio:.2}x");
}
