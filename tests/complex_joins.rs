//! §6.5 / Table 4 end-to-end: two eight-table joins. Exercises candidate
//! explosion (dozens of signature sets), the containment heuristic, and
//! the bounded enumeration for large competing clusters.

use cse_bench::workloads;
use similar_subexpr::prelude::*;

fn catalog() -> Catalog {
    generate_catalog(&TpchConfig::new(0.002))
}

#[test]
fn eight_table_batch_is_correct_and_shares() {
    let catalog = catalog();
    let sql = workloads::complex_join_batch();
    let base = optimize_sql(&catalog, &sql, &CseConfig::no_cse()).unwrap();
    let yes = optimize_sql(&catalog, &sql, &CseConfig::default()).unwrap();
    let engine = Engine::new(&catalog, &base.ctx);
    let out_base = engine.execute(&base.plan).unwrap();
    let engine = Engine::new(&catalog, &yes.ctx);
    let out_yes = engine.execute(&yes.plan).unwrap();
    assert_eq!(out_base.results.len(), 2);
    for (b, s) in out_base.results.iter().zip(out_yes.results.iter()) {
        assert!(b.approx_eq(s, 1e-9), "eight-table results diverge");
    }
    assert!(!yes.plan.spools.is_empty(), "expected sharing");
    assert!(
        yes.plan.cost < 0.7 * base.plan.cost,
        "paper shows ≈1.7-2x cost win: {} vs {}",
        yes.plan.cost,
        base.plan.cost
    );
}

#[test]
fn heuristics_tame_the_candidate_explosion() {
    let catalog = catalog();
    let sql = workloads::complex_join_batch();
    let with_h = optimize_sql(&catalog, &sql, &CseConfig::default()).unwrap();
    let no_h = optimize_sql(&catalog, &sql, &CseConfig::no_heuristics()).unwrap();
    // Paper: 51 candidates without heuristics vs 2 with. Exact counts
    // depend on exploration; the orders of magnitude must match.
    assert!(
        no_h.report.candidates.len() >= 10,
        "expected dozens of unpruned candidates, got {}",
        no_h.report.candidates.len()
    );
    assert!(
        with_h.report.candidates.len() <= 6,
        "heuristics must prune to a handful, got {}",
        with_h.report.candidates.len()
    );
    // Both must land on comparable plans.
    let ratio = with_h.report.final_cost / no_h.report.final_cost;
    assert!(
        (0.8..=1.25).contains(&ratio),
        "plan quality diverged: {ratio}"
    );
}

#[test]
fn optimization_time_stays_bounded() {
    let catalog = catalog();
    let sql = workloads::complex_join_batch();
    let o = optimize_sql(&catalog, &sql, &CseConfig::default()).unwrap();
    assert!(
        o.report.total_time.as_secs() < 30,
        "optimization took {:?}",
        o.report.total_time
    );
}

#[test]
fn stage_timings_account_for_the_optimization_time() {
    // `CseReport::stages` is the request's own latency split: with the
    // verifier off (its passes sit between the stage timers) the stages
    // cover the optimization end to end.
    let catalog = catalog();
    let cfg = CseConfig {
        verify: false,
        ..CseConfig::default()
    };
    let o = optimize_sql(&catalog, &workloads::complex_join_batch(), &cfg).unwrap();
    let staged: std::time::Duration = o.report.stages.iter().map(|(_, took)| *took).sum();
    assert!(
        staged.as_secs_f64() >= 0.9 * o.report.total_time.as_secs_f64(),
        "stages cover {staged:?} of {:?}: {:?}",
        o.report.total_time,
        o.report.stages
    );
    for stage in ["insert+explore", "baseline", "generation", "enumeration"] {
        assert!(o.report.stages.iter().any(|(name, _)| *name == stage));
    }
}
