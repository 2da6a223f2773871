//! Unit-level tests of the generation heuristics (§4.3) against synthetic
//! catalogs where each heuristic's firing condition is controlled.

use cse_algebra::{CmpOp, LogicalPlan, PlanContext, Scalar};
use cse_core::candidates::{
    cost_candidate, create_candidates, h1_worthwhile, h4_prune_contained, shared_cost,
};
use cse_core::{
    compute_required, construct, partition_compatible, prepare_consumers, CostBounds, CseConfig,
    CseManager, PhaseCtx, RequiredCols,
};
use cse_cost::StatsCatalog;
use cse_govern::BudgetClock;
use cse_memo::{explore, ExploreConfig, GroupId, Memo, TableSignature};
use cse_optimizer::IndexInfo;
use cse_storage::{row, Catalog, DataType, Schema, Table, Value};
use std::collections::HashMap;

/// Catalog with two tables of `n` rows each.
fn catalog(n: i64) -> Catalog {
    let mut a = Table::new(
        "ta",
        Schema::from_pairs(&[("k", DataType::Int), ("v", DataType::Int)]),
    );
    let mut b = Table::new(
        "tb",
        Schema::from_pairs(&[("k", DataType::Int), ("w", DataType::Int)]),
    );
    for i in 0..n {
        a.push(row(vec![Value::Int(i), Value::Int(i % 10)]))
            .unwrap();
        b.push(row(vec![Value::Int(i), Value::Int(i % 7)])).unwrap();
    }
    let mut cat = Catalog::new();
    cat.register_table(a).unwrap();
    cat.register_table(b).unwrap();
    cat
}

/// Memo with two similar joins (different filter bounds) + batch root.
fn memo_two_joins(catalog: &Catalog) -> (Memo, Vec<GroupId>) {
    memo_joins(catalog, &[5, 8])
}

/// Memo with one `ta ⋈ tb` join per filter bound in `his` + batch root.
fn memo_joins(catalog: &Catalog, his: &[i64]) -> (Memo, Vec<GroupId>) {
    let mut ctx = PlanContext::new();
    let sa = catalog.table("ta").unwrap().schema().clone();
    let sb = catalog.table("tb").unwrap().schema().clone();
    let mk = |ctx: &mut PlanContext, hi: i64| {
        let blk = ctx.new_block();
        let a = ctx.add_base_rel("ta", "ta", sa.clone(), blk);
        let b = ctx.add_base_rel("tb", "tb", sb.clone(), blk);
        LogicalPlan::get(a)
            .filter(Scalar::cmp(CmpOp::Lt, Scalar::col(a, 1), Scalar::int(hi)))
            .join(
                LogicalPlan::get(b),
                Scalar::eq(Scalar::col(a, 0), Scalar::col(b, 0)),
            )
            .project(vec![
                ("k".into(), Scalar::col(a, 0)),
                ("w".into(), Scalar::col(b, 1)),
            ])
    };
    let children = his.iter().map(|&hi| mk(&mut ctx, hi)).collect();
    let mut memo = Memo::new(ctx);
    let root = memo.insert_plan(&LogicalPlan::Batch { children });
    memo.set_root(root);
    explore(&mut memo, &ExploreConfig::default());
    let mgr = CseManager::build(&memo);
    let sets = mgr.sharable_sets();
    assert_eq!(sets.len(), 1);
    (memo, sets.into_iter().next().unwrap().1)
}

/// Owner of what a [`PhaseCtx`] borrows: default configuration, no
/// indexes, an unlimited clock, and the bounds a test dictates.
struct Phase {
    cfg: CseConfig,
    stats: StatsCatalog,
    indexes: IndexInfo,
    clock: BudgetClock,
    bounds: CostBounds,
    required: RequiredCols,
    manager: CseManager,
    sharable: Vec<(TableSignature, Vec<GroupId>)>,
}

impl Phase {
    fn new(cat: &Catalog, memo: &Memo, bounds: CostBounds) -> Self {
        let manager = CseManager::build(memo);
        Phase {
            cfg: CseConfig::default(),
            stats: StatsCatalog::from_catalog(cat),
            indexes: IndexInfo::default(),
            clock: BudgetClock::unlimited(),
            bounds,
            required: compute_required(memo, &[memo.root()]),
            sharable: manager.sharable_sets(),
            manager,
        }
    }

    fn ctx(&self) -> PhaseCtx<'_> {
        PhaseCtx {
            cfg: &self.cfg,
            stats: &self.stats,
            indexes: &self.indexes,
            clock: &self.clock,
            bounds: &self.bounds,
            required: &self.required,
            manager: &self.manager,
            sharable: &self.sharable,
        }
    }
}

#[test]
fn h1_rejects_cheap_sets_and_accepts_expensive_ones() {
    let bounds = CostBounds::new(HashMap::from([(GroupId(1), 10.0), (GroupId(2), 15.0)]));
    // Query cost 1000, alpha 10%: 25 < 100 -> reject.
    assert!(!h1_worthwhile(
        &bounds,
        &[GroupId(1), GroupId(2)],
        1000.0,
        0.10
    ));
    // Query cost 200: 25 >= 20 -> accept.
    assert!(h1_worthwhile(
        &bounds,
        &[GroupId(1), GroupId(2)],
        200.0,
        0.10
    ));
}

#[test]
fn shared_cost_includes_all_three_components() {
    let cat = catalog(500);
    let (mut memo, consumers) = memo_two_joins(&cat);
    let bounds = CostBounds::new(HashMap::from([
        (consumers[0], 100.0),
        (consumers[1], 150.0),
    ]));
    let phase = Phase::new(&cat, &memo, bounds);
    let prepared = prepare_consumers(&memo, &consumers);
    let sig = memo
        .signature_of(consumers[0])
        .expect("consumer has signature")
        .clone();
    let cse = construct(&mut memo, prepared, &phase.required).unwrap();
    let costed = cost_candidate(&memo, &phase.ctx(), sig, cse);
    // ce_lower = max of member bounds = 150.
    assert_eq!(costed.ce_lower, 150.0);
    assert!(costed.cw > 0.0);
    assert!(costed.cr > 0.0);
    assert!(
        costed.cr < costed.cw,
        "reading must be cheaper than writing"
    );
    let sc = shared_cost(&costed);
    assert!(
        (sc - (costed.ce_lower + costed.cw + 2.0 * costed.cr)).abs() < 1e-9,
        "shared cost formula"
    );
}

#[test]
fn h4_discards_contained_candidate_with_larger_result() {
    let cat = catalog(500);
    let (mut memo, consumers) = memo_two_joins(&cat);
    let phase = Phase::new(&cat, &memo, CostBounds::default());
    let mgr = &phase.manager;
    let sig = memo.signature_of(consumers[0]).unwrap().clone();
    let prepared = prepare_consumers(&memo, &consumers);
    let cse = construct(&mut memo, prepared, &phase.required).unwrap();
    // Two copies of the same candidate: mutually contained, equal size —
    // with β=0.9, size_c > 0.9·size_p holds, so one dies.
    let a = cost_candidate(&memo, &phase.ctx(), sig.clone(), cse.clone());
    let b = cost_candidate(&memo, &phase.ctx(), sig, cse);
    let kept = h4_prune_contained(mgr, vec![a.clone(), b.clone()], 0.90);
    assert_eq!(kept.len(), 1, "one of two identical candidates must die");
    // With β above 1.0 nothing dies (a candidate is never bigger than
    // itself times >1).
    let kept = h4_prune_contained(mgr, vec![a, b], 1.5);
    assert_eq!(kept.len(), 2);
}

#[test]
fn algorithm1_candidate_is_its_member_set_constructed_and_costed() {
    // Algorithm 1 hands out the winning trial of its last merge round; that
    // must be exactly what constructing and costing the merged member set
    // from scratch gives, over two merge rounds.
    let cat = catalog(500);
    let (mut memo, consumers) = memo_joins(&cat, &[3, 5, 8]);
    let bounds = CostBounds::new(consumers.iter().map(|&g| (g, 1e6)).collect());
    let phase = Phase::new(&cat, &memo, bounds);
    let sig = memo.signature_of(consumers[0]).unwrap().clone();
    let prepared = prepare_consumers(&memo, &consumers);
    let groups = partition_compatible(&memo.ctx, prepared);
    assert_eq!(groups.len(), 1, "the three joins are join-compatible");
    let out = create_candidates(&mut memo, &phase.ctx(), &sig, &groups[0]).unwrap();
    assert_eq!(out.len(), 1, "expensive consumers merge into one candidate");
    let got = &out[0];
    assert_eq!(got.cse.members.len(), 3);
    let fresh = construct(&mut memo, got.cse.members.clone(), &phase.required).unwrap();
    let fresh = cost_candidate(&memo, &phase.ctx(), sig, fresh);
    assert_eq!(got.cse.plan, fresh.cse.plan);
    assert_eq!(got.cse.covering, fresh.cse.covering);
    assert_eq!(got.cse.output, fresh.cse.output);
    assert_eq!(got.cse.simplified, fresh.cse.simplified);
    assert_eq!(shared_cost(got), shared_cost(&fresh));
    assert_eq!(got.est_rows, fresh.est_rows);
}

#[test]
fn construct_output_covers_compensation_columns() {
    let cat = catalog(200);
    let (mut memo, consumers) = memo_two_joins(&cat);
    let required = compute_required(&memo, &[memo.root()]);
    let prepared = prepare_consumers(&memo, &consumers);
    let cse = construct(&mut memo, prepared, &required).unwrap();
    // The differing filter column (ta.v, aligned to the anchor's rel) must
    // be materialized so consumers can compensate.
    for simp in &cse.simplified {
        for conj in simp.conjuncts() {
            if !cse_algebra::implies(&cse.covering, &conj) {
                for c in conj.columns() {
                    assert!(
                        cse.output.contains(&c),
                        "compensation column {c} missing from spool output"
                    );
                }
            }
        }
    }
    // Covering is the range hull: v < 8 (the wider of 5 and 8).
    assert!(!cse.covering.is_true());
    let ranges = cse_algebra::column_ranges(&cse.covering);
    let (_, iv) = ranges.iter().next().expect("hull range");
    assert_eq!(iv.hi.as_ref().unwrap().0, Value::Int(8));
}

#[test]
fn trivial_construct_matches_consumer() {
    let cat = catalog(100);
    let (mut memo, consumers) = memo_two_joins(&cat);
    let required = compute_required(&memo, &[memo.root()]);
    let prepared = prepare_consumers(&memo, &consumers);
    let one = vec![prepared[0].clone()];
    let cse = construct(&mut memo, one, &required).unwrap();
    assert_eq!(cse.members.len(), 1);
    // Trivial CSE's covering predicate is the consumer's own filter.
    assert!(cse_algebra::implies(
        &cse.members[0].normal.spj.predicate(),
        &cse.covering
    ));
}
