//! Adversarial corruption-injection suite: each test breaks exactly one
//! invariant the optimizer pipeline relies on and asserts that exactly the
//! intended rule fires — no more, no less. Together the tests cover all
//! five pass families (provenance, signature, compatibility, covering,
//! costing).

use cse_algebra::{AggExpr, CmpOp, ColRef, LogicalPlan, PlanContext, RelId, RelSet, Scalar};
use cse_memo::{GroupExpr, GroupId, Memo, Op, TableSignature};
use cse_storage::{DataType, Schema};
use cse_verify::{
    rules, verify_candidates, verify_costs, verify_memo, CandidateAudit, CostAudit, MemberAudit,
};
use std::collections::BTreeSet;
use std::sync::Arc;

fn fired(report: &cse_diag::Report) -> Vec<&'static str> {
    report.fired_rules().into_iter().collect()
}

// ---------------------------------------------------------------------------
// Shared plan fixture: r ⋈ s on r.0 = s.0 in one block.
// ---------------------------------------------------------------------------

fn two_rel_ctx() -> (PlanContext, RelId, RelId) {
    let mut ctx = PlanContext::new();
    let b = ctx.new_block();
    let schema = Arc::new(Schema::from_pairs(&[
        ("a", DataType::Int),
        ("b", DataType::Int),
    ]));
    let r = ctx.add_base_rel("r", "r", schema.clone(), b);
    let s = ctx.add_base_rel("s", "s", schema, b);
    (ctx, r, s)
}

fn join_memo() -> (Memo, GroupId, RelId, RelId) {
    let (ctx, r, s) = two_rel_ctx();
    let plan = LogicalPlan::get(r).join(
        LogicalPlan::get(s),
        Scalar::eq(Scalar::col(r, 0), Scalar::col(s, 0)),
    );
    let mut memo = Memo::new(ctx);
    let root = memo.insert_plan(&plan);
    (memo, root, r, s)
}

// ---------------------------------------------------------------------------
// Pass 1: provenance.
// ---------------------------------------------------------------------------

#[test]
fn injected_filter_on_foreign_column_fires_unavailable_column() {
    let (mut memo, root, r, _) = join_memo();
    // A rel from a different statement block that nothing below produces.
    let b2 = memo.ctx.new_block();
    let schema = Arc::new(Schema::from_pairs(&[("x", DataType::Int)]));
    let t = memo.ctx.add_base_rel("t", "t", schema, b2);
    let get_r = memo
        .groups()
        .find(|g| g.props.rels == RelSet::single(r))
        .expect("get(r) group")
        .id;
    // Corrupt: a Filter over Get(r) whose predicate references t.x.
    let pred = memo.intern_pred(&Scalar::eq(Scalar::col(t, 0), Scalar::int(1)));
    memo.add_gexpr(GroupExpr::new(Op::Filter { pred }, vec![get_r]), Some(root));
    let report = verify_memo(&memo, &[root]);
    assert_eq!(fired(&report), vec![rules::PROVENANCE_UNAVAILABLE_COLUMN]);
}

#[test]
fn interior_project_fires_root_only_op() {
    let (ctx, r, _) = two_rel_ctx();
    // Filter *above* Project: a delivery operator in an interior position
    // (its ∅ signature would hide sharable subexpressions below it). The
    // `.filter()` builder elides TRUE predicates, so build the node by
    // hand — a TRUE filter keeps the column-provenance pass quiet, making
    // the placement rule the only one that can fire.
    let plan = LogicalPlan::Filter {
        input: Box::new(LogicalPlan::get(r).project(vec![("a".into(), Scalar::col(r, 0))])),
        pred: Scalar::true_(),
    };
    let mut memo = Memo::new(ctx);
    let root = memo.insert_plan(&plan);
    let report = verify_memo(&memo, &[root]);
    assert_eq!(fired(&report), vec![rules::PROVENANCE_ROOT_ONLY_OP]);
}

#[test]
fn agg_output_column_below_aggregate_fires_leak() {
    let (mut ctx, r, _) = two_rel_ctx();
    let b = ctx.rel(r).block;
    let out = ctx.add_agg_output(&[DataType::Int], b);
    // Filter over Get(r) referencing the aggregate output column: the
    // aggregate's result is not in scope below the aggregate.
    let plan = LogicalPlan::get(r).filter(Scalar::eq(Scalar::col(out, 0), Scalar::int(1)));
    let mut memo = Memo::new(ctx);
    let root = memo.insert_plan(&plan);
    let report = verify_memo(&memo, &[root]);
    assert_eq!(fired(&report), vec![rules::PROVENANCE_AGG_OUT_LEAK]);
}

// ---------------------------------------------------------------------------
// Pass 2: signature audit.
// ---------------------------------------------------------------------------

#[test]
fn overridden_signature_fires_mismatch() {
    let (mut memo, root, _, _) = join_memo();
    memo.override_signature(
        root,
        Some(TableSignature {
            grouped: true,
            tables: vec!["bogus".into()],
        }),
    );
    let report = verify_memo(&memo, &[root]);
    assert_eq!(fired(&report), vec![rules::SIGNATURE_MISMATCH]);
}

#[test]
fn cleared_signature_fires_mismatch() {
    let (mut memo, root, _, _) = join_memo();
    memo.override_signature(root, None);
    let report = verify_memo(&memo, &[root]);
    assert_eq!(fired(&report), vec![rules::SIGNATURE_MISMATCH]);
}

// ---------------------------------------------------------------------------
// Passes 3–5 operate on audit records; fixture in anchor space over
// RelId(0) = R and RelId(1) = S, joined on R.0 = S.0.
// ---------------------------------------------------------------------------

fn cr(r: u32, c: u16) -> ColRef {
    ColRef::new(RelId(r), c)
}

fn join_class() -> BTreeSet<ColRef> {
    [cr(0, 0), cr(1, 0)].into_iter().collect()
}

fn join_conjunct() -> Scalar {
    Scalar::eq(Scalar::Col(cr(0, 0)), Scalar::Col(cr(1, 0))).normalize()
}

fn member(g: u32) -> MemberAudit {
    MemberAudit {
        group: GroupId(g),
        classes: vec![join_class()],
        simplified: Scalar::true_(),
        keys: vec![],
        aggs: vec![],
        required: [cr(0, 1)].into_iter().collect(),
        matched: true,
    }
}

fn healthy() -> CandidateAudit {
    CandidateAudit {
        id: 7,
        rel_set: RelSet::from_iter([RelId(0), RelId(1)]),
        output: vec![cr(0, 1)],
        covering: Scalar::true_(),
        join_conjuncts: vec![join_conjunct()],
        keys: None,
        aggs: None,
        est_rows: 100.0,
        est_width: 8.0,
        cw: 10.0,
        cr: 5.0,
        ce_lower: 50.0,
        members: vec![member(10), member(11)],
    }
}

#[test]
fn healthy_fixture_is_clean() {
    let report = verify_candidates(&[healthy()]);
    assert!(report.is_clean(), "{}", report.render());
}

// ---------------------------------------------------------------------------
// Pass 3: compatibility.
// ---------------------------------------------------------------------------

#[test]
fn disconnected_intersection_fires_compat_disconnected() {
    let mut a = healthy();
    // Members' classes share no cross-rel equality: R.0~S.0 vs R.0~S.1
    // intersect to nothing connecting R and S.
    a.members[1].classes = vec![[cr(0, 0), cr(1, 1)].into_iter().collect()];
    // With no claimed join conjuncts the compositional fast path agrees
    // ("unknown") and there is nothing to overclaim.
    a.join_conjuncts = vec![];
    let report = verify_candidates(&[a]);
    assert_eq!(fired(&report), vec![rules::COMPAT_DISCONNECTED]);
}

#[test]
fn dropped_join_evidence_fires_fastpath_divergence() {
    let mut a = healthy();
    // Members genuinely compatible, but the recorded join conjuncts were
    // lost: the compositional derivation (Example 3) can no longer prove
    // connectivity while the direct method still can.
    a.join_conjuncts = vec![];
    let report = verify_candidates(&[a]);
    assert_eq!(fired(&report), vec![rules::COMPAT_FASTPATH_DIVERGENCE]);
}

#[test]
fn extra_join_conjunct_fires_overclaimed_join() {
    let mut a = healthy();
    // R.1 = S.1 was never agreed on by the members: a spool applying it
    // would drop rows some consumer needs.
    a.join_conjuncts
        .push(Scalar::eq(Scalar::Col(cr(0, 1)), Scalar::Col(cr(1, 1))).normalize());
    let report = verify_candidates(&[a]);
    assert_eq!(fired(&report), vec![rules::COMPAT_OVERCLAIMED_JOIN]);
}

// ---------------------------------------------------------------------------
// Pass 4: covering.
// ---------------------------------------------------------------------------

#[test]
fn weak_covering_predicate_fires_pred_not_implied() {
    let mut a = healthy();
    let lt = |v: i64| Scalar::cmp(CmpOp::Lt, Scalar::Col(cr(0, 1)), Scalar::int(v)).normalize();
    a.covering = lt(5);
    // Member 0 selects r.b < 10 — rows with 5 ≤ r.b < 10 are missing from
    // the spool. Member 1 (r.b < 3) is properly covered.
    a.members[0].simplified = lt(10);
    a.members[1].simplified = lt(3);
    let report = verify_candidates(&[a]);
    assert_eq!(fired(&report), vec![rules::COVERING_PRED_NOT_IMPLIED]);
}

#[test]
fn member_key_outside_union_fires_keys_not_subset() {
    let mut a = healthy();
    a.keys = Some(vec![cr(0, 0)]);
    a.aggs = Some(vec![AggExpr::count_star()]);
    for m in &mut a.members {
        m.keys = vec![cr(0, 0)];
        m.aggs = vec![AggExpr::count_star()];
    }
    // Member 1 additionally groups by r.b, which the union keys lost.
    a.members[1].keys.push(cr(0, 1));
    let report = verify_candidates(&[a]);
    assert_eq!(fired(&report), vec![rules::COVERING_KEYS_NOT_SUBSET]);
}

#[test]
fn member_aggregate_outside_union_fires_aggs_not_subset() {
    let mut a = healthy();
    a.keys = Some(vec![cr(0, 0)]);
    a.aggs = Some(vec![AggExpr::count_star()]);
    for m in &mut a.members {
        m.keys = vec![cr(0, 0)];
        m.aggs = vec![AggExpr::count_star()];
    }
    // Member 0 needs SUM(s.b), which the union aggregates dropped.
    a.members[0]
        .aggs
        .push(AggExpr::sum(Scalar::Col(cr(1, 1))).normalize());
    let report = verify_candidates(&[a]);
    assert_eq!(fired(&report), vec![rules::COVERING_AGGS_NOT_SUBSET]);
}

#[test]
fn missing_required_column_fires_missing_output() {
    let mut a = healthy();
    // Member 0's ancestors also need s.b, which the work table dropped.
    a.members[0].required.insert(cr(1, 1));
    let report = verify_candidates(&[a]);
    assert_eq!(fired(&report), vec![rules::COVERING_MISSING_OUTPUT]);
}

#[test]
fn missing_compensation_column_fires_missing_output() {
    let mut a = healthy();
    // Member 0 needs a compensation filter r.a < 10 (covering is TRUE, so
    // the spool does not guarantee it), but the work table only carries
    // r.b — the filter cannot be applied on top of the spool.
    a.members[0].simplified =
        Scalar::cmp(CmpOp::Lt, Scalar::Col(cr(0, 0)), Scalar::int(10)).normalize();
    let report = verify_candidates(&[a]);
    assert_eq!(fired(&report), vec![rules::COVERING_MISSING_OUTPUT]);
}

#[test]
fn unmatched_member_skips_projection_checks() {
    let mut a = healthy();
    // Same corruptions as the two tests above, but the member was never
    // matched by view rewriting — the pipeline drops it, so no rule fires.
    a.members[0].required.insert(cr(1, 1));
    a.members[0].simplified =
        Scalar::cmp(CmpOp::Lt, Scalar::Col(cr(0, 0)), Scalar::int(10)).normalize();
    a.members[0].matched = false;
    let report = verify_candidates(&[a]);
    assert!(report.is_clean(), "{}", report.render());
}

// ---------------------------------------------------------------------------
// Pass 5: costing.
// ---------------------------------------------------------------------------

#[test]
fn nan_bound_fires_nonfinite() {
    let audit = CostAudit {
        costs: vec![(f64::NAN, 10.0)],
        baseline_cost: 100.0,
        final_cost: 90.0,
    };
    let report = verify_costs(&audit);
    assert_eq!(fired(&report), vec![rules::COSTING_NONFINITE]);
}

#[test]
fn negative_candidate_cost_fires_negative() {
    let mut a = healthy();
    a.ce_lower = -3.0;
    let report = verify_candidates(&[a]);
    assert_eq!(fired(&report), vec![rules::COSTING_NEGATIVE]);
}

#[test]
fn bound_above_winner_fires_bound_exceeds_winner() {
    let audit = CostAudit {
        costs: vec![(50.0, 10.0)],
        baseline_cost: 100.0,
        final_cost: 100.0,
    };
    let report = verify_costs(&audit);
    assert_eq!(fired(&report), vec![rules::COSTING_BOUND_EXCEEDS_WINNER]);
}

#[test]
fn final_cost_above_baseline_fires_bound_exceeds_winner() {
    let audit = CostAudit {
        costs: vec![],
        baseline_cost: 100.0,
        final_cost: 120.0,
    };
    let report = verify_costs(&audit);
    assert_eq!(fired(&report), vec![rules::COSTING_BOUND_EXCEEDS_WINNER]);
}
