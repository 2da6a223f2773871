//! Analyzer facts → constructor feedback.
//!
//! `cse_lint` proves conjuncts redundant at lint time and hands them to
//! the optimizer as `ProvenFacts` on the memo. These tests check the
//! whole feedback path at the memo level:
//!
//! - [`prune_proven_redundant`] drops only locally re-verified conjuncts
//!   (a stale fact is a no-op);
//! - [`simplify_covering`] over pruned branches (what `construct` does)
//!   yields a strictly smaller — but equivalent — covering predicate than
//!   over the branches as written;
//! - a full `construct()` run over a two-consumer sharable set produces
//!   a strictly smaller covering predicate when the facts are present.

use cse_algebra::{implies, CmpOp, LogicalPlan, PlanContext, RelId, Scalar};
use cse_core::{
    compute_required, construct, partition_compatible, prepare_consumers, prune_proven_redundant,
    simplify_covering, CseManager,
};
use cse_memo::Memo;
use cse_storage::{DataType, Schema};
use std::collections::BTreeSet;
use std::sync::Arc;

fn lt(col: Scalar, n: i64) -> Scalar {
    Scalar::cmp(CmpOp::Lt, col, Scalar::int(n))
}

fn single_rel() -> (PlanContext, RelId) {
    let mut ctx = PlanContext::new();
    let b = ctx.new_block();
    let schema = Arc::new(Schema::from_pairs(&[
        ("k", DataType::Int),
        ("v", DataType::Int),
    ]));
    let r = ctx.add_base_rel("t", "t", schema, b);
    (ctx, r)
}

#[test]
fn prune_drops_only_reverified_conjuncts() {
    let (_ctx, r) = single_rel();
    let v = || Scalar::col(r, 1);
    let k = || Scalar::col(r, 0);

    let mut facts = BTreeSet::new();
    facts.insert(lt(v(), 100).normalize());

    // v < 10 AND v < 100, fact: v < 100 is redundant. The surviving
    // v < 10 implies it, so the drop is licensed.
    let pred = Scalar::and(vec![lt(v(), 10), lt(v(), 100)]).normalize();
    let pruned = prune_proven_redundant(&pred, &facts);
    let kept = pruned.conjuncts();
    assert_eq!(kept.len(), 1, "expected one conjunct, got {pruned}");
    assert!(kept.contains(&lt(v(), 10).normalize()));
    // Row-for-row equivalent.
    assert!(implies(&pred, &pruned) && implies(&pruned, &pred));

    // A fact that fails local re-verification is a no-op: k > 0 does NOT
    // imply v < 100, so the flagged conjunct must survive.
    let pred2 = Scalar::and(vec![
        Scalar::cmp(CmpOp::Gt, k(), Scalar::int(0)),
        lt(v(), 100),
    ])
    .normalize();
    assert_eq!(prune_proven_redundant(&pred2, &facts), pred2);
}

#[test]
fn covering_is_strictly_smaller_with_facts() {
    let (_ctx, r) = single_rel();
    let v = || Scalar::col(r, 1);

    let b1 = Scalar::and(vec![lt(v(), 10), lt(v(), 100)]).normalize();
    let b2 = Scalar::and(vec![lt(v(), 20), lt(v(), 100)]).normalize();
    let facts: BTreeSet<Scalar> = [lt(v(), 100).normalize()].into_iter().collect();

    let plain = simplify_covering(&[b1.clone(), b2.clone()]);
    let with = simplify_covering(&[b1, b2].map(|b| prune_proven_redundant(&b, &facts)));
    assert!(
        with.conjuncts().len() < plain.conjuncts().len(),
        "facts should shrink the covering: {with} vs {plain}"
    );
    // Still the same covering set: each implies the other.
    assert!(implies(&plain, &with) && implies(&with, &plain));
}

/// Two SPJ consumers over (ta ⋈ tb), both carrying the redundant
/// conjunct `v < 100` next to their real range. Returns the covering
/// predicate `construct()` chose.
fn construct_covering(with_facts: bool) -> Scalar {
    let mut ctx = PlanContext::new();
    let schema = Arc::new(Schema::from_pairs(&[
        ("k", DataType::Int),
        ("v", DataType::Int),
    ]));
    let mut a_rels: Vec<RelId> = Vec::new();
    let mk = |ctx: &mut PlanContext, hi: i64, a_rels: &mut Vec<RelId>| {
        let b = ctx.new_block();
        let a = ctx.add_base_rel("ta", "ta", schema.clone(), b);
        let t = ctx.add_base_rel("tb", "tb", schema.clone(), b);
        a_rels.push(a);
        LogicalPlan::get(a)
            .filter(Scalar::and(vec![
                lt(Scalar::col(a, 1), hi),
                lt(Scalar::col(a, 1), 100),
            ]))
            .join(
                LogicalPlan::get(t),
                Scalar::eq(Scalar::col(a, 0), Scalar::col(t, 0)),
            )
            .project(vec![
                ("k".into(), Scalar::col(a, 0)),
                ("v".into(), Scalar::col(t, 1)),
            ])
    };
    let q1 = mk(&mut ctx, 10, &mut a_rels);
    let q2 = mk(&mut ctx, 20, &mut a_rels);
    let mut memo = Memo::new(ctx);
    let root = memo.insert_plan(&LogicalPlan::Batch {
        children: vec![q1, q2],
    });
    memo.set_root(root);
    if with_facts {
        // qlint emits the fact per statement, in that statement's rel
        // space; insert both spellings the way `optimize_sql` does.
        for a in &a_rels {
            memo.facts
                .redundant_conjuncts
                .insert(lt(Scalar::col(*a, 1), 100).normalize());
        }
    }
    let mgr = CseManager::build(&memo);
    let sets = mgr.sharable_sets();
    assert_eq!(sets.len(), 1);
    let consumers = sets.into_iter().next().expect("one set").1;
    let required = compute_required(&memo, &[memo.root()]);
    let prepared = prepare_consumers(&memo, &consumers);
    let groups = partition_compatible(&memo.ctx, prepared);
    assert_eq!(groups.len(), 1);
    construct(&mut memo, groups[0].members.clone(), &required)
        .expect("constructible")
        .shape
        .covering
}

#[test]
fn construct_covering_shrinks_under_facts() {
    let plain = construct_covering(false);
    let with = construct_covering(true);
    assert!(
        with.conjuncts().len() < plain.conjuncts().len(),
        "covering should be strictly smaller with facts: {with} vs {plain}"
    );
    // The shrunken covering is the range hull v < 20 alone — the pruned
    // v < 100 was implied by it, so the spool contents are identical.
    assert!(implies(&with, &plain) && implies(&plain, &with));
}
