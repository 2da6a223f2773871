//! Construction step 2 drops the conjuncts a consumer's other conjuncts
//! imply (§4.2), with no analyzer run first. Each case builds a
//! two-consumer batch over (ta ⋈ tb), constructs the covering
//! subexpression of its one compatible group and reads its shape.

use cse_algebra::{implies, CmpOp, LogicalPlan, PlanContext, RelId, Scalar};
use cse_core::{
    compute_required, construct, partition_compatible, prepare_consumers, CseManager, CseShape,
};
use cse_memo::Memo;
use cse_storage::{DataType, Schema};
use std::sync::Arc;

fn cmp(op: CmpOp, col: Scalar, n: i64) -> Scalar {
    Scalar::cmp(op, col, Scalar::int(n))
}

fn k(r: RelId) -> Scalar {
    Scalar::col(r, 0)
}

fn v(r: RelId) -> Scalar {
    Scalar::col(r, 1)
}

/// The shape `construct()` gives two consumers whose `ta` filters are
/// `filters[i](ta)`, and the anchor `ta` rel their shape is expressed over.
fn construct_shape(filters: [fn(RelId) -> Vec<Scalar>; 2]) -> (CseShape, RelId) {
    let mut ctx = PlanContext::new();
    let schema = Arc::new(Schema::from_pairs(&[
        ("k", DataType::Int),
        ("v", DataType::Int),
    ]));
    let mut a_rels: Vec<RelId> = Vec::new();
    let queries = filters.map(|filter| {
        let b = ctx.new_block();
        let a = ctx.add_base_rel("ta", "ta", schema.clone(), b);
        let t = ctx.add_base_rel("tb", "tb", schema.clone(), b);
        a_rels.push(a);
        LogicalPlan::get(a)
            .filter(Scalar::and(filter(a)))
            .join(LogicalPlan::get(t), Scalar::eq(k(a), k(t)))
            .project(vec![("k".into(), k(a)), ("v".into(), v(t))])
    });
    let mut memo = Memo::new(ctx);
    let root = memo.insert_plan(&LogicalPlan::Batch {
        children: queries.to_vec(),
    });
    memo.set_root(root);
    let mgr = CseManager::build(&memo);
    let sets = mgr.sharable_sets();
    assert_eq!(sets.len(), 1);
    let consumers = sets.into_iter().next().expect("one set").1;
    let required = compute_required(&memo, &[memo.root()]);
    let groups = partition_compatible(prepare_consumers(&memo, &consumers));
    assert_eq!(groups.len(), 1);
    let cse = construct(&mut memo, groups[0].members.clone(), &required).expect("constructible");
    (cse.shape, a_rels[0])
}

#[test]
fn covering_shrinks_to_the_hull() {
    // Both consumers carry `v < 100` next to a tighter range. Without step-2
    // pruning it is factored out as a common conjunct and survives beside
    // the hull; with it, the covering predicate is the hull `v < 20` alone.
    let (shape, a) = construct_shape([
        |a| vec![cmp(CmpOp::Lt, v(a), 10), cmp(CmpOp::Lt, v(a), 100)],
        |a| vec![cmp(CmpOp::Lt, v(a), 20), cmp(CmpOp::Lt, v(a), 100)],
    ]);
    assert_eq!(shape.covering, cmp(CmpOp::Lt, v(a), 20).normalize());
    assert_eq!(
        shape.simplified,
        [cmp(CmpOp::Lt, v(a), 10), cmp(CmpOp::Lt, v(a), 20)].map(|s| s.normalize())
    );
}

#[test]
fn only_the_member_with_the_redundant_conjunct_changes() {
    // The second member alone bounds k twice. Its branch keeps k > 5, and
    // the covering predicate's OR no longer mentions k > 0.
    let (shape, a) = construct_shape([
        |a| vec![cmp(CmpOp::Lt, v(a), 10)],
        |a| {
            vec![
                cmp(CmpOp::Lt, v(a), 20),
                cmp(CmpOp::Gt, k(a), 5),
                cmp(CmpOp::Gt, k(a), 0),
            ]
        },
    ]);
    let kept = Scalar::and([cmp(CmpOp::Lt, v(a), 20), cmp(CmpOp::Gt, k(a), 5)]).normalize();
    assert_eq!(
        shape.simplified,
        [cmp(CmpOp::Lt, v(a), 10).normalize(), kept.clone()]
    );
    let k_gt_0 = cmp(CmpOp::Gt, k(a), 0).normalize();
    let mut mentions_k_gt_0 = false;
    shape
        .covering
        .visit(&mut |s| mentions_k_gt_0 |= *s == k_gt_0);
    assert!(!mentions_k_gt_0, "{}", shape.covering);
    // It still covers both predicates as written.
    let written = Scalar::or([cmp(CmpOp::Lt, v(a), 10), Scalar::and([kept, k_gt_0])]);
    assert!(implies(&written, &shape.covering), "{}", shape.covering);
}

#[test]
fn one_conjunct_of_each_pair_stays() {
    // `v <= 9` implies `v < 10` on an INT column, and a literal duplicate
    // implies its twin: each member keeps exactly one conjunct of its
    // pair, never none.
    let (shape, a) = construct_shape([
        |a| vec![cmp(CmpOp::Lt, v(a), 10), cmp(CmpOp::Le, v(a), 9)],
        |a| vec![cmp(CmpOp::Lt, v(a), 20), cmp(CmpOp::Lt, v(a), 20)],
    ]);
    assert_eq!(
        shape.simplified,
        [cmp(CmpOp::Le, v(a), 9), cmp(CmpOp::Lt, v(a), 20)].map(|s| s.normalize())
    );
    assert_eq!(shape.covering, cmp(CmpOp::Lt, v(a), 20).normalize());
}
