//! Exploration: transformation rules applied to memo expressions.
//!
//! Three rules suffice for the paper's workloads: join commutativity, join
//! associativity (with predicate redistribution over rel sets, restricted
//! to connected join orders), and eager aggregation (pre-aggregating one
//! join input — the source of the paper's `E4`/`E5`-style pre-aggregation
//! candidates in §6.1).

use crate::memo::Memo;
use crate::op::{GroupExpr, GroupExprId, GroupId, Op};
use cse_algebra::{AggExpr, ColRef, RelSet, Scalar};

/// Exploration limits.
#[derive(Debug, Clone)]
pub struct ExploreConfig {
    /// Hard cap on memo expressions (exploration stops when exceeded).
    pub max_gexprs: usize,
}

impl Default for ExploreConfig {
    fn default() -> Self {
        ExploreConfig {
            max_gexprs: 200_000,
        }
    }
}

/// Largest table count of the join side eager aggregation pre-aggregates.
/// Pre-aggregates over wide subsets explode the memo without ever winning
/// (their group-bys are huge); the paper's E4/E5-style candidates involve
/// 2-3 tables.
const MAX_EAGER_AGG_RELS: usize = 3;

/// Exhaustively apply the rules until fixpoint (or the expression cap).
/// Returns the number of expressions added.
pub fn explore(memo: &mut Memo, cfg: &ExploreConfig) -> usize {
    let start = memo.num_gexprs();
    let mut i = 0usize;
    while i < memo.num_gexprs() {
        if memo.num_gexprs() >= cfg.max_gexprs {
            break;
        }
        let id = GroupExprId(i as u32);
        apply_join_commute(memo, id);
        apply_join_assoc(memo, id);
        apply_eager_agg(memo, id);
        i += 1;
    }
    memo.num_gexprs() - start
}

/// Join(p)[l, r] → Join(p)[r, l].
fn apply_join_commute(memo: &mut Memo, id: GroupExprId) {
    let e = memo.gexpr(id);
    if let Op::Join { pred } = &e.op {
        let commuted = GroupExpr::new(
            Op::Join { pred: pred.clone() },
            vec![e.children[1], e.children[0]],
        );
        let group = memo.group_of(id);
        memo.add_gexpr(commuted, Some(group));
    }
}

/// (ll ⋈p2 lr) ⋈p1 r  →  ll ⋈top (lr ⋈inner r), keeping only connected
/// shapes (the inner and the top join must each have a conjunct spanning
/// their two sides).
fn apply_join_assoc(memo: &mut Memo, id: GroupExprId) {
    let e = memo.gexpr(id);
    let (p1, l, r) = match &e.op {
        Op::Join { pred } => (pred.clone(), e.children[0], e.children[1]),
        _ => return,
    };
    // Collect candidate left-child join expressions first (borrow rules).
    let left_joins: Vec<(Scalar, GroupId, GroupId)> = memo
        .group(l)
        .exprs
        .iter()
        .filter_map(|&eid| {
            let le = memo.gexpr(eid);
            match &le.op {
                Op::Join { pred } => Some((pred.clone(), le.children[0], le.children[1])),
                _ => None,
            }
        })
        .collect();
    let r_rels = memo.group(r).props.rels;
    let group = memo.group_of(id);
    for (p2, ll, lr) in left_joins {
        let ll_rels = memo.group(ll).props.rels;
        let lr_rels = memo.group(lr).props.rels;
        let inner_rels = lr_rels.union(r_rels);
        let mut inner_conj = Vec::new();
        let mut top_conj = Vec::new();
        for c in p1.conjuncts().into_iter().chain(p2.conjuncts()) {
            if c.rels().is_subset(inner_rels) {
                inner_conj.push(c);
            } else {
                top_conj.push(c);
            }
        }
        let spans = |conjs: &[Scalar], a: RelSet, b: RelSet| {
            conjs
                .iter()
                .any(|c| !c.rels().intersect(a).is_empty() && !c.rels().intersect(b).is_empty())
        };
        if !spans(&inner_conj, lr_rels, r_rels) || !spans(&top_conj, ll_rels, inner_rels) {
            continue; // would create a cross product
        }
        let inner = GroupExpr::new(
            Op::Join {
                pred: Scalar::and(inner_conj).normalize(),
            },
            vec![lr, r],
        );
        let (_, inner_group, _) = memo.add_gexpr(inner, None);
        let top = GroupExpr::new(
            Op::Join {
                pred: Scalar::and(top_conj).normalize(),
            },
            vec![ll, inner_group],
        );
        memo.add_gexpr(top, Some(group));
    }
}

/// γ_keys;aggs (l ⋈p r)  →  γ_keys;aggs' (l ⋈p γ_partial(r))
/// when every aggregate argument comes from `r`. The partial group-by keys
/// are the original keys from `r` plus every `r` column the join predicate
/// needs; the final aggregate re-aggregates partial results (SUM of partial
/// SUMs / COUNTs, MIN of MINs, ...), which is exactly the rollup the
/// covering-subexpression consumers use too.
fn apply_eager_agg(memo: &mut Memo, id: GroupExprId) {
    let e = memo.gexpr(id);
    let (keys, aggs, out, child) = match &e.op {
        Op::Aggregate { keys, aggs, out } => (keys.clone(), aggs.clone(), *out, e.children[0]),
        _ => return,
    };
    // A scalar aggregate answers no rows with one row.
    if keys.is_empty() && !aggs.iter().all(|a| a.func.rolls_up_from_nothing()) {
        return;
    }
    // Only direct Join children (one level is enough to seed candidates;
    // deeper shapes arise through join reassociation first).
    let joins: Vec<(Scalar, GroupId, GroupId)> = memo
        .group(child)
        .exprs
        .iter()
        .filter_map(|&eid| {
            let je = memo.gexpr(eid);
            match &je.op {
                Op::Join { pred } => Some((pred.clone(), je.children[0], je.children[1])),
                _ => None,
            }
        })
        .collect();
    let group = memo.group_of(id);
    for (p, l, r) in joins {
        let r_rels = memo.group(r).props.rels;
        if r_rels.len() > MAX_EAGER_AGG_RELS {
            continue;
        }
        // All aggregate arguments must reference only r's rels (CountStar
        // qualifies trivially).
        let args_from_r = aggs.iter().all(|a| match &a.arg {
            Some(arg) => arg.rels().is_subset(r_rels),
            None => true,
        });
        if !args_from_r || aggs.is_empty() {
            continue;
        }
        // Partial keys: original keys from r + r columns used by the join
        // predicate.
        let mut partial_keys: Vec<ColRef> = keys
            .iter()
            .copied()
            .filter(|k| r_rels.contains(k.rel))
            .collect();
        for c in p.columns() {
            if r_rels.contains(c.rel) && !partial_keys.contains(&c) {
                partial_keys.push(c);
            }
        }
        partial_keys.sort();
        if partial_keys.is_empty() {
            continue; // cross join with no keys: not useful
        }
        // Every original key must be available above the partial aggregate.
        let l_rels = memo.group(l).props.rels;
        let keys_ok = keys
            .iter()
            .all(|k| l_rels.contains(k.rel) || partial_keys.contains(k));
        if !keys_ok {
            continue;
        }
        let partial_aggs: Vec<AggExpr> = aggs.iter().map(AggExpr::normalize).collect();
        let partial_out =
            memo.agg_out_for(r, &partial_keys, &partial_aggs, memo.group(r).props.block);
        let partial = GroupExpr::new(
            Op::Aggregate {
                keys: partial_keys,
                aggs: partial_aggs,
                out: partial_out,
            },
            vec![r],
        );
        let (_, partial_group, _) = memo.add_gexpr(partial, None);
        let join = GroupExpr::new(Op::Join { pred: p.clone() }, vec![l, partial_group]);
        let (_, join_group, _) = memo.add_gexpr(join, None);
        // Final aggregate: same keys and the same output rel, but each
        // aggregate now rolls up the partial column.
        let final_aggs: Vec<AggExpr> = aggs
            .iter()
            .enumerate()
            .map(|(i, a)| a.rollup_over(Scalar::Col(ColRef::new(partial_out, i as u16))))
            .collect();
        let final_agg = GroupExpr::new(
            Op::Aggregate {
                keys: keys.clone(),
                aggs: final_aggs,
                out,
            },
            vec![join_group],
        );
        memo.add_gexpr(final_agg, Some(group));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cse_algebra::{LogicalPlan, PlanContext, RelId};
    use cse_storage::{DataType, Schema};
    use std::sync::Arc;

    fn setup(n: usize) -> (PlanContext, Vec<RelId>) {
        let mut ctx = PlanContext::new();
        let b = ctx.new_block();
        let schema = Arc::new(Schema::from_pairs(&[
            ("k", DataType::Int),
            ("v", DataType::Float),
        ]));
        let names = ["t0", "t1", "t2", "t3", "t4"];
        let rels = (0..n)
            .map(|i| ctx.add_base_rel(names[i], names[i], schema.clone(), b))
            .collect();
        (ctx, rels)
    }

    fn chain_join(rels: &[RelId]) -> LogicalPlan {
        let mut plan = LogicalPlan::get(rels[0]);
        for w in rels.windows(2) {
            plan = plan.join(
                LogicalPlan::get(w[1]),
                Scalar::eq(Scalar::col(w[0], 0), Scalar::col(w[1], 0)),
            );
        }
        plan
    }

    #[test]
    fn commute_doubles_join_exprs() {
        let (ctx, rels) = setup(2);
        let mut memo = Memo::new(ctx);
        let g = memo.insert_plan(&chain_join(&rels));
        explore(&mut memo, &ExploreConfig::default());
        // Original + commuted.
        assert_eq!(memo.group(g).exprs.len(), 2);
    }

    #[test]
    fn assoc_generates_alternative_orders() {
        let (ctx, rels) = setup(3);
        let mut memo = Memo::new(ctx);
        let g = memo.insert_plan(&chain_join(&rels));
        let added = explore(&mut memo, &ExploreConfig::default());
        assert!(added > 0);
        // The root group must now contain a right-deep alternative:
        // some expr whose right child covers 2 rels.
        let has_right_deep = memo.group(g).exprs.iter().any(|&eid| {
            let e = memo.gexpr(eid);
            matches!(e.op, Op::Join { .. }) && memo.group(e.children[1]).props.rels.len() == 2
        });
        assert!(has_right_deep);
    }

    #[test]
    fn exploration_reaches_fixpoint() {
        let (ctx, rels) = setup(4);
        let mut memo = Memo::new(ctx);
        memo.insert_plan(&chain_join(&rels));
        explore(&mut memo, &ExploreConfig::default());
        let n = memo.num_gexprs();
        let added = explore(&mut memo, &ExploreConfig::default());
        assert_eq!(added, 0, "second exploration must add nothing");
        assert_eq!(memo.num_gexprs(), n);
    }

    #[test]
    fn no_cross_products_created() {
        // t0-t1-t2 chain: the order (t0 ⋈ t2) would be a cross product and
        // must not appear.
        let (ctx, rels) = setup(3);
        let mut memo = Memo::new(ctx);
        memo.insert_plan(&chain_join(&rels));
        explore(&mut memo, &ExploreConfig::default());
        for g in memo.groups() {
            let bad = RelSet::from_iter([rels[0], rels[2]]);
            assert!(
                g.props.rels != bad,
                "cross-product group {:?} was created",
                g.id
            );
        }
    }

    #[test]
    fn eager_agg_creates_partial_aggregate() {
        let (mut ctx, rels) = setup(2);
        let blk = ctx.new_block();
        let out = ctx.add_agg_output(&[DataType::Float], blk);
        let plan = LogicalPlan::Aggregate {
            input: Box::new(chain_join(&rels)),
            keys: vec![ColRef::new(rels[0], 0)],
            aggs: vec![AggExpr::sum(Scalar::col(rels[1], 1))],
            out,
        };
        let mut memo = Memo::new(ctx);
        let g = memo.insert_plan(&plan);
        explore(&mut memo, &ExploreConfig::default());
        // Some group must now be a grouped signature over t1 alone
        // (the partial aggregate).
        let partial = memo.groups().find(|gr| {
            gr.props
                .signature
                .as_ref()
                .is_some_and(|s| s.grouped && s.tables == vec!["t1".to_string()])
        });
        assert!(partial.is_some(), "partial aggregate group missing");
        // And the aggregate's own group gained an eager alternative.
        assert!(memo.group(g).exprs.len() >= 2);
    }
}
