//! Exploration: transformation rules applied to memo expressions.
//!
//! Three rules suffice for the paper's workloads: join commutativity, join
//! associativity (with predicate redistribution over rel sets, restricted
//! to connected join orders), and eager aggregation (pre-aggregating one
//! join input — the source of the paper's `E4`/`E5`-style pre-aggregation
//! candidates in §6.1).
//!
//! Associativity and eager aggregation each rewrite a pair: an upper
//! expression (a join, an aggregate) and a join in the group below it. The
//! expressions form a worklist in arena order, and each pair is rewritten
//! once, when the later of its two expressions is reached: as the upper
//! expression, an expression pairs with the joins below it that came
//! before it; as a join, with the upper expressions over its group that
//! came before it. An expression a rewrite adds lands at the end of the
//! arena and is reached in turn, so one call reaches the fixpoint.

use crate::memo::{AggInput, Memo};
use crate::op::{ConjId, GroupExpr, GroupExprId, Op};
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

/// Apply the rules to every expression until the fixpoint (or the
/// expression cap). Returns the number of expressions added.
pub fn explore(memo: &mut Memo, cfg: &ExploreConfig) -> usize {
    explore_from(memo, cfg, 0)
}

/// [`explore`] when the expressions before `from` are already at the
/// fixpoint: only expressions from `from` on are reached, each paired with
/// the older expressions it meets. Returns the number of expressions added.
pub fn explore_from(memo: &mut Memo, cfg: &ExploreConfig, from: usize) -> usize {
    let start = memo.num_gexprs();
    let mut next = from;
    while next < memo.num_gexprs() && memo.num_gexprs() < cfg.max_gexprs {
        let id = GroupExprId(next as u32);
        apply_join_commute(memo, id);
        // As the upper expression: the joins below it reached before it.
        let e = memo.gexpr(id);
        if matches!(e.op, Op::Join { .. } | Op::Aggregate { .. }) {
            let below: Vec<GroupExprId> = memo
                .group(e.children[0])
                .exprs
                .iter()
                .copied()
                .filter(|&j| j < id && matches!(memo.gexpr(j).op, Op::Join { .. }))
                .collect();
            for j in below {
                rewrite_pair(memo, id, j);
            }
        }
        // As a join: the upper expressions over its group reached before it.
        if matches!(memo.gexpr(id).op, Op::Join { .. }) {
            let group = memo.group_of(id);
            let above: Vec<GroupExprId> = memo
                .group(group)
                .parents
                .iter()
                .copied()
                .filter(|&u| u < id && memo.gexpr(u).children[0] == group)
                .collect();
            for u in above {
                rewrite_pair(memo, u, id);
            }
        }
        next += 1;
    }
    memo.num_gexprs() - start
}

/// Rewrite `upper` over `join`, a join in `upper`'s first child group.
fn rewrite_pair(memo: &mut Memo, upper: GroupExprId, join: GroupExprId) {
    match memo.gexpr(upper).op {
        Op::Join { .. } => apply_join_assoc(memo, upper, join),
        Op::Aggregate { .. } => apply_eager_agg(memo, upper, join),
        _ => {}
    }
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
/// their two sides). `top` is the upper join, `left` a join in its left
/// child group.
fn apply_join_assoc(memo: &mut Memo, top: GroupExprId, left: GroupExprId) {
    let (top_e, left_e) = (memo.gexpr(top), memo.gexpr(left));
    let (Op::Join { pred: p1 }, Op::Join { pred: p2 }) = (&top_e.op, &left_e.op) else {
        return;
    };
    let (r, ll, lr) = (top_e.children[1], left_e.children[0], left_e.children[1]);
    let r_rels = memo.group(r).props.rels;
    let ll_rels = memo.group(ll).props.rels;
    let lr_rels = memo.group(lr).props.rels;
    let inner_rels = lr_rels.union(r_rels);
    let (inner_conj, top_conj): (Vec<ConjId>, Vec<ConjId>) = memo
        .conjuncts(p1)
        .chain(memo.conjuncts(p2))
        .map(|(id, _)| id)
        .partition(|&c| memo.conj(c).rels.is_subset(inner_rels));
    let spans = |conjs: &[ConjId], a: RelSet, b: RelSet| {
        conjs.iter().any(|&c| {
            let rels = memo.conj(c).rels;
            !rels.intersect(a).is_empty() && !rels.intersect(b).is_empty()
        })
    };
    if !spans(&inner_conj, lr_rels, r_rels) || !spans(&top_conj, ll_rels, inner_rels) {
        return; // would create a cross product
    }
    let (inner_pred, top_pred) = (memo.normal(inner_conj), memo.normal(top_conj));
    let inner = GroupExpr::new(Op::Join { pred: inner_pred }, vec![lr, r]);
    let (_, inner_group, _) = memo.add_gexpr(inner, None);
    let top_expr = GroupExpr::new(Op::Join { pred: top_pred }, vec![ll, inner_group]);
    let group = memo.group_of(top);
    memo.add_gexpr(top_expr, Some(group));
}

/// γ_keys;aggs (l ⋈p r)  →  γ_keys;aggs' (l ⋈p γ_partial(r))
/// when every aggregate argument comes from `r`. The partial group-by keys
/// are the original keys from `r` plus every `r` column the join predicate
/// needs; the final aggregate re-aggregates partial results (SUM of partial
/// SUMs / COUNTs, MIN of MINs, ...), which is exactly the rollup the
/// covering-subexpression consumers use too. `agg` is the aggregate,
/// `join` a join in its child group.
fn apply_eager_agg(memo: &mut Memo, agg: GroupExprId, join: GroupExprId) {
    let (agg_e, join_e) = (memo.gexpr(agg), memo.gexpr(join));
    let (Op::Aggregate { keys, aggs, out }, Op::Join { pred: p }) = (&agg_e.op, &join_e.op) else {
        return;
    };
    let (l, r) = (join_e.children[0], join_e.children[1]);
    // A scalar aggregate answers no rows with one row.
    if keys.is_empty() && !aggs.iter().all(|a| a.func.rolls_up_from_nothing()) {
        return;
    }
    let r_rels = memo.group(r).props.rels;
    if r_rels.len() > MAX_EAGER_AGG_RELS {
        return;
    }
    // All aggregate arguments must reference only r's rels (CountStar
    // qualifies trivially).
    let args_from_r = aggs.iter().all(|a| match &a.arg {
        Some(arg) => arg.rels().is_subset(r_rels),
        None => true,
    });
    if !args_from_r || aggs.is_empty() {
        return;
    }
    // Partial keys: original keys from r + r columns used by the join
    // predicate.
    let mut partial_keys: Vec<ColRef> = keys
        .iter()
        .copied()
        .filter(|k| r_rels.contains(k.rel))
        .collect();
    for &c in p.iter().flat_map(|&c| &memo.conj(c).cols) {
        if r_rels.contains(c.rel) && !partial_keys.contains(&c) {
            partial_keys.push(c);
        }
    }
    partial_keys.sort();
    if partial_keys.is_empty() {
        return; // cross join with no keys: not useful
    }
    // Every original key must be available above the partial aggregate.
    let l_rels = memo.group(l).props.rels;
    let keys_ok = keys
        .iter()
        .all(|k| l_rels.contains(k.rel) || partial_keys.contains(k));
    if !keys_ok {
        return;
    }
    let (keys, aggs, out, p) = (keys.clone(), aggs.clone(), *out, p.clone());
    let partial_aggs: Vec<AggExpr> = aggs.iter().map(AggExpr::normalize).collect();
    let block = memo.group(r).props.block;
    let partial_out = memo.agg_out_for(AggInput::Group(r), &partial_keys, &partial_aggs, block);
    let partial = GroupExpr::new(
        Op::Aggregate {
            keys: partial_keys,
            aggs: partial_aggs,
            out: partial_out,
        },
        vec![r],
    );
    let (_, partial_group, _) = memo.add_gexpr(partial, None);
    let partial_join = GroupExpr::new(Op::Join { pred: p }, vec![l, partial_group]);
    let (_, join_group, _) = memo.add_gexpr(partial_join, None);
    // Final aggregate: same keys and the same output rel, but each
    // aggregate now rolls up the partial column.
    let final_aggs: Vec<AggExpr> = aggs
        .iter()
        .enumerate()
        .map(|(i, a)| a.rollup_over(Scalar::Col(ColRef::new(partial_out, i as u16))))
        .collect();
    let final_agg = GroupExpr::new(
        Op::Aggregate {
            keys,
            aggs: final_aggs,
            out,
        },
        vec![join_group],
    );
    let group = memo.group_of(agg);
    memo.add_gexpr(final_agg, Some(group));
}

#[cfg(test)]
mod tests {
    use super::*;
    use cse_algebra::{LogicalPlan, PlanContext, RelId};
    use cse_storage::{DataType, Schema};
    use std::collections::BTreeSet;
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

    /// The join groups of `memo`, each described by what its first tree
    /// computes: its rels and its conjuncts, literals told apart by kind.
    fn join_groups(memo: &Memo) -> Vec<(RelSet, BTreeSet<String>)> {
        fn conjuncts(p: &LogicalPlan, out: &mut BTreeSet<String>) {
            match p {
                LogicalPlan::Filter { input, pred } => {
                    out.extend(pred.conjuncts().iter().map(|c| format!("{c:?}")));
                    conjuncts(input, out);
                }
                LogicalPlan::Join { left, right, pred } => {
                    out.extend(pred.conjuncts().iter().map(|c| format!("{c:?}")));
                    conjuncts(left, out);
                    conjuncts(right, out);
                }
                LogicalPlan::Aggregate { out: o, .. } => {
                    out.insert(format!("γ{o:?}"));
                }
                _ => {}
            }
        }
        memo.groups()
            .filter(|g| matches!(memo.gexpr(g.exprs[0]).op, Op::Join { .. }))
            .map(|g| {
                let mut conj = BTreeSet::new();
                conjuncts(&memo.extract_first_tree(g.id), &mut conj);
                (g.props.rels, conj)
            })
            .collect()
    }

    fn distinct(joins: &[(RelSet, BTreeSet<String>)]) -> usize {
        joins.iter().collect::<BTreeSet<_>>().len()
    }

    #[test]
    fn a_join_cycle_has_one_group_per_logical_join() {
        // Table 4's part–lineitem–supplier–partsupp shape: a 4-cycle, where
        // a triple is reached both as (a ⋈ b) ⋈ c and as a ⋈ (b ⋈ c).
        let (ctx, t) = setup(4);
        let on = |a: usize, b: usize, col: u16| {
            Scalar::eq(Scalar::col(t[a], col), Scalar::col(t[b], col))
        };
        let plan = LogicalPlan::get(t[0])
            .join(LogicalPlan::get(t[1]), on(0, 1, 0))
            .join(LogicalPlan::get(t[2]), on(1, 2, 1))
            .join(
                LogicalPlan::get(t[3]),
                Scalar::and([on(2, 3, 0), on(3, 0, 1)]),
            );
        let mut memo = Memo::new(ctx);
        memo.insert_plan(&plan);
        explore(&mut memo, &ExploreConfig::default());
        let joins = join_groups(&memo);
        // Four edges, four connected triples, the whole cycle.
        assert_eq!(joins.len(), 9, "{joins:?}");
        assert_eq!(distinct(&joins), joins.len());
        assert_eq!(explore(&mut memo, &ExploreConfig::default()), 0);
    }

    #[test]
    fn a_join_over_a_partial_aggregate_is_not_the_join() {
        // l ⋈ γ(r) has the rels of l ⋈ r but returns other rows.
        let (mut ctx, rels) = setup(2);
        let blk = ctx.new_block();
        let out = ctx.add_agg_output(&[DataType::Float], blk);
        let join = chain_join(&rels);
        let plan = LogicalPlan::Aggregate {
            input: Box::new(join.clone()),
            keys: vec![ColRef::new(rels[0], 0)],
            aggs: vec![AggExpr::sum(Scalar::col(rels[1], 1))],
            out,
        };
        let mut memo = Memo::new(ctx);
        memo.insert_plan(&plan);
        explore(&mut memo, &ExploreConfig::default());
        let joins = join_groups(&memo);
        assert_eq!(joins.len(), 2, "l ⋈ r and l ⋈ γ(r): {joins:?}");
        assert_eq!(distinct(&joins), 2);
        let plain = memo.insert_plan(&join);
        let over_partial = memo.groups().find(|g| {
            g.exprs.iter().any(|&e| {
                let e = memo.gexpr(e);
                matches!(e.op, Op::Join { .. })
                    && e.children.iter().any(|&c| {
                        matches!(memo.gexpr(memo.group(c).exprs[0]).op, Op::Aggregate { .. })
                    })
            })
        });
        assert!(over_partial.is_some_and(|g| g.id != plain));
    }

    #[test]
    fn joins_differing_in_a_literal_kind_stay_apart() {
        use cse_storage::Value;
        let (ctx, t) = setup(2);
        let join = |v: Value, flip: bool| {
            let filtered =
                LogicalPlan::get(t[1]).filter(Scalar::eq(Scalar::col(t[1], 1), Scalar::lit(v)));
            let on = Scalar::eq(Scalar::col(t[0], 0), Scalar::col(t[1], 0));
            if flip {
                filtered.join(LogicalPlan::get(t[0]), on)
            } else {
                LogicalPlan::get(t[0]).join(filtered, on)
            }
        };
        let mut memo = Memo::new(ctx);
        let int = memo.insert_plan(&join(Value::Int(1), false));
        // The same join built the other way round finds its group by key.
        assert_eq!(memo.insert_plan(&join(Value::Int(1), true)), int);
        // `x = 1.0` is not `x = 1`, whichever way it is built.
        let float = memo.insert_plan(&join(Value::Float(1.0), true));
        assert_ne!(float, int);
        assert_eq!(memo.insert_plan(&join(Value::Float(1.0), false)), float);
        // Nor is its conjunct: two filters, two ids, each rebuilt as stored.
        let filters: Vec<Vec<ConjId>> = (0..memo.num_gexprs() as u32)
            .filter_map(|e| match &memo.gexpr(GroupExprId(e)).op {
                Op::Filter { pred } => Some(pred.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(filters.len(), 2);
        assert_ne!(filters[0], filters[1]);
        let rebuilt: Vec<String> = filters
            .iter()
            .map(|p| format!("{:?}", memo.pred(p)))
            .collect();
        assert!(rebuilt[0].contains("Int(1)") && rebuilt[1].contains("Float(1.0)"));
    }
}
