//! Required-column analysis over the memo.
//!
//! For every group, which of its output columns do its ancestors actually
//! reference? The covering subexpression only needs to materialize the
//! union of its consumers' required columns (step 5 of the construction in
//! §4.2: "all columns and expressions that are required to compute the
//! result of a potential consumer") — and this is what makes Heuristic 2
//! bite on `SELECT *` consumers.

use crate::manager::parents_first;
use cse_algebra::{ColRef, Scalar};
use cse_memo::{GroupId, Memo, Op};
use std::collections::{BTreeSet, HashMap};

/// `required[g]` = columns of g's output that some ancestor references.
pub type RequiredCols = HashMap<GroupId, BTreeSet<ColRef>>;

/// Compute required columns for every group reachable from `roots`: the
/// least fixpoint of "a child must provide what its parent expression
/// references plus what the parent itself must pass up". One sweep in
/// parents-before-children order over sorted column vectors reaches it; a
/// child that grows after its own turn (possible only if the memo had a
/// cycle) asks for another sweep.
pub fn compute_required(memo: &Memo, roots: &[GroupId]) -> RequiredCols {
    let sorted = |mut cols: Vec<ColRef>| {
        cols.sort_unstable();
        cols.dedup();
        cols
    };
    // Every group's output columns, sorted; `need[g]` is `None` until some
    // reached parent (or `roots`) asks group g for anything.
    let outputs: Vec<Vec<ColRef>> = memo
        .groups()
        .map(|g| sorted(g.props.output_cols.clone()))
        .collect();
    let mut need: Vec<Option<Vec<ColRef>>> = vec![None; outputs.len()];
    // Roots (statement outputs) require all their output columns.
    for &r in roots {
        need[r.0 as usize] = Some(outputs[r.0 as usize].clone());
    }
    let order = parents_first(memo);
    let mut done = vec![false; outputs.len()];
    let mut stale = true;
    while std::mem::take(&mut stale) {
        done.fill(false);
        for &g in &order {
            done[g.0 as usize] = true;
            let Some(req_g) = need[g.0 as usize].clone() else {
                continue;
            };
            for &eid in &memo.group(g).exprs {
                let e = memo.gexpr(eid);
                // What the parents need passed up plus the columns this
                // operator itself consumes from its children.
                let mut wanted = req_g.clone();
                e.op.for_each_scalar(&mut |s: &Scalar| {
                    s.visit(&mut |n| {
                        if let Scalar::Col(c) = n {
                            wanted.push(*c);
                        }
                    })
                });
                match &e.op {
                    Op::Filter { pred } | Op::Join { pred } => {
                        wanted.extend(pred.iter().flat_map(|&c| &memo.conj(c).cols));
                    }
                    Op::Aggregate { keys, .. } => wanted.extend_from_slice(keys),
                    _ => {}
                }
                let wanted = sorted(wanted);
                for &c in &e.children {
                    let out = &outputs[c.0 as usize];
                    // Batch children are statement roots: they require all
                    // their outputs (results are delivered in full).
                    let ask: Vec<ColRef> = if matches!(e.op, Op::Batch) {
                        out.clone()
                    } else {
                        let has = |col: &&ColRef| out.binary_search(col).is_ok();
                        wanted.iter().filter(has).copied().collect()
                    };
                    let have = &mut need[c.0 as usize];
                    let known =
                        |h: &Vec<ColRef>| ask.iter().all(|col| h.binary_search(col).is_ok());
                    if !have.as_ref().is_some_and(known) {
                        let have = have.get_or_insert_with(Vec::new);
                        have.extend(ask);
                        *have = sorted(std::mem::take(have));
                        stale |= done[c.0 as usize];
                    }
                }
            }
        }
    }
    let reached = need.into_iter().enumerate();
    reached
        .filter_map(|(g, cols)| Some((GroupId(g as u32), cols?.into_iter().collect())))
        .collect()
}

/// The required columns of one group (empty set if never computed).
pub fn required_of(required: &RequiredCols, g: GroupId) -> BTreeSet<ColRef> {
    required.get(&g).cloned().unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cse_algebra::{AggExpr, LogicalPlan, PlanContext, Scalar};
    use cse_storage::{DataType, Schema};
    use std::sync::Arc;

    fn build() -> (Memo, GroupId, cse_algebra::RelId, cse_algebra::RelId) {
        let mut ctx = PlanContext::new();
        let blk = ctx.new_block();
        let schema = Arc::new(Schema::from_pairs(&[
            ("a", DataType::Int),
            ("b", DataType::Int),
            ("c", DataType::Int),
        ]));
        let r = ctx.add_base_rel("r", "r", schema.clone(), blk);
        let s = ctx.add_base_rel("s", "s", schema, blk);
        let out = ctx.add_agg_output(&[DataType::Int], blk);
        let join = LogicalPlan::get(r).join(
            LogicalPlan::get(s),
            Scalar::eq(Scalar::col(r, 0), Scalar::col(s, 0)),
        );
        let plan = LogicalPlan::Aggregate {
            input: Box::new(join),
            keys: vec![cse_algebra::ColRef::new(r, 1)],
            aggs: vec![AggExpr::sum(Scalar::col(s, 2))],
            out,
        }
        .project(vec![("total".into(), Scalar::col(out, 0))]);
        let mut memo = Memo::new(ctx);
        let root = memo.insert_plan(&plan);
        (memo, root, r, s)
    }

    #[test]
    fn join_group_requires_only_referenced_columns() {
        let (memo, root, r, s) = build();
        let req = compute_required(&memo, &[root]);
        // Find the join group (rels = {r,s}, no group flag).
        let join_group = memo
            .groups()
            .find(|g| {
                g.props.rels.len() == 2
                    && g.props.signature.as_ref().is_some_and(|sig| !sig.grouped)
            })
            .unwrap();
        let need = required_of(&req, join_group.id);
        // Required: r.a (join key via agg input? no: join key), r.b (group
        // key), s.a (join key), s.c (agg arg). NOT r.c, s.b.
        assert!(need.contains(&cse_algebra::ColRef::new(r, 1)));
        assert!(need.contains(&cse_algebra::ColRef::new(s, 2)));
        assert!(!need.contains(&cse_algebra::ColRef::new(r, 2)));
        assert!(!need.contains(&cse_algebra::ColRef::new(s, 1)));
    }

    #[test]
    fn leaf_requirements_subset_of_schema() {
        let (memo, root, r, _) = build();
        let req = compute_required(&memo, &[root]);
        let get_group = memo
            .groups()
            .find(|g| g.props.rels == cse_algebra::RelSet::single(r))
            .unwrap();
        let need = required_of(&req, get_group.id);
        assert!(!need.is_empty());
        assert!(need.iter().all(|c| c.rel == r));
    }
}
