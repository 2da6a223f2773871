//! Column-liveness analysis (analyzer pass 3).
//!
//! Two dead-code shapes over a lowered statement:
//!
//! - **dead group-by keys**: a key of the statement's root aggregate that
//!   no operator *above* the aggregate consumes (not projected, not
//!   sorted on, not filtered on by HAVING). Grouping by it still changes
//!   row multiplicity — which is exactly why this is a lint, not a
//!   rewrite: the analyzer flags it, the constructor never drops it;
//! - **duplicate projections**: the same select-list expression delivered
//!   twice (detected on the AST, where span-insensitive equality makes
//!   `a` and `a` compare equal even at different offsets).

use cse_algebra::{ColRef, LogicalPlan};
use cse_sql::ast::{SelectItem, SelectStmt};
use cse_sql::Span;
use std::collections::BTreeSet;

/// Group-by keys of the statement's root aggregate that nothing above the
/// aggregate consumes. Returns an empty list when the statement has no
/// aggregate on its root spine.
pub(crate) fn dead_group_keys(plan: &LogicalPlan) -> Vec<ColRef> {
    let mut consumed: BTreeSet<ColRef> = BTreeSet::new();
    let mut node = plan;
    loop {
        match node {
            LogicalPlan::Project { input, exprs } => {
                for (_, e) in exprs {
                    consumed.extend(e.columns());
                }
                node = input;
            }
            LogicalPlan::Sort { input, keys } => {
                for (k, _) in keys {
                    consumed.extend(k.columns());
                }
                node = input;
            }
            LogicalPlan::Filter { input, pred } => {
                consumed.extend(pred.columns());
                node = input;
            }
            // HAVING subqueries cross-join above the aggregate; the spine
            // continues down the left side.
            LogicalPlan::Join { left, .. } => {
                node = left;
            }
            LogicalPlan::Aggregate { keys, .. } => {
                return keys
                    .iter()
                    .filter(|k| !consumed.contains(k))
                    .copied()
                    .collect();
            }
            // No aggregate on the spine: nothing to report.
            _ => return Vec::new(),
        }
    }
}

/// Select-list items that duplicate an earlier item's expression. Returns
/// `(select-list index, span of the duplicate)` pairs.
pub(crate) fn duplicate_projections(stmt: &SelectStmt) -> Vec<(usize, Span)> {
    let mut seen: Vec<&cse_sql::Expr> = Vec::new();
    let mut out = Vec::new();
    for (i, item) in stmt.select.iter().enumerate() {
        if let SelectItem::Expr { expr, .. } = item {
            // AST equality ignores spans, so re-spelled duplicates match.
            if seen.iter().any(|e| **e == *expr) {
                out.push((i, expr.span));
            } else {
                seen.push(expr);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cse_algebra::{AggExpr, PlanContext, RelId, Scalar};
    use cse_sql::parse_one;
    use cse_sql::Statement;
    use cse_storage::{DataType, Schema};
    use std::sync::Arc;

    fn agg_plan(project_key: bool) -> (PlanContext, RelId, LogicalPlan) {
        let mut ctx = PlanContext::new();
        let b = ctx.new_block();
        let schema = Arc::new(Schema::from_pairs(&[
            ("k", DataType::Int),
            ("v", DataType::Float),
        ]));
        let r = ctx.add_base_rel("t", "t", schema, b);
        let out = ctx.add_agg_output(&[DataType::Float], b);
        let key = ColRef::new(r, 0);
        let agg = LogicalPlan::Aggregate {
            input: Box::new(LogicalPlan::get(r)),
            keys: vec![key],
            aggs: vec![AggExpr::sum(Scalar::col(r, 1))],
            out,
        };
        let mut exprs = vec![("s".to_string(), Scalar::col(out, 0))];
        if project_key {
            exprs.insert(0, ("k".to_string(), Scalar::Col(key)));
        }
        (ctx, r, agg.project(exprs))
    }

    #[test]
    fn unprojected_key_is_dead() {
        let (_, r, plan) = agg_plan(false);
        assert_eq!(dead_group_keys(&plan), vec![ColRef::new(r, 0)]);
    }

    #[test]
    fn projected_key_is_live() {
        let (_, _, plan) = agg_plan(true);
        assert!(dead_group_keys(&plan).is_empty());
    }

    #[test]
    fn having_consumption_counts() {
        let (_, r, plan) = agg_plan(false);
        // Wrap the aggregate in a HAVING-style filter on the key.
        let plan = match plan {
            LogicalPlan::Project { input, exprs } => LogicalPlan::Project {
                input: Box::new(input.filter(Scalar::eq(Scalar::col(r, 0), Scalar::int(1)))),
                exprs,
            },
            other => other,
        };
        assert!(dead_group_keys(&plan).is_empty());
    }

    #[test]
    fn spj_statement_has_no_dead_keys() {
        let mut ctx = PlanContext::new();
        let b = ctx.new_block();
        let schema = Arc::new(Schema::from_pairs(&[("k", DataType::Int)]));
        let r = ctx.add_base_rel("t", "t", schema, b);
        let plan = LogicalPlan::get(r).project(vec![("k".into(), Scalar::col(r, 0))]);
        assert!(dead_group_keys(&plan).is_empty());
    }

    #[test]
    fn duplicate_select_items_found() {
        let stmt = match parse_one("select a, b, a from t").unwrap() {
            Statement::Select(s) => s,
            _ => unreachable!(),
        };
        let dups = duplicate_projections(&stmt);
        assert_eq!(dups.len(), 1);
        assert_eq!(dups[0].0, 2);
        let stmt = match parse_one("select a, b from t").unwrap() {
            Statement::Select(s) => s,
            _ => unreachable!(),
        };
        assert!(duplicate_projections(&stmt).is_empty());
    }
}
