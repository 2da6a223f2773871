//! Pass 1: well-formedness / column provenance over the memo.
//!
//! Audits three structural invariants every later phase (normalization,
//! signature computation, view matching, execution) silently assumes:
//!
//! - **Column availability**: every `ColRef` an operator references (filter
//!   and join predicates, aggregate keys/arguments, projection and sort
//!   expressions) is produced by one of its children.
//! - **Aggregate-output scoping**: a column of a synthetic aggregate output
//!   rel may only be referenced where that aggregate's result is in scope —
//!   never below the aggregate that defines it.
//! - **Delivery-operator placement**: `Batch` appears only as a statement
//!   root; `Project` only at a root or directly under `Batch`; `Sort` only
//!   at a root or directly under `Batch`/`Project`. These operators erase
//!   table signatures (paper §3, Fig. 2: `S_e = ∅`), so any interior
//!   occurrence would silently hide sharable subexpressions.

use crate::diag::rules;
use cse_algebra::{ColRef, RelKind};
use cse_diag::Report;
use cse_memo::{GroupId, Memo, Op};
use std::collections::BTreeSet;

/// Run the provenance pass. `roots` are the legal delivery positions.
pub fn verify_provenance(memo: &Memo, roots: &[GroupId]) -> Report {
    let mut report = Report::new();
    let root_set: BTreeSet<GroupId> = roots.iter().copied().collect();
    for g in memo.groups() {
        for (ei, &eid) in g.exprs.iter().enumerate() {
            let e = memo.gexpr(eid);
            let path = format!("{}#{}", g.id, ei);
            check_columns(memo, &e.op, &e.children, &path, &mut report);
            check_placement(memo, g.id, &e.op, &root_set, &path, &mut report);
        }
    }
    report
}

/// Columns an operator references in its own scalars.
fn local_refs(memo: &Memo, op: &Op) -> BTreeSet<ColRef> {
    let mut local: BTreeSet<ColRef> = BTreeSet::new();
    match op {
        Op::Get { .. } | Op::Batch => {}
        Op::Filter { pred } | Op::Join { pred } => {
            local.extend(pred.iter().flat_map(|&c| &memo.conj(c).cols));
        }
        Op::Aggregate { keys, aggs, .. } => {
            local.extend(keys.iter().copied());
            for a in aggs {
                if let Some(arg) = &a.arg {
                    local.extend(arg.columns());
                }
            }
        }
        Op::Project { exprs } => {
            for (_, s) in exprs {
                local.extend(s.columns());
            }
        }
        Op::Sort { keys } => {
            for (s, _) in keys {
                local.extend(s.columns());
            }
        }
    }
    local
}

fn check_columns(memo: &Memo, op: &Op, children: &[GroupId], path: &str, report: &mut Report) {
    let available: BTreeSet<ColRef> = children
        .iter()
        .flat_map(|c| memo.group(*c).props.output_cols.iter().copied())
        .collect();
    for col in local_refs(memo, op) {
        if available.contains(&col) {
            continue;
        }
        let kind = memo.ctx.rel(col.rel).kind;
        if kind == RelKind::AggOutput {
            report.error(
                rules::PROVENANCE_AGG_OUT_LEAK,
                path,
                format!(
                    "{} references aggregate output column {col} outside the \
                     scope of its defining aggregate",
                    op.name()
                ),
            );
        } else {
            report.error(
                rules::PROVENANCE_UNAVAILABLE_COLUMN,
                path,
                format!(
                    "{} references column {col}, which no child produces",
                    op.name()
                ),
            );
        }
    }
}

fn check_placement(
    memo: &Memo,
    group: GroupId,
    op: &Op,
    roots: &BTreeSet<GroupId>,
    path: &str,
    report: &mut Report,
) {
    let parent_ops = || -> Vec<&'static str> {
        memo.group(group)
            .parents
            .iter()
            .map(|&pid| memo.gexpr(pid).op.name())
            .collect()
    };
    match op {
        // The batch root ties statements together; nothing sits above it.
        Op::Batch if !roots.contains(&group) || !memo.group(group).parents.is_empty() => {
            report.error(
                rules::PROVENANCE_ROOT_ONLY_OP,
                path,
                format!(
                    "Batch must be a statement root with no parents \
                     (parents: [{}])",
                    parent_ops().join(",")
                ),
            );
        }
        Op::Batch => {}
        Op::Project { .. } => {
            let ok = roots.contains(&group)
                || memo
                    .group(group)
                    .parents
                    .iter()
                    .all(|&pid| matches!(memo.gexpr(pid).op, Op::Batch));
            if !ok {
                report.error(
                    rules::PROVENANCE_ROOT_ONLY_OP,
                    path,
                    format!(
                        "Project may appear only at a root or under Batch \
                         (parents: [{}])",
                        parent_ops().join(",")
                    ),
                );
            }
        }
        Op::Sort { .. } => {
            let ok = roots.contains(&group)
                || memo
                    .group(group)
                    .parents
                    .iter()
                    .all(|&pid| matches!(memo.gexpr(pid).op, Op::Batch | Op::Project { .. }));
            if !ok {
                report.error(
                    rules::PROVENANCE_ROOT_ONLY_OP,
                    path,
                    format!(
                        "Sort may appear only at a root or under Batch/Project \
                         (parents: [{}])",
                        parent_ops().join(",")
                    ),
                );
            }
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cse_algebra::{LogicalPlan, PlanContext, Scalar};
    use cse_storage::{DataType, Schema};
    use std::sync::Arc;

    fn ctx_one() -> (PlanContext, cse_algebra::RelId) {
        let mut ctx = PlanContext::new();
        let b = ctx.new_block();
        let schema = Arc::new(Schema::from_pairs(&[
            ("a", DataType::Int),
            ("b", DataType::Int),
        ]));
        let r = ctx.add_base_rel("r", "r", schema, b);
        (ctx, r)
    }

    #[test]
    fn healthy_plan_is_clean() {
        let (ctx, r) = ctx_one();
        let plan = LogicalPlan::get(r)
            .filter(Scalar::eq(Scalar::col(r, 0), Scalar::int(1)))
            .project(vec![("a".into(), Scalar::col(r, 0))]);
        let mut memo = Memo::new(ctx);
        let root = memo.insert_plan(&plan);
        let report = verify_provenance(&memo, &[root]);
        assert!(report.is_clean(), "{}", report.render());
    }

    #[test]
    fn foreign_column_fires_unavailable() {
        let (mut ctx, r) = ctx_one();
        let b = ctx.new_block();
        let schema = Arc::new(Schema::from_pairs(&[("x", DataType::Int)]));
        let s = ctx.add_base_rel("s", "s", schema, b);
        // Filter over r referencing s.x: nothing below produces it.
        let plan = LogicalPlan::get(r).filter(Scalar::eq(Scalar::col(s, 0), Scalar::int(1)));
        let mut memo = Memo::new(ctx);
        let root = memo.insert_plan(&plan);
        let report = verify_provenance(&memo, &[root]);
        assert_eq!(
            report.fired_rules().into_iter().collect::<Vec<_>>(),
            vec![rules::PROVENANCE_UNAVAILABLE_COLUMN]
        );
    }
}
