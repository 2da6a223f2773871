//! Pass 2: signature audit.
//!
//! Table signatures are maintained *incrementally* while the memo is built
//! (paper §3: each group's `[G; {tables}]` is derived from its children's
//! signatures by the rules of Fig. 2, at group-creation time). The whole
//! detection phase — the signature table, sharable sets, containment
//! heuristics — trusts those stored values. This pass recomputes every
//! group's signature *from scratch*, bottom-up over the originally
//! inserted expression tree, and diffs the two.
//!
//! The recomputation deliberately follows each group's **first**
//! expression: exploration rewrites (e.g. eager aggregation) add
//! alternative expressions whose shapes legitimately yield no signature
//! under Fig. 2 even though the group has one — the signature belongs to
//! the logical class, and the first expression mirrors the inserted plan.

use crate::diag::rules;
use cse_diag::Report;
use cse_memo::{compute_signature, GroupId, Memo, TableSignature};
use std::collections::HashMap;

/// Recompute every group's signature from scratch and diff against the
/// incrementally maintained one.
pub fn verify_signatures(memo: &Memo) -> Report {
    let mut report = Report::new();
    let mut cache: HashMap<GroupId, Option<TableSignature>> = HashMap::new();
    for g in memo.groups() {
        let scratch = scratch_signature(memo, g.id, &mut cache);
        let stored = g.props.signature.as_ref();
        if stored != scratch.as_ref() {
            let show =
                |s: Option<&TableSignature>| s.map(|x| x.to_string()).unwrap_or_else(|| "∅".into());
            report.error(
                rules::SIGNATURE_MISMATCH,
                g.id.to_string(),
                format!(
                    "stored signature {} != recomputed {}",
                    show(stored),
                    show(scratch.as_ref())
                ),
            );
        }
    }
    report
}

/// Bottom-up from-scratch signature of a group's first expression tree
/// (acyclic by construction), memoized per group.
fn scratch_signature(
    memo: &Memo,
    g: GroupId,
    cache: &mut HashMap<GroupId, Option<TableSignature>>,
) -> Option<TableSignature> {
    if let Some(s) = cache.get(&g) {
        return s.clone();
    }
    let first = memo.group(g).exprs.first().copied();
    let sig = match first {
        None => None,
        Some(eid) => {
            let e = memo.gexpr(eid);
            let children: Vec<Option<TableSignature>> = e
                .children
                .iter()
                .map(|&c| scratch_signature(memo, c, cache))
                .collect();
            let child_refs: Vec<Option<&TableSignature>> =
                children.iter().map(|c| c.as_ref()).collect();
            compute_signature(&memo.ctx, &e.op, &child_refs)
        }
    };
    cache.insert(g, sig.clone());
    sig
}

#[cfg(test)]
mod tests {
    use super::*;
    use cse_algebra::{LogicalPlan, PlanContext, Scalar};
    use cse_storage::{DataType, Schema};
    use std::sync::Arc;

    #[test]
    fn healthy_memo_is_clean() {
        let mut ctx = PlanContext::new();
        let b = ctx.new_block();
        let schema = Arc::new(Schema::from_pairs(&[("k", DataType::Int)]));
        let r = ctx.add_base_rel("r", "r", schema.clone(), b);
        let s = ctx.add_base_rel("s", "s", schema, b);
        let plan = LogicalPlan::get(r).join(
            LogicalPlan::get(s),
            Scalar::eq(Scalar::col(r, 0), Scalar::col(s, 0)),
        );
        let mut memo = Memo::new(ctx);
        memo.insert_plan(&plan);
        let report = verify_signatures(&memo);
        assert!(report.is_clean(), "{}", report.render());
    }
}
