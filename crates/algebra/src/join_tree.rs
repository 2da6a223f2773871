//! Left-deep join trees over conjunct lists: the one builder behind both a
//! lowered statement's FROM clause and a covering subexpression's
//! definition plan (paper §4.2, step 6).

use crate::ids::{RelId, RelSet};
use crate::logical::LogicalPlan;
use crate::scalar::Scalar;

/// Remove from `remaining`, and return in order, every conjunct that
/// references at least one rel and only rels of `set`.
pub fn take_covered(remaining: &mut Vec<Scalar>, set: RelSet) -> Vec<Scalar> {
    let mut out = Vec::new();
    remaining.retain(|c| {
        let r = c.rels();
        if !r.is_empty() && r.is_subset(set) {
            out.push(c.clone());
            false
        } else {
            true
        }
    });
    out
}

/// Join `order` left-deep: each rel is a leaf filtered by the conjuncts
/// over it alone, and each join carries the conjuncts its inputs first
/// cover together (TRUE, a cross join, when none does). Returns the tree
/// and the residue no join covers — conjuncts over no rel or over a rel
/// outside `order` — for the caller's top filter; `None` when `order` is
/// empty.
pub fn left_deep(
    order: &[RelId],
    mut conjuncts: Vec<Scalar>,
) -> Option<(LogicalPlan, Vec<Scalar>)> {
    let mut plan: Option<LogicalPlan> = None;
    let mut covered = RelSet::EMPTY;
    for &r in order {
        let leaf_set = RelSet::single(r);
        let leaf = LogicalPlan::get(r).filter(Scalar::and(take_covered(&mut conjuncts, leaf_set)));
        covered = covered.union(leaf_set);
        plan = Some(match plan {
            None => leaf,
            Some(p) => {
                let join_pred = take_covered(&mut conjuncts, covered);
                p.join(leaf, Scalar::and(join_pred).into_normal())
            }
        });
    }
    Some((plan?, conjuncts))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scalar::CmpOp;

    fn col(r: u32, c: u16) -> Scalar {
        Scalar::col(RelId(r), c)
    }

    #[test]
    fn a_disconnected_order_cross_joins_and_leaves_the_rest_as_residue() {
        let local = Scalar::cmp(CmpOp::Lt, col(0, 0), Scalar::int(5));
        let across = Scalar::cmp(CmpOp::Lt, col(0, 1), col(1, 1));
        // Over no rel, and over a rel the order does not hold.
        let constant = Scalar::cmp(CmpOp::Lt, Scalar::int(1), Scalar::int(2));
        let outside = Scalar::eq(col(1, 0), col(2, 0));
        let conjuncts = vec![constant.clone(), local.clone(), outside.clone()];
        let (plan, residue) = left_deep(&[RelId(0), RelId(1)], conjuncts).unwrap();
        let LogicalPlan::Join { left, right, pred } = &plan else {
            panic!("expected a join: {plan:?}");
        };
        assert!(pred.is_true(), "no conjunct joins the two rels: {pred}");
        assert_eq!(**left, LogicalPlan::get(RelId(0)).filter(local.clone()));
        assert_eq!(**right, LogicalPlan::get(RelId(1)));
        assert_eq!(residue, vec![constant.clone(), outside]);

        // A conjunct over both rels lands on their join, not in the residue.
        let conjuncts = vec![constant.clone(), across.clone()];
        let (plan, residue) = left_deep(&[RelId(0), RelId(1)], conjuncts).unwrap();
        assert!(matches!(&plan, LogicalPlan::Join { pred, .. } if *pred == across.normalize()));
        assert_eq!(residue, vec![constant]);
        assert!(left_deep(&[], vec![local]).is_none());
    }
}
