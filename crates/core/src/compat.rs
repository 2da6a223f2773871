//! Join-compatibility partitioning of a sharable set (paper §4.1).
//!
//! Consumers with the same table signature are aligned onto the anchor's
//! rel ids, their equivalence classes intersected, and the set is split
//! into groups whose members are mutually join compatible (connected
//! intersected equijoin graph).

use cse_algebra::{intersect_classes, is_connected, Alignment, ColRef, RelId, SpjgNormal};
use cse_memo::{GroupId, Memo};
use std::collections::BTreeSet;

/// One consumer prepared for compatibility analysis and construction.
#[derive(Debug, Clone)]
pub struct PreparedConsumer {
    pub group: GroupId,
    /// Normal form in anchor space.
    pub normal: SpjgNormal,
    /// Equivalence classes in anchor space.
    pub classes: Vec<BTreeSet<ColRef>>,
    /// The alignment used (consumer space -> anchor space).
    pub alignment: Alignment,
}

/// Extract + align the consumers of one sharable set; the first that
/// normalizes is the anchor. Consumers whose tree cannot be normalized
/// (non-SPJG shapes) or aligned are dropped.
pub fn prepare_consumers(memo: &Memo, groups: &[GroupId]) -> Vec<PreparedConsumer> {
    let mut prepared: Vec<PreparedConsumer> = Vec::new();
    for &g in groups {
        let anchor = prepared.first().map(|p| p.normal.spj.rels.as_slice());
        let consumer = prepare_onto(memo, anchor, g);
        prepared.extend(consumer);
    }
    prepared
}

/// Extract group `g`'s originally inserted tree, normalize it and align it
/// onto `anchor_rels` (`None`: the consumer is its own anchor). `None` when
/// the tree is not SPJG or references another multiset of tables.
pub(crate) fn prepare_onto(
    memo: &Memo,
    anchor_rels: Option<&[RelId]>,
    g: GroupId,
) -> Option<PreparedConsumer> {
    let normal = memo.first_normal(g)?;
    let (alignment, aligned) = match anchor_rels {
        None => {
            // The identity alignment maps a normal form onto itself.
            let identity = Alignment::identity(&normal.spj.rels);
            debug_assert_eq!(identity.normal_form(&normal), normal);
            (identity, normal)
        }
        Some(anchor) => {
            let alignment = Alignment::new(&memo.ctx, anchor, &normal.spj.rels)?;
            let aligned = alignment.normal_form(&normal);
            (alignment, aligned)
        }
    };
    Some(PreparedConsumer {
        group: g,
        classes: aligned.spj.equiv_classes(),
        normal: aligned,
        alignment,
    })
}

/// Split prepared consumers into mutually join-compatible groups.
///
/// Mirrors the paper's derivation: try adding each consumer to an existing
/// group by intersecting classes and checking connectivity; open a new
/// group when none accepts it. (Compatibility of pairs is not transitive
/// in general, so membership is re-validated against the group's running
/// intersection, which is the property construction actually needs.)
pub fn partition_compatible(consumers: Vec<PreparedConsumer>) -> Vec<CompatibleGroup> {
    let mut groups: Vec<CompatibleGroup> = Vec::new();
    'outer: for c in consumers {
        let rels = c.normal.spj.rel_set();
        for g in &mut groups {
            if rels != g.rel_set {
                continue;
            }
            // Disjoint classes intersected with themselves are themselves.
            let inter = (c.classes != g.intersected_classes)
                .then(|| intersect_classes(&g.intersected_classes, &c.classes));
            if is_connected(rels, inter.as_ref().unwrap_or(&g.intersected_classes)) {
                if let Some(inter) = inter {
                    g.intersected_classes = inter;
                }
                g.members.push(c);
                continue 'outer;
            }
        }
        groups.push(CompatibleGroup {
            rel_set: rels,
            intersected_classes: c.classes.clone(),
            members: vec![c],
        });
    }
    groups
}

/// A set of mutually join-compatible consumers plus the intersection of
/// their equivalence classes (the covering join predicate source).
#[derive(Debug, Clone)]
pub struct CompatibleGroup {
    pub rel_set: cse_algebra::RelSet,
    pub intersected_classes: Vec<BTreeSet<ColRef>>,
    pub members: Vec<PreparedConsumer>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use cse_algebra::{LogicalPlan, PlanContext, Scalar};
    use cse_storage::{DataType, Schema};
    use std::sync::Arc;

    /// Build a memo with two compatible joins and one incompatible join
    /// over the same tables.
    fn build() -> (Memo, Vec<GroupId>) {
        let mut ctx = PlanContext::new();
        let schema = Arc::new(Schema::from_pairs(&[
            ("a", DataType::Int),
            ("b", DataType::Int),
            ("c", DataType::Int),
        ]));
        let mk = |ctx: &mut PlanContext, joincol: u16| {
            let blk = ctx.new_block();
            let r = ctx.add_base_rel("r", "r", schema.clone(), blk);
            let s = ctx.add_base_rel("s", "s", schema.clone(), blk);
            LogicalPlan::get(r).join(
                LogicalPlan::get(s),
                Scalar::eq(Scalar::col(r, joincol), Scalar::col(s, joincol)),
            )
        };
        let q1 = mk(&mut ctx, 0);
        let q2 = mk(&mut ctx, 0); // compatible with q1
        let q3 = mk(&mut ctx, 2); // joins on a different column: incompatible
        let mut memo = Memo::new(ctx);
        let g1 = memo.insert_plan(&q1);
        let g2 = memo.insert_plan(&q2);
        let g3 = memo.insert_plan(&q3);
        memo.insert_plan(&LogicalPlan::Batch {
            children: vec![q1, q2, q3],
        });
        (memo, vec![g1, g2, g3])
    }

    #[test]
    fn partitions_by_compatibility() {
        let (memo, groups) = build();
        let prepared = prepare_consumers(&memo, &groups);
        assert_eq!(prepared.len(), 3);
        let parts = partition_compatible(prepared);
        assert_eq!(parts.len(), 2);
        assert_eq!(parts[0].members.len(), 2);
        assert_eq!(parts[1].members.len(), 1);
        // The compatible pair's intersection keeps the shared join class.
        assert_eq!(parts[0].intersected_classes.len(), 1);
    }

    #[test]
    fn same_shape_different_instances_stay_distinct_groups() {
        // q1 and q2 are textually identical but reference different table
        // instances (fresh RelIds), so they are distinct memo groups — the
        // situation alignment exists for.
        let (memo, groups) = build();
        assert_ne!(groups[0], groups[1]);
        let prepared = prepare_consumers(&memo, &groups[..2]);
        // After alignment both normal forms coincide.
        assert_eq!(prepared[0].normal.spj, prepared[1].normal.spj);
    }
}
