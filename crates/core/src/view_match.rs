//! View matching for covering subexpressions (paper §5.1).
//!
//! Candidate CSEs are treated like materialized views: for each potential
//! consumer, produce the substitute expression — a spool read plus a
//! compensation predicate, an optional re-aggregation, and a projection
//! mapping spool columns back onto the consumer's own output columns.
//!
//! CSEs are constructed to cover their consumers, so matching *should*
//! always succeed; every condition is still verified (tables, equivalence
//! subsumption via construction, predicate implication, rollup validity)
//! and `None` is returned on any mismatch rather than trusting the
//! construction.

use crate::compat::PreparedConsumer;
use crate::construct::ConstructedCse;
use crate::required::RequiredCols;
use cse_algebra::{implies, Antecedent, ColRef, Scalar};
use cse_memo::Memo;
use cse_optimizer::{CseId, Substitute, SubstituteReAgg};
use std::collections::HashMap;

/// Build the substitute rewriting each member of `cse` over its work table,
/// in member order; `None` for a member that does not match.
pub(crate) fn build_substitutes(
    memo: &Memo,
    cse_id: CseId,
    cse: &ConstructedCse,
    required: &RequiredCols,
) -> Vec<Option<Substitute>> {
    // The CSE plan's rels are exactly the anchor rels.
    let mut cse_rels: Vec<_> = cse.plan.rels().iter().collect();
    cse_rels.sort();
    // Members that differ only in join order share their predicates: each
    // distinct one is proved against the covering predicate, and reduced to
    // its compensation, once.
    let mut covered: HashMap<Scalar, bool> = HashMap::new();
    let mut compensation: HashMap<&Scalar, Option<Scalar>> = HashMap::new();
    let cover = Antecedent::new(cse.shape.covering.clone());
    let members = cse.members.iter().zip(&cse.shape.simplified);
    members
        .map(|(member, simplified)| {
            // Table set must match (guaranteed by same-signature detection).
            let mut rels = member.normal.spj.rels.clone();
            rels.sort();
            // The member's predicate must imply the covering predicate.
            let proved = covered
                .entry(member.normal.spj.predicate())
                .or_insert_with_key(|pred| implies(pred, &cse.shape.covering));
            if rels != cse_rels || !*proved {
                return None;
            }
            // Compensation: the member's simplified conjuncts not already
            // guaranteed by the covering predicate.
            let filter = compensation.entry(simplified).or_insert_with(|| {
                let mut conjuncts = simplified.conjuncts();
                conjuncts.retain(|c| !cover.implies(c));
                (!conjuncts.is_empty()).then(|| Scalar::and(conjuncts).into_normal())
            });
            substitute_for(memo, cse_id, cse, member, filter.clone(), required)
        })
        .collect()
}

/// One member's substitute, given its compensation predicate.
fn substitute_for(
    memo: &Memo,
    cse_id: CseId,
    cse: &ConstructedCse,
    member: &PreparedConsumer,
    filter: Option<Scalar>,
    required: &RequiredCols,
) -> Option<Substitute> {
    // The compensation predicate is evaluated over the work table's rows:
    // a consumer admitted after construction (§5.5) may filter on a column
    // the CSE was not built to keep.
    let provided = |f: &Scalar| f.columns().iter().all(|c| cse.shape.output.contains(c));
    if !filter.as_ref().is_none_or(provided) {
        return None;
    }
    match (&member.normal.group, &cse.shape.group) {
        (Some(mg), Some((cse_keys, cse_aggs, cse_out))) => {
            // Grouped consumer over grouped CSE: roll up.
            // Every member key must be a CSE key; every member aggregate
            // must appear among the CSE's aggregates.
            if !mg.keys.iter().all(|k| cse_keys.contains(k)) {
                return None;
            }
            let mut rollups = Vec::with_capacity(mg.aggs.len());
            for a in &mg.aggs {
                let idx = cse_aggs.iter().position(|x| x == a)? as u16;
                rollups.push(a.rollup_over(Scalar::Col(ColRef::new(*cse_out, idx))));
            }
            // Identity fast path: same keys, no compensation — the spool
            // rows are already the consumer's groups.
            let same_keys =
                mg.keys.len() == cse_keys.len() && mg.keys.iter().all(|k| cse_keys.contains(k));
            let consumer_out_cols = memo.group(member.group).props.output_cols.clone();
            if same_keys && filter.is_none() {
                let output_map = consumer_out_cols
                    .iter()
                    .map(|c| {
                        let expr = if c.rel == mg.out {
                            // Aggregate output: same position in CSE aggs.
                            let a = &mg.aggs[c.col as usize];
                            let idx = cse_aggs.iter().position(|x| x == a)? as u16;
                            Scalar::Col(ColRef::new(*cse_out, idx))
                        } else {
                            Scalar::Col(member.alignment.col(*c))
                        };
                        Some((*c, expr))
                    })
                    .collect::<Option<_>>()?;
                return Some(Substitute {
                    cse: cse_id,
                    consumer: member.group,
                    filter: None,
                    reagg: None,
                    output_map,
                });
            }
            // General path: re-aggregate at the consumer's granularity.
            // A scalar aggregate answers no rows with one row.
            if mg.keys.is_empty() && !mg.aggs.iter().all(|a| a.func.rolls_up_from_nothing()) {
                return None;
            }
            let anchor_keys: Vec<ColRef> = mg.keys.clone();
            let output_map = consumer_out_cols
                .iter()
                .map(|c| {
                    let expr = if c.rel == mg.out {
                        Scalar::Col(*c) // produced by the re-aggregation
                    } else {
                        Scalar::Col(member.alignment.col(*c))
                    };
                    (*c, expr)
                })
                .collect();
            Some(Substitute {
                cse: cse_id,
                consumer: member.group,
                filter,
                reagg: Some(SubstituteReAgg {
                    keys: anchor_keys,
                    aggs: rollups,
                    out: mg.out,
                }),
                output_map,
            })
        }
        (None, None) => {
            // SPJ over SPJ: filter + column remap.
            let mut need: Vec<ColRef> = required.cols(member.group).collect();
            if need.is_empty() {
                need = memo.group(member.group).props.output_cols.clone();
            }
            // Every needed column must be materialized by the CSE.
            let output_map: Option<Vec<(ColRef, Scalar)>> = need
                .iter()
                .map(|c| {
                    let anchor = member.alignment.col(*c);
                    if cse.shape.output.contains(&anchor) {
                        Some((*c, Scalar::Col(anchor)))
                    } else {
                        None
                    }
                })
                .collect();
            Some(Substitute {
                cse: cse_id,
                consumer: member.group,
                filter,
                reagg: None,
                output_map: output_map?,
            })
        }
        // Mixed shapes can't share a signature.
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compat::{partition_compatible, prepare_consumers};
    use crate::construct::construct;
    use crate::manager::CseManager;
    use crate::required::compute_required;
    use cse_algebra::{LogicalPlan, PlanContext, Scalar};
    use cse_storage::{DataType, Schema};
    use std::sync::Arc;

    /// Two SPJ queries over (ta ⋈ tb) with different filters.
    fn setup() -> (Memo, Vec<cse_memo::GroupId>) {
        let mut ctx = PlanContext::new();
        let schema = Arc::new(Schema::from_pairs(&[
            ("k", DataType::Int),
            ("v", DataType::Int),
        ]));
        let mk = |ctx: &mut PlanContext, hi: i64| {
            let b = ctx.new_block();
            let a = ctx.add_base_rel("ta", "ta", schema.clone(), b);
            let t = ctx.add_base_rel("tb", "tb", schema.clone(), b);
            LogicalPlan::get(a)
                .filter(Scalar::cmp(
                    cse_algebra::CmpOp::Lt,
                    Scalar::col(a, 1),
                    Scalar::int(hi),
                ))
                .join(
                    LogicalPlan::get(t),
                    Scalar::eq(Scalar::col(a, 0), Scalar::col(t, 0)),
                )
                .project(vec![
                    ("k".into(), Scalar::col(a, 0)),
                    ("v".into(), Scalar::col(t, 1)),
                ])
        };
        let q1 = mk(&mut ctx, 10);
        let q2 = mk(&mut ctx, 20);
        let mut memo = Memo::new(ctx);
        let root = memo.insert_plan(&LogicalPlan::Batch {
            children: vec![q1, q2],
        });
        memo.set_root(root);
        let mgr = CseManager::build(&memo);
        let sets = mgr.sharable_sets();
        assert_eq!(sets.len(), 1);
        (memo, sets.into_iter().next().unwrap().1)
    }

    #[test]
    fn spj_substitute_has_compensation_and_mapping() {
        let (mut memo, consumers) = setup();
        let required = compute_required(&memo, &[memo.root()]);
        let prepared = prepare_consumers(&memo, &consumers);
        let groups = partition_compatible(prepared);
        assert_eq!(groups.len(), 1);
        let cse = construct(&mut memo, groups[0].members.clone(), &required).unwrap();
        // The < 20 member's compensation... member 0 is < 10 (covering is
        // the hull < 20, so member 0 keeps its filter, member 1 may not).
        let mut subs = build_substitutes(&memo, CseId(0), &cse, &required).into_iter();
        let (s0, s1) = (subs.next().unwrap().unwrap(), subs.next().unwrap().unwrap());
        // Exactly one of them needs no compensation (the wider range).
        assert!(s0.filter.is_some() ^ s1.filter.is_some());
        assert!(!s0.output_map.is_empty());
        assert!(s1.reagg.is_none());
        // Output map targets are the consumer's own columns.
        for (c, _) in &s0.output_map {
            assert!(memo.group(s0.consumer).props.output_cols.contains(c));
        }
    }

    #[test]
    fn substitute_maps_second_consumer_through_alignment() {
        let (mut memo, consumers) = setup();
        let required = compute_required(&memo, &[memo.root()]);
        let prepared = prepare_consumers(&memo, &consumers);
        let anchor_rels = prepared[0].normal.spj.rels.clone();
        let groups = partition_compatible(prepared);
        let cse = construct(&mut memo, groups[0].members.clone(), &required).unwrap();
        let s1 = build_substitutes(&memo, CseId(0), &cse, &required)
            .remove(1)
            .unwrap();
        // Every defining expression references anchor rels only.
        for (_, e) in &s1.output_map {
            for c in e.columns() {
                assert!(anchor_rels.contains(&c.rel), "{c} not in anchor space");
            }
        }
    }
}
