//! SPJG normal form (paper §4): `[γ] σ_p (T1 × T2 × ... × Tn)`.
//!
//! Covering-subexpression construction and view matching both operate on
//! this form: all selection and join predicates pulled into one conjunct
//! set over a flat cross product, with at most one group-by on top.

use crate::agg::AggExpr;
use crate::equiv::EquivClasses;
use crate::ids::{ColRef, RelId, RelSet};
use crate::logical::LogicalPlan;
use crate::scalar::Scalar;
use std::collections::BTreeSet;

/// Normalized select-project-join expression.
#[derive(Debug, Clone, PartialEq)]
pub struct SpjNormal {
    /// Sorted table instances.
    pub rels: Vec<RelId>,
    /// All predicate conjuncts (selection + join), normalized and sorted.
    pub conjuncts: Vec<Scalar>,
}

impl SpjNormal {
    pub fn rel_set(&self) -> RelSet {
        RelSet::from_iter(self.rels.iter().copied())
    }

    /// Equivalence classes induced by this expression's equijoin conjuncts.
    pub fn equiv_classes(&self) -> Vec<BTreeSet<ColRef>> {
        EquivClasses::from_conjuncts(&self.conjuncts).classes()
    }

    /// The whole predicate as one normalized conjunction.
    pub fn predicate(&self) -> Scalar {
        Scalar::and(self.conjuncts.iter().cloned()).into_normal()
    }
}

/// Group-by on top of an SPJ.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupSpec {
    pub keys: Vec<ColRef>,
    pub aggs: Vec<AggExpr>,
    /// The synthetic rel whose columns are the aggregate outputs.
    pub out: RelId,
}

/// Normalized SPJG expression.
#[derive(Debug, Clone, PartialEq)]
pub struct SpjgNormal {
    pub spj: SpjNormal,
    pub group: Option<GroupSpec>,
}

impl SpjgNormal {
    /// Extract the normal form from a logical plan subtree, if the subtree
    /// is an SPJG expression (Get/Filter/Join with at most one Aggregate on
    /// top). Projections and sorts make an expression non-SPJG here; the
    /// planner keeps those at the root, above the extraction point.
    pub fn from_plan(plan: &LogicalPlan) -> Option<SpjgNormal> {
        match plan {
            LogicalPlan::Aggregate {
                input,
                keys,
                aggs,
                out,
            } => {
                let spj = collect_spj(input)?;
                Some(SpjgNormal {
                    spj,
                    group: Some(GroupSpec {
                        keys: keys.clone(),
                        aggs: aggs.iter().map(AggExpr::normalize).collect(),
                        out: *out,
                    }),
                })
            }
            _ => Some(SpjgNormal {
                spj: collect_spj(plan)?,
                group: None,
            }),
        }
    }

    /// `true` iff the expression has a group-by (the `G` flag of the table
    /// signature).
    pub fn has_group(&self) -> bool {
        self.group.is_some()
    }

    /// The columns a parent needs from this expression's output.
    pub fn output_cols(&self) -> Vec<ColRef> {
        match &self.group {
            Some(g) => {
                let mut cols = g.keys.clone();
                cols.extend((0..g.aggs.len()).map(|i| ColRef::new(g.out, i as u16)));
                cols
            }
            None => Vec::new(), // SPJ exposes all input columns; callers use rels
        }
    }
}

/// Flatten a pure SPJ tree into (rels, conjuncts); `None` if the subtree
/// contains anything but Get/Filter/Join.
fn collect_spj(plan: &LogicalPlan) -> Option<SpjNormal> {
    let mut rels = Vec::new();
    let mut conjuncts = Vec::new();
    fn walk(plan: &LogicalPlan, rels: &mut Vec<RelId>, conj: &mut Vec<Scalar>) -> bool {
        match plan {
            LogicalPlan::Get { rel } => {
                rels.push(*rel);
                true
            }
            LogicalPlan::Filter { input, pred } => {
                conj.extend(pred.conjuncts());
                walk(input, rels, conj)
            }
            LogicalPlan::Join { left, right, pred } => {
                conj.extend(pred.conjuncts());
                walk(left, rels, conj) && walk(right, rels, conj)
            }
            _ => false,
        }
    }
    if !walk(plan, &mut rels, &mut conjuncts) {
        return None;
    }
    rels.sort();
    let mut conjuncts: Vec<Scalar> = conjuncts.iter().map(Scalar::normalize).collect();
    conjuncts.sort();
    conjuncts.dedup();
    Some(SpjNormal { rels, conjuncts })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::PlanContext;
    use cse_storage::{DataType, Schema};
    use std::sync::Arc;

    fn setup() -> (PlanContext, RelId, RelId, RelId) {
        let mut ctx = PlanContext::new();
        let b = ctx.new_block();
        let schema = Arc::new(Schema::from_pairs(&[
            ("k", DataType::Int),
            ("v", DataType::Float),
        ]));
        let a = ctx.add_base_rel("a", "a", schema.clone(), b);
        let bb = ctx.add_base_rel("b", "b", schema.clone(), b);
        let c = ctx.add_base_rel("c", "c", schema, b);
        (ctx, a, bb, c)
    }

    #[test]
    fn flattens_join_tree() {
        let (_, a, b, c) = setup();
        // (a ⋈ b) ⋈ c with filters on a and c.
        let plan = LogicalPlan::get(a)
            .filter(Scalar::cmp(
                crate::scalar::CmpOp::Gt,
                Scalar::col(a, 0),
                Scalar::int(0),
            ))
            .join(
                LogicalPlan::get(b),
                Scalar::eq(Scalar::col(a, 0), Scalar::col(b, 0)),
            )
            .join(
                LogicalPlan::get(c).filter(Scalar::eq(Scalar::col(c, 1), Scalar::int(1))),
                Scalar::eq(Scalar::col(b, 0), Scalar::col(c, 0)),
            );
        let n = SpjgNormal::from_plan(&plan).unwrap();
        assert!(!n.has_group());
        assert_eq!(n.spj.rels, vec![a, b, c]);
        assert_eq!(n.spj.conjuncts.len(), 4);
        assert_eq!(n.spj.equiv_classes().len(), 1); // a.k = b.k = c.k chains
        let local = n
            .spj
            .conjuncts
            .iter()
            .filter(|c| c.as_col_eq_col().is_none());
        assert_eq!(local.count(), 2);
    }

    #[test]
    fn aggregate_on_top() {
        let (mut ctx, a, b, _) = setup();
        let blk = ctx.new_block();
        let out = ctx.add_agg_output(&[DataType::Float], blk);
        let plan = LogicalPlan::Aggregate {
            input: Box::new(LogicalPlan::get(a).join(
                LogicalPlan::get(b),
                Scalar::eq(Scalar::col(a, 0), Scalar::col(b, 0)),
            )),
            keys: vec![ColRef::new(a, 0)],
            aggs: vec![AggExpr::sum(Scalar::col(b, 1))],
            out,
        };
        let n = SpjgNormal::from_plan(&plan).unwrap();
        assert!(n.has_group());
        assert_eq!(
            n.output_cols(),
            vec![ColRef::new(a, 0), ColRef::new(out, 0)]
        );
    }

    #[test]
    fn project_is_not_spjg() {
        let (_, a, _, _) = setup();
        let plan = LogicalPlan::get(a).project(vec![("x".into(), Scalar::col(a, 0))]);
        assert!(SpjgNormal::from_plan(&plan).is_none());
    }

    #[test]
    fn normal_form_is_order_insensitive() {
        let (_, a, b, _) = setup();
        let j1 = LogicalPlan::get(a).join(
            LogicalPlan::get(b),
            Scalar::eq(Scalar::col(a, 0), Scalar::col(b, 0)),
        );
        let j2 = LogicalPlan::get(b).join(
            LogicalPlan::get(a),
            Scalar::eq(Scalar::col(b, 0), Scalar::col(a, 0)),
        );
        assert_eq!(
            SpjgNormal::from_plan(&j1).unwrap().spj,
            SpjgNormal::from_plan(&j2).unwrap().spj
        );
    }
}
