//! Cross-statement batch analysis (analyzer pass 4).
//!
//! Computes the paper's table signatures *statically* — straight from the
//! lowered statement trees, before any memo exists — and reports pairwise
//! CSE-opportunity hints: two statements whose SPJG cores share a
//! signature are candidates for one covering subexpression, and the
//! join-compatibility test of §4.1 (connectivity of the intersected
//! equijoin graph, after aligning the second statement's table instances
//! onto the first's) decides whether construction could actually cover
//! them.
//!
//! This is the lint-time mirror of what `cse-core`'s detection phase does
//! over the memo; agreement between the two is checked by the end-to-end
//! tests (a `lint/share-hint` on statements that the pipeline then covers
//! with a spool).

use cse_algebra::{join_compatible, ColRef, LogicalPlan, PlanContext, RelId, SpjgNormal};
use cse_memo::TableSignature;
use std::collections::BTreeMap;
use std::collections::BTreeSet;

/// Strip root-level `Project`/`Sort` wrappers: `SpjgNormal::from_plan`
/// deliberately refuses them, and every lowered statement keeps them at
/// the root.
pub fn strip_root(plan: &LogicalPlan) -> &LogicalPlan {
    let mut node = plan;
    loop {
        match node {
            LogicalPlan::Project { input, .. } | LogicalPlan::Sort { input, .. } => node = input,
            other => return other,
        }
    }
}

/// The table signature of an SPJG normal form, computed without a memo:
/// `grouped` from the normal form, tables as the sorted multiset of base
/// names (matching `cse-memo::compute_signature`).
pub fn static_signature(ctx: &PlanContext, normal: &SpjgNormal) -> TableSignature {
    let mut tables: Vec<String> = normal
        .spj
        .rels
        .iter()
        .map(|r| ctx.rel(*r).name.clone())
        .collect();
    tables.sort();
    TableSignature {
        grouped: normal.has_group(),
        tables,
    }
}

/// One pairwise share verdict between statements `i` and `j` (batch
/// order) with a common signature.
#[derive(Debug, Clone)]
pub struct ShareVerdict {
    pub i: usize,
    pub j: usize,
    pub signature: TableSignature,
    /// §4.1 verdict: is the intersected equijoin graph connected?
    pub compatible: bool,
}

/// Map statement `j`'s rel ids onto statement `i`'s, pairing instances of
/// the same base table in sorted-name order (the same convention
/// `cse-core`'s alignment uses for self-join disambiguation).
fn align_rels(
    ctx: &PlanContext,
    rels_i: &[RelId],
    rels_j: &[RelId],
) -> Option<BTreeMap<RelId, RelId>> {
    if rels_i.len() != rels_j.len() {
        return None;
    }
    let by_name = |rels: &[RelId]| -> Vec<(String, RelId)> {
        let mut v: Vec<(String, RelId)> = rels
            .iter()
            .map(|r| (ctx.rel(*r).name.clone(), *r))
            .collect();
        v.sort();
        v
    };
    let (a, b) = (by_name(rels_i), by_name(rels_j));
    let mut map = BTreeMap::new();
    for ((na, ra), (nb, rb)) in a.iter().zip(b.iter()) {
        if na != nb {
            return None; // different table multisets
        }
        map.insert(*rb, *ra);
    }
    Some(map)
}

/// Compute pairwise share hints for the batch. `normals` holds
/// `(statement index, SPJG normal form)` for every statement that lowered
/// cleanly and has an SPJG core.
pub fn share_hints(ctx: &PlanContext, normals: &[(usize, SpjgNormal)]) -> Vec<ShareVerdict> {
    let mut out = Vec::new();
    for (a, (i, ni)) in normals.iter().enumerate() {
        let sig_i = static_signature(ctx, ni);
        for (j, nj) in normals.iter().skip(a + 1) {
            let sig_j = static_signature(ctx, nj);
            if sig_i != sig_j {
                continue;
            }
            let Some(map) = align_rels(ctx, &ni.spj.rels, &nj.spj.rels) else {
                continue;
            };
            // Rewrite j's equivalence classes into i's rel-id space.
            let classes_i = ni.spj.equiv_classes();
            let classes_j: Vec<BTreeSet<ColRef>> = nj
                .spj
                .equiv_classes()
                .into_iter()
                .map(|cl| {
                    cl.into_iter()
                        .map(|c| ColRef::new(*map.get(&c.rel).unwrap_or(&c.rel), c.col))
                        .collect()
                })
                .collect();
            let compatible =
                join_compatible(ni.spj.rel_set(), &[classes_i.clone(), classes_j]).is_some();
            out.push(ShareVerdict {
                i: *i,
                j: *j,
                signature: sig_i.clone(),
                compatible,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cse_algebra::{CmpOp, Scalar};
    use cse_storage::{DataType, Schema};
    use std::sync::Arc;

    /// Two two-table statements over (customer, orders): one pair joined
    /// on custkey=custkey in both (compatible), one joined on different
    /// classes (incompatible).
    fn setup() -> (PlanContext, Vec<(usize, SpjgNormal)>) {
        let mut ctx = PlanContext::new();
        let cust = Arc::new(Schema::from_pairs(&[
            ("c_custkey", DataType::Int),
            ("c_nationkey", DataType::Int),
        ]));
        let ord = Arc::new(Schema::from_pairs(&[
            ("o_orderkey", DataType::Int),
            ("o_custkey", DataType::Int),
        ]));
        let mut normals = Vec::new();
        for stmt in 0..3 {
            let b = ctx.new_block();
            let c = ctx.add_base_rel("customer", "c", cust.clone(), b);
            let o = ctx.add_base_rel("orders", "o", ord.clone(), b);
            // Statements 0 and 1 join c_custkey = o_custkey; statement 2
            // joins c_nationkey = o_orderkey (disjoint classes).
            let pred = if stmt < 2 {
                Scalar::eq(Scalar::col(c, 0), Scalar::col(o, 1))
            } else {
                Scalar::eq(Scalar::col(c, 1), Scalar::col(o, 0))
            };
            let plan = LogicalPlan::get(c)
                .join(LogicalPlan::get(o), pred)
                .filter(Scalar::cmp(
                    CmpOp::Gt,
                    Scalar::col(c, 1),
                    Scalar::int(stmt as i64),
                ))
                .project(vec![("x".into(), Scalar::col(c, 0))]);
            let normal = SpjgNormal::from_plan(strip_root(&plan)).unwrap();
            normals.push((stmt, normal));
        }
        (ctx, normals)
    }

    #[test]
    fn signatures_match_across_statements() {
        let (ctx, normals) = setup();
        let s0 = static_signature(&ctx, &normals[0].1);
        let s2 = static_signature(&ctx, &normals[2].1);
        assert_eq!(s0, s2);
        assert_eq!(s0.to_string(), "[F; {customer,orders}]");
    }

    #[test]
    fn pairwise_verdicts() {
        let (ctx, normals) = setup();
        let hints = share_hints(&ctx, &normals);
        // Three statements with one signature: 3 pairs.
        assert_eq!(hints.len(), 3);
        let verdict = |i: usize, j: usize| {
            hints
                .iter()
                .find(|h| h.i == i && h.j == j)
                .expect("pair present")
                .compatible
        };
        assert!(verdict(0, 1), "same join class: compatible");
        assert!(!verdict(0, 2), "disjoint join classes: incompatible");
        assert!(!verdict(1, 2));
    }

    #[test]
    fn different_signatures_produce_no_hint() {
        let mut ctx = PlanContext::new();
        let b = ctx.new_block();
        let s = Arc::new(Schema::from_pairs(&[("k", DataType::Int)]));
        let t = ctx.add_base_rel("t", "t", s.clone(), b);
        let u = ctx.add_base_rel("u", "u", s, b);
        let n1 = SpjgNormal::from_plan(&LogicalPlan::get(t)).unwrap();
        let n2 = SpjgNormal::from_plan(&LogicalPlan::get(u)).unwrap();
        assert!(share_hints(&ctx, &[(0, n1), (1, n2)]).is_empty());
    }

    #[test]
    fn single_table_statements_are_trivially_compatible() {
        let mut ctx = PlanContext::new();
        let s = Arc::new(Schema::from_pairs(&[("k", DataType::Int)]));
        let b1 = ctx.new_block();
        let t1 = ctx.add_base_rel("t", "t", s.clone(), b1);
        let b2 = ctx.new_block();
        let t2 = ctx.add_base_rel("t", "t", s, b2);
        let n1 = SpjgNormal::from_plan(&LogicalPlan::get(t1)).unwrap();
        let n2 = SpjgNormal::from_plan(&LogicalPlan::get(t2)).unwrap();
        let hints = share_hints(&ctx, &[(0, n1), (1, n2)]);
        assert_eq!(hints.len(), 1);
        assert!(hints[0].compatible);
    }
}
