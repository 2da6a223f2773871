//! Consumer alignment: mapping every consumer's table instances onto a
//! common ("anchor") set of instances.
//!
//! Expressions with the same table signature reference the same multiset
//! of base tables, but through per-query [`RelId`]s. The first consumer is
//! the *anchor*; every other consumer's instances are matched positionally
//! after sorting by (table name, rel id). For the self-join-free queries
//! of the paper's experiments this alignment is exact; with self-joins it
//! picks one of the possible correspondences (documented limitation).
//! `cse-core`'s compatibility phase and `cse-lint`'s share pass both align
//! through it.

use crate::context::PlanContext;
use crate::ids::{ColRef, RelId};
use crate::normal_form::{GroupSpec, SpjNormal, SpjgNormal};
use crate::scalar::Scalar;
use std::collections::HashMap;

/// Column/rel mapping from one consumer's space into the anchor space.
#[derive(Debug, Clone)]
pub struct Alignment {
    /// consumer rel -> anchor rel
    rel_map: HashMap<RelId, RelId>,
}

impl Alignment {
    /// Identity alignment (for the anchor itself).
    pub fn identity(rels: &[RelId]) -> Self {
        Alignment {
            rel_map: rels.iter().map(|r| (*r, *r)).collect(),
        }
    }

    /// Align `consumer` rels onto `anchor` rels. Both lists must reference
    /// the same multiset of table names. Returns `None` on mismatch.
    pub fn new(ctx: &PlanContext, anchor: &[RelId], consumer: &[RelId]) -> Option<Alignment> {
        if anchor.len() != consumer.len() {
            return None;
        }
        let sort_key = |r: &RelId| (ctx.rel(*r).name.clone(), *r);
        let mut a: Vec<RelId> = anchor.to_vec();
        let mut c: Vec<RelId> = consumer.to_vec();
        a.sort_by_key(sort_key);
        c.sort_by_key(sort_key);
        let mut rel_map = HashMap::with_capacity(a.len());
        for (ca, cc) in a.iter().zip(c.iter()) {
            if ctx.rel(*ca).name != ctx.rel(*cc).name {
                return None;
            }
            rel_map.insert(*cc, *ca);
        }
        Some(Alignment { rel_map })
    }

    /// Map a consumer column into anchor space (columns of unmapped rels —
    /// e.g. aggregate outputs — pass through unchanged).
    pub fn col(&self, c: ColRef) -> ColRef {
        match self.rel_map.get(&c.rel) {
            Some(anchor_rel) => ColRef::new(*anchor_rel, c.col),
            None => c,
        }
    }

    /// Map a consumer rel into anchor space.
    pub fn rel(&self, r: RelId) -> RelId {
        self.rel_map.get(&r).copied().unwrap_or(r)
    }

    /// Rewrite a scalar into anchor space.
    pub fn scalar(&self, s: &Scalar) -> Scalar {
        s.rewrite_cols(&|c| Scalar::Col(self.col(c))).into_normal()
    }

    /// Align a whole normal form into anchor space (the group spec's `out`
    /// rel is left in consumer space deliberately — consumers keep their
    /// own aggregate identities).
    pub fn normal_form(&self, n: &SpjgNormal) -> SpjgNormal {
        let mut rels: Vec<RelId> = n.spj.rels.iter().map(|r| self.rel(*r)).collect();
        rels.sort();
        let mut conjuncts: Vec<Scalar> = n.spj.conjuncts.iter().map(|c| self.scalar(c)).collect();
        conjuncts.sort();
        conjuncts.dedup();
        SpjgNormal {
            spj: SpjNormal { rels, conjuncts },
            group: n.group.as_ref().map(|g| GroupSpec {
                keys: g.keys.iter().map(|k| self.col(*k)).collect(),
                aggs: g
                    .aggs
                    .iter()
                    .map(|a| a.rewrite_cols(&|c| Scalar::Col(self.col(c))).normalize())
                    .collect(),
                out: g.out,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cse_storage::{DataType, Schema};
    use std::sync::Arc;

    fn ctx_two_queries() -> (PlanContext, Vec<RelId>, Vec<RelId>) {
        let mut ctx = PlanContext::new();
        let schema = Arc::new(Schema::from_pairs(&[
            ("k", DataType::Int),
            ("v", DataType::Int),
        ]));
        let b1 = ctx.new_block();
        let q1 = vec![
            ctx.add_base_rel("cust", "c", schema.clone(), b1),
            ctx.add_base_rel("ord", "o", schema.clone(), b1),
        ];
        let b2 = ctx.new_block();
        // Reversed declaration order in the second query.
        let o2 = ctx.add_base_rel("ord", "o2", schema.clone(), b2);
        let c2 = ctx.add_base_rel("cust", "c2", schema.clone(), b2);
        (ctx, q1, vec![o2, c2])
    }

    #[test]
    fn aligns_by_table_name() {
        let (ctx, q1, q2) = ctx_two_queries();
        let al = Alignment::new(&ctx, &q1, &q2).unwrap();
        // q2's ord instance maps to q1's ord instance.
        assert_eq!(al.rel(q2[0]), q1[1]);
        assert_eq!(al.rel(q2[1]), q1[0]);
        assert_eq!(al.col(ColRef::new(q2[0], 1)), ColRef::new(q1[1], 1));
    }

    #[test]
    fn rejects_different_tables() {
        let (mut ctx, q1, _) = ctx_two_queries();
        let b = ctx.new_block();
        let schema = Arc::new(Schema::from_pairs(&[("k", DataType::Int)]));
        let other = ctx.add_base_rel("zzz", "z", schema.clone(), b);
        let other2 = ctx.add_base_rel("cust", "c3", schema, b);
        assert!(Alignment::new(&ctx, &q1, &[other, other2]).is_none());
        assert!(Alignment::new(&ctx, &q1, &[other]).is_none());
    }

    #[test]
    fn scalar_rewrite() {
        let (ctx, q1, q2) = ctx_two_queries();
        let al = Alignment::new(&ctx, &q1, &q2).unwrap();
        let s = Scalar::eq(Scalar::col(q2[0], 0), Scalar::col(q2[1], 0));
        let mapped = al.scalar(&s);
        let expect = Scalar::eq(Scalar::col(q1[1], 0), Scalar::col(q1[0], 0)).normalize();
        assert_eq!(mapped, expect);
    }

    #[test]
    fn identity_maps_self() {
        let (_, q1, _) = ctx_two_queries();
        let al = Alignment::identity(&q1);
        assert_eq!(al.rel(q1[0]), q1[0]);
    }
}
