//! Table signatures (paper §3).
//!
//! A table signature `S_e = [G_e; T_e]` exists iff `e` is an SPJG
//! expression: `G_e` says whether a group-by is present, `T_e` is the
//! multiset of source tables. The rules of the paper's Figure 2 compute the
//! signature of an operator from its inputs' signatures alone, so the memo
//! computes them incrementally as groups are created — the "extremely
//! lightweight" property the paper requires.
//!
//! A delta table (view maintenance, §6.4) is a catalog table under its own
//! name (chosen in `cse-storage::delta`), so a delta-driven expression
//! never shares a signature with a base-table expression over the table it
//! shadows.

use crate::op::Op;
use cse_algebra::{PlanContext, RelKind};
use std::fmt;

/// `[G; {tables}]` — tables kept as a *sorted multiset* of names so that
/// self-joins are distinguished from single references.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TableSignature {
    pub grouped: bool,
    pub tables: Vec<String>,
}

impl TableSignature {
    fn leaf(table: String) -> Self {
        TableSignature {
            grouped: false,
            tables: vec![table],
        }
    }

    /// Number of source tables (with multiplicity).
    pub fn table_count(&self) -> usize {
        self.tables.len()
    }

    /// Is `self`'s table multiset a sub-multiset of `other`'s? Used by the
    /// containment heuristic (paper Definition 4.2, first condition).
    pub fn tables_subset_of(&self, other: &TableSignature) -> bool {
        let mut it = other.tables.iter();
        'outer: for t in &self.tables {
            for o in it.by_ref() {
                match o.as_str().cmp(t.as_str()) {
                    std::cmp::Ordering::Less => continue,
                    std::cmp::Ordering::Equal => continue 'outer,
                    std::cmp::Ordering::Greater => return false,
                }
            }
            return false;
        }
        true
    }
}

impl fmt::Display for TableSignature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}; {{{}}}]",
            if self.grouped { "T" } else { "F" },
            self.tables.join(",")
        )
    }
}

/// Figure 2's rules: compute the signature of `op` from its children's
/// signatures. `None` means "no signature" (S_e = ∅): the expression is not
/// SPJG, or a child already lost its signature.
pub fn compute_signature(
    ctx: &PlanContext,
    op: &Op,
    children: &[Option<&TableSignature>],
) -> Option<TableSignature> {
    match op {
        Op::Get { rel } => {
            let info = ctx.rel(*rel);
            let name = match info.kind {
                RelKind::Base => info.name.clone(),
                // Aggregate outputs never appear as Get leaves.
                RelKind::AggOutput => return None,
            };
            Some(TableSignature::leaf(name))
        }
        // Select and Project preserve the signature only below a group-by.
        Op::Filter { .. } | Op::Project { .. } => {
            let c = children.first().copied().flatten()?;
            if c.grouped {
                None
            } else {
                Some(c.clone())
            }
        }
        Op::Join { .. } => {
            let l = children.first().copied().flatten()?;
            let r = children.get(1).copied().flatten()?;
            if l.grouped || r.grouped {
                return None;
            }
            let mut tables = Vec::with_capacity(l.tables.len() + r.tables.len());
            tables.extend(l.tables.iter().cloned());
            tables.extend(r.tables.iter().cloned());
            tables.sort();
            Some(TableSignature {
                grouped: false,
                tables,
            })
        }
        Op::Aggregate { .. } => {
            let c = children.first().copied().flatten()?;
            if c.grouped {
                // At most one group-by in an SPJG expression.
                None
            } else {
                Some(TableSignature {
                    grouped: true,
                    tables: c.tables.clone(),
                })
            }
        }
        Op::Sort { .. } | Op::Batch => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cse_storage::{DataType, Schema};
    use std::sync::Arc;

    fn ctx_with(tables: &[&str]) -> (PlanContext, Vec<cse_algebra::RelId>) {
        let mut ctx = PlanContext::new();
        let b = ctx.new_block();
        let schema = Arc::new(Schema::from_pairs(&[("k", DataType::Int)]));
        let rels = tables
            .iter()
            .map(|t| ctx.add_base_rel(*t, *t, schema.clone(), b))
            .collect();
        (ctx, rels)
    }

    #[test]
    fn leaf_and_join() {
        let (ctx, rels) = ctx_with(&["b_tab", "a_tab"]);
        let sa = compute_signature(&ctx, &Op::Get { rel: rels[0] }, &[]).unwrap();
        let sb = compute_signature(&ctx, &Op::Get { rel: rels[1] }, &[]).unwrap();
        let j =
            compute_signature(&ctx, &Op::Join { pred: vec![] }, &[Some(&sa), Some(&sb)]).unwrap();
        assert_eq!(j.tables, vec!["a_tab".to_string(), "b_tab".to_string()]);
        assert!(!j.grouped);
    }

    #[test]
    fn filter_preserves_below_groupby_only() {
        let (ctx, rels) = ctx_with(&["t"]);
        let s = compute_signature(&ctx, &Op::Get { rel: rels[0] }, &[]).unwrap();
        let f = compute_signature(&ctx, &Op::Filter { pred: vec![] }, &[Some(&s)]).unwrap();
        assert_eq!(f, s);
        let grouped = TableSignature {
            grouped: true,
            tables: vec!["t".into()],
        };
        assert!(compute_signature(&ctx, &Op::Filter { pred: vec![] }, &[Some(&grouped)]).is_none());
    }

    #[test]
    fn aggregate_sets_flag_once() {
        let (ctx, rels) = ctx_with(&["t"]);
        let s = compute_signature(&ctx, &Op::Get { rel: rels[0] }, &[]).unwrap();
        let agg_op = Op::Aggregate {
            keys: vec![],
            aggs: vec![],
            out: cse_algebra::RelId(99),
        };
        let g = compute_signature(&ctx, &agg_op, &[Some(&s)]).unwrap();
        assert!(g.grouped);
        // Second aggregate on top: no signature.
        assert!(compute_signature(&ctx, &agg_op, &[Some(&g)]).is_none());
    }

    #[test]
    fn self_join_multiset() {
        let (ctx, rels) = ctx_with(&["t", "t"]);
        let sa = compute_signature(&ctx, &Op::Get { rel: rels[0] }, &[]).unwrap();
        let sb = compute_signature(&ctx, &Op::Get { rel: rels[1] }, &[]).unwrap();
        let j =
            compute_signature(&ctx, &Op::Join { pred: vec![] }, &[Some(&sa), Some(&sb)]).unwrap();
        assert_eq!(j.tables, vec!["t".to_string(), "t".to_string()]);
        // {t} is a sub-multiset of {t,t} but not vice versa.
        assert!(sa.tables_subset_of(&j));
        assert!(!j.tables_subset_of(&sa));
    }

    #[test]
    fn subset_checks() {
        let a = TableSignature {
            grouped: false,
            tables: vec!["a".into(), "b".into()],
        };
        let abc = TableSignature {
            grouped: false,
            tables: vec!["a".into(), "b".into(), "c".into()],
        };
        assert!(a.tables_subset_of(&abc));
        assert!(!abc.tables_subset_of(&a));
        assert!(a.tables_subset_of(&a));
    }

    #[test]
    fn display() {
        let s = TableSignature {
            grouped: true,
            tables: vec!["a".into(), "b".into()],
        };
        assert_eq!(s.to_string(), "[T; {a,b}]");
    }
}
