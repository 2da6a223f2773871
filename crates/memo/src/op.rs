//! Logical operators as stored in the memo, and group expressions.

use cse_algebra::{AggExpr, ColRef, RelId, Scalar, SortOrder};
use cse_storage::Value;
use std::fmt;

/// A conjunct interned in its memo's table ([`crate::Memo::conj`]): one id
/// per distinct conjunct, literal kinds included.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ConjId(pub u32);

/// A memo-resident logical operator. Children are group references held by
/// the enclosing [`GroupExpr`]. A filter or join predicate is the list of
/// its normal form's conjuncts, in that form's order
/// ([`crate::Memo::intern_pred`], [`crate::Memo::pred`]).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Op {
    /// Base-table (or delta-table) instance scan.
    Get { rel: RelId },
    /// Row filter (1 child).
    Filter { pred: Vec<ConjId> },
    /// Inner join (2 children); `pred` is empty (TRUE) for a cross join.
    Join { pred: Vec<ConjId> },
    /// Group-by + aggregation (1 child). `out` is the synthetic rel of the
    /// aggregate outputs; alternative aggregate expressions in the same
    /// group (e.g. eager-aggregation rewrites) share the same `out`.
    Aggregate {
        keys: Vec<ColRef>,
        aggs: Vec<AggExpr>,
        out: RelId,
    },
    /// Final named projection (1 child).
    Project { exprs: Vec<(String, Scalar)> },
    /// Result ordering (1 child).
    Sort { keys: Vec<(Scalar, SortOrder)> },
    /// Dummy root tying batch statements together (n children).
    Batch,
}

impl Op {
    pub fn arity(&self) -> usize {
        match self {
            Op::Get { .. } => 0,
            Op::Filter { .. } | Op::Aggregate { .. } | Op::Project { .. } | Op::Sort { .. } => 1,
            Op::Join { .. } => 2,
            Op::Batch => usize::MAX, // variable
        }
    }

    pub fn name(&self) -> &'static str {
        match self {
            Op::Get { .. } => "Get",
            Op::Filter { .. } => "Filter",
            Op::Join { .. } => "Join",
            Op::Aggregate { .. } => "Aggregate",
            Op::Project { .. } => "Project",
            Op::Sort { .. } => "Sort",
            Op::Batch => "Batch",
        }
    }

    /// Every scalar expression the payload holds as a tree, in a fixed
    /// order; filter and join conjuncts are the memo's.
    pub fn for_each_scalar<'a>(&'a self, f: &mut impl FnMut(&'a Scalar)) {
        match self {
            Op::Get { .. } | Op::Batch | Op::Filter { .. } | Op::Join { .. } => {}
            Op::Aggregate { aggs, .. } => aggs.iter().filter_map(|a| a.arg.as_ref()).for_each(f),
            Op::Project { exprs } => exprs.iter().for_each(|(_, s)| f(s)),
            Op::Sort { keys } => keys.iter().for_each(|(s, _)| f(s)),
        }
    }
}

/// Identifier of a group in the memo.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GroupId(pub u32);

impl fmt::Display for GroupId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "G{}", self.0)
    }
}

/// Identifier of a group expression in the memo arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GroupExprId(pub u32);

/// A single operator referencing child groups: the memo's unit of sharing.
/// `Hash` and `==` find the memo's duplicates; `==` alone is too coarse for
/// that (see `GroupExpr::same_as`).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct GroupExpr {
    pub op: Op,
    pub children: Vec<GroupId>,
}

impl GroupExpr {
    pub fn new(op: Op, children: Vec<GroupId>) -> Self {
        GroupExpr { op, children }
    }

    /// The memo's identity: equal, and every literal stored the same way.
    /// `Value`'s `==` is its total order, under which `Int(1)` and
    /// `Float(1.0)` are equal; the memo never merged `x = 1` with `x = 1.0`
    /// and does not start to. Interned conjuncts carry their kinds in their
    /// ids; the other scalars of equal expressions have one shape, so their
    /// literals pair up in traversal order.
    pub(crate) fn same_as(&self, other: &GroupExpr) -> bool {
        let kinds = |e: &GroupExpr| {
            let mut out = Vec::new();
            e.op.for_each_scalar(&mut |s| literal_kinds(s, &mut out));
            out
        };
        self == other && kinds(self) == kinds(other)
    }
}

/// Append the kind of every literal in `s`, in traversal order: the part of
/// a scalar's identity that `Value`'s `==` does not see.
pub(crate) fn literal_kinds(s: &Scalar, out: &mut Vec<u8>) {
    s.visit(&mut |n| {
        if let Scalar::Lit(v) = n {
            out.push(match v {
                Value::Null => 0,
                Value::Int(_) => 1,
                Value::Float(_) => 2,
                Value::Str(_) => 3,
                Value::Date(_) => 4,
                Value::Bool(_) => 5,
            });
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cse_algebra::RelId;

    #[test]
    fn arity() {
        assert_eq!(Op::Get { rel: RelId(0) }.arity(), 0);
        assert_eq!(Op::Join { pred: vec![] }.arity(), 2);
    }

    #[test]
    fn identity_distinguishes_children() {
        let a = GroupExpr::new(Op::Join { pred: vec![] }, vec![GroupId(0), GroupId(1)]);
        let b = GroupExpr::new(Op::Join { pred: vec![] }, vec![GroupId(1), GroupId(0)]);
        assert!(!a.same_as(&b));
        assert!(a.same_as(&a.clone()));
    }
}
