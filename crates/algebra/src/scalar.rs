//! Scalar expressions: column references, literals, comparisons, boolean
//! connectives and arithmetic, plus canonicalization utilities.

use crate::ids::{ColRef, RelId, RelSet};
use cse_storage::Value;
use std::cmp::Ordering;
use std::collections::BTreeSet;
use std::fmt;

/// Comparison operators. Canonicalization rewrites `>`/`>=` into `<`/`<=`
/// with swapped operands so equivalent predicates compare equal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl CmpOp {
    /// The operator with operand sides swapped (`a < b` ⇔ `b > a`).
    pub fn flipped(&self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Eq,
            CmpOp::Ne => CmpOp::Ne,
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
        }
    }

    /// Logical negation (`NOT (a < b)` ⇔ `a >= b`).
    pub fn negated(&self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Ne,
            CmpOp::Ne => CmpOp::Eq,
            CmpOp::Lt => CmpOp::Ge,
            CmpOp::Le => CmpOp::Gt,
            CmpOp::Gt => CmpOp::Le,
            CmpOp::Ge => CmpOp::Lt,
        }
    }

    /// Does the comparison hold of operands ordered `ord`? The literal
    /// semantics the executor evaluates and the linter folds by.
    #[inline]
    pub fn holds(&self, ord: Ordering) -> bool {
        match self {
            CmpOp::Eq => ord.is_eq(),
            CmpOp::Ne => ord.is_ne(),
            CmpOp::Lt => ord.is_lt(),
            CmpOp::Le => ord.is_le(),
            CmpOp::Gt => ord.is_gt(),
            CmpOp::Ge => ord.is_ge(),
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "<>",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        };
        f.write_str(s)
    }
}

/// Arithmetic operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ArithOp {
    Add,
    Sub,
    Mul,
    Div,
}

impl ArithOp {
    /// `a op b` with the literal semantics the executor evaluates and the
    /// linter folds by: a NULL or non-numeric operand gives NULL, integer
    /// arithmetic stays integral except division, a result that does not
    /// fit an i64 is computed in floating point, and `x / 0` is NULL.
    #[inline]
    pub fn apply(&self, a: &Value, b: &Value) -> Value {
        if let (Value::Int(x), Value::Int(y)) = (a, b) {
            let exact = match self {
                ArithOp::Add => x.checked_add(*y),
                ArithOp::Sub => x.checked_sub(*y),
                ArithOp::Mul => x.checked_mul(*y),
                ArithOp::Div => None,
            };
            if let Some(v) = exact {
                return Value::Int(v);
            }
        }
        match (a.as_f64(), b.as_f64()) {
            (Some(x), Some(y)) => match self {
                ArithOp::Add => Value::Float(x + y),
                ArithOp::Sub => Value::Float(x - y),
                ArithOp::Mul => Value::Float(x * y),
                ArithOp::Div if y == 0.0 => Value::Null,
                ArithOp::Div => Value::Float(x / y),
            },
            _ => Value::Null,
        }
    }
}

impl fmt::Display for ArithOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ArithOp::Add => "+",
            ArithOp::Sub => "-",
            ArithOp::Mul => "*",
            ArithOp::Div => "/",
        };
        f.write_str(s)
    }
}

/// A scalar expression over globally-identified columns.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Scalar {
    Col(ColRef),
    Lit(Value),
    Cmp(CmpOp, Box<Scalar>, Box<Scalar>),
    /// Conjunction; always flattened and sorted by [`Scalar::normalize`].
    And(Vec<Scalar>),
    /// Disjunction; always flattened and sorted by [`Scalar::normalize`].
    Or(Vec<Scalar>),
    Not(Box<Scalar>),
    Arith(ArithOp, Box<Scalar>, Box<Scalar>),
    IsNull(Box<Scalar>),
}

impl Scalar {
    pub fn col(rel: RelId, col: u16) -> Scalar {
        Scalar::Col(ColRef::new(rel, col))
    }

    pub fn lit(v: Value) -> Scalar {
        Scalar::Lit(v)
    }

    pub fn int(i: i64) -> Scalar {
        Scalar::Lit(Value::Int(i))
    }

    pub fn cmp(op: CmpOp, a: Scalar, b: Scalar) -> Scalar {
        Scalar::Cmp(op, Box::new(a), Box::new(b))
    }

    pub fn eq(a: Scalar, b: Scalar) -> Scalar {
        Scalar::cmp(CmpOp::Eq, a, b)
    }

    /// The constant TRUE (an empty conjunction).
    pub fn true_() -> Scalar {
        Scalar::And(Vec::new())
    }

    pub fn is_true(&self) -> bool {
        matches!(self, Scalar::And(v) if v.is_empty())
            || matches!(self, Scalar::Lit(Value::Bool(true)))
    }

    /// The constant FALSE (an empty disjunction — the engine evaluates
    /// `Or([])` to FALSE, mirroring `true_` as the empty conjunction).
    pub fn false_() -> Scalar {
        Scalar::Or(Vec::new())
    }

    /// Conjunction of a list of predicates (flattens trivially).
    pub fn and(preds: impl IntoIterator<Item = Scalar>) -> Scalar {
        let mut out = Vec::new();
        for p in preds {
            match p {
                Scalar::And(inner) => out.extend(inner),
                other => out.push(other),
            }
        }
        one_or(out, Scalar::And)
    }

    /// Disjunction of a list of predicates.
    pub fn or(preds: impl IntoIterator<Item = Scalar>) -> Scalar {
        let mut out = Vec::new();
        for p in preds {
            match p {
                Scalar::Or(inner) => out.extend(inner),
                other => out.push(other),
            }
        }
        one_or(out, Scalar::Or)
    }

    /// Split into top-level conjuncts. TRUE splits into no conjuncts.
    pub fn conjuncts(&self) -> Vec<Scalar> {
        match self {
            Scalar::And(v) => v.iter().flat_map(|p| p.conjuncts()).collect(),
            other if other.is_true() => Vec::new(),
            other => vec![other.clone()],
        }
    }

    /// All column references in the expression.
    pub fn columns(&self) -> BTreeSet<ColRef> {
        let mut out = BTreeSet::new();
        self.visit(&mut |s| {
            if let Scalar::Col(c) = s {
                out.insert(*c);
            }
        });
        out
    }

    /// All table instances referenced.
    pub fn rels(&self) -> RelSet {
        let mut out = RelSet::EMPTY;
        self.visit(&mut |s| {
            if let Scalar::Col(c) = s {
                out.insert(c.rel);
            }
        });
        out
    }

    /// Pre-order traversal.
    pub fn visit(&self, f: &mut impl FnMut(&Scalar)) {
        f(self);
        match self {
            Scalar::Col(_) | Scalar::Lit(_) => {}
            Scalar::Cmp(_, a, b) | Scalar::Arith(_, a, b) => {
                a.visit(f);
                b.visit(f);
            }
            Scalar::And(v) | Scalar::Or(v) => {
                for p in v {
                    p.visit(f);
                }
            }
            Scalar::Not(a) | Scalar::IsNull(a) => a.visit(f),
        }
    }

    /// Rewrite every column reference through `map` (bottom-up). Used for
    /// view matching (mapping consumer columns onto CSE outputs) and for
    /// aligning consumers during CSE construction.
    pub fn rewrite_cols(&self, map: &impl Fn(ColRef) -> Scalar) -> Scalar {
        match self {
            Scalar::Col(c) => map(*c),
            Scalar::Lit(v) => Scalar::Lit(v.clone()),
            Scalar::Cmp(op, a, b) => Scalar::cmp(*op, a.rewrite_cols(map), b.rewrite_cols(map)),
            Scalar::And(v) => Scalar::And(v.iter().map(|p| p.rewrite_cols(map)).collect()),
            Scalar::Or(v) => Scalar::Or(v.iter().map(|p| p.rewrite_cols(map)).collect()),
            Scalar::Not(a) => Scalar::Not(Box::new(a.rewrite_cols(map))),
            Scalar::Arith(op, a, b) => Scalar::Arith(
                *op,
                Box::new(a.rewrite_cols(map)),
                Box::new(b.rewrite_cols(map)),
            ),
            Scalar::IsNull(a) => Scalar::IsNull(Box::new(a.rewrite_cols(map))),
        }
    }

    /// Canonical form: comparisons oriented so the smaller operand is on
    /// the left of symmetric ops and `>`/`>=` are eliminated; conjunctions
    /// and disjunctions flattened, sorted, deduplicated. Two logically
    /// identical predicates built in different orders normalize to the same
    /// value, which the memo and the CSE construction rely on.
    pub fn normalize(&self) -> Scalar {
        match self {
            Scalar::Col(_) | Scalar::Lit(_) => self.clone(),
            Scalar::Cmp(op, a, b) => {
                let (a, b) = (a.normalize(), b.normalize());
                match op {
                    CmpOp::Gt | CmpOp::Ge => Scalar::cmp(op.flipped(), b, a),
                    CmpOp::Eq | CmpOp::Ne if b < a => Scalar::cmp(*op, b, a),
                    _ => Scalar::cmp(*op, a, b),
                }
            }
            Scalar::And(v) => {
                let mut parts: Vec<Scalar> = Vec::with_capacity(v.len());
                for p in v {
                    match p.normalize() {
                        Scalar::And(inner) => parts.extend(inner),
                        other => parts.push(other),
                    }
                }
                parts.sort();
                parts.dedup();
                one_or(parts, Scalar::And)
            }
            Scalar::Or(v) => {
                let mut parts: Vec<Scalar> = Vec::with_capacity(v.len());
                for p in v {
                    match p.normalize() {
                        Scalar::Or(inner) => parts.extend(inner),
                        other => parts.push(other),
                    }
                }
                parts.sort();
                parts.dedup();
                one_or(parts, Scalar::Or)
            }
            Scalar::Not(a) => {
                // Normalize the child first so single-element conjunctions
                // unwrap before the negation is pushed through.
                match a.normalize() {
                    Scalar::Cmp(op, x, y) => Scalar::Cmp(op.negated(), x, y).normalize(),
                    Scalar::Not(inner) => *inner,
                    other => Scalar::Not(Box::new(other)),
                }
            }
            Scalar::Arith(op, a, b) => {
                Scalar::Arith(*op, Box::new(a.normalize()), Box::new(b.normalize()))
            }
            Scalar::IsNull(a) => Scalar::IsNull(Box::new(a.normalize())),
        }
    }

    /// Is this conjunct a column-equals-column equality (an equijoin atom)?
    pub fn as_col_eq_col(&self) -> Option<(ColRef, ColRef)> {
        if let Scalar::Cmp(CmpOp::Eq, a, b) = self {
            if let (Scalar::Col(x), Scalar::Col(y)) = (a.as_ref(), b.as_ref()) {
                return Some((*x, *y));
            }
        }
        None
    }

    /// Is this a comparison between one column and one literal? Returns
    /// (column, op-with-column-on-left, literal).
    pub fn as_col_vs_lit(&self) -> Option<(ColRef, CmpOp, Value)> {
        if let Scalar::Cmp(op, a, b) = self {
            match (a.as_ref(), b.as_ref()) {
                (Scalar::Col(c), Scalar::Lit(v)) => return Some((*c, *op, v.clone())),
                (Scalar::Lit(v), Scalar::Col(c)) => return Some((*c, op.flipped(), v.clone())),
                _ => {}
            }
        }
        None
    }
}

/// The only element of `parts`, or `wrap(parts)` when there are zero or
/// several.
fn one_or(parts: Vec<Scalar>, wrap: fn(Vec<Scalar>) -> Scalar) -> Scalar {
    match <[Scalar; 1]>::try_from(parts) {
        Ok([only]) => only,
        Err(parts) => wrap(parts),
    }
}

impl fmt::Display for Scalar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Scalar::Col(c) => write!(f, "{c}"),
            Scalar::Lit(v) => write!(f, "{v}"),
            Scalar::Cmp(op, a, b) => write!(f, "({a} {op} {b})"),
            Scalar::And(v) => {
                if v.is_empty() {
                    return write!(f, "TRUE");
                }
                write!(f, "(")?;
                for (i, p) in v.iter().enumerate() {
                    if i > 0 {
                        write!(f, " AND ")?;
                    }
                    write!(f, "{p}")?;
                }
                write!(f, ")")
            }
            Scalar::Or(v) => {
                if v.is_empty() {
                    return write!(f, "FALSE");
                }
                write!(f, "(")?;
                for (i, p) in v.iter().enumerate() {
                    if i > 0 {
                        write!(f, " OR ")?;
                    }
                    write!(f, "{p}")?;
                }
                write!(f, ")")
            }
            Scalar::Not(a) => write!(f, "NOT {a}"),
            Scalar::Arith(op, a, b) => write!(f, "({a} {op} {b})"),
            Scalar::IsNull(a) => write!(f, "{a} IS NULL"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(r: u32, i: u16) -> Scalar {
        Scalar::col(RelId(r), i)
    }

    #[test]
    fn normalize_orients_comparisons() {
        let a = Scalar::cmp(CmpOp::Gt, c(0, 0), Scalar::int(5)).normalize();
        let b = Scalar::cmp(CmpOp::Lt, Scalar::int(5), c(0, 0)).normalize();
        assert_eq!(a, b);
    }

    #[test]
    fn normalize_sorts_conjuncts() {
        let p1 = Scalar::and([Scalar::eq(c(0, 0), c(1, 0)), Scalar::eq(c(1, 1), c(2, 0))]);
        let p2 = Scalar::and([Scalar::eq(c(1, 1), c(2, 0)), Scalar::eq(c(0, 0), c(1, 0))]);
        assert_eq!(p1.normalize(), p2.normalize());
    }

    #[test]
    fn normalize_orders_symmetric_operands() {
        let p1 = Scalar::eq(c(1, 0), c(0, 0)).normalize();
        let p2 = Scalar::eq(c(0, 0), c(1, 0)).normalize();
        assert_eq!(p1, p2);
    }

    #[test]
    fn normalize_removes_double_negation() {
        let p = Scalar::Not(Box::new(Scalar::Not(Box::new(Scalar::eq(
            c(0, 0),
            Scalar::int(1),
        )))));
        assert_eq!(
            p.normalize(),
            Scalar::eq(c(0, 0), Scalar::int(1)).normalize()
        );
    }

    #[test]
    fn not_of_cmp_negates() {
        let p = Scalar::Not(Box::new(Scalar::cmp(CmpOp::Lt, c(0, 0), Scalar::int(3))));
        assert_eq!(
            p.normalize(),
            Scalar::cmp(CmpOp::Ge, c(0, 0), Scalar::int(3)).normalize()
        );
    }

    #[test]
    fn conjuncts_flatten() {
        let p = Scalar::and([
            Scalar::and([Scalar::eq(c(0, 0), c(1, 0)), Scalar::true_()]),
            Scalar::eq(c(2, 0), Scalar::int(1)),
        ]);
        assert_eq!(p.conjuncts().len(), 2);
        assert!(Scalar::true_().conjuncts().is_empty());
    }

    #[test]
    fn columns_and_rels() {
        let p = Scalar::and([
            Scalar::eq(c(0, 1), c(3, 2)),
            Scalar::eq(c(0, 0), Scalar::int(1)),
        ]);
        assert_eq!(p.columns().len(), 3);
        assert_eq!(p.rels(), RelSet::from_iter([RelId(0), RelId(3)]));
    }

    #[test]
    fn equijoin_atom_detection() {
        let p = Scalar::eq(c(0, 1), c(1, 2));
        assert_eq!(
            p.as_col_eq_col(),
            Some((ColRef::new(RelId(0), 1), ColRef::new(RelId(1), 2)))
        );
        assert!(Scalar::eq(c(0, 1), Scalar::int(5))
            .as_col_eq_col()
            .is_none());
    }

    #[test]
    fn col_vs_lit_flips() {
        let p = Scalar::cmp(CmpOp::Lt, Scalar::int(5), c(0, 0));
        let (col, op, v) = p.as_col_vs_lit().unwrap();
        assert_eq!(col, ColRef::new(RelId(0), 0));
        assert_eq!(op, CmpOp::Gt);
        assert_eq!(v, Value::Int(5));
    }

    #[test]
    fn rewrite_cols_substitutes() {
        let p = Scalar::eq(c(0, 0), c(1, 1));
        let q = p.rewrite_cols(&|cr| {
            if cr.rel == RelId(0) {
                Scalar::int(9)
            } else {
                Scalar::Col(cr)
            }
        });
        assert_eq!(q, Scalar::eq(Scalar::int(9), c(1, 1)));
    }
}
