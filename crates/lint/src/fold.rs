//! Constant folding over [`Scalar`] expressions (analyzer pass 2a).
//!
//! The folder mirrors the executor's evaluation semantics
//! (`cse-exec::eval`) exactly, under SQL three-valued logic:
//!
//! - comparisons between literals fold through [`Value::sql_cmp`], so a
//!   NULL operand folds to `Lit(Null)` — *not* FALSE (a NULL conjunct
//!   still rejects every row, but `NOT NULL` is NULL, not TRUE). A NULL
//!   literal on *either* side absorbs the comparison (and likewise
//!   arithmetic) even when the other side is a column: `sql_cmp` is
//!   `None` for any NULL operand, so the result is NULL on every row;
//! - `AND`/`OR` fold with dominance (`FALSE` / `TRUE`) and keep residual
//!   NULL literals in place, because `NULL AND p` is only reducible when
//!   `p` is known;
//! - literal comparisons and arithmetic are decided by the engine's own
//!   `CmpOp::holds` and `ArithOp::apply` (`cse-algebra`): `x/0` is NULL,
//!   `Int/Int` divides as float, and an `Int ∘ Int` that leaves the i64
//!   range folds to the float the engine computes.
//!
//! The result is semantics-preserving row-by-row: for every row,
//! evaluating `fold(s)` gives the same [`Value`] as evaluating `s` (the
//! property test in `tests/lint_property.rs` checks this on random rows).

use cse_algebra::Scalar;
use cse_storage::Value;

/// Is this scalar the constant FALSE (either spelling)?
pub(crate) fn is_const_false(s: &Scalar) -> bool {
    matches!(s, Scalar::Lit(Value::Bool(false))) || matches!(s, Scalar::Or(v) if v.is_empty())
}

/// Is this scalar the constant NULL?
pub fn is_const_null(s: &Scalar) -> bool {
    matches!(s, Scalar::Lit(Value::Null))
}

/// Is this scalar the constant TRUE (either spelling)?
pub(crate) fn is_const_true(s: &Scalar) -> bool {
    s.is_true()
}

/// Fold every literal-only subexpression bottom-up. See the module docs
/// for the exact semantics contract.
pub fn fold(s: &Scalar) -> Scalar {
    match s {
        Scalar::Col(_) | Scalar::Lit(_) => s.clone(),
        Scalar::Cmp(op, a, b) => {
            let (fa, fb) = (fold(a), fold(b));
            // A NULL literal absorbs the whole comparison: `sql_cmp`
            // returns `None` whenever *either* side is NULL, so the
            // result is NULL on every row even though the other side is
            // not a literal.
            if is_const_null(&fa) || is_const_null(&fb) {
                return Scalar::Lit(Value::Null);
            }
            if let (Scalar::Lit(va), Scalar::Lit(vb)) = (&fa, &fb) {
                return Scalar::Lit(
                    va.sql_cmp(vb)
                        .map_or(Value::Null, |o| Value::Bool(op.holds(o))),
                );
            }
            Scalar::Cmp(*op, Box::new(fa), Box::new(fb))
        }
        Scalar::And(parts) => {
            let mut out: Vec<Scalar> = Vec::with_capacity(parts.len());
            for p in parts {
                let fp = fold(p);
                if is_const_false(&fp) {
                    return Scalar::Lit(Value::Bool(false));
                }
                if is_const_true(&fp) {
                    continue; // TRUE is the AND identity
                }
                out.push(fp);
            }
            match out.len() {
                0 => Scalar::true_(),
                1 if !is_const_null(&out[0]) => out.pop().expect("len checked"),
                _ => Scalar::And(out),
            }
        }
        Scalar::Or(parts) => {
            let mut out: Vec<Scalar> = Vec::with_capacity(parts.len());
            for p in parts {
                let fp = fold(p);
                if is_const_true(&fp) {
                    return Scalar::Lit(Value::Bool(true));
                }
                if is_const_false(&fp) {
                    continue; // FALSE is the OR identity
                }
                out.push(fp);
            }
            match out.len() {
                0 => Scalar::Lit(Value::Bool(false)),
                1 if !is_const_null(&out[0]) => out.pop().expect("len checked"),
                _ => Scalar::Or(out),
            }
        }
        Scalar::Not(a) => {
            let fa = fold(a);
            match &fa {
                Scalar::Lit(Value::Bool(b)) => Scalar::Lit(Value::Bool(!b)),
                Scalar::Lit(Value::Null) => Scalar::Lit(Value::Null),
                _ => Scalar::Not(Box::new(fa)),
            }
        }
        Scalar::Arith(op, a, b) => {
            let (fa, fb) = (fold(a), fold(b));
            // NULL absorbs arithmetic the same way it absorbs
            // comparisons (the engine checks for NULL operands before
            // computing anything).
            if is_const_null(&fa) || is_const_null(&fb) {
                return Scalar::Lit(Value::Null);
            }
            if let (Scalar::Lit(va), Scalar::Lit(vb)) = (&fa, &fb) {
                return Scalar::Lit(op.apply(va, vb));
            }
            Scalar::Arith(*op, Box::new(fa), Box::new(fb))
        }
        Scalar::IsNull(a) => {
            let fa = fold(a);
            match &fa {
                Scalar::Lit(v) => Scalar::Lit(Value::Bool(v.is_null())),
                _ => Scalar::IsNull(Box::new(fa)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cse_algebra::{ArithOp, CmpOp, RelId};

    fn c(i: u16) -> Scalar {
        Scalar::col(RelId(0), i)
    }

    #[test]
    fn literal_comparison_folds() {
        let t = Scalar::cmp(CmpOp::Lt, Scalar::int(3), Scalar::int(5));
        assert!(is_const_true(&fold(&t)));
        let f = Scalar::cmp(CmpOp::Ge, Scalar::int(3), Scalar::int(5));
        assert!(is_const_false(&fold(&f)));
    }

    #[test]
    fn null_comparison_folds_to_null_not_false() {
        let n = Scalar::cmp(CmpOp::Eq, Scalar::lit(Value::Null), Scalar::int(5));
        assert!(is_const_null(&fold(&n)));
        // NOT NULL is still NULL.
        assert!(is_const_null(&fold(&Scalar::Not(Box::new(n)))));
    }

    #[test]
    fn and_or_dominance() {
        let f = Scalar::cmp(CmpOp::Gt, Scalar::int(1), Scalar::int(2));
        let open = Scalar::cmp(CmpOp::Lt, c(0), Scalar::int(5));
        assert!(is_const_false(&fold(&Scalar::and([
            open.clone(),
            f.clone()
        ]))));
        let t = Scalar::cmp(CmpOp::Lt, Scalar::int(1), Scalar::int(2));
        assert!(is_const_true(&fold(&Scalar::or([open.clone(), t]))));
        // Identities drop out, leaving the open conjunct.
        assert_eq!(
            fold(&Scalar::and([
                open.clone(),
                Scalar::cmp(CmpOp::Lt, Scalar::int(1), Scalar::int(2)),
            ])),
            open
        );
    }

    #[test]
    fn overflow_folds_to_the_value_the_engine_computes() {
        let e = Scalar::Arith(
            ArithOp::Add,
            Box::new(Scalar::int(i64::MAX)),
            Box::new(Scalar::int(1)),
        );
        // The engine carries an overflowing integer result on as a float.
        assert_eq!(fold(&e), Scalar::Lit(Value::Float(i64::MAX as f64 + 1.0)));
        // Shapes that don't overflow stay integral.
        let ok = Scalar::Arith(
            ArithOp::Add,
            Box::new(Scalar::int(i64::MAX - 1)),
            Box::new(Scalar::int(1)),
        );
        assert_eq!(fold(&ok), Scalar::Lit(Value::Int(i64::MAX)));
    }

    #[test]
    fn division_matches_engine() {
        let div0 = Scalar::Arith(
            ArithOp::Div,
            Box::new(Scalar::int(7)),
            Box::new(Scalar::int(0)),
        );
        assert!(is_const_null(&fold(&div0)));
        let div = Scalar::Arith(
            ArithOp::Div,
            Box::new(Scalar::int(7)),
            Box::new(Scalar::int(2)),
        );
        assert_eq!(fold(&div), Scalar::Lit(Value::Float(3.5)));
    }

    #[test]
    fn is_null_on_literals() {
        assert!(is_const_true(&fold(&Scalar::IsNull(Box::new(
            Scalar::lit(Value::Null)
        )))));
        assert!(is_const_false(&fold(&Scalar::IsNull(Box::new(
            Scalar::int(3)
        )))));
        // Open over a column: unchanged shape.
        assert!(matches!(
            fold(&Scalar::IsNull(Box::new(c(0)))),
            Scalar::IsNull(_)
        ));
    }

    #[test]
    fn folds_inside_open_expressions() {
        // c0 < (2 + 3) folds the arithmetic but keeps the comparison open.
        let e = Scalar::cmp(
            CmpOp::Lt,
            c(0),
            Scalar::Arith(
                ArithOp::Add,
                Box::new(Scalar::int(2)),
                Box::new(Scalar::int(3)),
            ),
        );
        assert_eq!(fold(&e), Scalar::cmp(CmpOp::Lt, c(0), Scalar::int(5)));
    }
}
