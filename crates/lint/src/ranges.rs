//! Interval / range dataflow over scalar predicates (analyzer pass 2b).
//!
//! The range itself is `cse_algebra::Interval` — bounds ordered by
//! `Value::sql_cmp`, emptiness with **integral-domain adjacency** (on an
//! `INT` or `DATE` column `c > 4 AND c < 5` is unsatisfiable, and
//! `c > i64::MAX` is empty instead of wrapping). What a *refutation* pass
//! adds here is the `<>` exclusions (so `c = 5 AND c <> 5` is refuted) and
//! the wording of the findings.
//!
//! Everything here is *refutation-only*: a `None` verdict means "could
//! not prove empty", never "satisfiable".

use cse_algebra::{column_ranges, CmpOp, ColRef, Empty, Interval, PlanContext, Scalar};
use cse_storage::{DataType, Value};
use std::cmp::Ordering;

/// Can `interval`, less the values `ne` that `<>` conjuncts exclude, be
/// *proven* empty for a column of type `ty`? Returns a human-readable
/// reason when it can.
fn prove_empty(interval: &Interval, ne: &[Value], ty: DataType) -> Option<String> {
    // A pinned point excluded by a <> conjunct.
    if let (Some((p, true)), Some((q, true))) = (&interval.lo, &interval.hi) {
        if p.sql_cmp(q) == Some(Ordering::Equal) && ne.iter().any(|v| interval.contains(v)) {
            return Some(format!("pinned to {p} but excluded by <> {p}"));
        }
    }
    let op = |lower, inclusive| match (lower, inclusive) {
        (true, true) => ">=",
        (true, false) => ">",
        (false, true) => "<=",
        (false, false) => "<",
    };
    Some(match interval.emptiness(ty)? {
        Empty::BeyondDomain { bound, lower } => {
            let domain = match bound {
                Value::Date(_) => DataType::Date,
                _ => DataType::Int,
            };
            format!("{} {bound} exceeds the {domain} domain", op(lower, false))
        }
        Empty::Crossed { lo, hi } => format!(
            "lower bound {} {} exceeds upper bound {} {}",
            op(true, lo.1),
            lo.0,
            op(false, hi.1),
            hi.0
        ),
        Empty::OpenPoint(v) => format!("bounds meet at {v} but at least one side is exclusive"),
    })
}

/// Try to prove the conjunction of `conjuncts` unsatisfiable through
/// per-column range analysis. Returns `(column, reason)` for the first
/// provably-empty column; `None` means "not provably empty". Conjuncts
/// that are not col-vs-literal atoms are ignored (conservative).
pub fn prove_unsat(ctx: &PlanContext, conjuncts: &[Scalar]) -> Option<(ColRef, String)> {
    // `c < NULL` never accepts, but that is the fold pass's finding; range
    // logic only tracks real bounds.
    let real = |c: &&Scalar| c.as_col_vs_lit().is_some_and(|(_, _, v)| !v.is_null());
    let ranges = column_ranges(&Scalar::and(conjuncts.iter().filter(real).cloned()));
    ranges.iter().find_map(|(col, interval)| {
        let ne: Vec<Value> = conjuncts
            .iter()
            .filter_map(Scalar::as_col_vs_lit)
            .filter(|(c, op, _)| c == col && *op == CmpOp::Ne)
            .map(|(_, _, v)| v)
            .collect();
        Some((*col, prove_empty(interval, &ne, ctx.col_type(*col))?))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cse_algebra::RelId;
    use cse_storage::Schema;
    use std::sync::Arc;

    fn ctx_int_float() -> (PlanContext, RelId) {
        let mut ctx = PlanContext::new();
        let b = ctx.new_block();
        let schema = Arc::new(Schema::from_pairs(&[
            ("i", DataType::Int),
            ("f", DataType::Float),
            ("d", DataType::Date),
        ]));
        let r = ctx.add_base_rel("t", "t", schema, b);
        (ctx, r)
    }

    fn cmp(op: CmpOp, col: Scalar, v: Value) -> Scalar {
        Scalar::cmp(op, col, Scalar::Lit(v))
    }

    #[test]
    fn crossing_bounds_are_empty() {
        let (ctx, r) = ctx_int_float();
        let c = Scalar::col(r, 0);
        let conj = vec![
            cmp(CmpOp::Lt, c.clone(), Value::Int(5)),
            cmp(CmpOp::Gt, c, Value::Int(10)),
        ];
        let (col, reason) = prove_unsat(&ctx, &conj).expect("a < 5 AND a > 10 is empty");
        assert_eq!(col, ColRef::new(r, 0));
        assert!(reason.contains("exceeds"), "{reason}");
    }

    #[test]
    fn integral_adjacency_gap_is_empty_but_float_is_not() {
        let (ctx, r) = ctx_int_float();
        // INT: > 4 AND < 5 has no integer solutions.
        let i = Scalar::col(r, 0);
        let conj = vec![
            cmp(CmpOp::Gt, i.clone(), Value::Int(4)),
            cmp(CmpOp::Lt, i, Value::Int(5)),
        ];
        assert!(prove_unsat(&ctx, &conj).is_some());
        // FLOAT: > 4 AND < 5 is satisfiable (e.g. 4.5).
        let f = Scalar::col(r, 1);
        let conj = vec![
            cmp(CmpOp::Gt, f.clone(), Value::Int(4)),
            cmp(CmpOp::Lt, f, Value::Int(5)),
        ];
        assert!(prove_unsat(&ctx, &conj).is_none());
    }

    #[test]
    fn equality_vs_ne_conflict() {
        let (ctx, r) = ctx_int_float();
        let c = Scalar::col(r, 0);
        let conj = vec![
            cmp(CmpOp::Eq, c.clone(), Value::Int(7)),
            cmp(CmpOp::Ne, c, Value::Int(7)),
        ];
        let (_, reason) = prove_unsat(&ctx, &conj).expect("= 7 AND <> 7 is empty");
        assert!(reason.contains("excluded"), "{reason}");
    }

    #[test]
    fn two_distinct_equalities_conflict() {
        let (ctx, r) = ctx_int_float();
        let c = Scalar::col(r, 0);
        let conj = vec![
            cmp(CmpOp::Eq, c.clone(), Value::Int(1)),
            cmp(CmpOp::Eq, c, Value::Int(2)),
        ];
        assert!(prove_unsat(&ctx, &conj).is_some());
    }

    #[test]
    fn i64_extremes_do_not_wrap() {
        let (ctx, r) = ctx_int_float();
        let c = Scalar::col(r, 0);
        // c > i64::MAX: empty, and must not wrap to i64::MIN.
        let conj = vec![cmp(CmpOp::Gt, c.clone(), Value::Int(i64::MAX))];
        // Only one bound: not provable (no hi). Add any upper bound.
        let conj2 = vec![
            cmp(CmpOp::Gt, c.clone(), Value::Int(i64::MAX)),
            cmp(CmpOp::Lt, c.clone(), Value::Int(0)),
        ];
        assert!(prove_unsat(&ctx, &conj).is_none());
        assert!(prove_unsat(&ctx, &conj2).is_some());
        // c < i64::MIN with a lower bound: empty through checked_sub.
        let conj3 = vec![
            cmp(CmpOp::Lt, c.clone(), Value::Int(i64::MIN)),
            cmp(CmpOp::Gt, c, Value::Int(0)),
        ];
        assert!(prove_unsat(&ctx, &conj3).is_some());
    }

    #[test]
    fn date_adjacency() {
        let (ctx, r) = ctx_int_float();
        let d = Scalar::col(r, 2);
        let day = |s: &str| Value::date(s).unwrap();
        // > 1996-06-30 AND < 1996-07-01: adjacent days, empty.
        let conj = vec![
            cmp(CmpOp::Gt, d.clone(), day("1996-06-30")),
            cmp(CmpOp::Lt, d.clone(), day("1996-07-01")),
        ];
        assert!(prove_unsat(&ctx, &conj).is_some());
        // >= 1996-06-30 AND < 1996-07-01 admits exactly one day.
        let conj = vec![
            cmp(CmpOp::Ge, d.clone(), day("1996-06-30")),
            cmp(CmpOp::Lt, d, day("1996-07-01")),
        ];
        assert!(prove_unsat(&ctx, &conj).is_none());
    }

    #[test]
    fn satisfiable_ranges_stay_open() {
        let (ctx, r) = ctx_int_float();
        let c = Scalar::col(r, 0);
        let conj = vec![
            cmp(CmpOp::Gt, c.clone(), Value::Int(0)),
            cmp(CmpOp::Lt, c.clone(), Value::Int(25)),
            cmp(CmpOp::Ne, c, Value::Int(10)),
        ];
        assert!(prove_unsat(&ctx, &conj).is_none());
    }
}
