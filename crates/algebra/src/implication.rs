//! Conservative predicate implication testing.
//!
//! `implies(p, q)` returns true only when it can *prove* that every row
//! satisfying `p` satisfies `q`. Used by view matching to verify that a
//! consumer's predicate implies the covering predicate of a CSE, and by
//! tests. The checker understands:
//!
//! - syntactic conjunct containment (after normalization),
//! - single-column ranges (`c < 5` implies `c < 10`),
//! - disjunction on the right (`p ⇒ q1 ∨ q2` if `p ⇒ q1` or `p ⇒ q2`),
//! - conjunction on both sides.

use crate::ids::ColRef;
use crate::scalar::{CmpOp, Scalar};
use cse_storage::Value;
use std::cmp::Ordering;
use std::collections::BTreeMap;

/// A one-column interval with optional inclusive/exclusive bounds, plus an
/// optional exact-equality pin.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Interval {
    pub lo: Option<(Value, bool)>, // (bound, inclusive)
    pub hi: Option<(Value, bool)>,
}

impl Interval {
    // Bounds are ordered by `Value::sql_cmp`, the comparison the executor
    // evaluates. A bound of another comparison class (a DATE against a
    // STRING) is incomparable: it never replaces the current bound, and
    // `within` proves nothing across it.
    fn tighten_lo(&mut self, v: Value, inclusive: bool) {
        let better = match &self.lo {
            None => true,
            Some((cur, cur_inc)) => match v.sql_cmp(cur) {
                Some(Ordering::Greater) => true,
                Some(Ordering::Equal) => *cur_inc && !inclusive,
                Some(Ordering::Less) | None => false,
            },
        };
        if better {
            self.lo = Some((v, inclusive));
        }
    }

    fn tighten_hi(&mut self, v: Value, inclusive: bool) {
        let better = match &self.hi {
            None => true,
            Some((cur, cur_inc)) => match v.sql_cmp(cur) {
                Some(Ordering::Less) => true,
                Some(Ordering::Equal) => *cur_inc && !inclusive,
                Some(Ordering::Greater) | None => false,
            },
        };
        if better {
            self.hi = Some((v, inclusive));
        }
    }

    /// Does this interval lie entirely inside `outer`?
    pub fn within(&self, outer: &Interval) -> bool {
        let lo_ok = match (&outer.lo, &self.lo) {
            (None, _) => true,
            (Some(_), None) => false,
            (Some((ov, oi)), Some((sv, si))) => match sv.sql_cmp(ov) {
                Some(Ordering::Greater) => true,
                Some(Ordering::Equal) => *oi || !*si,
                Some(Ordering::Less) | None => false,
            },
        };
        let hi_ok = match (&outer.hi, &self.hi) {
            (None, _) => true,
            (Some(_), None) => false,
            (Some((ov, oi)), Some((sv, si))) => match sv.sql_cmp(ov) {
                Some(Ordering::Less) => true,
                Some(Ordering::Equal) => *oi || !*si,
                Some(Ordering::Greater) | None => false,
            },
        };
        lo_ok && hi_ok
    }
}

/// Extract per-column intervals from the col-vs-literal conjuncts of `p`.
/// Equality `c = v` pins both bounds.
pub fn column_ranges(p: &Scalar) -> BTreeMap<ColRef, Interval> {
    let mut out: BTreeMap<ColRef, Interval> = BTreeMap::new();
    for conj in p.conjuncts() {
        if let Some((col, op, v)) = conj.as_col_vs_lit() {
            let iv = out.entry(col).or_default();
            match op {
                CmpOp::Eq => {
                    iv.tighten_lo(v.clone(), true);
                    iv.tighten_hi(v, true);
                }
                CmpOp::Lt => iv.tighten_hi(v, false),
                CmpOp::Le => iv.tighten_hi(v, true),
                CmpOp::Gt => iv.tighten_lo(v, false),
                CmpOp::Ge => iv.tighten_lo(v, true),
                CmpOp::Ne => {}
            }
        }
    }
    out
}

/// Conservative implication: true only when provable.
pub fn implies(p: &Scalar, q: &Scalar) -> bool {
    let q = q.normalize();
    if q.is_true() {
        return true;
    }
    let p = p.normalize();
    if p == q {
        return true;
    }
    // Disjunction on the left: p1∨p2 ⇒ q iff p1 ⇒ q and p2 ⇒ q.
    if let Scalar::Or(ps) = &p {
        if !ps.is_empty() {
            return ps.iter().all(|pi| implies(pi, &q));
        }
    }
    match &q {
        Scalar::And(qs) => return qs.iter().all(|qi| implies(&p, qi)),
        Scalar::Or(qs) => {
            // p ⇒ q1∨q2 if p ⇒ some qi, or if p itself is a disjunction
            // whose every branch implies q.
            return qs.iter().any(|qi| implies(&p, qi));
        }
        _ => {}
    }
    // q is now an atom. Check syntactic containment among p's conjuncts.
    let p_conjuncts = p.conjuncts();
    if p_conjuncts.contains(&q) {
        return true;
    }
    // Range reasoning for col-vs-literal atoms.
    if let Some((qcol, qop, qv)) = q.as_col_vs_lit() {
        let ranges = column_ranges(&p);
        if let Some(iv) = ranges.get(&qcol) {
            let mut target = Interval::default();
            match qop {
                CmpOp::Eq => {
                    target.tighten_lo(qv.clone(), true);
                    target.tighten_hi(qv, true);
                }
                CmpOp::Lt => target.tighten_hi(qv, false),
                CmpOp::Le => target.tighten_hi(qv, true),
                CmpOp::Gt => target.tighten_lo(qv, false),
                CmpOp::Ge => target.tighten_lo(qv, true),
                CmpOp::Ne => return false,
            }
            return iv.within(&target);
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::RelId;

    fn c(i: u16) -> Scalar {
        Scalar::col(RelId(0), i)
    }

    fn lt(a: Scalar, v: i64) -> Scalar {
        Scalar::cmp(CmpOp::Lt, a, Scalar::int(v))
    }

    fn gt(a: Scalar, v: i64) -> Scalar {
        Scalar::cmp(CmpOp::Gt, a, Scalar::int(v))
    }

    #[test]
    fn everything_implies_true() {
        assert!(implies(&lt(c(0), 5), &Scalar::true_()));
    }

    #[test]
    fn syntactic_containment() {
        let p = Scalar::and([lt(c(0), 5), gt(c(1), 2)]);
        assert!(implies(&p, &lt(c(0), 5)));
        assert!(implies(&p, &Scalar::and([gt(c(1), 2), lt(c(0), 5)])));
        assert!(!implies(&lt(c(0), 5), &p));
    }

    #[test]
    fn range_widening() {
        assert!(implies(&lt(c(0), 5), &lt(c(0), 10)));
        assert!(!implies(&lt(c(0), 10), &lt(c(0), 5)));
        assert!(implies(&gt(c(0), 10), &gt(c(0), 5)));
        // c = 7 implies 5 < c < 10
        let eq7 = Scalar::eq(c(0), Scalar::int(7));
        assert!(implies(&eq7, &Scalar::and([gt(c(0), 5), lt(c(0), 10)])));
    }

    #[test]
    fn boundary_inclusivity() {
        let le5 = Scalar::cmp(CmpOp::Le, c(0), Scalar::int(5));
        assert!(implies(&lt(c(0), 5), &le5));
        assert!(!implies(&le5, &lt(c(0), 5)));
    }

    #[test]
    fn disjunction_on_right() {
        let p = lt(c(0), 5);
        let q = Scalar::or([lt(c(0), 10), gt(c(1), 100)]);
        assert!(implies(&p, &q));
    }

    #[test]
    fn disjunction_on_left() {
        // (c<3 OR c<5) implies c<10
        let p = Scalar::or([lt(c(0), 3), lt(c(0), 5)]);
        assert!(implies(&p, &lt(c(0), 10)));
        assert!(!implies(&p, &lt(c(0), 4)));
    }

    #[test]
    fn consumer_implies_covering_or() {
        // The CSE covering predicate shape: consumer pred must imply the OR
        // of all consumers' preds.
        let q1 = Scalar::and([gt(c(0), 0), lt(c(0), 20)]);
        let q2 = Scalar::and([gt(c(0), 5), lt(c(0), 25)]);
        let covering = Scalar::or([q1.clone(), q2.clone()]);
        assert!(implies(&q1, &covering));
        assert!(implies(&q2, &covering));
    }

    #[test]
    fn bounds_of_different_comparison_classes_prove_nothing() {
        // `c < DATE` against `c < 'text'`: the executor's comparison is NULL
        // for every row on one side, so neither implies the other, and a
        // conjunction keeps the bound it saw first instead of "tightening"
        // across classes.
        let by_date = Scalar::cmp(CmpOp::Lt, c(0), Scalar::Lit(Value::Date(9678)));
        let by_text = Scalar::cmp(CmpOp::Lt, c(0), Scalar::Lit(Value::str("1996-13-26")));
        assert!(!implies(&by_date, &by_text));
        assert!(!implies(&by_text, &by_date));
        let both = Scalar::and([by_date.clone(), by_text.clone()]);
        let iv = &column_ranges(&both)[&ColRef::new(RelId(0), 0)];
        assert_eq!(iv.hi, Some((Value::Date(9678), false)));
        assert!(!iv.within(&column_ranges(&by_text)[&ColRef::new(RelId(0), 0)]));
        // INT and FLOAT are one class.
        let lt_float = Scalar::cmp(CmpOp::Lt, c(0), Scalar::Lit(Value::Float(10.5)));
        assert!(implies(&lt(c(0), 5), &lt_float));
    }

    #[test]
    fn unknown_is_not_implied() {
        // No information about column 3.
        assert!(!implies(&lt(c(0), 5), &lt(c(3), 5)));
    }
}
