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
//!
//! [`Antecedent`] is the prover: it holds the left side normalized, so a
//! caller testing one predicate against many (a covering predicate against
//! every conjunct of every consumer) normalizes it once. `implies` is
//! `Antecedent::new(p).implies(q)`.
//!
//! The single-column range is [`Interval`], the one such type in the tree:
//! the covering hull, lint's refutation and index narrowing read it too.

use crate::ids::ColRef;
use crate::scalar::{CmpOp, Scalar};
use cse_storage::{DataType, Value};
use std::cmp::Ordering;
use std::collections::BTreeMap;

/// One side of an [`Interval`]: `(bound, inclusive)`, `None` when open.
type Side = Option<(Value, bool)>;

/// A one-column interval with optional inclusive/exclusive bounds; an
/// equality pins both to one value. The only per-column range in the tree:
/// implication, the covering hull, lint refutation and index narrowing all
/// read this type. It is a *hint* — what a predicate accepts is decided by
/// evaluating the predicate, never by a range check.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Interval {
    pub lo: Side,
    pub hi: Side,
}

/// Why [`Interval::emptiness`] finds no value of a column type inside.
#[derive(Debug, Clone, PartialEq)]
pub enum Empty {
    /// An exclusive integral bound at the edge of its domain: nothing lies
    /// beyond it on the `lower` (else upper) side.
    BeyondDomain { bound: Value, lower: bool },
    /// The lower bound lies above the upper one (integral bounds closed).
    Crossed {
        lo: (Value, bool),
        hi: (Value, bool),
    },
    /// The bounds meet at one value that at least one side excludes.
    OpenPoint(Value),
}

impl Interval {
    // Bounds are ordered by `Value::sql_cmp`, the comparison the executor
    // evaluates. A bound of another comparison class (a DATE against a
    // STRING) is incomparable: it never replaces the current bound, and
    // `within`, `contains` and `hull` prove nothing across it.
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

    /// Narrow by the atom `col op v`. `<>` bounds nothing.
    fn narrow(&mut self, op: CmpOp, v: Value) {
        match op {
            CmpOp::Eq => {
                self.tighten_lo(v.clone(), true);
                self.tighten_hi(v, true);
            }
            CmpOp::Lt => self.tighten_hi(v, false),
            CmpOp::Le => self.tighten_hi(v, true),
            CmpOp::Gt => self.tighten_lo(v, false),
            CmpOp::Ge => self.tighten_lo(v, true),
            CmpOp::Ne => {}
        }
    }

    /// Does `v` satisfy every bound? NULL and a value of another comparison
    /// class than a bound satisfy none.
    pub fn contains(&self, v: &Value) -> bool {
        let past = |side: &Side, beyond: Ordering| {
            side.as_ref().is_none_or(|(b, inc)| match v.sql_cmp(b) {
                Some(Ordering::Equal) => *inc,
                o => o == Some(beyond),
            })
        };
        past(&self.lo, Ordering::Greater) && past(&self.hi, Ordering::Less)
    }

    /// The smallest interval around all of `ivs`, and whether it could be
    /// told: a side some interval leaves open is open; a side on which two
    /// bounds are incomparable (a DATE and a STRING) is left open too and
    /// reported `false` — no single literal bounds both, so the caller must
    /// keep the intervals apart rather than trust the hull.
    pub fn hull(ivs: &[&Interval]) -> (Interval, bool) {
        let lo = hull_side(ivs.iter().map(|iv| &iv.lo), Ordering::Less);
        let hi = hull_side(ivs.iter().map(|iv| &iv.hi), Ordering::Greater);
        let comparable = lo.is_ok() && hi.is_ok();
        let (lo, hi) = (lo.unwrap_or(None), hi.unwrap_or(None));
        (Interval { lo, hi }, comparable)
    }

    /// Can the interval be *proven* to hold no value of a `ty` column? On
    /// the integral types an exclusive bound is first closed onto its
    /// neighbour (checked, so `> i64::MAX` is empty instead of wrapping),
    /// which makes adjacency gaps (`> 4 AND < 5`) visible as crossings.
    /// `None` means "not provably empty", never "satisfiable".
    pub fn emptiness(&self, ty: DataType) -> Option<Empty> {
        let (Some(lo), Some(hi)) = (&self.lo, &self.hi) else {
            return None;
        };
        let (mut lo, mut hi) = (lo.clone(), hi.clone());
        if matches!(ty, DataType::Int | DataType::Date) {
            for (side, step, lower) in [(&mut lo, 1, true), (&mut hi, -1, false)] {
                let closed = match side {
                    (Value::Int(v), false) => v.checked_add(step.into()).map(Value::Int),
                    (Value::Date(v), false) => v.checked_add(step).map(Value::Date),
                    _ => continue,
                };
                let Some(closed) = closed else {
                    let bound = side.0.clone();
                    return Some(Empty::BeyondDomain { bound, lower });
                };
                *side = (closed, true);
            }
        }
        match lo.0.sql_cmp(&hi.0)? {
            Ordering::Greater => Some(Empty::Crossed { lo, hi }),
            Ordering::Equal if !(lo.1 && hi.1) => Some(Empty::OpenPoint(lo.0)),
            _ => None,
        }
    }

    /// Are the bounds of a `ty` column's own comparison class (INT/FLOAT
    /// together, DATE, STRING)? Only there does the storage layer's total
    /// order — the B-tree's layout — agree with `sql_cmp`, so only then may
    /// an ordered index narrow a scan to this interval.
    pub fn in_class_of(&self, ty: DataType) -> bool {
        self.lo.iter().chain(&self.hi).all(|(b, _)| {
            matches!(
                (ty, b),
                (
                    DataType::Int | DataType::Float,
                    Value::Int(_) | Value::Float(_)
                ) | (DataType::Date, Value::Date(_))
                    | (DataType::Str, Value::Str(_))
            )
        })
    }

    /// Does this interval lie entirely inside `outer`?
    fn within(&self, outer: &Interval) -> bool {
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
    ranges_of(&p.conjuncts())
}

/// [`column_ranges`] of the conjunction of `conjuncts`, bounds tightened
/// in list order.
pub fn ranges_of<'a>(
    conjuncts: impl IntoIterator<Item = &'a Scalar>,
) -> BTreeMap<ColRef, Interval> {
    let mut out: BTreeMap<ColRef, Interval> = BTreeMap::new();
    for conj in conjuncts {
        if let Some((col, op, v)) = conj.as_col_vs_lit() {
            out.entry(col).or_default().narrow(op, v);
        }
    }
    out
}

/// The loosest of the bounds on one side (`looser` is how a looser bound
/// compares to a tighter one: `Less` for lower bounds). `Ok(None)` when a
/// bound is open, `Err` when two are incomparable under `sql_cmp`.
fn hull_side<'a>(bounds: impl Iterator<Item = &'a Side>, looser: Ordering) -> Result<Side, ()> {
    let mut hull: Side = None;
    for bound in bounds {
        let Some((v, inc)) = bound else {
            return Ok(None);
        };
        hull = Some(match hull {
            None => (v.clone(), *inc),
            Some((cur, cinc)) => match v.sql_cmp(&cur).ok_or(())? {
                Ordering::Equal => (cur, cinc || *inc),
                o if o == looser => (v.clone(), *inc),
                _ => (cur, cinc),
            },
        });
    }
    Ok(hull)
}

/// Conservative implication: true only when provable.
pub fn implies(p: &Scalar, q: &Scalar) -> bool {
    Antecedent::new(p.clone()).implies(q)
}

/// Which of `conjuncts` their siblings imply: `true` at `i` means conjunct
/// `i` can be dropped from the conjunction without changing the rows it
/// accepts. Each conjunct is tested against the siblings still kept, from
/// the last to the first, so of two conjuncts that imply each other (a
/// literal duplicate included) only the later is marked.
///
/// A disjunction supports only its duplicate: the range a sibling OR
/// implies stays, because the one-column bound is what [`ranges_of`], the
/// covering hull and this prover read, and an OR among conjuncts is opaque
/// to them. The prover proves an atom only from a sibling on one of its
/// columns or from an identical sibling, so only a conjunct that shares a
/// column with a supporting sibling, or mentions no column, is tested.
pub fn implied_by_siblings(conjuncts: &[Scalar]) -> Vec<bool> {
    let columns: Vec<_> = conjuncts.iter().map(Scalar::columns).collect();
    let mut implied = vec![false; conjuncts.len()];
    for (i, q) in conjuncts.iter().enumerate().rev() {
        let support: Vec<usize> = (0..conjuncts.len())
            .filter(|&j| j != i && !implied[j])
            .filter(|&j| !matches!(conjuncts[j], Scalar::Or(_)) || conjuncts[j] == *q)
            .collect();
        let shares_column = |&j: &usize| !columns[j].is_disjoint(&columns[i]);
        let testable =
            !support.is_empty() && (columns[i].is_empty() || support.iter().any(shares_column));
        implied[i] = testable && {
            let siblings = Scalar::and(support.iter().map(|&j| conjuncts[j].clone()));
            Antecedent::new(siblings).implies(q)
        };
    }
    implied
}

/// The left side of [`implies`], prepared once for many right sides: `p`
/// normalized, and either its disjuncts (each prepared the same way) or the
/// column ranges its conjuncts bound. Nothing is normalized twice, which is
/// sound because `normalize` is idempotent: every sub-term of a normalized
/// predicate is its own normal form.
#[derive(Debug, Clone)]
pub struct Antecedent {
    p: Scalar,
    form: Form,
}

#[derive(Debug, Clone)]
enum Form {
    /// `p1 ∨ p2 ∨ …`: implies `q` iff every branch does.
    Or(Vec<Antecedent>),
    /// Any other predicate, read as a conjunction, with its ranges.
    Conjuncts(BTreeMap<ColRef, Interval>),
}

/// The conjuncts of a normalized predicate: normalization keeps an AND flat.
fn conjuncts_of(p: &Scalar) -> &[Scalar] {
    match p {
        Scalar::And(ps) => ps,
        p => std::slice::from_ref(p),
    }
}

impl Antecedent {
    pub fn new(p: Scalar) -> Self {
        Antecedent::of_normal(p.into_normal())
    }

    fn of_normal(p: Scalar) -> Self {
        let form = match &p {
            Scalar::Or(ps) if !ps.is_empty() => {
                Form::Or(ps.iter().cloned().map(Antecedent::of_normal).collect())
            }
            _ => Form::Conjuncts(ranges_of(conjuncts_of(&p))),
        };
        Antecedent { p, form }
    }

    /// The antecedent, normalized.
    pub fn into_predicate(self) -> Scalar {
        self.p
    }

    /// Does every row satisfying the antecedent provably satisfy `q`?
    pub fn implies(&self, q: &Scalar) -> bool {
        self.implies_normal(&q.normalize())
    }

    /// [`Antecedent::implies`] for a `q` already normalized, such as a
    /// conjunct of a normalized predicate.
    pub fn implies_normal(&self, q: &Scalar) -> bool {
        if q.is_true() || self.p == *q {
            return true;
        }
        let ranges = match &self.form {
            // Disjunction on the left: p1∨p2 ⇒ q iff p1 ⇒ q and p2 ⇒ q.
            Form::Or(branches) => return branches.iter().all(|b| b.implies_normal(q)),
            Form::Conjuncts(ranges) => ranges,
        };
        match q {
            Scalar::And(qs) => return qs.iter().all(|qi| self.implies_normal(qi)),
            // p ⇒ q1∨q2 if p ⇒ some qi.
            Scalar::Or(qs) => return qs.iter().any(|qi| self.implies_normal(qi)),
            _ => {}
        }
        // q is now an atom. Check syntactic containment among p's conjuncts.
        if conjuncts_of(&self.p).contains(q) {
            return true;
        }
        // Range reasoning for col-vs-literal atoms.
        if let Some((qcol, qop, qv)) = q.as_col_vs_lit() {
            if let Some(iv) = ranges.get(&qcol) {
                let mut target = Interval::default();
                target.narrow(qop, qv);
                return qop != CmpOp::Ne && iv.within(&target);
            }
        }
        false
    }
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
        let text_iv = &column_ranges(&by_text)[&ColRef::new(RelId(0), 0)];
        assert!(!iv.within(text_iv));
        // Only a value of the bound's class can be inside; NULL never is.
        assert!(iv.contains(&Value::Date(9000)) && !iv.contains(&Value::Date(9678)));
        assert!(!iv.contains(&Value::str("1996")) && !iv.contains(&Value::Null));
        // The B-tree's order is `sql_cmp`'s only within the column's class.
        assert!(iv.in_class_of(DataType::Date) && !iv.in_class_of(DataType::Int));
        assert_eq!(Interval::hull(&[iv, text_iv]), (Interval::default(), false));
        // INT and FLOAT are one class.
        let lt_float = Scalar::cmp(CmpOp::Lt, c(0), Scalar::Lit(Value::Float(10.5)));
        assert!(implies(&lt(c(0), 5), &lt_float));
    }

    #[test]
    fn implied_siblings_keep_one_of_each_pair() {
        let le = |v| Scalar::cmp(CmpOp::Le, c(0), Scalar::Lit(v));
        // The looser bound goes, whichever side it is on.
        assert_eq!(
            implied_by_siblings(&[lt(c(0), 10), lt(c(0), 5), gt(c(1), 2)]),
            [true, false, false]
        );
        // A duplicate and a same-valued bound of another literal kind imply
        // each other: the later one is marked, the earlier kept.
        assert_eq!(
            implied_by_siblings(&[lt(c(0), 5), lt(c(0), 5)]),
            [false, true]
        );
        let pair = [le(Value::Int(9)), le(Value::Float(9.0))];
        assert_eq!(implied_by_siblings(&pair), [false, true]);
        // Nothing on the conjunct's column: nothing to prove it from.
        assert_eq!(
            implied_by_siblings(&[lt(c(0), 5), lt(c(1), 5)]),
            [false, false]
        );
        assert_eq!(implied_by_siblings(&[Scalar::true_()]), [false]);
        // The bound an OR implies stays; a duplicate OR goes.
        let or = Scalar::or([lt(c(0), 5), Scalar::and([lt(c(0), 8), gt(c(1), 1)])]);
        assert_eq!(
            implied_by_siblings(&[lt(c(0), 10), or.clone()]),
            [false, false]
        );
        assert_eq!(implied_by_siblings(&[or.clone(), or]), [false, true]);
    }

    #[test]
    fn unknown_is_not_implied() {
        // No information about column 3.
        assert!(!implies(&lt(c(0), 5), &lt(c(3), 5)));
    }
}
