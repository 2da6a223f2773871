//! Property tests for the analyzer's semantics-preserving passes.
//!
//! The central contract of `cse_lint::fold` is that it mirrors the
//! engine's evaluation semantics **exactly**: for every row, evaluating
//! the folded expression gives the same [`Value`] as evaluating the
//! original. We check this on randomly generated expression trees and
//! randomly generated rows (including NULLs), drawn from the repo's
//! deterministic xorshift PRNG (`cse_storage::testkit::TestRng`).
//!
//! A second property covers the range pass: `prove_unsat` is
//! refutation-sound — whenever it proves a conjunction empty, no random
//! row satisfies all conjuncts under engine evaluation. A third covers the
//! redundant-conjunct rule, which covering construction shares: dropping
//! what `implied_by_siblings` marks never changes which rows pass.

use cse_algebra::{implied_by_siblings, ArithOp, CmpOp, ColRef, PlanContext, RelId, Scalar};
use cse_exec::Bound;
use cse_lint::fold::fold;
use cse_lint::ranges::prove_unsat;
use cse_storage::testkit::TestRng;
use cse_storage::{DataType, Schema, Value};
use std::sync::Arc;

/// Columns the generated expressions draw from: (int, float, date).
const N_COLS: u16 = 3;

/// Engine evaluation; every generated expression reads the three layout
/// columns only.
fn eval(s: &Scalar, cols: &[ColRef], row: &[Value]) -> Value {
    let bound = Bound::bind(s, cols, "test").expect("generated columns are in the layout");
    bound.eval(row).into_owned()
}

fn accepts(s: &Scalar, cols: &[ColRef], row: &[Value]) -> bool {
    let bound = Bound::bind(s, cols, "test").expect("generated columns are in the layout");
    bound.accepts(row)
}

fn context() -> (PlanContext, RelId) {
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

/// A random row for the 3-column layout, with NULLs mixed in.
fn random_row(rng: &mut TestRng) -> Vec<Value> {
    (0..N_COLS)
        .map(|c| {
            if rng.chance(0.15) {
                Value::Null
            } else {
                match c {
                    0 => Value::Int(rng.range_i64(-50, 51)),
                    1 => Value::Float((rng.range_i64(-500, 501) as f64) / 10.0),
                    _ => Value::Date(rng.range_i64(9_000, 10_000) as i32),
                }
            }
        })
        .collect()
}

/// Generated expressions are **well-typed**: booleans where the engine
/// expects booleans, numerics inside arithmetic and comparisons. The
/// engine evaluates an ill-typed operand of `AND`/`OR`/`NOT` as NULL-ish
/// (e.g. `Or([Float, false])` is NULL), so identities like dropping the
/// OR-identity `false` — valid on booleans — would diverge under `IS
/// NULL` on junk trees the analyzer's type audit rejects anyway. The
/// folder's contract is scoped to type-checked predicates.
#[derive(Clone, Copy)]
enum NumKind {
    Int,
    Float,
    Date,
}

/// A random numeric-typed expression. Int magnitudes stay small and the
/// arithmetic depth is bounded (≤3 via the boolean generator); overflow
/// needs no care here, since the folder and the engine compute literals
/// through the same `ArithOp::apply`.
fn random_num(rng: &mut TestRng, r: RelId, depth: usize, kind: NumKind) -> Scalar {
    let leaf = depth == 0 || matches!(kind, NumKind::Date) || rng.chance(0.35);
    if leaf {
        if rng.chance(0.08) {
            return Scalar::Lit(Value::Null);
        }
        return match kind {
            NumKind::Int => {
                if rng.chance(0.5) {
                    Scalar::col(r, 0)
                } else {
                    Scalar::int(rng.range_i64(-50, 51))
                }
            }
            NumKind::Float => {
                if rng.chance(0.5) {
                    Scalar::col(r, 1)
                } else {
                    Scalar::Lit(Value::Float((rng.range_i64(-500, 501) as f64) / 10.0))
                }
            }
            NumKind::Date => {
                if rng.chance(0.5) {
                    Scalar::col(r, 2)
                } else {
                    Scalar::Lit(Value::Date(rng.range_i64(9_000, 10_000) as i32))
                }
            }
        };
    }
    let op = *rng.pick(&[ArithOp::Add, ArithOp::Sub, ArithOp::Mul, ArithOp::Div]);
    Scalar::Arith(
        op,
        Box::new(random_num(rng, r, depth - 1, kind)),
        Box::new(random_num(rng, r, depth - 1, kind)),
    )
}

/// A random boolean-typed expression tree of bounded depth.
fn random_scalar(rng: &mut TestRng, r: RelId, depth: usize) -> Scalar {
    if depth == 0 || rng.chance(0.2) {
        return if rng.chance(0.75) {
            Scalar::Lit(Value::Bool(rng.chance(0.5)))
        } else {
            Scalar::Lit(Value::Null)
        };
    }
    match rng.range_usize(0, 6) {
        0 | 1 => {
            let kind = *rng.pick(&[NumKind::Int, NumKind::Float, NumKind::Date]);
            let op = *rng.pick(&[
                CmpOp::Eq,
                CmpOp::Ne,
                CmpOp::Lt,
                CmpOp::Le,
                CmpOp::Gt,
                CmpOp::Ge,
            ]);
            Scalar::cmp(
                op,
                random_num(rng, r, depth - 1, kind),
                random_num(rng, r, depth - 1, kind),
            )
        }
        2 => {
            let n = rng.range_usize(0, 4);
            Scalar::And((0..n).map(|_| random_scalar(rng, r, depth - 1)).collect())
        }
        3 => {
            let n = rng.range_usize(0, 4);
            Scalar::Or((0..n).map(|_| random_scalar(rng, r, depth - 1)).collect())
        }
        4 => Scalar::Not(Box::new(random_scalar(rng, r, depth - 1))),
        _ => {
            // IS NULL accepts any operand type.
            let inner = if rng.chance(0.5) {
                random_scalar(rng, r, depth - 1)
            } else {
                let kind = *rng.pick(&[NumKind::Int, NumKind::Float, NumKind::Date]);
                random_num(rng, r, depth - 1, kind)
            };
            Scalar::IsNull(Box::new(inner))
        }
    }
}

/// Engine-equality between two values: NaN == NaN, otherwise `==`.
/// (Folding float arithmetic in a different association order never
/// happens — the folder is bottom-up and literal-only — but NaN needs
/// special-casing because `Value: PartialEq` is IEEE on floats.)
fn same_value(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Float(x), Value::Float(y)) => (x.is_nan() && y.is_nan()) || x == y,
        _ => a == b,
    }
}

#[test]
fn folding_never_changes_evaluation() {
    let (_ctx, r) = context();
    let layout = [ColRef::new(r, 0), ColRef::new(r, 1), ColRef::new(r, 2)];
    let mut rng = TestRng::new(0x000C_5E11);
    let mut folded_to_literal = 0usize;
    for case in 0..400 {
        let s = random_scalar(&mut rng, r, 4);
        let f = fold(&s);
        if matches!(f, Scalar::Lit(_)) {
            folded_to_literal += 1;
        }
        for _ in 0..8 {
            let row = random_row(&mut rng);
            let v_orig = eval(&s, &layout, &row);
            let v_fold = eval(&f, &layout, &row);
            assert!(
                same_value(&v_orig, &v_fold),
                "case {case}: folding changed evaluation\n  expr:   {s}\n  folded: {f}\n  row:    {row:?}\n  orig {v_orig} vs folded {v_fold}"
            );
        }
    }
    // The generator produces plenty of literal-only subtrees; if nothing
    // ever folds to a literal the test is vacuous.
    assert!(
        folded_to_literal > 40,
        "only {folded_to_literal}/400 cases folded to a literal — generator drifted?"
    );
}

#[test]
fn normalization_then_folding_also_preserves_evaluation() {
    // `lint_batch` folds the *normalized* conjuncts the lowerer traced;
    // check the composition too.
    let (_ctx, r) = context();
    let layout = [ColRef::new(r, 0), ColRef::new(r, 1), ColRef::new(r, 2)];
    let mut rng = TestRng::new(0xBEEF);
    for _ in 0..200 {
        let s = random_scalar(&mut rng, r, 3);
        let f = fold(&s.clone().normalize());
        for _ in 0..4 {
            let row = random_row(&mut rng);
            // Normalization preserves *acceptance* (it may rewrite NULL
            // outcomes of NOT-pushing, e.g. NOT(a<b) -> a>=b flips NULL
            // handling only for non-comparable operands — which the
            // engine treats identically for filtering).
            let a_orig = accepts(&s, &layout, &row);
            let a_fold = accepts(&f, &layout, &row);
            assert_eq!(
                a_orig, a_fold,
                "normalize+fold changed acceptance\n  expr:   {s}\n  folded: {f}\n  row:    {row:?}"
            );
        }
    }
}

#[test]
fn prove_unsat_is_refutation_sound() {
    let (ctx, r) = context();
    let layout = [ColRef::new(r, 0), ColRef::new(r, 1), ColRef::new(r, 2)];
    let mut rng = TestRng::new(0x5EED);
    let mut proven = 0usize;
    for _ in 0..600 {
        // 2-4 random col-vs-literal conjuncts over the int column, with
        // tight ranges so contradictions actually occur; some literals are
        // of another class (`sql_cmp` ranks a DATE with the numbers, the
        // storage order does not, and a STRING bounds no number).
        let n = rng.range_usize(2, 5);
        let conjuncts: Vec<Scalar> = (0..n)
            .map(|_| {
                let op = *rng.pick(&[
                    CmpOp::Eq,
                    CmpOp::Ne,
                    CmpOp::Lt,
                    CmpOp::Le,
                    CmpOp::Gt,
                    CmpOp::Ge,
                ]);
                let v = rng.range_i64(-3, 4);
                let lit = match rng.range_usize(0, 10) {
                    0 => Value::Float(v as f64 + 0.5),
                    1 => Value::Date(v as i32),
                    2 => Value::str(*rng.pick(&["", "0", "abc"])),
                    _ => Value::Int(v),
                };
                Scalar::cmp(op, Scalar::col(r, 0), Scalar::Lit(lit))
            })
            .collect();
        if prove_unsat(&ctx, &conjuncts).is_some() {
            proven += 1;
            let pred = Scalar::and(conjuncts.clone());
            for _ in 0..64 {
                let mut row = random_row(&mut rng);
                row[0] = Value::Int(rng.range_i64(-6, 7));
                assert!(
                    !accepts(&pred, &layout, &row),
                    "prove_unsat claimed empty but a row passed: {pred} on {row:?}"
                );
            }
        }
    }
    assert!(proven > 30, "only {proven}/600 cases were proven empty");
}

#[test]
fn dropping_implied_conjuncts_never_changes_acceptance() {
    let (_ctx, r) = context();
    let layout = [ColRef::new(r, 0), ColRef::new(r, 1), ColRef::new(r, 2)];
    let mut rng = TestRng::new(0x1417);
    let mut dropped = 0usize;
    for case in 0..600 {
        // 2-5 conjuncts: tight ranges on the int column (a literal on
        // either side, sometimes of the float class or NULL), duplicates
        // of earlier conjuncts, and the odd arbitrary predicate.
        let n = rng.range_usize(2, 6);
        let mut conjuncts: Vec<Scalar> = Vec::new();
        for _ in 0..n {
            let conjunct = match rng.range_usize(0, 10) {
                0..=2 if !conjuncts.is_empty() => rng.pick(&conjuncts).clone(),
                3 => random_scalar(&mut rng, r, 2),
                _ => {
                    let op = *rng.pick(&[
                        CmpOp::Eq,
                        CmpOp::Ne,
                        CmpOp::Lt,
                        CmpOp::Le,
                        CmpOp::Gt,
                        CmpOp::Ge,
                    ]);
                    let v = rng.range_i64(-3, 4);
                    let lit = Scalar::Lit(match rng.range_usize(0, 10) {
                        0 => Value::Float(v as f64 + 0.5),
                        1 => Value::Null,
                        _ => Value::Int(v),
                    });
                    let col = Scalar::col(r, 0);
                    if rng.chance(0.5) {
                        Scalar::cmp(op, col, lit)
                    } else {
                        Scalar::cmp(op, lit, col)
                    }
                }
            };
            conjuncts.push(conjunct);
        }
        let implied = implied_by_siblings(&conjuncts);
        let kept = conjuncts.iter().zip(&implied).filter(|(_, i)| !**i);
        let pruned = Scalar::and(kept.map(|(c, _)| c.clone()));
        if implied.iter().any(|i| *i) {
            dropped += 1;
            assert!(
                implied.contains(&false),
                "case {case}: dropped every conjunct"
            );
        }
        let pred = Scalar::and(conjuncts.clone());
        for _ in 0..32 {
            let mut row = random_row(&mut rng);
            if row[0] != Value::Null {
                row[0] = Value::Int(rng.range_i64(-5, 6));
            }
            assert_eq!(
                accepts(&pred, &layout, &row),
                accepts(&pruned, &layout, &row),
                "case {case}: pruning changed acceptance\n  pred:   {pred}\n  pruned: {pruned}\n  row:    {row:?}"
            );
        }
    }
    assert!(dropped > 150, "only {dropped}/600 cases dropped a conjunct");
}

#[test]
fn null_bounds_are_ignored_by_ranges() {
    // `c < NULL` never accepts a row, but that is the fold pass's
    // finding; the range pass must not treat NULL as a bound (NULL is
    // not comparable, so "lo = NULL" would poison the emptiness test).
    let (ctx, r) = context();
    let c = Scalar::col(r, 0);
    let conj = vec![
        Scalar::cmp(CmpOp::Lt, c.clone(), Scalar::Lit(Value::Null)),
        Scalar::cmp(CmpOp::Gt, c, Scalar::int(0)),
    ];
    assert!(prove_unsat(&ctx, &conj).is_none());
    // And the folder catches the NULL comparison as never-accepting.
    let folded = fold(&conj[0]);
    assert!(cse_lint::fold::is_const_null(&folded));
}
